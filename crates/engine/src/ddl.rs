//! DDL/DML execution: `CREATE TABLE`, `CREATE INDEX`, `INSERT`, `DELETE`,
//! `DROP TABLE`.

use crate::error::{bind_err, EngineError, Result};
use crate::types::ResultSet;
use pqp_sql::stmt::{ColumnSpec, Statement, TableConstraint};
use pqp_sql::Expr;
use pqp_storage::{Catalog, ColumnDef, TableSchema, Value};

/// Outcome of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// A query's rows.
    Rows(ResultSet),
    /// DDL/DML row count (0 for DDL).
    Affected(usize),
}

impl StatementResult {
    /// The result set, if this was a query.
    pub fn rows(self) -> Option<ResultSet> {
        match self {
            StatementResult::Rows(rs) => Some(rs),
            StatementResult::Affected(_) => None,
        }
    }

    /// The affected-row count, if this was DDL/DML.
    pub fn affected(&self) -> Option<usize> {
        match self {
            StatementResult::Rows(_) => None,
            StatementResult::Affected(n) => Some(*n),
        }
    }
}

/// Execute a parsed statement against a catalog (queries are handled by the
/// caller, which owns the full pipeline).
pub fn execute_statement(stmt: &Statement, catalog: &mut Catalog) -> Result<StatementResult> {
    match stmt {
        Statement::Query(_) => {
            bind_err("execute_statement does not handle queries; use Database::run_query")
        }
        Statement::CreateTable { name, columns, constraints } => {
            let schema = build_schema(name, columns, constraints)?;
            catalog.create_table(schema)?;
            Ok(StatementResult::Affected(0))
        }
        Statement::CreateIndex { table, column } => {
            let t = catalog.table(table)?;
            t.write().create_index(column)?;
            Ok(StatementResult::Affected(0))
        }
        Statement::DropTable { name } => {
            catalog.drop_table(name)?;
            Ok(StatementResult::Affected(0))
        }
        Statement::Insert { table, columns, rows } => {
            let t = catalog.table(table)?;
            let mut t = t.write();
            let arity = t.schema().arity();
            // Map the provided column list (if any) to schema positions.
            let positions: Vec<usize> = match columns {
                None => (0..arity).collect(),
                Some(cols) => {
                    let mut out = Vec::with_capacity(cols.len());
                    for c in cols {
                        match t.schema().column_index(c) {
                            Some(i) => out.push(i),
                            None => return bind_err(format!("unknown column `{c}` in `{table}`")),
                        }
                    }
                    out
                }
            };
            let mut inserted = 0;
            for row in rows {
                if row.len() != positions.len() {
                    return bind_err(format!(
                        "INSERT row has {} values for {} columns",
                        row.len(),
                        positions.len()
                    ));
                }
                let mut full = vec![Value::Null; arity];
                for (expr, &pos) in row.iter().zip(&positions) {
                    full[pos] = const_value(expr)?;
                }
                t.insert(full)?;
                inserted += 1;
            }
            Ok(StatementResult::Affected(inserted))
        }
        Statement::Analyze { table } => {
            // Returns the number of tables analyzed. Statistics feed the
            // cost-based planner; see `crate::cost`.
            match table {
                Some(name) => {
                    catalog.analyze_table(name)?;
                    Ok(StatementResult::Affected(1))
                }
                None => Ok(StatementResult::Affected(catalog.analyze_all()?)),
            }
        }
        Statement::Show(_) => {
            // Telemetry lives in the service layer (pqp-service); the bare
            // engine has nothing to report.
            bind_err("SHOW statements are answered by the service layer, not the storage engine")
        }
        Statement::Delete { table, selection } => {
            let t = catalog.table(table)?;
            let mut t = t.write();
            let predicate = match selection {
                Some(e) => {
                    // Bind the predicate against the bare table schema.
                    let schema = crate::types::OutputSchema::new(
                        t.schema()
                            .columns
                            .iter()
                            .map(|c| crate::types::OutputColumn::new(Some(table), &c.name))
                            .collect(),
                    );
                    let planner = PredicateBinder { schema };
                    Some(planner.bind(e)?.to_pool())
                }
                None => None,
            };
            let deleted = t.delete_where(|row| match &predicate {
                Some((pool, root)) => crate::bound::Expr::new(pool, *root).eval_predicate(row),
                None => Ok(true),
            })?;
            Ok(StatementResult::Affected(deleted))
        }
    }
}

/// Bind a DELETE predicate over a single table's columns (qualified by the
/// table name or unqualified).
struct PredicateBinder {
    schema: crate::types::OutputSchema,
}

impl PredicateBinder {
    fn bind(&self, e: &Expr) -> Result<crate::bound::BoundExpr> {
        use crate::bound::BoundExpr;
        Ok(match e {
            Expr::Column { qualifier, name } => BoundExpr::Column(
                self.schema.resolve(qualifier.as_deref(), name).map_err(EngineError::Bind)?,
            ),
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(self.bind(left)?),
                op: *op,
                right: Box::new(self.bind(right)?),
            },
            Expr::Not(i) => BoundExpr::Not(Box::new(self.bind(i)?)),
            Expr::IsNull { expr, negated } => {
                BoundExpr::IsNull { expr: Box::new(self.bind(expr)?), negated: *negated }
            }
            Expr::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(self.bind(expr)?),
                list: list.iter().map(|x| self.bind(x)).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Function { name, .. } => {
                return bind_err(format!("function `{name}` not allowed in DELETE"))
            }
        })
    }
}

/// Evaluate a constant VALUES expression.
fn const_value(e: &Expr) -> Result<Value> {
    // Reuse the bound-expression evaluator over an empty row; any column
    // reference fails to bind and is reported.
    let binder = PredicateBinder { schema: crate::types::OutputSchema::default() };
    binder.bind(e)?.eval(&[])
}

fn build_schema(
    name: &str,
    columns: &[ColumnSpec],
    constraints: &[TableConstraint],
) -> Result<TableSchema> {
    let defs: Vec<ColumnDef> = columns
        .iter()
        .map(|c| ColumnDef {
            name: c.name.as_str().into(),
            ty: c.ty,
            nullable: c.nullable && !c.primary_key,
        })
        .collect();
    let mut schema = TableSchema::new(name, defs);
    let names: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    let index_of = move |col: &str| -> Result<usize> {
        names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(col))
            .ok_or_else(|| EngineError::Bind(format!("unknown column `{col}`")))
    };
    // Inline primary key / unique markers.
    for (i, c) in columns.iter().enumerate() {
        if c.primary_key {
            if !schema.primary_key.is_empty() {
                return bind_err("multiple PRIMARY KEY definitions");
            }
            schema.primary_key = vec![i];
        }
        if c.unique {
            schema.unique.push(vec![i]);
        }
    }
    for con in constraints {
        match con {
            TableConstraint::PrimaryKey(cols) => {
                let idx: Vec<usize> = cols.iter().map(|c| index_of(c)).collect::<Result<_>>()?;
                if !schema.primary_key.is_empty() && schema.primary_key != idx {
                    return bind_err("multiple PRIMARY KEY definitions");
                }
                for &i in &idx {
                    schema.columns[i].nullable = false;
                }
                schema.primary_key = idx;
            }
            TableConstraint::Unique(cols) => {
                let idx = cols.iter().map(|c| index_of(c)).collect::<Result<_>>()?;
                schema.unique.push(idx);
            }
            TableConstraint::ForeignKey { columns, parent, parent_columns } => {
                for c in columns {
                    index_of(c)?;
                }
                schema.foreign_keys.push(pqp_storage::ForeignKey {
                    columns: columns.clone(),
                    parent_table: parent.clone(),
                    parent_columns: parent_columns.clone(),
                });
            }
        }
    }
    Ok(schema)
}
