//! The abstract syntax tree of the SQL dialect.
//!
//! The dialect covers exactly what the paper's framework produces and
//! consumes: SPJ blocks with arbitrary and/or/not qualifications, `DISTINCT`,
//! `UNION ALL` (and plain `UNION`), derived tables, `GROUP BY` / `HAVING`,
//! aggregate functions (including the paper's `DEGREE_OF_CONJUNCTION` /
//! `DEGREE_OF_DISJUNCTION`), `ORDER BY` and `LIMIT`.

use pqp_storage::Value;
use std::sync::Arc;

/// A full query: a set expression plus optional ordering and limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub body: SetExpr,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// Wrap a select block into a bare query.
    pub fn from_select(select: Select) -> Query {
        Query { body: SetExpr::Select(Box::new(select)), order_by: Vec::new(), limit: None }
    }

    /// The outermost select block, if the body is a plain select.
    pub fn as_select(&self) -> Option<&Select> {
        match &self.body {
            SetExpr::Select(s) => Some(s),
            _ => None,
        }
    }
}

/// Body of a query: a select block or a union of two bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    Union {
        left: Box<SetExpr>,
        right: Box<SetExpr>,
        /// `UNION ALL` when true, duplicate-eliminating `UNION` otherwise.
        all: bool,
    },
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableFactor>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

impl Select {
    /// An empty select block (no projection, no from).
    pub fn new() -> Select {
        Select {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

impl Default for Select {
    fn default() -> Self {
        Self::new()
    }
}

/// An item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<Arc<str>> },
}

/// A FROM-clause factor.
///
/// Identifiers here and in [`Expr::Column`] are shared strings: the
/// personalization rewrites copy the query's names into every partial query
/// and branch, and a copy is a reference-count bump.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// `name [alias]` — a base table with an optional tuple variable.
    Table { name: Arc<str>, alias: Option<Arc<str>> },
    /// `( query ) alias` — a derived table.
    Derived { query: Box<Query>, alias: Arc<str> },
}

impl TableFactor {
    /// The name by which columns of this factor are qualified: the alias if
    /// present, the table name otherwise.
    pub fn binding_name(&self) -> &str {
        match self {
            TableFactor::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Plus,
    Minus,
    Mul,
    Div,
}

impl BinaryOp {
    /// Whether this is a comparison operator yielding a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Scalar and boolean expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `[qualifier.]name`
    Column { qualifier: Option<Arc<str>>, name: Arc<str> },
    /// A literal value.
    Literal(Value),
    /// `left op right`
    Binary { left: Box<Expr>, op: BinaryOp, right: Box<Expr> },
    /// `NOT expr`
    Not(Box<Expr>),
    /// `expr IS [NOT] NULL`
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (v1, v2, ...)`
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    /// `name(args)` or `name(*)` — aggregate or scalar function call.
    Function { name: String, args: Vec<Expr>, wildcard: bool },
}

impl Expr {
    /// Split a conjunction into its top-level conjuncts (flattening nested
    /// ANDs). A non-AND expression yields itself.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary { left, op: BinaryOp::And, right } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Split a disjunction into its top-level disjuncts.
    pub fn disjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary { left, op: BinaryOp::Or, right } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Collect the qualifiers of every column referenced in this expression
    /// (case-insensitively distinct, in first-reference order).
    pub fn referenced_qualifiers<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column { qualifier: Some(q), .. } => {
                if !out.iter().any(|x| x.eq_ignore_ascii_case(q)) {
                    out.push(q);
                }
            }
            Expr::Column { qualifier: None, .. } | Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_qualifiers(out);
                right.referenced_qualifiers(out);
            }
            Expr::Not(e) => e.referenced_qualifiers(out),
            Expr::IsNull { expr, .. } => expr.referenced_qualifiers(out),
            Expr::InList { expr, list, .. } => {
                expr.referenced_qualifiers(out);
                for e in list {
                    e.referenced_qualifiers(out);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.referenced_qualifiers(out);
                }
            }
        }
    }

    /// True if the expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, .. } if crate::is_aggregate_name(name) => true,
            Expr::Function { args, .. } => args.iter().any(|a| a.contains_aggregate()),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            Expr::Column { .. } | Expr::Literal(_) => false,
        }
    }
}

/// One key of an ORDER BY clause.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn conjunct_flattening() {
        let e = and(and(col("a", "x"), col("b", "y")), col("c", "z"));
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(col("a", "x").conjuncts().len(), 1);
    }

    #[test]
    fn disjunct_flattening() {
        let e = or(col("a", "x"), or(col("b", "y"), col("c", "z")));
        assert_eq!(e.disjuncts().len(), 3);
    }

    #[test]
    fn qualifier_collection_dedupes() {
        let e = and(eq(col("MV", "mid"), col("PL", "mid")), eq(col("mv", "year"), lit(2000i64)));
        let mut qs = Vec::new();
        e.referenced_qualifiers(&mut qs);
        assert_eq!(qs, vec!["MV", "PL"]);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function { name: "COUNT".into(), args: vec![], wildcard: true };
        assert!(agg.contains_aggregate());
        assert!(gt(agg.clone(), lit(2i64)).contains_aggregate());
        assert!(!col("a", "b").contains_aggregate());
    }

    #[test]
    fn binding_name() {
        let t = TableFactor::Table { name: "MOVIE".into(), alias: Some("MV".into()) };
        assert_eq!(t.binding_name(), "MV");
        let t = TableFactor::Table { name: "MOVIE".into(), alias: None };
        assert_eq!(t.binding_name(), "MOVIE");
    }
}
