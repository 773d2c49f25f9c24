//! A deliberately naive reference executor used as a differential-testing
//! oracle for the planner + executor.
//!
//! It interprets the AST directly: cross product of the FROM clause, filter,
//! group, project — no pushdown, no join ordering, no OR-expansion. Its only
//! virtue is obvious correctness; tests assert that the optimized engine
//! produces the same multiset of rows.

use crate::aggregate::{AggCall, AggFunc};
use crate::bound::eval_binary_scalar;
use crate::error::{bind_err, exec_err, EngineError, Result};
use crate::planner::expr_eq_ci;
use crate::types::{OutputColumn, OutputSchema, ResultSet};
use pqp_obs::governor::CHECKPOINT_STRIDE;
use pqp_obs::{approx_row_bytes, QueryCtx};
use pqp_sql::ast::*;
use pqp_storage::{Catalog, Row, Value};
use std::collections::HashSet;

/// Execute a query with the naive interpreter.
pub fn naive_execute(q: &Query, catalog: &Catalog) -> Result<ResultSet> {
    naive_execute_ctx(q, catalog, &QueryCtx::unlimited())
}

/// Execute a query with the naive interpreter under a query-governor
/// context. The naive engine cooperates at the same loop boundaries as the
/// optimized one: base scans charge rows, the cross product charges memory,
/// and the WHERE/projection/grouping loops checkpoint on a stride — so even
/// the oracle can never hang past a deadline.
pub fn naive_execute_ctx(q: &Query, catalog: &Catalog, ctx: &QueryCtx) -> Result<ResultSet> {
    let (schema, mut rows) = exec_set_expr(&q.body, catalog, ctx)?;
    // ORDER BY: only output columns / aliases / projection expressions.
    if !q.order_by.is_empty() {
        let proj = first_projection(&q.body);
        let mut keys = Vec::new();
        for item in &q.order_by {
            let idx = resolve_order_key(&item.expr, &schema, &proj)?;
            keys.push((idx, item.desc));
        }
        rows.sort_by(|a, b| {
            for (idx, desc) in &keys {
                let ord = a[*idx].cmp(&b[*idx]);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = q.limit {
        rows.truncate(n as usize);
    }
    Ok(ResultSet { columns: schema.columns.iter().map(|c| c.name.to_string()).collect(), rows })
}

fn resolve_order_key(e: &Expr, schema: &OutputSchema, proj: &[&Expr]) -> Result<usize> {
    if let Expr::Column { qualifier, name } = e {
        if let Ok(i) = schema.resolve(qualifier.as_deref(), name) {
            return Ok(i);
        }
    }
    if let Some(i) = proj.iter().position(|p| expr_eq_ci(p, e)) {
        return Ok(i);
    }
    bind_err(format!("ORDER BY `{e}` does not match any output column"))
}

fn first_projection(s: &SetExpr) -> Vec<&Expr> {
    match s {
        SetExpr::Select(sel) => sel
            .projection
            .iter()
            .filter_map(|it| match it {
                SelectItem::Expr { expr, .. } => Some(expr),
                SelectItem::Wildcard => None,
            })
            .collect(),
        SetExpr::Union { left, .. } => first_projection(left),
    }
}

fn exec_set_expr(
    s: &SetExpr,
    catalog: &Catalog,
    ctx: &QueryCtx,
) -> Result<(OutputSchema, Vec<Row>)> {
    ctx.checkpoint()?;
    match s {
        SetExpr::Select(sel) => exec_select(sel, catalog, ctx),
        SetExpr::Union { left, right, all } => {
            let (ls, mut lrows) = exec_set_expr(left, catalog, ctx)?;
            let (rs, rrows) = exec_set_expr(right, catalog, ctx)?;
            if ls.arity() != rs.arity() {
                return bind_err("UNION arms have different arities");
            }
            lrows.extend(rrows);
            if !*all {
                let mut seen = HashSet::new();
                lrows.retain(|r| seen.insert(r.clone()));
            }
            Ok((ls, lrows))
        }
    }
}

fn exec_select(
    sel: &Select,
    catalog: &Catalog,
    ctx: &QueryCtx,
) -> Result<(OutputSchema, Vec<Row>)> {
    // 1. Cross product of the FROM clause.
    let mut schema = OutputSchema::default();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for f in &sel.from {
        let (fs, frows) = match f {
            TableFactor::Table { name, alias } => {
                let t = catalog.table(name)?;
                let t = t.read();
                let binding = alias.as_deref().unwrap_or(name);
                let cols = t
                    .schema()
                    .columns
                    .iter()
                    .map(|c| OutputColumn::new(Some(binding), &c.name))
                    .collect();
                let frows = t.scan();
                ctx.charge_rows(frows.len() as u64)?;
                (OutputSchema::new(cols), frows)
            }
            TableFactor::Derived { query, alias } => {
                let rs = naive_execute_ctx(query, catalog, ctx)?;
                let cols = rs.columns.iter().map(|c| OutputColumn::new(Some(alias), c)).collect();
                (OutputSchema::new(cols), rs.rows)
            }
        };
        schema = schema.join(&fs);
        // The unoptimized cross product is exactly the blow-up the memory
        // budget exists for: charge every materialized row.
        let mut next = Vec::with_capacity(rows.len() * frows.len().max(1));
        let mut pending_mem = 0u64;
        for r in &rows {
            for fr in &frows {
                let mut row = r.clone();
                row.extend(fr.iter().cloned());
                pending_mem += approx_row_bytes(row.len());
                next.push(row);
                if next.len() & (CHECKPOINT_STRIDE - 1) == 0 {
                    ctx.charge_mem(pending_mem)?;
                    pending_mem = 0;
                }
            }
        }
        ctx.charge_mem(pending_mem)?;
        rows = next;
    }

    // 2. WHERE.
    if let Some(w) = &sel.selection {
        let mut kept = Vec::new();
        for (i, row) in rows.into_iter().enumerate() {
            if i & (CHECKPOINT_STRIDE - 1) == 0 {
                ctx.checkpoint()?;
            }
            if eval(w, &schema, &row)? == Value::Bool(true) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // 3. Aggregation or plain projection.
    let needs_agg = !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.projection.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        });

    let (out_schema, mut out_rows) = if needs_agg {
        exec_aggregate(sel, &schema, rows, ctx)?
    } else {
        let mut cols = Vec::new();
        let mut items: Vec<&Expr> = Vec::new();
        let mut wildcard_cols: Vec<usize> = Vec::new();
        for item in &sel.projection {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in schema.columns.iter().enumerate() {
                        cols.push(c.clone());
                        wildcard_cols.push(i);
                        items.push(&Expr::Literal(Value::Null)); // placeholder
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    cols.push(match alias {
                        Some(a) => OutputColumn::new(None, a),
                        None => match expr {
                            Expr::Column { qualifier, name } => {
                                OutputColumn::new(qualifier.as_deref(), name)
                            }
                            other => OutputColumn::new(None, &other.to_string()),
                        },
                    });
                    items.push(expr);
                    wildcard_cols.push(usize::MAX);
                }
            }
        }
        let mut out = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if i & (CHECKPOINT_STRIDE - 1) == 0 {
                ctx.checkpoint()?;
            }
            let mut projected = Vec::with_capacity(items.len());
            for (k, e) in items.iter().enumerate() {
                if wildcard_cols[k] != usize::MAX {
                    projected.push(row[wildcard_cols[k]].clone());
                } else {
                    projected.push(eval(e, &schema, row)?);
                }
            }
            out.push(projected);
        }
        (OutputSchema::new(cols), out)
    };

    // 4. DISTINCT.
    if sel.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|r| seen.insert(r.clone()));
    }
    Ok((out_schema, out_rows))
}

fn exec_aggregate(
    sel: &Select,
    schema: &OutputSchema,
    rows: Vec<Row>,
    ctx: &QueryCtx,
) -> Result<(OutputSchema, Vec<Row>)> {
    // Group rows by the group-by expression values, in first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut buckets: Vec<Vec<Row>> = Vec::new();
    if sel.group_by.is_empty() {
        order.push(Vec::new());
        buckets.push(Vec::new());
    }
    for (i, row) in rows.into_iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        let mut key = Vec::with_capacity(sel.group_by.len());
        for g in &sel.group_by {
            key.push(eval(g, schema, &row)?);
        }
        match order.iter().position(|k| k == &key) {
            Some(i) => buckets[i].push(row),
            None => {
                order.push(key);
                buckets.push(vec![row]);
            }
        }
    }
    if sel.group_by.is_empty() && order.is_empty() {
        order.push(Vec::new());
        buckets.push(Vec::new());
    }

    let mut cols = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Wildcard => return bind_err("`*` in aggregate query"),
            SelectItem::Expr { expr, alias } => cols.push(match alias {
                Some(a) => OutputColumn::new(None, a),
                None => match expr {
                    Expr::Column { qualifier, name } => {
                        OutputColumn::new(qualifier.as_deref(), name)
                    }
                    other => OutputColumn::new(None, &other.to_string()),
                },
            }),
        }
    }

    let mut out = Vec::new();
    for (key, bucket) in order.iter().zip(&buckets) {
        // HAVING.
        if let Some(h) = &sel.having {
            if eval_in_group(h, sel, schema, key, bucket)? != Value::Bool(true) {
                continue;
            }
        }
        let mut row = Vec::new();
        for item in &sel.projection {
            let SelectItem::Expr { expr, .. } = item else { unreachable!() };
            row.push(eval_in_group(expr, sel, schema, key, bucket)?);
        }
        out.push(row);
    }
    Ok((OutputSchema::new(cols), out))
}

/// Evaluate an expression in grouped context: group-by expressions resolve
/// to the key; aggregates run over the bucket.
fn eval_in_group(
    e: &Expr,
    sel: &Select,
    schema: &OutputSchema,
    key: &[Value],
    bucket: &[Row],
) -> Result<Value> {
    if let Some(i) = sel.group_by.iter().position(|g| expr_eq_ci(g, e)) {
        return Ok(key[i].clone());
    }
    match e {
        Expr::Function { name, args, wildcard } if pqp_sql::is_aggregate_name(name) => {
            let func = AggFunc::from_name(name)
                .ok_or_else(|| EngineError::Bind(format!("unknown aggregate `{name}`")))?;
            let call = AggCall::new(func, None).unwrap_or(AggCall { func, arg: None });
            let mut state = call.new_state();
            for row in bucket {
                if *wildcard {
                    state.update(None)?;
                } else {
                    if args.len() != 1 {
                        return bind_err(format!("aggregate `{name}` takes one argument"));
                    }
                    let v = eval(&args[0], schema, row)?;
                    state.update(Some(&v))?;
                }
            }
            Ok(state.finish())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { left, op, right } => {
            use pqp_sql::BinaryOp;
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    let l = eval_in_group(left, sel, schema, key, bucket)?;
                    let r = eval_in_group(right, sel, schema, key, bucket)?;
                    kleene(*op, l, r)
                }
                _ => {
                    let l = eval_in_group(left, sel, schema, key, bucket)?;
                    let r = eval_in_group(right, sel, schema, key, bucket)?;
                    eval_binary_scalar(&l, *op, &r)
                }
            }
        }
        Expr::Not(i) => match eval_in_group(i, sel, schema, key, bucket)? {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => exec_err(format!("NOT on non-boolean `{other}`")),
        },
        Expr::Column { .. } => {
            bind_err(format!("column `{e}` must appear in GROUP BY or inside an aggregate"))
        }
        other => bind_err(format!("unsupported expression in aggregate context: {other}")),
    }
}

/// Evaluate an expression against a row with name resolution at runtime.
fn eval(e: &Expr, schema: &OutputSchema, row: &Row) -> Result<Value> {
    use pqp_sql::BinaryOp;
    match e {
        Expr::Column { qualifier, name } => {
            let i = schema.resolve(qualifier.as_deref(), name).map_err(EngineError::Bind)?;
            Ok(row[i].clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { left, op, right } => match op {
            BinaryOp::And | BinaryOp::Or => {
                // Left to right, as the engine evaluates: a FALSE left side
                // of AND (a TRUE one of OR) decides, and the right side is
                // not evaluated, so `x <> 0 AND 10 / x > 1` never divides
                // by zero.
                let l = eval(left, schema, row)?;
                if l == Value::Bool(*op == BinaryOp::Or) {
                    return Ok(l);
                }
                let r = eval(right, schema, row)?;
                kleene(*op, l, r)
            }
            _ => {
                let l = eval(left, schema, row)?;
                let r = eval(right, schema, row)?;
                eval_binary_scalar(&l, *op, &r)
            }
        },
        Expr::Not(inner) => match eval(inner, schema, row)? {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => exec_err(format!("NOT on non-boolean `{other}`")),
        },
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, schema, row)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, schema, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, schema, row)?;
                if w.is_null() {
                    saw_null = true;
                } else if w == v {
                    return Ok(Value::Bool(!*negated));
                }
            }
            if saw_null {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(*negated))
        }
        Expr::Function { name, .. } => {
            bind_err(format!("aggregate or unknown function `{name}` not allowed here"))
        }
    }
}

fn kleene(op: pqp_sql::BinaryOp, l: Value, r: Value) -> Result<Value> {
    use pqp_sql::BinaryOp;
    let to_opt = |v: &Value| -> Result<Option<bool>> {
        match v {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => exec_err(format!("expected boolean, found `{other}`")),
        }
    };
    let (a, b) = (to_opt(&l)?, to_opt(&r)?);
    Ok(match op {
        BinaryOp::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinaryOp::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!(),
    })
}
