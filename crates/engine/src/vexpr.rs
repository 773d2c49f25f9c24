//! Vectorized predicate evaluation over [`Batch`] columns: the scan's
//! pushed-down filter, run in place over each stored chunk of a table.
//! Stored columns are typed by their schema column, so a comparison kernel
//! applies wherever the literal's type class matches.
//!
//! The contract is strict: [`select_true`] is **observably identical** to
//! calling `Expr::eval_predicate` on each materialized row — same
//! selected rows, and an error exactly when per-row evaluation would error
//! (in exotic rows carrying *multiple* latent errors, which error surfaces
//! may differ; both still fail). Typed comparison kernels are used only
//! where the column representation proves them exact; everything else falls
//! back to a per-row loop over materialized rows, which is trivially exact.
//!
//! Three-valued logic is evaluated as a per-row tri-state ([`Tri`]):
//! `AND`/`OR` first evaluate their left side over the whole selection (the
//! per-row evaluator also always evaluates the left), then the right side
//! only over the sub-selection the left did not decide — preserving the
//! guarantee that `x <> 0 AND 10 / x > 1` never divides by zero on a
//! filtered-out row.

use crate::bound::{Expr, ExprKind};
use crate::error::{exec_err, Result};
use pqp_sql::BinaryOp;
use pqp_storage::{total_fcmp, Batch, ColumnData, Value};
use std::cmp::Ordering;

/// The row indices of `batch` (in order) whose predicate evaluates to TRUE.
pub(crate) fn select_true(pred: Expr, batch: &Batch) -> Result<Vec<u32>> {
    let sel: Vec<u32> = (0..batch.len() as u32).collect();
    let tri = eval_tri(pred, batch, &sel)?;
    Ok(sel.into_iter().zip(tri).filter(|(_, t)| matches!(t, Tri::T)).map(|(i, _)| i).collect())
}

/// Per-row predicate state: TRUE, FALSE, NULL, or a non-boolean value that
/// becomes a type error if (and only if) a logical connective must inspect
/// it — mirroring `expect_bool` in the per-row evaluator.
enum Tri {
    T,
    F,
    N,
    X(Value),
}

fn classify(v: Value) -> Tri {
    match v {
        Value::Bool(true) => Tri::T,
        Value::Bool(false) => Tri::F,
        Value::Null => Tri::N,
        other => Tri::X(other),
    }
}

/// Evaluate `e` as a tri-state for each row of `sel` (ascending row
/// indices), returning one entry per selected row.
fn eval_tri(e: Expr, batch: &Batch, sel: &[u32]) -> Result<Vec<Tri>> {
    match e.kind() {
        ExprKind::Literal(v) => Ok(sel.iter().map(|_| classify(v.clone())).collect()),
        ExprKind::Column(c) => {
            let col = batch.column(c);
            Ok(sel
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    if col.is_null(i) {
                        Tri::N
                    } else if let ColumnData::Bool(v) = col.data() {
                        if v[i] {
                            Tri::T
                        } else {
                            Tri::F
                        }
                    } else {
                        classify(col.value(i))
                    }
                })
                .collect())
        }
        ExprKind::Binary { left, op: BinaryOp::And, right } => {
            // Kleene AND, FALSE-dominant: the right side is evaluated only
            // where the left is not FALSE (matching the per-row short-circuit).
            let l = eval_tri(left, batch, sel)?;
            let sub: Vec<u32> =
                sel.iter().zip(&l).filter(|(_, t)| !matches!(t, Tri::F)).map(|(&i, _)| i).collect();
            let mut r = eval_tri(right, batch, &sub)?.into_iter();
            l.into_iter()
                .map(|lt| {
                    if matches!(lt, Tri::F) {
                        return Ok(Tri::F);
                    }
                    let Some(rt) = r.next() else {
                        return exec_err("AND sub-selection misaligned");
                    };
                    match (lt, rt) {
                        (Tri::F, _) | (_, Tri::F) => Ok(Tri::F),
                        (Tri::N, _) | (_, Tri::N) => Ok(Tri::N),
                        (Tri::X(v), _) | (_, Tri::X(v)) => {
                            exec_err(format!("expected boolean, found `{v}`"))
                        }
                        (Tri::T, Tri::T) => Ok(Tri::T),
                    }
                })
                .collect()
        }
        ExprKind::Binary { left, op: BinaryOp::Or, right } => {
            // Kleene OR, TRUE-dominant.
            let l = eval_tri(left, batch, sel)?;
            let sub: Vec<u32> =
                sel.iter().zip(&l).filter(|(_, t)| !matches!(t, Tri::T)).map(|(&i, _)| i).collect();
            let mut r = eval_tri(right, batch, &sub)?.into_iter();
            l.into_iter()
                .map(|lt| {
                    if matches!(lt, Tri::T) {
                        return Ok(Tri::T);
                    }
                    let Some(rt) = r.next() else {
                        return exec_err("OR sub-selection misaligned");
                    };
                    match (lt, rt) {
                        (Tri::T, _) | (_, Tri::T) => Ok(Tri::T),
                        (Tri::N, _) | (_, Tri::N) => Ok(Tri::N),
                        (Tri::X(v), _) | (_, Tri::X(v)) => {
                            exec_err(format!("expected boolean, found `{v}`"))
                        }
                        (Tri::F, Tri::F) => Ok(Tri::F),
                    }
                })
                .collect()
        }
        ExprKind::Binary { left, op, right } => {
            if let Some(tri) = cmp_kernel(left, op, right, batch, sel)? {
                return Ok(tri);
            }
            per_row(e, batch, sel)
        }
        ExprKind::Not(inner) => eval_tri(inner, batch, sel)?
            .into_iter()
            .map(|t| match t {
                Tri::T => Ok(Tri::F),
                Tri::F => Ok(Tri::T),
                Tri::N => Ok(Tri::N),
                Tri::X(v) => exec_err(format!("NOT applied to non-boolean `{v}`")),
            })
            .collect(),
        ExprKind::IsNull { expr, negated } => {
            if let ExprKind::Column(c) = expr.kind() {
                let col = batch.column(c);
                return Ok(sel
                    .iter()
                    .map(|&i| if col.is_null(i as usize) != negated { Tri::T } else { Tri::F })
                    .collect());
            }
            per_row(e, batch, sel)
        }
        ExprKind::InList { .. } => per_row(e, batch, sel),
    }
}

/// Exact fallback: materialize each selected row and evaluate it on its
/// own. Errors surface at the first erring row in selection (= row) order,
/// exactly as a per-row loop would.
fn per_row(e: Expr, batch: &Batch, sel: &[u32]) -> Result<Vec<Tri>> {
    sel.iter()
        .map(|&i| {
            let row = batch.row(i as usize);
            Ok(classify(e.eval(&row)?))
        })
        .collect()
}

/// Typed comparison kernel for `column <op> literal` (either orientation).
/// Returns `Ok(None)` when no kernel is provably exact for this shape —
/// non-literal operands, ordered comparison across incomparable type
/// classes (which must error per row, in row order), and arithmetic (whose
/// div-by-zero errors are likewise row-ordered) all take the per-row
/// fallback.
fn cmp_kernel(
    left: Expr,
    op: BinaryOp,
    right: Expr,
    batch: &Batch,
    sel: &[u32],
) -> Result<Option<Vec<Tri>>> {
    use BinaryOp::*;
    if !matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
        return Ok(None);
    }
    let (c, lit, col_is_left) = match (left.kind(), right.kind()) {
        (ExprKind::Column(c), ExprKind::Literal(v)) => (c, v, true),
        (ExprKind::Literal(v), ExprKind::Column(c)) => (c, v, false),
        _ => return Ok(None),
    };
    let col = batch.column(c);
    if lit.is_null() {
        // NULL propagates through every comparison.
        return Ok(Some(sel.iter().map(|_| Tri::N).collect()));
    }
    let build = |ord_of: &dyn Fn(usize) -> Ordering| -> Vec<Tri> {
        sel.iter()
            .map(|&i| {
                let i = i as usize;
                if col.is_null(i) {
                    return Tri::N;
                }
                // `ord_of` compares column-value vs literal; flip for the
                // `literal <op> column` orientation.
                let ord = if col_is_left { ord_of(i) } else { ord_of(i).reverse() };
                let pass = match op {
                    Eq => ord.is_eq(),
                    NotEq => ord.is_ne(),
                    Lt => ord.is_lt(),
                    LtEq => ord.is_le(),
                    Gt => ord.is_gt(),
                    GtEq => ord.is_ge(),
                    _ => false,
                };
                if pass {
                    Tri::T
                } else {
                    Tri::F
                }
            })
            .collect()
    };
    // Same-class comparisons reproduce `Value::cmp` exactly: Int–Int stays
    // exact 64-bit, mixed numerics go through the same `total_fcmp` the
    // scalar path uses.
    Ok(match (col.data(), lit) {
        (ColumnData::Int(v), Value::Int(x)) => Some(build(&|i| v[i].cmp(x))),
        (ColumnData::Int(v), Value::Float(x)) => Some(build(&|i| total_fcmp(v[i] as f64, *x))),
        (ColumnData::Float(v), Value::Int(x)) => Some(build(&|i| total_fcmp(v[i], *x as f64))),
        (ColumnData::Float(v), Value::Float(x)) => Some(build(&|i| total_fcmp(v[i], *x))),
        (ColumnData::Str(v), Value::Str(x)) => Some(build(&|i| (*v[i]).cmp(&**x))),
        (ColumnData::Bool(v), Value::Bool(x)) => Some(build(&|i| v[i].cmp(x))),
        // Cross-class equality never errors and never matches (distinct
        // type ranks compare unequal); ordered cross-class comparison is a
        // per-row type error, so it is NOT kerneled.
        (
            ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Bool(_) | ColumnData::Str(_),
            _,
        ) if matches!(op, Eq | NotEq) => Some(
            sel.iter()
                .map(|&i| {
                    if col.is_null(i as usize) {
                        Tri::N
                    } else if matches!(op, NotEq) {
                        Tri::T
                    } else {
                        Tri::F
                    }
                })
                .collect(),
        ),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundExpr;
    use pqp_obs::rng::{Rng, SmallRng};
    use pqp_storage::{DataType, Row};

    /// One column of each representation, plus repeats so `column = column`
    /// and arithmetic draws can land on two columns of one type.
    const COLUMNS: &[DataType] = &[
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Int,
        DataType::Str,
        DataType::Bool,
    ];

    const STRINGS: &[&str] = &["x", "y", "z", ""];

    fn arb_literal(rng: &mut SmallRng, ty: DataType) -> Value {
        match ty {
            DataType::Int => Value::Int(rng.gen_range(0..4i64)),
            DataType::Float => Value::Float(rng.gen_range(0..8i64) as f64 / 2.0),
            DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
            DataType::Str => Value::from(STRINGS[rng.gen_index(STRINGS.len())]),
        }
    }

    /// Rows as a table stores them: schema-typed columns, 1-in-4 NULLs so
    /// null masks, all-NULL columns (typed, with a full mask) and
    /// three-valued logic all occur.
    fn arb_rows(rng: &mut SmallRng) -> Vec<Row> {
        let n = rng.gen_range(0..24usize);
        (0..n)
            .map(|_| {
                COLUMNS
                    .iter()
                    .map(|&ty| if rng.gen_bool(0.25) { Value::Null } else { arb_literal(rng, ty) })
                    .collect()
            })
            .collect()
    }

    /// The append path `Table::insert` stores a checked row with.
    fn batch_of(rows: &[Row]) -> Batch {
        let mut b = Batch::new(COLUMNS.iter().copied());
        for row in rows {
            b.push_row(row.clone());
        }
        b
    }

    fn arb_column(rng: &mut SmallRng) -> (BoundExpr, DataType) {
        let i = rng.gen_index(COLUMNS.len());
        (BoundExpr::Column(i), COLUMNS[i])
    }

    fn binary(left: BoundExpr, op: BinaryOp, right: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// Random predicates biased toward the kernels' hazards: typed
    /// comparisons (column vs literal, both orientations), cross-type
    /// comparisons (type errors for ordered ops), arithmetic under
    /// comparison (division by zero must error on exactly the rows per-row
    /// evaluation reaches) and Kleene AND/OR whose right side must stay
    /// unevaluated where the left decides.
    fn arb_predicate(rng: &mut SmallRng, depth: usize) -> BoundExpr {
        if depth > 0 && rng.gen_bool(0.4) {
            let left = arb_predicate(rng, depth - 1);
            return match rng.gen_range(0..3u32) {
                0 => binary(left, BinaryOp::And, arb_predicate(rng, depth - 1)),
                1 => binary(left, BinaryOp::Or, arb_predicate(rng, depth - 1)),
                _ => BoundExpr::Not(Box::new(left)),
            };
        }
        match rng.gen_range(0..8u32) {
            0 => {
                // column <op> literal, matching type: the kernel fast path.
                let (col, ty) = arb_column(rng);
                let ops = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq];
                let op = ops[rng.gen_index(ops.len())];
                let lit = BoundExpr::Literal(arb_literal(rng, ty));
                if rng.gen_bool(0.5) {
                    binary(col, op, lit)
                } else {
                    binary(lit, op, col)
                }
            }
            1 => {
                // column <op> literal, random type (NULL included):
                // cross-class Eq/NotEq never match, ordered ops are per-row
                // type errors.
                let (col, _) = arb_column(rng);
                let lit = match rng.gen_range(0..5u32) {
                    0 => Value::Null,
                    t => arb_literal(
                        rng,
                        [DataType::Int, DataType::Float, DataType::Bool, DataType::Str]
                            [t as usize - 1],
                    ),
                };
                let ops = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::Gt];
                binary(col, ops[rng.gen_index(ops.len())], BoundExpr::Literal(lit))
            }
            2 => {
                // column = column: not kernelable, the per-row fallback.
                binary(arb_column(rng).0, BinaryOp::Eq, arb_column(rng).0)
            }
            3 => {
                BoundExpr::IsNull { expr: Box::new(arb_column(rng).0), negated: rng.gen_bool(0.5) }
            }
            4 => {
                let (c, ty) = arb_column(rng);
                let n = rng.gen_range(1..3usize);
                let list = (0..n).map(|_| BoundExpr::Literal(arb_literal(rng, ty))).collect();
                BoundExpr::InList { expr: Box::new(c), list, negated: rng.gen_bool(0.5) }
            }
            5 => {
                // A bare column or literal as a predicate: booleans classify
                // directly, anything else is a type error only where a
                // connective inspects it.
                if rng.gen_bool(0.7) {
                    arb_column(rng).0
                } else {
                    BoundExpr::Literal(arb_literal(rng, DataType::Bool))
                }
            }
            6 => {
                // The guard idiom: `x <> 0 AND 10 / x > 1` must never divide
                // by zero on a row the left side filtered out.
                let (x, _) = arb_column(rng);
                let guard = binary(x.clone(), BinaryOp::NotEq, BoundExpr::Literal(Value::Int(0)));
                let div = binary(BoundExpr::Literal(Value::Int(10)), BinaryOp::Div, x);
                binary(
                    guard,
                    BinaryOp::And,
                    binary(div, BinaryOp::Gt, BoundExpr::Literal(Value::Int(1))),
                )
            }
            _ => {
                // Arithmetic under a comparison; Div by a small-int column
                // hits division by zero on some rows.
                let ops = [BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Mul, BinaryOp::Div];
                let arith =
                    binary(arb_column(rng).0, ops[rng.gen_index(ops.len())], arb_column(rng).0);
                binary(arith, BinaryOp::Gt, BoundExpr::Literal(Value::Int(1)))
            }
        }
    }

    #[test]
    fn select_true_matches_per_row_evaluation() {
        let mut rng = SmallRng::seed_from_u64(0xBA7C);
        let (mut selected_some, mut errored, mut all_null) = (0, 0, 0);
        for _ in 0..4096 {
            let rows = arb_rows(&mut rng);
            let batch = batch_of(&rows);
            all_null += usize::from(
                !rows.is_empty() && (0..COLUMNS.len()).any(|c| rows.iter().all(|r| r[c].is_null())),
            );
            let (pool, root) = arb_predicate(&mut rng, 3).to_pool();
            let pred = Expr::new(&pool, root);
            let per_row: Result<Vec<u32>> = (0..batch.len())
                .filter_map(|i| match pred.eval_predicate(&batch.row(i)) {
                    Ok(true) => Some(Ok(i as u32)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                })
                .collect();
            match (per_row, select_true(pred, &batch)) {
                (Ok(expected), Ok(selected)) => {
                    assert_eq!(selected, expected, "{pred:?} over {rows:?}");
                    selected_some += usize::from(!selected.is_empty());
                }
                (Err(_), Err(_)) => errored += 1, // which error surfaces may differ
                (Ok(_), Err(e)) => panic!("select_true alone failed ({e}): {pred:?} over {rows:?}"),
                (Err(e), Ok(_)) => panic!("per-row alone failed ({e}): {pred:?} over {rows:?}"),
            }
        }
        assert!(
            selected_some > 500 && errored > 100 && all_null > 100,
            "{selected_some} selected, {errored} errored, {all_null} with an all-NULL column"
        );
    }
}
