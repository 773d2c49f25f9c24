//! Bound expressions: name-resolved, directly evaluable against a row.
//!
//! Evaluation follows SQL three-valued logic: `NULL` propagates through
//! comparisons and arithmetic; `AND`/`OR`/`NOT` use Kleene logic; a filter
//! keeps a row only when its predicate evaluates to `TRUE` (not `NULL`).
//!
//! The binder builds a [`BoundExpr`] tree. A plan stores its expressions
//! flat: every node of every expression in one pool of [`ExprNode`]s,
//! children before their parents and referenced by index, so a plan's
//! expressions cost one allocation in all. [`Expr`] reads one of them in
//! place, and it is what the executor evaluates.

use crate::error::{exec_err, Result};
use pqp_sql::BinaryOp;
use pqp_storage::Value;
use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An expression whose column references are resolved to positions in the
/// input row.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Input column by position.
    Column(usize),
    Literal(Value),
    Binary {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
}

/// The position of an [`ExprNode`] in its pool.
pub type ExprId = u32;

/// One node of a flat expression: a [`BoundExpr`] node whose children are
/// positions in the same pool.
///
/// Two nodes are equal when they would evaluate alike on every row: a
/// literal equals only a literal of the same type and value (`3` is not
/// `3.0`, as a [`Value`] comparison would have it), so a pool can keep one
/// copy of equal nodes.
#[derive(Debug, Clone)]
pub enum ExprNode {
    Column(u32),
    Literal(Value),
    Binary { left: ExprId, op: BinaryOp, right: ExprId },
    Not(ExprId),
    IsNull { expr: ExprId, negated: bool },
    InList { expr: ExprId, list: Box<[ExprId]>, negated: bool },
}

impl PartialEq for ExprNode {
    fn eq(&self, other: &ExprNode) -> bool {
        use ExprNode::*;
        match (self, other) {
            (Column(a), Column(b)) => a == b,
            (Literal(Value::Float(a)), Literal(Value::Float(b))) => a.to_bits() == b.to_bits(),
            (Literal(a), Literal(b)) => {
                std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
            }
            (Binary { left: l1, op: o1, right: r1 }, Binary { left: l2, op: o2, right: r2 }) => {
                (l1, o1, r1) == (l2, o2, r2)
            }
            (Not(a), Not(b)) => a == b,
            (IsNull { expr: a, negated: n }, IsNull { expr: b, negated: m }) => (a, n) == (b, m),
            (
                InList { expr: a, list: la, negated: n },
                InList { expr: b, list: lb, negated: m },
            ) => (a, la, n) == (b, lb, m),
            _ => false,
        }
    }
}

impl Eq for ExprNode {}

impl Hash for ExprNode {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            ExprNode::Column(c) => c.hash(h),
            // Equal literals are equal values, whose hashes agree.
            ExprNode::Literal(v) => v.hash(h),
            ExprNode::Binary { left, op, right } => (left, op, right).hash(h),
            ExprNode::Not(e) => e.hash(h),
            ExprNode::IsNull { expr, negated } => (expr, negated).hash(h),
            ExprNode::InList { expr, list, negated } => (expr, list, negated).hash(h),
        }
    }
}

/// One expression of a pool, read in place: the node at `id` and,
/// through it, its children.
#[derive(Clone, Copy)]
pub struct Expr<'p> {
    pool: &'p [ExprNode],
    id: ExprId,
}

/// An [`Expr`]'s root node, its children as [`Expr`]s.
pub enum ExprKind<'p> {
    Column(usize),
    Literal(&'p Value),
    Binary {
        left: Expr<'p>,
        op: BinaryOp,
        right: Expr<'p>,
    },
    Not(Expr<'p>),
    IsNull {
        expr: Expr<'p>,
        negated: bool,
    },
    /// The list's items are positions in the same pool ([`Expr::at`]).
    InList {
        expr: Expr<'p>,
        list: &'p [ExprId],
        negated: bool,
    },
}

impl<'p> Expr<'p> {
    /// The expression rooted at `id` in `pool`.
    pub fn new(pool: &'p [ExprNode], id: ExprId) -> Expr<'p> {
        Expr { pool, id }
    }

    /// Another expression of the same pool.
    pub fn at(self, id: ExprId) -> Expr<'p> {
        Expr { pool: self.pool, id }
    }

    /// The root node.
    pub fn kind(self) -> ExprKind<'p> {
        match &self.pool[self.id as usize] {
            ExprNode::Column(c) => ExprKind::Column(*c as usize),
            ExprNode::Literal(v) => ExprKind::Literal(v),
            ExprNode::Binary { left, op, right } => {
                ExprKind::Binary { left: self.at(*left), op: *op, right: self.at(*right) }
            }
            ExprNode::Not(e) => ExprKind::Not(self.at(*e)),
            ExprNode::IsNull { expr, negated } => {
                ExprKind::IsNull { expr: self.at(*expr), negated: *negated }
            }
            ExprNode::InList { expr, list, negated } => {
                ExprKind::InList { expr: self.at(*expr), list, negated: *negated }
            }
        }
    }

    /// Evaluate against a row.
    pub fn eval(self, row: &[Value]) -> Result<Value> {
        match self.kind() {
            ExprKind::Column(i) => Ok(row[i].clone()),
            ExprKind::Literal(v) => Ok(v.clone()),
            ExprKind::Binary { left, op, right } => match op {
                BinaryOp::And => {
                    // Kleene AND: FALSE dominates NULL.
                    let l = left.eval(row)?;
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = right.eval(row)?;
                    if r == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Bool(expect_bool(&l)? && expect_bool(&r)?))
                }
                BinaryOp::Or => {
                    let l = left.eval(row)?;
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = right.eval(row)?;
                    if r == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Bool(expect_bool(&l)? || expect_bool(&r)?))
                }
                _ => eval_binary_scalar(&*left.operand(row)?, op, &*right.operand(row)?),
            },
            ExprKind::Not(inner) => match inner.eval(row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => exec_err(format!("NOT applied to non-boolean `{other}`")),
            },
            ExprKind::IsNull { expr, negated } => {
                Ok(Value::Bool(expr.operand(row)?.is_null() != negated))
            }
            ExprKind::InList { expr, list, negated } => {
                let v = expr.operand(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for &item in list {
                    let w = self.at(item).operand(row)?;
                    if w.is_null() {
                        saw_null = true;
                    } else if w == v {
                        return Ok(Value::Bool(!negated));
                    }
                }
                if saw_null {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(negated))
            }
        }
    }

    /// A column or literal operand read in place (a string is not copied),
    /// any other expression evaluated.
    fn operand<'r>(self, row: &'r [Value]) -> Result<Cow<'r, Value>>
    where
        'p: 'r,
    {
        match self.kind() {
            ExprKind::Column(i) => Ok(Cow::Borrowed(&row[i])),
            ExprKind::Literal(v) => Ok(Cow::Borrowed(v)),
            _ => self.eval(row).map(Cow::Owned),
        }
    }

    /// Evaluate as a filter predicate: row passes iff result is `TRUE`.
    pub fn eval_predicate(self, row: &[Value]) -> Result<bool> {
        Ok(self.eval(row)? == Value::Bool(true))
    }

    /// The expression as a tree.
    pub fn to_bound(self) -> BoundExpr {
        match self.kind() {
            ExprKind::Column(c) => BoundExpr::Column(c),
            ExprKind::Literal(v) => BoundExpr::Literal(v.clone()),
            ExprKind::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(left.to_bound()),
                op,
                right: Box::new(right.to_bound()),
            },
            ExprKind::Not(e) => BoundExpr::Not(Box::new(e.to_bound())),
            ExprKind::IsNull { expr, negated } => {
                BoundExpr::IsNull { expr: Box::new(expr.to_bound()), negated }
            }
            ExprKind::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(expr.to_bound()),
                list: list.iter().map(|&i| self.at(i).to_bound()).collect(),
                negated,
            },
        }
    }
}

impl fmt::Debug for Expr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_bound().fmt(f)
    }
}

impl BoundExpr {
    /// Store the expression flat: `push` adds one node to a pool (children
    /// first) and returns its position. Returns the root's.
    pub fn flatten(&self, push: &mut dyn FnMut(ExprNode) -> ExprId) -> ExprId {
        let node = match self {
            BoundExpr::Column(c) => ExprNode::Column(*c as u32),
            BoundExpr::Literal(v) => ExprNode::Literal(v.clone()),
            BoundExpr::Binary { left, op, right } => {
                let left = left.flatten(push);
                ExprNode::Binary { left, op: *op, right: right.flatten(push) }
            }
            BoundExpr::Not(e) => ExprNode::Not(e.flatten(push)),
            BoundExpr::IsNull { expr, negated } => {
                ExprNode::IsNull { expr: expr.flatten(push), negated: *negated }
            }
            BoundExpr::InList { expr, list, negated } => {
                let expr = expr.flatten(push);
                let list = list.iter().map(|e| e.flatten(push)).collect();
                ExprNode::InList { expr, list, negated: *negated }
            }
        };
        push(node)
    }

    /// The expression in a pool of its own, and its root.
    pub fn to_pool(&self) -> (Vec<ExprNode>, ExprId) {
        let mut pool = Vec::new();
        let root = self.flatten(&mut |node| {
            pool.push(node);
            pool.len() as ExprId - 1
        });
        (pool, root)
    }

    /// Evaluate against a row (through a pool of its own: what a caller
    /// evaluates once; a row loop evaluates [`Expr`]).
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        let (pool, root) = self.to_pool();
        Expr::new(&pool, root).eval(row)
    }

    /// Constant-fold literal-only subtrees. Folding is best-effort: runtime
    /// errors (e.g. type mismatches) are left in place to surface at
    /// execution.
    pub fn fold(self) -> BoundExpr {
        match self {
            BoundExpr::Binary { left, op, right } => {
                let left = left.fold();
                let right = right.fold();
                if let (BoundExpr::Literal(_), BoundExpr::Literal(_)) = (&left, &right) {
                    let e = BoundExpr::Binary {
                        left: Box::new(left.clone()),
                        op,
                        right: Box::new(right.clone()),
                    };
                    if let Ok(v) = e.eval(&[]) {
                        return BoundExpr::Literal(v);
                    }
                    return e;
                }
                BoundExpr::Binary { left: Box::new(left), op, right: Box::new(right) }
            }
            BoundExpr::Not(inner) => {
                let inner = inner.fold();
                if let BoundExpr::Literal(_) = &inner {
                    let e = BoundExpr::Not(Box::new(inner.clone()));
                    if let Ok(v) = e.eval(&[]) {
                        return BoundExpr::Literal(v);
                    }
                    return e;
                }
                BoundExpr::Not(Box::new(inner))
            }
            BoundExpr::IsNull { expr, negated } => {
                let expr = expr.fold();
                if let BoundExpr::Literal(v) = &expr {
                    return BoundExpr::Literal(Value::Bool(v.is_null() != negated));
                }
                BoundExpr::IsNull { expr: Box::new(expr), negated }
            }
            BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
                expr: Box::new(expr.fold()),
                list: list.into_iter().map(BoundExpr::fold).collect(),
                negated,
            },
            other => other,
        }
    }

    /// Whether the expression is the literal FALSE (used to short-circuit
    /// whole plans).
    pub fn is_const_false(&self) -> bool {
        matches!(self, BoundExpr::Literal(Value::Bool(false)))
    }

    /// Whether the expression is the literal TRUE.
    pub fn is_const_true(&self) -> bool {
        matches!(self, BoundExpr::Literal(Value::Bool(true)))
    }
}

fn expect_bool(v: &Value) -> Result<bool> {
    v.as_bool()
        .ok_or_else(|| crate::error::EngineError::Exec(format!("expected boolean, found `{v}`")))
}

/// Scalar binary evaluation with NULL propagation.
pub fn eval_binary_scalar(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Eq => Ok(Value::Bool(l == r)),
        NotEq => Ok(Value::Bool(l != r)),
        Lt | LtEq | Gt | GtEq => {
            // Comparing values of incompatible types is a type error rather
            // than silently using the cross-type total order.
            let comparable = match (l, r) {
                (Value::Str(_), Value::Str(_)) => true,
                (Value::Bool(_), Value::Bool(_)) => true,
                _ => l.as_f64().is_some() && r.as_f64().is_some(),
            };
            if !comparable {
                return exec_err(format!("cannot compare `{l}` with `{r}`"));
            }
            let ord = l.cmp(r);
            Ok(Value::Bool(match op {
                Lt => ord.is_lt(),
                LtEq => ord.is_le(),
                Gt => ord.is_gt(),
                GtEq => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Plus | Minus | Mul | Div => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => return exec_err(format!("arithmetic on non-numeric `{l}`, `{r}`")),
            };
            // Integer-preserving arithmetic when both sides are Int.
            if let (Value::Int(x), Value::Int(y)) = (l, r) {
                return match op {
                    Plus => Ok(Value::Int(x.wrapping_add(*y))),
                    Minus => Ok(Value::Int(x.wrapping_sub(*y))),
                    Mul => Ok(Value::Int(x.wrapping_mul(*y))),
                    Div => {
                        if *y == 0 {
                            exec_err("division by zero")
                        } else {
                            Ok(Value::Int(x.wrapping_div(*y)))
                        }
                    }
                    _ => unreachable!(),
                };
            }
            match op {
                Plus => Ok(Value::Float(a + b)),
                Minus => Ok(Value::Float(a - b)),
                Mul => Ok(Value::Float(a * b)),
                Div => {
                    if b == 0.0 {
                        exec_err("division by zero")
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                _ => unreachable!(),
            }
        }
        And | Or => unreachable!("handled in BoundExpr::eval"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(l: BoundExpr, op: BinaryOp, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(l), op, right: Box::new(r) }
    }

    #[test]
    fn comparisons() {
        assert_eq!(bin(lit(1i64), BinaryOp::Lt, lit(2i64)).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(bin(lit("a"), BinaryOp::Eq, lit("a")).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(
            bin(lit(1i64), BinaryOp::Eq, lit(1.0f64)).eval(&[]).unwrap(),
            Value::Bool(true),
            "cross-type numeric equality"
        );
        assert!(bin(lit("a"), BinaryOp::Lt, lit(1i64)).eval(&[]).is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            bin(lit(1i64), BinaryOp::Eq, BoundExpr::Literal(Value::Null)).eval(&[]).unwrap(),
            Value::Null
        );
        assert_eq!(
            bin(BoundExpr::Literal(Value::Null), BinaryOp::Plus, lit(1i64)).eval(&[]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn kleene_and_or() {
        let null = || BoundExpr::Literal(Value::Null);
        let t = || lit(true);
        let f = || lit(false);
        assert_eq!(bin(f(), BinaryOp::And, null()).eval(&[]).unwrap(), Value::Bool(false));
        assert_eq!(bin(null(), BinaryOp::And, f()).eval(&[]).unwrap(), Value::Bool(false));
        assert_eq!(bin(t(), BinaryOp::And, null()).eval(&[]).unwrap(), Value::Null);
        assert_eq!(bin(t(), BinaryOp::Or, null()).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(bin(null(), BinaryOp::Or, t()).eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(bin(f(), BinaryOp::Or, null()).eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn not_and_is_null() {
        assert_eq!(BoundExpr::Not(Box::new(lit(true))).eval(&[]).unwrap(), Value::Bool(false));
        assert_eq!(
            BoundExpr::Not(Box::new(BoundExpr::Literal(Value::Null))).eval(&[]).unwrap(),
            Value::Null
        );
        let isn =
            BoundExpr::IsNull { expr: Box::new(BoundExpr::Literal(Value::Null)), negated: false };
        assert_eq!(isn.eval(&[]).unwrap(), Value::Bool(true));
        let isnn = BoundExpr::IsNull { expr: Box::new(lit(1i64)), negated: true };
        assert_eq!(isnn.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_with_nulls() {
        let e = BoundExpr::InList {
            expr: Box::new(lit(2i64)),
            list: vec![lit(1i64), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        // 2 IN (1, NULL) is NULL, not FALSE.
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        let e = BoundExpr::InList {
            expr: Box::new(lit(1i64)),
            list: vec![lit(1i64), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(bin(lit(6i64), BinaryOp::Div, lit(4i64)).eval(&[]).unwrap(), Value::Int(1));
        assert_eq!(
            bin(lit(6.0f64), BinaryOp::Div, lit(4i64)).eval(&[]).unwrap(),
            Value::Float(1.5)
        );
        assert!(bin(lit(1i64), BinaryOp::Div, lit(0i64)).eval(&[]).is_err());
    }

    #[test]
    fn column_access() {
        let row = vec![Value::Int(10), Value::str("x")];
        assert_eq!(BoundExpr::Column(1).eval(&row).unwrap(), Value::str("x"));
    }

    #[test]
    fn folding() {
        let e = bin(bin(lit(1i64), BinaryOp::Plus, lit(2i64)), BinaryOp::Eq, lit(3i64)).fold();
        assert!(e.is_const_true());
        let e = bin(lit(1i64), BinaryOp::Eq, lit(2i64)).fold();
        assert!(e.is_const_false());
        // Column references block folding.
        let e = bin(BoundExpr::Column(0), BinaryOp::Plus, lit(2i64)).fold();
        assert!(matches!(e, BoundExpr::Binary { .. }));
        // Division by zero is not folded into a panic; it stays an expression.
        let e = bin(lit(1i64), BinaryOp::Div, lit(0i64)).fold();
        assert!(matches!(e, BoundExpr::Binary { .. }));
    }

    #[test]
    fn predicate_semantics() {
        let passes = |e: BoundExpr| {
            let (pool, root) = e.to_pool();
            Expr::new(&pool, root).eval_predicate(&[]).unwrap()
        };
        assert!(passes(lit(true)));
        assert!(!passes(lit(false)));
        assert!(!passes(BoundExpr::Literal(Value::Null)));
    }
}
