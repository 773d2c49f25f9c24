//! Ergonomic constructors for building ASTs programmatically.
//!
//! The preference-integration step of `pqp-core` composes personalized
//! queries out of hundreds of small expression fragments; these helpers keep
//! that code readable.

use crate::ast::{BinaryOp, Expr, OrderByItem, Query, Select, SelectItem, SetExpr, TableFactor};
use pqp_storage::Value;
use std::sync::Arc;

/// A qualified column reference `qualifier.name`.
pub fn col(qualifier: impl Into<Arc<str>>, name: impl Into<Arc<str>>) -> Expr {
    Expr::Column { qualifier: Some(qualifier.into()), name: name.into() }
}

/// An unqualified column reference.
pub fn bare_col(name: impl Into<Arc<str>>) -> Expr {
    Expr::Column { qualifier: None, name: name.into() }
}

/// A literal.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

/// A binary expression.
pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
    Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
}

/// `left = right`
pub fn eq(left: Expr, right: Expr) -> Expr {
    binary(left, BinaryOp::Eq, right)
}

/// `left > right`
pub fn gt(left: Expr, right: Expr) -> Expr {
    binary(left, BinaryOp::Gt, right)
}

/// `left >= right`
pub fn gte(left: Expr, right: Expr) -> Expr {
    binary(left, BinaryOp::GtEq, right)
}

/// `left AND right`
pub fn and(left: Expr, right: Expr) -> Expr {
    binary(left, BinaryOp::And, right)
}

/// `left OR right`
pub fn or(left: Expr, right: Expr) -> Expr {
    binary(left, BinaryOp::Or, right)
}

/// Left-deep conjunction of all expressions; `None` for an empty input.
pub fn and_all(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
    exprs.into_iter().reduce(and)
}

/// Left-deep disjunction of all expressions; `None` for an empty input.
pub fn or_all(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
    exprs.into_iter().reduce(or)
}

/// `NOT expr`
pub fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}

/// `COUNT(*)`
pub fn count_star() -> Expr {
    Expr::Function { name: "COUNT".into(), args: Vec::new(), wildcard: true }
}

/// A function call.
pub fn func(name: impl Into<String>, args: Vec<Expr>) -> Expr {
    Expr::Function { name: name.into(), args, wildcard: false }
}

/// A projection item without alias.
pub fn item(expr: Expr) -> SelectItem {
    SelectItem::Expr { expr, alias: None }
}

/// A projection item with an alias.
pub fn item_as(expr: Expr, alias: impl Into<Arc<str>>) -> SelectItem {
    SelectItem::Expr { expr, alias: Some(alias.into()) }
}

/// A base-table FROM factor with an alias (tuple variable).
pub fn table(name: impl Into<Arc<str>>, alias: impl Into<Arc<str>>) -> TableFactor {
    TableFactor::Table { name: name.into(), alias: Some(alias.into()) }
}

/// A derived-table FROM factor.
pub fn derived(query: Query, alias: impl Into<Arc<str>>) -> TableFactor {
    TableFactor::Derived { query: Box::new(query), alias: alias.into() }
}

/// An ORDER BY key.
pub fn order_by(expr: Expr, desc: bool) -> OrderByItem {
    OrderByItem { expr, desc }
}

/// `UNION ALL` of a non-empty list of selects, as a left-deep tree.
pub fn union_all(selects: Vec<Select>) -> Option<SetExpr> {
    selects.into_iter().map(|s| SetExpr::Select(Box::new(s))).reduce(|l, r| SetExpr::Union {
        left: Box::new(l),
        right: Box::new(r),
        all: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_all_or_all() {
        assert!(and_all(Vec::new()).is_none());
        let e = and_all(vec![lit(true), lit(false), lit(true)]).unwrap();
        assert_eq!(e.conjuncts().len(), 3);
        let e = or_all(vec![lit(1i64), lit(2i64)]).unwrap();
        assert_eq!(e.disjuncts().len(), 2);
    }

    #[test]
    fn union_all_shape() {
        assert!(union_all(Vec::new()).is_none());
        let one = union_all(vec![Select::new()]).unwrap();
        assert!(matches!(one, SetExpr::Select(_)));
        let three = union_all(vec![Select::new(), Select::new(), Select::new()]).unwrap();
        let SetExpr::Union { left, all: true, .. } = three else {
            panic!("expected union");
        };
        assert!(matches!(*left, SetExpr::Union { .. }));
    }
}
