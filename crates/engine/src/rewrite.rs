//! OR-expansion: the query rewrite that makes the paper's SQ approach
//! executable at honest cost.
//!
//! An SQ-personalized query (paper §6) has the shape
//!
//! ```sql
//! SELECT DISTINCT p FROM f1, ..., fn
//! WHERE core-conjuncts AND (branch1 OR branch2 OR ...)
//! ```
//!
//! where each branch references only a subset of the FROM factors, and some
//! factors appear *only* inside branches. Planning that directly would cross
//! product those factors. Like commercial optimizers (Oracle's OR-expansion
//! transform), we rewrite into a `UNION` (duplicate-eliminating) of one
//! query per branch, dropping from each branch's FROM any base table it does
//! not reference.
//!
//! Soundness:
//! - the rewrite only fires on `SELECT DISTINCT` blocks without grouping, so
//!   duplicate multiplicity cannot matter;
//! - a dropped table multiplies rows without contributing columns, which is
//!   invisible under DISTINCT — *unless it is empty*, in which case the
//!   original result is empty; branches dropping an empty table are removed
//!   (and if all branches vanish, an `Empty`-producing select remains).

use pqp_sql::ast::*;
use pqp_storage::{Catalog, Value};
use std::borrow::Cow;

/// Recursively apply OR-expansion to every select block of the query.
///
/// A query the rewrite leaves unchanged — no factor to drop, no disjunction
/// to split, as in every MQ partial — comes back borrowed, so it is planned
/// in place rather than copied.
pub fn or_expand<'q>(q: &'q Query, catalog: &Catalog) -> Cow<'q, Query> {
    match expand_set_expr(&q.body, catalog) {
        Some(body) => Cow::Owned(Query { body, order_by: q.order_by.clone(), limit: q.limit }),
        None => Cow::Borrowed(q),
    }
}

/// The rewritten body, or `None` when the rewrite leaves `s` unchanged.
fn expand_set_expr(s: &SetExpr, catalog: &Catalog) -> Option<SetExpr> {
    match s {
        SetExpr::Union { left, right, all } => {
            let (l, r) = (expand_set_expr(left, catalog), expand_set_expr(right, catalog));
            if l.is_none() && r.is_none() {
                return None;
            }
            Some(SetExpr::Union {
                left: Box::new(l.unwrap_or_else(|| (**left).clone())),
                right: Box::new(r.unwrap_or_else(|| (**right).clone())),
                all: *all,
            })
        }
        SetExpr::Select(sel) => expand_select(sel, catalog),
    }
}

/// `Some` of the block if the rewrite had to copy it.
fn changed(sel: Cow<'_, Select>) -> Option<SetExpr> {
    match sel {
        Cow::Owned(sel) => Some(SetExpr::Select(Box::new(sel))),
        Cow::Borrowed(_) => None,
    }
}

fn expand_select(sel: &Select, catalog: &Catalog) -> Option<SetExpr> {
    // First, recurse into derived tables; a block is copied only once
    // something in it changes.
    let mut sel = Cow::Borrowed(sel);
    let expanded: Vec<(usize, Query)> = (sel.from.iter().enumerate())
        .filter_map(|(i, f)| match f {
            TableFactor::Derived { query, .. } => match or_expand(query, catalog) {
                Cow::Owned(q) => Some((i, q)),
                Cow::Borrowed(_) => None,
            },
            TableFactor::Table { .. } => None,
        })
        .collect();
    for (i, q) in expanded {
        if let TableFactor::Derived { query, .. } = &mut sel.to_mut().from[i] {
            **query = q;
        }
    }

    if !sel.distinct || !sel.group_by.is_empty() || sel.having.is_some() {
        return changed(sel);
    }

    // General unreferenced-table elimination under DISTINCT (independent of
    // any disjunction): a base table referenced nowhere only multiplies
    // rows, which DISTINCT erases — unless it is empty, which empties the
    // whole query.
    if !sel.projection.iter().any(|i| matches!(i, SelectItem::Wildcard))
        && !select_has_unqualified(&sel)
    {
        let mut needed: Vec<&str> = Vec::new();
        for item in &sel.projection {
            if let SelectItem::Expr { expr, .. } = item {
                expr.referenced_qualifiers(&mut needed);
            }
        }
        if let Some(w) = &sel.selection {
            w.referenced_qualifiers(&mut needed);
        }
        let mut empty_dropped = false;
        let dropped: Vec<usize> = (0..sel.from.len())
            .filter(|&i| {
                let f = &sel.from[i];
                if needed.iter().any(|q| q.eq_ignore_ascii_case(f.binding_name())) {
                    return false;
                }
                match f {
                    TableFactor::Table { name, .. } => match catalog.table(name) {
                        Ok(t) => {
                            if t.read().is_empty() {
                                empty_dropped = true;
                            }
                            true
                        }
                        Err(_) => false, // let the planner report the bind error
                    },
                    TableFactor::Derived { .. } => false,
                }
            })
            .collect();
        if !dropped.is_empty() {
            let from = &mut sel.to_mut().from;
            for &i in dropped.iter().rev() {
                from.remove(i);
            }
        }
        if empty_dropped {
            // A cross product with an empty table empties the whole result.
            sel.to_mut().selection = Some(Expr::Literal(Value::Bool(false)));
            return changed(sel);
        }
    }

    // Find the first conjunct that is a disjunction worth expanding: either
    // expansion lets some branch drop a FROM factor, or the disjuncts hide
    // join predicates (column = column across factors) that the planner
    // could only see as a post-cross-product filter. Most blocks have none,
    // so the search borrows; only an expansion copies the conjuncts.
    let Some(selection) = &sel.selection else {
        return changed(sel);
    };
    let conjuncts = selection.conjuncts();
    let chosen = (0..conjuncts.len()).find(|&i| {
        let disjuncts = conjuncts[i].disjuncts();
        disjuncts.len() >= 2
            && (expansion_enables_elimination(&sel, &conjuncts, i)
                || disjuncts.iter().any(|d| contains_join_predicate(d)))
    });
    let Some(idx) = chosen else {
        return changed(sel);
    };
    let disjuncts = conjuncts[idx].disjuncts();
    let core: Vec<&Expr> =
        conjuncts.iter().enumerate().filter(|(i, _)| *i != idx).map(|(_, c)| *c).collect();

    let mut branches: Vec<SetExpr> = Vec::new();
    for d in disjuncts {
        // Factors needed by this branch: projection + core conjuncts + d.
        let mut needed: Vec<&str> = Vec::new();
        for item in &sel.projection {
            if let SelectItem::Expr { expr, .. } = item {
                expr.referenced_qualifiers(&mut needed);
            }
        }
        for c in &core {
            c.referenced_qualifiers(&mut needed);
        }
        d.referenced_qualifiers(&mut needed);
        // Unqualified references or wildcards force keeping everything.
        let keep_all = sel.projection.iter().any(|i| matches!(i, SelectItem::Wildcard))
            || has_unqualified(&sel, &core, d);

        let mut from = Vec::new();
        let mut dropped_empty = false;
        for f in &sel.from {
            let name = f.binding_name();
            let needed_here = keep_all || needed.iter().any(|q| q.eq_ignore_ascii_case(name));
            if needed_here {
                from.push(f.clone());
                continue;
            }
            match f {
                TableFactor::Table { name: tname, .. } => {
                    match catalog.table(tname) {
                        Ok(t) => {
                            if t.read().is_empty() {
                                // Cross product with an empty table: the
                                // whole branch (indeed the whole query)
                                // yields nothing.
                                dropped_empty = true;
                            }
                        }
                        // Unknown table: keep it so the planner reports the
                        // bind error instead of silently changing semantics.
                        Err(_) => from.push(f.clone()),
                    }
                }
                // Derived tables are never dropped (emptiness unknown).
                TableFactor::Derived { .. } => from.push(f.clone()),
            }
        }
        if dropped_empty {
            continue;
        }
        let branch = Select {
            distinct: true,
            projection: sel.projection.clone(),
            from,
            selection: pqp_sql::builder::and_all(core.iter().chain([&d]).map(|&c| c.clone())),
            group_by: Vec::new(),
            having: None,
        };
        // A branch may itself still contain an expandable disjunction.
        branches.push(match expand_select(&branch, catalog) {
            Some(expanded) => expanded,
            None => SetExpr::Select(Box::new(branch)),
        });
    }

    Some(
        match branches.into_iter().reduce(|l, r| SetExpr::Union {
            left: Box::new(l),
            right: Box::new(r),
            all: false,
        }) {
            Some(b) => b,
            None => {
                // Every branch crossed an empty table: the query is empty.
                let mut empty = sel.into_owned();
                empty.selection = Some(Expr::Literal(Value::Bool(false)));
                SetExpr::Select(Box::new(empty))
            }
        },
    )
}

/// Whether expanding conjunct `idx` lets at least one branch drop at least
/// one FROM factor.
fn expansion_enables_elimination(sel: &Select, conjuncts: &[&Expr], idx: usize) -> bool {
    let mut outside: Vec<&str> = Vec::new();
    for item in &sel.projection {
        if let SelectItem::Expr { expr, .. } = item {
            expr.referenced_qualifiers(&mut outside);
        }
    }
    for (i, c) in conjuncts.iter().enumerate() {
        if i != idx {
            c.referenced_qualifiers(&mut outside);
        }
    }
    for d in conjuncts[idx].disjuncts() {
        let mut branch_refs = outside.clone();
        d.referenced_qualifiers(&mut branch_refs);
        let droppable = sel
            .from
            .iter()
            .any(|f| !branch_refs.iter().any(|q| q.eq_ignore_ascii_case(f.binding_name())));
        if droppable {
            return true;
        }
    }
    false
}

/// Whether an expression contains an equality between columns of two
/// different qualifiers — a join predicate the planner can only exploit when
/// it sits at the top level of a conjunction.
fn contains_join_predicate(e: &Expr) -> bool {
    match e {
        Expr::Binary { left, op: BinaryOp::Eq, right } => {
            if let (
                Expr::Column { qualifier: Some(a), .. },
                Expr::Column { qualifier: Some(b), .. },
            ) = (&**left, &**right)
            {
                return !a.eq_ignore_ascii_case(b);
            }
            false
        }
        Expr::Binary { left, right, .. } => {
            contains_join_predicate(left) || contains_join_predicate(right)
        }
        Expr::Not(i) => contains_join_predicate(i),
        _ => false,
    }
}

/// Whether any projection or selection expression uses an unqualified column
/// (which would make table elimination unsafe to reason about).
fn select_has_unqualified(sel: &Select) -> bool {
    fn expr_has(e: &Expr) -> bool {
        match e {
            Expr::Column { qualifier: None, .. } => true,
            Expr::Column { .. } | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => expr_has(left) || expr_has(right),
            Expr::Not(i) => expr_has(i),
            Expr::IsNull { expr, .. } => expr_has(expr),
            Expr::InList { expr, list, .. } => expr_has(expr) || list.iter().any(expr_has),
            Expr::Function { args, .. } => args.iter().any(expr_has),
        }
    }
    sel.projection.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr_has(expr),
        SelectItem::Wildcard => false,
    }) || sel.selection.as_ref().is_some_and(expr_has)
}

fn has_unqualified(sel: &Select, core: &[&Expr], branch: &Expr) -> bool {
    fn expr_has(e: &Expr) -> bool {
        match e {
            Expr::Column { qualifier: None, .. } => true,
            Expr::Column { .. } | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => expr_has(left) || expr_has(right),
            Expr::Not(i) => expr_has(i),
            Expr::IsNull { expr, .. } => expr_has(expr),
            Expr::InList { expr, list, .. } => expr_has(expr) || list.iter().any(expr_has),
            Expr::Function { args, .. } => args.iter().any(expr_has),
        }
    }
    sel.projection.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr_has(expr),
        SelectItem::Wildcard => false,
    }) || core.iter().any(|c| expr_has(c))
        || expr_has(branch)
}
