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

/// Recursively apply OR-expansion to every select block of the query.
pub fn or_expand(q: &Query, catalog: &Catalog) -> Query {
    Query { body: expand_set_expr(&q.body, catalog), order_by: q.order_by.clone(), limit: q.limit }
}

fn expand_set_expr(s: &SetExpr, catalog: &Catalog) -> SetExpr {
    match s {
        SetExpr::Union { left, right, all } => SetExpr::Union {
            left: Box::new(expand_set_expr(left, catalog)),
            right: Box::new(expand_set_expr(right, catalog)),
            all: *all,
        },
        SetExpr::Select(sel) => expand_select(sel, catalog),
    }
}

fn expand_select(sel: &Select, catalog: &Catalog) -> SetExpr {
    // First, recurse into derived tables.
    let mut sel = sel.clone();
    for f in &mut sel.from {
        if let TableFactor::Derived { query, .. } = f {
            **query = or_expand(query, catalog);
        }
    }

    if !sel.distinct || !sel.group_by.is_empty() || sel.having.is_some() {
        return SetExpr::Select(Box::new(sel));
    }

    // General unreferenced-table elimination under DISTINCT (independent of
    // any disjunction): a base table referenced nowhere only multiplies
    // rows, which DISTINCT erases — unless it is empty, which empties the
    // whole query.
    if !sel.projection.iter().any(|i| matches!(i, SelectItem::Wildcard))
        && !select_has_unqualified(&sel)
    {
        let mut needed: Vec<String> = Vec::new();
        for item in &sel.projection {
            if let SelectItem::Expr { expr, .. } = item {
                expr.referenced_qualifiers(&mut needed);
            }
        }
        if let Some(w) = &sel.selection {
            w.referenced_qualifiers(&mut needed);
        }
        let mut empty_dropped = false;
        sel.from.retain(|f| {
            if needed.iter().any(|q| q.eq_ignore_ascii_case(f.binding_name())) {
                return true;
            }
            match f {
                TableFactor::Table { name, .. } => match catalog.table(name) {
                    Ok(t) => {
                        if t.read().is_empty() {
                            empty_dropped = true;
                        }
                        false
                    }
                    Err(_) => true, // let the planner report the bind error
                },
                TableFactor::Derived { .. } => true,
            }
        });
        if empty_dropped {
            // A cross product with an empty table empties the whole result.
            sel.selection = Some(Expr::Literal(Value::Bool(false)));
            return SetExpr::Select(Box::new(sel));
        }
    }

    // Find the first conjunct that is a disjunction worth expanding: either
    // expansion lets some branch drop a FROM factor, or the disjuncts hide
    // join predicates (column = column across factors) that the planner
    // could only see as a post-cross-product filter. Most blocks have none,
    // so the search borrows; only an expansion copies the conjuncts.
    let Some(selection) = &sel.selection else {
        return SetExpr::Select(Box::new(sel));
    };
    let conjuncts = selection.conjuncts();
    let chosen = (0..conjuncts.len()).find(|&i| {
        let disjuncts = conjuncts[i].disjuncts();
        disjuncts.len() >= 2
            && (expansion_enables_elimination(&sel, &conjuncts, i)
                || disjuncts.iter().any(|d| contains_join_predicate(d)))
    });
    let Some(idx) = chosen else {
        return SetExpr::Select(Box::new(sel));
    };
    let disjuncts: Vec<Expr> = conjuncts[idx].disjuncts().into_iter().cloned().collect();
    let core: Vec<Expr> = conjuncts
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != idx)
        .map(|(_, c)| (*c).clone())
        .collect();

    let mut branches: Vec<SetExpr> = Vec::new();
    for d in &disjuncts {
        // Factors needed by this branch: projection + core conjuncts + d.
        let mut needed: Vec<String> = Vec::new();
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
        let mut branch_conjs = core.clone();
        branch_conjs.push(d.clone());
        let branch = Select {
            distinct: true,
            projection: sel.projection.clone(),
            from,
            selection: pqp_sql::builder::and_all(branch_conjs),
            group_by: Vec::new(),
            having: None,
        };
        // A branch may itself still contain an expandable disjunction.
        branches.push(expand_select(&branch, catalog));
    }

    match branches.into_iter().reduce(|l, r| SetExpr::Union {
        left: Box::new(l),
        right: Box::new(r),
        all: false,
    }) {
        Some(b) => b,
        None => {
            // Every branch crossed an empty table: the query is empty.
            let mut empty = sel.clone();
            empty.selection = Some(Expr::Literal(Value::Bool(false)));
            SetExpr::Select(Box::new(empty))
        }
    }
}

/// Whether expanding conjunct `idx` lets at least one branch drop at least
/// one FROM factor.
fn expansion_enables_elimination(sel: &Select, conjuncts: &[&Expr], idx: usize) -> bool {
    let mut outside: Vec<String> = Vec::new();
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

fn has_unqualified(sel: &Select, core: &[Expr], branch: &Expr) -> bool {
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
    }) || core.iter().any(expr_has)
        || expr_has(branch)
}
