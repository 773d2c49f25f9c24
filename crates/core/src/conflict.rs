//! Syntactic conflict detection (§5 and §6).
//!
//! Two conditions are *syntactically conflicting* when they are comprised of
//! a common transitive join plus atomic selections on the same attribute
//! with different values, and all constituent joins — in the direction of
//! the selection — are to-one (a theatre is in exactly one region, so
//! `region='uptown'` and `region='downtown'` can never hold together).
//!
//! The prototype (like the paper's) handles conflicts pairwise at the
//! syntactic level: a preference is checked against the query's own
//! selection conditions, and selected preferences are checked against each
//! other during integration.

use crate::path::PreferencePath;
use crate::query_graph::QueryGraph;

/// Whether a completed preference path conflicts with the query itself.
///
/// True iff: the path ends in a selection on attribute `A`; every join of
/// the path is to-one; and the query embeds the same join chain starting at
/// the path's anchor variable, ending at a variable with a selection on `A`
/// carrying a *different* value.
pub fn conflicts_with_query(path: &PreferencePath<'_>, qg: &QueryGraph) -> bool {
    let Some(sel) = &path.selection else {
        return false;
    };
    if !path.all_joins_to_one() {
        return false;
    }
    // Walk the query graph along the path's join chain, tracking the set of
    // variables reachable by the chain so far (replicated relations can make
    // this a set).
    let mut vars: Vec<&str> = vec![&*path.start_var];
    for hop in &path.joins {
        let mut next: Vec<&str> = Vec::new();
        for v in &vars {
            let Some(node) = qg.node(v) else { continue };
            if !node.table.eq_ignore_ascii_case(&hop.from.table) {
                continue;
            }
            for (_, col, other_var, other_col) in qg.joins_from_var(v) {
                let Some(other) = qg.node(other_var) else {
                    continue;
                };
                if col.eq_ignore_ascii_case(&hop.from.column)
                    && other.table.eq_ignore_ascii_case(&hop.to.table)
                    && other_col.eq_ignore_ascii_case(&hop.to.column)
                    && !next.iter().any(|x| x.eq_ignore_ascii_case(other_var))
                {
                    next.push(other_var);
                }
            }
        }
        vars = next;
        if vars.is_empty() {
            return false;
        }
    }
    // Any reachable variable with a different-valued selection on the same
    // attribute conflicts.
    vars.iter().any(|v| qg.selections_on(v, &sel.attr.column).any(|qs| qs.value != *sel.value))
}

/// Whether two completed preference paths conflict with each other.
///
/// True iff both end in selections on the same attribute with different
/// values, share the same anchor variable and the same join chain, and the
/// chain is all to-one (so both selections would constrain the same tuple).
pub fn conflicts_between(a: &PreferencePath<'_>, b: &PreferencePath<'_>) -> bool {
    let (Some(sa), Some(sb)) = (&a.selection, &b.selection) else {
        return false;
    };
    if !sa.attr.same_as(&sb.attr) || sa.value == sb.value {
        return false;
    }
    if !a.start_var.eq_ignore_ascii_case(&b.start_var) {
        return false;
    }
    if !a.same_join_chain(b) {
        return false;
    }
    a.all_joins_to_one() && b.all_joins_to_one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doi::{Doi, PaperCombinator};
    use crate::graph::{JoinEdge, SelectionEdge};
    use crate::pref::AttrRef;
    use pqp_storage::{Cardinality, Catalog, ColumnDef, DataType, TableSchema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "THEATRE",
                vec![ColumnDef::new("tid", DataType::Int), ColumnDef::new("region", DataType::Str)],
            )
            .with_primary_key(&["tid"]),
        )
        .unwrap();
        c.create_table(TableSchema::new(
            "PLAY",
            vec![ColumnDef::new("tid", DataType::Int), ColumnDef::new("mid", DataType::Int)],
        ))
        .unwrap();
        c.create_table(
            TableSchema::new(
                "MOVIE",
                vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("title", DataType::Str)],
            )
            .with_primary_key(&["mid"]),
        )
        .unwrap();
        c
    }

    fn qg(sql: &str) -> QueryGraph {
        let q = pqp_sql::parse_query(sql).unwrap();
        QueryGraph::from_select(q.as_select().unwrap(), &catalog()).unwrap()
    }

    fn sel_edge(attr: (&str, &str), value: &str, doi: f64) -> SelectionEdge<'static> {
        SelectionEdge::new(AttrRef::new(attr.0, attr.1), Value::str(value), Doi::new(doi).unwrap())
    }

    fn sel_path(
        var: &str,
        table: &str,
        attr: (&str, &str),
        value: &str,
    ) -> PreferencePath<'static> {
        PreferencePath::anchor(var, table)
            .with_selection(sel_edge(attr, value, 0.8), &PaperCombinator)
    }

    fn join(from: (&str, &str), to: (&str, &str), card: Cardinality) -> JoinEdge<'static> {
        JoinEdge::new(AttrRef::new(from.0, from.1), AttrRef::new(to.0, to.1), Doi::ONE, card)
    }

    #[test]
    fn zero_join_conflict_with_query() {
        // Paper's example: query has region='uptown'; preference
        // region='downtown' conflicts.
        let g = qg("select TH.tid from THEATRE TH where TH.region = 'uptown'");
        let p = sel_path("TH", "THEATRE", ("THEATRE", "region"), "downtown");
        assert!(conflicts_with_query(&p, &g));
        // Same value: no conflict (it is the same condition).
        let same = sel_path("TH", "THEATRE", ("THEATRE", "region"), "uptown");
        assert!(!conflicts_with_query(&same, &g));
        // Different attribute: no conflict.
        let other = sel_path("TH", "THEATRE", ("THEATRE", "tid"), "uptown");
        assert!(!conflicts_with_query(&other, &g));
    }

    #[test]
    fn transitive_conflict_through_to_one_chain() {
        // Query: PLAY ⋈ MOVIE with MOVIE.title='The Last Dictator'.
        // Preference: PLAY →(to-one) MOVIE.title='Other' conflicts.
        let g = qg("select PL.tid from PLAY PL, MOVIE MV \
             where PL.mid = MV.mid and MV.title = 'The Last Dictator'");
        let p = PreferencePath::anchor("PL", "PLAY")
            .with_join(
                join(("PLAY", "mid"), ("MOVIE", "mid"), Cardinality::ToOne),
                &PaperCombinator,
            )
            .with_selection(sel_edge(("MOVIE", "title"), "Other", 0.9), &PaperCombinator);
        assert!(conflicts_with_query(&p, &g));
    }

    #[test]
    fn to_many_chain_never_conflicts() {
        // THEATRE →(to-many) PLAY: a theatre plays many movies, so a
        // preference on another play date cannot conflict.
        let g = qg("select TH.tid from THEATRE TH, PLAY PL \
             where TH.tid = PL.tid and PL.mid = '5'");
        let p = PreferencePath::anchor("TH", "THEATRE")
            .with_join(
                join(("THEATRE", "tid"), ("PLAY", "tid"), Cardinality::ToMany),
                &PaperCombinator,
            )
            .with_selection(sel_edge(("PLAY", "mid"), "7", 0.9), &PaperCombinator);
        assert!(!conflicts_with_query(&p, &g));
    }

    #[test]
    fn chain_must_be_embedded_in_query() {
        // Query joins nothing: a transitive preference cannot conflict even
        // if a same-attribute selection exists on an unrelated variable.
        let g = qg("select PL.tid from PLAY PL where PL.mid = '3'");
        let p = PreferencePath::anchor("PL", "PLAY")
            .with_join(
                join(("PLAY", "mid"), ("MOVIE", "mid"), Cardinality::ToOne),
                &PaperCombinator,
            )
            .with_selection(sel_edge(("MOVIE", "title"), "X", 0.9), &PaperCombinator);
        assert!(!conflicts_with_query(&p, &g));
    }

    #[test]
    fn pairwise_conflicts() {
        let a = sel_path("TH", "THEATRE", ("THEATRE", "region"), "uptown");
        let b = sel_path("TH", "THEATRE", ("THEATRE", "region"), "downtown");
        assert!(conflicts_between(&a, &b));
        assert!(conflicts_between(&b, &a));
        // Same value → same condition, not a conflict.
        let c = sel_path("TH", "THEATRE", ("THEATRE", "region"), "uptown");
        assert!(!conflicts_between(&a, &c));
        // Different anchors don't conflict.
        let d = sel_path("T2", "THEATRE", ("THEATRE", "region"), "downtown");
        assert!(!conflicts_between(&a, &d));
    }

    #[test]
    fn pairwise_conflict_requires_to_one_chain() {
        let comb = PaperCombinator;
        let mk = |value: &str, card| {
            PreferencePath::anchor("TH", "THEATRE")
                .with_join(join(("THEATRE", "tid"), ("PLAY", "tid"), card), &comb)
                .with_selection(sel_edge(("PLAY", "mid"), value, 0.5), &comb)
        };
        assert!(!conflicts_between(&mk("1", Cardinality::ToMany), &mk("2", Cardinality::ToMany)));
        assert!(conflicts_between(&mk("1", Cardinality::ToOne), &mk("2", Cardinality::ToOne)));
    }
}
