//! Preference paths: transitive preferences as directed paths in the
//! personalization graph (§3.2), anchored at a query-graph node.

use crate::doi::{Combinator, Doi};
use crate::graph::{JoinEdge, SelectionEdge};
use pqp_storage::Cardinality;
use std::fmt;
use std::sync::Arc;

/// A (partial or complete) preference path.
///
/// A path starts at a tuple variable of the query (`start_var`, ranging over
/// `start_table`), follows zero or more composable join edges outward, and —
/// when complete — ends with a selection edge. A path with `selection: None`
/// is a transitive join still under expansion; a path with a selection is a
/// (transitive) selection preference ready for integration.
///
/// Its edges borrow from the personalization graph they were read from
/// (`'g`), so extending a path copies no attribute or value.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferencePath<'g> {
    pub start_var: Arc<str>,
    pub start_table: Arc<str>,
    pub joins: Vec<JoinEdge<'g>>,
    pub selection: Option<SelectionEdge<'g>>,
    /// Degree of interest: the transitive combination of all edge degrees.
    pub doi: Doi,
}

impl<'g> PreferencePath<'g> {
    /// A length-zero path anchored at a query node.
    pub fn anchor(
        start_var: impl Into<Arc<str>>,
        start_table: impl Into<Arc<str>>,
    ) -> PreferencePath<'g> {
        PreferencePath {
            start_var: start_var.into(),
            start_table: start_table.into(),
            joins: Vec::new(),
            selection: None,
            doi: Doi::ONE,
        }
    }

    /// The degrees of the edges in path order, followed by `last`.
    fn degrees_with(&self, last: Doi) -> Vec<Doi> {
        let mut degrees = Vec::with_capacity(self.joins.len() + 1);
        degrees.extend(self.joins.iter().map(|j| j.doi));
        degrees.push(last);
        degrees
    }

    /// Extend with a join edge, recomputing the degree with `comb`.
    pub fn with_join(&self, edge: JoinEdge<'g>, comb: &impl Combinator) -> PreferencePath<'g> {
        let doi = comb.transitive(&self.degrees_with(edge.doi));
        let mut joins = Vec::with_capacity(self.joins.len() + 1);
        joins.extend(self.joins.iter().cloned());
        joins.push(edge);
        PreferencePath {
            start_var: Arc::clone(&self.start_var),
            start_table: Arc::clone(&self.start_table),
            joins,
            selection: None,
            doi,
        }
    }

    /// Complete with a selection edge, recomputing the degree with `comb`.
    pub fn with_selection(
        &self,
        sel: SelectionEdge<'g>,
        comb: &impl Combinator,
    ) -> PreferencePath<'g> {
        PreferencePath {
            start_var: Arc::clone(&self.start_var),
            start_table: Arc::clone(&self.start_table),
            joins: self.joins.clone(),
            doi: comb.transitive(&self.degrees_with(sel.doi)),
            selection: Some(sel),
        }
    }

    /// Whether the path is a complete (transitive) selection.
    pub fn is_selection(&self) -> bool {
        self.selection.is_some()
    }

    /// Number of edges (joins + selection).
    pub fn len(&self) -> usize {
        self.joins.len() + usize::from(self.selection.is_some())
    }

    /// True for a freshly anchored path with no edges.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The relation at the end of the join chain (where the next edge must
    /// be composable).
    pub fn end_table(&self) -> &str {
        self.joins.last().map(|j| j.to.table.as_str()).unwrap_or(&self.start_table)
    }

    /// Whether the path visits `table` (its start or any join target),
    /// case-insensitively — the cycle-pruning test.
    pub fn visits(&self, table: &str) -> bool {
        self.start_table.eq_ignore_ascii_case(table)
            || self.joins.iter().any(|j| j.to.table.eq_ignore_ascii_case(table))
    }

    /// Whether every join, in the direction of the selection, is to-one
    /// (the precondition for syntactic conflicts, §5, and for forced tuple
    /// variable sharing, §6).
    pub fn all_joins_to_one(&self) -> bool {
        self.joins.iter().all(|j| j.cardinality == Cardinality::ToOne)
    }

    /// Whether both paths follow the same join chain, hop by hop, at the
    /// relation/attribute level (case-insensitively; degrees and
    /// cardinalities aside).
    pub fn same_join_chain(&self, other: &PreferencePath<'_>) -> bool {
        self.joins.len() == other.joins.len()
            && self.joins.iter().zip(&other.joins).all(|(a, b)| a.same_hop(b))
    }
}

impl fmt::Display for PreferencePath<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for j in &self.joins {
            parts.push(format!("{}={}", j.from, j.to));
        }
        if let Some(s) = &self.selection {
            parts.push(format!("{}={}", s.attr, pqp_sql::sql_literal(&s.value)));
        }
        write!(f, "⟨{} @{} | {}⟩", parts.join(" and "), self.start_var, self.doi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doi::PaperCombinator;
    use crate::pref::AttrRef;
    use pqp_storage::Value;

    fn join(
        from: (&str, &str),
        to: (&str, &str),
        doi: f64,
        card: Cardinality,
    ) -> JoinEdge<'static> {
        JoinEdge::new(
            AttrRef::new(from.0, from.1),
            AttrRef::new(to.0, to.1),
            Doi::new(doi).unwrap(),
            card,
        )
    }

    fn sel(attr: (&str, &str), value: &str, doi: f64) -> SelectionEdge<'static> {
        SelectionEdge::new(AttrRef::new(attr.0, attr.1), Value::str(value), Doi::new(doi).unwrap())
    }

    #[test]
    fn paper_kidman_path_degree() {
        // MOVIE →(0.8) CAST →(1.0) ACTOR, name='N. Kidman' (0.9) ⇒ 0.72.
        let comb = PaperCombinator;
        let p = PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("CAST", "mid"), 0.8, Cardinality::ToMany), &comb)
            .with_join(join(("CAST", "aid"), ("ACTOR", "aid"), 1.0, Cardinality::ToOne), &comb)
            .with_selection(sel(("ACTOR", "name"), "N. Kidman", 0.9), &comb);
        assert!((p.doi.value() - 0.72).abs() < 1e-12);
        assert!(p.is_selection());
        assert_eq!(p.len(), 3);
        assert_eq!(p.end_table(), "ACTOR");
        assert!(["movie", "CAST", "Actor"].iter().all(|t| p.visits(t)));
        assert!(!p.visits("GENRE"));
        assert!(!p.all_joins_to_one());
    }

    #[test]
    fn anchor_has_unit_degree() {
        let p = PreferencePath::anchor("MV", "MOVIE");
        assert_eq!(p.doi, Doi::ONE);
        assert!(p.is_empty());
        assert_eq!(p.end_table(), "MOVIE");
    }

    #[test]
    fn zero_join_selection() {
        let comb = PaperCombinator;
        let p = PreferencePath::anchor("GN", "GENRE")
            .with_selection(sel(("GENRE", "genre"), "comedy", 0.9), &comb);
        assert_eq!(p.doi.value(), 0.9);
        assert!(p.all_joins_to_one(), "vacuously true with no joins");
    }

    #[test]
    fn join_chains_compare_case_insensitively() {
        let comb = PaperCombinator;
        let p = PreferencePath::anchor("mv", "Movie")
            .with_join(join(("Movie", "Mid"), ("Genre", "MID"), 0.5, Cardinality::ToMany), &comb);
        let q = PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("GENRE", "mid"), 0.9, Cardinality::ToOne), &comb);
        assert!(p.same_join_chain(&q));
        let r = PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("CAST", "mid"), 0.9, Cardinality::ToOne), &comb);
        assert!(!p.same_join_chain(&r));
        assert!(!p.same_join_chain(&PreferencePath::anchor("MV", "MOVIE")));
    }
}
