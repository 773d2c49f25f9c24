//! Tuple-variable allocation for preference integration (§6, "common tuple
//! variables").
//!
//! Preferences are independent, so when two selected paths share a prefix of
//! join edges, giving them the *same* tuple variables would add a constraint
//! the preference model never expressed (e.g. "A. Hopkins played Batman").
//! The paper's rule:
//!
//! - along a common prefix of **to-one** joins, sharing is forced (there is
//!   only one matching tuple anyway);
//! - at the first **to-many** common join, the paths must split into
//!   different variables — as close to the start as possible.
//!
//! The allocator realizes this with a trie over join-edge signatures whose
//! to-one children are shared and whose to-many children are always fresh.

use crate::graph::JoinEdge;
use crate::path::PreferencePath;
use pqp_storage::Cardinality;
use std::fmt::Write as _;
use std::sync::Arc;

/// The variables assigned to one path's hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathVars {
    /// `hop_vars[i]` is the tuple variable of `joins[i].to`; empty when the
    /// path has no joins.
    pub hop_vars: Vec<Arc<str>>,
}

/// Allocates tuple variables for a set of paths, avoiding the query's own
/// variables.
pub struct VarAllocator<'a> {
    reserved: Vec<&'a str>,
    counter: usize,
}

/// A trie node: its to-one children by hop, for reuse (to-many hops are
/// never shared, so never recorded).
#[derive(Default)]
struct TrieNode<'p, 'g> {
    shared: Vec<(&'p JoinEdge<'g>, usize)>,
}

impl<'a> VarAllocator<'a> {
    /// A new allocator that will never emit any of `reserved` (the query's
    /// tuple variables), case-insensitively.
    pub fn new(reserved: impl IntoIterator<Item = &'a str>) -> VarAllocator<'a> {
        VarAllocator { reserved: reserved.into_iter().collect(), counter: 0 }
    }

    fn fresh(&mut self, table: &str) -> Arc<str> {
        loop {
            self.counter += 1;
            // A short table-derived prefix keeps generated SQL readable. The
            // counter never repeats, so only the reserved names can collide.
            let mut name: String = (table.chars())
                .filter(|c| c.is_ascii_alphabetic())
                .take(2)
                .map(|c| c.to_ascii_uppercase())
                .collect();
            let _ = write!(name, "_{}", self.counter);
            if !self.reserved.iter().any(|r| r.eq_ignore_ascii_case(&name)) {
                return name.into();
            }
        }
    }

    /// Allocate variables for all paths at once, sharing forced prefixes.
    ///
    /// Paths are grouped by anchor variable; within a group, a trie over
    /// to-one hops shares variables, while a to-many hop always allocates a
    /// fresh chain for the remainder of the path.
    pub fn allocate<'p, 'g: 'p>(
        &mut self,
        paths: impl IntoIterator<Item = &'p PreferencePath<'g>>,
    ) -> Vec<PathVars> {
        // node id → trie node; one root per anchor variable.
        let mut nodes: Vec<TrieNode<'p, 'g>> = Vec::new();
        let mut node_vars: Vec<Arc<str>> = Vec::new();
        let mut roots: Vec<(&'p str, usize)> = Vec::new();

        let mut out = Vec::new();
        for p in paths {
            let root = match roots.iter().find(|(var, _)| var.eq_ignore_ascii_case(&p.start_var)) {
                Some(&(_, root)) => root,
                None => {
                    nodes.push(TrieNode::default());
                    node_vars.push(Arc::clone(&p.start_var));
                    roots.push((&p.start_var, nodes.len() - 1));
                    nodes.len() - 1
                }
            };
            let mut at = root;
            let mut shared_prefix = true;
            let mut hop_vars = Vec::with_capacity(p.joins.len());
            for edge in &p.joins {
                let next = if shared_prefix && edge.cardinality == Cardinality::ToOne {
                    let known = nodes[at].shared.iter().find(|(hop, _)| hop.same_hop(edge));
                    match known {
                        Some(&(_, n)) => n,
                        None => {
                            nodes.push(TrieNode::default());
                            node_vars.push(self.fresh(&edge.to.table));
                            let n = nodes.len() - 1;
                            nodes[at].shared.push((edge, n));
                            n
                        }
                    }
                } else {
                    // First to-many hop (or anything after it): split — a
                    // fresh, unshared variable chain.
                    shared_prefix = false;
                    nodes.push(TrieNode::default());
                    node_vars.push(self.fresh(&edge.to.table));
                    nodes.len() - 1
                };
                hop_vars.push(Arc::clone(&node_vars[next]));
                at = next;
            }
            out.push(PathVars { hop_vars });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doi::{Doi, PaperCombinator};
    use crate::graph::{JoinEdge, SelectionEdge};
    use crate::pref::AttrRef;
    use pqp_storage::Value;

    fn join(from: (&str, &str), to: (&str, &str), card: Cardinality) -> JoinEdge<'static> {
        JoinEdge::new(
            AttrRef::new(from.0, from.1),
            AttrRef::new(to.0, to.1),
            Doi::new(0.9).unwrap(),
            card,
        )
    }

    fn sel(attr: (&str, &str), value: &str) -> SelectionEdge<'static> {
        SelectionEdge::new(AttrRef::new(attr.0, attr.1), Value::str(value), Doi::new(0.9).unwrap())
    }

    fn actor_path(name: &str) -> PreferencePath<'static> {
        let comb = PaperCombinator;
        PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("CAST", "mid"), Cardinality::ToMany), &comb)
            .with_join(join(("CAST", "aid"), ("ACTOR", "aid"), Cardinality::ToOne), &comb)
            .with_selection(sel(("ACTOR", "name"), name), &comb)
    }

    fn director_path(name: &str) -> PreferencePath<'static> {
        let comb = PaperCombinator;
        PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("DIRECTED", "mid"), Cardinality::ToOne), &comb)
            .with_join(join(("DIRECTED", "did"), ("DIRECTOR", "did"), Cardinality::ToOne), &comb)
            .with_selection(sel(("DIRECTOR", "name"), name), &comb)
    }

    #[test]
    fn to_many_prefix_splits() {
        // Two actor preferences share MOVIE→CAST (to-many): they must get
        // different CAST and ACTOR variables so a movie starring both
        // qualifies via different cast tuples (§6 Rossellini/Hopkins case).
        let paths = vec![actor_path("I. Rossellini"), actor_path("A. Hopkins")];
        let mut alloc = VarAllocator::new(["MV", "PL"]);
        let vars = alloc.allocate(&paths);
        assert_ne!(vars[0].hop_vars[0], vars[1].hop_vars[0], "CAST vars must differ");
        assert_ne!(vars[0].hop_vars[1], vars[1].hop_vars[1], "ACTOR vars must differ");
    }

    #[test]
    fn to_one_prefix_shares() {
        // Two director preferences via all-to-one joins must share variables
        // (the only option, per §6 case 2).
        let paths = vec![director_path("D. Lynch"), director_path("W. Allen")];
        let mut alloc = VarAllocator::new(["MV"]);
        let vars = alloc.allocate(&paths);
        assert_eq!(vars[0].hop_vars, vars[1].hop_vars, "to-one chains share variables");
    }

    #[test]
    fn split_happens_at_first_to_many() {
        // Chain to-one → to-many → to-one: share the first hop, split after.
        let comb = PaperCombinator;
        let mk = |val: &str| {
            PreferencePath::anchor("A", "TA")
                .with_join(join(("TA", "x"), ("TB", "x"), Cardinality::ToOne), &comb)
                .with_join(join(("TB", "y"), ("TC", "y"), Cardinality::ToMany), &comb)
                .with_join(join(("TC", "z"), ("TD", "z"), Cardinality::ToOne), &comb)
                .with_selection(sel(("TD", "v"), val), &comb)
        };
        let paths = vec![mk("1"), mk("2")];
        let mut alloc = VarAllocator::new([]);
        let vars = alloc.allocate(&paths);
        assert_eq!(vars[0].hop_vars[0], vars[1].hop_vars[0], "to-one hop shared");
        assert_ne!(vars[0].hop_vars[1], vars[1].hop_vars[1], "split at to-many");
        assert_ne!(vars[0].hop_vars[2], vars[1].hop_vars[2], "stays split afterwards");
    }

    #[test]
    fn different_anchors_never_share() {
        let comb = PaperCombinator;
        let a = PreferencePath::anchor("A", "TA")
            .with_join(join(("TA", "x"), ("TB", "x"), Cardinality::ToOne), &comb)
            .with_selection(sel(("TB", "v"), "1"), &comb);
        let mut b = a.clone();
        b.start_var = "A2".into();
        let mut alloc = VarAllocator::new([]);
        let vars = alloc.allocate(&[a, b]);
        assert_ne!(vars[0].hop_vars[0], vars[1].hop_vars[0]);
    }

    #[test]
    fn reserved_names_avoided() {
        let comb = PaperCombinator;
        let p = PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("GENRE", "mid"), Cardinality::ToMany), &comb)
            .with_selection(sel(("GENRE", "genre"), "comedy"), &comb);
        let mut alloc = VarAllocator::new(["GE_1"]);
        let vars = alloc.allocate(&[p]);
        assert_ne!(vars[0].hop_vars[0].to_ascii_uppercase(), "GE_1");
        assert_eq!(&*vars[0].hop_vars[0], "GE_2");
    }
}
