//! The Preference Selection algorithm (§5.2, Figure 5).
//!
//! Best-first traversal of the personalization graph: candidate paths are
//! kept in a priority queue ordered by decreasing degree of interest (ties
//! favour shorter paths, then earlier insertion — the paper's queue
//! discipline). Paths begin at the query graph and expand outward. On each
//! round the head is popped:
//!
//! - a **selection** path is emitted if the interest criterion still holds;
//!   otherwise the algorithm terminates (everything left is no better —
//!   Theorem 1);
//! - a **join** path is expanded with every composable atomic element, in
//!   decreasing degree order, pruning (i) cycles into the path or the query,
//!   (ii) conflicts with the query, (iii) candidates failing the criterion
//!   (and everything after them, since expansion order is by degree).

use crate::conflict::conflicts_with_query;
use crate::criteria::InterestCriterion;
use crate::doi::{Combinator, Doi, PaperCombinator};
use crate::error::Result;
use crate::graph::{GraphAccess, JoinEdge, SelectionEdge};
use crate::path::PreferencePath;
use crate::query_graph::QueryGraph;
use pqp_obs::QueryCtx;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Statistics of one run of the algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Candidate paths popped from the queue.
    pub rounds: usize,
    /// Paths pushed into the queue (excluding initial seeding).
    pub expansions: usize,
    /// Candidates pruned as cycles.
    pub pruned_cycles: usize,
    /// Candidates pruned as conflicting with the query.
    pub pruned_conflicts: usize,
    /// Adjacency fetches performed against the graph backend (each
    /// `joins_from` / `selections_of` call; the paper's Figure 6 axis).
    pub graph_accesses: usize,
}

/// The outcome: the ordered set `P_K` plus run statistics. The selected
/// paths borrow from the graph they were read from.
#[derive(Debug, Clone)]
pub struct SelectionOutcome<'g> {
    /// Selected transitive selections, in decreasing degree of interest.
    pub selected: Vec<PreferencePath<'g>>,
    pub stats: SelectStats,
}

/// Queue entry ordered by (degree desc, length asc, insertion seq asc).
struct Entry<'g> {
    path: PreferencePath<'g>,
    seq: usize,
}

impl PartialEq for Entry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry<'_> {}

impl PartialOrd for Entry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: greater = popped first.
        self.path
            .doi
            .cmp(&other.path.doi)
            .then_with(|| other.path.len().cmp(&self.path.len()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Run preference selection with the paper's combination semantics.
pub fn select_preferences<'g>(
    qg: &QueryGraph,
    graph: &'g impl GraphAccess,
    criterion: &InterestCriterion,
) -> SelectionOutcome<'g> {
    select_preferences_with(qg, graph, criterion, &PaperCombinator)
}

/// Run preference selection with custom combination semantics (ablations).
pub fn select_preferences_with<'g>(
    qg: &QueryGraph,
    graph: &'g impl GraphAccess,
    criterion: &InterestCriterion,
    comb: &impl Combinator,
) -> SelectionOutcome<'g> {
    match run_selection(qg, graph, criterion, comb, &QueryCtx::unlimited()) {
        Ok(out) => out,
        // An unlimited context has no deadline, caps or cancel signal —
        // nothing here can fail.
        Err(_) => unreachable!("selection under an unlimited governor context cannot trip"),
    }
}

/// Run preference selection under a query-governor context: the best-first
/// loop checkpoints the budget every round, so an exploding queue (large
/// profile, permissive criterion) is cut off with
/// [`PrefError::Budget`](crate::PrefError::Budget) instead of running away.
pub fn select_preferences_ctx<'g>(
    qg: &QueryGraph,
    graph: &'g impl GraphAccess,
    criterion: &InterestCriterion,
    comb: &impl Combinator,
    ctx: &QueryCtx,
) -> Result<SelectionOutcome<'g>> {
    run_selection(qg, graph, criterion, comb, ctx)
}

fn run_selection<'g>(
    qg: &QueryGraph,
    graph: &'g impl GraphAccess,
    criterion: &InterestCriterion,
    comb: &impl Combinator,
    ctx: &QueryCtx,
) -> Result<SelectionOutcome<'g>> {
    let _span = pqp_obs::span("selection");
    let mut stats = SelectStats::default();
    let mut queue: BinaryHeap<Entry<'g>> = BinaryHeap::new();
    let mut seq = 0usize;

    // Seed: atomic elements attached to each query node (step 1 of Fig. 5).
    for node in &qg.nodes {
        let anchor = PreferencePath::anchor(Arc::clone(&node.var), Arc::clone(&node.table));
        stats.graph_accesses += 1;
        for sel in graph.selections_of(&node.table) {
            let p = anchor.with_selection(sel, comb);
            if conflicts_with_query(&p, qg) {
                stats.pruned_conflicts += 1;
                continue;
            }
            queue.push(Entry { path: p, seq });
            seq += 1;
        }
        stats.graph_accesses += 1;
        for join in graph.joins_from(&node.table) {
            // Rule (i): a join into a relation of the query forms a cycle.
            if qg.contains_table(&join.to.table) {
                stats.pruned_cycles += 1;
                continue;
            }
            queue.push(Entry { path: anchor.with_join(join, comb), seq });
            seq += 1;
        }
    }

    let mut selected: Vec<PreferencePath<'g>> = Vec::new();
    let mut selected_dois: Vec<Doi> = Vec::new();
    let mut candidates: Vec<Candidate<'g>> = Vec::new();

    // Eager pruning (paper rule iv and the join-path termination of
    // Theorem 1) is exact only when a rejection can never be undone by a
    // larger selected set; set-dependent criteria disable it.
    let eager = criterion.rejection_is_permanent();

    // Step 2: best-first rounds. Paths pop in decreasing degree (Theorem 1),
    // so completed selections form the ordered stream P_1, P_2, ... of §5.1.
    'outer: while let Some(Entry { path, .. }) = queue.pop() {
        ctx.checkpoint()?;
        stats.rounds += 1;
        if path.is_selection() {
            if criterion.accepts(&selected_dois, path.doi) {
                selected_dois.push(path.doi);
                selected.push(path);
            } else if criterion.prefix_failure_is_final() {
                break 'outer; // Theorem 1: nothing better remains.
            } else {
                // ConjunctionAbove: keep consuming; the largest satisfying
                // prefix is computed at the end.
                selected_dois.push(path.doi);
                selected.push(path);
            }
            continue;
        }
        // A join path: expand unless the criterion proves no descendant can
        // ever be admitted.
        if eager && !criterion.accepts(&selected_dois, path.doi) {
            break 'outer;
        }

        // Composable atomic elements, merged in decreasing degree order so
        // criterion failure prunes the whole tail.
        let end = path.end_table();
        stats.graph_accesses += 2;
        candidates.clear();
        candidates.extend(graph.selections_of(end).map(Candidate::Selection));
        candidates.extend(graph.joins_from(end).map(Candidate::Join));
        candidates.sort_by_key(|c| std::cmp::Reverse(c.doi()));

        for c in candidates.drain(..) {
            let extended_doi = comb.transitive(&[path.doi, c.doi()]);
            // Rule (iv): once a candidate fails the criterion, all remaining
            // ones (lower degree) fail too.
            if eager && !criterion.accepts(&selected_dois, extended_doi) {
                break;
            }
            match c {
                Candidate::Selection(s) => {
                    let p = path.with_selection(s, comb);
                    if conflicts_with_query(&p, qg) {
                        stats.pruned_conflicts += 1;
                        continue;
                    }
                    queue.push(Entry { path: p, seq });
                    seq += 1;
                    stats.expansions += 1;
                }
                Candidate::Join(j) => {
                    // Rule (i): cycles into the path or the query.
                    if path.visits(&j.to.table) || qg.contains_table(&j.to.table) {
                        stats.pruned_cycles += 1;
                        continue;
                    }
                    queue.push(Entry { path: path.with_join(j, comb), seq });
                    seq += 1;
                    stats.expansions += 1;
                }
            }
        }
    }

    // §5.1: K = max{t : CI(P_t)} — for ConjunctionAbove the whole stream was
    // consumed; keep the largest prefix satisfying the criterion.
    if !criterion.prefix_failure_is_final() {
        let mut best = 0;
        let mut prefix: Vec<Doi> = Vec::new();
        for (t, d) in selected_dois.iter().enumerate() {
            if criterion.accepts(&prefix, *d) {
                best = t + 1;
            }
            prefix.push(*d);
        }
        selected.truncate(best);
    }

    pqp_obs::record("selected", selected.len());
    pqp_obs::record("rounds", stats.rounds);
    pqp_obs::counter_add("selection.rounds", stats.rounds as i64);
    pqp_obs::counter_add("selection.expansions", stats.expansions as i64);
    pqp_obs::counter_add("selection.pruned_cycles", stats.pruned_cycles as i64);
    pqp_obs::counter_add("selection.pruned_conflicts", stats.pruned_conflicts as i64);
    pqp_obs::counter_add("selection.graph_accesses", stats.graph_accesses as i64);
    Ok(SelectionOutcome { selected, stats })
}

/// A composable atomic element of an expansion round.
enum Candidate<'g> {
    Selection(SelectionEdge<'g>),
    Join(JoinEdge<'g>),
}

impl Candidate<'_> {
    fn doi(&self) -> Doi {
        match self {
            Candidate::Selection(s) => s.doi,
            Candidate::Join(j) => j.doi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PrefError;
    use crate::graph::InMemoryGraph;
    use crate::profile::Profile;
    use pqp_obs::BudgetReason;
    use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

    /// The paper's movies schema (keys included so cardinalities work out).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "THEATRE",
                vec![
                    ColumnDef::new("tid", DataType::Int),
                    ColumnDef::new("name", DataType::Str),
                    ColumnDef::new("phone", DataType::Str),
                    ColumnDef::new("region", DataType::Str),
                ],
            )
            .with_primary_key(&["tid"]),
        )
        .unwrap();
        c.create_table(
            TableSchema::new(
                "MOVIE",
                vec![
                    ColumnDef::new("mid", DataType::Int),
                    ColumnDef::new("title", DataType::Str),
                    ColumnDef::new("year", DataType::Int),
                ],
            )
            .with_primary_key(&["mid"]),
        )
        .unwrap();
        for (name, cols) in [
            ("PLAY", vec!["tid", "mid", "date"]),
            ("GENRE", vec!["mid", "genre"]),
            ("CAST", vec!["mid", "aid", "award", "role"]),
            ("DIRECTED", vec!["mid", "did"]),
        ] {
            c.create_table(TableSchema::new(
                name,
                cols.iter().map(|n| ColumnDef::new(*n, DataType::Str)).collect(),
            ))
            .unwrap();
        }
        c.create_table(
            TableSchema::new(
                "ACTOR",
                vec![ColumnDef::new("aid", DataType::Str), ColumnDef::new("name", DataType::Str)],
            )
            .with_primary_key(&["aid"]),
        )
        .unwrap();
        c.create_table(
            TableSchema::new(
                "DIRECTOR",
                vec![ColumnDef::new("did", DataType::Str), ColumnDef::new("name", DataType::Str)],
            )
            .with_primary_key(&["did"]),
        )
        .unwrap();
        c
    }

    /// Julie's profile from Figures 2–3 of the paper.
    fn julie() -> Profile {
        let mut p = Profile::new("julie");
        p.add_join("THEATRE", "tid", "PLAY", "tid", 1.0).unwrap();
        p.add_join("PLAY", "tid", "THEATRE", "tid", 1.0).unwrap();
        p.add_join("PLAY", "mid", "MOVIE", "mid", 1.0).unwrap();
        p.add_join("MOVIE", "mid", "PLAY", "mid", 0.8).unwrap();
        p.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        p.add_join("MOVIE", "mid", "CAST", "mid", 0.8).unwrap();
        p.add_join("MOVIE", "mid", "DIRECTED", "mid", 1.0).unwrap();
        p.add_join("CAST", "aid", "ACTOR", "aid", 1.0).unwrap();
        p.add_join("DIRECTED", "did", "DIRECTOR", "did", 1.0).unwrap();
        p.add_selection("THEATRE", "region", "downtown", 0.5).unwrap();
        p.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
        p.add_selection("GENRE", "genre", "thriller", 0.7).unwrap();
        p.add_selection("GENRE", "genre", "adventure", 0.5).unwrap();
        p.add_selection("DIRECTOR", "name", "D. Lynch", 0.9).unwrap();
        p.add_selection("DIRECTOR", "name", "W. Allen", 0.7).unwrap();
        p.add_selection("ACTOR", "name", "N. Kidman", 0.9).unwrap();
        p.add_selection("ACTOR", "name", "A. Hopkins", 0.8).unwrap();
        p.add_selection("ACTOR", "name", "I. Rossellini", 0.5).unwrap();
        p
    }

    fn initial_query_graph(c: &Catalog) -> QueryGraph {
        let q = pqp_sql::parse_query(
            "select MV.title from MOVIE MV, PLAY PL \
             where MV.mid = PL.mid and PL.date = '2/7/2003'",
        )
        .unwrap();
        QueryGraph::from_select(q.as_select().unwrap(), c).unwrap()
    }

    fn rendered(p: &PreferencePath<'_>) -> String {
        p.to_string()
    }

    #[test]
    fn paper_running_example_top3() {
        // §5.2: the top-3 preferences for Julie's initial query are comedy
        // (0.81), D. Lynch (0.81... actually 0.9*1*0.9=0.81) and
        // N. Kidman (0.8*1*0.9=0.72).
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(3));
        assert_eq!(out.selected.len(), 3, "{:#?}", out.selected);
        let texts: Vec<String> = out.selected.iter().map(rendered).collect();
        assert!(
            texts[0].contains("genre='comedy'") || texts[0].contains("D. Lynch"),
            "top prefs: {texts:?}"
        );
        // Degrees: comedy = 0.9*0.9 = 0.81; Lynch = 1.0*1.0*0.9 = 0.9;
        // Kidman = 0.8*1.0*0.9 = 0.72.
        let dois: Vec<f64> = out.selected.iter().map(|p| p.doi.value()).collect();
        assert!((dois[0] - 0.9).abs() < 1e-12, "{dois:?}");
        assert!((dois[1] - 0.81).abs() < 1e-12, "{dois:?}");
        assert!((dois[2] - 0.72).abs() < 1e-12, "{dois:?}");
        assert!(texts[0].contains("D. Lynch"), "{texts:?}");
        assert!(texts[1].contains("comedy"), "{texts:?}");
        assert!(texts[2].contains("N. Kidman"), "{texts:?}");
    }

    #[test]
    fn output_is_decreasing_in_degree() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(20));
        let dois: Vec<f64> = out.selected.iter().map(|p| p.doi.value()).collect();
        for w in dois.windows(2) {
            assert!(w[0] >= w[1], "{dois:?}");
        }
    }

    #[test]
    fn min_degree_criterion_cuts_tail() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::MinDegree(0.75));
        assert!(!out.selected.is_empty());
        assert!(out.selected.iter().all(|p| p.doi.value() > 0.75));
        // And it found everything above the bar that top-K finds.
        let all = select_preferences(&qg, &g, &InterestCriterion::TopK(100));
        let expect = all.selected.iter().filter(|p| p.doi.value() > 0.75).count();
        assert_eq!(out.selected.len(), expect);
    }

    #[test]
    fn no_path_reenters_query_or_itself() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(100));
        for p in &out.selected {
            let mut visited = vec![p.start_table.to_ascii_uppercase()];
            for j in &p.joins {
                let t = j.to.table.to_ascii_uppercase();
                assert!(!visited.contains(&t), "cycle in {p}");
                assert!(!(qg.contains_table(&t)), "path re-enters query: {p}");
                visited.push(t);
            }
        }
    }

    #[test]
    fn conflicting_preference_is_not_selected() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        // Query about uptown theatres: the downtown preference conflicts.
        let q = pqp_sql::parse_query("select TH.name from THEATRE TH where TH.region = 'uptown'")
            .unwrap();
        let qg = QueryGraph::from_select(q.as_select().unwrap(), &c).unwrap();
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(50));
        assert!(
            out.selected.iter().all(|p| !rendered(p).contains("downtown")),
            "{:?}",
            out.selected.iter().map(rendered).collect::<Vec<_>>()
        );
        assert!(out.stats.pruned_conflicts >= 1);
    }

    #[test]
    fn empty_profile_selects_nothing() {
        let c = catalog();
        let g = InMemoryGraph::build(&Profile::new("empty"), &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(5));
        assert!(out.selected.is_empty());
    }

    #[test]
    fn ties_prefer_shorter_paths() {
        let c = catalog();
        let mut p = Profile::new("tie");
        // Direct selection on MOVIE.year with degree 0.5 and a transitive
        // one (MOVIE→GENRE) also landing at 0.5 = 1.0 * 0.5.
        p.add_selection("MOVIE", "year", Value::Int(1999), 0.5).unwrap();
        p.add_join("MOVIE", "mid", "GENRE", "mid", 1.0).unwrap();
        p.add_selection("GENRE", "genre", "noir", 0.5).unwrap();
        let g = InMemoryGraph::build(&p, &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(1));
        assert_eq!(out.selected.len(), 1);
        assert_eq!(out.selected[0].len(), 1, "shorter path must win the tie: {}", out.selected[0]);
    }

    #[test]
    fn stats_are_populated() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(5));
        assert!(out.stats.rounds > 0);
        assert!(out.stats.graph_accesses > 0);
    }

    #[test]
    fn governed_selection_matches_infallible_path() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let plain = select_preferences(&qg, &g, &InterestCriterion::TopK(5));
        let governed = select_preferences_ctx(
            &qg,
            &g,
            &InterestCriterion::TopK(5),
            &PaperCombinator,
            &pqp_obs::QueryCtx::unlimited(),
        )
        .unwrap();
        assert_eq!(plain.selected, governed.selected);
    }

    #[test]
    fn zero_deadline_trips_selection_with_budget_error() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let ctx = pqp_obs::QueryCtx::new(pqp_obs::Budget::unlimited().deadline_ms(0));
        match select_preferences_ctx(&qg, &g, &InterestCriterion::TopK(5), &PaperCombinator, &ctx) {
            Err(PrefError::Budget(b)) => assert_eq!(b.reason, BudgetReason::Deadline),
            other => panic!("expected PrefError::Budget, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_trips_selection() {
        let c = catalog();
        let g = InMemoryGraph::build(&julie(), &c).unwrap();
        let qg = initial_query_graph(&c);
        let ctx = pqp_obs::QueryCtx::unlimited();
        ctx.cancel();
        match select_preferences_ctx(&qg, &g, &InterestCriterion::TopK(5), &PaperCombinator, &ctx) {
            Err(PrefError::Budget(b)) => assert_eq!(b.reason, BudgetReason::Cancelled),
            other => panic!("expected PrefError::Budget, got {other:?}"),
        }
    }

    #[test]
    fn multiple_query_nodes_anchor_paths() {
        let c = catalog();
        let mut p = Profile::new("x");
        p.add_selection("MOVIE", "year", Value::Int(1999), 0.6).unwrap();
        // Note: a PLAY.date preference would conflict with the query's own
        // date selection; use the tid attribute instead.
        p.add_selection("PLAY", "tid", "t1", 0.5).unwrap();
        let g = InMemoryGraph::build(&p, &c).unwrap();
        let qg = initial_query_graph(&c);
        let out = select_preferences(&qg, &g, &InterestCriterion::TopK(10));
        let anchors: Vec<&str> = out.selected.iter().map(|p| &*p.start_var).collect();
        assert!(anchors.contains(&"MV"));
        assert!(anchors.contains(&"PL"));
    }
}
