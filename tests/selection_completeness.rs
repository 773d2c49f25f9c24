//! Completeness of the preference-selection algorithm (paper Theorems 1–2):
//! on randomized profiles and queries, the best-first algorithm must produce
//! exactly the preferences a brute-force enumerator finds — every related,
//! non-conflicting transitive selection, in decreasing degree order, cut by
//! the interest criterion.

mod common;

use pqp_core::conflict::conflicts_with_query;
use pqp_core::doi::PaperCombinator;
use pqp_core::graph::{GraphAccess, InMemoryGraph};
use pqp_core::path::PreferencePath;
use pqp_core::{select_preferences, InterestCriterion, Profile, QueryGraph};
use pqp_datagen::{generate, generate_profile, MovieDbConfig, ProfileGenConfig};
use pqp_obs::rng::{Rng, SmallRng};

/// Enumerate ALL completed, non-conflicting preference paths by depth-first
/// search (no pruning other than the cycle rule), sorted by
/// (degree desc, length asc).
fn brute_force_paths<'g>(qg: &QueryGraph, graph: &'g InMemoryGraph) -> Vec<PreferencePath<'g>> {
    let comb = PaperCombinator;
    let mut out = Vec::new();
    fn expand<'g>(
        path: &PreferencePath<'g>,
        qg: &QueryGraph,
        graph: &'g InMemoryGraph,
        comb: &PaperCombinator,
        out: &mut Vec<PreferencePath<'g>>,
    ) {
        let end = path.end_table().to_string();
        for sel in graph.selections_of(&end) {
            let p = path.with_selection(sel, comb);
            if !conflicts_with_query(&p, qg) {
                out.push(p);
            }
        }
        for join in graph.joins_from(&end) {
            if path.visits(&join.to.table) || qg.contains_table(&join.to.table) {
                continue;
            }
            let p = path.with_join(join, comb);
            expand(&p, qg, graph, comb, out);
        }
    }
    for node in &qg.nodes {
        let anchor = PreferencePath::anchor(node.var.clone(), node.table.clone());
        expand(&anchor, qg, graph, &comb, &mut out);
    }
    out.sort_by(|a, b| b.doi.cmp(&a.doi).then(a.len().cmp(&b.len())));
    out
}

/// Apply an interest criterion greedily to a (degree desc)-ordered list.
fn greedy_cut<'g>(all: &[PreferencePath<'g>], ci: &InterestCriterion) -> Vec<PreferencePath<'g>> {
    let mut selected = Vec::new();
    let mut dois = Vec::new();
    for p in all {
        if ci.accepts(&dois, p.doi) {
            dois.push(p.doi);
            selected.push(p.clone());
        } else {
            break;
        }
    }
    selected
}

fn check_profile_query(profile: &Profile, sql: &str, catalog: &pqp_storage::Catalog) {
    let graph = InMemoryGraph::build(profile, catalog).unwrap();
    let q = pqp_sql::parse_query(sql).unwrap();
    let qg = QueryGraph::from_select(q.as_select().unwrap(), catalog).unwrap();
    let all = brute_force_paths(&qg, &graph);

    for ci in [
        InterestCriterion::TopK(1),
        InterestCriterion::TopK(3),
        InterestCriterion::TopK(10),
        InterestCriterion::TopK(1000),
        InterestCriterion::MinDegree(0.5),
        InterestCriterion::MinDegree(0.8),
        InterestCriterion::DisjunctionAbove(0.6),
    ] {
        let expected = greedy_cut(&all, &ci);
        let got = select_preferences(&qg, &graph, &ci);
        // Degrees must match exactly (the sets can differ only between
        // equal-degree, equal-length paths — compare the degree+length
        // multiset, which the ordering semantics pin down).
        let exp_sig: Vec<(String, usize)> =
            expected.iter().map(|p| (format!("{:.12}", p.doi.value()), p.len())).collect();
        let got_sig: Vec<(String, usize)> =
            got.selected.iter().map(|p| (format!("{:.12}", p.doi.value()), p.len())).collect();
        assert_eq!(
            got_sig,
            exp_sig,
            "criterion {ci} over {sql}:\nexpected {:#?}\ngot {:#?}",
            expected.iter().map(|p| p.to_string()).collect::<Vec<_>>(),
            got.selected.iter().map(|p| p.to_string()).collect::<Vec<_>>()
        );
        // Every produced path must be genuinely valid.
        for p in &got.selected {
            assert!(p.is_selection());
            assert!(!conflicts_with_query(p, &qg), "conflicting path selected: {p}");
        }
    }
}

#[test]
fn completeness_on_julie() {
    let db = common::paper_db();
    check_profile_query(
        &common::julie(),
        "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and PL.date = 'x'",
        db.catalog(),
    );
}

#[test]
fn completeness_on_random_profiles() {
    let m = generate(MovieDbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(99);
    let queries = [
        "select MV.title from MOVIE MV",
        "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and PL.date = 'd'",
        "select TH.name from THEATRE TH where TH.region = 'downtown'",
        "select GN.genre from GENRE GN, MOVIE MV where GN.mid = MV.mid",
        "select AC.name from ACTOR AC, CAST CA where AC.aid = CA.aid",
        "select D1.name from DIRECTOR D1",
    ];
    for trial in 0..12 {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig {
                selections: 5 + rng.gen_range(0..40usize),
                join_coverage: if trial % 3 == 0 { 0.6 } else { 1.0 },
                seed: rng.next_u64(),
            },
        );
        for sql in &queries {
            check_profile_query(&profile, sql, m.db.catalog());
        }
    }
}

#[test]
fn completeness_with_replicated_relation() {
    let m = generate(MovieDbConfig::tiny());
    let profile = generate_profile(
        "u",
        &m.pools,
        &ProfileGenConfig { selections: 20, seed: 4, ..Default::default() },
    );
    check_profile_query(
        &profile,
        "select G1.genre from GENRE G1, GENRE G2, MOVIE MV \
         where G1.mid = MV.mid and G2.mid = MV.mid and G1.genre = 'comedy'",
        m.db.catalog(),
    );
}
