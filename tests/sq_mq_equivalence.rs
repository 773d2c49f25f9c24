//! SQ vs MQ: the paper presents the two integration approaches as
//! equivalent. This holds unconditionally for L ≤ 1; for L ≥ 2 MQ counts
//! preferences satisfied by *any* witness per projected row while SQ demands
//! a single witness satisfying L preferences together, so SQ ⊆ MQ with
//! equality whenever the projected attributes determine the anchor tuples
//! (the situation in all of the paper's examples). These tests pin down both
//! the equality and the containment on randomized workloads.

use pqp_core::prelude::*;
use pqp_datagen::{
    generate, generate_profile, generate_profiles, generate_queries, MovieDbConfig,
    ProfileGenConfig, QueryGenConfig,
};
use std::collections::BTreeSet;

fn rows_of(db: &pqp_engine::Database, q: &pqp_sql::Query) -> BTreeSet<Vec<String>> {
    db.run_query(q)
        .unwrap_or_else(|e| panic!("query failed: {e}\n{q}"))
        .rows
        .into_iter()
        .map(|r| r.into_iter().map(|v| v.to_string()).collect())
        .collect()
}

#[test]
fn sq_equals_mq_for_l_at_most_one() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(12, &m.pools, &QueryGenConfig::default());
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 15, seed: 1000 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        for l in [0usize, 1] {
            let p = personalize(
                q,
                &graph,
                m.db.catalog(),
                PersonalizeOptions::builder().k(5).l(l).build(),
            )
            .unwrap();
            let sq = p.sq().unwrap();
            let mq = p.mq().unwrap();
            let a = rows_of(&m.db, &sq);
            let b = rows_of(&m.db, &mq);
            assert_eq!(a, b, "L={l} divergence on query {i}: {q}\nSQ: {sq}\nMQ: {mq}");
        }
    }
}

#[test]
fn sq_subset_of_mq_for_higher_l() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(12, &m.pools, &QueryGenConfig::default());
    let mut nonempty = 0;
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 20, seed: 2000 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        for l in [2usize, 3] {
            let p = personalize(
                q,
                &graph,
                m.db.catalog(),
                PersonalizeOptions::builder().k(6).l(l).build(),
            )
            .unwrap();
            let sq = p.sq().unwrap();
            let mq = p.mq().unwrap();
            let a = rows_of(&m.db, &sq);
            let b = rows_of(&m.db, &mq);
            assert!(
                a.is_subset(&b),
                "L={l}: SQ ⊄ MQ on query {i}: {q}\nSQ-only rows: {:?}",
                a.difference(&b).take(3).collect::<Vec<_>>()
            );
            nonempty += usize::from(!a.is_empty());
        }
    }
    assert!(nonempty > 0, "the workload never produced results; tests are vacuous");
}

#[test]
fn personalized_results_are_contained_in_initial_results_when_m_zero_l_positive() {
    // With L ≥ 1 every personalized row must also satisfy the initial query.
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(8, &m.pools, &QueryGenConfig::default());
    for (i, q) in queries.iter().enumerate() {
        let profile = generate_profile(
            "u",
            &m.pools,
            &ProfileGenConfig { selections: 12, seed: 3000 + i as u64, ..Default::default() },
        );
        let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
        let p =
            personalize(q, &graph, m.db.catalog(), PersonalizeOptions::builder().k(4).l(1).build())
                .unwrap();
        let initial: BTreeSet<Vec<String>> = rows_of(&m.db, q);
        let personalized = rows_of(&m.db, &p.mq().unwrap());
        assert!(personalized.is_subset(&initial), "personalized ⊄ initial on query {i}: {q}");
    }
}

#[test]
fn sq_and_mq_agree_on_result_degrees_when_ranked() {
    // For L=1 the ranked MQ interest of each row must equal the client-side
    // estimate over the preferences that row satisfies individually.
    let m = generate(MovieDbConfig::tiny());
    let q = &generate_queries(3, &m.pools, &QueryGenConfig::default())[0];
    let profile = generate_profile(
        "u",
        &m.pools,
        &ProfileGenConfig { selections: 15, seed: 77, ..Default::default() },
    );
    let graph = InMemoryGraph::build(&profile, m.db.catalog()).unwrap();
    let p = personalize(
        q,
        &graph,
        m.db.catalog(),
        PersonalizeOptions::builder().k(5).l(1).build().ranked(),
    )
    .unwrap();
    let rs = m.db.run_query(&p.mq().unwrap()).unwrap();
    let Some(interest) = rs.column("interest") else {
        return; // no preferences selected for this pairing
    };
    // Recompute each row's interest by running every single-preference
    // partial separately.
    for (row, got) in rs.rows.iter().zip(interest.iter()) {
        let key: Vec<String> = row[..row.len() - 1].iter().map(|v| v.to_string()).collect();
        let mut satisfied = Vec::new();
        for path in &p.paths {
            let single = pqp_core::integrate_mq(
                q.as_select().unwrap(),
                std::slice::from_ref(path),
                0,
                MatchSpec::AtLeast(1),
                false,
            )
            .unwrap();
            let rows = rows_of(&m.db, &single);
            if rows.contains(&key) {
                satisfied.push(path.doi);
            }
        }
        let expect = pqp_core::doi::conjunction_degree(&satisfied).value();
        let got = got.as_f64().unwrap();
        assert!(
            (expect - got).abs() < 1e-9,
            "row {key:?}: engine says {got}, client-side estimate {expect}"
        );
    }
}

#[test]
fn auto_answers_what_mq_answers_whatever_it_picks() {
    // `Rewrite::Auto` picks SQ, MQ or native rank by price; the answer must
    // not depend on the pick. SQ ⊆ MQ with equality only at L ≤ 1, so SQ may
    // compete there and nowhere else.
    let mut m = generate(MovieDbConfig {
        movies: 400,
        theatres: 10,
        days: 6,
        plays_per_day: 4,
        ..MovieDbConfig::default()
    });
    m.db.execute("ANALYZE").unwrap();
    let queries = generate_queries(16, &m.pools, &QueryGenConfig::default());
    let profiles = generate_profiles(
        "u",
        6,
        &m.pools,
        &ProfileGenConfig { selections: 40, join_coverage: 1.0, seed: 11 },
    );
    let (mut cases, mut sq_narrower) = (0, 0);
    for profile in &profiles {
        let graph = InMemoryGraph::build(profile, m.db.catalog()).unwrap();
        for (i, q) in queries.iter().enumerate() {
            for (k, l) in [(6, 1), (6, 2), (10, 2), (10, 3)] {
                let opts = PersonalizeOptions::builder().k(k).l(l).build();
                let p = personalize(q, &graph, m.db.catalog(), opts).unwrap();
                let mq = rows_of(&m.db, &p.mq().unwrap());
                let auto = build_execution(&m.db, &p, Rewrite::Auto, None).unwrap();
                let got: BTreeSet<Vec<String>> = (m.db.run_plan(&auto.plan).unwrap().rows)
                    .into_iter()
                    .map(|r| r.into_iter().map(|v| v.to_string()).collect())
                    .collect();
                assert_eq!(
                    got,
                    mq,
                    "{}/q{i} K={k} L={l}: Auto ran {} and its answer is not MQ's\n{}",
                    profile.user,
                    auto.rewrite,
                    auto.summary()
                );
                cases += 1;
                sq_narrower += usize::from(l >= 2 && rows_of(&m.db, &p.sq().unwrap()) != mq);
            }
        }
    }
    // The corpus must hold cases where picking SQ would have changed the
    // answer, or the check above is vacuous.
    assert!(sq_narrower > 0, "no case of {cases} has SQ ⊊ MQ");
}
