//! End-to-end reproduction of the paper's running example: Julie and Rob ask
//! "what is shown tonight" and receive different, ranked answers.

mod common;

use common::*;
use pqp_core::prelude::*;
use pqp_core::{InterestCriterion, MatchSpec};
use pqp_storage::Value;

#[test]
fn initial_query_is_impersonal() {
    let db = paper_db();
    let rs = db.run_query(&tonight_query()).unwrap();
    assert_eq!(titles_sorted(&rs), vec!["Alpha", "Beta", "Delta", "Gamma"]);
}

#[test]
fn julie_top3_preferences_match_the_paper() {
    let db = paper_db();
    let graph = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let p = personalize(
        &tonight_query(),
        &graph,
        db.catalog(),
        PersonalizeOptions::builder().k(3).l(1).build(),
    )
    .unwrap();
    assert_eq!(p.k(), 3);
    let rendered: Vec<String> = p.paths.iter().map(|x| x.to_string()).collect();
    assert!(rendered[0].contains("D. Lynch"), "{rendered:?}");
    assert!(rendered[1].contains("comedy"), "{rendered:?}");
    assert!(rendered[2].contains("N. Kidman"), "{rendered:?}");
    let degrees: Vec<f64> = p.degrees().iter().map(|d| d.value()).collect();
    assert!((degrees[0] - 0.9).abs() < 1e-12);
    assert!((degrees[1] - 0.81).abs() < 1e-12);
    assert!((degrees[2] - 0.72).abs() < 1e-12);
}

#[test]
fn julie_personalized_results_l1() {
    // K=3, L=1: movies matching Lynch, comedy or Kidman.
    let db = paper_db();
    let graph = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let p = personalize(
        &tonight_query(),
        &graph,
        db.catalog(),
        PersonalizeOptions::builder().k(3).l(1).build(),
    )
    .unwrap();
    let sq = db.run_query(&p.sq().unwrap()).unwrap();
    let mq = db.run_query(&p.mq().unwrap()).unwrap();
    // Alpha (Lynch+comedy+Kidman), Beta (comedy), Gamma (Kidman),
    // Delta (Lynch). Omega plays tomorrow.
    let expect = vec!["Alpha", "Beta", "Delta", "Gamma"];
    assert_eq!(titles_sorted(&sq), expect);
    assert_eq!(titles_sorted(&mq), expect);
}

#[test]
fn julie_personalized_results_l2_narrow_further() {
    // The paper's example setting: L = 2 of the top K = 3.
    let db = paper_db();
    let graph = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let p = personalize(
        &tonight_query(),
        &graph,
        db.catalog(),
        PersonalizeOptions::builder().k(3).l(2).build(),
    )
    .unwrap();
    let sq = db.run_query(&p.sq().unwrap()).unwrap();
    let mq = db.run_query(&p.mq().unwrap()).unwrap();
    // Only Alpha satisfies two of {Lynch, comedy, Kidman} together.
    assert_eq!(titles_sorted(&sq), vec!["Alpha"]);
    assert_eq!(titles_sorted(&mq), vec!["Alpha"]);
}

#[test]
fn julie_ranked_output_orders_by_interest() {
    let db = paper_db();
    let graph = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let p = personalize(
        &tonight_query(),
        &graph,
        db.catalog(),
        PersonalizeOptions::builder().k(3).l(1).build().ranked(),
    )
    .unwrap();
    let rs = db.run_query(&p.mq().unwrap()).unwrap();
    // Interest: Alpha = 1-(1-.9)(1-.81)(1-.72) = 0.99468 > Delta (Lynch 0.9)
    // > Beta (comedy 0.81) > Gamma (Kidman 0.72).
    assert_eq!(titles(&rs), vec!["Alpha", "Delta", "Beta", "Gamma"]);
    let interest = rs.column("interest").unwrap();
    let Value::Float(top) = interest[0] else { panic!() };
    assert!((top - 0.99468).abs() < 1e-9, "{top}");
    // Monotone non-increasing.
    let vals: Vec<f64> = interest.iter().map(|v| v.as_f64().unwrap()).collect();
    for w in vals.windows(2) {
        assert!(w[0] >= w[1], "{vals:?}");
    }
}

#[test]
fn rob_gets_different_answers_than_julie() {
    let db = paper_db();
    let graph = InMemoryGraph::build(&rob(), db.catalog()).unwrap();
    let p = personalize(
        &tonight_query(),
        &graph,
        db.catalog(),
        PersonalizeOptions::builder().k(2).l(1).build().ranked(),
    )
    .unwrap();
    assert_eq!(p.k(), 2);
    let rs = db.run_query(&p.mq().unwrap()).unwrap();
    // Gamma is sci-fi *and* stars J. Roberts; nothing else matches.
    assert_eq!(titles(&rs), vec!["Gamma"]);
}

#[test]
fn top_n_limits_ranked_output() {
    let db = paper_db();
    let graph = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let p = personalize(
        &tonight_query(),
        &graph,
        db.catalog(),
        PersonalizeOptions::builder().k(3).l(1).build().ranked(),
    )
    .unwrap();
    let mut q = p.mq().unwrap();
    q.limit = Some(2);
    let rs = db.run_query(&q).unwrap();
    assert_eq!(titles(&rs), vec!["Alpha", "Delta"]);
}

#[test]
fn mandatory_preferences_filter_hard() {
    // Make the top preference (Lynch, 0.9) mandatory: only Lynch movies
    // survive, still requiring one of the others.
    let db = paper_db();
    let graph = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let opts = PersonalizeOptions {
        criterion: InterestCriterion::TopK(3),
        mandatory: MandatorySpec::Count(1),
        matching: MatchSpec::AtLeast(1),
        rank: false,
    };
    let p = personalize(&tonight_query(), &graph, db.catalog(), opts).unwrap();
    assert_eq!(p.m, 1);
    let sq = db.run_query(&p.sq().unwrap()).unwrap();
    // Lynch movies tonight: Alpha, Delta. Of those, satisfying one of
    // {comedy, Kidman}: Alpha only.
    assert_eq!(titles_sorted(&sq), vec!["Alpha"]);
    let mq = db.run_query(&p.mq().unwrap()).unwrap();
    assert_eq!(titles_sorted(&mq), vec!["Alpha"]);
}

#[test]
fn min_degree_threshold_via_mq() {
    let db = paper_db();
    let graph = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let opts = PersonalizeOptions {
        criterion: InterestCriterion::TopK(3),
        mandatory: MandatorySpec::None,
        matching: MatchSpec::MinDegree(0.85),
        rank: true,
    };
    let p = personalize(&tonight_query(), &graph, db.catalog(), opts).unwrap();
    let rs = db.run_query(&p.mq().unwrap()).unwrap();
    // Degree > 0.85: Alpha (0.99468) and Delta (0.9). Beta (0.81) and
    // Gamma (0.72) fall below.
    assert_eq!(titles(&rs), vec!["Alpha", "Delta"]);
}

#[test]
fn personalization_degrades_gracefully_without_preferences() {
    let db = paper_db();
    let graph = InMemoryGraph::build(&Profile::new("stranger"), db.catalog()).unwrap();
    let p = personalize(
        &tonight_query(),
        &graph,
        db.catalog(),
        PersonalizeOptions::builder().k(5).l(2).build(),
    )
    .unwrap();
    assert_eq!(p.k(), 0);
    let sq = db.run_query(&p.sq().unwrap()).unwrap();
    assert_eq!(titles_sorted(&sq), vec!["Alpha", "Beta", "Delta", "Gamma"]);
}

#[test]
fn stored_profile_backend_agrees_with_in_memory() {
    let mut db = paper_db();
    StoredProfileGraph::store(&mut db, &julie()).unwrap();
    let stored = StoredProfileGraph::open(&db, "julie");
    let memory = InMemoryGraph::build(&julie(), db.catalog()).unwrap();
    let ps = personalize(
        &tonight_query(),
        &stored,
        db.catalog(),
        PersonalizeOptions::builder().k(5).l(1).build(),
    )
    .unwrap();
    let pm = personalize(
        &tonight_query(),
        &memory,
        db.catalog(),
        PersonalizeOptions::builder().k(5).l(1).build(),
    )
    .unwrap();
    assert_eq!(ps.k(), pm.k());
    let ds: Vec<f64> = ps.degrees().iter().map(|d| d.value()).collect();
    let dm: Vec<f64> = pm.degrees().iter().map(|d| d.value()).collect();
    assert_eq!(ds, dm);
    // The stored backend pays per-adjacency SQL queries.
    assert!(ps.stats.graph_accesses > 0);
}
