//! Differential testing for statistics-driven planning: over a corpus of
//! generated movie-schema queries, the planned pipeline must return the
//! same multiset of rows as the naive AST interpreter **both** before and
//! after `ANALYZE` — statistics may change join orders and access paths
//! (index scans, index joins), never answers.

use pqp::datagen::{generate, generate_queries, MovieDbConfig, QueryGenConfig};
use pqp::engine::naive::naive_execute;
use pqp::engine::Database;
use pqp::sql::ast::Query;
use pqp::storage::Value;

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

fn corpus() -> (pqp::datagen::MovieDb, Vec<Query>) {
    let m = generate(MovieDbConfig::tiny());
    let mut queries = generate_queries(50, &m.pools, &QueryGenConfig::default());
    queries.extend(generate_queries(25, &m.pools, &QueryGenConfig::broad()));
    (m, queries)
}

#[test]
fn planned_results_match_naive_with_and_without_stats() {
    let (m, queries) = corpus();
    let db: &Database = &m.db;

    // Pass 1: no statistics — plans use the fallback heuristics.
    let blind: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let naive =
                naive_execute(q, db.catalog()).unwrap_or_else(|e| panic!("query {i} naive: {e}"));
            let plan = db.plan(q).unwrap_or_else(|e| panic!("query {i} plan: {e}"));
            let planned = db.run_plan(&plan).unwrap();
            assert_eq!(
                sorted(naive.rows.clone()),
                sorted(planned.rows),
                "query {i} diverged without stats:\n{}",
                plan.explain()
            );
            naive
        })
        .collect();

    // Pass 2: ANALYZE everything and re-plan — the stats-informed plans
    // (possibly different join orders, IndexScan/IndexJoin access paths)
    // must produce the same multisets.
    db.catalog().analyze_all().unwrap();
    for (i, q) in queries.iter().enumerate() {
        let plan = db.plan(q).unwrap_or_else(|e| panic!("query {i} re-plan: {e}"));
        let informed = db.run_plan(&plan).unwrap();
        assert_eq!(
            sorted(blind[i].rows.clone()),
            sorted(informed.rows),
            "query {i} diverged with stats:\n{}",
            plan.explain()
        );
    }
}

#[test]
fn stale_stats_never_change_answers() {
    // ANALYZE, then mutate the data so the statistics are stale: planning
    // may be misinformed, answers must not be.
    let m = generate(MovieDbConfig::tiny());
    let db: &Database = &m.db;
    db.catalog().analyze_all().unwrap();
    {
        let genre = db.catalog().table("GENRE").unwrap();
        let mut genre = genre.write();
        for mid in 0..50i64 {
            genre.insert(vec![Value::Int(mid), Value::str("noir")]).unwrap();
        }
    }
    let queries = generate_queries(30, &m.pools, &QueryGenConfig::default());
    for (i, q) in queries.iter().enumerate() {
        let naive = naive_execute(q, db.catalog()).unwrap();
        let plan = db.plan(q).unwrap();
        let planned = db.run_plan(&plan).unwrap();
        assert_eq!(
            sorted(naive.rows),
            sorted(planned.rows),
            "query {i} diverged under stale stats:\n{}",
            plan.explain()
        );
    }
}
