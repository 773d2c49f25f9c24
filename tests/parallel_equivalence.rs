//! Property-style equivalence suite for intra-query parallelism: for a
//! corpus of generated movie-schema queries, parallel execution under an
//! N-thread budget must return the same rows, in the same order, as serial
//! execution.
//!
//! The determinism contract (DESIGN.md, "Parallel execution"): parallel
//! operators merge partitions in partition order, so output is row-for-row
//! identical to the serial executor for any thread budget.

use pqp::datagen::{generate, generate_queries, MovieDbConfig, QueryGenConfig};
use pqp::engine::{Database, ExecOptions};
use pqp::QueryCtx;

/// Thread budget under test.
const THREADS: usize = 4;

/// An [`ExecOptions`] with the threshold dropped so even the tiny test
/// databases actually take the parallel paths.
fn parallel_opts() -> ExecOptions {
    ExecOptions::with_threads(THREADS).min_parallel_rows(2)
}

fn assert_equivalent(db: &Database, queries: &[pqp::sql::ast::Query], what: &str) {
    let opts = parallel_opts();
    for (i, q) in queries.iter().enumerate() {
        let plan = db.plan(q).unwrap_or_else(|e| panic!("{what} query {i} failed to plan: {e}"));
        let serial = db.run_plan(&plan).unwrap();
        let parallel = db.run_plan_ctx(&plan, &opts, &QueryCtx::unlimited()).unwrap();
        assert_eq!(
            serial.rows,
            parallel.rows,
            "{what} query {i} diverged under {} threads:\n{}",
            opts.threads,
            plan.explain()
        );
        assert_eq!(serial.columns, parallel.columns);
    }
}

#[test]
fn generated_selective_queries_match_serial() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(60, &m.pools, &QueryGenConfig::default());
    assert_equivalent(&m.db, &queries, "selective");
}

#[test]
fn generated_broad_queries_match_serial() {
    // Broad (selection-free) queries produce the large intermediate results
    // where partitioned joins actually fan out.
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(40, &m.pools, &QueryGenConfig::broad());
    assert_equivalent(&m.db, &queries, "broad");
}

#[test]
fn parallel_paths_were_actually_exercised() {
    // Guard against the suite silently passing because every query fell back
    // to the serial fast path: the worker counter must move.
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(10, &m.pools, &QueryGenConfig::broad());
    let before = pqp::obs::metrics::global_snapshot().counter("exec.parallel.workers");
    assert_equivalent(&m.db, &queries, "counter-guard");
    let after = pqp::obs::metrics::global_snapshot().counter("exec.parallel.workers");
    assert!(after > before, "no parallel operator ran: exec.parallel.workers stayed at {after}");
}

#[test]
fn service_answers_are_thread_budget_agnostic() {
    use pqp::{Service, ServiceConfig};

    let serial_svc = Service::new(generate(MovieDbConfig::tiny()).db);
    let par_svc = Service::with_config(
        generate(MovieDbConfig::tiny()).db,
        ServiceConfig { exec: parallel_opts(), ..ServiceConfig::default() },
    );
    for svc in [&serial_svc, &par_svc] {
        svc.add_join("ana", "MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        svc.add_selection("ana", "GENRE", "genre", "comedy", 0.8).unwrap();
    }
    let sql = "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid";
    let a = serial_svc.session("ana").query(sql).unwrap();
    let b = par_svc.session("ana").query(sql).unwrap();
    assert_eq!(a.rows.rows, b.rows.rows, "service answers diverged across thread budgets");
}
