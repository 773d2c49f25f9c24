//! Regression tests for the serial fast path: a `threads <= 1` budget (the
//! default) and small-input runs must never spawn parallel workers.
//!
//! Every parallel operator bumps the process-global
//! `exec.parallel.workers` counter once per worker it spawns, and nothing
//! else touches that counter — so a zero delta across a run proves no
//! worker thread was created. This file is its own integration-test binary
//! (own process) so counters from other suites cannot perturb the deltas.

use pqp::datagen::{generate, generate_queries, MovieDbConfig, QueryGenConfig};
use pqp::engine::ExecOptions;
use pqp::QueryCtx;

fn workers_spawned() -> i64 {
    pqp::obs::metrics::global_snapshot().counter("exec.parallel.workers")
}

#[test]
fn default_and_threads_1_budgets_never_spawn() {
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(25, &m.pools, &QueryGenConfig::broad());
    let before = workers_spawned();
    for q in &queries {
        let plan = m.db.plan(q).unwrap();
        m.db.run_plan(&plan).unwrap();
        m.db.run_plan_ctx(&plan, &ExecOptions::default(), &QueryCtx::unlimited()).unwrap();
        m.db.run_plan_ctx(&plan, &ExecOptions::with_threads(1), &QueryCtx::unlimited()).unwrap();
        // A low threshold changes nothing when the budget itself is serial.
        m.db.run_plan_ctx(
            &plan,
            &ExecOptions::with_threads(1).min_parallel_rows(1),
            &QueryCtx::unlimited(),
        )
        .unwrap();
    }
    assert_eq!(workers_spawned(), before, "serial budgets spawned parallel workers");
}

#[test]
fn below_threshold_inputs_stay_serial() {
    // threads=8 but the tiny database sits far below the default
    // min_parallel_rows threshold, so every operator takes the serial path.
    let m = generate(MovieDbConfig::tiny());
    let queries = generate_queries(25, &m.pools, &QueryGenConfig::default());
    let opts = ExecOptions::with_threads(8);
    let before = workers_spawned();
    for q in &queries {
        let plan = m.db.plan(q).unwrap();
        m.db.run_plan_ctx(&plan, &opts, &QueryCtx::unlimited()).unwrap();
    }
    assert_eq!(
        workers_spawned(),
        before,
        "inputs below min_parallel_rows ({}) should not fan out",
        pqp::engine::DEFAULT_MIN_PARALLEL_ROWS
    );
}
