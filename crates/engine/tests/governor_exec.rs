//! Engine-level query-governor tests: budgets trip cooperatively at
//! operator loop boundaries with typed errors and partial-progress
//! counters, and the engine failpoint sites — armed on the database's own
//! catalog registry — inject cleanly.

use pqp_engine::naive::naive_execute_ctx;
use pqp_engine::{Database, EngineError, ExecOptions};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::{Budget, BudgetReason, QueryCtx};
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

/// A two-table database big enough for multi-page heaps and real joins.
fn fixture(rows: usize) -> Database {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "A",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("x", DataType::Int),
                ColumnDef::new("pad", DataType::Str),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    c.create_table(TableSchema::new(
        "B",
        vec![ColumnDef::new("a_id", DataType::Int), ColumnDef::new("y", DataType::Int)],
    ))
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(0xB1D9);
    {
        let a = c.table("A").unwrap();
        let mut a = a.write();
        for i in 0..rows {
            a.insert(vec![
                Value::Int(i as i64),
                Value::Int((rng.next_u32() % 100) as i64),
                Value::str("p".repeat(40)),
            ])
            .unwrap();
        }
    }
    {
        let b = c.table("B").unwrap();
        let mut b = b.write();
        for i in 0..rows * 2 {
            b.insert(vec![
                Value::Int((rng.next_u32() as usize % rows) as i64),
                Value::Int(i as i64),
            ])
            .unwrap();
        }
    }
    Database::new(c)
}

const JOIN_SQL: &str = "select A.id, B.y from A, B where A.id = B.a_id";

fn budget_err(r: Result<pqp_engine::ResultSet, EngineError>) -> pqp_obs::BudgetExceeded {
    match r {
        Err(EngineError::Budget(b)) => b,
        other => panic!("expected EngineError::Budget, got {other:?}"),
    }
}

#[test]
fn zero_deadline_trips_with_typed_error() {
    let db = fixture(500);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().deadline_ms(0));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Deadline);
}

#[test]
fn row_cap_trips_mid_scan_with_partial_progress() {
    let db = fixture(2000);
    let plan = db.plan(&parse_query("select A.id from A").unwrap()).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().max_rows(700));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::RowsScanned);
    assert!(err.rows_scanned > 700, "counter shows partial progress: {err:?}");
    assert!(err.rows_scanned < 2000, "must trip before the full scan: {err:?}");
}

#[test]
fn memory_cap_trips_join_materialization() {
    let db = fixture(800);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().max_memory_bytes(4 * 1024));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Memory);
    assert!(err.mem_bytes > 4 * 1024);
}

#[test]
fn row_cap_trips_inside_planner_chosen_index_join() {
    let db = fixture(2000);
    // Statistics let the planner promote the A side (pk index on id) to a
    // Plan::IndexJoin probed by the small filtered B side.
    db.catalog().analyze_all().unwrap();
    let q = parse_query("select A.id, B.y from A, B where A.id = B.a_id and B.y < 10").unwrap();
    let plan = db.plan(&q).unwrap();
    assert!(
        format!("{plan:?}").contains("IndexJoin"),
        "fixture must exercise the index-join path: {plan:?}"
    );
    // B's scan charges 4000 rows; the cap admits the scan and trips on the
    // index probes that follow — inside the IndexJoin operator.
    let ctx = QueryCtx::new(Budget::unlimited().max_rows(4005));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::RowsScanned);
    assert!(err.rows_scanned > 4005, "probe-side charges reported: {err:?}");
    // The same plan under an unlimited context returns the full answer.
    let ok = db.run_plan_ctx(&plan, &ExecOptions::default(), &QueryCtx::unlimited()).unwrap();
    assert_eq!(ok.rows.len(), 10);
}

/// `DISTINCT` over computed columns of `JOIN_SQL`'s join: the join's probe
/// loop pushes each row through the projection and the duplicate
/// elimination without materializing it.
const DISTINCT_JOIN_SQL: &str = "select distinct A.x + 1, B.y from A, B where A.id = B.a_id";

/// Whether `plan` runs `Distinct` over a computed `Project` over `join`.
fn streams_distinct_project_over(plan: &pqp_engine::plan::Plan, join: &str) -> bool {
    let text = format!("{plan:?}");
    text.starts_with("Distinct { input: Project {") && text.contains(join)
}

#[test]
fn memory_cap_trips_inside_a_streamed_distinct_project() {
    let db = fixture(800);
    let plan = db.plan(&parse_query(DISTINCT_JOIN_SQL).unwrap()).unwrap();
    assert!(streams_distinct_project_over(&plan, "Join"), "{plan:?}");
    let ctx = QueryCtx::new(Budget::unlimited().max_memory_bytes(4 * 1024));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Memory);
    assert!(err.mem_bytes > 4 * 1024, "{err:?}");
    // Both sides were read before the probe loop tripped.
    assert_eq!(err.rows_scanned, 800 + 1600, "{err:?}");
    let ok = db.run_plan(&plan).unwrap();
    assert!(!ok.rows.is_empty() && ok.rows.len() <= 1600);
}

#[test]
fn row_cap_trips_inside_a_streamed_distinct_project() {
    let db = fixture(2000);
    db.catalog().analyze_all().unwrap();
    let sql = "select distinct A.x * 2, B.y from A, B where A.id = B.a_id and B.y < 10";
    let plan = db.plan(&parse_query(sql).unwrap()).unwrap();
    assert!(streams_distinct_project_over(&plan, "IndexJoin"), "{plan:?}");
    // B's scan charges 4000 rows; the index probes under the projection
    // and the duplicate elimination trip the cap.
    let ctx = QueryCtx::new(Budget::unlimited().max_rows(4005));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::RowsScanned);
    assert!(err.rows_scanned > 4005, "probe-side charges reported: {err:?}");
    let ok = db.run_plan_ctx(&plan, &ExecOptions::default(), &QueryCtx::unlimited()).unwrap();
    assert_eq!(ok.rows.len(), 10);
}

#[test]
fn cancellation_stops_execution() {
    let db = fixture(300);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    let ctx = QueryCtx::unlimited();
    ctx.cancel();
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Cancelled);
}

#[test]
fn unlimited_ctx_answers_match_plain_execution() {
    let db = fixture(600);
    for sql in [JOIN_SQL, "select A.id from A where A.x < 30", "select distinct B.y from B"] {
        let plan = db.plan(&parse_query(sql).unwrap()).unwrap();
        let plain = db.run_plan(&plan).unwrap();
        let governed = db
            .run_plan_ctx(
                &plan,
                &ExecOptions::default(),
                &QueryCtx::new(Budget::unlimited().deadline_ms(60_000).max_rows(10_000_000)),
            )
            .unwrap();
        assert_eq!(plain.rows, governed.rows, "budgeted run diverged for `{sql}`");
    }
}

#[test]
fn deadline_trips_inside_join() {
    let db = fixture(900);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    // Stall the join past a deadline the two scans before it meet with
    // room to spare: the trip happens *inside* the operator, at the
    // build loop's first checkpoint, not at its entry checkpoint. (An
    // un-stalled run would answer in time and fail `budget_err`, so the
    // plan is shown to reach `join.build`.)
    db.catalog().failpoints().configure("join.build", "delay(300)").unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().deadline_ms(200));
    let err = budget_err(db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx));
    assert_eq!(err.reason, BudgetReason::Deadline);
    assert_eq!(err.rows_scanned, 900 + 1800, "both scans finished before the trip: {err:?}");
    db.catalog().failpoints().clear();
    // The same database serves the next query normally: every B row
    // joins its one A row.
    assert_eq!(db.run_plan(&plan).unwrap().rows.len(), 1800);
}

#[test]
fn storage_scan_failpoint_surfaces_as_storage_error() {
    let db = fixture(200);
    let plan = db.plan(&parse_query("select A.id from A").unwrap()).unwrap();
    db.catalog().failpoints().configure("storage.scan", "1*error(disk gremlin)").unwrap();
    let err = db.run_plan(&plan).unwrap_err();
    match err {
        EngineError::Storage(s) => assert!(s.to_string().contains("disk gremlin"), "{s}"),
        other => panic!("expected Storage, got {other:?}"),
    }
    // Self-healing: the count-limited failpoint is spent.
    assert!(db.run_plan(&plan).is_ok());
}

#[test]
fn join_build_failpoint_fails_the_join() {
    let db = fixture(300);
    let plan = db.plan(&parse_query(JOIN_SQL).unwrap()).unwrap();
    db.catalog().failpoints().configure("join.build", "1*error(no memory for build)").unwrap();
    let err = db.run_plan(&plan).unwrap_err();
    match err {
        EngineError::Internal(msg) => assert!(msg.contains("join.build"), "{msg}"),
        other => panic!("expected Internal, got {other:?}"),
    }
    assert!(db.run_plan(&plan).is_ok());
}

#[test]
fn naive_executor_respects_deadline() {
    let db = fixture(400);
    // The naive cross product of A x B is 400 * 800 rows — plenty of loop
    // iterations for the cooperative checks.
    let q = parse_query(JOIN_SQL).unwrap();
    let ctx = QueryCtx::new(Budget::unlimited().deadline_ms(0));
    match naive_execute_ctx(&q, db.catalog(), &ctx) {
        Err(EngineError::Budget(b)) => assert_eq!(b.reason, BudgetReason::Deadline),
        other => panic!("expected Budget, got {other:?}"),
    }
    // And the memory budget bounds the cross product itself.
    let ctx = QueryCtx::new(Budget::unlimited().max_memory_bytes(64 * 1024));
    match naive_execute_ctx(&q, db.catalog(), &ctx) {
        Err(EngineError::Budget(b)) => assert_eq!(b.reason, BudgetReason::Memory),
        other => panic!("expected Budget, got {other:?}"),
    }
}
