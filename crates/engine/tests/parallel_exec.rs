//! Engine-level parallel execution tests: partitioned scans, filters,
//! projections and the partitioned hash join must return exactly the rows
//! the serial executor returns, in the same order, for every thread budget.

use pqp_engine::{Database, ExecOptions};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::QueryCtx;
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

/// A two-table database big enough to span many heap pages.
fn fixture(rows: usize) -> Database {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "A",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("x", DataType::Int),
                ColumnDef::nullable("tag", DataType::Str),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    c.create_table(TableSchema::new(
        "B",
        vec![ColumnDef::nullable("a_id", DataType::Int), ColumnDef::new("y", DataType::Int)],
    ))
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(0x9E1F);
    {
        let a = c.table("A").unwrap();
        let mut a = a.write();
        for i in 0..rows {
            let tag = if i % 7 == 0 { Value::Null } else { Value::str(format!("t{}", i % 5)) };
            a.insert(vec![Value::Int(i as i64), Value::Int((rng.next_u32() % 100) as i64), tag])
                .unwrap();
        }
    }
    {
        let b = c.table("B").unwrap();
        let mut b = b.write();
        for i in 0..rows * 2 {
            let a_id = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int((rng.next_u32() as usize % rows) as i64)
            };
            b.insert(vec![a_id, Value::Int(i as i64)]).unwrap();
        }
    }
    Database::new(c)
}

const QUERIES: &[&str] = &[
    "select A.id, A.x from A where A.x < 50",
    "select A.tag from A where A.x < 80 and A.id > 10",
    "select A.id, B.y from A, B where A.id = B.a_id",
    "select A.id, B.y from A, B where A.id = B.a_id and A.x < 30",
    "select distinct A.tag from A, B where A.id = B.a_id",
];

#[test]
fn every_thread_budget_matches_serial() {
    let db = fixture(600);
    for sql in QUERIES {
        let q = parse_query(sql).unwrap();
        let plan = db.plan(&q).unwrap();
        let serial = db.run_plan(&plan).unwrap();
        for threads in [2, 3, 4, 8] {
            let opts = ExecOptions::with_threads(threads).min_parallel_rows(2);
            let parallel = db.run_plan_ctx(&plan, &opts, &QueryCtx::unlimited()).unwrap();
            assert_eq!(
                serial.rows,
                parallel.rows,
                "`{sql}` diverged at {threads} threads:\n{}",
                plan.explain()
            );
        }
    }
}

#[test]
fn more_partitions_than_pages_is_fine() {
    // 40 rows fit in very few pages; a 16-thread budget must clamp its scan
    // fan-out to the page count and still answer correctly.
    let db = fixture(40);
    let opts = ExecOptions::with_threads(16).min_parallel_rows(1);
    for sql in QUERIES {
        let q = parse_query(sql).unwrap();
        let plan = db.plan(&q).unwrap();
        let serial = db.run_plan(&plan).unwrap();
        let parallel = db.run_plan_ctx(&plan, &opts, &QueryCtx::unlimited()).unwrap();
        assert_eq!(serial.rows, parallel.rows, "`{sql}` diverged with excess partitions");
    }
}

#[test]
fn parallel_run_records_its_shape_in_the_trace() {
    let db = fixture(600);
    // Neither join column is indexed, so the planner picks a hash join
    // (`A.id = B.a_id` would plan as an index join into A's primary key).
    let q = parse_query("select A.id, B.y from A, B where A.x = B.y").unwrap();
    let plan = db.plan(&q).unwrap();
    let opts = ExecOptions::with_threads(4).min_parallel_rows(2);

    pqp_obs::trace_begin("test");
    db.run_plan_ctx(&plan, &opts, &QueryCtx::unlimited()).unwrap();
    let trace = pqp_obs::trace_end().unwrap();

    let join = trace
        .root
        .find("exec.hash_join")
        .unwrap_or_else(|| panic!("no hash join span:\n{}", trace.render()));
    assert_eq!(
        join.field("strategy"),
        Some(&pqp_obs::Field::Str("parallel_hash_join".into())),
        "join did not take the parallel path:\n{}",
        trace.render()
    );
    assert!(join.field("partitions").is_some(), "join span missing partition fan-out");
    let scan =
        trace.root.find("exec.scan").unwrap_or_else(|| panic!("no scan span:\n{}", trace.render()));
    assert!(scan.field("partitions").is_some(), "scan span missing partition fan-out");
    assert!(trace.metrics.counter("exec.scan.partitions") > 0);
    assert!(trace.metrics.counter("exec.parallel.workers") > 0);
}

#[test]
fn exec_options_builder_clamps() {
    assert_eq!(ExecOptions::default().threads, 1);
    assert!(!ExecOptions::default().is_parallel());
    assert_eq!(ExecOptions::with_threads(0).threads, 1, "zero clamps to serial");
    assert!(ExecOptions::with_threads(2).is_parallel());
    assert_eq!(ExecOptions::serial(), ExecOptions::default());
}
