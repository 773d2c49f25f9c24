//! Shared subtrees (`Plan::Shared`): a `UNION ALL` whose branches repeat a
//! scan or a join runs that subtree once per execution. Each case must
//! answer what the naive interpreter answers, and what the same plan
//! without sharing answers row for row, in the same order, while scanning
//! the shared rows once. Budgets and failpoints that fire inside a shared
//! subtree fail the query with a typed error and leave nothing behind: the
//! same plan answers correctly on its next run.

use pqp_engine::naive::naive_execute;
use pqp_engine::plan::Plan;
use pqp_engine::{Database, EngineError, ExecOptions};
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::{Budget, BudgetReason, Field, QueryCtx, SpanNode};
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, Row, TableSchema, Value};

/// `A` (primary key `id`), `B` (hash index on `a_id`) and `C` (no index),
/// small enough for the naive interpreter's cross products.
fn fixture() -> Database {
    let mut c = Catalog::new();
    let table = |name: &str, columns: &[(&str, DataType)]| {
        let columns = columns.iter().map(|(n, ty)| ColumnDef::new(*n, *ty)).collect();
        TableSchema::new(name, columns)
    };
    c.create_table(
        table("A", &[("id", DataType::Int), ("x", DataType::Int), ("tag", DataType::Str)])
            .with_primary_key(&["id"]),
    )
    .unwrap();
    c.create_table(table("B", &[("a_id", DataType::Int), ("y", DataType::Int)])).unwrap();
    c.create_table(table("C", &[("id", DataType::Int), ("z", DataType::Int)])).unwrap();
    let mut rng = SmallRng::seed_from_u64(35);
    let mut fill = |name: &str, n: usize, row: &mut dyn FnMut(&mut SmallRng, i64) -> Row| {
        let t = c.table(name).unwrap();
        let mut t = t.write();
        for i in 0..n as i64 {
            t.insert(row(&mut rng, i)).unwrap();
        }
    };
    fill("A", 30, &mut |rng, id| {
        let tag = ["red", "green", "blue"][rng.gen_range(0..3usize)];
        vec![Value::Int(id), Value::Int(rng.gen_range(0..5i64)), Value::str(tag)]
    });
    // A few `a_id`s match no `A` row.
    fill("B", 90, &mut |rng, _| {
        vec![Value::Int(rng.gen_range(0..33i64)), Value::Int(rng.gen_range(0..20i64))]
    });
    fill("C", 20, &mut |rng, id| vec![Value::Int(id), Value::Int(rng.gen_range(0..6i64))]);
    c.table("B").unwrap().write().create_index("a_id").unwrap();
    Database::new(c)
}

/// The join both branches of [`JOIN_UNION`] repeat,
/// `HashJoin(IndexJoin(Scan A, B), Scan C)`; each filters it its own way.
const JOIN: &str = "select A.id, C.z from A, B, C where A.id = B.a_id and B.y = C.id \
                    and A.tag = 'red'";
const JOIN_UNION: &str = "select A.id, C.z from A, B, C where A.id = B.a_id and B.y = C.id \
                          and A.tag = 'red' and A.x < C.z \
                          union all select A.id, C.z from A, B, C where A.id = B.a_id \
                          and B.y = C.id and A.tag = 'red' and A.x >= C.z";

/// Plan `sql` with and without sharing, check the shared plan's EXPLAIN
/// holds `shape`, and check both answer alike, row for row, and what the
/// naive interpreter answers, as a multiset. Returns the shared plan and
/// the rows each plan scanned.
fn check(db: &Database, sql: &str, shape: &[&str]) -> (Plan, u64, u64) {
    let q = parse_query(sql).unwrap();
    let shared = db.plan(&q).unwrap();
    // No OR to expand: planning without the rewrite is planning without the
    // pass.
    let unshared = db.plan_unexpanded(&q).unwrap();
    let explain = db.explain(sql).unwrap();
    for line in shape {
        assert!(explain.contains(line), "`{sql}`: no `{line}` in\n{explain}");
    }
    assert!(!unshared.explain().contains("Shared"), "{}", unshared.explain());

    let run = |plan: &Plan| {
        let ctx = QueryCtx::unlimited();
        let rows = db.run_plan_ctx(plan, &ExecOptions::default(), &ctx).unwrap().rows;
        (rows, ctx.progress().rows_scanned)
    };
    let (rows, scanned) = run(&shared);
    let (unshared_rows, unshared_scanned) = run(&unshared);
    assert_eq!(rows, unshared_rows, "`{sql}`: sharing changed the answer or its order");
    let mut naive = naive_execute(&q, db.catalog()).unwrap().rows;
    let mut sorted = rows.clone();
    naive.sort();
    sorted.sort();
    assert_eq!(sorted, naive, "`{sql}`: the engine disagrees with the naive interpreter");
    assert!(!rows.is_empty(), "`{sql}`: the case answers nothing");
    (shared, scanned, unshared_scanned)
}

#[test]
fn a_repeated_scan_is_read_once() {
    let db = fixture();
    let sql = "select A.id, A.x from A where A.x < 3 \
               union all select A.x, A.id from A where A.x < 3";
    let shape = ["Shared #0 (est_rows=15)\n      Scan A [id, x] [filtered]", "Shared #0 (reused)"];
    let (_, scanned, unshared) = check(&db, sql, &shape);
    assert_eq!((scanned, unshared), (30, 60));
}

#[test]
fn a_repeated_hash_join_over_an_index_join_runs_once() {
    let db = fixture();
    let shape = [
        "Shared #0 (est_rows=5)\n        HashJoin on [3]=[0]",
        "IndexJoin B.a_id [a_id, y] [probe=left]",
        "Scan A [id, x] [filtered]",
        "Scan C [id, z] (est_rows=20)",
        "Shared #0 (reused)",
    ];
    let (plan, scanned, unshared) = check(&db, JOIN_UNION, &shape);
    assert!(!plan.explain().contains("Shared #1"), "nothing else repeats:\n{}", plan.explain());
    // A, C and B's index hits are read once, not once per branch.
    assert_eq!(2 * scanned, unshared);
}

#[test]
fn a_scan_nested_in_a_shared_join_and_repeated_on_its_own_is_shared_separately() {
    let db = fixture();
    // The third branch scans C as the shared join does: that scan is read
    // once inside the join's one run and once more on its own, so it is
    // shared too, as slot 1 inside slot 0.
    let sql = format!("{JOIN_UNION} union all select C.id, C.z from C");
    let shape = [
        "Shared #0",
        "Shared #1 (est_rows=20)\n            Scan C [id, z]",
        "Shared #0 (reused)",
        "Shared #1 (reused)",
    ];
    let (plan, scanned, unshared) = check(&db, &sql, &shape);
    assert!(!plan.explain().contains("Shared #2"), "{}", plan.explain());
    let (_, join_scanned, join_unshared) = check(&db, JOIN_UNION, &[]);
    assert_eq!((scanned, unshared), (join_scanned, join_unshared + 20));
}

#[test]
fn a_shared_index_join_whose_guard_falls_back_to_a_hash_join() {
    let db = fixture();
    // 30 probe rows into a 90-row table fail the executor's 4x guard.
    let sql = "select A.id, B.y from A, B where A.id = B.a_id \
               union all select B.y, A.id from A, B where A.id = B.a_id";
    let shape = ["Shared #0 (est_rows=90)\n      IndexJoin B.a_id", "Shared #0 (reused)"];
    let (plan, scanned, unshared) = check(&db, sql, &shape);
    assert_eq!((scanned, unshared), (30 + 90, 2 * (30 + 90)));

    // The run, traced: the join falls back once, and both reads are spans.
    pqp_obs::trace_begin("test");
    let rows = db.run_plan(&plan).unwrap().rows;
    let trace = pqp_obs::trace_end().unwrap();
    let join = trace.root.find("exec.index_join").expect("an index join span");
    assert_eq!(join.field("strategy"), Some(&Field::Str("hash_fallback".into())));
    let mut reads = Vec::new();
    spans_named(&trace.root, "exec.shared", &mut reads);
    assert_eq!(reads.len(), 2, "one span per read of the shared join");
    let half = Field::Int(rows.len() as i64 / 2);
    for (read, reused) in reads.iter().zip([None, Some(Field::Int(1))]) {
        assert_eq!(read.field("rows_out"), Some(&half));
        assert_eq!(read.field("reused"), reused.as_ref());
    }
    assert_eq!(reads[0].children.len(), 1, "the first read runs the join");
    assert!(reads[1].children.is_empty(), "the second reads its rows");
}

/// Every span called `name`, depth first.
fn spans_named<'t>(node: &'t SpanNode, name: &str, out: &mut Vec<&'t SpanNode>) {
    if node.name == name {
        out.push(node);
    }
    node.children.iter().for_each(|c| spans_named(c, name, out));
}

#[test]
fn a_budget_that_trips_inside_a_shared_producer_is_typed_and_leaves_no_slot_behind() {
    let db = fixture();
    let plan = db.plan(&parse_query(JOIN_UNION).unwrap()).unwrap();
    let ctx = QueryCtx::unlimited();
    let answer = db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx).unwrap().rows;
    let full = ctx.progress().rows_scanned;
    // The shared join scans A (30 rows), probes B, then scans C: the cap
    // admits A and trips inside the join, which is all the plan scans.
    let ctx = QueryCtx::new(Budget::unlimited().max_rows(35));
    match db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx) {
        Err(EngineError::Budget(b)) => {
            assert_eq!(b.reason, BudgetReason::RowsScanned);
            assert!(b.rows_scanned > 35 && b.rows_scanned <= full, "partial counters: {b:?}");
        }
        other => panic!("expected EngineError::Budget, got {other:?}"),
    }
    assert_eq!(db.run_plan(&plan).unwrap().rows, answer);
}

#[test]
fn a_join_build_failure_is_typed_and_the_plan_answers_on_its_next_run() {
    let db = fixture();
    let plan = db.plan(&parse_query(JOIN_UNION).unwrap()).unwrap();
    let answer = db.run_plan(&plan).unwrap().rows;
    db.catalog().failpoints().configure("join.build", "1*error(no memory for build)").unwrap();
    match db.run_plan(&plan) {
        Err(EngineError::Internal(msg)) => assert!(msg.contains("join.build"), "{msg}"),
        other => panic!("expected EngineError::Internal, got {other:?}"),
    }
    assert_eq!(db.run_plan(&plan).unwrap().rows, answer);
    // The first branch answers what it answers planned alone.
    let one = db.run(&format!("{JOIN} and A.x < C.z")).unwrap().rows;
    assert_eq!(answer[..one.len()], one[..]);
}
