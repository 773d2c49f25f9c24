//! Index-path correctness: with secondary indexes present, the executor may
//! choose index scans and index-nested-loop joins; results must be identical
//! to the naive interpreter (and to the un-indexed engine).

use pqp_engine::naive::naive_execute;
use pqp_engine::Database;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

/// Two databases with identical contents; one fully indexed, one bare.
fn twin_dbs(rows: usize, seed: u64) -> (Database, Database) {
    let build = |indexed: bool| -> Database {
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
        let mut rng = SmallRng::seed_from_u64(seed);
        {
            let a = c.table("A").unwrap();
            let mut a = a.write();
            for id in 0..rows as i64 {
                let tag = if rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    Value::str(["red", "green", "blue"][rng.gen_range(0..3usize)])
                };
                a.insert(vec![Value::Int(id), Value::Int(rng.gen_range(0..5i64)), tag]).unwrap();
            }
        }
        {
            let b = c.table("B").unwrap();
            let mut b = b.write();
            for _ in 0..rows * 3 {
                let a_id = if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..rows as i64 + 5)) // some dangling
                };
                b.insert(vec![a_id, Value::Int(rng.gen_range(0..100i64))]).unwrap();
            }
        }
        if indexed {
            c.table("A").unwrap().write().create_index("tag").unwrap();
            c.table("A").unwrap().write().create_index("x").unwrap();
            c.table("B").unwrap().write().create_index("a_id").unwrap();
        }
        Database::new(c)
    };
    (build(true), build(false))
}

fn check(sql: &str) {
    // Small enough that the naive oracle's cross products stay cheap.
    let (indexed, bare) = twin_dbs(60, 7);
    let q = parse_query(sql).unwrap();
    let mut with_idx = indexed.run_query(&q).unwrap().rows;
    let mut without = bare.run_query(&q).unwrap().rows;
    let mut naive = naive_execute(&q, indexed.catalog()).unwrap().rows;
    with_idx.sort();
    without.sort();
    naive.sort();
    assert_eq!(with_idx, without, "index paths changed results of `{sql}`");
    assert_eq!(with_idx, naive, "engine disagrees with naive on `{sql}`");
}

#[test]
fn index_scan_point_lookup() {
    check("select A.id from A where A.tag = 'red'");
}

#[test]
fn index_scan_with_residual_filter() {
    check("select A.id from A where A.tag = 'red' and A.x > 2");
}

#[test]
fn eq_null_never_uses_index_wrongly() {
    // `tag = NULL` is never TRUE; an index lookup keyed on NULL would
    // wrongly return the NULL-tagged rows.
    check("select A.id from A where A.tag = NULL");
    let (indexed, _) = twin_dbs(50, 3);
    let rs = indexed.run("select A.id from A where A.tag = NULL").unwrap();
    assert!(rs.is_empty());
}

#[test]
fn index_nested_loop_join_small_probe() {
    // The filtered A side is small → the engine may index-probe B.a_id.
    check(
        "select A.id, B.y from A, B \
         where A.id = B.a_id and A.tag = 'blue' and A.x = 1",
    );
}

#[test]
fn join_with_nulls_on_join_column() {
    // NULL a_id rows must never match.
    check("select A.id, B.y from A, B where A.id = B.a_id");
    check("select B.y from B, A where B.a_id = A.id and A.x = 0");
}

#[test]
fn three_way_with_self_join() {
    check(
        "select A1.id from A A1, B B1, A A2 \
         where A1.id = B1.a_id and B1.y = A2.x and A1.tag = 'green'",
    );
}

#[test]
fn cross_type_numeric_probe() {
    // Float key probing an Int index column must match numerically.
    check("select A.id from A where A.x = 2.0");
}
