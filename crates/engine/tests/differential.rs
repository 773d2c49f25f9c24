//! Differential testing: on random databases and random queries, the
//! optimized pipeline (rewrite → plan → execute) must produce exactly the
//! same multiset of rows as the naive AST interpreter. Driven by a seeded
//! PRNG so failures reproduce exactly.
//!
//! The generated queries reach every executor pipeline: scans, index scans,
//! two- and three-factor joins over indexed and unindexed columns (index
//! nested loops, hash joins, and the hash fallback of an index join whose
//! probe side outgrew its guard), residual filters above the joins,
//! `DISTINCT` over computed projections, `GROUP BY`, and `UNION` /
//! `UNION ALL` of two selects.

use pqp_engine::naive::naive_execute;
use pqp_engine::Database;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_sql::ast::*;
use pqp_sql::builder as b;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value, BATCH_SIZE};
use std::collections::BTreeSet;

/// Fixed table shapes; row contents are generated.
const TABLES: &[(&str, &[(&str, DataType)])] = &[
    ("T0", &[("a", DataType::Int), ("b", DataType::Float), ("c", DataType::Str)]),
    ("T1", &[("d", DataType::Int), ("e", DataType::Str)]),
    ("T2", &[("f", DataType::Int), ("g", DataType::Bool), ("h", DataType::Int)]),
];

const STRINGS: &[&str] = &["x", "y", "z", ""];

fn arb_value(rng: &mut SmallRng, ty: DataType) -> Value {
    // 1-in-4 NULLs so three-valued logic and null masks get exercised.
    if rng.gen_bool(0.25) {
        return Value::Null;
    }
    arb_literal(rng, ty)
}

/// The hash-indexed columns: join keys an index join can probe.
const INDEXED: &[(&str, &str)] = &[("T1", "d"), ("T2", "f")];

/// A database with up to `max_rows[i]` rows in table `i`, and a hash index
/// on each [`INDEXED`] column.
fn arb_db(rng: &mut SmallRng, max_rows: [usize; 3]) -> Database {
    let mut c = Catalog::new();
    for ((name, cols), max_rows) in TABLES.iter().zip(max_rows) {
        let schema = TableSchema::new(
            *name,
            cols.iter().map(|(n, ty)| ColumnDef::nullable(*n, *ty)).collect(),
        );
        let t = c.create_table(schema).unwrap();
        let mut t = t.write();
        let n = rng.gen_range(0..max_rows);
        for _ in 0..n {
            let row: Vec<Value> = cols.iter().map(|(_, ty)| arb_value(rng, *ty)).collect();
            t.insert(row).unwrap();
        }
    }
    for (table, column) in INDEXED {
        c.table(table).unwrap().write().create_index(column).unwrap();
    }
    Database::new(c)
}

fn columns_of(table_idx: usize) -> &'static [(&'static str, DataType)] {
    TABLES[table_idx].1
}

/// A random qualified column over the query's factors (alias q0..q{k-1}).
fn arb_column(rng: &mut SmallRng, factors: &[usize]) -> (Expr, DataType) {
    let fi = rng.gen_index(factors.len());
    let cols = columns_of(factors[fi]);
    let (name, ty) = cols[rng.gen_index(cols.len())];
    (b::col(format!("q{fi}"), name), ty)
}

fn arb_literal(rng: &mut SmallRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..4i64)),
        DataType::Float => Value::Float(rng.gen_range(0..8i64) as f64 / 2.0),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        DataType::Str => Value::from(STRINGS[rng.gen_index(STRINGS.len())]),
    }
}

fn arb_predicate(rng: &mut SmallRng, factors: &[usize], depth: usize) -> Expr {
    if depth > 0 && rng.gen_bool(0.4) {
        return match rng.gen_range(0..3u32) {
            0 => b::and(
                arb_predicate(rng, factors, depth - 1),
                arb_predicate(rng, factors, depth - 1),
            ),
            1 => b::or(
                arb_predicate(rng, factors, depth - 1),
                arb_predicate(rng, factors, depth - 1),
            ),
            _ => b::not(arb_predicate(rng, factors, depth - 1)),
        };
    }
    match rng.gen_range(0..4u32) {
        0 => {
            // column <op> literal
            let (col, ty) = arb_column(rng, factors);
            let ops = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq];
            let op = ops[rng.gen_index(ops.len())];
            b::binary(col, op, Expr::Literal(arb_literal(rng, ty)))
        }
        1 => {
            // column = column (same type only); falls back to a literal
            // comparison when the draw mismatches.
            let (c1, t1) = arb_column(rng, factors);
            let (c2, t2) = arb_column(rng, factors);
            if t1 == t2 {
                b::eq(c1, c2)
            } else {
                b::eq(c1, Expr::Literal(arb_literal(rng, t1)))
            }
        }
        2 => {
            let (c, _) = arb_column(rng, factors);
            Expr::IsNull { expr: Box::new(c), negated: rng.gen_bool(0.5) }
        }
        _ => {
            let (c, ty) = arb_column(rng, factors);
            let n = rng.gen_range(1..3usize);
            let list = (0..n).map(|_| Expr::Literal(arb_literal(rng, ty))).collect();
            Expr::InList { expr: Box::new(c), list, negated: false }
        }
    }
}

fn arb_query(rng: &mut SmallRng) -> Query {
    let k = rng.gen_range(1..4usize);
    let factors: Vec<usize> = (0..k).map(|_| rng.gen_index(TABLES.len())).collect();
    arb_query_over(rng, &factors)
}

/// An integer column of factor `fi`, [`INDEXED`] ones drawn half the time.
fn arb_join_column(rng: &mut SmallRng, factors: &[usize], fi: usize) -> Expr {
    let table = factors[fi];
    let ints: Vec<&str> = (columns_of(table).iter())
        .filter(|(_, ty)| *ty == DataType::Int)
        .map(|(name, _)| *name)
        .collect();
    let indexed = INDEXED.iter().find(|(t, _)| *t == TABLES[table].0).map(|(_, c)| *c);
    let name = match indexed {
        Some(c) if rng.gen_bool(0.5) => c,
        _ => ints[rng.gen_index(ints.len())],
    };
    b::col(format!("q{fi}"), name)
}

/// The selection of one select block: with two or more factors, usually an
/// equi-join chain `q0 = q1 = ...` over integer columns; then, in any
/// combination, a random predicate, and a residual comparison of two
/// factors' columns that no scan or join can take.
fn arb_selection(rng: &mut SmallRng, factors: &[usize]) -> Option<Expr> {
    let mut conjuncts = Vec::new();
    if factors.len() > 1 && rng.gen_bool(0.75) {
        for fi in 1..factors.len() {
            let prev = arb_join_column(rng, factors, fi - 1);
            conjuncts.push(b::eq(prev, arb_join_column(rng, factors, fi)));
        }
    }
    if rng.gen_bool(0.5) {
        conjuncts.push(arb_predicate(rng, factors, 3));
    }
    if factors.len() > 1 && rng.gen_bool(0.3) {
        let last = factors.len() - 1;
        let (l, r) = (arb_join_column(rng, factors, 0), arb_join_column(rng, factors, last));
        let ops = [BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::GtEq];
        conjuncts.push(b::binary(l, ops[rng.gen_index(ops.len())], r));
    }
    b::and_all(conjuncts)
}

/// A projected expression: the column, or under `computed` an arithmetic
/// expression over a numeric one.
fn arb_projection(rng: &mut SmallRng, factors: &[usize], computed: bool) -> Expr {
    let (col, ty) = arb_column(rng, factors);
    if !computed || !matches!(ty, DataType::Int | DataType::Float) {
        return col;
    }
    let ops = [BinaryOp::Plus, BinaryOp::Minus, BinaryOp::Mul];
    b::binary(col, ops[rng.gen_index(ops.len())], Expr::Literal(arb_literal(rng, ty)))
}

/// A random query over the given tables (one factor each, aliases q0..).
fn arb_query_over(rng: &mut SmallRng, factors: &[usize]) -> Query {
    let from: Vec<TableFactor> =
        factors.iter().enumerate().map(|(i, &t)| b::table(TABLES[t].0, format!("q{i}"))).collect();
    let n_proj = rng.gen_range(1..3usize);
    let distinct = rng.gen_bool(0.5);
    let computed = distinct && rng.gen_bool(0.5);
    let proj: Vec<Expr> = (0..n_proj).map(|_| arb_projection(rng, factors, computed)).collect();
    let selection = arb_selection(rng, factors);
    if rng.gen_bool(0.4) {
        // GROUP BY the first projected expression with COUNT(*).
        let gcol = proj[0].clone();
        return Query::from_select(Select {
            distinct: false,
            projection: vec![b::item(gcol.clone()), b::item(b::count_star())],
            from,
            selection,
            group_by: vec![gcol],
            having: None,
        });
    }
    let select = |selection| Select {
        distinct,
        projection: proj.iter().cloned().map(b::item).collect(),
        from: from.clone(),
        selection,
        group_by: Vec::new(),
        having: None,
    };
    if rng.gen_bool(0.7) {
        return Query::from_select(select(selection));
    }
    // A UNION or UNION ALL of two selects that differ in their selection.
    let right = select(arb_selection(rng, factors));
    let body = SetExpr::Union {
        left: Box::new(SetExpr::Select(Box::new(select(selection)))),
        right: Box::new(SetExpr::Select(Box::new(right))),
        all: rng.gen_bool(0.5),
    };
    Query { body, order_by: Vec::new(), limit: None }
}

/// Run `query` through the naive interpreter and through the planned
/// pipeline: the planned run must return the oracle's multiset of rows, or
/// fail where the oracle fails.
fn assert_matches_naive(db: &Database, query: &Query) {
    let naive = naive_execute(query, db.catalog()).map(|r| {
        let mut rows = r.rows;
        rows.sort();
        rows
    });
    match (naive, db.run_query(query)) {
        (Ok(n), Ok(f)) => {
            let mut f = f.rows;
            f.sort();
            assert_eq!(n, f, "query: {query}");
        }
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) => panic!("engine failed where naive succeeded on `{query}`: {e}"),
        (Err(e), Ok(_)) => panic!("naive failed where engine succeeded on `{query}`: {e}"),
    }
}

/// The join strategies a traced run of `query` used: `exec.hash_join`, or
/// an `exec.index_join`'s `strategy` field.
fn join_strategies(db: &Database, query: &Query, seen: &mut BTreeSet<String>) {
    pqp_obs::trace_begin("query");
    let _ = db.run_query(query);
    let Some(trace) = pqp_obs::trace_end() else { return };
    let mut stack = vec![&trace.root];
    while let Some(span) = stack.pop() {
        if span.name == "exec.hash_join" {
            seen.insert(span.name.clone());
        }
        for (key, value) in &span.fields {
            if let (true, pqp_obs::Field::Str(strategy)) =
                (span.name == "exec.index_join" && key == "strategy", value)
            {
                seen.insert(strategy.clone());
            }
        }
        stack.extend(&span.children);
    }
}

/// `cases` generated databases and queries, each checked against the
/// oracle; every join strategy must show up among them.
fn engine_matches_naive(cases: usize) {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let mut strategies = BTreeSet::new();
    for _ in 0..cases {
        let db = arb_db(&mut rng, [10, 16, 16]);
        let query = arb_query(&mut rng);
        assert_matches_naive(&db, &query);
        join_strategies(&db, &query, &mut strategies);
    }
    for strategy in ["exec.hash_join", "index_nested_loop", "hash_fallback"] {
        assert!(strategies.contains(strategy), "no {strategy} among {strategies:?}");
    }
}

#[test]
fn optimized_engine_matches_naive() {
    engine_matches_naive(384);
}

/// Ten times [`optimized_engine_matches_naive`]'s cases (`--ignored`;
/// `scripts/verify.sh` runs it in release).
#[test]
#[ignore]
fn optimized_engine_matches_naive_long() {
    engine_matches_naive(3_840);
}

/// Equi-joins over the multi-chunk fixture's two small tables: NULL join
/// keys, post-join filters and projections.
const JOIN_QUERIES: &[&str] = &[
    "select q0.d, q1.f from T1 q0, T2 q1 where q0.d = q1.f and q1.g = true",
    "select q0.e, q1.h from T1 q0, T2 q1 where q0.d = q1.h and q0.e <> '' and q1.f >= 2",
    "select distinct q0.e from T1 q0, T2 q1 where q0.d = q1.f",
];

/// Filters an access path evaluates on the stored row while it emits other
/// columns: a column read only among an `IN` list's items, filters under
/// `NOT` and `IS NULL`, and the `x <> 0 AND 10 / x > 1` hazard, whose
/// division must never see a row the left side rejected. Over `Scan`s of
/// the multi-chunk table, an `IndexScan`'s residual, and an `IndexJoin`'s
/// indexed side.
const SCAN_FILTER_QUERIES: &[&str] = &[
    "select q0.c from T0 q0 where 2 in (q0.a, 7)",
    "select q0.c from T0 q0 where q0.b in (1.5, q0.a)",
    "select q0.a from T0 q0 where not (q0.c = 'x' or q0.b > 2.0)",
    "select q0.a from T0 q0 where q0.c is null or not (q0.b is not null)",
    "select q0.c from T0 q0 where q0.a <> 0 and 10 / q0.a > 1",
    "select q0.h from T2 q0 where q0.f = 1 and not (q0.g is null)",
    "select q0.h from T2 q0 where q0.f = 2 and 3 in (1, q0.h)",
    "select q1.h from T1 q0, T2 q1 where q0.d = q1.f and q0.e = 'x' and 3 in (q1.h, 1)",
    "select q0.e from T1 q0, T2 q1 where q0.d = q1.f and q0.e = 'y' and not (q1.g is null)",
    "select q0.e from T1 q0, T2 q1 where q0.d = q1.f and q0.e = 'z' and q1.h <> 0 and 10 / q1.h > 1",
    "select q1.f from T2 q1, T1 q0 where q0.d = q1.h and q1.g = true and 'x' in (q0.e, 'w')",
];

#[test]
fn multi_chunk_scans_match_naive() {
    // T0 spans at least three stored chunks and ends on a short one, so its
    // scans cross chunk boundaries mid-table. T1 and T2 stay small because
    // the oracle enumerates the joins' cross product.
    let mut rng = SmallRng::seed_from_u64(0x0B47);
    let db = loop {
        let db = arb_db(&mut rng, [4_000, 700, 700]);
        let t0 = db.catalog().table("T0").unwrap().read().len();
        if t0 >= 3 * BATCH_SIZE && !t0.is_multiple_of(BATCH_SIZE) {
            break db;
        }
    };
    for _ in 0..48 {
        let table = rng.gen_index(TABLES.len());
        let query = arb_query_over(&mut rng, &[table]);
        assert_matches_naive(&db, &query);
    }
    for sql in JOIN_QUERIES {
        assert_matches_naive(&db, &pqp_sql::parse_query(sql).unwrap());
    }
    for sql in SCAN_FILTER_QUERIES {
        let query = pqp_sql::parse_query(sql).unwrap();
        assert!(db.run_query(&query).is_ok(), "`{sql}` failed");
        assert_matches_naive(&db, &query);
    }
}

#[test]
fn sql_text_roundtrip_preserves_semantics() {
    let mut rng = SmallRng::seed_from_u64(0x7E47);
    for _ in 0..384 {
        let db = arb_db(&mut rng, [10; 3]);
        let query = arb_query(&mut rng);
        // Executing the printed SQL must equal executing the AST.
        let direct = db.run_query(&query);
        let via_text = db.run(&query.to_string());
        match (direct, via_text) {
            (Ok(a), Ok(b2)) => {
                let mut a = a.rows;
                let mut b2 = b2.rows;
                a.sort();
                b2.sort();
                assert_eq!(a, b2, "query: {query}");
            }
            (Err(_), Err(_)) => {}
            (a, b2) => {
                panic!("disagreement on `{query}`: direct={:?} text={:?}", a.is_ok(), b2.is_ok());
            }
        }
    }
}
