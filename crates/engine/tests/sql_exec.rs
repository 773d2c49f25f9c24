//! End-to-end SQL execution tests on a small movies fixture (the paper's
//! schema), checking the optimized engine against hand-computed results and
//! against the naive reference interpreter.

use pqp_engine::naive::naive_execute;
use pqp_engine::Database;
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

/// Build the paper's movies schema with a tiny hand-checked instance.
fn movies_db() -> Database {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "THEATRE",
            vec![
                ColumnDef::new("tid", DataType::Int),
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("phone", DataType::Str),
                ColumnDef::new("region", DataType::Str),
            ],
        )
        .with_primary_key(&["tid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "MOVIE",
            vec![
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("year", DataType::Int),
            ],
        )
        .with_primary_key(&["mid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "PLAY",
            vec![
                ColumnDef::new("tid", DataType::Int),
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("date", DataType::Str),
            ],
        )
        .with_foreign_key(&["tid"], "THEATRE", &["tid"])
        .with_foreign_key(&["mid"], "MOVIE", &["mid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "GENRE",
            vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
        )
        .with_foreign_key(&["mid"], "MOVIE", &["mid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "ACTOR",
            vec![ColumnDef::new("aid", DataType::Int), ColumnDef::new("name", DataType::Str)],
        )
        .with_primary_key(&["aid"]),
    )
    .unwrap();
    c.create_table(
        TableSchema::new(
            "CAST",
            vec![
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("aid", DataType::Int),
                ColumnDef::nullable("award", DataType::Str),
                ColumnDef::nullable("role", DataType::Str),
            ],
        )
        .with_foreign_key(&["mid"], "MOVIE", &["mid"])
        .with_foreign_key(&["aid"], "ACTOR", &["aid"]),
    )
    .unwrap();

    let ins = |c: &Catalog, t: &str, rows: Vec<Vec<Value>>| {
        let t = c.table(t).unwrap();
        let mut t = t.write();
        for r in rows {
            t.insert(r).unwrap();
        }
    };
    ins(
        &c,
        "THEATRE",
        vec![
            vec![1.into(), "Odeon".into(), "210".into(), "downtown".into()],
            vec![2.into(), "Rex".into(), "211".into(), "uptown".into()],
        ],
    );
    ins(
        &c,
        "MOVIE",
        vec![
            vec![10.into(), "Alpha".into(), 2001.into()],
            vec![11.into(), "Beta".into(), 2002.into()],
            vec![12.into(), "Gamma".into(), 2003.into()],
        ],
    );
    ins(
        &c,
        "PLAY",
        vec![
            vec![1.into(), 10.into(), "d1".into()],
            vec![1.into(), 11.into(), "d1".into()],
            vec![2.into(), 12.into(), "d1".into()],
            vec![2.into(), 10.into(), "d2".into()],
        ],
    );
    ins(
        &c,
        "GENRE",
        vec![
            vec![10.into(), "comedy".into()],
            vec![10.into(), "thriller".into()],
            vec![11.into(), "comedy".into()],
            vec![12.into(), "sci-fi".into()],
        ],
    );
    ins(
        &c,
        "ACTOR",
        vec![vec![100.into(), "N. Kidman".into()], vec![101.into(), "A. Hopkins".into()]],
    );
    ins(
        &c,
        "CAST",
        vec![
            vec![10.into(), 100.into(), Value::Null, "lead".into()],
            vec![11.into(), 101.into(), "oscar".into(), Value::Null],
            vec![12.into(), 100.into(), Value::Null, Value::Null],
        ],
    );
    Database::new(c)
}

fn titles(db: &Database, sql: &str) -> Vec<String> {
    let rs = db.run(sql).unwrap();
    let mut out: Vec<String> = rs.rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect();
    out.sort();
    out
}

/// Assert that the optimized engine and the naive interpreter agree on a
/// query, comparing sorted row multisets.
fn check_against_naive(db: &Database, sql: &str) {
    let q = parse_query(sql).unwrap();
    let mut fast = db.run_query(&q).unwrap().rows;
    let mut slow = naive_execute(&q, db.catalog()).unwrap().rows;
    fast.sort();
    slow.sort();
    assert_eq!(fast, slow, "engines disagree on `{sql}`");
}

#[test]
fn point_selection() {
    let db = movies_db();
    assert_eq!(titles(&db, "select title from MOVIE where mid = 11"), vec!["Beta"]);
}

#[test]
fn join_two_tables() {
    let db = movies_db();
    assert_eq!(
        titles(
            &db,
            "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and PL.date = 'd1'"
        ),
        vec!["Alpha", "Beta", "Gamma"]
    );
}

#[test]
fn three_way_join_with_selection() {
    let db = movies_db();
    assert_eq!(
        titles(
            &db,
            "select distinct MV.title from MOVIE MV, PLAY PL, GENRE GN \
             where MV.mid = PL.mid and PL.date = 'd1' and MV.mid = GN.mid \
             and GN.genre = 'comedy'"
        ),
        vec!["Alpha", "Beta"]
    );
}

#[test]
fn disjunctive_qualification() {
    let db = movies_db();
    assert_eq!(
        titles(
            &db,
            "select distinct MV.title from MOVIE MV, GENRE GN \
             where MV.mid = GN.mid and (GN.genre = 'comedy' or GN.genre = 'sci-fi')"
        ),
        vec!["Alpha", "Beta", "Gamma"]
    );
}

#[test]
fn or_expansion_drops_unreferenced_tables() {
    // GN and CA/AC appear only inside OR branches; the rewrite must expand
    // instead of cross-producting them.
    let db = movies_db();
    let sql = "select distinct MV.title from MOVIE MV, PLAY PL, GENRE GN, CAST CA, ACTOR AC \
               where MV.mid = PL.mid and PL.date = 'd1' and (\
                 (MV.mid = GN.mid and GN.genre = 'sci-fi') or \
                 (MV.mid = CA.mid and CA.aid = AC.aid and AC.name = 'N. Kidman'))";
    assert_eq!(titles(&db, sql), vec!["Alpha", "Gamma"]);
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("Union"), "expected OR-expansion, got:\n{explain}");
    check_against_naive(&db, sql);
}

#[test]
fn union_all_group_having_the_mq_shape() {
    // The paper's MQ rewrite: union of partial queries, group, having.
    let db = movies_db();
    let sql = "select title from (\
                 (select distinct MV.title as title from MOVIE MV, GENRE GN \
                  where MV.mid = GN.mid and GN.genre = 'comedy') \
                 union all \
                 (select distinct MV.title as title from MOVIE MV, GENRE GN \
                  where MV.mid = GN.mid and GN.genre = 'thriller')\
               ) TEMP group by title having count(*) >= 2";
    // Alpha is both comedy and thriller; Beta only comedy.
    assert_eq!(titles(&db, sql), vec!["Alpha"]);
    check_against_naive(&db, sql);
}

#[test]
fn degree_of_conjunction_ranking() {
    let db = movies_db();
    let sql = "select title, degree_of_conjunction(doi) as interest from (\
                 (select distinct MV.title as title, 0.9 as doi from MOVIE MV, GENRE GN \
                  where MV.mid = GN.mid and GN.genre = 'comedy') \
                 union all \
                 (select distinct MV.title as title, 0.7 as doi from MOVIE MV, GENRE GN \
                  where MV.mid = GN.mid and GN.genre = 'thriller')\
               ) TEMP group by title having count(*) >= 1 \
               order by interest desc";
    let rs = db.run(sql).unwrap();
    // Alpha satisfies both: 1-(1-0.9)(1-0.7)=0.97; Beta only comedy: 0.9.
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::str("Alpha"));
    let Value::Float(f) = rs.rows[0][1] else { panic!() };
    assert!((f - 0.97).abs() < 1e-9);
    assert_eq!(rs.rows[1][0], Value::str("Beta"));
    assert_eq!(rs.rows[1][1], Value::Float(0.9));
}

#[test]
fn aggregates_global() {
    let db = movies_db();
    let rs = db.run("select count(*) from MOVIE").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    let rs = db.run("select count(*) from MOVIE where year > 2005").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(0)]], "global aggregate over empty input");
    let rs = db.run("select min(year), max(year), avg(year) from MOVIE").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2001));
    assert_eq!(rs.rows[0][1], Value::Int(2003));
    assert_eq!(rs.rows[0][2], Value::Float(2002.0));
}

#[test]
fn count_skips_nulls_but_star_does_not() {
    let db = movies_db();
    let rs = db.run("select count(*), count(award) from CAST").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(3), Value::Int(1)]]);
}

#[test]
fn group_by_with_order() {
    let db = movies_db();
    let rs = db
        .run("select GN.genre, count(*) as n from GENRE GN group by GN.genre order by n desc, GN.genre")
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::str("comedy"), Value::Int(2)],
            vec![Value::str("sci-fi"), Value::Int(1)],
            vec![Value::str("thriller"), Value::Int(1)],
        ]
    );
}

#[test]
fn is_null_predicates() {
    let db = movies_db();
    let rs = db.run("select CA.aid from CAST CA where CA.award is null").unwrap();
    assert_eq!(rs.len(), 2);
    let rs = db.run("select CA.aid from CAST CA where CA.award is not null").unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn in_list_predicate() {
    let db = movies_db();
    assert_eq!(
        titles(
            &db,
            "select distinct MV.title from MOVIE MV, GENRE GN \
             where MV.mid = GN.mid and GN.genre in ('comedy', 'sci-fi')"
        ),
        vec!["Alpha", "Beta", "Gamma"]
    );
}

#[test]
fn where_false_yields_empty() {
    let db = movies_db();
    let rs = db.run("select title from MOVIE where 1 = 2").unwrap();
    assert!(rs.is_empty());
}

#[test]
fn cross_join_when_no_predicate() {
    let db = movies_db();
    let rs = db.run("select MV.title, TH.name from MOVIE MV, THEATRE TH").unwrap();
    assert_eq!(rs.len(), 6);
    check_against_naive(&db, "select MV.title, TH.name from MOVIE MV, THEATRE TH");
}

#[test]
fn self_join_with_two_tuple_variables() {
    let db = movies_db();
    // Pairs of distinct genres of the same movie.
    let sql = "select G1.mid from GENRE G1, GENRE G2 \
               where G1.mid = G2.mid and G1.genre = 'comedy' and G2.genre = 'thriller'";
    let rs = db.run(sql).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(10)]]);
    check_against_naive(&db, sql);
}

#[test]
fn duplicate_tuple_variable_rejected() {
    let db = movies_db();
    assert!(db.run("select MV.title from MOVIE MV, PLAY MV").is_err());
}

#[test]
fn unknown_names_rejected() {
    let db = movies_db();
    assert!(db.run("select title from NOPE").is_err());
    assert!(db.run("select nope from MOVIE").is_err());
    assert!(db.run("select XX.title from MOVIE MV").is_err());
    assert!(db.run("select mid from MOVIE MV, PLAY PL").is_err(), "ambiguous column");
}

#[test]
fn order_by_alias_and_column() {
    let db = movies_db();
    let rs = db.run("select title as t, year from MOVIE order by year desc").unwrap();
    assert_eq!(rs.rows[0][0], Value::str("Gamma"));
    let rs = db.run("select title as t from MOVIE order by t").unwrap();
    assert_eq!(rs.rows[0][0], Value::str("Alpha"));
}

#[test]
fn limit_applies_after_sort() {
    let db = movies_db();
    let rs = db.run("select title from MOVIE order by year desc limit 1").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::str("Gamma")]]);
}

#[test]
fn union_distinct_vs_all() {
    let db = movies_db();
    let all = db
        .run("(select mid from GENRE where genre='comedy') union all (select mid from GENRE)")
        .unwrap();
    assert_eq!(all.len(), 6);
    let dedup = db
        .run("(select mid from GENRE where genre='comedy') union (select mid from GENRE)")
        .unwrap();
    assert_eq!(dedup.len(), 3);
}

#[test]
fn union_and_distinct_keep_first_seen_order() {
    let db = movies_db();
    let mids = |sql: &str| -> Vec<Value> {
        db.run(sql).unwrap().rows.into_iter().map(|mut r| r.remove(0)).collect()
    };
    assert_eq!(
        mids("(select mid from GENRE where genre='sci-fi') union (select mid from GENRE)"),
        vec![Value::Int(12), Value::Int(10), Value::Int(11)]
    );
    assert_eq!(
        mids("select distinct GN.genre from GENRE GN"),
        vec![Value::str("comedy"), Value::str("thriller"), Value::str("sci-fi")]
    );
}

#[test]
fn derived_table_with_alias_resolution() {
    let db = movies_db();
    let rs = db
        .run("select T.g from (select GN.genre as g from GENRE GN) T where T.g = 'comedy'")
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn paper_sq_example_runs() {
    let db = movies_db();
    let sql = "select distinct MV.title \
        from MOVIE MV, PLAY PL, GENRE GN, CAST CA, ACTOR AC \
        where MV.mid=PL.mid and PL.date='d1' and (\
          (MV.mid=GN.mid and GN.genre='comedy' and MV.mid=CA.mid and CA.aid=AC.aid and AC.name='N. Kidman') or \
          (MV.mid=GN.mid and GN.genre='sci-fi'))";
    assert_eq!(titles(&db, sql), vec!["Alpha", "Gamma"]);
    check_against_naive(&db, sql);
}

#[test]
fn naive_agreement_suite() {
    let db = movies_db();
    for sql in [
        "select MV.title from MOVIE MV",
        "select distinct GN.genre from GENRE GN",
        "select MV.title, GN.genre from MOVIE MV, GENRE GN where MV.mid = GN.mid",
        "select MV.title from MOVIE MV, PLAY PL, THEATRE TH \
         where MV.mid = PL.mid and PL.tid = TH.tid and TH.region = 'downtown'",
        "select GN.genre, count(*) from GENRE GN group by GN.genre",
        "select count(*) from MOVIE MV, GENRE GN where MV.mid = GN.mid",
        "select MV.year from MOVIE MV where MV.year >= 2002 order by MV.year",
        "select MV.title from MOVIE MV where not MV.year = 2001",
        "select MV.title from MOVIE MV where MV.year = 2001 or MV.year = 2003",
        "(select mid from GENRE where genre = 'comedy') union (select mid from GENRE where genre = 'thriller')",
        "select CA.role from CAST CA where CA.role is null",
    ] {
        check_against_naive(&db, sql);
    }
}

#[test]
fn explain_shows_join_access_paths() {
    let db = movies_db();
    // THEATRE.tid and MOVIE.mid are primary keys: both joins probe them.
    let explain = db
        .explain(
            "select MV.title from MOVIE MV, PLAY PL, THEATRE TH \
             where MV.mid = PL.mid and PL.tid = TH.tid and TH.region = 'downtown'",
        )
        .unwrap();
    assert_eq!(explain.matches("IndexJoin").count(), 2, "plan:\n{explain}");
    assert!(!explain.contains("HashJoin") && !explain.contains("CrossJoin"), "plan:\n{explain}");
    // Each access path lists what it emits: TH.region is read by its own
    // filter only, PL.date by nothing.
    for path in [
        "IndexJoin MOVIE.mid [mid, title] [probe=left]",
        "IndexJoin THEATRE.tid [tid] [filtered] [probe=right]",
        "Scan PLAY [tid, mid] (",
    ] {
        assert!(explain.contains(path), "no `{path}` in plan:\n{explain}");
    }
    // PLAY has no index: an equi-join of it with itself hashes.
    let explain = db.explain("select P1.tid from PLAY P1, PLAY P2 where P1.mid = P2.mid").unwrap();
    assert_eq!(explain.matches("HashJoin").count(), 1, "plan:\n{explain}");
    assert!(!explain.contains("IndexJoin"), "plan:\n{explain}");
    assert!(explain.contains("Scan PLAY [tid, mid] (") && explain.contains("Scan PLAY [mid] ("));
}

#[test]
fn select_star_keeps_every_column() {
    let db = movies_db();
    let sql = "select * from PLAY PL, MOVIE MV where MV.mid = PL.mid and PL.date = 'd1'";
    let rs = db.run(sql).unwrap();
    assert_eq!(rs.columns, ["tid", "mid", "date", "mid", "title", "year"].map(String::from));
    assert!(rs.rows.iter().all(|r| r.len() == 6), "{rs}");
    check_against_naive(&db, sql);
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("Scan PLAY [tid, mid, date] [filtered]"), "plan:\n{explain}");
    assert!(explain.contains("MOVIE.mid [mid, title, year]"), "plan:\n{explain}");
}

#[test]
fn a_column_only_a_filter_reads_is_not_emitted() {
    let db = movies_db();
    let sql = "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and PL.date = 'd1' \
               and MV.year < 2003";
    assert_eq!(titles(&db, sql), vec!["Alpha", "Beta"]);
    check_against_naive(&db, sql);
    // PL.date and MV.year are read by their access paths' filters only.
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("Scan PLAY [mid] [filtered]"), "plan:\n{explain}");
    assert!(explain.contains("IndexJoin MOVIE.mid [mid, title] [filtered]"), "plan:\n{explain}");
    // A column a residual reads is emitted, even next to a filter on it.
    let sql = "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and PL.date = 'd1' \
               and (MV.year = 2001 or PL.date = 'd2')";
    assert_eq!(titles(&db, sql), vec!["Alpha"]);
    check_against_naive(&db, sql);
}

#[test]
fn order_by_a_column_the_projection_drops_still_sorts() {
    let db = movies_db();
    let sql = "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid \
               order by MV.year desc, PL.date desc";
    let rs = db.run(sql).unwrap();
    let got: Vec<Value> = rs.rows.into_iter().map(|mut r| r.remove(0)).collect();
    assert_eq!(got, ["Gamma", "Beta", "Alpha", "Alpha"].map(Value::str));
    // The rows, order aside, are the oracle's.
    check_against_naive(&db, "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid");
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("[mid, title, year]"), "plan:\n{explain}");
    assert!(explain.contains("Scan PLAY [mid, date]"), "plan:\n{explain}");
}

#[test]
fn an_ambiguous_unqualified_column_still_errors() {
    let db = movies_db();
    // THEATRE and ACTOR both have a `name` that nothing else reads: both
    // factors emit it, so the name stays ambiguous over the emitted columns
    // wherever it is read above the access paths.
    for (sql, error) in [
        (
            "select TH.tid from THEATRE TH, ACTOR AC where name = 'Odeon'",
            "ambiguous column reference `name`",
        ),
        ("select name from THEATRE TH, ACTOR AC", "ambiguous column reference `name`"),
        (
            "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and mid = 10",
            "ambiguous column reference `mid`",
        ),
        // The hidden-sort path fails on the ambiguity and reports why the
        // projection could not serve.
        (
            "select TH.tid from THEATRE TH, ACTOR AC order by name",
            "ORDER BY expression `name` does not match any output column",
        ),
    ] {
        let err = db.run(sql).unwrap_err().to_string();
        assert!(err.contains(error), "`{sql}`: {err}");
        assert!(naive_execute(&parse_query(sql).unwrap(), db.catalog()).is_err(), "{sql}");
    }
}

#[test]
fn index_join_hash_fallback_maps_the_join_column_through_the_emitted_set() {
    let db = movies_db();
    // PLAY.mid is table column 1, but PLAY emits [mid, date]: position 0.
    db.catalog().table("PLAY").unwrap().write().create_index("mid").unwrap();
    let sql = "select MV.title, PL.date from MOVIE MV, PLAY PL where MV.mid = PL.mid";
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("IndexJoin PLAY.mid [mid, date] [probe=left]"), "plan:\n{explain}");
    // Three probe rows into a four-row table fail the executor's 4x guard:
    // the join runs as a hash join over a scan of the emitted columns.
    pqp_obs::trace_begin("test");
    db.run(sql).unwrap();
    let trace = pqp_obs::trace_end().unwrap();
    let join = trace.root.find("exec.index_join").expect("an index join span");
    assert_eq!(join.field("strategy"), Some(&pqp_obs::Field::Str("hash_fallback".into())));
    // The probe count that tripped the guard shows on the fallback too.
    assert_eq!(join.field("probe_rows"), Some(&pqp_obs::Field::Int(3)));
    check_against_naive(&db, sql);
}

#[test]
fn index_scan_falls_back_to_a_narrow_scan_when_its_index_is_gone() {
    let mut db = movies_db();
    let sql = "select MV.title from MOVIE MV where MV.mid = 11 and MV.year > 2000";
    let plan = db.plan(&parse_query(sql).unwrap()).unwrap();
    assert!(plan.explain().contains("IndexScan MOVIE.mid=11 [title] [filtered]"), "{plan:?}");
    // Re-create MOVIE without its primary key: the planned index is gone.
    let rows = db.catalog().table("MOVIE").unwrap().read().scan();
    let mut schema = db.catalog().schema_of("MOVIE").unwrap();
    schema.primary_key.clear();
    db.catalog_mut().drop_table("MOVIE").unwrap();
    let movie = db.catalog_mut().create_table(schema).unwrap();
    for row in rows {
        movie.write().insert(row).unwrap();
    }
    assert_eq!(db.run_plan(&plan).unwrap().rows, vec![vec![Value::str("Beta")]]);
    check_against_naive(&db, sql);
}

#[test]
fn negative_zero_is_stored_and_rendered_as_zero() {
    let mut db = Database::new(Catalog::new());
    db.execute("create table Z (x float)").unwrap();
    db.execute("insert into Z values (-0.0)").unwrap();
    let rs = db.run("select x from Z").unwrap();
    assert_eq!(rs.rows[0][0].to_string(), "0");
}
