//! Chaos suite: fault injection at every named failpoint site, driven
//! through the service front door.
//!
//! What this file proves:
//!
//! 1. with failpoints armed at six sites (storage scan, hash-join build,
//!    profile shard lock, preference selection, selection budget, plan
//!    cache), a 100-query mixed workload never aborts the process — every
//!    failure comes back as a typed [`pqp_service::Error`];
//! 2. sessions a failpoint did *not* touch return byte-identical rows to a
//!    no-failpoint run of the same workload;
//! 3. each injected fault is isolated: the query after the fault succeeds.
//!
//! Every service arms failpoints on its own catalog's registry, so the
//! tests share no fault state and run on any schedule.

use pqp_core::{PersonalizeOptions, Profile, Rewrite};
use pqp_engine::{Database, EngineError};
use pqp_service::{DegradeLevel, Error, Service, ServiceConfig};
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema};

/// Run `f` with panic output suppressed (the suite injects panics on
/// purpose; their backtraces are noise, not signal).
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

fn movie_db(movies: i64) -> Database {
    let mut c = Catalog::new();
    c.create_table(
        TableSchema::new(
            "MOVIE",
            vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("title", DataType::Str)],
        )
        .with_primary_key(&["mid"]),
    )
    .unwrap();
    c.create_table(TableSchema::new(
        "GENRE",
        vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
    ))
    .unwrap();
    let genres = ["comedy", "drama", "thriller", "scifi"];
    for mid in 0..movies {
        c.table("MOVIE")
            .unwrap()
            .write()
            .insert(vec![mid.into(), format!("Movie {mid}").as_str().into()])
            .unwrap();
        c.table("GENRE")
            .unwrap()
            .write()
            .insert(vec![mid.into(), genres[(mid % 4) as usize].into()])
            .unwrap();
    }
    Database::new(c)
}

fn profile_for(user: &str, genre: &str) -> Profile {
    let mut p = Profile::new(user);
    p.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
    p.add_selection("GENRE", "genre", genre, 0.8).unwrap();
    p
}

const USERS: [(&str, &str); 4] =
    [("ana", "comedy"), ("bob", "drama"), ("cid", "thriller"), ("dee", "scifi")];

const SQLS: [&str; 3] = [
    "select MV.title from MOVIE MV",
    "select MV.title from MOVIE MV where MV.mid < 40",
    "select MV.title, G.genre from MOVIE MV, GENRE G where MV.mid = G.mid",
];

fn chaos_service() -> Service {
    let service = Service::with_config(
        movie_db(80),
        ServiceConfig {
            options: PersonalizeOptions::builder().k(2).l(1).build(),
            rewrite: Rewrite::Mq,
            ..ServiceConfig::default()
        },
    );
    for (u, g) in USERS {
        service.install_profile(profile_for(u, g)).unwrap();
    }
    service.failpoints().set_seed(0xC4A05);
    service
}

/// The 100-query mixed workload. Profile mutations are confined to a
/// dedicated "churn" user so every other user's sessions are comparable
/// across runs; mutations run under `catch_unwind` because the shard-lock
/// failpoint escalates to a panic by design.
fn run_workload(service: &Service) -> Vec<Result<pqp_service::Answer, Error>> {
    let mut out = Vec::with_capacity(100);
    for i in 0..100usize {
        if i % 10 == 9 {
            let doi = 0.05 + (i as f64) / 250.0;
            let _ = quietly(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.add_selection("churn", "GENRE", "genre", "comedy", doi)
                }))
            });
        }
        let (user, _) = USERS[i % USERS.len()];
        let sql = SQLS[i % SQLS.len()];
        out.push(service.session(user).query(sql));
    }
    out
}

/// The headline chaos test: failpoints armed at six sites, 100 queries,
/// zero process aborts, every failure typed, and every answer a failpoint
/// did not touch byte-identical to the baseline run.
#[test]
fn mixed_workload_under_chaos_never_aborts_and_stays_deterministic() {
    // Baseline first, on a service with no failpoint armed.
    let baseline_service = chaos_service();
    let baseline: Vec<_> = run_workload(&baseline_service)
        .into_iter()
        .map(|r| r.expect("baseline workload has no faults").rows)
        .collect();

    // Build (and populate) the service first: the chaos window covers
    // the query workload, not fixture setup.
    let service = chaos_service();
    service
        .failpoints()
        .configure_many(
            "storage.scan=3%error(chaos scan);\
         join.build=3%error(chaos build);\
         shard.lock=20%panic(chaos lock);\
         select.pref=3%error(chaos selection);\
         select.budget=3%error(chaos budget);\
         plan.cache=10%error(chaos cache)",
        )
        .unwrap();
    assert!(service.failpoints().active_sites().len() >= 6, "chaos must cover at least six sites");

    let results = run_workload(&service);

    let mut faults = 0usize;
    let mut degraded = 0usize;
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(answer) if answer.meta.degraded == DegradeLevel::None => {
                // Untouched (or served through the cache-bypass path):
                // must match the baseline byte for byte.
                assert_eq!(
                    answer.rows, baseline[i],
                    "unaffected query {i} diverged from the no-failpoint run"
                );
            }
            Ok(answer) => {
                // Personalization degraded to fit an injected budget
                // trip: still a successful, well-formed answer.
                degraded += 1;
                assert!(answer.meta.degraded > DegradeLevel::None);
            }
            Err(
                Error::Internal(_)
                | Error::Engine(_)
                | Error::Storage(_)
                | Error::BudgetExceeded(_),
            ) => faults += 1,
            Err(other) => panic!("query {i}: unexpected error class: {other:?}"),
        }
    }
    // The seed is fixed, so the workload reliably exercises faults; the
    // exact split between errors and degradations is scheduling-
    // dependent, the floor is not.
    assert!(faults + degraded > 0, "chaos run injected nothing — specs or seed broken");
    assert_eq!(service.in_flight(), 0, "no admission slot leaked");

    // The service survives the storm: with failpoints cleared, every
    // user gets exactly the baseline answer again.
    service.failpoints().clear();
    for (i, rows) in run_workload(&service).into_iter().enumerate() {
        let answer = rows.expect("post-chaos workload is fault-free");
        assert_eq!(answer.rows, baseline[i], "query {i} after the storm");
    }
}

/// Faults belong to the node: two services over two catalogs in one
/// process serve concurrently while one of them has `service.query` errors
/// and `storage.scan` stalls armed. The other answers row for row as a
/// no-fault run, and its registry never fires.
#[test]
fn failpoints_armed_on_one_service_never_reach_another() {
    let baseline: Vec<_> = run_workload(&chaos_service())
        .into_iter()
        .map(|r| r.expect("baseline workload has no faults").rows)
        .collect();
    let (armed, clean) = (chaos_service(), chaos_service());
    armed
        .failpoints()
        .configure_many("service.query=3*error(other node); storage.scan=delay(50)")
        .unwrap();
    let (armed_results, clean_results) = std::thread::scope(|scope| {
        let armed = scope.spawn(|| {
            (0..10usize)
                .map(|i| armed.session(USERS[i % USERS.len()].0).query(SQLS[i % SQLS.len()]))
                .collect::<Vec<_>>()
        });
        let clean = scope.spawn(|| run_workload(&clean));
        (armed.join().expect("armed worker"), clean.join().expect("clean worker"))
    });
    for (i, result) in armed_results.iter().enumerate() {
        match result {
            Err(Error::Internal(m)) if i < 3 => assert!(m.contains("other node"), "{m}"),
            Ok(_) if i >= 3 => {}
            other => panic!("armed query {i}: {other:?}"),
        }
    }
    assert!(armed.failpoints().fired("storage.scan") > 0, "the armed service stalled its scans");
    for (i, result) in clean_results.into_iter().enumerate() {
        let answer = result.expect("the unarmed service sees no fault");
        assert_eq!(answer.rows, baseline[i], "query {i} of the unarmed service");
    }
    for site in ["service.query", "storage.scan"] {
        assert_eq!(clean.failpoints().fired(site), 0, "{site} fired on the unarmed service");
    }
}

/// Each named site, fired deterministically once, yields its typed error
/// and leaves the service healthy. Together with the workload test this
/// pins every site the issue names.
#[test]
fn every_site_fails_one_query_with_a_typed_error_then_recovers() {
    let service = chaos_service();
    let join_sql = SQLS[2];

    // `join.build` runs as a profile-less user: ana's personalized
    // rewrite shrinks the GENRE side enough that the planner picks the
    // index-nested-loop path and the hash-join build site never fires;
    // the unrewritten 80x80 join is forced back onto the hash join.
    type ErrPred = fn(&Error) -> bool;
    let cases: [(&str, &str, &str, ErrPred); 4] = [
        ("storage.scan", "ana", "1*error(disk gremlin)", |e| {
            matches!(e, Error::Engine(EngineError::Storage(_)))
        }),
        (
            "join.build",
            "nobody",
            "1*error(no build memory)",
            |e| matches!(e, Error::Internal(m) if m.contains("join.build")),
        ),
        (
            "select.pref",
            "ana",
            "1*error(selection fault)",
            |e| matches!(e, Error::Internal(m) if m.contains("select.pref")),
        ),
        (
            "service.query",
            "ana",
            "1*error(front door fault)",
            |e| matches!(e, Error::Internal(m) if m.contains("service.query")),
        ),
    ];
    for (site, user, spec, matches_expected) in cases {
        // A warm plan cache would skip the personalization phase (and
        // with it some sites); every case starts cold.
        service.clear_caches();
        service.failpoints().configure(site, spec).unwrap();
        let err = match service.session(user).query(join_sql) {
            Err(e) => e,
            Ok(a) => panic!("site {site}: armed query unexpectedly succeeded: {a:?}"),
        };
        assert!(matches_expected(&err), "site {site}: got {err:?}");
        let ok = service.session(user).query(join_sql).unwrap();
        assert!(!ok.rows.rows.is_empty(), "site {site}: service did not recover");
        // A fault must never poison the caches with a wrong entry.
        assert_eq!(ok.rows, service.session(user).query(join_sql).unwrap().rows);
    }
}

/// A panic at the service entry point is caught by the session-level
/// `catch_unwind`: of several queries in flight on two threads only the
/// poisoned one fails.
#[test]
fn service_entry_panic_is_isolated_among_concurrent_queries() {
    let service = chaos_service();
    service.failpoints().configure("service.query", "1*panic(front door chaos)").unwrap();
    let run = |i: usize| {
        let sql = format!("select MV.title from MOVIE MV where MV.mid < {}", 10 + i);
        service.session(USERS[i % USERS.len()].0).query(&sql)
    };
    let results: Vec<Result<_, Error>> = quietly(|| {
        std::thread::scope(|scope| {
            let workers = [[0, 1], [2, 3]].map(|mine| scope.spawn(move || mine.map(run)));
            workers.into_iter().flat_map(|w| w.join().expect("no panic escapes")).collect()
        })
    });
    let failures: Vec<&Error> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(failures.len(), 1, "exactly the poisoned request fails: {results:?}");
    assert!(matches!(failures[0], Error::Internal(m) if m.contains("panicked")));
    assert_eq!(service.in_flight(), 0, "panicked query released its admission slot");
}

/// A panic while a profile shard lock is held (the `shard.lock` failpoint
/// escalates to panic by design) poisons nothing permanently: the store
/// recovers and keeps serving reads and writes.
#[test]
fn shard_lock_panic_leaves_profile_store_usable() {
    let service = chaos_service();
    service.failpoints().configure("shard.lock", "1*panic(chaos lock)").unwrap();
    let caught = quietly(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.add_selection("ana", "GENRE", "genre", "drama", 0.7)
        }))
    });
    assert!(caught.is_err(), "the armed shard.lock failpoint must panic");
    // Poison recovery: the same shard serves reads and writes again.
    assert!(service.profile("ana").is_some());
    service.add_selection("ana", "GENRE", "genre", "drama", 0.7).unwrap();
    let answer = service.session("ana").query(SQLS[0]).unwrap();
    assert_eq!(answer.meta.k, 2, "post-recovery mutation is in effect");
}

/// The degradation ladder, stepped deterministically with `select.budget`:
/// one injected trip degrades to ReducedK, two to NativeReducedK, three to
/// MandatoryOnly, four to the unpersonalized floor. Degraded plans are
/// never cached.
#[test]
fn injected_budget_trips_walk_the_degradation_ladder() {
    let service = chaos_service();
    let expectations: [(&str, DegradeLevel, usize); 4] = [
        ("1*error", DegradeLevel::ReducedK, 1),
        ("2*error", DegradeLevel::NativeReducedK, 1),
        ("3*error", DegradeLevel::MandatoryOnly, 0),
        ("4*error", DegradeLevel::Unpersonalized, 0),
    ];
    for (spec, level, k) in expectations {
        service.failpoints().configure("select.budget", spec).unwrap();
        let answer = service.session("ana").query(SQLS[0]).unwrap();
        assert_eq!(answer.meta.degraded, level, "spec {spec}");
        assert_eq!(answer.meta.k, k, "spec {spec}");
        assert!(!answer.meta.cache.is_hit(), "degraded answers never come from the cache");
        service.failpoints().remove("select.budget");
        // The degraded plan was not cached: the next full-fidelity query
        // recomputes (miss), then caching resumes as normal.
        let full = service.session("ana").query(SQLS[0]).unwrap();
        assert_eq!(full.meta.degraded, DegradeLevel::None);
        assert_eq!(full.meta.k, 1);
        service.clear_caches();
    }
}

/// An injected plan-cache fault degrades to a recompute: same rows, just
/// not served from the cache — a cache is never load-bearing.
#[test]
fn plan_cache_fault_degrades_to_recompute_with_identical_rows() {
    let service = chaos_service();
    let warm = service.session("ana").query(SQLS[0]).unwrap();
    assert!(service.session("ana").query(SQLS[0]).unwrap().meta.cache.is_hit());

    service.failpoints().configure("plan.cache", "1*error(cache gremlin)").unwrap();
    let bypassed = service.session("ana").query(SQLS[0]).unwrap();
    assert!(!bypassed.meta.cache.is_hit(), "injected cache fault is a miss");
    assert_eq!(bypassed.rows, warm.rows, "recompute returns identical rows");
    assert!(service.session("ana").query(SQLS[0]).unwrap().meta.cache.is_hit(), "cache heals");
}
