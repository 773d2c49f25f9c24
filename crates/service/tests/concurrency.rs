//! Concurrency guarantees of the serving layer: two threads mutating the
//! same user's profile while a third queries it never deadlock, no update is
//! lost, and epoch-based plan-cache invalidation is observed — per user.
//!
//! `scripts/verify.sh` runs this file both under the default test
//! parallelism and with `RUST_TEST_THREADS=1`.

use pqp_core::Profile;
use pqp_engine::Database;
use pqp_service::Service;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema};

fn movie_db() -> Database {
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
    for mid in 0..20i64 {
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

const Q: &str = "select MV.title from MOVIE MV";

/// Two mutator threads hammer the same user's profile while a query thread
/// runs the same SQL in a loop. The test must terminate (no deadlock), every
/// query must succeed, and the epoch must advance by exactly one per
/// mutation (none lost, none coalesced).
#[test]
fn concurrent_mutation_and_query_same_user() {
    let service = Service::new(movie_db());
    service.install_profile(profile_for("ana", "comedy")).unwrap();
    let epoch_at_install = service.epoch("ana");
    // Prime both caches so the threads below contend on warm state.
    service.session("ana").query(Q).unwrap();

    const MUTATIONS_PER_THREAD: usize = 50;
    const QUERIES: usize = 120;
    let genres = ["comedy", "drama", "thriller", "scifi"];

    std::thread::scope(|scope| {
        for t in 0..2usize {
            let service = &service;
            scope.spawn(move || {
                for i in 0..MUTATIONS_PER_THREAD {
                    let doi = 0.05
                        + 0.9 * ((t * MUTATIONS_PER_THREAD + i) as f64)
                            / (2.0 * MUTATIONS_PER_THREAD as f64);
                    service
                        .add_selection("ana", "GENRE", "genre", genres[i % 4], doi)
                        .expect("mutation under contention");
                }
            });
        }
        let service = &service;
        scope.spawn(move || {
            let session = service.session("ana");
            for _ in 0..QUERIES {
                let answer = session.query(Q).expect("query under contention");
                assert!(answer.rows.len() <= 20);
            }
        });
    });

    // Every mutation bumped the epoch exactly once, none were lost.
    assert_eq!(
        service.epoch("ana"),
        epoch_at_install + 2 * MUTATIONS_PER_THREAD as u64,
        "each of the {} mutations advanced the epoch",
        2 * MUTATIONS_PER_THREAD
    );
    // The profile converged to a valid state: all four genre selections
    // present (each thread upserts the same four keys).
    let ana = service.profile("ana").unwrap();
    assert_eq!(ana.preferences().len(), 5, "join + four genre selections");

    // Every lookup resolved to exactly one of hit/miss/stale, and no query
    // was ever served a plan from a superseded epoch: recomputes (miss or
    // stale) account for every epoch the query thread observed.
    let stats = service.cache_stats();
    assert_eq!(
        stats.plans.hits + stats.plans.misses + stats.plans.stale,
        1 + QUERIES as u64,
        "prime + {QUERIES} queries each resolved once: {stats:?}"
    );

    // Epoch invalidation is observed: one more mutation makes the cached
    // entry (whatever epoch it was rebuilt under) stale, and the next query
    // recomputes instead of serving it.
    let stale_before = stats.plans.stale;
    service.add_selection("ana", "GENRE", "genre", "comedy", 0.99).unwrap();
    let settled = service.session("ana");
    assert!(!settled.query(Q).unwrap().meta.cache.is_hit(), "post-mutation query recomputes");
    assert_eq!(service.cache_stats().plans.stale, stale_before + 1);
    assert!(settled.query(Q).unwrap().meta.cache.is_hit(), "cache serves hits once mutations stop");
}

/// Racing `update_profile` calls to one user commit optimistically: every
/// closure's effect lands (retried on conflict, never silently dropped),
/// the stored epoch advances once per committed mutation, and reads never
/// observe a torn or rolled-back profile.
#[test]
fn concurrent_updates_to_one_user_lose_nothing() {
    let service = Service::new(movie_db());
    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = &service;
            scope.spawn(move || {
                // Each thread upserts a *distinct* selection key, so a lost
                // update is directly visible as a missing preference.
                service
                    .update_profile("ana", |p| {
                        p.add_selection("GENRE", "genre", format!("genre-{t}").as_str(), 0.5)
                            .map(|_| ())
                    })
                    .expect("update under contention")
                    .expect("valid preference");
            });
        }
    });
    let ana = service.profile("ana").expect("profile upserted");
    assert_eq!(ana.preferences().len(), THREADS, "no update was lost");
    assert_eq!(service.epoch("ana"), THREADS as u64, "one epoch per committed mutation");
}

/// Distinct users are independent: concurrent mutations to one user never
/// invalidate another user's cached plans.
#[test]
fn mutations_do_not_invalidate_other_users() {
    let service = Service::new(movie_db());
    service.install_profile(profile_for("ana", "comedy")).unwrap();
    service.install_profile(profile_for("bob", "drama")).unwrap();
    let bob = service.session("bob");
    bob.query(Q).unwrap();

    let service = &service;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..40 {
                service
                    .add_selection("ana", "GENRE", "genre", "scifi", 0.01 + 0.01 * i as f64)
                    .unwrap();
            }
        });
        scope.spawn(move || {
            let bob = service.session("bob");
            for _ in 0..40 {
                assert!(bob.query(Q).unwrap().meta.cache.is_hit(), "bob's plan stays valid");
            }
        });
    });
}
