//! Concurrency guarantees of the serving layer: two threads mutating the
//! same user's profile while a third queries it never deadlock, no update is
//! lost, and epoch-based plan-cache invalidation is observed — per user.
//! A user's personalization graph is built once per profile epoch, by the
//! first plan-cache miss that needs it; the last three tests race that
//! build against mutations.
//!
//! `scripts/verify.sh` runs this file both under the default test
//! parallelism and with `RUST_TEST_THREADS=1`.

use pqp_core::Profile;
use pqp_engine::{Database, ResultSet};
use pqp_service::Service;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};
use std::sync::Barrier;
use std::time::Duration;

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

/// The rows `Q` returns, sorted, for a service holding only `profile`.
fn rows_for(profile: Option<Profile>) -> Vec<Vec<Value>> {
    let service = Service::new(movie_db());
    let user = profile.as_ref().map_or_else(|| "nobody".to_string(), |p| p.user.clone());
    if let Some(p) = profile {
        service.install_profile(p).unwrap();
    }
    sorted(service.session(user.as_str()).query(Q).unwrap().rows)
}

fn sorted(answer: ResultSet) -> Vec<Vec<Value>> {
    let mut rows = answer.rows;
    rows.sort();
    rows
}

/// A mutation racing a plan-cache miss — landing before the miss snapshots
/// the profile, between the snapshot and the graph build, or after it — is
/// seen by the next query: a miss personalizes over the graph of the epoch
/// it snapshotted and publishes its plan under that epoch, so a graph built
/// for the old profile can never answer for the new one.
#[test]
fn a_mutation_racing_a_miss_is_seen_by_the_next_query() {
    let comedy = rows_for(Some(profile_for("ana", "comedy")));
    let mut both = profile_for("ana", "comedy");
    both.add_selection("GENRE", "genre", "drama", 0.95).unwrap();
    let both = rows_for(Some(both));
    assert_ne!(comedy, both, "the mutation changes the answer");

    for round in 0..50u32 {
        let service = Service::new(movie_db());
        service.install_profile(profile_for("ana", "comedy")).unwrap();
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                // Either profile is a correct answer for a query that races
                // the mutation.
                let rows = sorted(service.session("ana").query(Q).unwrap().rows);
                assert!(rows == comedy || rows == both, "round {round}: a torn answer");
            });
            start.wait();
            // Spread the mutation over the miss: some rounds land before its
            // snapshot, some inside the graph build, some after.
            std::thread::sleep(Duration::from_micros(u64::from(round) * 20));
            service.add_selection("ana", "GENRE", "genre", "drama", 0.95).unwrap();
        });
        let session = service.session("ana");
        assert_eq!(sorted(session.query(Q).unwrap().rows), both, "round {round}: next query");
        let again = session.query(Q).unwrap();
        assert!(again.meta.cache.is_hit(), "round {round}: the new epoch's plan is cached");
        assert_eq!(sorted(again.rows), both, "round {round}: the cached plan");
    }

    // The same race with the window held open: the miss snapshots the
    // profile and builds its graph, then sleeps in selection while the
    // mutation lands. Which side of the mutation the miss snapshotted is
    // read off its answer, so nothing below depends on the host's timing.
    let service = Service::new(movie_db());
    service.install_profile(profile_for("ana", "comedy")).unwrap();
    service.failpoints().configure("select.pref", "delay(100)").unwrap();
    let seen = std::thread::scope(|scope| {
        let miss = scope.spawn(|| sorted(service.session("ana").query(Q).unwrap().rows));
        std::thread::sleep(Duration::from_millis(30));
        service.add_selection("ana", "GENRE", "genre", "drama", 0.95).unwrap();
        miss.join().unwrap()
    });
    assert!(seen == comedy || seen == both);
    let next = service.session("ana").query(Q).unwrap();
    if seen == comedy {
        assert!(!next.meta.cache.is_hit(), "the racing miss's plan is stale");
    }
    assert_eq!(sorted(next.rows), both);
}

/// Removing a profile drops its epoch's graph with it: a reinstall under
/// the same user builds a fresh graph from the new profile.
#[test]
fn remove_then_reinstall_builds_a_fresh_graph() {
    let (comedy, drama, none) = (
        rows_for(Some(profile_for("ana", "comedy"))),
        rows_for(Some(profile_for("ana", "drama"))),
        rows_for(None),
    );
    assert!(comedy != drama && drama != none, "the three states answer differently");

    let service = Service::new(movie_db());
    service.install_profile(profile_for("ana", "comedy")).unwrap();
    let session = service.session("ana");
    assert_eq!(sorted(session.query(Q).unwrap().rows), comedy);
    assert!(service.remove_profile("ana"));
    assert_eq!(sorted(session.query(Q).unwrap().rows), none, "no profile, no preferences");
    service.install_profile(profile_for("ana", "drama")).unwrap();
    assert_eq!(sorted(session.query(Q).unwrap().rows), drama, "the reinstalled profile's graph");

    // The same sequence racing a reader: every answer belongs to one of
    // the three states, and the last state wins once the writer stops.
    for round in 0..20 {
        service.install_profile(profile_for("ana", "comedy")).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..10 {
                    let rows = sorted(service.session("ana").query(Q).unwrap().rows);
                    assert!(
                        rows == comedy || rows == drama || rows == none,
                        "round {round}: an answer from no profile the user ever had"
                    );
                }
            });
            service.remove_profile("ana");
            service.install_profile(profile_for("ana", "drama")).unwrap();
        });
        assert_eq!(sorted(session.query(Q).unwrap().rows), drama, "round {round}");
    }
}

/// Two misses of one user in flight across a mutation: the older one
/// personalizes over the older epoch's graph and answers for it, the newer
/// one over a graph built for the newer epoch. Whichever publishes last, the
/// cache never serves the older graph's plan for the newer epoch.
#[test]
fn an_older_epochs_graph_never_plans_for_a_newer_epoch() {
    let comedy = rows_for(Some(profile_for("ana", "comedy")));
    let drama = rows_for(Some(profile_for("ana", "drama")));
    assert_ne!(comedy, drama);

    let service = Service::new(movie_db());
    service.install_profile(profile_for("ana", "comedy")).unwrap();
    let query = || sorted(service.session("ana").query(Q).unwrap().rows);
    // The one-shot delay is the older miss's: it holds its comedy snapshot
    // while the install lands and the newer miss builds, publishes and
    // answers, then publishes its own plan last.
    service.failpoints().configure("select.pref", "1*delay(150)").unwrap();
    std::thread::scope(|scope| {
        let older = scope.spawn(query);
        std::thread::sleep(Duration::from_millis(30));
        // Swap the whole preference: the comedy selection goes.
        service.install_profile(profile_for("ana", "drama")).unwrap();
        assert_eq!(query(), drama, "the newer miss answers for its epoch");
        let seen = older.join().unwrap();
        assert!(seen == comedy || seen == drama, "the older miss answers for an epoch");
    });
    assert_eq!(query(), drama, "the next lookup serves or rebuilds the drama plan");
    assert_eq!(query(), drama, "and the plan it caches is the drama one");
}
