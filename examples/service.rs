//! The serving layer in five minutes: one [`Service`] over a generated
//! movies database, several users' profiles, sessions issuing personalized
//! SQL, and a profile mutation invalidating cached plans.
//!
//! Run with: `cargo run --example service`. Like `pqp-server`, it reads the
//! `PQP_*` service knobs and failpoints from the environment, so it doubles
//! as an end-to-end probe (`PQP_MAX_ROWS_SCANNED=5 cargo run --example
//! service`).

use pqp::{Service, ServiceConfig};
use pqp_core::{PersonalizeOptions, Rewrite};
use pqp_datagen::{generate, generate_profiles, MovieDbConfig, ProfileGenConfig};

fn main() -> Result<(), pqp::Error> {
    // 1. A service over a synthetic movies database, serving MQ rewrites
    //    with the top-3 preferences per query.
    let m = generate(MovieDbConfig { movies: 200, theatres: 8, ..Default::default() });
    let service = Service::with_config(
        m.db,
        ServiceConfig {
            options: PersonalizeOptions::builder().k(3).l(1).build(),
            rewrite: Rewrite::Mq,
            ..ServiceConfig::from_env()
        },
    );
    if let Err(e) = service.failpoints().configure_from_env() {
        eprintln!("PQP_FAILPOINTS ignored: {e}");
    }

    // 2. Install a few generated user profiles. Any later mutation bumps
    //    the user's epoch and lazily invalidates their cached plans.
    for profile in generate_profiles("user", 4, &m.pools, &ProfileGenConfig::default()) {
        service.install_profile(profile)?;
    }
    println!("serving {} users: {:?}\n", service.users().len(), service.users());

    // 3. A session is the per-user front door: parse → personalize →
    //    integrate → plan → execute, through the caches.
    let sql = "select MV.title from MOVIE MV";
    let session = service.session("user0");
    let answer = session.query(sql)?;
    println!(
        "user0: {} rows under {} (K={}, cache: {})",
        answer.rows.len(),
        answer.meta.rewrite,
        answer.meta.k,
        answer.meta.cache
    );
    let again = session.query(sql)?;
    println!("user0 again: cache: {}", again.meta.cache);

    // 4. Mutating the profile invalidates the cached plan — the next query
    //    recomputes with the new preference in effect.
    service.add_selection("user0", "GENRE", "genre", "comedy", 0.95)?;
    let after = session.query(sql)?;
    println!("after mutation: cache: {} (epoch {})", after.meta.cache, service.epoch("user0"));

    let stats = service.cache_stats();
    println!(
        "plan cache: {} hits, {} misses, {} stale (hit rate {:.0}%)",
        stats.plans.hits,
        stats.plans.misses,
        stats.plans.stale,
        100.0 * stats.plans.hit_rate()
    );
    Ok(())
}
