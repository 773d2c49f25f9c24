//! Footprint budget of a plan-cache miss, counted exactly.
//!
//! This binary installs a counting global allocator (which is why it is a
//! test target of its own) and drives `build_execution(Rewrite::Auto)` —
//! what `Service::query_governed` runs on every plan-cache miss — over a
//! population shaped like the benchmark's `cold_read` workload: the default
//! generated movie database after `ANALYZE`, 150-selection profiles with
//! every join preference, K=10, L=1. It asserts ceilings on
//!
//! - allocations made per `build_execution` call (the transient cost), and
//! - live allocations / requested bytes of the one `Plan` the call leaves
//!   behind (what the serving layer's plan cache then pins per entry).
//!
//! Allocation counts are a pure function of the inputs, so the ceilings are
//! a regression gate, not a timing.

use pqp_core::strategy::build_execution;
use pqp_core::{personalize_prepared, InMemoryGraph, PersonalizeOptions, QueryGraph, Rewrite};
use pqp_datagen::{
    generate, generate_profiles, generate_queries, MovieDbConfig, ProfileGenConfig, QueryGenConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

const USERS: usize = 40;
const TEXTS: usize = 32;

/// Ceilings (see ISSUE 15): owned-`String` schemas and the per-node
/// re-deriving estimator measured 20 219 / 405 / 14.4 kB here.
const MAX_ALLOCS_PER_BUILD: u64 = 8_000;
const MAX_LIVE_ALLOCS_PER_PLAN: i64 = 150;
const MAX_LIVE_BYTES_PER_PLAN: i64 = 8 * 1024;

struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_ALLOCS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            LIVE_ALLOCS.fetch_sub(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn plan_cache_miss_stays_inside_its_allocation_budget() {
    let mut movies = generate(MovieDbConfig::default());
    movies.db.execute("ANALYZE").expect("ANALYZE on the generated database");
    let db = movies.db;
    let profiles = generate_profiles(
        "user",
        USERS,
        &movies.pools,
        &ProfileGenConfig { selections: 150, join_coverage: 1.0, seed: 11 },
    );
    let mut sqls: Vec<String> = Vec::new();
    for query in generate_queries(TEXTS * 8, &movies.pools, &QueryGenConfig::default()) {
        let text = query.to_string();
        if sqls.len() < TEXTS && !sqls.contains(&text) {
            sqls.push(text);
        }
    }
    assert_eq!(sqls.len(), TEXTS);
    let options = PersonalizeOptions::builder().k(10).l(1).build();

    let (mut builds, mut allocs, mut live_allocs, mut live_bytes) = (0u64, 0u64, 0i64, 0i64);
    for profile in &profiles {
        let graph = InMemoryGraph::build(profile, db.catalog()).expect("profile graph");
        for sql in &sqls {
            let query = pqp_sql::parse_query(sql).expect("generated SQL parses");
            let select = query.as_select().expect("plain SELECT").clone();
            let query_graph = QueryGraph::from_select(&select, db.catalog()).expect("query graph");
            let personalized = personalize_prepared(&select, &query_graph, &graph, options)
                .expect("personalization");

            // Single-threaded from here to the second snapshot: the counters
            // see this call and nothing else.
            let before = (
                ALLOCS.load(Ordering::Relaxed),
                LIVE_ALLOCS.load(Ordering::Relaxed),
                LIVE_BYTES.load(Ordering::Relaxed),
            );
            ENABLED.store(true, Ordering::Relaxed);
            // The serving layer keeps the plan and drops the rest.
            let plan = {
                let choice =
                    build_execution(&db, &personalized, Rewrite::Auto, None).expect("build");
                choice.plan
            };
            ENABLED.store(false, Ordering::Relaxed);
            builds += 1;
            allocs += ALLOCS.load(Ordering::Relaxed) - before.0;
            live_allocs += LIVE_ALLOCS.load(Ordering::Relaxed) - before.1;
            live_bytes += LIVE_BYTES.load(Ordering::Relaxed) - before.2;
            // Dropped uncounted, so the live counters keep each plan's share.
            drop(plan);
        }
    }

    let per_build = allocs / builds;
    let plan_allocs = live_allocs / builds as i64;
    let plan_bytes = live_bytes / builds as i64;
    println!(
        "{builds} builds: {per_build} allocations per build_execution; a retained plan holds \
         {plan_allocs} live allocations / {plan_bytes} B"
    );
    assert!(
        per_build <= MAX_ALLOCS_PER_BUILD,
        "{per_build} allocations per build_execution (ceiling {MAX_ALLOCS_PER_BUILD})"
    );
    assert!(
        plan_allocs <= MAX_LIVE_ALLOCS_PER_PLAN,
        "a retained plan holds {plan_allocs} live allocations (ceiling {MAX_LIVE_ALLOCS_PER_PLAN})"
    );
    assert!(
        plan_bytes <= MAX_LIVE_BYTES_PER_PLAN,
        "a retained plan holds {plan_bytes} B (ceiling {MAX_LIVE_BYTES_PER_PLAN})"
    );
}
