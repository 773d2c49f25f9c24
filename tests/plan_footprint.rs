//! Footprint budget of a plan-cache miss, counted exactly.
//!
//! This binary installs a counting global allocator (which is why it is a
//! test target of its own) and drives `build_execution(Rewrite::Auto)` —
//! what `Service::query_governed` runs on every plan-cache miss — over a
//! population shaped like the benchmark's `cold_read` workload: the default
//! generated movie database after `ANALYZE`, 150-selection profiles with
//! every join preference, K=10, L=1. It asserts ceilings on
//!
//! - allocations made per `build_execution` call (the transient cost),
//! - live allocations / requested bytes of the one `Plan` the call leaves
//!   behind (what the serving layer's plan cache then pins per entry),
//! - allocations made per `personalize_prepared` call (§5 selection, which
//!   precedes every build).
//!
//! Every graph's edges, in the order `joins_from` and `selections_of` hand
//! them out for each table of the schema, are hashed into one exact digest.
//!
//! The cache side fills a `Service` with the same population, through
//! sessions running `Rewrite::Auto`, and asserts the live bytes one
//! plan-cache entry holds (its plan, its key and the cache's own wrappers),
//! and that dropping every entry returns the live bytes to where they were
//! before the fill. It then asserts the live allocations and bytes the
//! service's profile store keeps per user once every graph is built (what
//! removing the users gives back), and the allocations per
//! `Service::add_selection` that overwrites one preference of a
//! 4-selection, join-free profile (the `profile_write` shape), and per
//! leader `ReplNode::client_mutate` of the same overwrite through the
//! replicated log.
//!
//! The same binary counts the execution side of a plan-cache *hit*:
//! allocations and requested bytes per `Database::run_plan_ctx` of each built
//! plan over a population shaped like the `rank_exec` workload — broad
//! query texts, 60-selection profiles with every join preference, K=12,
//! L=2, ranked, `Rewrite::Mq` — where the executor's per-row cost (string
//! copies, join rows and their width, key vectors) is what the count sees.
//! Over the same runs it asserts the exact rows scanned and bytes charged
//! to the query governor (`QueryCtx::progress()`).
//!
//! Every key of the `cold_read`-shaped population whose `Auto` choice is
//! the native rank operator is also run once (`run_plan`): its rows
//! scanned, bytes charged to the governor and the operator's pruning
//! counters are exact gates, beside a ceiling on allocations per run.
//!
//! It also counts what the generated database itself keeps live — the
//! stored base data every workload starts from — and the allocations
//! `generate` makes to build it.
//!
//! Allocation counts are a pure function of the inputs, so the ceilings are
//! a regression gate, not a timing. Everything runs in one `#[test]` so no
//! other test thread allocates while the counters are on.

use pqp_core::strategy::{build_execution, CandidateCost};
use pqp_core::{
    personalize_prepared, GraphAccess, InMemoryGraph, PersonalizeOptions, QueryGraph, Rewrite,
};
use pqp_datagen::{
    generate, generate_profiles, generate_queries, MovieDbConfig, ProfileGenConfig, QueryGenConfig,
    ValuePools,
};
use pqp_engine::plan::Plan;
use pqp_engine::{Database, ExecOptions};
use pqp_obs::QueryCtx;
use pqp_server::{ReplConfig, ReplNode};
use pqp_service::{Service, ServiceConfig, TelemetryConfig, UserId};
use pqp_storage::Cardinality;
use pqp_wire::ProfileOp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const USERS: usize = 40;
const TEXTS: usize = 32;

/// Ceilings on a build: owned-`String` schemas and the per-node
/// re-deriving estimator measured 20 219 / 405 / 14.4 kB here, and
/// `String`-named ASTs copied per partial query and per OR-expansion 5 884
/// allocations per build. With shared names it was 2 513 while `Auto`
/// built all three candidates; priced first, it builds 1.15 of them and
/// makes 916. The ceiling is that + 5 %. Access paths that emit only the
/// columns read above them bind their filters to the table's own columns
/// instead of building a whole-table schema, and measure 910. With one join
/// order for planning and pricing (no hash sets in the planner, no key list
/// per priced step) it is 881, and 890 with the pass that shares repeated
/// subtrees. With the join start chosen by cost on analyzed tables it is
/// 834.
const MAX_ALLOCS_PER_BUILD: u64 = 962;

/// Ceiling on the candidates `Rewrite::Auto` integrates and plans per
/// choice, in tenths: it prices SQ, MQ and native first and builds the
/// cheapest, plus any other priced within `BUILD_WITHIN` of it.
const MAX_TENTHS_BUILT_PER_CHOICE: u64 = 14;
/// Ceilings on the plan a build leaves behind: 74 live allocations / 6 476
/// B while every access path emitted its whole table; 73 / 6 152 B with
/// narrowed schemas, and 72 / 6 035 B with repeated subtrees stored once.
/// With the join start chosen by cost, SQ branches that shared a subtree
/// start from their own selections instead, and a plan held 76 live
/// allocations while a hash join kept its keys in two `Vec`s; with both
/// halves in one allocation it measured 72 / 6 269 B.
///
/// Stored as one post-order array of nodes with `u32` child indices, each
/// repeated subtree once, its expressions, lists and aggregate calls in a
/// pool each and only the root's output columns named, a plan measures
/// 4 live allocations / 2 023 B. The ceilings are that + 5 % (74 → 4,
/// 6 476 → 2 124 B).
const MAX_LIVE_ALLOCS_PER_PLAN: i64 = 4;
const MAX_LIVE_BYTES_PER_PLAN: i64 = 2_124;

/// Ceiling on allocations per `personalize_prepared`: edges cloned out of
/// the graph on every adjacency fetch measured 1 208 here; edges borrowed
/// from it measure 219. The ceiling is that + 5 %.
const MAX_ALLOCS_PER_PERSONALIZE: u64 = 230;

/// FNV-1a over every edge of every user's graph of the `cold_read`
/// population, table by table in catalog order, each adjacency list in the
/// order the graph hands it out: attribute spellings, values, degree bits
/// and cardinalities. Selection relies on that order (decreasing degree,
/// ties in profile order), so it is an exact gate.
const GRAPH_EDGES_DIGEST: u64 = 0x8c4d_bd5f_31c1_05b6;

/// Ceilings on what the profile store keeps per installed user of the
/// `cold_read` population once the user's graph is built. The entry, a
/// profile of 104-byte preferences with two owned `String`s per attribute
/// and its list's growth slack, a graph of positions into that list, and
/// the key measured 417 live allocations / 31 523 B. The graph as the only
/// stored form (each attribute once, one 40-byte entry per preference,
/// positions per table) measures 66 / 9 298 B. The ceilings are that + 5 %.
const MAX_STORE_ALLOCS_PER_USER: i64 = 69;
const MAX_STORE_BYTES_PER_USER: i64 = 9_763;

/// Ceiling on allocations per `Service::add_selection` that overwrites one
/// preference of a 4-selection, join-free profile. A copy of the shared
/// preference list and the new preference measured 14, the graph left to
/// the user's next plan-cache miss. Reading the profile back from the
/// stored graph (10), the new preference (2), the graph built at commit
/// (13, 8 of them the attributes' names) and its entry measure 26. The
/// ceiling is that + 5 %.
const MAX_ALLOCS_PER_MUTATION: u64 = 27;

/// Ceiling on allocations per leader `ReplNode::client_mutate` that
/// overwrites one preference of a 4-selection, join-free user at quorum 1:
/// the same mutation behind the replicated log (validate, WAL append and
/// fsync, apply). Validating on a read-back of the stored profile measured
/// 56 to 57; validating the op alone measures 48 to 49. The ceiling is that
/// + 5 %.
const MAX_ALLOCS_PER_LEADER_MUTATION: u64 = 51;

/// The `rank_exec` population: 16 users x 8 broad texts.
const EXEC_USERS: usize = 16;
const EXEC_TEXTS: usize = 8;
/// Ceilings on allocations and requested bytes per `run_plan`:
/// `String`-holding values, key vectors and clone-then-grow join rows
/// measured 89 057 allocations here; shared strings brought it to 23 801,
/// and scans and index hits that read stored columns instead of decoding
/// rows to 15 138 (3 215 949 B). Derived tables passed through instead of
/// re-projected, and access paths that emit only the columns read above
/// them, measure 14 600 allocations / 2 221 195 B. The ceilings are that
/// + 5 %.
///
/// With each repeated subtree run once per execution (`Plan::Shared`) they
/// measure 9 579 / 1 587 354 B; the ceilings are that + 5 %. With the join
/// start chosen by cost on analyzed tables they measure 7 910 / 1 292 199 B.
///
/// With each chain of streaming operators run as one push loop (no row
/// copied between a join, its projection, `DISTINCT` and the `GROUP BY`)
/// and every materialized row set stored back to back instead of one
/// allocation per row, 7 910 → 462 allocations and 1 292 199 → 958 445 B
/// per run; the ceilings are that + 5 %. With the plan one node array and
/// each execution's shared-subtree slots keyed by node, a run measures
/// 463 / 958 942 B; the ceilings stay.
const MAX_ALLOCS_PER_RUN: u64 = 486;
const MAX_BYTES_PER_RUN: u64 = 1_006_368;

/// The rows the 128 `run_plan`s scan and the bytes they charge to the query
/// governor, read from `QueryCtx::progress()`: exact, with no slack. Every
/// subtree run once per occurrence scanned 1 072 940 rows / charged 85 069 712
/// B (8 382.3 / 664 607.1 per run); with each repeated subtree run once per
/// execution, 606 860 rows / 52 921 232 B (4 741.1 / 413 447.1 per run).
/// With the join start chosen by cost on analyzed tables, partials start
/// from their selective factor instead of the smallest one, and they are
/// the values below (3 995.6 / 241 144.9 per run).
const ROWS_SCANNED: u64 = 511_442;
const CHARGED_BYTES: u64 = 30_866_552;

/// The `run_plan`s of the `cold_read`-shaped keys whose `Auto` choice is the
/// native rank operator: how many there are, the rows they scan, the bytes
/// they charge to the query governor, and the operator's `topk.groups_pruned`
/// and `topk.passes_skipped` counters, summed. Exact, with no slack. No
/// run of this population kills every group before its last pass, so none
/// skips one.
const NATIVE_RUNS: u64 = 297;
const NATIVE_ROWS_SCANNED: u64 = 156_575;
const NATIVE_CHARGED_BYTES: u64 = 24_164_160;
const NATIVE_GROUPS_PRUNED: i64 = 3_136;
const NATIVE_PASSES_SKIPPED: i64 = 0;
/// Ceiling on allocations per native `run_plan`: base rows and witness
/// rows materialized one `Vec` per row, groups keyed by cloned rows,
/// measured 756. With the base pushed into one flat row set and grouped
/// in place, and each witness pushed straight into its membership set, a
/// run measures 173. The ceiling is that + 5 %.
const MAX_ALLOCS_PER_NATIVE_RUN: u64 = 181;

/// Ceiling on the live bytes one plan-cache entry holds in a `Service`
/// filled with the `cold_read`-shaped population: its plan, its key and
/// the cache's `Arc`s around both (the cache's map and queue reuse the
/// room a first fill left them). A tree of 120-byte nodes measured 6 578 B
/// here; the flat plan measures 2 344 B. The ceiling is that + 5 %.
const MAX_BYTES_PER_CACHE_ENTRY: i64 = 2_461;

/// What may stay live once every plan-cache entry is dropped: the
/// service's latency histogram (a lifetime histogram and twelve 5-second
/// slots of log-bucket maps) grows by how long the fill took and how its
/// latencies spread, and no more than this. An entry's plan or key left
/// behind would be at least 80 B for each of the 1 280 entries, 100 kB.
const MAX_BYTES_LEFT_BEHIND: i64 = 16 * 1024;

/// Ceilings on what the generated database keeps live, and on the
/// allocations `generate` makes to build it. With a `HashMap<Vec<Value>,
/// Vec<u32>>` per index (two allocations per distinct key) it measured
/// 33 049 live allocations / 3 164 221 B, and `generate` made 137 906
/// allocations, one key vector per row and unique index among them. With
/// each index one table of inline keys over one pool of ordinals, and key
/// checks read in place, it measures 6 986 / 2 023 009 B and 73 122. Each
/// ceiling is that + 5 %.
const MAX_BASE_DATA_ALLOCS: i64 = 7_335;
const MAX_BASE_DATA_BYTES: i64 = 2_124_159;
const MAX_GENERATE_ALLOCS: u64 = 76_778;

struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_ALLOCS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static REQUESTED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
            REQUESTED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
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
            REQUESTED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocation counters, read together.
fn counters() -> (u64, i64, i64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        LIVE_ALLOCS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// The first `n` distinct query texts of the generator.
fn distinct_texts(n: usize, pools: &ValuePools, config: &QueryGenConfig) -> Vec<String> {
    let mut sqls: Vec<String> = Vec::new();
    for query in generate_queries(n * 8, pools, config) {
        let text = query.to_string();
        if sqls.len() < n && !sqls.contains(&text) {
            sqls.push(text);
        }
    }
    assert_eq!(sqls.len(), n);
    sqls
}

#[test]
fn plan_cache_miss_stays_inside_its_allocation_budget() {
    let before = counters();
    ENABLED.store(true, Ordering::Relaxed);
    let mut movies = generate(MovieDbConfig::default());
    ENABLED.store(false, Ordering::Relaxed);
    let after = counters();
    base_data(after.0 - before.0, after.1 - before.1, after.2 - before.2);
    movies.db.execute("ANALYZE").expect("ANALYZE on the generated database");
    let db = movies.db;
    miss_side(&db, &movies.pools);
    execution_side(&db, &movies.pools);
    cache_side(db, &movies.pools);
}

/// What `generate(MovieDbConfig::default())` leaves live: tables, indexes
/// and value pools, and how many allocations it made to build them.
fn base_data(allocs: u64, live_allocs: i64, live_bytes: i64) {
    println!(
        "the generated database holds {live_allocs} live allocations / {live_bytes} B \
         ({allocs} allocations made)"
    );
    assert!(
        allocs <= MAX_GENERATE_ALLOCS,
        "generate makes {allocs} allocations (ceiling {MAX_GENERATE_ALLOCS})"
    );
    assert!(
        live_allocs <= MAX_BASE_DATA_ALLOCS,
        "the generated database holds {live_allocs} live allocations \
         (ceiling {MAX_BASE_DATA_ALLOCS})"
    );
    assert!(
        live_bytes <= MAX_BASE_DATA_BYTES,
        "the generated database holds {live_bytes} B (ceiling {MAX_BASE_DATA_BYTES})"
    );
}

/// `build_execution(Rewrite::Auto)` over the `cold_read` population.
fn miss_side(db: &Database, pools: &ValuePools) {
    let profiles = generate_profiles(
        "user",
        USERS,
        pools,
        &ProfileGenConfig { selections: 150, join_coverage: 1.0, seed: 11 },
    );
    let sqls = distinct_texts(TEXTS, pools, &QueryGenConfig::default());
    let options = PersonalizeOptions::builder().k(10).l(1).build();

    let (mut builds, mut allocs, mut live_allocs, mut live_bytes) = (0u64, 0u64, 0i64, 0i64);
    let mut candidates_built = 0u64;
    let mut select_allocs = 0u64;
    let mut native = NativeRuns::default();
    let mut digest = Fnv::default();
    for profile in &profiles {
        let graph = InMemoryGraph::build(profile, db.catalog()).expect("profile graph");
        digest.graph(&graph, db);
        for sql in &sqls {
            let query = pqp_sql::parse_query(sql).expect("generated SQL parses");
            let select = query.as_select().expect("plain SELECT").clone();
            let query_graph = QueryGraph::from_select(&select, db.catalog()).expect("query graph");
            let before = counters();
            ENABLED.store(true, Ordering::Relaxed);
            let personalized = personalize_prepared(&select, &query_graph, &graph, options)
                .expect("personalization");
            ENABLED.store(false, Ordering::Relaxed);
            select_allocs += counters().0 - before.0;

            // Single-threaded from here to the second snapshot: the counters
            // see this call and nothing else.
            let before = counters();
            ENABLED.store(true, Ordering::Relaxed);
            // The serving layer keeps the plan and drops the rest.
            let (plan, built, rewrite) = {
                let choice =
                    build_execution(db, &personalized, Rewrite::Auto, None).expect("build");
                let built = (choice.alternatives.iter())
                    .filter(|(_, cost)| matches!(cost, CandidateCost::Plan(_)))
                    .count();
                (choice.plan, built, choice.rewrite)
            };
            ENABLED.store(false, Ordering::Relaxed);
            let after = counters();
            builds += 1;
            candidates_built += built as u64;
            allocs += after.0 - before.0;
            live_allocs += after.1 - before.1;
            live_bytes += after.2 - before.2;
            if rewrite == Rewrite::NativeRank {
                native.run(db, &plan);
            }
            // Dropped uncounted, so the live counters keep each plan's share.
            drop(plan);
        }
    }
    native.check();
    println!("graph edges digest {:#018x}", digest.0);
    assert_eq!(digest.0, GRAPH_EDGES_DIGEST, "the edges of the population's graphs, in order");

    let per_build = allocs / builds;
    let plan_allocs = live_allocs / builds as i64;
    let plan_bytes = live_bytes / builds as i64;
    let per_select = select_allocs / builds;
    println!(
        "{builds} builds: {per_build} allocations per build_execution; a retained plan holds \
         {plan_allocs} live allocations / {plan_bytes} B; {candidates_built} candidates built"
    );
    println!("{per_select} allocations per personalize_prepared");
    assert!(
        per_select <= MAX_ALLOCS_PER_PERSONALIZE,
        "{per_select} allocations per personalize_prepared (ceiling {MAX_ALLOCS_PER_PERSONALIZE})"
    );
    assert!(
        candidates_built * 10 <= builds * MAX_TENTHS_BUILT_PER_CHOICE,
        "{candidates_built} candidates built over {builds} Auto choices (ceiling {}.{} each)",
        MAX_TENTHS_BUILT_PER_CHOICE / 10,
        MAX_TENTHS_BUILT_PER_CHOICE % 10
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

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Each field ends with a separator byte, so no two field lists collide
    /// by shifting a boundary.
    fn field(&mut self, bytes: &[u8]) {
        self.eat(bytes);
        self.eat(&[0xFF]);
    }

    /// Every edge `graph` hands out, table by table in catalog order.
    fn graph(&mut self, graph: &InMemoryGraph, db: &Database) {
        for table in db.catalog().table_names() {
            self.field(table.as_bytes());
            for e in graph.joins_from(&table) {
                for part in [&e.from.table, &e.from.column, &e.to.table, &e.to.column] {
                    self.field(part.as_bytes());
                }
                self.field(&e.doi.value().to_bits().to_le_bytes());
                self.field(&[u8::from(e.cardinality == Cardinality::ToOne)]);
            }
            for e in graph.selections_of(&table) {
                self.field(e.attr.table.as_bytes());
                self.field(e.attr.column.as_bytes());
                self.field(format!("{:?}", e.value).as_bytes());
                self.field(&e.doi.value().to_bits().to_le_bytes());
            }
        }
    }
}

/// What the native rank operator's `run_plan`s add up to.
#[derive(Default)]
struct NativeRuns {
    runs: u64,
    allocs: u64,
    rows: usize,
    scanned: u64,
    charged: u64,
    pruned: i64,
    skipped: i64,
}

impl NativeRuns {
    /// Run `plan` once, counting its allocations, governor progress and
    /// the operator's pruning counters.
    fn run(&mut self, db: &Database, plan: &Plan) {
        let topk = |name| pqp_obs::metrics::global_snapshot().counter(name);
        let (pruned, skipped) = (topk("topk.groups_pruned"), topk("topk.passes_skipped"));
        let ctx = QueryCtx::unlimited();
        let before = counters();
        ENABLED.store(true, Ordering::Relaxed);
        let answer = db.run_plan_ctx(plan, &ExecOptions::default(), &ctx).expect("execution");
        ENABLED.store(false, Ordering::Relaxed);
        self.allocs += counters().0 - before.0;
        self.runs += 1;
        self.rows += answer.rows.len();
        self.scanned += ctx.progress().rows_scanned;
        self.charged += ctx.progress().mem_bytes;
        self.pruned += topk("topk.groups_pruned") - pruned;
        self.skipped += topk("topk.passes_skipped") - skipped;
    }

    fn check(&self) {
        let runs = self.runs;
        let per_run = self.allocs / runs.max(1);
        println!(
            "{runs} native runs ({} rows out): {per_run} allocations per run_plan; {} rows \
             scanned / {} B charged to the governor; {} groups pruned, {} passes skipped",
            self.rows, self.scanned, self.charged, self.pruned, self.skipped
        );
        assert_eq!(runs, NATIVE_RUNS, "keys whose Auto choice is native");
        assert_eq!(self.scanned, NATIVE_ROWS_SCANNED, "rows scanned by the {runs} native runs");
        assert_eq!(self.charged, NATIVE_CHARGED_BYTES, "bytes charged by the {runs} native runs");
        assert_eq!(self.pruned, NATIVE_GROUPS_PRUNED, "topk.groups_pruned over the native runs");
        assert_eq!(self.skipped, NATIVE_PASSES_SKIPPED, "topk.passes_skipped over the native runs");
        assert!(
            per_run <= MAX_ALLOCS_PER_NATIVE_RUN,
            "{per_run} allocations per native run_plan (ceiling {MAX_ALLOCS_PER_NATIVE_RUN})"
        );
    }
}

/// `Database::run_plan` of every built plan of the `rank_exec` population:
/// what a plan-cache hit executes.
fn execution_side(db: &Database, pools: &ValuePools) {
    let profiles = generate_profiles(
        "user",
        EXEC_USERS,
        pools,
        &ProfileGenConfig { selections: 60, join_coverage: 1.0, seed: 11 },
    );
    let sqls = distinct_texts(EXEC_TEXTS, pools, &QueryGenConfig::broad());
    let options = PersonalizeOptions::builder().k(12).l(2).ranked().build();

    let (mut runs, mut allocs, mut requested, mut rows) = (0u64, 0u64, 0u64, 0usize);
    let (mut scanned, mut charged) = (0u64, 0u64);
    for profile in &profiles {
        let graph = InMemoryGraph::build(profile, db.catalog()).expect("profile graph");
        for sql in &sqls {
            let query = pqp_sql::parse_query(sql).expect("generated SQL parses");
            let select = query.as_select().expect("plain SELECT").clone();
            let query_graph = QueryGraph::from_select(&select, db.catalog()).expect("query graph");
            let personalized = personalize_prepared(&select, &query_graph, &graph, options)
                .expect("personalization");
            let plan = build_execution(db, &personalized, Rewrite::Mq, None).expect("build").plan;

            let ctx = QueryCtx::unlimited();
            let before = (counters(), REQUESTED_BYTES.load(Ordering::Relaxed));
            ENABLED.store(true, Ordering::Relaxed);
            let answer = db.run_plan_ctx(&plan, &ExecOptions::default(), &ctx).expect("execution");
            ENABLED.store(false, Ordering::Relaxed);
            let after = (counters(), REQUESTED_BYTES.load(Ordering::Relaxed));
            runs += 1;
            allocs += after.0 .0 - before.0 .0;
            requested += after.1 - before.1;
            rows += answer.rows.len();
            scanned += ctx.progress().rows_scanned;
            charged += ctx.progress().mem_bytes;
        }
    }

    let per_run = allocs / runs;
    let bytes_per_run = requested / runs;
    println!(
        "{runs} runs ({rows} rows out): {per_run} allocations / {bytes_per_run} B requested \
         per run_plan; {scanned} rows scanned / {charged} B charged to the governor ({:.1} / {:.1} \
         per run_plan)",
        scanned as f64 / runs as f64,
        charged as f64 / runs as f64
    );
    assert_eq!(scanned, ROWS_SCANNED, "rows scanned by the {runs} run_plans");
    assert_eq!(charged, CHARGED_BYTES, "bytes charged to the governor by the {runs} run_plans");
    assert!(
        per_run <= MAX_ALLOCS_PER_RUN,
        "{per_run} allocations per run_plan (ceiling {MAX_ALLOCS_PER_RUN})"
    );
    assert!(
        bytes_per_run <= MAX_BYTES_PER_RUN,
        "{bytes_per_run} B requested per run_plan (ceiling {MAX_BYTES_PER_RUN})"
    );
}

/// A `Service` over `db` filled with the `cold_read`-shaped population:
/// the live bytes per plan-cache entry, and none left once every entry is
/// dropped.
fn cache_side(db: Database, pools: &ValuePools) {
    let profiles = generate_profiles(
        "user",
        USERS,
        pools,
        &ProfileGenConfig { selections: 150, join_coverage: 1.0, seed: 11 },
    );
    let users: Vec<String> = profiles.iter().map(|p| p.user.clone()).collect();
    let sqls = distinct_texts(TEXTS, pools, &QueryGenConfig::default());
    let options = PersonalizeOptions::builder().k(10).l(1).build();
    // A query-log ring of one record and no slow-query ring: what the log
    // keeps does not grow with the fill.
    let telemetry = TelemetryConfig {
        query_log_capacity: 1,
        slow_log_capacity: 1,
        slow_query_ms: 0,
        log_file: None,
    };
    let service = Service::with_config(db, ServiceConfig { telemetry, ..ServiceConfig::default() });
    for profile in profiles {
        service.install_profile(profile).expect("install profile");
    }
    let fill = || {
        for user in &users {
            let session =
                service.session(user.as_str()).with_options(options).with_rewrite(Rewrite::Auto);
            for sql in &sqls {
                session.query(sql).expect("query");
            }
        }
    };
    let empty = || {
        service.clear_caches();
        for sql in &sqls {
            service.prepare_sql(sql).expect("prepare");
        }
    };
    // A first fill builds every user's graph and grows the cache's map and
    // queue to the population; emptied again, only the plans are gone.
    fill();
    empty();

    let misses = service.cache_stats().plans.misses;
    let before = counters();
    ENABLED.store(true, Ordering::Relaxed);
    fill();
    ENABLED.store(false, Ordering::Relaxed);
    let filled = counters();
    let stats = service.cache_stats().plans;
    ENABLED.store(true, Ordering::Relaxed);
    empty();
    ENABLED.store(false, Ordering::Relaxed);
    let after = counters();

    let entries = (USERS * TEXTS) as i64;
    assert_eq!(stats.misses - misses, entries as u64, "every query of the fill misses");
    assert_eq!(stats.evictions, 0, "the cache holds the whole population");
    let per_entry = (filled.2 - before.2) / entries;
    println!(
        "{entries} plan-cache entries hold {per_entry} live B each; emptied, the service holds \
         {} B more than before the fill",
        after.2 - before.2
    );
    assert!(
        (after.2 - before.2).abs() <= MAX_BYTES_LEFT_BEHIND,
        "dropping every plan-cache entry leaves {} B behind (at most {MAX_BYTES_LEFT_BEHIND})",
        after.2 - before.2
    );
    assert!(
        per_entry <= MAX_BYTES_PER_CACHE_ENTRY,
        "a plan-cache entry holds {per_entry} B (ceiling {MAX_BYTES_PER_CACHE_ENTRY})"
    );
    profile_store(&service, &users);
    profile_mutation(&service, pools);
    leader_mutation(Arc::new(service), pools);
}

/// The live allocations and bytes the profile store keeps per user, every
/// graph built and the caller's profiles long dropped: what removing every
/// user gives back (the plan cache is empty, so removal sweeps no plan).
fn profile_store(service: &Service, users: &[String]) {
    let users: Vec<UserId> = users.iter().map(|u| UserId::from(u.as_str())).collect();
    let before = counters();
    ENABLED.store(true, Ordering::Relaxed);
    for user in &users {
        assert!(service.remove_profile(user.clone()), "{user} was installed");
    }
    ENABLED.store(false, Ordering::Relaxed);
    let after = counters();
    let n = users.len() as i64;
    let (allocs, bytes) = ((before.1 - after.1) / n, (before.2 - after.2) / n);
    println!("the profile store keeps {allocs} live allocations / {bytes} B per user");
    assert!(
        allocs <= MAX_STORE_ALLOCS_PER_USER,
        "the profile store keeps {allocs} allocations per user (ceiling \
         {MAX_STORE_ALLOCS_PER_USER})"
    );
    assert!(
        bytes <= MAX_STORE_BYTES_PER_USER,
        "the profile store keeps {bytes} B per user (ceiling {MAX_STORE_BYTES_PER_USER})"
    );
}

/// Allocations per `Service::add_selection` that overwrites one preference
/// of a 4-selection, join-free profile: the `profile_write` workload's
/// mutation, without the log and the wire around it.
fn profile_mutation(service: &Service, pools: &ValuePools) {
    const ROUNDS: usize = 16;
    let config = ProfileGenConfig { selections: 4, join_coverage: 0.0, seed: 11 };
    let profile = generate_profiles("writer", 1, pools, &config).remove(0);
    let user = UserId::from(profile.user.as_str());
    let items: Vec<_> = (profile.preferences().iter())
        .map(|p| match p {
            pqp_core::AtomicPreference::Selection { attr, value, .. } => {
                (attr.table.clone(), attr.column.clone(), value.clone())
            }
            pqp_core::AtomicPreference::Join { .. } => unreachable!("a join-free profile"),
        })
        .collect();
    assert_eq!(items.len(), 4);
    service.install_profile(profile).expect("install profile");
    let before = counters();
    ENABLED.store(true, Ordering::Relaxed);
    for round in 0..ROUNDS {
        for (i, (table, column, value)) in items.iter().enumerate() {
            let doi = 0.05 + 0.9 * ((round * 4 + i) % 17) as f64 / 17.0;
            service.add_selection(user.clone(), table, column, value.clone(), doi).expect("mutate");
        }
    }
    ENABLED.store(false, Ordering::Relaxed);
    let per_mutation = (counters().0 - before.0) / (ROUNDS * items.len()) as u64;
    println!("{per_mutation} allocations per Service::add_selection");
    assert!(
        per_mutation <= MAX_ALLOCS_PER_MUTATION,
        "{per_mutation} allocations per Service::add_selection (ceiling {MAX_ALLOCS_PER_MUTATION})"
    );
}

/// Allocations per leader `ReplNode::client_mutate` that overwrites one
/// preference of a 4-selection, join-free user, at quorum 1 with no peers
/// and the log in a fresh temporary directory: the `profile_write`
/// workload's mutation on the leader, without the wire around it.
fn leader_mutation(service: Arc<Service>, pools: &ValuePools) {
    const ROUNDS: usize = 16;
    let dir = std::env::temp_dir().join(format!("pqp_plan_footprint_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let node = ReplNode::open(service, ReplConfig::new("footprint", &dir)).expect("open the log");
    let config = ProfileGenConfig { selections: 4, join_coverage: 0.0, seed: 11 };
    let profile = generate_profiles("leader", 1, pools, &config).remove(0);
    let user = UserId::from(profile.user.as_str());
    let op = |p: &pqp_core::AtomicPreference, doi: f64| match p {
        pqp_core::AtomicPreference::Selection { attr, value, .. } => ProfileOp::AddSelection {
            table: attr.table.to_string(),
            column: attr.column.to_string(),
            value: value.clone(),
            doi,
        },
        pqp_core::AtomicPreference::Join { .. } => unreachable!("a join-free profile"),
    };
    let ops: Vec<ProfileOp> = profile.preferences().iter().map(|p| op(p, 0.5)).collect();
    assert_eq!(ops.len(), 4);
    for op in &ops {
        node.client_mutate(&user, op.clone()).expect("install through the log");
    }
    let rounds: Vec<ProfileOp> = (0..ROUNDS)
        .flat_map(|round| {
            profile
                .preferences()
                .iter()
                .enumerate()
                .map(move |(i, p)| op(p, 0.05 + 0.9 * ((round * 4 + i) % 17) as f64 / 17.0))
        })
        .collect();
    let before = counters();
    ENABLED.store(true, Ordering::Relaxed);
    for op in rounds {
        node.client_mutate(&user, op).expect("mutate through the log");
    }
    ENABLED.store(false, Ordering::Relaxed);
    let per_mutation = (counters().0 - before.0) / (ROUNDS * ops.len()) as u64;
    drop(node);
    let _ = std::fs::remove_dir_all(&dir);
    println!("{per_mutation} allocations per leader ReplNode::client_mutate");
    assert!(
        per_mutation <= MAX_ALLOCS_PER_LEADER_MUTATION,
        "{per_mutation} allocations per leader client_mutate (ceiling \
         {MAX_ALLOCS_PER_LEADER_MUTATION})"
    );
}
