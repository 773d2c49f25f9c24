//! # pqp-service — the concurrent multi-user serving layer
//!
//! The paper (§4, Fig. 2) frames query personalization as a layer sitting in
//! front of a live DBMS, serving many users' profiles concurrently. This
//! crate is that layer: a [`Service`] owns one shared [`Database`] plus a
//! **sharded profile store** (N shards, each behind an `RwLock`, keyed by
//! [`UserId`]), and exposes one front door — [`Session::query`] — that runs
//! parse → personalize → integrate → plan → execute end-to-end and returns
//! a single [`Result<Answer, Error>`](Error).
//!
//! Repeated traffic is fast because two caches sit on the hot path:
//!
//! - the **prepared-query cache** maps SQL text to its parsed SELECT and
//!   [`QueryGraph`] — both user-independent, so one entry serves every user;
//! - the **personalized-plan cache** maps `(user, canonical query, options,
//!   rewrite)` to a fully planned physical [`Plan`],
//!   invalidated per-user by an **epoch**: every profile mutation stamps the
//!   user with a fresh epoch, and cached plans carry the epoch they were
//!   built under, so a stale plan is never served (it is recomputed lazily
//!   on the next lookup).
//!
//! Both caches publish hit/miss/stale/eviction counters through
//! [`pqp_obs`] (`service.prepared_cache.*`, `service.plan_cache.*`) and
//! locally via [`Service::cache_stats`].
//!
//! ```
//! use pqp_core::{PersonalizeOptions, Profile};
//! # use pqp_engine::Database;
//! # use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema};
//! # let mut catalog = Catalog::new();
//! # catalog.create_table(TableSchema::new("MOVIE", vec![
//! #     ColumnDef::new("mid", DataType::Int),
//! #     ColumnDef::new("title", DataType::Str),
//! # ]).with_primary_key(&["mid"])).unwrap();
//! # catalog.create_table(TableSchema::new("GENRE", vec![
//! #     ColumnDef::new("mid", DataType::Int),
//! #     ColumnDef::new("genre", DataType::Str),
//! # ])).unwrap();
//! let service = pqp_service::Service::new(Database::new(catalog));
//! let mut julie = Profile::new("julie");
//! julie.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
//! julie.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
//! service.install_profile(julie).unwrap();
//!
//! let session = service
//!     .session("julie")
//!     .with_options(PersonalizeOptions::builder().k(2).l(1).build());
//! let answer = session.query("select MV.title from MOVIE MV").unwrap();
//! assert_eq!(answer.meta.k, 1);
//! ```

mod cache;
mod error;
pub mod telemetry;

pub use error::{Error, ErrorCode, Result};
pub use telemetry::{
    FollowerLag, PhaseBreakdown, QueryLog, QueryRecord, ReplStatus, Telemetry, TelemetryConfig,
    TelemetrySnapshot,
};

use cache::{FifoCache, Inserted};
use pqp_core::graph::InMemoryGraph;
use pqp_core::query_graph::QueryGraph;
use pqp_core::{
    personalize_prepared_ctx, InterestCriterion, MandatorySpec, MatchSpec, PersonalizeOptions,
    PrefError, Profile, Rewrite,
};
use pqp_engine::plan::Plan;
use pqp_engine::{Database, Estimator, ExecOptions, ResultSet};
use pqp_obs::failpoint::Failpoints;
use pqp_obs::{Budget, BudgetReason, CacheSnapshot, CacheStats, QueryCtx};
use pqp_sql::ast::{Query, Select};
use pqp_sql::{ShowStmt, Statement};
use pqp_storage::sync::RwLock;
use pqp_storage::{ShardedMap, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A user identifier: the key of the sharded profile store. Its bytes are
/// shared, so cloning one — every plan-cache key holds one — is a
/// reference-count increment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(Arc<str>);

impl UserId {
    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for UserId {
    fn from(s: &str) -> UserId {
        UserId(Arc::from(s))
    }
}

impl From<String> for UserId {
    fn from(s: String) -> UserId {
        UserId(Arc::from(s))
    }
}

impl AsRef<str> for UserId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Number of profile-store shards.
const PROFILE_SHARDS: usize = 16;

/// Capacity of the prepared-query cache (entries).
const PREPARED_CAPACITY: usize = 512;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the personalized-plan cache (entries).
    pub plan_capacity: usize,
    /// Personalization options used when a session does not override them.
    pub options: PersonalizeOptions,
    /// Rewrite executed when a session does not override it.
    pub rewrite: Rewrite,
    /// Vestige: the field-less [`ExecOptions`], kept only because the
    /// benchmark reads `config().exec` (ROADMAP item 1 removes it).
    pub exec: ExecOptions,
    /// Default per-query governor budget (deadline / rows scanned / memory),
    /// unlimited by default. Sessions override it per query with
    /// [`Session::with_budget`].
    pub budget: Budget,
    /// Admission control: the maximum number of queries in flight before
    /// new ones are refused with [`Error::Overloaded`] (`0` = unlimited, the
    /// default).
    /// Behind `pqp-server`, queries run in a fixed number of run slots, and
    /// a query waiting for a slot counts against this limit like a running
    /// one: the server refuses it with `Overloaded` before it queues.
    pub max_in_flight: usize,
    /// Always-on telemetry: query-log capacities, slow-query threshold
    /// and the optional JSON-lines sink. See [`TelemetryConfig`].
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            plan_capacity: 4096,
            options: PersonalizeOptions::builder().k(3).l(1).build(),
            rewrite: Rewrite::Mq,
            exec: ExecOptions::default(),
            budget: Budget::unlimited(),
            max_in_flight: 0,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// How far personalization was stepped down to fit the query budget.
///
/// The ladder follows the paper's knobs: first shrink the number of
/// selected preferences K (§5), then shrink it further while forcing the
/// cheap native rank operator, then keep only the mandatory subset M
/// (§4), and finally fall back to the original, unpersonalized query —
/// the paper's own graceful floor ("users without preferences get the
/// query's plain semantics"). Each query reports the level it ran at in
/// [`AnswerMeta::degraded`] and in the `service.degrade.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradeLevel {
    /// Full personalization, as requested.
    None,
    /// K halved (floor 1); non-top-K criteria step down to top-2.
    ReducedK,
    /// K quartered (floor 1) *and* the rewrite is forced through the
    /// native rank operator, whose early termination makes it the
    /// cheapest personalized execution — one rung above dropping the
    /// optional preferences entirely. Falls back to MQ automatically on
    /// shapes the operator does not support.
    NativeReducedK,
    /// Only the mandatory preferences M are kept; the at-least-L match
    /// requirement is dropped.
    MandatoryOnly,
    /// The original query ran with no personalization at all.
    Unpersonalized,
}

impl DegradeLevel {
    /// The ladder, mildest first.
    pub const LADDER: [DegradeLevel; 5] = [
        DegradeLevel::None,
        DegradeLevel::ReducedK,
        DegradeLevel::NativeReducedK,
        DegradeLevel::MandatoryOnly,
        DegradeLevel::Unpersonalized,
    ];

    /// Label used in traces and counters.
    pub fn label(self) -> &'static str {
        match self {
            DegradeLevel::None => "none",
            DegradeLevel::ReducedK => "reduced-k",
            DegradeLevel::NativeReducedK => "native-reduced-k",
            DegradeLevel::MandatoryOnly => "mandatory-only",
            DegradeLevel::Unpersonalized => "unpersonalized",
        }
    }

    /// Step the personalization options down to this level.
    fn apply(self, opts: PersonalizeOptions) -> PersonalizeOptions {
        let mut o = opts;
        match self {
            DegradeLevel::None | DegradeLevel::Unpersonalized => {}
            DegradeLevel::ReducedK => {
                o.criterion = match o.criterion {
                    InterestCriterion::TopK(k) => InterestCriterion::TopK((k / 2).max(1)),
                    _ => InterestCriterion::TopK(2),
                };
            }
            DegradeLevel::NativeReducedK => {
                o.criterion = match o.criterion {
                    InterestCriterion::TopK(k) => InterestCriterion::TopK((k / 4).max(1)),
                    _ => InterestCriterion::TopK(1),
                };
            }
            DegradeLevel::MandatoryOnly => {
                let m = match o.mandatory {
                    MandatorySpec::Count(m) => m,
                    _ => 0,
                };
                o.criterion = InterestCriterion::TopK(m);
                o.matching = MatchSpec::AtLeast(0);
            }
        }
        o
    }
}

impl fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one personalized query: the rows plus a stable,
/// wire-serializable metadata tail ([`AnswerMeta`]).
///
/// This is the client-facing answer shape of *both* backends — the
/// in-process [`Session`] and the TCP `pqp_wire::Client` return the same
/// struct — so its fields are a versioned public surface: additions go
/// through [`AnswerMeta`] and a protocol-version bump, never through
/// backend-specific side channels.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The rows the executed rewrite returned (column names + tuples).
    pub rows: ResultSet,
    /// How the answer was produced: rewrite, K/M, degradation, cache
    /// outcome and rows scanned.
    pub meta: AnswerMeta,
}

impl Answer {
    /// Assemble an answer (used by remote clients decoding result frames).
    pub fn new(rows: ResultSet, meta: AnswerMeta) -> Answer {
        Answer { rows, meta }
    }
}

/// The telemetry tail of an [`Answer`]: everything about *how* the answer
/// was produced, in a shape that serializes verbatim onto the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerMeta {
    /// The rewrite that ran.
    pub rewrite: Rewrite,
    /// K: number of preferences selected for this user/query pair.
    pub k: usize,
    /// M: how many of them were mandatory.
    pub m: usize,
    /// How far personalization was stepped down to fit the query budget
    /// ([`DegradeLevel::None`] when it ran as requested).
    pub degraded: DegradeLevel,
    /// How the personalized-plan cache treated this query.
    pub cache: CacheOutcome,
    /// Rows the executor scanned to produce the answer (the governor's
    /// progress counter at completion).
    pub rows_scanned: u64,
}

/// How the personalized-plan cache treated one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// A cached plan built under the user's current epoch was served.
    Hit,
    /// A cached plan existed but was built under a dead epoch; recomputed.
    Stale,
    /// No cached plan; computed and (at full fidelity) cached.
    Miss,
    /// The cache was not consulted (introspection, degraded answers).
    Bypass,
}

impl CacheOutcome {
    /// Whether the plan was served from the cache.
    pub fn is_hit(self) -> bool {
        self == CacheOutcome::Hit
    }

    /// Label used in traces, counters and the query log.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Stale => "stale",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The one client-facing query API, implemented by both backends: the
/// in-process [`Session`] and the TCP `pqp_wire::Client`. Examples, benches
/// and tests written against `&mut impl QueryApi` run unchanged over either.
///
/// Methods take `&mut self` for the lowest common denominator: a remote
/// client owns a socket. The in-process implementation is internally
/// synchronized and ignores the exclusivity.
pub trait QueryApi {
    /// The user this handle acts as.
    fn user_id(&self) -> &str;

    /// Run one personalized query end-to-end: parse → personalize →
    /// integrate → plan → execute, returning rows plus [`AnswerMeta`].
    fn query(&mut self, sql: &str) -> Result<Answer>;

    /// Parse + validate a query, warming the prepared cache; returns the
    /// canonical SQL text.
    fn prepare(&mut self, sql: &str) -> Result<String>;

    /// Add (or update) a selection preference for this user, bumping the
    /// user's invalidation epoch.
    fn add_selection(&mut self, table: &str, column: &str, value: Value, doi: f64) -> Result<()>;

    /// Add (or update) a directed join preference for this user, bumping
    /// the user's invalidation epoch.
    fn add_join(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
        doi: f64,
    ) -> Result<()>;

    /// Remove this user's profile (subsequent queries run unpersonalized).
    /// Returns whether one was stored.
    fn remove_profile(&mut self) -> Result<bool>;
}

/// One user's stored state for one epoch: its invalidation epoch and its
/// personalization graph, which is the only stored form of the profile.
///
/// The store holds entries behind an `Arc`, so a plan-cache miss snapshots a
/// user by reference count. The graph is built (and the profile validated)
/// once, when a mutation commits, outside the shard lock. A mutation never
/// edits an entry — it mints a new one — so a graph serves exactly the epoch
/// it was built for, and it is dropped with that epoch's last snapshot.
#[derive(Debug)]
struct ProfileEntry {
    epoch: u64,
    graph: InMemoryGraph,
}

/// A parsed, graphed query — user-independent, shared across users.
#[derive(Debug)]
struct Prepared {
    select: Select,
    graph: QueryGraph,
    /// The canonical printed form, used as the plan-cache key component so
    /// textual variants of the same query share plan entries. Every key and
    /// query-log observation of this query shares the one allocation.
    canonical: Arc<str>,
}

/// Personalized-plan cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    user: UserId,
    canonical: Arc<str>,
    /// Canonical fingerprint of the [`PersonalizeOptions`] (K/M/L,
    /// criterion, rank).
    opts: OptionsKey,
    rewrite: Rewrite,
    /// The catalog's statistics epoch at plan time. `ANALYZE` bumps it, so
    /// plans chosen under old statistics miss and are re-planned.
    stats_epoch: u64,
}

/// A canonical, hashable image of [`PersonalizeOptions`], spelled out field
/// by field (`f64` thresholds keyed by [`f64::to_bits`]) so cache-key
/// injectivity is a compile-checked property of this mapping rather than an
/// implicit contract on `derive(Debug)` output staying unambiguous.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct OptionsKey {
    criterion: CriterionKey,
    mandatory: MandatoryKey,
    matching: MatchKey,
    rank: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CriterionKey {
    TopK(usize),
    MinDegree(u64),
    DisjunctionAbove(u64),
    ConjunctionAbove(u64),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MandatoryKey {
    None,
    Count(usize),
    DegreeAtLeast(u64),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MatchKey {
    AtLeast(usize),
    MinDegree(u64),
}

impl From<&PersonalizeOptions> for OptionsKey {
    fn from(o: &PersonalizeOptions) -> OptionsKey {
        OptionsKey {
            criterion: match o.criterion {
                InterestCriterion::TopK(r) => CriterionKey::TopK(r),
                InterestCriterion::MinDegree(d) => CriterionKey::MinDegree(d.to_bits()),
                InterestCriterion::DisjunctionAbove(d) => {
                    CriterionKey::DisjunctionAbove(d.to_bits())
                }
                InterestCriterion::ConjunctionAbove(d) => {
                    CriterionKey::ConjunctionAbove(d.to_bits())
                }
            },
            mandatory: match o.mandatory {
                MandatorySpec::None => MandatoryKey::None,
                MandatorySpec::Count(m) => MandatoryKey::Count(m),
                MandatorySpec::DegreeAtLeast(d) => MandatoryKey::DegreeAtLeast(d.to_bits()),
            },
            matching: match o.matching {
                MatchSpec::AtLeast(l) => MatchKey::AtLeast(l),
                MatchSpec::MinDegree(d) => MatchKey::MinDegree(d.to_bits()),
            },
            rank: o.rank,
        }
    }
}

/// A cached personalized plan, valid while the user's epoch matches.
///
/// The plan shares its schemas and every table/column name with the catalog
/// and with its own sub-plans, so an entry pins the operator tree and its
/// bound expressions; the row estimate is kept from the pass that priced the
/// plan, so a hit never walks it again.
#[derive(Debug)]
struct CachedPlan {
    epoch: u64,
    plan: Plan,
    /// The strategy layer's row estimate for `plan` (query-log telemetry).
    est_rows: f64,
    /// The rewrite the strategy layer resolved to (never `Auto`): a hit
    /// must report the same [`AnswerMeta::rewrite`] the miss did.
    rewrite: Rewrite,
    k: usize,
    m: usize,
}

/// The serving layer: one database, many users, one front door.
///
/// `Service` is `Sync`: queries and profile mutations may run from any
/// number of threads. See the crate docs for the cache and
/// invalidation design, and `tests/concurrency.rs` for the guarantees under
/// contention.
pub struct Service {
    db: Database,
    config: ServiceConfig,
    /// Queries currently inside [`Service::query`]; admission control
    /// compares it against `config.max_in_flight`.
    in_flight: AtomicUsize,
    profiles: ShardedMap<UserId, Arc<ProfileEntry>>,
    /// The graph of a user with no stored profile: no preferences.
    no_profile: InMemoryGraph,
    /// Source of profile epochs: globally monotonic per service, so a
    /// removed-and-reinstalled user can never collide with plans cached
    /// under an earlier epoch (no ABA).
    epoch_source: AtomicU64,
    prepared: RwLock<FifoCache<Arc<str>, Arc<Prepared>>>,
    plans: RwLock<FifoCache<Arc<PlanKey>, Arc<CachedPlan>>>,
    prepared_stats: CacheStats,
    plan_stats: CacheStats,
    telemetry: Telemetry,
}

/// Cache counters of a service, one snapshot per cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCacheStats {
    /// Prepared-query cache (SQL text → AST + query graph).
    pub prepared: CacheSnapshot,
    /// Personalized-plan cache.
    pub plans: CacheSnapshot,
}

impl Service {
    /// Wrap a database with the default [`ServiceConfig`].
    pub fn new(db: Database) -> Service {
        Service::with_config(db, ServiceConfig::default())
    }

    /// Wrap a database with an explicit configuration.
    pub fn with_config(db: Database, config: ServiceConfig) -> Service {
        Service {
            db,
            in_flight: AtomicUsize::new(0),
            profiles: ShardedMap::new(PROFILE_SHARDS),
            no_profile: InMemoryGraph::default(),
            epoch_source: AtomicU64::new(0),
            prepared: RwLock::new(FifoCache::new(PREPARED_CAPACITY)),
            plans: RwLock::new(FifoCache::new(config.plan_capacity)),
            prepared_stats: CacheStats::new("service.prepared_cache"),
            plan_stats: CacheStats::new("service.plan_cache"),
            telemetry: Telemetry::new(config.telemetry.clone()),
            config,
        }
    }

    /// The always-on telemetry: query log, windowed latency, SLO counters.
    /// The same data is reachable in-band through `SHOW METRICS`,
    /// `SHOW QUERIES [LIMIT n]` and `SHOW CACHES`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// This node's failpoint registry: the database catalog's, which the
    /// engine, the service and the server layers in front of it all fire on.
    pub fn failpoints(&self) -> &Failpoints {
        self.db.catalog().failpoints()
    }

    /// The `shard.lock` failpoint, fired under a profile shard's write lock:
    /// `panic` poisons the lock (which the store recovers from), and an
    /// `error` cannot leave the closure, so it panics too.
    fn shard_lock_failpoint(&self) {
        if let Some(msg) = self.failpoints().fire("shard.lock") {
            panic!("failpoint shard.lock: {msg}");
        }
    }

    // ---- profile store ----------------------------------------------------

    fn next_epoch(&self) -> u64 {
        self.epoch_source.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Install (or replace) a user's profile. The profile is validated
    /// against the database schema while its graph is built; installing
    /// always advances the user's epoch, invalidating any cached plans.
    pub fn install_profile(&self, profile: Profile) -> Result<()> {
        let graph = InMemoryGraph::build(&profile, self.db.catalog())?;
        let user = UserId::from(profile.user);
        // Draw the epoch under the shard write lock so epochs stored for
        // one user are strictly increasing even across racing installs. The
        // entry it replaces is dropped after the lock is released.
        let _replaced = self.profiles.write(&user, |shard| {
            self.shard_lock_failpoint();
            let epoch = self.next_epoch();
            shard.insert(user.clone(), Arc::new(ProfileEntry { epoch, graph }))
        });
        Ok(())
    }

    /// Remove a user's profile. Returns whether one was stored. Subsequent
    /// queries for the user run unpersonalized.
    ///
    /// The user's cached plans could never be served again anyway (their
    /// epochs are dead), so they are swept from the plan cache eagerly —
    /// under user churn they would otherwise occupy `plan_capacity` until
    /// FIFO eviction got around to them. Swept entries count as evictions
    /// in [`Service::cache_stats`].
    pub fn remove_profile(&self, user: impl Into<UserId>) -> bool {
        let user = user.into();
        let removed = self.profiles.remove(&user).is_some();
        if removed {
            let swept = self.plans.write().retain(|k, _| k.user != user);
            for _ in 0..swept {
                self.plan_stats.eviction();
            }
        }
        removed
    }

    /// Mutate a user's profile in place (creating an empty one if absent —
    /// upsert semantics), bumping the user's epoch iff the closure actually
    /// mutated it. The mutated profile is re-validated against the schema
    /// while its graph is built; on validation failure the store is left
    /// unchanged.
    ///
    /// The closure runs on a profile read back from the stored graph,
    /// outside any lock (it is caller code and must not block the shard),
    /// and the result is committed under the shard write lock only if no
    /// other mutation landed in between — the stored epoch is the version
    /// token, and epochs are never reused. On conflict the closure is re-run
    /// against the then-current profile (optimistic concurrency), so
    /// concurrent mutations to one user are never silently lost; that is why
    /// `f` is `FnMut`, and why it should not have side effects beyond the
    /// profile it is handed.
    pub fn update_profile<R>(
        &self,
        user: impl Into<UserId>,
        mut f: impl FnMut(&mut Profile) -> R,
    ) -> Result<R> {
        let user = user.into();
        loop {
            // Snapshot the entry (one shard read, one reference count); its
            // epoch doubles as the optimistic version token.
            let (mut profile, seen_epoch) = match self.profiles.read(&user, |e| e.cloned()) {
                Some(e) => (e.graph.to_profile(user.as_str()), Some(e.epoch)),
                None => (Profile::new(user.as_str()), None),
            };
            let before = profile.revision();
            let out = f(&mut profile);
            if profile.revision() == before {
                return Ok(out); // no mutation: no commit, no epoch bump
            }
            let graph = InMemoryGraph::build(&profile, self.db.catalog())?;
            drop(profile);
            // Commit iff the stored entry is unchanged since the snapshot.
            // The new epoch is drawn inside the same critical section, so
            // epochs stored for one user are strictly increasing. The entry
            // it replaces is dropped after the lock is released.
            let committed = self.profiles.write(&user, |shard| {
                self.shard_lock_failpoint();
                if shard.get(&user).map(|e| e.epoch) != seen_epoch {
                    return None;
                }
                let epoch = self.next_epoch();
                Some(shard.insert(user.clone(), Arc::new(ProfileEntry { epoch, graph })))
            });
            if committed.is_some() {
                return Ok(out);
            }
            // Lost the race — retry against the fresh state.
        }
    }

    /// Add (or update) a selection preference for a user (upserting an empty
    /// profile), bumping the user's epoch.
    pub fn add_selection(
        &self,
        user: impl Into<UserId>,
        table: &str,
        column: &str,
        value: impl Into<pqp_storage::Value>,
        doi: f64,
    ) -> Result<()> {
        let value = value.into();
        self.update_profile(user, |p| {
            p.add_selection(table, column, value.clone(), doi).map(|_| ())
        })?
        .map_err(Error::from)
    }

    /// Add (or update) a directed join preference for a user (upserting an
    /// empty profile), bumping the user's epoch.
    pub fn add_join(
        &self,
        user: impl Into<UserId>,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
        doi: f64,
    ) -> Result<()> {
        self.update_profile(user, |p| {
            p.add_join(from_table, from_column, to_table, to_column, doi).map(|_| ())
        })?
        .map_err(Error::from)
    }

    /// A snapshot of a user's profile (`None` when nothing is stored), read
    /// back from its stored graph: the preferences installed or committed,
    /// in their order, spellings and degrees.
    pub fn profile(&self, user: impl Into<UserId>) -> Option<Profile> {
        let user = user.into();
        let entry = self.profiles.read(&user, |e| e.cloned())?;
        Some(entry.graph.to_profile(user.as_str()))
    }

    /// The user's current invalidation epoch (0 when no profile is stored).
    pub fn epoch(&self, user: impl Into<UserId>) -> u64 {
        self.epoch_of(&user.into())
    }

    fn epoch_of(&self, user: &UserId) -> u64 {
        self.profiles.read(user, |e| e.map_or(0, |e| e.epoch))
    }

    /// All users with a stored profile.
    pub fn users(&self) -> Vec<UserId> {
        let mut users = self.profiles.keys();
        users.sort();
        users
    }

    // ---- caches -----------------------------------------------------------

    /// Parse + query-graph a SQL text, through the shared prepared cache.
    /// The flag reports whether the cache served it (for the query log).
    fn prepare(&self, sql: &str) -> Result<(Arc<Prepared>, bool)> {
        let key = sql.trim();
        if let Some(p) = self.prepared.read().get(key) {
            self.prepared_stats.hit();
            return Ok((Arc::clone(p), true));
        }
        self.prepared_stats.miss();
        let query = pqp_sql::parse_query(sql)?;
        let select = query
            .as_select()
            .ok_or_else(|| PrefError::UnsupportedQuery("only plain SELECT blocks".into()))?
            .clone();
        let graph = QueryGraph::from_select(&select, self.db.catalog())?;
        let prepared = Arc::new(Prepared { select, graph, canonical: query.to_string().into() });
        let displaced = self.prepared.write().insert(key.into(), Arc::clone(&prepared));
        if matches!(displaced, Inserted::Evicted(_)) {
            self.prepared_stats.eviction();
        }
        Ok((prepared, false))
    }

    /// Parse + validate a query and warm the shared prepared cache,
    /// returning the canonical SQL text (the plan-cache key component).
    /// This is the in-process face of the wire protocol's `Prepare`
    /// message: cheap to call, user-independent, no execution.
    pub fn prepare_sql(&self, sql: &str) -> Result<String> {
        let (prepared, _cached) = self.prepare(sql)?;
        Ok(prepared.canonical.to_string())
    }

    /// Snapshot counters of both caches.
    pub fn cache_stats(&self) -> ServiceCacheStats {
        ServiceCacheStats {
            prepared: self.prepared_stats.snapshot(),
            plans: self.plan_stats.snapshot(),
        }
    }

    /// Drop both caches (profiles and their epochs are untouched).
    pub fn clear_caches(&self) {
        self.prepared.write().clear();
        self.plans.write().clear();
    }

    // ---- the front door ---------------------------------------------------

    /// Open a session for a user, with the service's default options and
    /// rewrite (override per session with [`Session::with_options`] /
    /// [`Session::with_rewrite`]).
    pub fn session(&self, user: impl Into<UserId>) -> Session<'_> {
        Session {
            service: self,
            user: user.into(),
            options: self.config.options,
            rewrite: self.config.rewrite,
            budget: self.config.budget,
        }
    }

    /// Run one personalized query for `user`. Users without a stored
    /// profile get the query's original semantics (zero preferences select,
    /// matching the paper: personalization degrades gracefully to the plain
    /// query).
    ///
    /// The query runs under the service's default governor budget
    /// ([`ServiceConfig::budget`]); see [`Service::query_ctx`] for an
    /// explicit per-query context.
    pub fn query(
        &self,
        user: &UserId,
        sql: &str,
        options: PersonalizeOptions,
        rewrite: Rewrite,
    ) -> Result<Answer> {
        self.query_ctx(user, sql, options, rewrite, &QueryCtx::new(self.config.budget))
    }

    /// [`Service::query`] under an explicit query-governor context: the
    /// caller owns the [`QueryCtx`], so it can cancel the query from
    /// another thread ([`QueryCtx::cancel`]) or inspect partial progress.
    ///
    /// This is also the robustness boundary of the service: admission
    /// control runs first (rejecting with [`Error::Overloaded`] when
    /// [`ServiceConfig::max_in_flight`] queries are already inside), and the
    /// whole pipeline runs under `catch_unwind`, so a panic — real bug or
    /// injected failpoint — fails only this query with
    /// [`Error::Internal`] instead of taking the process down. All locks a
    /// panic can leave behind are poison-recovering.
    pub fn query_ctx(
        &self,
        user: &UserId,
        sql: &str,
        options: PersonalizeOptions,
        rewrite: Rewrite,
        ctx: &QueryCtx,
    ) -> Result<Answer> {
        // In-band introspection is answered before admission control — an
        // operator's `SHOW METRICS` must work precisely when the service is
        // overloaded — and stays out of the query log (no self-noise).
        if is_show(sql) {
            return self.run_show(sql);
        }
        let started = Instant::now();
        let mut obs = Observed::default();
        let mut result = match self.admit() {
            Ok(_admitted) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.query_governed(user, sql, options, rewrite, ctx, &mut obs)
                })) {
                    Ok(result) => result,
                    Err(payload) => {
                        pqp_obs::counter_add("service.panics_caught", 1);
                        self.telemetry.note_panic();
                        Err(Error::Internal(format!(
                            "query pipeline panicked: {}",
                            panic_message(&payload)
                        )))
                    }
                }
            }
            Err(refused) => Err(refused),
        };
        if let Ok(answer) = &mut result {
            answer.meta.rows_scanned = ctx.progress().rows_scanned;
        }
        self.record_query(user, sql, ctx, started, &obs, &result);
        result
    }

    /// Build and log the [`QueryRecord`] for one finished query (success,
    /// error, refusal or caught panic alike).
    fn record_query(
        &self,
        user: &UserId,
        sql: &str,
        ctx: &QueryCtx,
        started: Instant,
        obs: &Observed,
        result: &Result<Answer>,
    ) {
        let progress = ctx.progress();
        let mut phases = obs.phases;
        phases.total_us = started.elapsed().as_micros() as u64;
        let (ok, rows_out, k, m, degrade, error_kind, error) = match result {
            Ok(a) => (true, a.rows.len(), a.meta.k, a.meta.m, a.meta.degraded, None, None),
            Err(e) => (false, 0, 0, 0, DegradeLevel::None, Some(e.kind()), Some(e.to_string())),
        };
        self.telemetry.record(QueryRecord {
            seq: 0, // assigned by the log
            user: user.as_str().to_string(),
            sql: obs.canonical.as_deref().unwrap_or_else(|| sql.trim()).to_string(),
            ok,
            error_kind,
            error,
            phases,
            rows_out,
            rows_scanned: progress.rows_scanned,
            mem_bytes: progress.mem_bytes,
            est_rows: obs.est_rows,
            prepared_cache: obs.prepared_cache,
            plan_cache: obs.plan_cache,
            degrade,
            k,
            m,
            deadline_ms: ctx.deadline_budget().map(|d| d.as_millis() as u64),
            rows_limit: ctx.max_rows_limit(),
            mem_limit: ctx.max_mem_limit(),
            slow: false, // classified by the log
        });
    }

    /// Answer a `SHOW` statement from live telemetry, as an ordinary result
    /// table through the normal [`Answer`] envelope.
    fn run_show(&self, sql: &str) -> Result<Answer> {
        let stmt = pqp_sql::parse_statement(sql)?;
        let Statement::Show(show) = stmt else {
            // `is_show` only matches a leading SHOW word, and the statement
            // grammar has no other production starting with it.
            return Err(Error::Internal("SHOW prefix parsed to a non-SHOW statement".into()));
        };
        let rows = match show {
            ShowStmt::Metrics => {
                let mut table = self.telemetry.metrics_table();
                table.rows.push(vec![Value::str("in_flight"), Value::Int(self.in_flight() as i64)]);
                table
            }
            ShowStmt::Queries { limit } => self.telemetry.queries_table(limit.unwrap_or(20)),
            ShowStmt::Caches => self.caches_table(),
        };
        Ok(Answer {
            rows,
            meta: AnswerMeta {
                rewrite: Rewrite::Original,
                k: 0,
                m: 0,
                degraded: DegradeLevel::None,
                cache: CacheOutcome::Bypass,
                rows_scanned: 0,
            },
        })
    }

    /// The `SHOW CACHES` result table: occupancy and counters per cache.
    fn caches_table(&self) -> ResultSet {
        let stats = self.cache_stats();
        let (prepared_len, prepared_cap) = {
            let c = self.prepared.read();
            (c.len(), c.capacity())
        };
        let (plan_len, plan_cap) = {
            let c = self.plans.read();
            (c.len(), c.capacity())
        };
        let row = |name: &str, len: usize, cap: usize, s: CacheSnapshot| {
            vec![
                Value::str(name),
                Value::Int(len as i64),
                Value::Int(cap as i64),
                Value::Int(s.hits as i64),
                Value::Int(s.misses as i64),
                Value::Int(s.stale as i64),
                Value::Int(s.evictions as i64),
                Value::Float(s.hit_rate()),
            ]
        };
        ResultSet {
            columns: [
                "cache",
                "entries",
                "capacity",
                "hits",
                "misses",
                "stale",
                "evictions",
                "hit_rate",
            ]
            .iter()
            .map(|c| c.to_string())
            .collect(),
            rows: vec![
                row("prepared", prepared_len, prepared_cap, stats.prepared),
                row("plans", plan_len, plan_cap, stats.plans),
            ],
        }
    }

    /// Admission control: reserve an in-flight slot or refuse.
    fn admit(&self) -> Result<InFlightGuard<'_>> {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        let max = self.config.max_in_flight;
        if max != 0 && prev >= max {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            pqp_obs::counter_add("service.admission.rejected", 1);
            return Err(Error::Overloaded { in_flight: prev, max });
        }
        Ok(InFlightGuard(&self.in_flight))
    }

    /// Queries currently executing (admission-control gauge).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// The `select.pref` / `select.budget` failpoints of one ladder rung; an
    /// injected budget trip steps the ladder like a real one.
    fn selection_failpoints(&self, ctx: &QueryCtx) -> std::result::Result<(), PrefError> {
        if let Some(msg) = self.failpoints().fire("select.pref") {
            return Err(PrefError::Internal(format!("failpoint select.pref: {msg}")));
        }
        if self.failpoints().fire("select.budget").is_some() {
            return Err(PrefError::Budget(ctx.exceeded(BudgetReason::Injected)));
        }
        Ok(())
    }

    /// The governed pipeline: plan-cache fast path, then the degradation
    /// ladder around personalization, then plan + execute under `ctx`.
    fn query_governed(
        &self,
        user: &UserId,
        sql: &str,
        options: PersonalizeOptions,
        rewrite: Rewrite,
        ctx: &QueryCtx,
        obs: &mut Observed,
    ) -> Result<Answer> {
        if let Some(msg) = self.failpoints().fire("service.query") {
            return Err(Error::Internal(format!("failpoint service.query: {msg}")));
        }
        let t_parse = Instant::now();
        let (prepared, prepared_hit) = self.prepare(sql)?;
        obs.phases.parse_us = t_parse.elapsed().as_micros() as u64;
        obs.prepared_cache = if prepared_hit { "hit" } else { "miss" };
        obs.canonical = Some(Arc::clone(&prepared.canonical));
        let key = PlanKey {
            user: user.clone(),
            canonical: Arc::clone(&prepared.canonical),
            opts: OptionsKey::from(&options),
            rewrite,
            stats_epoch: self.db.catalog().stats_epoch(),
        };

        // Fast path: a cached plan built under the user's current epoch. An
        // injected `plan.cache` fault degrades to a recompute (a cache must
        // never be load-bearing for correctness), so it counts as a miss.
        let epoch_now = self.epoch_of(user);
        enum Lookup {
            Hit(Arc<CachedPlan>),
            Stale,
            Miss,
        }
        let lookup = if self.failpoints().fire("plan.cache").is_some() {
            Lookup::Miss
        } else {
            match self.plans.read().get(&key) {
                Some(c) if c.epoch == epoch_now => Lookup::Hit(Arc::clone(c)),
                Some(_) => Lookup::Stale,
                None => Lookup::Miss,
            }
        };
        let cache_outcome = match lookup {
            Lookup::Hit(cached) => {
                self.plan_stats.hit();
                obs.plan_cache = "hit";
                obs.est_rows = Some(cached.est_rows);
                let t_exec = Instant::now();
                let rows = self.db.run_plan_ctx(&cached.plan, &self.config.exec, ctx);
                obs.phases.execute_us += t_exec.elapsed().as_micros() as u64;
                self.telemetry.note_strategy(cached.rewrite);
                return Ok(Answer {
                    rows: rows?,
                    meta: AnswerMeta {
                        rewrite: cached.rewrite,
                        k: cached.k,
                        m: cached.m,
                        degraded: DegradeLevel::None,
                        cache: CacheOutcome::Hit,
                        rows_scanned: 0,
                    },
                });
            }
            Lookup::Stale => {
                self.plan_stats.stale();
                obs.plan_cache = "stale";
                CacheOutcome::Stale
            }
            Lookup::Miss => {
                self.plan_stats.miss();
                obs.plan_cache = "miss";
                CacheOutcome::Miss
            }
        };

        // Slow path: snapshot the user's entry (one shard read, one
        // reference count), personalize over its graph, plan, execute, then
        // publish the plan under the snapshot epoch. A concurrent mutation
        // between snapshot and publish simply leaves a stale entry that the
        // next lookup recomputes — never a wrong answer.
        let entry = self.profiles.read(user, |e| e.cloned());
        let (graph, epoch) = match &entry {
            Some(e) => (&e.graph, e.epoch),
            None => (&self.no_profile, 0),
        };

        // The degradation ladder. Personalization runs under a *slice* of
        // the remaining budget (a quarter — execution is the expensive
        // phase), and every time it blows the slice the options step down a
        // level: shrink K, keep only mandatory preferences, finally run the
        // original query, which no personalization budget trip can reach.
        for level in DegradeLevel::LADDER {
            let (plan, est_rows, ran, k, m) = if level == DegradeLevel::Unpersonalized {
                // The unpersonalized floor runs the plain query; no strategy
                // choice priced it, so this rung estimates for itself.
                let q = Query::from_select(prepared.select.clone());
                let t_plan = Instant::now();
                let plan = self.db.plan(&q);
                obs.phases.plan_us += t_plan.elapsed().as_micros() as u64;
                let plan = plan?;
                let est_rows = Estimator::new(self.db.catalog()).rows(&plan);
                (plan, est_rows, Rewrite::Original, 0, 0)
            } else {
                let slice = ctx.slice(1, 4);
                let t_pers = Instant::now();
                let personalized = self.selection_failpoints(&slice).and_then(|()| {
                    personalize_prepared_ctx(
                        &prepared.select,
                        &prepared.graph,
                        graph,
                        level.apply(options),
                        &slice,
                    )
                });
                // Accumulates across ladder retries: the log reports the
                // total personalization cost, including abandoned levels.
                obs.phases.personalize_us += t_pers.elapsed().as_micros() as u64;
                match personalized {
                    Ok(p) => {
                        // The native rung forces the rank operator — that is
                        // what makes it cheaper than the rung above it; the
                        // strategy layer falls back to MQ on unsupported
                        // shapes and resolves `Auto` by estimated cost.
                        let rung_rewrite = if level == DegradeLevel::NativeReducedK
                            && rewrite != Rewrite::Original
                        {
                            Rewrite::NativeRank
                        } else {
                            rewrite
                        };
                        let t_plan = Instant::now();
                        let choice =
                            pqp_core::strategy::build_execution(&self.db, &p, rung_rewrite, None);
                        obs.phases.plan_us += t_plan.elapsed().as_micros() as u64;
                        let choice = choice?;
                        (choice.plan, choice.est_rows, choice.rewrite, p.k(), p.m)
                    }
                    Err(PrefError::Budget(_)) => {
                        pqp_obs::counter_add("service.degrade.steps", 1);
                        continue;
                    }
                    Err(e) => return Err(e.into()),
                }
            };
            obs.est_rows = Some(est_rows);
            let t_exec = Instant::now();
            let rows = self.db.run_plan_ctx(&plan, &self.config.exec, ctx);
            obs.phases.execute_us += t_exec.elapsed().as_micros() as u64;
            let rows = rows?;
            self.telemetry.note_strategy(ran);
            if level == DegradeLevel::None {
                // Only full-fidelity plans are cached: a degraded plan is an
                // artifact of one query's budget, not of the user's profile.
                let cached = CachedPlan { epoch, plan, est_rows, rewrite: ran, k, m };
                // The write guard is released at the end of this statement;
                // whatever plan the insert displaced is freed after it.
                let displaced = self.plans.write().insert(Arc::new(key), Arc::new(cached));
                if matches!(displaced, Inserted::Evicted(_)) {
                    self.plan_stats.eviction();
                }
            } else {
                pqp_obs::counter_add("service.degrade.answers", 1);
                pqp_obs::counter_add(&format!("service.degrade.rung.{}", level.label()), 1);
                pqp_obs::record("degrade_level", level.label());
            }
            return Ok(Answer {
                rows,
                meta: AnswerMeta {
                    rewrite: ran,
                    k,
                    m,
                    degraded: level,
                    cache: cache_outcome,
                    rows_scanned: 0,
                },
            });
        }
        unreachable!("the degradation ladder always returns or errors")
    }
}

/// Per-query facts gathered along the pipeline for the query log: phase
/// timings, cache outcomes, the canonical SQL and the plan's row estimate.
/// Filled as far as the query got; errors leave the rest at its defaults.
#[derive(Debug)]
struct Observed {
    phases: PhaseBreakdown,
    canonical: Option<Arc<str>>,
    est_rows: Option<f64>,
    prepared_cache: &'static str,
    plan_cache: &'static str,
}

impl Default for Observed {
    fn default() -> Observed {
        Observed {
            phases: PhaseBreakdown::default(),
            canonical: None,
            est_rows: None,
            prepared_cache: "-",
            plan_cache: "-",
        }
    }
}

/// Cheap hot-path test for a leading `SHOW` word (the only statements the
/// service answers without touching the engine). Word-boundary-checked so
/// an identifier like `showings` never trips it.
fn is_show(sql: &str) -> bool {
    let head = sql.trim_start();
    let Some(word) = head.get(..4) else { return false };
    word.eq_ignore_ascii_case("show")
        && !head[4..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// RAII in-flight slot: decrements the gauge on drop, so early returns,
/// `?` and caught panics all release admission.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("users", &self.profiles.len())
            .field("shards", &self.profiles.shard_count())
            .field("prepared", &self.prepared.read().len())
            .field("plans", &self.plans.read().len())
            .finish()
    }
}

/// A per-user handle onto a [`Service`]: the redesigned public entry point.
///
/// Sessions are cheap (a user id plus option values) and borrow the
/// service, so a caller can hold many at once — one per connected user.
#[derive(Debug, Clone)]
pub struct Session<'s> {
    service: &'s Service,
    user: UserId,
    options: PersonalizeOptions,
    rewrite: Rewrite,
    budget: Budget,
}

impl<'s> Session<'s> {
    /// The user this session serves.
    pub fn user(&self) -> &UserId {
        &self.user
    }

    /// Override the personalization options for this session.
    pub fn with_options(mut self, options: PersonalizeOptions) -> Session<'s> {
        self.options = options;
        self
    }

    /// Override the executed rewrite for this session.
    pub fn with_rewrite(mut self, rewrite: Rewrite) -> Session<'s> {
        self.rewrite = rewrite;
        self
    }

    /// Override the per-query governor budget for this session (deadline /
    /// rows scanned / memory — see [`Budget`]).
    pub fn with_budget(mut self, budget: Budget) -> Session<'s> {
        self.budget = budget;
        self
    }

    /// Run a personalized query end-to-end: parse → personalize →
    /// integrate → plan → execute, through both caches, under this
    /// session's governor budget.
    pub fn query(&self, sql: &str) -> Result<Answer> {
        self.query_ctx(sql, &QueryCtx::new(self.budget))
    }

    /// [`Session::query`] under a caller-owned [`QueryCtx`]: share the
    /// context with another thread to cancel the query mid-flight, or read
    /// partial-progress counters while it runs.
    pub fn query_ctx(&self, sql: &str, ctx: &QueryCtx) -> Result<Answer> {
        self.service.query_ctx(&self.user, sql, self.options, self.rewrite, ctx)
    }
}

/// The in-process backend of the unified client API. The `&mut self`
/// receivers exist for parity with socket-owning remote clients; a session
/// is internally synchronized and never needs the exclusivity.
impl QueryApi for Session<'_> {
    fn user_id(&self) -> &str {
        self.user.as_str()
    }

    fn query(&mut self, sql: &str) -> Result<Answer> {
        Session::query(self, sql)
    }

    fn prepare(&mut self, sql: &str) -> Result<String> {
        self.service.prepare_sql(sql)
    }

    fn add_selection(&mut self, table: &str, column: &str, value: Value, doi: f64) -> Result<()> {
        self.service.add_selection(self.user.clone(), table, column, value, doi)
    }

    fn add_join(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
        doi: f64,
    ) -> Result<()> {
        self.service.add_join(self.user.clone(), from_table, from_column, to_table, to_column, doi)
    }

    fn remove_profile(&mut self) -> Result<bool> {
        Ok(self.service.remove_profile(self.user.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_core::AtomicPreference;
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
        for (mid, title) in [(1, "Alpha"), (2, "Beta"), (3, "Gamma")] {
            c.table("MOVIE").unwrap().write().insert(vec![mid.into(), title.into()]).unwrap();
        }
        for (mid, genre) in [(1, "comedy"), (2, "comedy"), (3, "drama")] {
            c.table("GENRE").unwrap().write().insert(vec![mid.into(), genre.into()]).unwrap();
        }
        Database::new(c)
    }

    fn service_with_ana() -> Service {
        let service = Service::new(movie_db());
        let mut ana = Profile::new("ana");
        ana.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        ana.add_selection("GENRE", "genre", "comedy", 0.8).unwrap();
        service.install_profile(ana).unwrap();
        service
    }

    const Q: &str = "select MV.title from MOVIE MV";

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Service>();
        assert_send_sync::<Answer>();
        assert_send_sync::<Error>();
    }

    #[test]
    fn session_query_end_to_end() {
        let service = service_with_ana();
        let answer = service.session("ana").query(Q).unwrap();
        assert_eq!(answer.meta.k, 1, "comedy preference reached through the join");
        assert_eq!(answer.meta.rewrite, Rewrite::Mq);
        assert!(!answer.meta.cache.is_hit());
        let titles: Vec<String> = answer.rows.rows.iter().map(|r| r[0].to_string()).collect();
        assert!(titles.contains(&"'Alpha'".to_string()) || titles.contains(&"Alpha".to_string()));
    }

    #[test]
    fn native_rewrite_answers_match_mq_and_count_in_metrics() {
        let service = service_with_ana();
        let mq = service.session("ana").query(Q).unwrap();
        assert_eq!(mq.meta.rewrite, Rewrite::Mq);
        let session = service.session("ana").with_rewrite(Rewrite::NativeRank);
        let native = session.query(Q).unwrap();
        assert_eq!(native.meta.rewrite, Rewrite::NativeRank);
        let sort = |mut rows: Vec<Vec<pqp_storage::Value>>| {
            rows.sort();
            rows
        };
        assert_eq!(sort(native.rows.rows.clone()), sort(mq.rows.rows.clone()));
        // A plan-cache hit reports the rewrite the plan was built with, not
        // the session's requested one.
        let hit = session.query(Q).unwrap();
        assert!(hit.meta.cache.is_hit());
        assert_eq!(hit.meta.rewrite, Rewrite::NativeRank);
        // An Auto session resolves to a concrete strategy.
        let auto = service.session("ana").with_rewrite(Rewrite::Auto).query(Q).unwrap();
        assert_ne!(auto.meta.rewrite, Rewrite::Auto);
        let snap = service.telemetry().snapshot();
        assert!(snap.strategy_mq >= 1, "{snap:?}");
        assert!(snap.strategy_native_rank >= 2, "{snap:?}");
        assert_eq!(
            snap.strategy_sq + snap.strategy_mq + snap.strategy_native_rank,
            4,
            "every personalized answer lands in exactly one strategy counter: {snap:?}"
        );
    }

    #[test]
    fn unknown_user_runs_unpersonalized() {
        let service = service_with_ana();
        let answer = service.session("nobody").query(Q).unwrap();
        assert_eq!(answer.meta.k, 0);
        assert_eq!(answer.rows.len(), 3, "all movies, no preference filter");
    }

    #[test]
    fn repeated_query_hits_both_caches() {
        let service = service_with_ana();
        let session = service.session("ana");
        let first = session.query(Q).unwrap();
        let second = session.query(Q).unwrap();
        assert!(!first.meta.cache.is_hit());
        assert!(second.meta.cache.is_hit());
        assert_eq!(first.rows, second.rows);
        assert_eq!(second.meta.k, first.meta.k, "cached answers keep selection metadata");
        let stats = service.cache_stats();
        assert_eq!(stats.prepared.hits, 1);
        assert_eq!(stats.prepared.misses, 1);
        assert_eq!(stats.plans.hits, 1);
        assert_eq!(stats.plans.misses, 1);
    }

    #[test]
    fn textual_variants_share_one_plan_entry() {
        let service = service_with_ana();
        let session = service.session("ana");
        session.query(Q).unwrap();
        // Different whitespace, same canonical query.
        let variant = service.session("ana").query("select  MV.title  from  MOVIE  MV").unwrap();
        assert!(variant.meta.cache.is_hit(), "canonicalized key shares the plan");
    }

    #[test]
    fn profile_mutation_invalidates_cached_plans() {
        let service = service_with_ana();
        let session = service.session("ana");
        let before = session.query(Q).unwrap();
        assert!(session.query(Q).unwrap().meta.cache.is_hit());

        let e0 = service.epoch("ana");
        service.add_selection("ana", "GENRE", "genre", "drama", 0.9).unwrap();
        assert!(service.epoch("ana") > e0, "mutation bumps the epoch");

        let after = session.query(Q).unwrap();
        assert!(!after.meta.cache.is_hit(), "stale plan recomputed");
        assert_eq!(after.meta.k, 2, "the new preference is in effect");
        assert!(after.rows.len() > before.rows.len());
        assert_eq!(service.cache_stats().plans.stale, 1);
        // And the refreshed entry serves hits again.
        assert!(session.query(Q).unwrap().meta.cache.is_hit());
    }

    #[test]
    fn analyze_invalidates_cached_plans() {
        let service = service_with_ana();
        let session = service.session("ana");
        session.query(Q).unwrap();
        assert!(session.query(Q).unwrap().meta.cache.is_hit());

        // ANALYZE bumps the catalog's stats epoch: cached plans chosen under
        // the old statistics must not be served again.
        service.database().catalog().analyze_all().unwrap();
        let after = session.query(Q).unwrap();
        assert!(!after.meta.cache.is_hit(), "plan re-chosen under fresh statistics");
        assert!(session.query(Q).unwrap().meta.cache.is_hit(), "and re-cached");
    }

    #[test]
    fn noop_update_keeps_epoch_and_cache() {
        let service = service_with_ana();
        let session = service.session("ana");
        session.query(Q).unwrap();
        let e0 = service.epoch("ana");
        service.update_profile("ana", |_p| ()).unwrap();
        assert_eq!(service.epoch("ana"), e0, "no mutation, no epoch bump");
        assert!(session.query(Q).unwrap().meta.cache.is_hit());
    }

    #[test]
    fn update_validation_failure_rolls_back() {
        let service = service_with_ana();
        let err = service.update_profile("ana", |p| {
            p.add_selection("NOPE", "x", "v", 0.5).unwrap();
        });
        assert!(err.is_err());
        let ana = service.profile("ana").unwrap();
        assert!(
            ana.preferences().iter().all(|p| !format!("{p}").contains("NOPE")),
            "invalid mutation was not committed"
        );
    }

    /// The stored profile gives back exactly what was installed or
    /// committed: the same preferences in the same order, with the same
    /// spellings and degree bits.
    fn assert_stored(service: &Service, expected: &Profile) {
        let stored = service.profile(expected.user.as_str()).expect("a stored profile");
        assert_eq!(stored, *expected);
        let bits = |p: &Profile| -> Vec<u64> {
            p.preferences().iter().map(|p| p.doi().value().to_bits()).collect()
        };
        assert_eq!(bits(&stored), bits(expected));
        assert_eq!(format!("{:?}", stored.preferences()), format!("{:?}", expected.preferences()));
    }

    #[test]
    fn stored_profile_keeps_every_spelling_of_an_attribute() {
        let service = Service::new(movie_db());
        let mut ana = Profile::new("ana");
        ana.add_selection("GENRE", "genre", "comedy", 0.8).unwrap();
        ana.add_selection("genre", "GENRE", "drama", 0.1 + 0.2).unwrap();
        ana.add_selection("GENRE", "genre", "horror", 0.8).unwrap();
        ana.add_join("movie", "MID", "Genre", "Mid", 0.9).unwrap();
        service.install_profile(ana.clone()).unwrap();
        assert_stored(&service, &ana);
    }

    #[test]
    fn stored_profile_keeps_both_directions_of_a_join() {
        let service = Service::new(movie_db());
        let mut ana = Profile::new("ana");
        ana.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        ana.add_selection("GENRE", "genre", "comedy", 0.8).unwrap();
        ana.add_join("GENRE", "mid", "MOVIE", "mid", 0.7).unwrap();
        service.install_profile(ana.clone()).unwrap();
        assert_stored(&service, &ana);
    }

    #[test]
    fn stored_profile_follows_mutations_like_profile_does() {
        let service = service_with_ana();
        let mut ana = service.profile("ana").unwrap();
        service.add_selection("ana", "GENRE", "genre", "drama", 0.6).unwrap();
        ana.add_selection("GENRE", "genre", "drama", 0.6).unwrap();
        assert_stored(&service, &ana);
        // Replacing a degree moves the preference to the end.
        service.add_selection("ana", "GENRE", "genre", "comedy", 0.3).unwrap();
        ana.add_selection("GENRE", "genre", "comedy", 0.3).unwrap();
        assert!(matches!(&ana.preferences()[2], AtomicPreference::Selection { doi, .. }
            if doi.value() == 0.3));
        assert_stored(&service, &ana);
        service.add_join("ana", "GENRE", "mid", "MOVIE", "mid", 0.4).unwrap();
        ana.add_join("GENRE", "mid", "MOVIE", "mid", 0.4).unwrap();
        assert_stored(&service, &ana);
        service.add_join("ana", "MOVIE", "mid", "GENRE", "mid", 0.5).unwrap();
        ana.add_join("MOVIE", "mid", "GENRE", "mid", 0.5).unwrap();
        assert_stored(&service, &ana);
    }

    #[test]
    fn stored_profile_survives_remove_and_reinstall() {
        let service = service_with_ana();
        let ana = service.profile("ana").unwrap();
        assert!(service.remove_profile("ana"));
        assert_eq!(service.profile("ana"), None);
        service.install_profile(ana.clone()).unwrap();
        assert_stored(&service, &ana);
    }

    #[test]
    fn reinstall_after_remove_cannot_revive_stale_plans() {
        let service = service_with_ana();
        let session = service.session("ana");
        session.query(Q).unwrap();
        let profile = service.profile("ana").unwrap();
        assert!(service.remove_profile("ana"));
        assert_eq!(service.epoch("ana"), 0);
        // Removal sweeps the user's now-dead plan entries (counted as
        // evictions) instead of letting them squat in the cache.
        assert_eq!(service.cache_stats().plans.evictions, 1);
        // Reinstalling the same profile gets a *fresh* epoch, so even a
        // surviving plan from the old epoch could never be served.
        service.install_profile(profile).unwrap();
        let answer = session.query(Q).unwrap();
        assert!(!answer.meta.cache.is_hit(), "no ABA on remove + reinstall");
        assert_eq!(service.cache_stats().plans.stale, 0, "swept, so a miss rather than stale");
    }

    #[test]
    fn remove_profile_sweeps_only_that_users_plans() {
        let service = service_with_ana();
        service.add_selection("bob", "GENRE", "genre", "drama", 0.9).unwrap();
        service.session("ana").query(Q).unwrap();
        let bob = service.session("bob");
        bob.query(Q).unwrap();
        assert!(service.remove_profile("ana"));
        assert!(!service.remove_profile("ana"), "second removal is a no-op");
        assert!(bob.query(Q).unwrap().meta.cache.is_hit(), "bob's entry survives ana's removal");
        assert_eq!(service.cache_stats().plans.evictions, 1);
    }

    #[test]
    fn options_fingerprint_distinguishes_float_thresholds() {
        // Regression for the Debug-format fingerprint: nearby (but
        // distinct) f64 thresholds must map to distinct cache keys, and
        // equal options must share one.
        let low =
            PersonalizeOptions::builder().criterion(InterestCriterion::MinDegree(0.25)).build();
        let high =
            PersonalizeOptions::builder().criterion(InterestCriterion::MinDegree(0.75)).build();
        assert_ne!(OptionsKey::from(&low), OptionsKey::from(&high));
        assert_eq!(OptionsKey::from(&low), OptionsKey::from(&low.clone()));

        let service = service_with_ana();
        let first = service.session("ana").with_options(low).query(Q).unwrap();
        let second = service.session("ana").with_options(high).query(Q).unwrap();
        assert!(!first.meta.cache.is_hit());
        assert!(!second.meta.cache.is_hit(), "distinct thresholds get distinct plan entries");
        assert!(service.session("ana").with_options(low).query(Q).unwrap().meta.cache.is_hit());
    }

    #[test]
    fn per_user_isolation_in_plan_cache() {
        let service = service_with_ana();
        let mut bob = Profile::new("bob");
        bob.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        bob.add_selection("GENRE", "genre", "drama", 0.9).unwrap();
        service.install_profile(bob).unwrap();

        let ana = service.session("ana").query(Q).unwrap();
        let bob = service.session("bob").query(Q).unwrap();
        assert!(!bob.meta.cache.is_hit(), "bob's first query is not served ana's plan");
        assert_ne!(ana.rows, bob.rows, "different preferences, different rows");
    }

    #[test]
    fn sessions_can_override_options_and_rewrite() {
        let service = service_with_ana();
        let original = service.session("ana").with_rewrite(Rewrite::Original).query(Q).unwrap();
        assert_eq!(original.rows.len(), 3);
        let sq = service
            .session("ana")
            .with_options(PersonalizeOptions::builder().k(1).l(1).build())
            .with_rewrite(Rewrite::Sq)
            .query(Q)
            .unwrap();
        assert_eq!(sq.meta.rewrite, Rewrite::Sq);
        // Distinct options/rewrites get distinct cache entries.
        assert!(!sq.meta.cache.is_hit());
    }

    #[test]
    fn parse_errors_surface_through_unified_error() {
        let service = service_with_ana();
        let err = service.session("ana").query("select from nowhere").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = service
            .session("ana")
            .query("(select MV.title from MOVIE MV) union (select MV.title from MOVIE MV)");
        assert!(matches!(err, Err(Error::Personalize(PrefError::UnsupportedQuery(_)))));
    }

    #[test]
    fn plan_cache_eviction_under_capacity_pressure() {
        let service = Service::with_config(
            movie_db(),
            ServiceConfig { plan_capacity: 2, ..ServiceConfig::default() },
        );
        let session = service.session("u");
        for sql in
            [Q, "select MV.mid from MOVIE MV", "select MV.title from MOVIE MV where MV.mid = 2"]
        {
            session.query(sql).unwrap();
        }
        assert_eq!(service.cache_stats().plans.evictions, 1);
    }

    #[test]
    fn answers_report_no_degradation_under_unlimited_budget() {
        let service = service_with_ana();
        let answer = service.session("ana").query(Q).unwrap();
        assert_eq!(answer.meta.degraded, DegradeLevel::None);
    }

    #[test]
    fn zero_deadline_returns_budget_exceeded_never_hangs() {
        let service = service_with_ana();
        let session = service.session("ana").with_budget(Budget::unlimited().deadline_ms(0));
        // The ladder steps all the way down, but execution itself is over
        // budget too: the query must come back as a typed error, not hang.
        match session.query(Q) {
            Err(Error::BudgetExceeded(b)) => {
                assert_eq!(b.reason, pqp_obs::BudgetReason::Deadline)
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(service.in_flight(), 0, "admission slot released on error");
    }

    #[test]
    fn cancellation_surfaces_as_budget_exceeded() {
        let service = service_with_ana();
        let ctx = QueryCtx::unlimited();
        ctx.cancel();
        match service.session("ana").query_ctx(Q, &ctx) {
            Err(Error::BudgetExceeded(b)) => {
                assert_eq!(b.reason, pqp_obs::BudgetReason::Cancelled)
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn admission_control_rejects_at_capacity_and_recovers() {
        let service = Service::with_config(
            movie_db(),
            ServiceConfig { max_in_flight: 1, ..ServiceConfig::default() },
        );
        let guard = service.admit().unwrap();
        match service.session("u").query(Q) {
            Err(Error::Overloaded { in_flight, max }) => {
                assert_eq!((in_flight, max), (1, 1));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        drop(guard);
        assert!(service.session("u").query(Q).is_ok(), "capacity freed on guard drop");
        assert_eq!(service.in_flight(), 0);
    }

    #[test]
    fn every_query_leaves_a_record_with_phases_and_est_rows() {
        let service = service_with_ana();
        let session = service.session("ana");
        session.query(Q).unwrap();
        session.query(Q).unwrap(); // plan-cache hit
        assert!(session.query("select nope from").is_err());

        let log = service.telemetry().log();
        assert_eq!(log.total(), 3);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);

        let bad = &recent[0]; // newest first: the parse error
        assert!(!bad.ok);
        assert_eq!(bad.error_kind, Some("parse"));
        assert_eq!(bad.sql, "select nope from", "unparsed text is kept raw");

        let hit = &recent[1];
        assert!(hit.ok);
        assert_eq!(hit.plan_cache, "hit");
        assert_eq!(hit.prepared_cache, "hit");
        assert_eq!(hit.rows_out, 2, "both comedies");
        assert!(hit.est_rows.is_some(), "cached plans still report an estimate");
        assert!(hit.phases.total_us >= hit.phases.execute_us);
        assert_eq!(hit.phases.personalize_us, 0, "cache hit skips personalization");

        let miss = &recent[2];
        assert_eq!(miss.plan_cache, "miss");
        assert_eq!(miss.prepared_cache, "miss");
        assert!(miss.sql.to_uppercase().contains("SELECT"), "canonical SQL is logged");
        assert!(miss.phases.personalize_us > 0 || miss.phases.plan_us > 0);

        let snap = service.telemetry().snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.latency_ms.lifetime.count(), 3);
    }

    #[test]
    fn show_statements_answer_from_live_telemetry() {
        let service = service_with_ana();
        let session = service.session("ana");
        session.query(Q).unwrap();
        session.query(Q).unwrap();

        let metrics = session.query("SHOW METRICS").unwrap();
        assert_eq!(metrics.rows.columns, vec!["metric", "value"]);
        let value = |name: &str| {
            metrics
                .rows
                .rows
                .iter()
                .find(|r| r[0] == pqp_storage::Value::str(name))
                .map(|r| r[1].clone())
                .unwrap()
        };
        assert_eq!(value("queries_total"), pqp_storage::Value::Int(2));
        assert_eq!(value("errors_total"), pqp_storage::Value::Int(0));
        assert_eq!(value("in_flight"), pqp_storage::Value::Int(0));

        let queries = session.query("show queries limit 1").unwrap();
        assert_eq!(queries.rows.rows.len(), 1, "LIMIT bounds the listing");
        let user_col = queries.rows.columns.iter().position(|c| c == "user").unwrap();
        assert_eq!(queries.rows.rows[0][user_col], pqp_storage::Value::Str("ana".into()));

        let caches = session.query("show caches").unwrap();
        assert_eq!(caches.rows.rows.len(), 2);
        let hits_col = caches.rows.columns.iter().position(|c| c == "hits").unwrap();
        assert_eq!(caches.rows.rows[1][hits_col], pqp_storage::Value::Int(1), "one plan hit");

        // SHOW itself is not logged: still only the two real queries.
        assert_eq!(service.telemetry().log().total(), 2);
        // And it works while the service is saturated.
        let service = Service::with_config(
            movie_db(),
            ServiceConfig { max_in_flight: 1, ..ServiceConfig::default() },
        );
        let _guard = service.admit().unwrap();
        assert!(service.session("u").query("SHOW METRICS").is_ok());
        assert!(matches!(service.session("u").query(Q), Err(Error::Overloaded { .. })));
    }

    #[test]
    fn refusals_and_budget_trips_hit_the_slo_counters() {
        let service = Service::with_config(
            movie_db(),
            ServiceConfig { max_in_flight: 1, ..ServiceConfig::default() },
        );
        let guard = service.admit().unwrap();
        assert!(service.session("u").query(Q).is_err());
        drop(guard);
        let session = service.session("u").with_budget(Budget::unlimited().deadline_ms(0));
        assert!(matches!(session.query(Q), Err(Error::BudgetExceeded(_))));
        let snap = service.telemetry().snapshot();
        assert_eq!(snap.overloaded, 1);
        assert_eq!(snap.budget_exceeded, 1);
        assert_eq!(snap.over_deadline, 1, "a 0 ms deadline is always overshot");
        assert_eq!(snap.errors, 2);
        let recent = service.telemetry().log().recent(10);
        assert_eq!(recent[0].error_kind, Some("budget"));
        assert_eq!(recent[0].deadline_ms, Some(0), "armed limit is recorded");
        assert_eq!(recent[1].error_kind, Some("overloaded"));
    }

    #[test]
    fn show_prefix_detection_has_word_boundaries() {
        assert!(is_show("show metrics"));
        assert!(is_show("  SHOW QUERIES LIMIT 5"));
        assert!(is_show("Show caches;"));
        assert!(is_show("show"));
        assert!(!is_show("showings"));
        assert!(!is_show("select s.x from SHOWTIMES s"));
        assert!(!is_show("sho"));
    }

    #[test]
    fn degrade_ladder_steps_down_the_paper_knobs() {
        let opts = PersonalizeOptions::builder().k(8).m(2).l(3).build();
        let reduced = DegradeLevel::ReducedK.apply(opts);
        assert_eq!(reduced.criterion, InterestCriterion::TopK(4));
        let native = DegradeLevel::NativeReducedK.apply(opts);
        assert_eq!(native.criterion, InterestCriterion::TopK(2));
        assert_eq!(native.matching, opts.matching, "the native rung keeps matching semantics");
        let mandatory = DegradeLevel::MandatoryOnly.apply(opts);
        assert_eq!(mandatory.criterion, InterestCriterion::TopK(2));
        assert_eq!(mandatory.matching, MatchSpec::AtLeast(0));
        // Non-top-K criteria step down to top-2; K never reaches 0 via
        // halving.
        let min =
            PersonalizeOptions::builder().criterion(InterestCriterion::MinDegree(0.1)).build();
        assert_eq!(DegradeLevel::ReducedK.apply(min).criterion, InterestCriterion::TopK(2));
        let one = PersonalizeOptions::builder().k(1).build();
        assert_eq!(DegradeLevel::ReducedK.apply(one).criterion, InterestCriterion::TopK(1));
        assert_eq!(DegradeLevel::NativeReducedK.apply(one).criterion, InterestCriterion::TopK(1));
        assert_eq!(DegradeLevel::NativeReducedK.apply(min).criterion, InterestCriterion::TopK(1));
        assert_eq!(DegradeLevel::None.apply(opts), opts);
        assert_eq!(DegradeLevel::Unpersonalized.apply(opts), opts);
    }
}
