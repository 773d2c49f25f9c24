//! Always-on production telemetry for the serving layer.
//!
//! Every query that crosses the [`Session::query`](crate::Session::query)
//! boundary leaves one [`QueryRecord`] behind: who ran what, how long each
//! pipeline phase took, how many rows moved, what the caches did, how far
//! the degradation ladder stepped, and how much of the governor budget was
//! consumed. Records land in a bounded in-memory ring (the **query log**),
//! slow outliers are force-retained in a second ring so a burst of fast
//! traffic cannot evict the one query worth investigating, and an optional
//! JSON-lines file sink streams every record to disk for offline analysis.
//!
//! On top of the log, [`Telemetry`] keeps O(1)-memory aggregates: a
//! [`WindowedHistogram`] of total latency (lifetime + last 60 s) and SLO
//! counters (errors, slow, degraded, over-deadline, budget-exceeded,
//! overloaded, panics caught). Both views are queryable in-band through
//! `SHOW METRICS` / `SHOW QUERIES [LIMIT n]` / `SHOW CACHES` — ordinary
//! statements returning ordinary result tables — and programmatically via
//! [`Service::telemetry`](crate::Service::telemetry).
//!
//! The whole module is built for the hot path: recording a query is one
//! mutex-guarded ring push plus a handful of relaxed atomic increments, and
//! the bench suite asserts the end-to-end overhead stays under 2% on the
//! governor micro-benchmark.

use crate::DegradeLevel;
use pqp_engine::ResultSet;
use pqp_obs::{Histogram, Json, WindowSnapshot, WindowedHistogram};
use pqp_storage::Value;
use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of the telemetry subsystem.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Entries retained in the recent-query ring.
    pub query_log_capacity: usize,
    /// Entries retained in the slow-query ring (outliers are kept here even
    /// after fast traffic has evicted them from the recent ring).
    pub slow_log_capacity: usize,
    /// Queries at or above this total latency are marked slow and
    /// force-retained (`0` disables slow tracking). Default 250.
    pub slow_query_ms: u64,
    /// When set, every record is appended to this file as one JSON line.
    /// Default none.
    pub log_file: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            query_log_capacity: 512,
            slow_log_capacity: 128,
            slow_query_ms: 250,
            log_file: None,
        }
    }
}

/// Wall-clock time spent in each pipeline phase, in microseconds. Phases
/// that did not run (e.g. a plan-cache hit skips personalize and plan) stay
/// at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Parse + query-graph construction (zero on a prepared-cache hit).
    pub parse_us: u64,
    /// Preference selection and integration, summed across ladder retries.
    pub personalize_us: u64,
    /// Physical planning.
    pub plan_us: u64,
    /// Plan execution.
    pub execute_us: u64,
    /// End-to-end latency at the `Session::query` boundary (admission to
    /// answer), a superset of the phases above.
    pub total_us: u64,
}

/// One query's footprint in the log: the paper pipeline's phases plus the
/// serving-layer context around them.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Monotonic sequence number, assigned at record time (1-based).
    pub seq: u64,
    /// The user the session served.
    pub user: String,
    /// Canonical SQL when the query parsed, the raw text otherwise.
    pub sql: String,
    /// Whether the query returned rows (vs. a typed error).
    pub ok: bool,
    /// Stable kind label of the error ([`crate::Error::kind`]), if any.
    pub error_kind: Option<&'static str>,
    /// Rendered error message, if any.
    pub error: Option<String>,
    /// Per-phase latency breakdown.
    pub phases: PhaseBreakdown,
    /// Rows returned to the caller.
    pub rows_out: usize,
    /// Rows the executor scanned (governor progress counter).
    pub rows_scanned: u64,
    /// Peak tracked memory (governor progress counter).
    pub mem_bytes: u64,
    /// The planner's cardinality estimate for the executed plan, when one
    /// was produced (compare against `rows_out` for est-vs-actual).
    pub est_rows: Option<f64>,
    /// Prepared-query cache outcome: `"hit"`, `"miss"`, or `"-"` (not
    /// reached).
    pub prepared_cache: &'static str,
    /// Personalized-plan cache outcome: `"hit"`, `"stale"`, `"miss"`, or
    /// `"-"` (not reached).
    pub plan_cache: &'static str,
    /// Degradation level the answer ran at (printed as its
    /// [`DegradeLevel::label`]).
    pub degrade: DegradeLevel,
    /// Preferences selected (K) for this answer.
    pub k: usize,
    /// Mandatory preferences (M) for this answer.
    pub m: usize,
    /// Governor deadline limit in ms, when one was armed (consumption is
    /// `phases.total_us`).
    pub deadline_ms: Option<u64>,
    /// Governor rows-scanned limit, when armed (consumption is
    /// `rows_scanned`).
    pub rows_limit: Option<u64>,
    /// Governor memory limit in bytes, when armed (consumption is
    /// `mem_bytes`).
    pub mem_limit: Option<u64>,
    /// Whether total latency reached the slow-query threshold (assigned at
    /// record time).
    pub slow: bool,
}

impl QueryRecord {
    /// The record as a JSON object (the shape of one sink line).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("seq", self.seq)
            .set("user", self.user.as_str())
            .set("sql", self.sql.as_str())
            .set("ok", self.ok)
            .set("parse_us", self.phases.parse_us)
            .set("personalize_us", self.phases.personalize_us)
            .set("plan_us", self.phases.plan_us)
            .set("execute_us", self.phases.execute_us)
            .set("total_us", self.phases.total_us)
            .set("rows_out", self.rows_out)
            .set("rows_scanned", self.rows_scanned)
            .set("mem_bytes", self.mem_bytes)
            .set("prepared_cache", self.prepared_cache)
            .set("plan_cache", self.plan_cache)
            .set("degrade", self.degrade.label())
            .set("k", self.k)
            .set("m", self.m)
            .set("slow", self.slow);
        if let Some(est) = self.est_rows {
            j = j.set("est_rows", est);
        }
        if let Some(ms) = self.deadline_ms {
            j = j.set("deadline_ms", ms);
        }
        if let Some(rows) = self.rows_limit {
            j = j.set("rows_limit", rows);
        }
        if let Some(bytes) = self.mem_limit {
            j = j.set("mem_limit", bytes);
        }
        if let Some(kind) = self.error_kind {
            j = j.set("error_kind", kind);
        }
        if let Some(e) = &self.error {
            j = j.set("error", e.as_str());
        }
        j
    }
}

/// The bounded query log: a recent ring, a slow ring, and the optional
/// JSON-lines sink. Thread-safe; pushes from concurrent queries serialize
/// on one short mutex.
#[derive(Debug)]
pub struct QueryLog {
    capacity: usize,
    slow_capacity: usize,
    slow_threshold_us: u64,
    seq: AtomicU64,
    rings: Mutex<Rings>,
    sink: Option<Mutex<std::fs::File>>,
}

#[derive(Debug, Default)]
struct Rings {
    recent: VecDeque<Arc<QueryRecord>>,
    slow: VecDeque<Arc<QueryRecord>>,
}

impl QueryLog {
    fn new(config: &TelemetryConfig) -> QueryLog {
        // The sink is best-effort: an unopenable path disables it rather
        // than failing service construction.
        let sink = config.log_file.as_ref().and_then(|path| {
            OpenOptions::new().create(true).append(true).open(path).ok().map(Mutex::new)
        });
        QueryLog {
            capacity: config.query_log_capacity.max(1),
            slow_capacity: config.slow_log_capacity.max(1),
            slow_threshold_us: config.slow_query_ms.saturating_mul(1_000),
            seq: AtomicU64::new(0),
            rings: Mutex::new(Rings::default()),
            sink,
        }
    }

    /// Record one query: assign its sequence number, classify it slow or
    /// not, push it into the ring(s) and the sink. Returns the stored
    /// record.
    fn push(&self, mut record: QueryRecord) -> Arc<QueryRecord> {
        record.seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        record.slow =
            self.slow_threshold_us > 0 && record.phases.total_us >= self.slow_threshold_us;
        let record = Arc::new(record);
        {
            let mut rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
            rings.recent.push_back(Arc::clone(&record));
            while rings.recent.len() > self.capacity {
                rings.recent.pop_front();
            }
            if record.slow {
                rings.slow.push_back(Arc::clone(&record));
                while rings.slow.len() > self.slow_capacity {
                    rings.slow.pop_front();
                }
            }
        }
        if let Some(sink) = &self.sink {
            // Render outside no lock but write under one so concurrent
            // lines never interleave. Write failures are swallowed:
            // telemetry must never fail a query.
            let line = record.to_json().render();
            let mut f = sink.lock().unwrap_or_else(|e| e.into_inner());
            let _ = writeln!(f, "{line}");
        }
        record
    }

    /// The most recent records, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Arc<QueryRecord>> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings.recent.iter().rev().take(limit).cloned().collect()
    }

    /// The retained slow outliers, newest first, at most `limit`.
    pub fn slow(&self, limit: usize) -> Vec<Arc<QueryRecord>> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings.slow.iter().rev().take(limit).cloned().collect()
    }

    /// Total records ever pushed (not just the retained window).
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records currently retained in the recent ring.
    pub fn len(&self) -> usize {
        self.rings.lock().unwrap_or_else(|e| e.into_inner()).recent.len()
    }

    /// Whether the recent ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One follower's replication progress, as tracked by the leader.
#[derive(Debug, Clone, PartialEq)]
pub struct FollowerLag {
    /// The follower's address (as configured on the leader).
    pub addr: String,
    /// Highest log sequence the follower has acknowledged.
    pub ack_seq: u64,
    /// Entries the follower is behind the leader's log tip.
    pub lag: u64,
}

/// Point-in-time replication state of this node, published by the
/// replication layer (absent on single-node deployments). Surfaces in
/// `SHOW METRICS` as `repl.*` rows and in [`TelemetrySnapshot::repl`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplStatus {
    /// This node's identifier (`PQP_NODE_ID`).
    pub node_id: String,
    /// `"leader"` or `"follower"`.
    pub role: String,
    /// The current replication term (fencing token).
    pub term: u64,
    /// Highest sequence appended to the local mutation log.
    pub last_seq: u64,
    /// Highest sequence known durable (fsynced) locally.
    pub durable_seq: u64,
    /// Followers (including the leader itself) whose acknowledgement a
    /// mutation needs before the client sees success.
    pub quorum: usize,
    /// Per-follower acknowledgement progress (leader only; empty on
    /// followers).
    pub followers: Vec<FollowerLag>,
    /// WAL fsync latency, milliseconds: last-minute p50.
    pub fsync_p50_ms: f64,
    /// WAL fsync latency, milliseconds: last-minute p99.
    pub fsync_p99_ms: f64,
    /// Log-ship round trip (send entries → follower ack), ms: p50.
    pub ship_p50_ms: f64,
    /// Log-ship round trip (send entries → follower ack), ms: p99.
    pub ship_p99_ms: f64,
}

/// Point-in-time copy of the aggregate counters and latency views.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Queries recorded (successes and errors).
    pub queries: u64,
    /// Queries that returned a typed error.
    pub errors: u64,
    /// Queries at or above the slow threshold.
    pub slow: u64,
    /// Answers produced below full personalization fidelity.
    pub degraded: u64,
    /// Queries whose total latency exceeded their armed deadline.
    pub over_deadline: u64,
    /// Queries refused by the governor ([`crate::Error::BudgetExceeded`]).
    pub budget_exceeded: u64,
    /// Queries refused by admission control.
    pub overloaded: u64,
    /// Panics caught and isolated by the service.
    pub panics_caught: u64,
    /// Answers executed through the SQ rewrite.
    pub strategy_sq: u64,
    /// Answers executed through the MQ rewrite.
    pub strategy_mq: u64,
    /// Answers executed through the native rank operator.
    pub strategy_native_rank: u64,
    /// Degraded answers per ladder rung, indexed like
    /// [`DegradeLevel::LADDER`]`[1..]`.
    pub degrade_rungs: [u64; DegradeLevel::LADDER.len() - 1],
    /// Total latency in milliseconds: lifetime + sliding last-minute view.
    pub latency_ms: WindowSnapshot,
    /// Replication state, when this service runs under a replicated
    /// mutation log (`None` on single-node deployments).
    pub repl: Option<ReplStatus>,
    /// Worker threads of the TCP server fronting this service (0 when no
    /// server has started a pool).
    pub pool_workers: u64,
    /// Each pooled request's wait for a worker, in microseconds.
    pub pool_wait_us: Histogram,
}

/// The service's always-on telemetry: the query log plus O(1) aggregates.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    log: QueryLog,
    latency_ms: WindowedHistogram,
    queries: AtomicU64,
    errors: AtomicU64,
    slow: AtomicU64,
    degraded: AtomicU64,
    over_deadline: AtomicU64,
    budget_exceeded: AtomicU64,
    overloaded: AtomicU64,
    panics_caught: AtomicU64,
    strategy_sq: AtomicU64,
    strategy_mq: AtomicU64,
    strategy_native_rank: AtomicU64,
    degrade_rungs: [AtomicU64; DegradeLevel::LADDER.len() - 1],
    repl: Mutex<Option<ReplStatus>>,
    pool_workers: AtomicU64,
    pool_wait_us: Mutex<Histogram>,
}

impl Telemetry {
    /// Build the subsystem from its configuration.
    pub(crate) fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            log: QueryLog::new(&config),
            config,
            latency_ms: WindowedHistogram::default(),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            over_deadline: AtomicU64::new(0),
            budget_exceeded: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            strategy_sq: AtomicU64::new(0),
            strategy_mq: AtomicU64::new(0),
            strategy_native_rank: AtomicU64::new(0),
            degrade_rungs: Default::default(),
            repl: Mutex::new(None),
            pool_workers: AtomicU64::new(0),
            pool_wait_us: Mutex::new(Histogram::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The query log (recent ring, slow ring, sink).
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// Record one completed query and update every aggregate.
    pub(crate) fn record(&self, record: QueryRecord) -> Arc<QueryRecord> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.latency_ms.record(record.phases.total_us as f64 / 1_000.0);
        if !record.ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(i) = DegradeLevel::LADDER[1..].iter().position(|&l| l == record.degrade) {
            self.degraded.fetch_add(1, Ordering::Relaxed);
            self.degrade_rungs[i].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(deadline_ms) = record.deadline_ms {
            if record.phases.total_us > deadline_ms.saturating_mul(1_000) {
                self.over_deadline.fetch_add(1, Ordering::Relaxed);
            }
        }
        match record.error_kind {
            Some("budget") => {
                self.budget_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Some("overloaded") => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        let stored = self.log.push(record);
        if stored.slow {
            self.slow.fetch_add(1, Ordering::Relaxed);
        }
        stored
    }

    /// Publish this node's replication state. Called by the replication
    /// layer after every role change and periodically during shipping, so
    /// `SHOW METRICS` reflects live progress.
    pub fn set_repl_status(&self, status: ReplStatus) {
        *self.repl.lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
    }

    /// The last published replication state (`None` when this service is
    /// not replicated).
    pub fn repl_status(&self) -> Option<ReplStatus> {
        self.repl.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Publish the size of the server's worker pool (`server.pool.workers`).
    pub fn set_pool_workers(&self, workers: usize) {
        self.pool_workers.store(workers as u64, Ordering::Relaxed);
    }

    /// Record how long one request queued for a pool worker
    /// (`server.pool.wait_us`).
    pub fn record_pool_wait(&self, wait: Duration) {
        let us = wait.as_secs_f64() * 1e6;
        self.pool_wait_us.lock().unwrap_or_else(|e| e.into_inner()).record(us);
    }

    /// Count one caught panic (the query itself is also recorded, as an
    /// internal error).
    pub(crate) fn note_panic(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Count the execution strategy an answer ran through (resolved, never
    /// `Auto`). `Original` answers — unpersonalized sessions or the ladder
    /// floor — are not a planner strategy and are not counted.
    pub(crate) fn note_strategy(&self, rewrite: pqp_core::Rewrite) {
        use pqp_core::Rewrite;
        match rewrite {
            Rewrite::Sq => self.strategy_sq.fetch_add(1, Ordering::Relaxed),
            Rewrite::Mq => self.strategy_mq.fetch_add(1, Ordering::Relaxed),
            Rewrite::NativeRank => self.strategy_native_rank.fetch_add(1, Ordering::Relaxed),
            _ => return,
        };
    }

    /// Snapshot every aggregate.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            over_deadline: self.over_deadline.load(Ordering::Relaxed),
            budget_exceeded: self.budget_exceeded.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            strategy_sq: self.strategy_sq.load(Ordering::Relaxed),
            strategy_mq: self.strategy_mq.load(Ordering::Relaxed),
            strategy_native_rank: self.strategy_native_rank.load(Ordering::Relaxed),
            degrade_rungs: std::array::from_fn(|i| self.degrade_rungs[i].load(Ordering::Relaxed)),
            latency_ms: self.latency_ms.snapshot(),
            repl: self.repl_status(),
            pool_workers: self.pool_workers.load(Ordering::Relaxed),
            pool_wait_us: self.pool_wait_us.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }

    /// The `SHOW METRICS` result table: one `(metric, value)` row per
    /// counter and latency quantile, lifetime first, then the sliding
    /// last-minute window.
    pub fn metrics_table(&self) -> ResultSet {
        let snap = self.snapshot();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let int = |name: &str, v: u64, rows: &mut Vec<Vec<Value>>| {
            rows.push(vec![Value::str(name), Value::Int(v as i64)]);
        };
        int("queries_total", snap.queries, &mut rows);
        int("errors_total", snap.errors, &mut rows);
        int("slow_queries_total", snap.slow, &mut rows);
        int("degraded_total", snap.degraded, &mut rows);
        int("over_deadline_total", snap.over_deadline, &mut rows);
        int("budget_exceeded_total", snap.budget_exceeded, &mut rows);
        int("overloaded_total", snap.overloaded, &mut rows);
        int("panics_caught_total", snap.panics_caught, &mut rows);
        int("planner.strategy.sq", snap.strategy_sq, &mut rows);
        int("planner.strategy.mq", snap.strategy_mq, &mut rows);
        int("planner.strategy.native_rank", snap.strategy_native_rank, &mut rows);
        for (level, n) in DegradeLevel::LADDER[1..].iter().zip(snap.degrade_rungs) {
            int(&format!("service.degrade.rung.{level}"), n, &mut rows);
        }
        let float = |name: &str, v: f64, rows: &mut Vec<Vec<Value>>| {
            rows.push(vec![Value::str(name), Value::Float(v)]);
        };
        let life = &snap.latency_ms.lifetime;
        float("latency_mean_ms", life.mean(), &mut rows);
        float("latency_p50_ms", life.p50(), &mut rows);
        float("latency_p95_ms", life.p95(), &mut rows);
        float("latency_p99_ms", life.p99(), &mut rows);
        float("latency_max_ms", life.max(), &mut rows);
        let win = &snap.latency_ms.window;
        let win_secs = snap.latency_ms.window_dur.as_secs_f64();
        rows.push(vec![Value::str("window_seconds"), Value::Int(win_secs as i64)]);
        rows.push(vec![Value::str("window_queries"), Value::Int(win.count() as i64)]);
        float("window_qps", win.count() as f64 / win_secs.max(1.0), &mut rows);
        float("window_p50_ms", win.p50(), &mut rows);
        float("window_p95_ms", win.p95(), &mut rows);
        float("window_p99_ms", win.p99(), &mut rows);
        if let Some(repl) = &snap.repl {
            rows.push(vec![Value::str("repl.node_id"), Value::str(repl.node_id.as_str())]);
            rows.push(vec![Value::str("repl.role"), Value::str(repl.role.as_str())]);
            int("repl.term", repl.term, &mut rows);
            int("repl.last_seq", repl.last_seq, &mut rows);
            int("repl.durable_seq", repl.durable_seq, &mut rows);
            int("repl.quorum", repl.quorum as u64, &mut rows);
            for f in &repl.followers {
                int(&format!("repl.follower.{}.ack_seq", f.addr), f.ack_seq, &mut rows);
                int(&format!("repl.follower.{}.lag", f.addr), f.lag, &mut rows);
            }
            float("repl.fsync_p50_ms", repl.fsync_p50_ms, &mut rows);
            float("repl.fsync_p99_ms", repl.fsync_p99_ms, &mut rows);
            float("repl.ship_p50_ms", repl.ship_p50_ms, &mut rows);
            float("repl.ship_p99_ms", repl.ship_p99_ms, &mut rows);
        }
        if snap.pool_workers > 0 {
            let wait = &snap.pool_wait_us;
            int("server.pool.workers", snap.pool_workers, &mut rows);
            int("server.pool.wait_us.count", wait.count() as u64, &mut rows);
            float("server.pool.wait_us.p50", wait.p50(), &mut rows);
            float("server.pool.wait_us.p99", wait.p99(), &mut rows);
            float("server.pool.wait_us.max", wait.quantile(1.0), &mut rows);
        }
        ResultSet { columns: vec!["metric".to_string(), "value".to_string()], rows }
    }

    /// The `SHOW QUERIES [LIMIT n]` result table: the most recent records,
    /// newest first, with the full phase breakdown per row.
    pub fn queries_table(&self, limit: usize) -> ResultSet {
        let columns = [
            "seq",
            "user",
            "ok",
            "total_ms",
            "parse_us",
            "personalize_us",
            "plan_us",
            "execute_us",
            "rows_out",
            "rows_scanned",
            "est_rows",
            "prepared_cache",
            "plan_cache",
            "degrade",
            "slow",
            "error",
            "sql",
        ];
        let rows = self
            .log
            .recent(limit)
            .into_iter()
            .map(|r| {
                vec![
                    Value::Int(r.seq as i64),
                    Value::str(r.user.as_str()),
                    Value::Bool(r.ok),
                    Value::Float(r.phases.total_us as f64 / 1_000.0),
                    Value::Int(r.phases.parse_us as i64),
                    Value::Int(r.phases.personalize_us as i64),
                    Value::Int(r.phases.plan_us as i64),
                    Value::Int(r.phases.execute_us as i64),
                    Value::Int(r.rows_out as i64),
                    Value::Int(r.rows_scanned as i64),
                    r.est_rows.map_or(Value::Null, Value::Float),
                    Value::str(r.prepared_cache),
                    Value::str(r.plan_cache),
                    Value::str(r.degrade.label()),
                    Value::Bool(r.slow),
                    r.error.as_deref().map_or(Value::Null, Value::str),
                    Value::str(r.sql.as_str()),
                ]
            })
            .collect();
        ResultSet { columns: columns.iter().map(|c| c.to_string()).collect(), rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with(user: &str, total_us: u64, ok: bool) -> QueryRecord {
        QueryRecord {
            seq: 0,
            user: user.to_string(),
            sql: "SELECT MV.title FROM MOVIE MV".to_string(),
            ok,
            error_kind: if ok { None } else { Some("engine") },
            error: if ok { None } else { Some("boom".to_string()) },
            phases: PhaseBreakdown { total_us, execute_us: total_us, ..Default::default() },
            rows_out: 3,
            rows_scanned: 10,
            mem_bytes: 640,
            est_rows: Some(3.4),
            prepared_cache: "miss",
            plan_cache: "miss",
            degrade: DegradeLevel::None,
            k: 1,
            m: 0,
            deadline_ms: None,
            rows_limit: None,
            mem_limit: None,
            slow: false,
        }
    }

    fn config() -> TelemetryConfig {
        TelemetryConfig {
            query_log_capacity: 4,
            slow_log_capacity: 2,
            slow_query_ms: 100,
            log_file: None,
        }
    }

    #[test]
    fn ring_is_bounded_and_newest_first() {
        let t = Telemetry::new(config());
        for i in 0..10 {
            t.record(record_with(&format!("u{i}"), 1_000, true));
        }
        let recent = t.log().recent(100);
        assert_eq!(recent.len(), 4, "ring stays at capacity");
        assert_eq!(recent[0].user, "u9", "newest first");
        assert_eq!(recent[3].user, "u6");
        assert_eq!(t.log().total(), 10);
        assert_eq!(recent[0].seq, 10, "sequence numbers are monotonic");
    }

    #[test]
    fn slow_ring_retains_outliers_evicted_from_recent() {
        let t = Telemetry::new(config());
        t.record(record_with("tortoise", 150_000, true)); // 150 ms ≥ 100 ms
        for i in 0..8 {
            t.record(record_with(&format!("hare{i}"), 1_000, true));
        }
        assert!(
            t.log().recent(100).iter().all(|r| r.user != "tortoise"),
            "fast traffic evicted the outlier from the recent ring"
        );
        let slow = t.log().slow(100);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].user, "tortoise");
        assert!(slow[0].slow);
        assert_eq!(t.snapshot().slow, 1);
    }

    #[test]
    fn counters_classify_records() {
        let t = Telemetry::new(config());
        t.record(record_with("a", 1_000, true));
        t.record(record_with("b", 1_000, false));
        let mut degraded = record_with("c", 1_000, true);
        degraded.degrade = DegradeLevel::ReducedK;
        t.record(degraded);
        let mut late = record_with("d", 9_000, true);
        late.deadline_ms = Some(5);
        t.record(late);
        let mut refused = record_with("e", 10, false);
        refused.error_kind = Some("budget");
        t.record(refused);
        t.note_panic();
        let mut native = record_with("f", 1_000, true);
        native.degrade = DegradeLevel::NativeReducedK;
        t.record(native);
        let snap = t.snapshot();
        assert_eq!(snap.queries, 6);
        assert_eq!(snap.errors, 2);
        assert_eq!(snap.degraded, 2);
        assert_eq!(snap.degrade_rungs, [1, 1, 0, 0], "one reduced-k, one native-reduced-k");
        assert_eq!(snap.over_deadline, 1);
        assert_eq!(snap.budget_exceeded, 1);
        assert_eq!(snap.panics_caught, 1);
        assert_eq!(snap.latency_ms.lifetime.count(), 6);
        assert!(snap.latency_ms.window.count() >= 6, "fresh samples are inside the window");
    }

    #[test]
    fn record_json_has_the_sink_schema() {
        let t = Telemetry::new(config());
        let mut r = record_with("ana", 2_500, false);
        r.deadline_ms = Some(50);
        r.rows_limit = Some(1_000);
        let stored = t.record(r);
        let j = stored.to_json();
        assert_eq!(j.get("seq").unwrap().as_i64(), Some(1));
        assert_eq!(j.get("user").unwrap().as_str(), Some("ana"));
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("total_us").unwrap().as_i64(), Some(2_500));
        assert_eq!(j.get("deadline_ms").unwrap().as_i64(), Some(50));
        assert_eq!(j.get("rows_limit").unwrap().as_i64(), Some(1_000));
        assert_eq!(j.get("error_kind").unwrap().as_str(), Some("engine"));
        // The line parses back (what a log consumer will do).
        let back = Json::parse(&j.render()).unwrap();
        assert_eq!(back.get("user").unwrap().as_str(), Some("ana"));
    }

    #[test]
    fn sink_appends_one_json_line_per_record() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pqp_query_log_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::new(TelemetryConfig { log_file: Some(path.clone()), ..config() });
        t.record(record_with("ana", 1_000, true));
        t.record(record_with("bob", 2_000, true));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("user").unwrap().as_str(), Some("ana"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn show_tables_render_counters_and_records() {
        let t = Telemetry::new(config());
        t.record(record_with("ana", 1_000, true));
        let metrics = t.metrics_table();
        assert_eq!(metrics.columns, vec!["metric", "value"]);
        let get = |name: &str| {
            metrics.rows.iter().find(|r| r[0] == Value::str(name)).map(|r| r[1].clone())
        };
        assert_eq!(get("queries_total"), Some(Value::Int(1)));
        assert_eq!(get("errors_total"), Some(Value::Int(0)));
        t.note_strategy(pqp_core::Rewrite::NativeRank);
        let metrics = t.metrics_table();
        let get = |name: &str| {
            metrics.rows.iter().find(|r| r[0] == Value::str(name)).map(|r| r[1].clone())
        };
        assert_eq!(get("planner.strategy.native_rank"), Some(Value::Int(1)));
        assert_eq!(get("planner.strategy.sq"), Some(Value::Int(0)));
        assert_eq!(get("planner.strategy.mq"), Some(Value::Int(0)));
        assert_eq!(get("service.degrade.rung.native-reduced-k"), Some(Value::Int(0)));
        assert!(matches!(get("latency_p95_ms"), Some(Value::Float(v)) if v > 0.0));
        assert!(matches!(get("window_qps"), Some(Value::Float(v)) if v > 0.0));

        assert!(
            !metrics.rows.iter().any(|r| matches!(&r[0], Value::Str(s) if s.starts_with("repl."))),
            "single-node telemetry has no repl rows"
        );

        let queries = t.queries_table(10);
        assert_eq!(queries.rows.len(), 1);
        let seq_col = queries.columns.iter().position(|c| c == "seq").unwrap();
        let user_col = queries.columns.iter().position(|c| c == "user").unwrap();
        assert_eq!(queries.rows[0][seq_col], Value::Int(1));
        assert_eq!(queries.rows[0][user_col], Value::str("ana"));
    }

    #[test]
    fn repl_status_surfaces_in_snapshot_and_metrics() {
        let t = Telemetry::new(config());
        assert!(t.repl_status().is_none());
        t.set_repl_status(ReplStatus {
            node_id: "n1".into(),
            role: "leader".into(),
            term: 3,
            last_seq: 40,
            durable_seq: 40,
            quorum: 2,
            followers: vec![
                FollowerLag { addr: "127.0.0.1:7001".into(), ack_seq: 40, lag: 0 },
                FollowerLag { addr: "127.0.0.1:7002".into(), ack_seq: 37, lag: 3 },
            ],
            fsync_p50_ms: 0.4,
            fsync_p99_ms: 1.9,
            ship_p50_ms: 0.2,
            ship_p99_ms: 0.9,
        });
        let snap = t.snapshot();
        let repl = snap.repl.expect("repl state published");
        assert_eq!(repl.role, "leader");
        assert_eq!(repl.followers.len(), 2);

        let metrics = t.metrics_table();
        let get = |name: &str| {
            metrics.rows.iter().find(|r| r[0] == Value::str(name)).map(|r| r[1].clone())
        };
        assert_eq!(get("repl.node_id"), Some(Value::Str("n1".into())));
        assert_eq!(get("repl.role"), Some(Value::Str("leader".into())));
        assert_eq!(get("repl.term"), Some(Value::Int(3)));
        assert_eq!(get("repl.last_seq"), Some(Value::Int(40)));
        assert_eq!(get("repl.durable_seq"), Some(Value::Int(40)));
        assert_eq!(get("repl.quorum"), Some(Value::Int(2)));
        assert_eq!(get("repl.follower.127.0.0.1:7002.lag"), Some(Value::Int(3)));
        assert_eq!(get("repl.follower.127.0.0.1:7001.ack_seq"), Some(Value::Int(40)));
        assert!(matches!(get("repl.fsync_p99_ms"), Some(Value::Float(v)) if v > 1.0));

        // Re-publishing replaces, never accumulates.
        let mut again = t.repl_status().expect("still set");
        again.role = "follower".into();
        again.followers.clear();
        t.set_repl_status(again);
        let metrics = t.metrics_table();
        let roles: Vec<&Vec<Value>> =
            metrics.rows.iter().filter(|r| r[0] == Value::str("repl.role")).collect();
        assert_eq!(roles.len(), 1);
        assert_eq!(roles[0][1], Value::Str("follower".into()));
    }
}
