//! # pqp-obs
//!
//! The observability substrate of the `pqp` workspace, built entirely on the
//! standard library (the build must succeed offline, so no serde, no
//! tracing, no rand):
//!
//! - [`span`](mod@span) — a lightweight hierarchical span API: `span("selection")`
//!   returns an RAII guard, guards nest into a tree, and
//!   [`span::trace_end`] yields a [`span::PipelineTrace`] with per-stage
//!   timings and recorded fields. When no trace is active every call is a
//!   cheap no-op, so instrumentation can stay in hot paths permanently.
//! - [`metrics`] — counters, gauges and bounded log-bucket histograms
//!   (p50/p95/p99/max within a documented ≈2.2% relative error, O(1)
//!   memory) in a [`metrics::Registry`], plus a process-global registry
//!   that aggregates across traces (the bench harness reads it).
//! - [`window`](mod@window) — [`WindowedHistogram`]: a lifetime histogram plus a
//!   sliding recent window (default last 60 s) for always-on processes.
//! - [`runmeta`] — the shared run-metadata block ([`run_meta`]) stamped
//!   into every `results/*.json` writer so bench files are comparable
//!   across hosts.
//! - [`json`] — a small JSON value type with a parser and printers, the
//!   serialization layer for traces, metrics and stored profiles.
//! - [`report`] — renders a span tree as an `EXPLAIN ANALYZE`-style text
//!   report.
//! - [`rng`] — a deterministic xoshiro256++ PRNG behind a minimal [`rng::Rng`]
//!   trait; the workspace's replacement for the `rand` crate in data
//!   generation and randomized tests.
//! - [`governor`] — per-query [`Budget`]s and the cooperative [`QueryCtx`]
//!   threaded through execution: deadline / rows-scanned / memory limits
//!   checked at operator loop boundaries, typed [`BudgetExceeded`] with
//!   partial-progress counters.
//! - [`failpoint`] — a zero-dep fault-injection registry, one per node
//!   (each catalog owns a [`failpoint::Failpoints`] handle): named sites
//!   fire errors, panics or delays, configured programmatically or via
//!   `PQP_FAILPOINTS`, deterministic through the in-tree xoshiro RNG.

pub mod failpoint;
pub mod governor;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod runmeta;
pub mod span;
pub mod window;

pub use governor::{approx_row_bytes, Budget, BudgetExceeded, BudgetReason, Progress, QueryCtx};
pub use json::Json;
pub use metrics::{
    counter_add, gauge_set, observe, CacheSnapshot, CacheStats, Histogram, HistogramSummary,
    Registry,
};
pub use runmeta::{run_meta, RESULTS_SCHEMA_VERSION};
pub use span::{
    record, span, trace_active, trace_begin, trace_end, Field, PipelineTrace, SpanGuard, SpanNode,
};
pub use window::{WindowSnapshot, WindowedHistogram};
