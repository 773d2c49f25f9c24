//! Counters, gauges and histograms in a [`Registry`], plus a process-global
//! registry aggregating across traces.
//!
//! The convenience functions ([`counter_add`], [`gauge_set`], [`observe`])
//! write to the global registry *and* to the registry of the active trace
//! (if any) — so one instrumentation call site feeds both the per-query
//! `EXPLAIN ANALYZE` report and the bench harness's aggregate breakdowns.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Buckets per doubling of the value: the resolution of the log scale.
/// With 16 sub-buckets per power of two, a bucket spans a factor of
/// `2^(1/16) ≈ 1.0443`, and reporting the geometric midpoint bounds the
/// relative quantile error at `2^(1/32) - 1 ≈ 2.2%`.
const BUCKETS_PER_DOUBLING: f64 = 16.0;

/// Bucket indices are clamped to this magnitude, covering values from
/// `2^-128` to `2^128` (≈ `1e-38 .. 1e38`) — far past any latency or byte
/// count this workspace records. The clamp makes the worst-case memory
/// strictly bounded: at most `2 * 2 * 2048 + 1` occupied buckets.
const MAX_BUCKET: i32 = 2048;

/// A histogram of `f64` samples over fixed log-scale buckets.
///
/// Count, sum, min and max are tracked exactly; quantiles come from the
/// bucket structure and carry a **bounded relative error of ≈ 2.2%**
/// (see `BUCKETS_PER_DOUBLING`): each positive sample lands in the bucket
/// `(γ^(i-1), γ^i]` with `γ = 2^(1/16)`, and a quantile reports the
/// geometric midpoint of its bucket, clamped into `[min, max]`. Memory is
/// O(occupied buckets) — bounded regardless of how many samples a
/// long-running process records, which is what lets the always-on telemetry
/// keep lifetime histograms without growing forever. (The previous
/// implementation stored every raw sample.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
    /// Counts of strictly positive samples, keyed by log-bucket index.
    pos: BTreeMap<i32, u64>,
    /// Counts of strictly negative samples, keyed by the index of `|v|`
    /// (larger index = larger magnitude = smaller value).
    neg: BTreeMap<i32, u64>,
    /// Exact-zero samples.
    zero: u64,
}

/// The summary row the reports print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Log-bucket index of a strictly positive value: the smallest `i` with
/// `v <= γ^i`.
fn bucket_of(v: f64) -> i32 {
    let i = (v.log2() * BUCKETS_PER_DOUBLING).ceil() as i64;
    i.clamp(-(MAX_BUCKET as i64), MAX_BUCKET as i64) as i32
}

/// Representative of bucket `i`: the geometric midpoint of `(γ^(i-1), γ^i]`.
fn representative(i: i32) -> f64 {
    ((f64::from(i) - 0.5) / BUCKETS_PER_DOUBLING).exp2()
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if v > 0.0 {
            *self.pos.entry(bucket_of(v)).or_insert(0) += 1;
        } else if v < 0.0 {
            *self.neg.entry(bucket_of(-v)).or_insert(0) += 1;
        } else {
            self.zero += 1;
        }
    }

    pub fn count(&self) -> usize {
        self.count
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::INFINITY
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NEG_INFINITY
        } else {
            self.max
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Estimated quantile (`q` clamped to `[0, 1]`; 0 on an empty
    /// histogram). The estimate is the bucket representative of the
    /// `round(q * (n-1))`-th order statistic, clamped into `[min, max]`, so
    /// it is within ≈ 2.2% relative error of the exact order statistic, and
    /// `quantile(0.0)` / `quantile(1.0)` return the exact min / max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let target = (q * (self.count - 1) as f64).round() as u64;
        let mut cum: u64 = 0;
        // Ascending value order: negatives (largest magnitude first), zero,
        // then positives.
        for (&i, &n) in self.neg.iter().rev() {
            cum += n;
            if cum > target {
                return (-representative(i)).clamp(self.min, self.max);
            }
        }
        cum += self.zero;
        if cum > target {
            return 0.0f64.clamp(self.min, self.max);
        }
        for (&i, &n) in self.pos.iter() {
            cum += n;
            if cum > target {
                return representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn summary(&self) -> HistogramSummary {
        if self.count == 0 {
            return HistogramSummary {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        HistogramSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
        }
    }

    /// Fold another histogram into this one (bucket counts add; count, sum,
    /// min and max stay exact).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zero += other.zero;
        for (&i, &n) in &other.pos {
            *self.pos.entry(i).or_insert(0) += n;
        }
        for (&i, &n) in &other.neg {
            *self.neg.entry(i).or_insert(0) += n;
        }
    }

    fn to_json(&self) -> Json {
        let s = self.summary();
        Json::obj()
            .set("count", s.count)
            .set("min", s.min)
            .set("max", s.max)
            .set("mean", s.mean)
            .set("p50", s.p50)
            .set("p95", s.p95)
            .set("p99", s.p99)
    }
}

/// A named collection of counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, i64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add to a counter (creating it at 0).
    pub fn add(&mut self, name: &str, delta: i64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set a gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    pub fn counter(&self, name: &str) -> i64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, i64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one (counters add, gauges take the
    /// other's value, histograms concatenate samples).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters = counters.set(k, *v);
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.gauges {
            gauges = gauges.set(k, *v);
        }
        let mut histograms = Json::obj();
        for (k, h) in &self.histograms {
            histograms = histograms.set(k, h.to_json());
        }
        Json::obj().set("counters", counters).set("gauges", gauges).set("histograms", histograms)
    }
}

fn global_registry() -> &'static Mutex<Registry> {
    static GLOBAL: OnceLock<Mutex<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Registry::new()))
}

fn with_global(f: impl FnOnce(&mut Registry)) {
    let mut g = global_registry().lock().unwrap_or_else(|e| e.into_inner());
    f(&mut g);
}

/// Snapshot the process-global registry.
pub fn global_snapshot() -> Registry {
    global_registry().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Add to a counter in the global registry and the active trace (if any).
pub fn counter_add(name: &str, delta: i64) {
    with_global(|g| g.add(name, delta));
    crate::span::with_trace_metrics(|m| m.add(name, delta));
}

/// Set a gauge in the global registry and the active trace (if any).
pub fn gauge_set(name: &str, value: f64) {
    with_global(|g| g.set_gauge(name, value));
    crate::span::with_trace_metrics(|m| m.set_gauge(name, value));
}

/// Record a histogram sample in the global registry and the active trace.
pub fn observe(name: &str, value: f64) {
    with_global(|g| g.observe(name, value));
    crate::span::with_trace_metrics(|m| m.observe(name, value));
}

/// Hit/miss/stale/eviction counters for one named cache.
///
/// Each event bumps a local atomic (so a cache owner can assert on its own
/// traffic in isolation) *and* the global registry / active trace via
/// [`counter_add`] under `<name>.hit`, `<name>.miss`, `<name>.stale`,
/// `<name>.eviction` — so cache behaviour shows up in every metrics export
/// without extra wiring.
#[derive(Debug)]
pub struct CacheStats {
    name: String,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time copy of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    /// Lookups that found an entry invalidated by an epoch bump.
    pub stale: u64,
    pub evictions: u64,
}

impl CacheSnapshot {
    /// Hits over all lookups (0 when the cache saw no traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl CacheStats {
    /// Create counters for a cache named `name` (the metrics key prefix).
    pub fn new(name: impl Into<String>) -> CacheStats {
        CacheStats {
            name: name.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The metrics key prefix.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn bump(&self, local: &AtomicU64, event: &str) {
        local.fetch_add(1, Ordering::Relaxed);
        counter_add(&format!("{}.{event}", self.name), 1);
    }

    /// Record a lookup served from the cache.
    pub fn hit(&self) {
        self.bump(&self.hits, "hit");
    }

    /// Record a lookup that found nothing.
    pub fn miss(&self) {
        self.bump(&self.misses, "miss");
    }

    /// Record a lookup that found an entry invalidated by an epoch bump.
    pub fn stale(&self) {
        self.bump(&self.stale, "stale");
    }

    /// Record an entry evicted to make room.
    pub fn eviction(&self) {
        self.bump(&self.evictions, "eviction");
    }

    /// Copy the local counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented relative error bound of bucketed quantiles.
    const QUANTILE_RTOL: f64 = 0.025;

    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() <= QUANTILE_RTOL * want.abs().max(1e-12)
    }

    #[test]
    fn histogram_quantiles_within_documented_bound() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        // Count, min, max and mean stay exact; quantiles are bucketed.
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.quantile(0.0), 1.0, "q=0 is the exact min");
        assert_eq!(h.quantile(1.0), 5.0, "q=1 is the exact max");
        assert!(close(h.p50(), 3.0), "{}", h.p50());
        // p95 over 5 samples rounds to the 5th order statistic.
        assert!(close(h.p95(), 5.0), "{}", h.p95());
        assert!(close(h.p99(), 5.0), "{}", h.p99());
    }

    #[test]
    fn histogram_handles_zero_and_negative_samples() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(10.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 10.0);
        let mut h = Histogram::new();
        for v in [-8.0, -2.0, 0.0, 2.0, 8.0] {
            h.record(v);
        }
        assert_eq!(h.min(), -8.0);
        assert_eq!(h.max(), 8.0);
        assert!(close(h.quantile(0.25), -2.0), "{}", h.quantile(0.25));
        assert_eq!(h.p50(), 0.0);
        assert!(close(h.quantile(0.75), 2.0), "{}", h.quantile(0.75));
    }

    #[test]
    fn histogram_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.summary().count, 0);
        let mut h = Histogram::new();
        h.record(7.5);
        assert!(close(h.p50(), 7.5), "{}", h.p50());
        assert!(close(h.p95(), 7.5), "{}", h.p95());
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_quantiles_track_exact_quantiles_within_bound() {
        // Property check for the documented 2.2% bound: a skewed synthetic
        // latency distribution, bucketed quantiles vs. exact order
        // statistics.
        use crate::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0x7E1E);
        let mut h = Histogram::new();
        let mut exact: Vec<f64> = Vec::new();
        for _ in 0..10_000 {
            // Log-uniform over ~4 decades, the shape of real latencies.
            let v = 10f64.powf(rng.gen_f64() * 4.0 - 1.0);
            h.record(v);
            exact.push(v);
        }
        exact.sort_by(|a, b| a.total_cmp(b));
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            let want = exact[(q * (exact.len() - 1) as f64).round() as usize];
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= QUANTILE_RTOL * want,
                "q={q}: got {got}, exact {want} (err {:.3}%)",
                100.0 * (got - want).abs() / want
            );
        }
    }

    #[test]
    fn histogram_memory_stays_bounded() {
        let mut h = Histogram::new();
        for i in 0..100_000u64 {
            h.record(i as f64 * 0.1);
        }
        assert_eq!(h.count(), 100_000);
        // 0..10_000 spans ~17 doublings → at most ~17 * 16 + 1 buckets.
        assert!(h.pos.len() + h.neg.len() <= 2 * MAX_BUCKET as usize + 1);
        assert!(h.pos.len() < 400, "occupied buckets: {}", h.pos.len());
    }

    #[test]
    fn cache_stats_feed_local_and_global_counters() {
        let stats = CacheStats::new("test_cache_stats_unit");
        stats.hit();
        stats.hit();
        stats.miss();
        stats.stale();
        stats.eviction();
        let snap = stats.snapshot();
        assert_eq!(snap, CacheSnapshot { hits: 2, misses: 1, stale: 1, evictions: 1 });
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::new("idle").snapshot().hit_rate(), 0.0);
        // The global registry saw the same events (>= in case of other tests
        // reusing the prefix; the prefix is unique so equality holds).
        let g = global_snapshot();
        assert_eq!(g.counter("test_cache_stats_unit.hit"), 2);
        assert_eq!(g.counter("test_cache_stats_unit.miss"), 1);
        assert_eq!(g.counter("test_cache_stats_unit.stale"), 1);
        assert_eq!(g.counter("test_cache_stats_unit.eviction"), 1);
    }

    #[test]
    fn registry_roundtrip_and_merge() {
        let mut a = Registry::new();
        a.add("rounds", 3);
        a.add("rounds", 2);
        a.set_gauge("k", 10.0);
        a.observe("ms", 1.0);
        let mut b = Registry::new();
        b.add("rounds", 5);
        b.observe("ms", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("rounds"), 10);
        assert_eq!(a.gauge("k"), Some(10.0));
        assert_eq!(a.histogram("ms").unwrap().count(), 2);
        let j = a.to_json();
        assert_eq!(j.get("counters").unwrap().get("rounds").unwrap().as_i64(), Some(10));
        assert_eq!(
            j.get("histograms").unwrap().get("ms").unwrap().get("count").unwrap().as_i64(),
            Some(2)
        );
    }
}
