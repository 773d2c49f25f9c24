//! The query governor substrate: per-query budgets and a cooperative
//! cancellation context.
//!
//! A [`Budget`] declares limits for one query — wall-clock deadline, rows
//! scanned from storage, bytes of intermediate materialization. A
//! [`QueryCtx`] carries those limits (plus a cancellation flag) through the
//! execution stack as shared atomic counters. Operators *cooperate*: they
//! call [`QueryCtx::charge_rows`] / [`QueryCtx::charge_mem`] /
//! [`QueryCtx::checkpoint`] at loop boundaries, and an exceeded budget
//! surfaces as a typed [`BudgetExceeded`] carrying partial-progress counters
//! so callers can report how far the query got before it was stopped.
//!
//! This lives in `pqp-obs` because — like spans and metrics — every layer of
//! the stack needs it and it must stay dependency-free.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declarative limits for one query. `None` fields are unlimited; the
/// default budget is fully unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit, measured from [`QueryCtx::new`].
    pub deadline: Option<Duration>,
    /// Cap on rows read out of base-table storage (scans and index probes).
    pub max_rows_scanned: Option<u64>,
    /// Cap on bytes of intermediate rows materialized by operators
    /// (estimated, see [`approx_row_bytes`]).
    pub max_memory: Option<u64>,
}

impl Budget {
    /// A budget with no limits at all.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// True when no field constrains anything.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_rows_scanned.is_none() && self.max_memory.is_none()
    }

    /// Set the wall-clock deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Budget {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Set the scanned-rows cap.
    pub fn max_rows(mut self, rows: u64) -> Budget {
        self.max_rows_scanned = Some(rows);
        self
    }

    /// Set the intermediate-memory cap in bytes.
    pub fn max_memory_bytes(mut self, bytes: u64) -> Budget {
        self.max_memory = Some(bytes);
        self
    }
}

/// Which limit a query ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The scanned-rows cap was reached.
    RowsScanned,
    /// The intermediate-memory cap was reached.
    Memory,
    /// [`QueryCtx::cancel`] was called.
    Cancelled,
    /// A fault-injection site reported the budget as exhausted
    /// (chaos testing only; never produced by real limits).
    Injected,
}

impl std::fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BudgetReason::Deadline => "deadline",
            BudgetReason::RowsScanned => "rows-scanned limit",
            BudgetReason::Memory => "memory limit",
            BudgetReason::Cancelled => "cancelled",
            BudgetReason::Injected => "injected",
        };
        f.write_str(s)
    }
}

/// A typed budget violation, carrying partial-progress counters captured at
/// the moment the query was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Which limit tripped.
    pub reason: BudgetReason,
    /// Base-table rows read before the stop.
    pub rows_scanned: u64,
    /// Estimated intermediate bytes materialized before the stop.
    pub mem_bytes: u64,
    /// Milliseconds elapsed since the query started.
    pub elapsed_ms: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query budget exceeded ({}) after {} rows scanned, {} bytes materialized, {} ms",
            self.reason, self.rows_scanned, self.mem_bytes, self.elapsed_ms
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A snapshot of a query's resource consumption so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Base-table rows read.
    pub rows_scanned: u64,
    /// Estimated intermediate bytes materialized.
    pub mem_bytes: u64,
    /// Time since the context was created.
    pub elapsed: Duration,
}

/// The per-query governor context threaded through execution.
///
/// Created once per query from a [`Budget`]; operators hold `&QueryCtx` and
/// call the `charge_*` / [`checkpoint`](QueryCtx::checkpoint) methods at
/// loop boundaries. The counters and the cancellation flag are atomic, so
/// another thread can cancel the query or read its progress.
#[derive(Debug)]
pub struct QueryCtx {
    start: Instant,
    deadline: Option<Instant>,
    max_rows: Option<u64>,
    max_mem: Option<u64>,
    rows: AtomicU64,
    mem: AtomicU64,
    /// Shared with contexts derived via [`QueryCtx::slice`], so cancelling
    /// the parent cancels every slice too.
    cancelled: Arc<AtomicBool>,
}

/// How many rows a tight scan loop may process between `charge_rows` flushes.
/// Callers accumulate locally and flush in batches of this size to keep
/// atomic traffic off the per-row path.
pub const CHARGE_BATCH_ROWS: u64 = 256;

/// Stride (power of two) for [`QueryCtx::checkpoint`] calls in non-scan
/// loops: check when `i & (CHECKPOINT_STRIDE - 1) == 0`.
pub const CHECKPOINT_STRIDE: usize = 1024;

impl QueryCtx {
    /// A context enforcing `budget`, with the clock starting now.
    pub fn new(budget: Budget) -> QueryCtx {
        let start = Instant::now();
        QueryCtx {
            start,
            deadline: budget.deadline.map(|d| start + d),
            max_rows: budget.max_rows_scanned,
            max_mem: budget.max_memory,
            rows: AtomicU64::new(0),
            mem: AtomicU64::new(0),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A context with no limits (checkpoints still observe [`cancel`](QueryCtx::cancel)).
    pub fn unlimited() -> QueryCtx {
        QueryCtx::new(Budget::unlimited())
    }

    /// Request cooperative cancellation: the next checkpoint in any thread
    /// sharing this context (or a slice of it) returns `BudgetExceeded`
    /// with [`BudgetReason::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](QueryCtx::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// True when no limit is set and the context cannot be tripped except
    /// by cancellation.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_rows.is_none() && self.max_mem.is_none()
    }

    /// Time remaining until the deadline (`None` when no deadline is set;
    /// zero once it has passed).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The scanned-rows cap this context enforces (`None` = unlimited).
    /// Telemetry records it next to the consumed counters so a query log
    /// entry shows consumption *against its limits*.
    pub fn max_rows_limit(&self) -> Option<u64> {
        self.max_rows
    }

    /// The intermediate-memory cap this context enforces (`None` =
    /// unlimited).
    pub fn max_mem_limit(&self) -> Option<u64> {
        self.max_mem
    }

    /// The total wall-clock budget from context creation to the deadline
    /// (`None` when no deadline is set).
    pub fn deadline_budget(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(self.start))
    }

    /// Check the cancellation flag and the deadline. Call at operator
    /// boundaries and every [`CHECKPOINT_STRIDE`] iterations of non-scan
    /// loops.
    pub fn checkpoint(&self) -> Result<(), BudgetExceeded> {
        if self.is_cancelled() {
            return Err(self.exceeded(BudgetReason::Cancelled));
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.exceeded(BudgetReason::Deadline));
            }
        }
        Ok(())
    }

    /// Charge `n` base-table rows against the scan budget and run a full
    /// checkpoint. Scan loops batch charges (see [`CHARGE_BATCH_ROWS`]) so
    /// this stays off the per-row path.
    pub fn charge_rows(&self, n: u64) -> Result<(), BudgetExceeded> {
        let total = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.max_rows {
            if total > max {
                return Err(self.exceeded(BudgetReason::RowsScanned));
            }
        }
        self.checkpoint()
    }

    /// Charge `bytes` of materialized intermediate state against the memory
    /// budget and run a full checkpoint.
    pub fn charge_mem(&self, bytes: u64) -> Result<(), BudgetExceeded> {
        let total = self.mem.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(max) = self.max_mem {
            if total > max {
                return Err(self.exceeded(BudgetReason::Memory));
            }
        }
        self.checkpoint()
    }

    /// Current consumption counters.
    pub fn progress(&self) -> Progress {
        Progress {
            rows_scanned: self.rows.load(Ordering::Relaxed),
            mem_bytes: self.mem.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
        }
    }

    /// Build the [`BudgetExceeded`] for `reason` with current counters.
    /// Public so layers that detect exhaustion out-of-band (fault injection,
    /// degradation drivers) can produce the same typed error.
    pub fn exceeded(&self, reason: BudgetReason) -> BudgetExceeded {
        let p = self.progress();
        BudgetExceeded {
            reason,
            rows_scanned: p.rows_scanned,
            mem_bytes: p.mem_bytes,
            elapsed_ms: p.elapsed.as_millis() as u64,
        }
    }

    /// Derive a context covering a *slice* of the remaining time budget:
    /// `numer/denom` of the time left until this context's deadline. Row and
    /// memory limits are not inherited (the slice guards a phase that does
    /// its own kind of work), but the cancellation flag is shared — and the
    /// slice's deadline never extends past the parent's.
    ///
    /// The service uses this to give the personalization phase a fraction of
    /// the query deadline, so a selection blow-up trips early enough to
    /// degrade and still answer within the overall deadline.
    pub fn slice(&self, numer: u32, denom: u32) -> QueryCtx {
        let now = Instant::now();
        let deadline = self.deadline.map(|d| {
            let remaining = d.saturating_duration_since(now);
            now + remaining.mul_f64(f64::from(numer) / f64::from(denom.max(1)))
        });
        QueryCtx {
            start: now,
            deadline,
            max_rows: None,
            max_mem: None,
            rows: AtomicU64::new(0),
            mem: AtomicU64::new(0),
            cancelled: Arc::clone(&self.cancelled),
        }
    }
}

impl Default for QueryCtx {
    fn default() -> QueryCtx {
        QueryCtx::unlimited()
    }
}

/// A cheap, uniform estimate of a materialized row's footprint: per-row
/// overhead plus a fixed cost per value. Deliberately approximate — the
/// memory budget bounds blow-ups (cross joins, exploding hash joins), it is
/// not an allocator audit.
pub fn approx_row_bytes(values: usize) -> u64 {
    24 + 32 * values as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let ctx = QueryCtx::unlimited();
        assert!(ctx.is_unlimited());
        for _ in 0..10 {
            ctx.checkpoint().unwrap();
            ctx.charge_rows(1_000_000).unwrap();
            ctx.charge_mem(1 << 30).unwrap();
        }
        let p = ctx.progress();
        assert_eq!(p.rows_scanned, 10_000_000);
    }

    #[test]
    fn zero_deadline_trips_immediately_with_counters() {
        let ctx = QueryCtx::new(Budget::unlimited().deadline_ms(0));
        ctx.charge_rows(123).unwrap_err();
        let err = ctx.checkpoint().unwrap_err();
        assert_eq!(err.reason, BudgetReason::Deadline);
        assert_eq!(err.rows_scanned, 123);
        let msg = err.to_string();
        assert!(msg.contains("deadline") && msg.contains("123"), "{msg}");
    }

    #[test]
    fn row_cap_trips_at_threshold() {
        let ctx = QueryCtx::new(Budget::unlimited().max_rows(500));
        ctx.charge_rows(256).unwrap();
        ctx.charge_rows(244).unwrap(); // exactly 500: still within budget
        let err = ctx.charge_rows(1).unwrap_err();
        assert_eq!(err.reason, BudgetReason::RowsScanned);
        assert_eq!(err.rows_scanned, 501);
    }

    #[test]
    fn memory_cap_trips() {
        let ctx = QueryCtx::new(Budget::unlimited().max_memory_bytes(1024));
        ctx.charge_mem(1024).unwrap();
        let err = ctx.charge_mem(8).unwrap_err();
        assert_eq!(err.reason, BudgetReason::Memory);
        assert!(err.mem_bytes >= 1032);
    }

    #[test]
    fn cancellation_reaches_slices() {
        let parent = QueryCtx::new(Budget::unlimited().deadline_ms(60_000));
        let slice = parent.slice(1, 4);
        slice.checkpoint().unwrap();
        parent.cancel();
        assert_eq!(slice.checkpoint().unwrap_err().reason, BudgetReason::Cancelled);
        assert_eq!(parent.checkpoint().unwrap_err().reason, BudgetReason::Cancelled);
    }

    #[test]
    fn slice_never_outlives_parent_deadline() {
        let parent = QueryCtx::new(Budget::unlimited().deadline_ms(40));
        let slice = parent.slice(1, 4);
        let (p, s) = (parent.remaining_time().unwrap(), slice.remaining_time().unwrap());
        assert!(s <= p, "slice {s:?} > parent {p:?}");
        // An expired parent yields an already-expired slice.
        let expired = QueryCtx::new(Budget::unlimited().deadline_ms(0));
        assert_eq!(expired.slice(1, 2).checkpoint().unwrap_err().reason, BudgetReason::Deadline);
    }

    #[test]
    fn slice_of_unlimited_is_unlimited() {
        let parent = QueryCtx::unlimited();
        let slice = parent.slice(1, 4);
        assert!(slice.is_unlimited());
        slice.checkpoint().unwrap();
    }

    #[test]
    fn budget_builder_and_env() {
        let b = Budget::unlimited().deadline_ms(250).max_rows(10).max_memory_bytes(99);
        assert_eq!(b.deadline, Some(Duration::from_millis(250)));
        assert_eq!(b.max_rows_scanned, Some(10));
        assert_eq!(b.max_memory, Some(99));
        assert!(!b.is_unlimited());
        assert!(Budget::default().is_unlimited());
    }
}
