//! The parallel schedule: split, spawn, join, merge — and nothing else.
//!
//! No operator logic lives here. Every loop body (scan, filter, projection,
//! hash build, hash probe) is a function of `exec.rs` that the serial path
//! calls inline on its whole input; this module cuts the input into pieces,
//! runs that same function once per piece on a [`std::thread::scope`]
//! worker ([`fan_out`]; the workspace allows no external dependencies, so
//! no rayon) and concatenates the outputs in piece order
//! ([`merge_ordered`]).
//!
//! ## Determinism contract
//!
//! Because the loop is the serial loop, **output is byte-identical to a
//! serial run** exactly when the split and merge preserve order:
//!
//! - scans partition the heap into contiguous *page* ranges
//!   ([`pqp_storage::Heap::iter_raw_partition`]) whose concatenation is the
//!   serial iteration order;
//! - filter/project split their materialized input into contiguous row
//!   chunks ([`split_chunks`]);
//! - the hash join builds one table per hash partition of the build side
//!   (each worker scans all build rows in order and keeps its partition's
//!   keys, so per-key match lists keep build-insertion order), then probes
//!   contiguous chunks of the probe side — (probe order, then
//!   build-insertion order) emission, as with the serial join's one table.
//!
//! Downstream order-sensitive operators (DISTINCT, GROUP BY, first-seen
//! dedup) therefore see the same row order under any thread budget.
//!
//! ## Failure & governor semantics
//!
//! Workers share the query's [`QueryCtx`]: the loops charge and checkpoint
//! on the same atomic counters as a serial run, so a budget tripped by any
//! worker stops the rest at their next checkpoint. A *panicking* worker is
//! isolated: the scope joins all its handles and [`join_worker`] maps a
//! panicked join into [`EngineError::Internal`] — the query fails with a
//! typed error, no thread leaks, and the process keeps serving. The
//! `par.worker` failpoint fires at each worker's entry to prove exactly
//! that under chaos testing.
//!
//! ## Observability
//!
//! Spans and fields are thread-local, so all recording happens on the
//! coordinating thread: each parallel operator records `partitions` and
//! per-partition output rows on its own `exec.<op>` span, bumps the
//! `exec.parallel.workers` counter by the number of workers it spawned
//! (the serial path never touches it — the regression tests key off that),
//! and the join records `strategy=parallel_hash_join`. Workers make no
//! observability calls.

use crate::bound::BoundExpr;
use crate::error::{EngineError, Result};
use crate::exec::{build_table, probe_tables, scan_encoded, JoinTable};
use pqp_obs::QueryCtx;
use pqp_storage::{Row, Table};
use std::thread::ScopedJoinHandle;

/// Join a scoped worker, converting a worker panic into a typed
/// [`EngineError::Internal`] instead of propagating the unwind: the query
/// fails, the scope still joins every other worker, the process lives on.
fn join_worker<T>(handle: ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    match handle.join() {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(EngineError::Internal(format!("parallel worker panicked: {msg}")))
        }
    }
}

/// Run `work` over every item on a scoped worker of its own and return the
/// results in item order; the scope joins every worker before returning,
/// whatever any one of them did. The one place a thread is spawned, so also
/// where `exec.parallel.workers` is counted and where the `par.worker`
/// failpoint fires at each worker's entry: `error` fails that worker's
/// piece, `panic` exercises [`join_worker`]'s isolation, `delay` stretches
/// the worker so deadlines trip mid-operator.
fn fan_out<I, T>(items: I, work: impl Fn(I::Item) -> Result<T> + Sync) -> Vec<Result<T>>
where
    I: IntoIterator,
    I::Item: Send,
    T: Send,
{
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                s.spawn(move || match pqp_obs::failpoint::fire("par.worker") {
                    Some(msg) => Err(EngineError::Internal(format!("failpoint par.worker: {msg}"))),
                    None => work(item),
                })
            })
            .collect();
        pqp_obs::counter_add("exec.parallel.workers", handles.len() as i64);
        handles.into_iter().map(join_worker).collect()
    })
}

/// Split `rows` into at most `parts` contiguous chunks (all but the last of
/// equal size), preserving order across the concatenation of the chunks.
fn split_chunks(mut rows: Vec<Row>, parts: usize) -> Vec<Vec<Row>> {
    let chunk = rows.len().div_ceil(parts.max(1)).max(1);
    let mut chunks = Vec::with_capacity(parts);
    while rows.len() > chunk {
        let tail = rows.split_off(chunk);
        chunks.push(std::mem::replace(&mut rows, tail));
    }
    chunks.push(rows);
    chunks
}

/// Merge per-partition results in partition order, recording the fan-out.
fn merge_ordered(results: Vec<Result<Vec<Row>>>) -> Result<Vec<Row>> {
    let parts: Vec<Vec<Row>> = results.into_iter().collect::<Result<_>>()?;
    let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
    pqp_obs::record("partitions", sizes.len());
    pqp_obs::record("partition_rows", format!("{sizes:?}"));
    let mut out = Vec::with_capacity(sizes.iter().sum());
    for p in parts {
        out.extend(p);
    }
    Ok(out)
}

/// Page-partitioned heap scan: each worker runs the scan body
/// ([`scan_encoded`]) over one contiguous page range; partitions merge in
/// page order (= serial scan order).
pub(crate) fn scan_partitioned(
    t: &Table,
    filter: Option<&BoundExpr>,
    parts: usize,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    pqp_obs::counter_add("exec.scan.partitions", parts as i64);
    let arity = t.schema().arity();
    merge_ordered(fan_out(0..parts, |p| {
        scan_encoded(t.iter_raw_partition(p, parts), arity, filter, ctx)
    }))
}

/// A row-at-a-time operator (filter, projection) over materialized rows:
/// `work` runs over contiguous chunks, outputs merge in chunk order.
pub(crate) fn map_chunks(
    rows: Vec<Row>,
    parts: usize,
    work: impl Fn(Vec<Row>) -> Result<Vec<Row>> + Sync,
) -> Result<Vec<Row>> {
    merge_ordered(fan_out(split_chunks(rows, parts), work))
}

/// Partitioned hash join: one worker per hash partition builds that
/// partition's table over the whole build side, then one worker per
/// contiguous chunk of the probe side probes them; chunk outputs merge in
/// chunk order.
pub(crate) fn hash_join_partitioned(
    build: &[Row],
    probe: &[Row],
    build_keys: &[usize],
    probe_keys: &[usize],
    build_left: bool,
    parts: usize,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    pqp_obs::record("strategy", "parallel_hash_join");
    pqp_obs::record("build_rows", build.len());
    let tables: Vec<JoinTable> =
        fan_out(0..parts, |p| build_table(build, build_keys, p, parts, ctx))
            .into_iter()
            .collect::<Result<_>>()?;
    let chunk = probe.len().div_ceil(parts).max(1);
    merge_ordered(fan_out(probe.chunks(chunk), |rows| {
        probe_tables(rows, build, &tables, probe_keys, build_left, ctx)
    }))
}
