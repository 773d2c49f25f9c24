//! Partitioned parallel operators: morsel-style scans, filter/project
//! evaluation, and a partitioned hash join, all built on
//! [`std::thread::scope`] (the workspace allows no external dependencies,
//! so no rayon).
//!
//! ## Determinism contract
//!
//! Every operator here produces **byte-identical output to its serial
//! counterpart** in `exec.rs`:
//!
//! - scans partition the heap into contiguous *page* ranges and concatenate
//!   partition outputs in partition order, which is exactly the serial
//!   iteration order ([`pqp_storage::Heap::iter_raw_partition`]);
//! - filter/project split their materialized input into contiguous row
//!   chunks and merge chunk outputs in chunk order;
//! - the hash join builds hash-partitioned tables over the smaller side
//!   (each partition built by one worker scanning the build rows in order,
//!   so per-key match lists keep build-insertion order), then probes
//!   contiguous chunks of the larger side, merging probe-chunk outputs in
//!   chunk order — reproducing the serial join's (probe order, then
//!   build-insertion order) emission exactly.
//!
//! Downstream order-sensitive operators (DISTINCT, GROUP BY, first-seen
//! dedup) therefore see the same row order under any thread budget.
//!
//! ## Failure & governor semantics
//!
//! Workers share the query's [`QueryCtx`]: scans charge rows and other
//! loops checkpoint on the same atomic counters as the serial paths, so a
//! budget tripped by any worker stops the rest at their next checkpoint. A
//! *panicking* worker is isolated: every `scope` joins all its handles and
//! maps a panicked join into [`EngineError::Internal`] — the query fails
//! with a typed error, no thread leaks, and the process keeps serving. The
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
//! and the join records `strategy=parallel_hash_join`. Worker closures make
//! no observability calls.

use crate::bound::BoundExpr;
use crate::error::{EngineError, Result};
use crate::exec::{key_of, scan_encoded};
use pqp_obs::governor::CHECKPOINT_STRIDE;
use pqp_obs::{approx_row_bytes, QueryCtx};
use pqp_storage::{Row, Table, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::thread::ScopedJoinHandle;

/// Count workers spawned by a parallel operator (the never-spawns-when-
/// serial regression tests watch this counter).
fn count_workers(n: usize) {
    pqp_obs::counter_add("exec.parallel.workers", n as i64);
}

/// Record the partition fan-out of the current operator's span.
fn record_partitions(sizes: &[usize]) {
    pqp_obs::record("partitions", sizes.len());
    pqp_obs::record("partition_rows", format!("{sizes:?}"));
}

/// The `par.worker` failpoint, fired at every worker's entry: `error` fails
/// that worker's partition, `panic` exercises the panic-isolation path
/// below, `delay` stretches the worker so deadlines trip mid-operator.
fn worker_failpoint() -> Result<()> {
    match pqp_obs::failpoint::fire("par.worker") {
        Some(msg) => Err(EngineError::Internal(format!("failpoint par.worker: {msg}"))),
        None => Ok(()),
    }
}

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
    record_partitions(&sizes);
    let mut out = Vec::with_capacity(sizes.iter().sum());
    for p in parts {
        out.extend(p);
    }
    Ok(out)
}

/// Parallel partitioned scan over a table's heap pages: each worker runs
/// the scan body ([`scan_encoded`]) over one contiguous page range;
/// partitions merge in page order (= serial scan order). Records
/// `exec.scan.partitions` via the span fields and metrics.
pub(crate) fn scan_partitioned(
    t: &Table,
    filter: Option<&BoundExpr>,
    parts: usize,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    count_workers(parts);
    pqp_obs::counter_add("exec.scan.partitions", parts as i64);
    let arity = t.schema().arity();
    let results: Vec<Result<Vec<Row>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|p| {
                s.spawn(move || -> Result<Vec<Row>> {
                    worker_failpoint()?;
                    scan_encoded(t.iter_raw_partition(p, parts), arity, filter, ctx)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    merge_ordered(results)
}

/// Parallel filter over materialized rows: contiguous chunks, ordered merge.
pub(crate) fn filter_partitioned(
    rows: Vec<Row>,
    predicate: &BoundExpr,
    parts: usize,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    let chunks = split_chunks(rows, parts);
    count_workers(chunks.len());
    let results: Vec<Result<Vec<Row>>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || -> Result<Vec<Row>> {
                    worker_failpoint()?;
                    let mut out = Vec::with_capacity(chunk.len() / 2);
                    for (i, row) in chunk.into_iter().enumerate() {
                        if i & (CHECKPOINT_STRIDE - 1) == 0 {
                            ctx.checkpoint()?;
                        }
                        if predicate.eval_predicate(&row)? {
                            out.push(row);
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    merge_ordered(results)
}

/// Parallel projection over materialized rows: contiguous chunks, ordered
/// merge.
pub(crate) fn project_partitioned(
    rows: Vec<Row>,
    exprs: &[BoundExpr],
    parts: usize,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    let chunks = split_chunks(rows, parts);
    count_workers(chunks.len());
    let results: Vec<Result<Vec<Row>>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || -> Result<Vec<Row>> {
                    worker_failpoint()?;
                    let mut out = Vec::with_capacity(chunk.len());
                    for (i, row) in chunk.into_iter().enumerate() {
                        if i & (CHECKPOINT_STRIDE - 1) == 0 {
                            ctx.checkpoint()?;
                        }
                        let mut projected = Vec::with_capacity(exprs.len());
                        for e in exprs {
                            projected.push(e.eval(&row)?);
                        }
                        out.push(projected);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    merge_ordered(results)
}

/// Stable hash partition of a join key. `DefaultHasher::new()` uses fixed
/// keys, so the routing is deterministic within and across runs.
fn partition_of(key: &[Value], parts: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

/// Partitioned hash join: parallel build of `parts` hash-partitioned tables
/// over the smaller side, then parallel probe of the larger side in
/// contiguous chunks merged in chunk order. Output rows are identical (and
/// identically ordered) to the serial `hash_join`.
pub(crate) fn hash_join_partitioned(
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    left_keys: &[usize],
    right_keys: &[usize],
    parts: usize,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    // Build on the smaller side; output column order is always left ++ right.
    let build_left = lrows.len() <= rrows.len();
    let (build, probe, build_keys, probe_keys) = if build_left {
        (&lrows, &rrows, left_keys, right_keys)
    } else {
        (&rrows, &lrows, right_keys, left_keys)
    };
    pqp_obs::record("strategy", "parallel_hash_join");
    pqp_obs::record("build_rows", build.len());

    // Phase 1: each worker owns one hash partition and builds its table by
    // scanning the build rows in order (per-key match lists therefore keep
    // build-insertion order, as the serial join's single table does).
    count_workers(parts);
    let tables: Result<Vec<HashMap<Vec<Value>, Vec<usize>>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|p| {
                s.spawn(move || -> Result<HashMap<Vec<Value>, Vec<usize>>> {
                    worker_failpoint()?;
                    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                    for (i, row) in build.iter().enumerate() {
                        if i & (CHECKPOINT_STRIDE - 1) == 0 {
                            ctx.checkpoint()?;
                        }
                        if let Some(k) = key_of(row, build_keys) {
                            if partition_of(&k, parts) == p {
                                table.entry(k).or_default().push(i);
                            }
                        }
                    }
                    Ok(table)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    let tables = tables?;

    // Phase 2: probe contiguous chunks in parallel; chunk outputs merge in
    // chunk order, reproducing the serial probe-order emission.
    let chunk = probe.len().div_ceil(parts).max(1);
    let chunk_count = probe.len().div_ceil(chunk);
    count_workers(chunk_count);
    let tables = &tables;
    let outs: Vec<Result<Vec<Row>>> = std::thread::scope(|s| {
        let handles: Vec<_> = probe
            .chunks(chunk)
            .map(|chunk_rows| {
                s.spawn(move || -> Result<Vec<Row>> {
                    worker_failpoint()?;
                    let mut out = Vec::new();
                    let mut pending_mem = 0u64;
                    for (i, prow) in chunk_rows.iter().enumerate() {
                        if i & (CHECKPOINT_STRIDE - 1) == 0 {
                            ctx.charge_mem(pending_mem)?;
                            pending_mem = 0;
                        }
                        let Some(k) = key_of(prow, probe_keys) else {
                            continue;
                        };
                        if let Some(matches) = tables[partition_of(&k, parts)].get(&k) {
                            for &bi in matches {
                                let brow = &build[bi];
                                let (l, r) = if build_left { (brow, prow) } else { (prow, brow) };
                                let mut row = l.clone();
                                row.extend(r.iter().cloned());
                                pending_mem += approx_row_bytes(row.len());
                                out.push(row);
                            }
                        }
                    }
                    ctx.charge_mem(pending_mem)?;
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    merge_ordered(outs)
}
