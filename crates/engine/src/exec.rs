//! The executor: evaluates a [`Plan`] to a materialized row set.
//!
//! Execution is operator-at-a-time over materialized intermediates — the
//! right trade-off for an in-memory engine whose workloads (the paper's
//! experiments) are join-heavy but small-intermediate. Joins hash the
//! smaller side; grouping and duplicate elimination preserve first-seen
//! order so results are deterministic.
//!
//! Rows (`Vec<Row>`) are the only currency between operators. The heap
//! scan is columnar on the inside: it decodes datum-encoded rows straight
//! into a [`pqp_storage::Batch`] of [`pqp_storage::BATCH_SIZE`] rows,
//! evaluates the pushed-down filter over the columns as a selection vector
//! (`crate::vexpr`) and materializes only the surviving rows.
//!
//! ## Intra-query parallelism
//!
//! [`execute_ctx`] accepts an [`ExecOptions`] thread budget. When
//! `threads > 1` and an operator's input is at least
//! [`ExecOptions::min_parallel_rows`], table scans, filters, projections and
//! hash joins run partitioned across `std::thread::scope` workers (the
//! private `par` module). Partitions are always merged **in partition
//! order**, so parallel execution preserves the engine's deterministic
//! first-seen ordering contract: for any plan and any budget the rows are
//! byte-identical to a serial run. Small inputs and `threads <= 1` take the
//! serial fast path and never spawn.
//!
//! ## The query governor
//!
//! [`execute_ctx`] threads a [`QueryCtx`] through every operator.
//! Execution is *cooperative*: each operator checkpoints at its entry, heap
//! scans charge rows at every batch boundary and index reads in batches of
//! [`pqp_obs::governor::CHARGE_BATCH_ROWS`], non-scan loops checkpoint
//! every [`pqp_obs::governor::CHECKPOINT_STRIDE`] iterations, and
//! row-materializing operators (joins, cross products, projections) charge
//! an estimated [`pqp_obs::approx_row_bytes`] per output row. A tripped
//! budget aborts the query with [`EngineError::Budget`](crate::EngineError::Budget) carrying
//! partial-progress counters; parallel workers observe the same shared
//! context, so a trip in one worker stops the others at their next
//! checkpoint and the scope joins everything — no leaked threads.

use crate::bound::BoundExpr;
use crate::error::{bind_err, failpoint, Result};
use crate::par;
use crate::plan::Plan;
use crate::vexpr;
use pqp_obs::governor::{CHARGE_BATCH_ROWS, CHECKPOINT_STRIDE};
use pqp_obs::{approx_row_bytes, QueryCtx};
use pqp_sql::BinaryOp;
use pqp_storage::{BatchBuilder, Catalog, Row, Table, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Default serial-fallback threshold: operators with fewer input rows than
/// this stay serial regardless of the thread budget (fan-out overhead beats
/// the win on small inputs, and the paper's selective partial queries are
/// usually below it).
pub const DEFAULT_MIN_PARALLEL_ROWS: usize = 4096;

/// Execution options: the intra-query thread budget.
///
/// The default is strictly serial (`threads: 1`), which is also the fast
/// path: with `threads <= 1` no thread is ever spawned and the executor
/// behaves exactly as it did before parallelism existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker-thread budget per parallel operator. `<= 1` means serial.
    pub threads: usize,
    /// Inputs below this row count stay serial even when `threads > 1`.
    pub min_parallel_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions { threads: 1, min_parallel_rows: DEFAULT_MIN_PARALLEL_ROWS }
    }
}

impl ExecOptions {
    /// Strictly serial execution (the default).
    pub fn serial() -> ExecOptions {
        ExecOptions::default()
    }

    /// A budget of `threads` workers with the default serial-fallback
    /// threshold.
    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions { threads: threads.max(1), ..ExecOptions::default() }
    }

    /// Override the serial-fallback threshold (builder-style).
    pub fn min_parallel_rows(mut self, rows: usize) -> ExecOptions {
        self.min_parallel_rows = rows;
        self
    }

    /// Whether any operator may go parallel under this budget.
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// The partition count for an operator over `rows` input rows, or
    /// `None` to take the serial fast path.
    pub(crate) fn partitions_for(&self, rows: usize) -> Option<usize> {
        (self.threads > 1 && rows >= self.min_parallel_rows.max(1)).then_some(self.threads)
    }
}

/// Everything an operator needs from its surroundings: the catalog, the
/// thread budget, and the per-query governor context.
pub(crate) struct Env<'a> {
    pub catalog: &'a Catalog,
    pub opts: &'a ExecOptions,
    pub ctx: &'a QueryCtx,
}

/// Execute a plan under a thread budget and a query-governor context,
/// materializing all rows: deadline / rows-scanned / memory limits are
/// checked cooperatively at operator loop boundaries, and an exceeded budget
/// aborts with [`EngineError::Budget`](crate::EngineError::Budget).
///
/// Every operator runs under an observability span named `exec.<op>` with
/// its output cardinality recorded, so a traced run yields per-operator
/// rows and timings (`EXPLAIN ANALYZE`). Untraced runs pay only a
/// thread-local check per operator.
pub fn execute_ctx(
    plan: &Plan,
    catalog: &Catalog,
    opts: &ExecOptions,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    run(&Env { catalog, opts, ctx }, plan)
}

/// The recursive workhorse: span + estimate bookkeeping around
/// [`execute_op`], plus the per-operator governor checkpoint.
pub(crate) fn run(env: &Env, plan: &Plan) -> Result<Vec<Row>> {
    env.ctx.checkpoint()?;
    let _span = pqp_obs::span(op_name(plan));
    if pqp_obs::trace_active() {
        // Planner estimate alongside the actual rows_out: EXPLAIN ANALYZE
        // consumers compute per-operator Q-error from the pair. Only paid
        // when a trace is being collected.
        let est = crate::cost::Estimator::new(env.catalog).rows(plan);
        pqp_obs::record("est_rows", est.round() as i64);
    }
    let rows = execute_op(env, plan)?;
    pqp_obs::record("rows_out", rows.len());
    Ok(rows)
}

fn op_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Empty { .. } => "exec.empty",
        Plan::Scan { .. } => "exec.scan",
        Plan::IndexScan { .. } => "exec.index_scan",
        Plan::Filter { .. } => "exec.filter",
        Plan::HashJoin { .. } => "exec.hash_join",
        Plan::IndexJoin { .. } => "exec.index_join",
        Plan::CrossJoin { .. } => "exec.cross_join",
        Plan::Project { .. } => "exec.project",
        Plan::Aggregate { .. } => "exec.aggregate",
        Plan::Distinct { .. } => "exec.distinct",
        Plan::Sort { .. } => "exec.sort",
        Plan::Limit { .. } => "exec.limit",
        Plan::Union { .. } => "exec.union",
        Plan::TopK { .. } => "exec.topk",
    }
}

fn execute_op(env: &Env, plan: &Plan) -> Result<Vec<Row>> {
    let ctx = env.ctx;
    match plan {
        Plan::Empty { .. } => Ok(Vec::new()),
        Plan::Scan { table, filter, .. } => {
            pqp_obs::record("table", &**table);
            scan(env, table, filter.as_ref())
        }
        Plan::IndexScan { table, column, key, residual, .. } => {
            pqp_obs::record("table", &**table);
            index_scan(env, table, column, key, residual.as_ref())
        }
        Plan::IndexJoin { probe, probe_key, table, column, filter, probe_is_left, .. } => {
            let probe_rows = run(env, probe)?;
            index_join(env, probe_rows, *probe_key, table, column, filter.as_ref(), *probe_is_left)
        }
        Plan::Filter { input, predicate } => {
            let rows = run(env, input)?;
            pqp_obs::record("rows_in", rows.len());
            filter_rows(env, rows, predicate)
        }
        Plan::HashJoin { left, right, left_keys, right_keys, .. } => {
            // Index-nested-loop when one side is a base-table scan with a
            // hash index on its (single) join column and the other side is
            // small relative to it — the access path that makes selective
            // personalized partials cheap (paper §7, Fig. 10).
            if right_keys.len() == 1 {
                if let Some(rows) = try_index_join(
                    env, left, right, left_keys, right_keys, /*probe_left=*/ true,
                )? {
                    return Ok(rows);
                }
                if let Some(rows) = try_index_join(
                    env, right, left, right_keys, left_keys, /*probe_left=*/ false,
                )? {
                    return Ok(rows);
                }
            }
            let lrows = run(env, left)?;
            let rrows = run(env, right)?;
            pqp_obs::record("left_rows", lrows.len());
            pqp_obs::record("right_rows", rrows.len());
            join_rows(env, lrows, rrows, left_keys, right_keys)
        }
        Plan::CrossJoin { left, right, .. } => {
            let lrows = run(env, left)?;
            let rrows = run(env, right)?;
            pqp_obs::record("left_rows", lrows.len());
            pqp_obs::record("right_rows", rrows.len());
            cross_join_rows(ctx, lrows, rrows)
        }
        Plan::Project { input, exprs, .. } => {
            let rows = run(env, input)?;
            project_rows(env, rows, exprs)
        }
        Plan::Aggregate { input, group_by, aggs, .. } => {
            let rows = run(env, input)?;
            pqp_obs::record("rows_in", rows.len());
            aggregate(rows, group_by, aggs, ctx)
        }
        Plan::Distinct { input } => {
            let rows = run(env, input)?;
            distinct_rows(ctx, rows)
        }
        Plan::Sort { input, keys } => {
            let mut rows = run(env, input)?;
            sort_rows(&mut rows, keys);
            Ok(rows)
        }
        Plan::Limit { input, n } => {
            let mut rows = run(env, input)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
        Plan::Union { inputs, all, .. } => {
            let mut out = Vec::new();
            for i in inputs {
                out.extend(run(env, i)?);
                ctx.checkpoint()?;
            }
            if !*all {
                let mut seen = HashSet::with_capacity(out.len());
                out.retain(|row| seen.insert(row.clone()));
            }
            Ok(out)
        }
        Plan::TopK { base, probes, visible, matching, rank, limit, .. } => {
            crate::topk::execute(env, base, probes, *visible, matching, *rank, *limit)
        }
    }
}

/// Execute a [`Plan::IndexScan`]: an index point lookup plus residual
/// filter, falling back to a full scan (with the reconstructed predicate)
/// when the index was dropped after planning.
fn index_scan(
    env: &Env,
    table: &str,
    column: &str,
    key: &Value,
    residual: Option<&BoundExpr>,
) -> Result<Vec<Row>> {
    let ctx = env.ctx;
    let t = env.catalog.table(table)?;
    let t = t.read();
    match t.index_lookup(column, key) {
        Some(hits) => {
            pqp_obs::record("strategy", "index_scan");
            let mut out = Vec::new();
            let mut pending = 0u64;
            for row in hits? {
                pending += 1;
                if pending == CHARGE_BATCH_ROWS {
                    ctx.charge_rows(pending)?;
                    pending = 0;
                }
                if let Some(f) = residual {
                    if !f.eval_predicate(&row)? {
                        continue;
                    }
                }
                out.push(row);
            }
            ctx.charge_rows(pending)?;
            Ok(out)
        }
        None => {
            // The index was dropped after planning: reconstruct the
            // full pushed-down predicate and fall back to a scan.
            let Some(col) = t.schema().column_index(column) else {
                return bind_err(format!("unknown column `{column}` in `{table}`"));
            };
            let eq = BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(col)),
                op: BinaryOp::Eq,
                right: Box::new(BoundExpr::Literal(key.clone())),
            };
            let pred = match residual {
                Some(r) => BoundExpr::Binary {
                    left: Box::new(eq),
                    op: BinaryOp::And,
                    right: Box::new(r.clone()),
                },
                None => eq,
            };
            drop(t);
            scan(env, table, Some(&pred))
        }
    }
}

/// Serve a filtered scan through a hash index when the pushed-down filter
/// has a `col = literal` conjunct over an indexed column. `Ok(None)` means
/// no such conjunct: the caller falls through to a full heap scan.
fn scan_index_shortcut(t: &Table, f: &BoundExpr, ctx: &QueryCtx) -> Result<Option<Vec<Row>>> {
    for conjunct in split_and(f) {
        let Some((col, value)) = as_eq_literal(conjunct) else {
            continue;
        };
        if value.is_null() {
            continue; // `= NULL` can never be TRUE; fall through to scan
        }
        let name = &t.schema().columns[col].name;
        if let Some(hits) = t.index_lookup(name, value) {
            let mut out = Vec::new();
            let mut pending = 0u64;
            for row in hits? {
                pending += 1;
                if pending == CHARGE_BATCH_ROWS {
                    ctx.charge_rows(pending)?;
                    pending = 0;
                }
                if f.eval_predicate(&row)? {
                    out.push(row);
                }
            }
            ctx.charge_rows(pending)?;
            return Ok(Some(out));
        }
    }
    Ok(None)
}

/// Scan a base table, using a hash index for an equality conjunct of the
/// pushed-down filter when one exists; otherwise a full (possibly
/// partitioned-parallel) heap scan.
fn scan(env: &Env, table: &str, filter: Option<&BoundExpr>) -> Result<Vec<Row>> {
    let ctx = env.ctx;
    let t = env.catalog.table(table)?;
    let t = t.read();
    if let Some(f) = filter {
        if let Some(out) = scan_index_shortcut(&t, f, ctx)? {
            return Ok(out);
        }
    }
    if let Some(parts) = env.opts.partitions_for(t.len()) {
        // Morsel unit is a page: at most one partition per page.
        let parts = parts.min(t.page_count());
        if parts >= 2 {
            return par::scan_partitioned(&t, filter, parts, ctx);
        }
    }
    scan_encoded(t.iter_raw(), t.schema().arity(), filter, ctx)
}

/// The body of every heap scan, serial and page-partitioned: decode
/// datum-encoded rows straight into column vectors, and per batch of
/// [`pqp_storage::BATCH_SIZE`] rows charge the governor (the batch boundary
/// is the scan's charge point), evaluate the pushed-down filter as a
/// selection vector and materialize the surviving rows.
pub(crate) fn scan_encoded<'a>(
    encoded: impl Iterator<Item = pqp_storage::Result<&'a [u8]>>,
    arity: usize,
    filter: Option<&BoundExpr>,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    let mut encoded = encoded.fuse();
    let mut out = Vec::new();
    let mut builder = BatchBuilder::new(arity);
    loop {
        while !builder.is_full() {
            let Some(enc) = encoded.next() else { break };
            builder.push_encoded(enc?)?;
        }
        if builder.is_empty() {
            return Ok(out);
        }
        let batch = builder.finish();
        ctx.charge_rows(batch.len() as u64)?;
        match filter {
            Some(f) => {
                let selected = vexpr::select_true(f, &batch)?;
                out.extend(selected.into_iter().map(|i| batch.row(i as usize)));
            }
            None => batch.append_rows(&mut out),
        }
    }
}

/// Top-level conjuncts of a bound expression.
pub(crate) fn split_and(e: &BoundExpr) -> Vec<&BoundExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
        match e {
            BoundExpr::Binary { left, op: BinaryOp::And, right } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other),
        }
    }
    walk(e, &mut out);
    out
}

/// `col = literal` (either orientation), as (column position, literal).
pub(crate) fn as_eq_literal(e: &BoundExpr) -> Option<(usize, &Value)> {
    let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = e else {
        return None;
    };
    match (&**left, &**right) {
        (BoundExpr::Column(c), BoundExpr::Literal(v)) => Some((*c, v)),
        (BoundExpr::Literal(v), BoundExpr::Column(c)) => Some((*c, v)),
        _ => None,
    }
}

/// Filter materialized rows, parallel when the budget allows.
fn filter_rows(env: &Env, rows: Vec<Row>, predicate: &BoundExpr) -> Result<Vec<Row>> {
    let ctx = env.ctx;
    if let Some(parts) = env.opts.partitions_for(rows.len()) {
        return par::filter_partitioned(rows, predicate, parts, ctx);
    }
    let mut out = Vec::with_capacity(rows.len() / 2);
    for (i, row) in rows.into_iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        if predicate.eval_predicate(&row)? {
            out.push(row);
        }
    }
    Ok(out)
}

/// Project materialized rows, parallel when the budget allows.
fn project_rows(env: &Env, rows: Vec<Row>, exprs: &[BoundExpr]) -> Result<Vec<Row>> {
    let ctx = env.ctx;
    if let Some(parts) = env.opts.partitions_for(rows.len()) {
        return par::project_partitioned(rows, exprs, parts, ctx);
    }
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.into_iter().enumerate() {
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
}

/// Cartesian product of two materialized sides.
fn cross_join_rows(ctx: &QueryCtx, lrows: Vec<Row>, rrows: Vec<Row>) -> Result<Vec<Row>> {
    // Cap the pre-allocation: a huge product should grow lazily (and
    // fail late with partial progress) rather than request the whole
    // worst case up front.
    let cap = lrows.len().saturating_mul(rrows.len()).min(1 << 20);
    let mut out = Vec::with_capacity(cap);
    // The one operator that can explode quadratically: charge
    // memory per output batch so a runaway product trips the budget
    // instead of exhausting the machine.
    let mut pending_mem = 0u64;
    for l in &lrows {
        for r in &rrows {
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            pending_mem += approx_row_bytes(row.len());
            out.push(row);
            if out.len() & (CHECKPOINT_STRIDE - 1) == 0 {
                ctx.charge_mem(pending_mem)?;
                pending_mem = 0;
            }
        }
    }
    ctx.charge_mem(pending_mem)?;
    Ok(out)
}

/// Duplicate elimination preserving first-seen order.
fn distinct_rows(ctx: &QueryCtx, rows: Vec<Row>) -> Result<Vec<Row>> {
    let mut seen = HashSet::with_capacity(rows.len());
    let mut out = Vec::new();
    for (i, row) in rows.into_iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        if seen.insert(row.clone()) {
            out.push(row);
        }
    }
    Ok(out)
}

/// In-place multi-key sort by output column positions.
pub(crate) fn sort_rows(rows: &mut [Row], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| {
        for (idx, desc) in keys {
            let ord = a[*idx].cmp(&b[*idx]);
            let ord = if *desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Index-nested-loop join: execute `probe`, and for each probe row fetch
/// matches from `scan_side` (which must be a base-table scan with an index
/// on its single join column). Returns `None` when the shape or the size
/// heuristic does not apply, or when the table has statistics — for
/// analyzed tables the planner owns the index-join decision
/// ([`Plan::IndexJoin`]); this runtime sniffing only covers un-analyzed
/// tables.
fn try_index_join(
    env: &Env,
    probe: &Plan,
    scan_side: &Plan,
    probe_keys: &[usize],
    scan_keys: &[usize],
    probe_is_left: bool,
) -> Result<Option<Vec<Row>>> {
    let Plan::Scan { table, filter, .. } = scan_side else {
        return Ok(None);
    };
    let t = env.catalog.table(table)?;
    // Resolve the indexed column name and check an index exists.
    let (col_name, table_len) = {
        let t = t.read();
        if t.stats().is_some() {
            return Ok(None);
        }
        let name = t.schema().columns[scan_keys[0]].name.clone();
        if t.index_on(&name).is_none() {
            return Ok(None);
        }
        (name, t.len())
    };
    let probe_rows = run(env, probe)?;
    // Heuristic: probing pays off only when the probe side is small
    // relative to the indexed table (otherwise hashing wins).
    if probe_rows.len() * 4 > table_len {
        // Fall back by handing the already-computed probe rows to a hash
        // join (avoid re-executing the probe subtree).
        let scan_rows = scan(env, table, filter.as_ref())?;
        let rows =
            hash_join_oriented(env, probe_rows, scan_rows, probe_keys, scan_keys, probe_is_left)?;
        return Ok(Some(rows));
    }
    let t = t.read();
    index_probe(env.ctx, &t, &col_name, &probe_rows, probe_keys[0], filter.as_ref(), probe_is_left)
}

/// Execute a planner-chosen [`Plan::IndexJoin`]'s scan side against
/// already-materialized probe rows. Keeps the executor's runtime guard:
/// when the probe side turns out large relative to the table, or the index
/// is missing at runtime, fall back to hashing.
#[allow(clippy::too_many_arguments)]
fn index_join(
    env: &Env,
    probe_rows: Vec<Row>,
    probe_key: usize,
    table: &str,
    column: &str,
    filter: Option<&BoundExpr>,
    probe_is_left: bool,
) -> Result<Vec<Row>> {
    pqp_obs::record("table", table);
    let tref = env.catalog.table(table)?;
    let t = tref.read();
    let Some(scan_key) = t.schema().column_index(column) else {
        return bind_err(format!("unknown column `{column}` in `{table}`"));
    };
    if t.index_on(column).is_some() && probe_rows.len() * 4 <= t.len() {
        if let Some(rows) =
            index_probe(env.ctx, &t, column, &probe_rows, probe_key, filter, probe_is_left)?
        {
            return Ok(rows);
        }
    }
    drop(t);
    pqp_obs::record("strategy", "hash_fallback");
    let scan_rows = scan(env, table, filter)?;
    hash_join_oriented(env, probe_rows, scan_rows, &[probe_key], &[scan_key], probe_is_left)
}

/// Probe `t`'s hash index on `column` with each probe row's `probe_key`
/// value, assembling output rows in the engine's fixed `left ++ right`
/// column order. Returns `Ok(None)` if the index disappears mid-probe.
fn index_probe(
    ctx: &QueryCtx,
    t: &Table,
    column: &str,
    probe_rows: &[Row],
    probe_key: usize,
    filter: Option<&BoundExpr>,
    probe_is_left: bool,
) -> Result<Option<Vec<Row>>> {
    pqp_obs::record("strategy", "index_nested_loop");
    pqp_obs::record("probe_rows", probe_rows.len());
    let mut out = Vec::new();
    let mut pending = 0u64;
    for (i, prow) in probe_rows.iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        let key = &prow[probe_key];
        if key.is_null() {
            continue;
        }
        let Some(hits) = t.index_lookup(column, key) else {
            return Ok(None);
        };
        for hit in hits? {
            // Index probes read base-table rows: charge them like a scan.
            pending += 1;
            if pending == CHARGE_BATCH_ROWS {
                ctx.charge_rows(pending)?;
                pending = 0;
            }
            if let Some(f) = filter {
                if !f.eval_predicate(&hit)? {
                    continue;
                }
            }
            let mut row;
            if probe_is_left {
                row = prow.clone();
                row.extend(hit);
            } else {
                row = hit;
                row.extend(prow.iter().cloned());
            }
            out.push(row);
        }
    }
    ctx.charge_rows(pending)?;
    Ok(Some(out))
}

/// Hash-join a probe-side and a scan-side row set whose plan-tree
/// orientation is given by `probe_is_left`, producing rows in the engine's
/// fixed `left ++ right` column order either way. The single place that
/// knows how to un-swap a join whose sides were reordered by an access-path
/// decision — both `try_index_join` fallbacks and the parallel join route
/// through it.
fn hash_join_oriented(
    env: &Env,
    probe_rows: Vec<Row>,
    scan_rows: Vec<Row>,
    probe_keys: &[usize],
    scan_keys: &[usize],
    probe_is_left: bool,
) -> Result<Vec<Row>> {
    if probe_is_left {
        join_rows(env, probe_rows, scan_rows, probe_keys, scan_keys)
    } else {
        join_rows(env, scan_rows, probe_rows, scan_keys, probe_keys)
    }
}

/// Join two materialized sides, choosing the partitioned-parallel hash join
/// when the thread budget and input size allow, the serial one otherwise.
/// Both produce identical rows in identical order (probe order, and
/// build-insertion order within one key).
fn join_rows(
    env: &Env,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<Vec<Row>> {
    failpoint("join.build")?;
    if let Some(parts) = env.opts.partitions_for(lrows.len() + rrows.len()) {
        return par::hash_join_partitioned(lrows, rrows, left_keys, right_keys, parts, env.ctx);
    }
    hash_join(lrows, rrows, left_keys, right_keys, env.ctx)
}

pub(crate) fn key_of(row: &Row, keys: &[usize]) -> Option<Vec<Value>> {
    let mut out = Vec::with_capacity(keys.len());
    for &k in keys {
        let v = &row[k];
        // SQL equi-join semantics: NULL never matches.
        if v.is_null() {
            return None;
        }
        out.push(v.clone());
    }
    Some(out)
}

fn hash_join(
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    left_keys: &[usize],
    right_keys: &[usize],
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    // Build on the smaller side; output column order is always left ++ right.
    let build_left = lrows.len() <= rrows.len();
    let (build, probe, build_keys, probe_keys) = if build_left {
        (&lrows, &rrows, left_keys, right_keys)
    } else {
        (&rrows, &lrows, right_keys, left_keys)
    };
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(build.len());
    for (i, row) in build.iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        if let Some(k) = key_of(row, build_keys) {
            table.entry(k).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    let mut pending_mem = 0u64;
    for (i, prow) in probe.iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.charge_mem(pending_mem)?;
            pending_mem = 0;
        }
        let Some(k) = key_of(prow, probe_keys) else {
            continue;
        };
        if let Some(matches) = table.get(&k) {
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
}

fn aggregate(
    rows: Vec<Row>,
    group_by: &[BoundExpr],
    aggs: &[crate::aggregate::AggCall],
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
    // Group keys in first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<crate::aggregate::AggState>> = HashMap::new();

    if group_by.is_empty() {
        // Global aggregate: exactly one group, present even on empty input.
        let states: Vec<_> = aggs.iter().map(|a| a.new_state()).collect();
        groups.insert(Vec::new(), states);
        order.push(Vec::new());
    }

    for (i, row) in rows.iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(g.eval(row)?);
        }
        let states = match groups.entry(key.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                order.push(key);
                e.insert(aggs.iter().map(|a| a.new_state()).collect())
            }
        };
        for (call, state) in aggs.iter().zip(states.iter_mut()) {
            match &call.arg {
                None => state.update(None)?,
                Some(e) => {
                    let v = e.eval(row)?;
                    state.update(Some(&v))?;
                }
            }
        }
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let Some(states) = groups.remove(&key) else {
            continue; // every ordered key was inserted into `groups`
        };
        let mut row = key;
        for s in &states {
            row.push(s.finish());
        }
        out.push(row);
    }
    Ok(out)
}
