//! The executor: evaluates a [`Plan`] to a materialized row set.
//!
//! ## The planner chooses, the executor executes
//!
//! `run` is the only dispatcher and every [`Plan`] node maps to exactly
//! one operator here: a `Scan` reads the heap, an `IndexScan` probes an
//! index, a `HashJoin` hashes, an `IndexJoin` probes per row. Whether a scan
//! or a join goes through an index was decided at plan time
//! (`Planner::{push_predicate, choose_join}`), where EXPLAIN and the cost
//! model can see it; nothing in this file looks for an index the plan did
//! not name. The two index operators keep a run-time *guard* each — the
//! index was dropped since planning, or the actual probe side is too large
//! for the 4× rule — and degrade to a heap scan / hash join, so a stale or
//! mis-estimated plan still answers, correctly.
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
//! ## One loop per operator, one schedule
//!
//! Each operator's loop is one function in this file — the scan
//! (`scan`), filter, projection, hash build (`build_table`) and hash probe
//! (`probe_table`) — with its governor checkpoints and charges inside, and
//! every one of them runs on the calling thread: nothing below the service
//! spawns.
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
//! partial-progress counters.

use crate::bound::BoundExpr;
use crate::error::{bind_err, failpoint, Result};
use crate::plan::Plan;
use crate::vexpr;
use pqp_obs::governor::{CHARGE_BATCH_ROWS, CHECKPOINT_STRIDE};
use pqp_obs::{approx_row_bytes, QueryCtx};
use pqp_sql::BinaryOp;
use pqp_storage::{BatchBuilder, Catalog, Row, Table, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Execution options. Field-less: execution has one schedule and nothing
/// to configure. The type only keeps the signatures the benchmark compiles
/// against ([`Database::run_plan_ctx`](crate::Database::run_plan_ctx)'s
/// middle argument); ROADMAP item 1 removes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {}

/// Everything an operator needs from its surroundings: the catalog and the
/// per-query governor context.
pub(crate) struct Env<'a> {
    pub catalog: &'a Catalog,
    pub ctx: &'a QueryCtx,
}

/// Execute a plan under a query-governor context, materializing all rows: deadline / rows-scanned / memory limits are
/// checked cooperatively at operator loop boundaries, and an exceeded budget
/// aborts with [`EngineError::Budget`](crate::EngineError::Budget).
///
/// Every operator runs under an observability span named `exec.<op>` with
/// its output cardinality recorded, so a traced run yields per-operator
/// rows and timings (`EXPLAIN ANALYZE`). Untraced runs pay only a
/// thread-local check per operator.
pub fn execute_ctx(plan: &Plan, catalog: &Catalog, ctx: &QueryCtx) -> Result<Vec<Row>> {
    run(&Env { catalog, ctx }, plan)
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
            filter_rows(ctx, rows, predicate)
        }
        Plan::HashJoin { left, right, left_keys, right_keys, .. } => {
            let lrows = run(env, left)?;
            let rrows = run(env, right)?;
            pqp_obs::record("left_rows", lrows.len());
            pqp_obs::record("right_rows", rrows.len());
            join_rows(ctx, lrows, rrows, left_keys, right_keys)
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
            project_rows(ctx, rows, exprs)
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

/// Heap-scan a base table. Index access is the planner's call
/// ([`Plan::IndexScan`], [`Plan::IndexJoin`]); a `Scan` always reads the
/// heap: decode datum-encoded rows straight into column vectors, and per
/// batch of [`pqp_storage::BATCH_SIZE`] rows charge the governor (the batch
/// boundary is the scan's charge point), evaluate the pushed-down filter as
/// a selection vector and materialize the surviving rows.
fn scan(env: &Env, table: &str, filter: Option<&BoundExpr>) -> Result<Vec<Row>> {
    let ctx = env.ctx;
    let t = env.catalog.table(table)?;
    let t = t.read();
    let mut encoded = t.iter_raw().fuse();
    let mut out = Vec::new();
    let mut builder = BatchBuilder::new(t.schema().arity());
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

/// The filter loop over materialized rows.
fn filter_rows(ctx: &QueryCtx, rows: Vec<Row>, predicate: &BoundExpr) -> Result<Vec<Row>> {
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

/// The projection loop over materialized rows.
fn project_rows(ctx: &QueryCtx, rows: Vec<Row>, exprs: &[BoundExpr]) -> Result<Vec<Row>> {
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

/// Execute a [`Plan::IndexJoin`]'s scan side against already-materialized
/// probe rows. The planner chose the path from estimates (or, on an
/// un-analyzed table, from the plan's shape alone); this guard holds it to
/// the actual rows: a probe side that turned out large relative to the
/// table, or an index dropped since planning, degrades to a hash join over
/// a heap scan, un-swapping the sides so output stays `left ++ right`.
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
    if probe_is_left {
        join_rows(env.ctx, probe_rows, scan_rows, &[probe_key], &[scan_key])
    } else {
        join_rows(env.ctx, scan_rows, probe_rows, &[scan_key], &[probe_key])
    }
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

/// Hash-join two materialized sides into `left ++ right` rows in (probe
/// order, then build-insertion order within one key): build one table on
/// the smaller side, then probe it with the other.
fn join_rows(
    ctx: &QueryCtx,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<Vec<Row>> {
    failpoint("join.build")?;
    let build_left = lrows.len() <= rrows.len();
    let (build, probe, build_keys, probe_keys) = if build_left {
        (&lrows, &rrows, left_keys, right_keys)
    } else {
        (&rrows, &lrows, right_keys, left_keys)
    };
    let table = build_table(build, build_keys, ctx)?;
    probe_table(probe, build, &table, probe_keys, build_left, ctx)
}

fn key_of(row: &Row, keys: &[usize]) -> Option<Vec<Value>> {
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

/// Join key → indices into the build rows, in build-insertion order.
type JoinTable = HashMap<Vec<Value>, Vec<usize>>;

/// The hash-build loop: index the build rows by key. Scanning the build
/// side in order keeps every match list in build-insertion order.
fn build_table(build: &[Row], build_keys: &[usize], ctx: &QueryCtx) -> Result<JoinTable> {
    let mut table = JoinTable::with_capacity(build.len());
    for (i, row) in build.iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.checkpoint()?;
        }
        if let Some(k) = key_of(row, build_keys) {
            table.entry(k).or_default().push(i);
        }
    }
    Ok(table)
}

/// The hash-probe loop: look each probe row up in the table and emit
/// `left ++ right` rows in probe order, charging an estimated
/// [`approx_row_bytes`] per output row.
fn probe_table(
    probe: &[Row],
    build: &[Row],
    table: &JoinTable,
    probe_keys: &[usize],
    build_left: bool,
    ctx: &QueryCtx,
) -> Result<Vec<Row>> {
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
