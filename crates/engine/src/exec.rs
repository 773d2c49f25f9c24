//! The executor: evaluates a [`Plan`] to a materialized row set.
//!
//! ## The planner chooses, the executor executes
//!
//! Every [`Plan`] node maps to exactly one operator here: a `Scan` reads the
//! table, an `IndexScan` probes an index, a `HashJoin` hashes, an
//! `IndexJoin` probes per row. Whether a scan or a join goes through an
//! index was decided at plan time (`Planner::filtered_scan` and the join
//! order, `Estimator::join_order`), where EXPLAIN and the cost model can see
//! it; nothing in this file looks for an index the plan did not name. The
//! two index operators keep a run-time *guard* each — the index was dropped
//! since planning, or the actual probe side is too large for
//! [`INDEX_JOIN_RATIO`] — and degrade to a table scan / hash join, so a
//! stale or mis-estimated plan still answers, correctly.
//!
//! ## Pipelines
//!
//! Each chain of streaming operators runs as one push loop, `push`. A
//! *producer* — a scan's selected rows, an index scan's kept hits, an index
//! join's or a hash join's probe loop, a `UNION`'s inputs one after another,
//! the rows of a breaker — assembles each row in one reused scratch row and
//! pushes it through the *stages* above it: `Filter`, a non-identity
//! `Project`, and `Distinct`, which is also a non-`ALL` `UNION`'s dedup. The
//! rows end in one *terminal* (`Sink`): a collected row set,
//! `Aggregate`'s group table or a native `TopK`'s witness set
//! ([`crate::topk`]), so MQ's partial queries flow through their `UNION
//! ALL` straight into the `GROUP BY`. Rows are materialized only at the
//! *breakers*: a hash join's two sides (the smaller one builds), an index
//! join's probe side (its guard needs the count), a shared subtree's slot,
//! `Sort`, `Limit`, `TopK`'s base, the cross product's two sides, and the
//! terminal. A breaker's input is a pipeline whose terminal collects.
//!
//! A stage reads its row in place, so only what is kept is stored:
//! `Distinct`'s kept rows, the collected rows and new groups' keys.
//! What is kept is stored back to back, one `Rows` per row set, so a
//! materialized row costs no allocation of its own: the values move out of
//! the producer's scratch row, which keeps its allocation for the next one.
//! Only an answer leaves the executor as one `Row` per row. Each stage
//! keeps its input order, and grouping and duplicate elimination keep
//! first-seen order, so results are deterministic. A row is cheap to copy:
//! a string value is a shared `Arc<str>`, so cloning one is a
//! reference-count bump.
//!
//! A table is stored as [`pqp_storage::Batch`] chunks of
//! [`pqp_storage::BATCH_SIZE`] typed columns, and every base-table access
//! path filters a stored row the same way, through `Hits`: a scan hands it
//! each row of each chunk, an index scan or index join each index hit. It
//! copies the columns the pushed-down filter reads into one reused row,
//! evaluates the filter there, and assembles only a kept row's emitted
//! columns. None of this allocates a string. Every producer assembles a
//! row once, at its final width, holding only the columns read above it: a
//! base-table access path emits just the columns the planner found some
//! operator above it reading (its own filter reads the stored row), so no
//! join copies a column that nothing reads.
//!
//! ## Shared subtrees: owned or shared reads
//!
//! A plan can hold one subtree at several places (a shared subtree, see
//! [`crate::plan`]: the joins MQ's partial queries repeat). Each execution
//! keeps one slot per shared subtree. The first read runs the subtree and
//! keeps its rows in the slot, later reads borrow them, and the last read
//! takes them out, so the subtree runs, scans and is charged to the
//! governor once. The joins
//! and the cross product read their sides in place, and a pipeline pushes a
//! borrowed slot's rows through a scratch row, so no reader copies a shared
//! row it does not keep.
//!
//! ## Keys without key vectors
//!
//! The hash join hashes a row's key columns in place (`key_hash`) and
//! compares two rows' key columns in place (`key_eq`); `DISTINCT`,
//! non-`ALL` `UNION` and `GROUP BY` hash and compare whole rows — the kept
//! row, or the group's key values. A `KeyTable` maps a hash to chained indices — build rows,
//! distinct output rows, groups — and every candidate is confirmed by
//! equality, so no operator allocates a key per row. Equality is
//! [`Value`]'s (`Int(3)` matches `Float(3.0)`); the join drops NULL keys,
//! the others group them.
//!
//! Each key is hashed once, by [`pqp_storage::KeyHasher`] (a seeded
//! multiply-fold with an avalanche finaliser, not SipHash), and the
//! `KeyTable` uses that hash as it is ([`PreHashed`]). The seed is the
//! process's, read once per execution into `Env`; since no table is ever
//! iterated, no answer's order depends on it.
//!
//! ## One loop per operator, one schedule
//!
//! Each operator's loop is one function or `Sink` in this file, with its
//! governor checkpoints and charges inside, and every one of them runs on
//! the calling thread: nothing below the service spawns.
//!
//! ## The query governor
//!
//! [`execute_ctx`] threads a [`QueryCtx`] through every operator.
//! Execution is *cooperative*: each operator checkpoints at its entry, table
//! scans charge rows at every chunk boundary and index reads in batches of
//! [`pqp_obs::governor::CHARGE_BATCH_ROWS`], other loops and stages
//! checkpoint every [`pqp_obs::governor::CHECKPOINT_STRIDE`] rows, and the
//! two operators that multiply rows, the hash join and the cross product,
//! charge an estimated [`pqp_obs::approx_row_bytes`] per output row. A
//! tripped budget aborts the query with [`EngineError::Budget`] carrying
//! partial-progress counters.
//!
//! ## Spans
//!
//! Every plan node runs under one `exec.<op>` span, nested as the plan is,
//! with its exact `rows_out` (a stage counts the rows it passes on). A
//! stage runs inside its producer's loop, so its time lands in the
//! producer's span.

use crate::aggregate::{AggCall, AggState};
use crate::bound::{BoundExpr, Expr, ExprKind};
use crate::cost::{Estimator, INDEX_JOIN_RATIO};
use crate::error::{bind_err, EngineError, Result};
use crate::plan::{key_halves, Node, NodeId, Plan, Share, NOT_SHARED};
use pqp_obs::governor::{CHARGE_BATCH_ROWS, CHECKPOINT_STRIDE};
use pqp_obs::{approx_row_bytes, QueryCtx, SpanGuard};
use pqp_sql::BinaryOp;
use pqp_storage::{
    Batch, Catalog, ColumnSet, KeyState, PreHashed, Row, StorageError, Table, TableSchema, Value,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::rc::Rc;

/// Execution options. Field-less: execution has one schedule and nothing
/// to configure. The type only keeps the signatures the benchmark compiles
/// against ([`Database::run_plan_ctx`](crate::Database::run_plan_ctx)'s
/// middle argument); ROADMAP item 1 removes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {}

/// Everything an operator needs from its surroundings: the plan, the
/// catalog, the per-query governor context, the key hasher and this
/// execution's shared-subtree slots.
pub(crate) struct Env<'a> {
    pub plan: &'a Plan,
    pub catalog: &'a Catalog,
    pub ctx: &'a QueryCtx,
    /// The hasher of every key table this execution builds.
    pub keys: KeyState,
    /// By node: how the plan reads it, and its shared slot.
    shares: Vec<Share>,
    /// One slot per shared subtree of the plan.
    slots: RefCell<Vec<Slot>>,
    /// Under a trace, every node's estimated rows, from one estimator walk.
    est_rows: Option<Vec<Option<f64>>>,
}

impl<'a> Env<'a> {
    /// The surroundings of one execution of `plan`, hashing keys with `keys`.
    fn new(catalog: &'a Catalog, ctx: &'a QueryCtx, plan: &'a Plan, keys: KeyState) -> Env<'a> {
        let (shares, count) = plan.shares();
        let mut slots: Vec<Slot> = (0..count).map(|_| Slot { readers: 0, rows: None }).collect();
        for share in shares.iter().filter(|s| s.slot != NOT_SHARED) {
            slots[share.slot as usize].readers = share.readers;
        }
        let est_rows = pqp_obs::trace_active().then(|| Estimator::new(catalog).rows_by_node(plan));
        Env { plan, catalog, ctx, keys, shares, slots: RefCell::new(slots), est_rows }
    }
}

/// A shared subtree's result during one execution.
struct Slot {
    /// Reads not served yet.
    readers: u32,
    /// The rows, from the first read until the last.
    rows: Option<Rc<Rows>>,
}

/// Materialized rows of one width, stored back to back in one `Vec`: a
/// breaker's rows cost a few allocations in all, not one each.
#[derive(Clone, Default)]
pub(crate) struct Rows {
    width: usize,
    len: usize,
    values: Vec<Value>,
}

impl Rows {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &[Value]> + ExactSizeIterator {
        (0..self.len).map(|i| self.row(i))
    }

    /// Count one more row of `width` values; the first row sets the width.
    fn grow(&mut self, width: usize) -> Result<()> {
        if self.len == 0 {
            self.width = width;
        } else if width != self.width {
            let msg = format!("a row of {width} values among rows of {}", self.width);
            return Err(EngineError::Internal(msg));
        }
        self.len += 1;
        Ok(())
    }

    /// Append a copy of `row`.
    fn push_copy(&mut self, row: &[Value]) -> Result<()> {
        self.grow(row.len())?;
        self.values.extend_from_slice(row);
        Ok(())
    }

    /// Keep the first `n` rows.
    fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
        self.values.truncate(self.len * self.width);
    }

    /// One `Row` per row, as a caller outside the pipelines reads them.
    fn into_vec(self) -> Vec<Row> {
        let mut values = self.values.into_iter();
        (0..self.len).map(|_| values.by_ref().take(self.width).collect()).collect()
    }
}

/// The rows a breaker reads: its input's own, or a shared subtree's, read
/// in place.
enum Input {
    Owned(Rows),
    Shared(Rc<Rows>),
}

impl std::ops::Deref for Input {
    type Target = Rows;

    fn deref(&self) -> &Rows {
        match self {
            Input::Owned(rows) => rows,
            Input::Shared(rows) => rows,
        }
    }
}

impl Input {
    /// The rows as the reader's own: moved when no other reader holds
    /// them, copied otherwise.
    fn into_rows(self) -> Rows {
        match self {
            Input::Owned(rows) => rows,
            Input::Shared(rows) => Rc::try_unwrap(rows).unwrap_or_else(|rows| (*rows).clone()),
        }
    }
}

/// Execute a plan under a query-governor context, materializing all rows:
/// deadline / rows-scanned / memory limits are checked cooperatively at
/// operator loop boundaries, and an exceeded budget aborts with
/// [`EngineError::Budget`].
///
/// Every operator runs under an observability span named `exec.<op>` with
/// its output cardinality recorded, so a traced run yields per-operator
/// rows and timings (`EXPLAIN ANALYZE`). Untraced runs pay only a
/// thread-local check per operator.
pub fn execute_ctx(plan: &Plan, catalog: &Catalog, ctx: &QueryCtx) -> Result<Vec<Row>> {
    let env = Env::new(catalog, ctx, plan, KeyState::new());
    Ok(read(&env, plan.root())?.into_rows().into_vec())
}

/// Node `id`'s rows, materialized: a shared subtree's read in place, any
/// other node's as a pipeline whose terminal collects them.
fn read(env: &Env, id: NodeId) -> Result<Input> {
    let slot = env.shares[id as usize].slot;
    if slot != NOT_SHARED {
        let _span = enter(env, id, "exec.shared")?;
        let rows = read_shared(env, slot, id)?;
        pqp_obs::record("rows_out", rows.len());
        return Ok(rows);
    }
    Ok(Input::Owned(run_node(env, id)?))
}

/// Node `id` run as a pipeline whose terminal collects its rows.
fn run_node(env: &Env, id: NodeId) -> Result<Rows> {
    let mut out = Rows::default();
    push_node(env, id, &mut out)?;
    Ok(out)
}

/// A plan node's entry: the governor checkpoint, then its `exec.<op>` span
/// `name`, with the planner's estimate when a trace is collected.
fn enter(env: &Env, id: NodeId, name: &'static str) -> Result<SpanGuard> {
    env.ctx.checkpoint()?;
    let span = pqp_obs::span(name);
    if let Some(est) = env.est_rows.as_ref().and_then(|rows| rows[id as usize]) {
        // Planner estimate alongside the actual rows_out: EXPLAIN ANALYZE
        // consumers compute per-operator Q-error from the pair. Only paid
        // when a trace is being collected.
        pqp_obs::record("est_rows", est.round() as i64);
    }
    Ok(span)
}

/// Read shared subtree `slot`, rooted at node `id`: the first read runs it
/// and keeps its rows, later reads borrow them, and the last read takes
/// them out of the slot. The governor sees the subtree's work once.
fn read_shared(env: &Env, slot: u32, id: NodeId) -> Result<Input> {
    pqp_obs::record("slot", slot);
    let kept = {
        let mut slots = env.slots.borrow_mut();
        let Some(s) = slots.get_mut(slot as usize) else {
            return Err(EngineError::Internal(format!("shared slot {slot} was never counted")));
        };
        s.readers = s.readers.saturating_sub(1);
        if s.readers == 0 {
            s.rows.take()
        } else {
            s.rows.clone()
        }
    };
    if let Some(rows) = kept {
        pqp_obs::record("reused", 1u32);
        return Ok(Input::Shared(rows));
    }
    let rows = Rc::new(run_node(env, id)?);
    let mut slots = env.slots.borrow_mut();
    if let Some(s) = slots.get_mut(slot as usize).filter(|s| s.readers > 0) {
        s.rows = Some(Rc::clone(&rows));
    }
    Ok(Input::Shared(rows))
}

fn op_name(node: &Node) -> &'static str {
    match node {
        Node::Empty { .. } => "exec.empty",
        Node::Scan { .. } => "exec.scan",
        Node::IndexScan { .. } => "exec.index_scan",
        Node::Filter { .. } => "exec.filter",
        Node::HashJoin { .. } => "exec.hash_join",
        Node::IndexJoin { .. } => "exec.index_join",
        Node::CrossJoin { .. } => "exec.cross_join",
        Node::Project { .. } => "exec.project",
        Node::Aggregate { .. } => "exec.aggregate",
        Node::Distinct { .. } => "exec.distinct",
        Node::Sort { .. } => "exec.sort",
        Node::Limit { .. } => "exec.limit",
        Node::Union { .. } => "exec.union",
        Node::TopK { .. } => "exec.topk",
    }
}

/// Where a pipeline's rows go: a stage, which passes some of them on to the
/// next sink, or a terminal, which keeps them.
pub(crate) trait Sink {
    /// Take one row. A stage reads it in place; a terminal may take its
    /// values, leaving it empty for the producer to refill.
    fn push(&mut self, row: &mut Row) -> Result<()>;

    /// The sink as a terminal [`Rows`] that holds no row yet, for a
    /// producer or a `Distinct` that has its rows as its own to hand over
    /// whole.
    fn empty_terminal(&mut self) -> Option<&mut Rows> {
        None
    }
}

/// The terminal that keeps every row it is given.
impl Sink for Rows {
    /// Append `row`, its values moved out: it is left empty, its
    /// allocation kept for the next row.
    fn push(&mut self, row: &mut Row) -> Result<()> {
        self.grow(row.len())?;
        self.values.append(row);
        Ok(())
    }

    fn empty_terminal(&mut self) -> Option<&mut Rows> {
        (self.len == 0).then_some(self)
    }
}

/// Run node `id` as a pipeline that ends in `sink`: a shared subtree's rows
/// are pushed from its slot, under its `exec.shared` span; any other node
/// runs itself ([`push_node`]). Returns the rows the node passed on.
pub(crate) fn push(env: &Env, id: NodeId, sink: &mut dyn Sink) -> Result<usize> {
    let slot = env.shares[id as usize].slot;
    if slot == NOT_SHARED {
        return push_node(env, id, sink);
    }
    let _span = enter(env, id, "exec.shared")?;
    let rows_out = push_rows(read_shared(env, slot, id)?, sink)?;
    pqp_obs::record("rows_out", rows_out);
    Ok(rows_out)
}

/// Run node `id` itself into `sink`: a producer pushes its rows into
/// `sink`, a stage wraps `sink` and runs its input into itself.
fn push_node(env: &Env, id: NodeId, sink: &mut dyn Sink) -> Result<usize> {
    let plan = env.plan;
    let node = plan.node(id);
    let _span = enter(env, id, op_name(node))?;
    let ctx = env.ctx;
    let rows_out = match node {
        Node::Empty { .. } => 0,
        Node::Scan { table, filter, columns } => {
            pqp_obs::record("table", &*table.name);
            scan(env, &table.name, filter.map(|f| plan.expr(f)), *columns, sink)?
        }
        Node::IndexScan { table, column, key, residual, columns } => {
            pqp_obs::record("table", &*table.name);
            let residual = residual.map(|r| plan.expr(r));
            index_scan(env, table, *column, plan.literal(*key), residual, *columns, sink)?
        }
        Node::IndexJoin { probe, probe_key, table, column, filter, probe_is_left, columns } => {
            let probe_rows = read(env, *probe)?;
            let filter = filter.map(|f| plan.expr(f));
            let scan_side = IndexSide { table, column: *column, filter, columns: *columns };
            index_join(env, &probe_rows, *probe_key as usize, &scan_side, *probe_is_left, sink)?
        }
        Node::HashJoin { left, right, keys } => {
            let lrows = read(env, *left)?;
            let rrows = read(env, *right)?;
            pqp_obs::record("left_rows", lrows.len());
            pqp_obs::record("right_rows", rrows.len());
            let (left_keys, right_keys) = key_halves(plan.list(*keys));
            join_rows(env, &lrows, &rrows, left_keys, right_keys, sink)?
        }
        Node::CrossJoin { left, right } => {
            let lrows = read(env, *left)?;
            let rrows = read(env, *right)?;
            pqp_obs::record("left_rows", lrows.len());
            pqp_obs::record("right_rows", rrows.len());
            cross_join_rows(ctx, &lrows, &rrows, sink)?
        }
        Node::Filter { input, predicate } => {
            let predicate = plan.expr(*predicate);
            let mut stage = Filter { ctx, predicate, next: sink, seen: 0, passed: 0 };
            push(env, *input, &mut stage)?;
            pqp_obs::record("rows_in", stage.seen);
            stage.passed
        }
        Node::Project { input, exprs } => {
            let exprs = plan.list(*exprs);
            if is_identity(plan, exprs, plan.arity(*input)) {
                // A derived table's re-qualification: the rows as they are.
                push(env, *input, sink)?
            } else {
                let mut stage = Project { ctx, plan, exprs, out: Row::new(), next: sink, seen: 0 };
                push(env, *input, &mut stage)?
            }
        }
        Node::Distinct { input } => distinct(env, sink, |stage| push(env, *input, stage))?,
        Node::Union { inputs, all: true } => union_all(env, plan.list(*inputs), sink)?,
        Node::Union { inputs, all: false } => {
            distinct(env, sink, |stage| union_all(env, plan.list(*inputs), stage))?
        }
        Node::Aggregate { input, group_by, aggs } => {
            let mut groups = Groups::new(env, plan.list(*group_by), plan.aggs(*aggs));
            push(env, *input, &mut groups)?;
            pqp_obs::record("rows_in", groups.seen);
            push_rows(Input::Owned(groups.finish()), sink)?
        }
        Node::Sort { input, keys } => {
            let rows = read(env, *input)?;
            push_sorted(&rows, || plan.sort_keys(*keys), sink)?
        }
        Node::Limit { input, n } => {
            let mut rows = read(env, *input)?.into_rows();
            rows.truncate(*n as usize);
            push_rows(Input::Owned(rows), sink)?
        }
        Node::TopK { .. } => crate::topk::execute(env, node, sink)?,
    };
    pqp_obs::record("rows_out", rows_out);
    Ok(rows_out)
}

/// The producer over a breaker's rows, through a scratch row: owned rows
/// are moved on (whole, into an empty [`Rows`]), a borrowed slot's are
/// copied.
fn push_rows(rows: Input, sink: &mut dyn Sink) -> Result<usize> {
    let n = rows.len();
    let mut row = Row::new();
    let rows = match rows {
        Input::Owned(rows) => rows,
        Input::Shared(rows) => match Rc::try_unwrap(rows) {
            Ok(rows) => rows,
            Err(rows) => {
                for r in rows.iter() {
                    row.clear();
                    row.extend_from_slice(r);
                    sink.push(&mut row)?;
                }
                return Ok(n);
            }
        },
    };
    if let Some(out) = sink.empty_terminal() {
        *out = rows;
        return Ok(n);
    }
    let mut values = rows.values.into_iter();
    for _ in 0..n {
        row.clear();
        row.extend(values.by_ref().take(rows.width));
        sink.push(&mut row)?;
    }
    Ok(n)
}

/// `UNION ALL`: each input's rows pushed into `sink` in turn.
fn union_all(env: &Env, inputs: &[NodeId], sink: &mut dyn Sink) -> Result<usize> {
    let mut n = 0;
    for &input in inputs {
        n += push(env, input, sink)?;
        env.ctx.checkpoint()?;
    }
    Ok(n)
}

/// Execute a [`Node::IndexScan`]: an index point lookup plus residual
/// filter, falling back to a full scan (with the reconstructed predicate)
/// when the index was dropped after planning.
fn index_scan(
    env: &Env,
    table: &TableSchema,
    column: u32,
    key: &Value,
    residual: Option<Expr>,
    columns: ColumnSet,
    sink: &mut dyn Sink,
) -> Result<usize> {
    let ctx = env.ctx;
    let (name, column) = (&*table.name, &*table.columns[column as usize].name);
    let t = env.catalog.table(name)?;
    let t = t.read();
    let Some(index) = t.index_on(column) else {
        // The index was dropped after planning: reconstruct the full
        // pushed-down predicate and fall back to a scan.
        let Some(col) = t.schema().column_index(column) else {
            return bind_err(format!("unknown column `{column}` in `{name}`"));
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
                right: Box::new(r.to_bound()),
            },
            None => eq,
        };
        drop(t);
        let (pool, root) = pred.to_pool();
        return scan(env, name, Some(Expr::new(&pool, root)), columns, sink);
    };
    pqp_obs::record("strategy", "index_scan");
    let mut hits = Hits::new(&t, residual, columns);
    let mut row = Row::new();
    let (mut pending, mut n) = (0u64, 0);
    for &ord in index.lookup(std::slice::from_ref(key)) {
        pending += 1;
        if pending == CHARGE_BATCH_ROWS {
            ctx.charge_rows(pending)?;
            pending = 0;
        }
        let (chunk, i) = t.locate(ord);
        if hits.accept(chunk, i)? {
            row.clear();
            hits.append(chunk, i, &mut row);
            sink.push(&mut row)?;
            n += 1;
        }
    }
    ctx.charge_rows(pending)?;
    Ok(n)
}

/// Scan a base table. Index access is the planner's call
/// ([`Node::IndexScan`], [`Node::IndexJoin`]); a `Scan` always reads every
/// stored chunk: per chunk of [`pqp_storage::BATCH_SIZE`] rows, charge the
/// governor (the chunk boundary is the scan's charge point), then filter
/// each stored row through [`Hits`] and push the kept rows' `columns`.
fn scan(
    env: &Env,
    table: &str,
    filter: Option<Expr>,
    columns: ColumnSet,
    sink: &mut dyn Sink,
) -> Result<usize> {
    let ctx = env.ctx;
    let t = env.catalog.table(table)?;
    let t = t.read();
    if let Some(msg) = env.catalog.failpoints().fire("storage.scan") {
        return Err(StorageError::Corrupt(format!("injected: {msg}")).into());
    }
    let mut hits = Hits::new(&t, filter, columns);
    let mut row = Row::new();
    let mut n = 0;
    for chunk in t.chunks() {
        ctx.charge_rows(chunk.len() as u64)?;
        for i in 0..chunk.len() {
            if hits.accept(chunk, i)? {
                row.clear();
                hits.append(chunk, i, &mut row);
                sink.push(&mut row)?;
                n += 1;
            }
        }
    }
    Ok(n)
}

/// The `Filter` stage: passes on the rows its predicate holds for.
struct Filter<'s> {
    ctx: &'s QueryCtx,
    predicate: Expr<'s>,
    next: &'s mut dyn Sink,
    seen: usize,
    passed: usize,
}

impl Sink for Filter<'_> {
    fn push(&mut self, row: &mut Row) -> Result<()> {
        if self.seen & (CHECKPOINT_STRIDE - 1) == 0 {
            self.ctx.checkpoint()?;
        }
        self.seen += 1;
        if !self.predicate.eval_predicate(row)? {
            return Ok(());
        }
        self.passed += 1;
        self.next.push(row)
    }
}

/// Whether the expressions `exprs` of `plan` over an input of `arity`
/// columns return each row as it is.
fn is_identity(plan: &Plan, exprs: &[u32], arity: usize) -> bool {
    exprs.len() == arity
        && (exprs.iter().enumerate())
            .all(|(i, &e)| matches!(plan.expr(e).kind(), ExprKind::Column(c) if c == i))
}

/// The `Project` stage: evaluates its expressions (of `plan`'s pool) over
/// each row into one reused output row and passes that on.
struct Project<'s> {
    ctx: &'s QueryCtx,
    plan: &'s Plan,
    exprs: &'s [u32],
    out: Row,
    next: &'s mut dyn Sink,
    seen: usize,
}

impl Sink for Project<'_> {
    fn push(&mut self, row: &mut Row) -> Result<()> {
        if self.seen & (CHECKPOINT_STRIDE - 1) == 0 {
            self.ctx.checkpoint()?;
        }
        self.seen += 1;
        self.out.clear();
        for &e in self.exprs {
            self.out.push(self.plan.expr(e).eval(row)?);
        }
        self.next.push(&mut self.out)
    }
}

/// The cross product's producer: every `l ++ r` pair of two materialized
/// sides.
fn cross_join_rows(
    ctx: &QueryCtx,
    lrows: &Rows,
    rrows: &Rows,
    sink: &mut dyn Sink,
) -> Result<usize> {
    // The one operator that can explode quadratically: charge
    // memory per output batch so a runaway product trips the budget
    // instead of exhausting the machine.
    let mut pending_mem = 0u64;
    let mut row = Row::new();
    let mut n = 0;
    for l in lrows.iter() {
        for r in rrows.iter() {
            concat_into(&mut row, l, r);
            pending_mem += approx_row_bytes(row.len());
            sink.push(&mut row)?;
            n += 1;
            if n & (CHECKPOINT_STRIDE - 1) == 0 {
                ctx.charge_mem(pending_mem)?;
                pending_mem = 0;
            }
        }
    }
    ctx.charge_mem(pending_mem)?;
    Ok(n)
}

/// Refill `row` with `l ++ r`.
fn concat_into(row: &mut Row, l: &[Value], r: &[Value]) {
    row.clear();
    row.extend_from_slice(l);
    row.extend_from_slice(r);
}

/// The `Distinct` stage, also a non-`ALL` `UNION`'s dedup: passes on each
/// row no earlier row equals, so first-seen order survives. The table
/// indexes the rows kept so far.
struct Distinct<'s> {
    ctx: &'s QueryCtx,
    keys: &'s KeyState,
    table: KeyTable,
    kept: Rows,
    /// `None` when the stage feeds an empty [`Rows`]: `kept` then
    /// becomes its rows, and no kept row is copied.
    next: Option<&'s mut dyn Sink>,
    seen: usize,
}

impl Sink for Distinct<'_> {
    fn push(&mut self, row: &mut Row) -> Result<()> {
        if self.seen & (CHECKPOINT_STRIDE - 1) == 0 {
            self.ctx.checkpoint()?;
        }
        self.seen += 1;
        let h = self.keys.hash_one(&row[..]);
        if self.table.chain(h).any(|o| self.kept.row(o) == &row[..]) {
            return Ok(());
        }
        self.table.insert(h, self.kept.len());
        match &mut self.next {
            None => self.kept.push(row),
            Some(next) => {
                self.kept.push_copy(row)?;
                next.push(row)
            }
        }
    }
}

/// Run `input` into a [`Distinct`] stage over `sink`; returns the rows it
/// passed on.
fn distinct(
    env: &Env,
    sink: &mut dyn Sink,
    input: impl FnOnce(&mut dyn Sink) -> Result<usize>,
) -> Result<usize> {
    let into_terminal = sink.empty_terminal().is_some();
    let mut stage = Distinct {
        ctx: env.ctx,
        keys: &env.keys,
        table: KeyTable::with_capacity(0),
        kept: Rows::default(),
        next: if into_terminal { None } else { Some(&mut *sink) },
        seen: 0,
    };
    input(&mut stage)?;
    let kept = stage.kept;
    let n = kept.len();
    if into_terminal {
        if let Some(out) = sink.empty_terminal() {
            *out = kept;
        }
    }
    Ok(n)
}

/// The producer over rows in sorted order: `rows` in the stable order of
/// `keys` (output column positions, each ascending or, `true`, descending),
/// sorted as indices and pushed through a scratch row. Returns how many it
/// pushed.
pub(crate) fn push_sorted<K: IntoIterator<Item = (usize, bool)>>(
    rows: &Rows,
    keys: impl Fn() -> K,
    sink: &mut dyn Sink,
) -> Result<usize> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| cmp_rows(rows.row(a), rows.row(b), keys()));
    let mut row = Row::new();
    for &i in &order {
        row.clear();
        row.extend_from_slice(rows.row(i));
        sink.push(&mut row)?;
    }
    Ok(order.len())
}

/// The order of two rows by output column positions, each ascending or
/// (`true`) descending.
fn cmp_rows(
    a: &[Value],
    b: &[Value],
    keys: impl IntoIterator<Item = (usize, bool)>,
) -> std::cmp::Ordering {
    for (idx, desc) in keys {
        let ord = a[idx].cmp(&b[idx]);
        let ord = if desc { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// The base-table side of a [`Node::IndexJoin`].
struct IndexSide<'p> {
    table: &'p TableSchema,
    /// The join column's table position.
    column: u32,
    filter: Option<Expr<'p>>,
    columns: ColumnSet,
}

/// Execute a [`Node::IndexJoin`]'s scan side against already-materialized
/// probe rows: probe the index with each probe row's `probe_key` value,
/// assembling rows in the engine's fixed `left ++ right` column order (the
/// kept hit's columns after the probe row's values when the probe side is
/// the left one, before them otherwise). The planner chose the path from
/// estimates (or, on an un-analyzed table, from the plan's shape alone);
/// this guard holds it to the actual rows: a probe side that turned out
/// large relative to the table, or an index dropped since planning,
/// degrades to a hash join over a table scan, un-swapping the sides so
/// output stays `left ++ right`.
///
/// The index is resolved once, under the read guard the whole probe holds,
/// so it cannot go away mid-probe.
fn index_join(
    env: &Env,
    probe_rows: &Rows,
    probe_key: usize,
    side: &IndexSide,
    probe_is_left: bool,
    sink: &mut dyn Sink,
) -> Result<usize> {
    let IndexSide { table, column, filter, columns } = *side;
    let (table, column) = (&*table.name, &*table.columns[column as usize].name);
    pqp_obs::record("table", table);
    pqp_obs::record("probe_rows", probe_rows.len());
    let tref = env.catalog.table(table)?;
    let t = tref.read();
    let Some(join_column) = t.schema().column_index(column) else {
        return bind_err(format!("unknown column `{column}` in `{table}`"));
    };
    let fits = probe_rows.len() * INDEX_JOIN_RATIO <= t.len();
    if let Some(index) = t.index_on(column).filter(|_| fits) {
        pqp_obs::record("strategy", "index_nested_loop");
        let ctx = env.ctx;
        let mut hits = Hits::new(&t, filter, columns);
        let mut row = Row::new();
        let (mut pending, mut n) = (0u64, 0);
        for (p, prow) in probe_rows.iter().enumerate() {
            if p & (CHECKPOINT_STRIDE - 1) == 0 {
                ctx.checkpoint()?;
            }
            let key = &prow[probe_key];
            if key.is_null() {
                continue;
            }
            for &ord in index.lookup(std::slice::from_ref(key)) {
                // Index probes read base-table rows: charge them like a scan.
                pending += 1;
                if pending == CHARGE_BATCH_ROWS {
                    ctx.charge_rows(pending)?;
                    pending = 0;
                }
                let (chunk, i) = t.locate(ord);
                if !hits.accept(chunk, i)? {
                    continue;
                }
                row.clear();
                if probe_is_left {
                    row.extend_from_slice(prow);
                }
                hits.append(chunk, i, &mut row);
                if !probe_is_left {
                    row.extend_from_slice(prow);
                }
                sink.push(&mut row)?;
                n += 1;
            }
        }
        ctx.charge_rows(pending)?;
        return Ok(n);
    }
    drop(t);
    // The scan emits `columns` only: the join column's place among them.
    let Some(scan_key) = columns.position(join_column) else {
        return Err(EngineError::Internal(format!("join column `{table}.{column}` not emitted")));
    };
    pqp_obs::record("strategy", "hash_fallback");
    let mut scan_rows = Rows::default();
    scan(env, table, filter, columns, &mut scan_rows)?;
    let (probe_key, scan_key) = (probe_key as u32, scan_key as u32);
    if probe_is_left {
        join_rows(env, probe_rows, &scan_rows, &[probe_key], &[scan_key], sink)
    } else {
        join_rows(env, &scan_rows, probe_rows, &[scan_key], &[probe_key], sink)
    }
}

/// How every base-table access path filters a stored row: a `Scan` each
/// row of each chunk, an `IndexScan` or `IndexJoin` each index hit. The
/// access path's filter, bound to table positions, reads one reused
/// full-width row that holds only the columns the filter reads (the others
/// stay NULL); a kept row then contributes the emitted columns only. A
/// rejected row allocates nothing.
struct Hits<'t> {
    filter: Option<Expr<'t>>,
    /// The columns `filter` reads, found when the access path starts.
    reads: ColumnSet,
    columns: ColumnSet,
    arity: usize,
    /// The stored row the filter reads, reused from row to row.
    stored: Row,
}

impl<'t> Hits<'t> {
    fn new(table: &Table, filter: Option<Expr<'t>>, columns: ColumnSet) -> Hits<'t> {
        let arity = table.schema().arity();
        let mut reads = ColumnSet::EMPTY;
        let mut stored = Row::new();
        if let Some(f) = filter {
            read_set(f, &mut reads);
            stored.resize(arity, Value::Null);
        }
        Hits { filter, reads, columns, arity, stored }
    }

    /// Whether row `i` of `chunk` passes the filter.
    fn accept(&mut self, chunk: &Batch, i: usize) -> Result<bool> {
        let Some(f) = self.filter else {
            return Ok(true);
        };
        for c in self.reads.iter(self.arity) {
            self.stored[c] = chunk.column(c).value(i);
        }
        f.eval_predicate(&self.stored)
    }

    /// Append the emitted columns of row `i` of `chunk`, which
    /// [`Hits::accept`] just kept, to `out`: moved out of the stored row
    /// where the filter read them, copied from the chunk otherwise.
    fn append(&mut self, chunk: &Batch, i: usize, out: &mut Row) {
        let (stored, reads) = (&mut self.stored, self.reads);
        out.extend(self.columns.iter(self.arity).map(|c| {
            if reads.contains(c) {
                std::mem::replace(&mut stored[c], Value::Null)
            } else {
                chunk.column(c).value(i)
            }
        }));
    }
}

/// Add the columns `e` reads to `set`.
fn read_set(e: Expr, set: &mut ColumnSet) {
    match e.kind() {
        ExprKind::Column(c) => set.insert(c),
        ExprKind::Literal(_) => {}
        ExprKind::Binary { left, right, .. } => {
            read_set(left, set);
            read_set(right, set);
        }
        ExprKind::Not(inner) | ExprKind::IsNull { expr: inner, .. } => read_set(inner, set),
        ExprKind::InList { expr, list, .. } => {
            read_set(expr, set);
            list.iter().for_each(|&item| read_set(e.at(item), set));
        }
    }
}

/// Hash-join two materialized sides into `left ++ right` rows in (probe
/// order, then build-insertion order within one key): build one table on
/// the smaller side, then probe it with the other.
fn join_rows(
    env: &Env,
    lrows: &Rows,
    rrows: &Rows,
    left_keys: &[u32],
    right_keys: &[u32],
    sink: &mut dyn Sink,
) -> Result<usize> {
    if let Some(msg) = env.catalog.failpoints().fire("join.build") {
        return Err(EngineError::Internal(format!("failpoint join.build: {msg}")));
    }
    let build_left = lrows.len() <= rrows.len();
    let (build, probe, build_keys, probe_keys) = if build_left {
        (lrows, rrows, left_keys, right_keys)
    } else {
        (rrows, lrows, right_keys, left_keys)
    };
    let table = build_table(env, build, build_keys)?;
    let join = Probe { build, table: &table, probe_keys, build_keys, build_left };
    probe_table(env, probe, &join, sink)
}

/// Hash of `row`'s values at `cols`, in order, computed in place by one
/// `keys` hasher: the key of the hash join. `None` when one of them is NULL
/// — SQL equi-join semantics, NULL never matches. Consistent with
/// [`key_eq`]: [`Value`]'s hash agrees with its equality across `Int` /
/// `Float`.
fn key_hash(keys: &KeyState, row: &[Value], cols: &[u32]) -> Option<u64> {
    let mut h = keys.build_hasher();
    for &c in cols {
        let v = &row[c as usize];
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// Whether `a`'s values at `a_cols` equal `b`'s at `b_cols`, pairwise.
fn key_eq(a: &[Value], a_cols: &[u32], b: &[Value], b_cols: &[u32]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&i, &j)| a[i as usize] == b[j as usize])
}

/// End of a [`KeyTable`] chain.
const NO_ENTRY: usize = usize::MAX;

/// Entries — indices into the caller's rows — chained by key hash: `heads`
/// holds the last entry inserted under each hash and `next[e]` the one
/// inserted under the same hash before `e`. A chain holds every entry whose
/// key hashes alike; callers confirm each candidate by comparing keys. The
/// hashes are the key hasher's own, so `heads` uses them as they are.
pub(crate) struct KeyTable {
    heads: HashMap<u64, usize, PreHashed>,
    next: Vec<usize>,
}

impl KeyTable {
    pub(crate) fn with_capacity(entries: usize) -> KeyTable {
        KeyTable {
            heads: HashMap::with_capacity_and_hasher(entries, PreHashed::default()),
            next: Vec::with_capacity(entries),
        }
    }

    /// Chain `entry` under hash `h`, ahead of the entries already there.
    pub(crate) fn insert(&mut self, h: u64, entry: usize) {
        if entry >= self.next.len() {
            self.next.resize(entry + 1, NO_ENTRY);
        }
        self.next[entry] = self.heads.insert(h, entry).unwrap_or(NO_ENTRY);
    }

    /// The entries chained under hash `h`, last inserted first.
    pub(crate) fn chain(&self, h: u64) -> impl Iterator<Item = usize> + '_ {
        let mut e = self.heads.get(&h).copied().unwrap_or(NO_ENTRY);
        std::iter::from_fn(move || {
            let cur = e;
            (cur != NO_ENTRY).then(|| {
                e = self.next[cur];
                cur
            })
        })
    }
}

/// The hash-build loop: chain the build rows by key hash. Inserting them
/// last to first leaves every chain in build-insertion order, the order
/// matches are emitted in.
fn build_table(env: &Env, build: &Rows, build_keys: &[u32]) -> Result<KeyTable> {
    let mut table = KeyTable::with_capacity(build.len());
    for (i, row) in build.iter().enumerate().rev() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            env.ctx.checkpoint()?;
        }
        if let Some(h) = key_hash(&env.keys, row, build_keys) {
            table.insert(h, i);
        }
    }
    Ok(table)
}

/// A built hash join, ready for its probe loop.
struct Probe<'a> {
    build: &'a Rows,
    table: &'a KeyTable,
    probe_keys: &'a [u32],
    build_keys: &'a [u32],
    build_left: bool,
}

/// The hash-probe loop: look each probe row up in the table and push
/// `left ++ right` rows in probe order, charging an estimated
/// [`approx_row_bytes`] per joined row.
fn probe_table(env: &Env, probe: &Rows, join: &Probe, sink: &mut dyn Sink) -> Result<usize> {
    let ctx = env.ctx;
    let mut row = Row::new();
    let (mut pending_mem, mut n) = (0u64, 0);
    for (i, prow) in probe.iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            ctx.charge_mem(pending_mem)?;
            pending_mem = 0;
        }
        let Some(h) = key_hash(&env.keys, prow, join.probe_keys) else {
            continue;
        };
        for bi in join.table.chain(h) {
            let brow = join.build.row(bi);
            if !key_eq(brow, join.build_keys, prow, join.probe_keys) {
                continue;
            }
            if join.build_left {
                concat_into(&mut row, brow, prow);
            } else {
                concat_into(&mut row, prow, brow);
            }
            pending_mem += approx_row_bytes(row.len());
            sink.push(&mut row)?;
            n += 1;
        }
    }
    ctx.charge_mem(pending_mem)?;
    Ok(n)
}

/// The terminal of an `Aggregate`'s input: hash aggregation. Groups live
/// in first-seen order: their key values in one [`Rows`], their
/// accumulators, `aggs.len()` per group, in one flat `Vec`; the table maps
/// a key's hash to group indices. Each input row's key is evaluated into
/// one reused scratch row, and moved into the group keys only when it opens
/// a new group.
struct Groups<'s> {
    ctx: &'s QueryCtx,
    keys: &'s KeyState,
    plan: &'s Plan,
    /// The group keys' expressions, in `plan`'s pool.
    group_by: &'s [u32],
    aggs: &'s [AggCall],
    groups: Rows,
    states: Vec<AggState>,
    table: KeyTable,
    key: Row,
    seen: usize,
}

impl<'s> Groups<'s> {
    fn new(env: &'s Env, group_by: &'s [u32], aggs: &'s [AggCall]) -> Groups<'s> {
        let mut groups = Groups {
            ctx: env.ctx,
            keys: &env.keys,
            plan: env.plan,
            group_by,
            aggs,
            groups: Rows::default(),
            states: Vec::new(),
            table: KeyTable::with_capacity(0),
            key: Row::with_capacity(group_by.len()),
            seen: 0,
        };
        if group_by.is_empty() {
            // Global aggregate: exactly one group, present even on empty input.
            groups.groups.len = 1;
            groups.states.extend(aggs.iter().map(|a| a.new_state()));
            groups.table.insert(env.keys.hash_one(&[][..] as &[Value]), 0);
        }
        groups
    }

    /// The group rows: key values, then aggregate results.
    fn finish(self) -> Rows {
        let Groups { groups, states, aggs, .. } = self;
        if aggs.is_empty() {
            return groups;
        }
        let Rows { width, len, values } = groups;
        let mut keys = values.into_iter();
        let mut out = Vec::with_capacity(len * (width + aggs.len()));
        for group_states in states.chunks(aggs.len()) {
            out.extend(keys.by_ref().take(width));
            out.extend(group_states.iter().map(|s| s.finish()));
        }
        Rows { width: width + aggs.len(), len, values: out }
    }
}

impl Sink for Groups<'_> {
    fn push(&mut self, row: &mut Row) -> Result<()> {
        if self.seen & (CHECKPOINT_STRIDE - 1) == 0 {
            self.ctx.checkpoint()?;
        }
        self.seen += 1;
        let key = &mut self.key;
        key.clear();
        for &g in self.group_by {
            key.push(self.plan.expr(g).eval(row)?);
        }
        let h = self.keys.hash_one(&key[..]);
        let groups = &mut self.groups;
        let found = self.table.chain(h).find(|&g| groups.row(g) == &key[..]);
        let group = match found {
            Some(g) => g,
            None => {
                self.table.insert(h, groups.len());
                groups.push(key)?;
                self.states.extend(self.aggs.iter().map(|a| a.new_state()));
                groups.len() - 1
            }
        };
        let n = self.aggs.len();
        for (call, state) in self.aggs.iter().zip(&mut self.states[group * n..(group + 1) * n]) {
            match call.arg {
                None => state.update(None)?,
                Some(e) => {
                    let v = self.plan.expr(e).eval(row)?;
                    state.update(Some(&v))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// `f` over the surroundings of an empty plan whose expression pool
    /// holds the columns 0 and 1 at 0 and 1, keys hashed with `seed`.
    fn with_env<T>(seed: u64, f: impl FnOnce(&Env) -> T) -> T {
        let (catalog, ctx) = (Catalog::new(), QueryCtx::unlimited());
        let mut builder = crate::plan::Builder::new(true);
        for c in 0..2 {
            builder.expr(&BoundExpr::Column(c));
        }
        let root = builder.push(Node::Empty { arity: 0 }, &Default::default());
        let plan = builder.finish(root, Box::new([]));
        f(&Env::new(&catalog, &ctx, &plan, KeyState::with_seed(seed)))
    }

    fn flat(rows: &[Row]) -> Rows {
        let mut out = Rows::default();
        rows.iter().for_each(|row| out.push_copy(row).unwrap());
        out
    }

    /// The hash join of `l` and `r`, collected.
    fn join_in(env: &Env, l: &[Row], r: &[Row], lk: &[u32], rk: &[u32]) -> Vec<Row> {
        let mut out = Rows::default();
        join_rows(env, &flat(l), &flat(r), lk, rk, &mut out).unwrap();
        out.into_vec()
    }

    fn join(l: Vec<Row>, r: Vec<Row>, lk: &[u32], rk: &[u32]) -> Vec<Row> {
        with_env(1, |env| join_in(env, &l, &r, lk, rk))
    }

    /// `rows` through a `Distinct` stage into `out`.
    fn distinct_into(env: &Env, mut out: Rows, input: Vec<Row>) -> Vec<Row> {
        distinct(env, &mut out, |stage| push_rows(Input::Owned(flat(&input)), stage)).unwrap();
        out.into_vec()
    }

    /// `rows` into an `Aggregate`'s group table (`group_by` in the env's
    /// plan's pool).
    fn aggregate(env: &Env, rows: &[Row], group_by: &[u32], aggs: &[AggCall]) -> Vec<Row> {
        let mut groups = Groups::new(env, group_by, aggs);
        for row in rows {
            groups.push(&mut row.clone()).unwrap();
        }
        groups.finish().into_vec()
    }

    #[test]
    fn hash_join_matches_int_against_equal_float() {
        let l = vec![vec![int(3), Value::str("l")]];
        let r = vec![vec![Value::Float(3.0)], vec![Value::Float(3.5)]];
        assert_eq!(
            join(l.clone(), r.clone(), &[0], &[0]),
            vec![vec![int(3), Value::str("l"), Value::Float(3.0)]]
        );
        // The same with the float side building the table.
        let r_small = vec![vec![Value::Float(3.0)]];
        let l_big = vec![vec![int(3), Value::str("a")], vec![int(4), Value::str("b")]];
        assert_eq!(
            join(l_big, r_small, &[0], &[0]),
            vec![vec![int(3), Value::str("a"), Value::Float(3.0)]]
        );
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let l = vec![vec![Value::Null], vec![int(1)]];
        let r = vec![vec![Value::Null], vec![int(1)], vec![Value::Null]];
        assert_eq!(join(l.clone(), r.clone(), &[0], &[0]), vec![vec![int(1), int(1)]]);
        assert_eq!(join(r, l, &[0], &[0]), vec![vec![int(1), int(1)]]);
        // A NULL in either column of a two-column key drops the row too.
        let l = vec![vec![int(1), Value::Null], vec![int(1), int(2)]];
        let r = vec![vec![int(1), Value::Null], vec![int(1), int(2)]];
        assert_eq!(join(l, r, &[0, 1], &[0, 1]), vec![vec![int(1), int(2), int(1), int(2)]]);
    }

    #[test]
    fn hash_join_on_a_two_column_key() {
        let l = vec![
            vec![int(1), Value::str("a")],
            vec![int(1), Value::str("b")],
            vec![int(2), Value::str("a")],
        ];
        let r = vec![vec![Value::str("a"), int(1)], vec![Value::str("a"), int(2)]];
        // Columns (0, 1) of the left against (1, 0) of the right.
        assert_eq!(
            join(l, r, &[0, 1], &[1, 0]),
            vec![
                vec![int(1), Value::str("a"), Value::str("a"), int(1)],
                vec![int(2), Value::str("a"), Value::str("a"), int(2)],
            ]
        );
    }

    #[test]
    fn duplicate_build_keys_emit_in_build_insertion_order() {
        let build: Vec<Row> = (0..5).map(|i| vec![int(i % 2), int(i)]).collect();
        let probe: Vec<Row> = (0..8).map(|i| vec![int(i % 2)]).collect();
        // Build side left (smaller): matches follow the build rows' order
        // within one probe row, probe order across them.
        let out = join(build.clone(), probe.clone(), &[0], &[0]);
        let seconds: Vec<i64> = out.iter().take(5).map(|r| r[1].as_i64().unwrap()).collect();
        assert_eq!(seconds, [0, 2, 4, 1, 3]);
        assert_eq!(out.len(), 4 * 3 + 4 * 2);
        // Build side right (the left side is larger): same order.
        let big: Vec<Row> = (0..8).map(|i| vec![int(i % 2)]).collect();
        let out = join(big, build, &[0], &[0]);
        let seconds: Vec<i64> = out.iter().take(5).map(|r| r[2].as_i64().unwrap()).collect();
        assert_eq!(seconds, [0, 2, 4, 1, 3]);
    }

    #[test]
    fn distinct_keeps_first_seen_order_and_groups_nulls() {
        let rows = vec![
            vec![int(2), Value::Null],
            vec![int(1), Value::str("x")],
            vec![Value::Float(2.0), Value::Null],
            vec![int(1), Value::str("y")],
            vec![int(1), Value::str("x")],
        ];
        let distinct = vec![
            vec![int(2), Value::Null],
            vec![int(1), Value::str("x")],
            vec![int(1), Value::str("y")],
        ];
        // Into an empty terminal, whose rows the stage's kept rows become.
        assert_eq!(with_env(1, |env| distinct_into(env, Rows::default(), rows.clone())), distinct);
        assert!(with_env(1, |env| distinct_into(env, Rows::default(), Vec::new())).is_empty());
        // Into a terminal that already holds a row: the stage passes its
        // kept rows on, and the earlier row does not count as seen.
        let held = vec![vec![int(1), Value::str("x")]];
        let out = with_env(1, |env| distinct_into(env, flat(&held), rows));
        assert_eq!(out, [held, distinct].concat());
    }

    #[test]
    fn group_by_keeps_first_seen_order() {
        let rows: Vec<Row> = [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)]
            .iter()
            .map(|&(k, v)| vec![Value::str(k), int(v)])
            .collect();
        let group_by = [0];
        let aggs = [
            AggCall::new(AggFunc::Count, None).unwrap(),
            AggCall::new(AggFunc::Sum, Some(1)).unwrap(),
        ];
        let out = with_env(1, |env| aggregate(env, &rows, &group_by, &aggs));
        assert_eq!(
            out,
            vec![
                vec![Value::str("b"), int(2), Value::Float(4.0)],
                vec![Value::str("a"), int(2), Value::Float(7.0)],
                vec![Value::str("c"), int(1), Value::Float(4.0)],
            ]
        );
        // No GROUP BY: one group, even over no rows.
        let out = with_env(1, |env| aggregate(env, &[], &[], &aggs));
        assert_eq!(out, vec![vec![int(0), Value::Null]]);
    }

    /// Two seeds the tests below hash every key with.
    const SEEDS: [u64; 2] = [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210];

    /// `M(mid, genre, year)`, 300 rows, and `G(mid, tag)`, 500 rows, with
    /// NULL keys on both sides and many duplicate keys.
    fn key_table_db() -> crate::Database {
        use pqp_storage::{ColumnDef, DataType, TableSchema};
        let genres = ["comedy", "drama", "noir", "", "a", "western!", "documentary"];
        let mut catalog = Catalog::new();
        let m = TableSchema::new(
            "M",
            vec![
                ColumnDef::nullable("mid", DataType::Int),
                ColumnDef::nullable("genre", DataType::Str),
                ColumnDef::nullable("year", DataType::Int),
            ],
        );
        let m = catalog.create_table(m).unwrap();
        for i in 0..300i64 {
            let mid = if i % 17 == 0 { Value::Null } else { int(i) };
            let year = if i % 23 == 0 { Value::Null } else { int(1990 + i % 13) };
            m.write().insert(vec![mid, Value::str(genres[i as usize % 7]), year]).unwrap();
        }
        let g = TableSchema::new(
            "G",
            vec![
                ColumnDef::nullable("mid", DataType::Int),
                ColumnDef::nullable("tag", DataType::Str),
            ],
        );
        let g = catalog.create_table(g).unwrap();
        for i in 0..500i64 {
            let mid = if i % 11 == 0 { Value::Null } else { int(i * 7 % 170) };
            g.write().insert(vec![mid, Value::str(format!("t{}", i % 9))]).unwrap();
        }
        crate::Database::new(catalog)
    }

    /// `plan`'s rows, asserted equal and in the same order under both
    /// [`SEEDS`].
    fn under_both_seeds(db: &crate::Database, plan: &Plan) -> Vec<Row> {
        let ctx = QueryCtx::unlimited();
        let [a, b] = SEEDS.map(|seed| {
            let env = Env::new(db.catalog(), &ctx, plan, KeyState::with_seed(seed));
            read(&env, plan.root()).unwrap().into_rows().into_vec()
        });
        assert_eq!(a, b, "{plan:?}");
        assert!(!a.is_empty());
        a
    }

    fn sql_under_both_seeds(db: &crate::Database, sql: &str) -> Vec<Row> {
        let plan = db.plan(&pqp_sql::parse_query(sql).unwrap()).unwrap();
        under_both_seeds(db, &plan)
    }

    #[test]
    fn key_tables_answer_alike_under_any_seed() {
        // The seeds do hash differently.
        let [a, b] = SEEDS.map(|seed| KeyState::with_seed(seed).hash_one(int(7)));
        assert_ne!(a, b);
        let db = key_table_db();
        // Hash joins with each side building: M filtered small, then G.
        for sql in [
            "SELECT M.mid, M.genre, G.tag FROM M, G WHERE M.mid = G.mid AND M.year = 1991",
            "SELECT M.mid, M.genre, G.tag FROM M, G WHERE M.mid = G.mid AND G.tag = 't1'",
        ] {
            let rows = sql_under_both_seeds(&db, sql);
            // The NULL-key rule: a NULL never matches, not even a NULL.
            assert!(rows.iter().all(|r| !r[0].is_null()), "{sql}");
        }
        // The same at the operator, over keys that repeat and NULLs on both
        // sides, with each side building.
        let keys = |n: i64, null_every: i64, distinct: i64| -> Vec<Row> {
            let key = |i| if i % null_every == 0 { Value::Null } else { int(i % distinct) };
            (0..n).map(|i| vec![key(i), int(i)]).collect()
        };
        let (small, big) = (keys(40, 3, 9), keys(90, 4, 7));
        let [a, b] = SEEDS.map(|seed| {
            with_env(seed, |env| {
                let l_builds = join_in(env, &small, &big, &[0], &[0]);
                let r_builds = join_in(env, &big, &small, &[0], &[0]);
                [l_builds, r_builds]
            })
        });
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|r| !r[0].is_null()) && !a[0].is_empty());
        for sql in [
            "SELECT DISTINCT M.genre, M.year FROM M",
            "SELECT M.genre FROM M UNION SELECT G.tag FROM G",
            "SELECT M.genre, M.year, COUNT(*) FROM M GROUP BY M.genre, M.year",
            "SELECT COUNT(*), SUM(M.year) FROM M",
        ] {
            sql_under_both_seeds(&db, sql);
        }
    }

    #[test]
    fn topk_ingest_answers_alike_under_any_seed() {
        use crate::plan::TopKMatching;
        use crate::topk::{ProbeSource, ProbeSpec, TopKSpec};
        let db = key_table_db();
        let parse = |sql: &str| pqp_sql::parse_query(sql).unwrap();
        for rank in [false, true] {
            let spec = TopKSpec {
                base: parse("SELECT M.genre, M.year, M.mid, M.genre FROM M"),
                columns: vec!["genre".into(), "year".into()],
                probes: vec![
                    ProbeSpec {
                        doi: 0.8,
                        source: ProbeSource::Witness(parse(
                            "SELECT G.mid FROM G WHERE G.tag = 't1'",
                        )),
                    },
                    ProbeSpec { doi: 0.6, source: ProbeSource::Literal(Value::str("noir")) },
                ],
                matching: TopKMatching::AtLeast(0),
                rank,
                limit: None,
            };
            let rows = under_both_seeds(&db, &db.plan_topk(&spec).unwrap());
            // One row per (genre, year) group.
            assert_eq!(
                rows.len(),
                sql_under_both_seeds(&db, "SELECT DISTINCT M.genre, M.year FROM M").len()
            );
        }
    }
}
