//! Cardinality estimation over physical plans, driven by the statistics
//! collected by `ANALYZE` ([`pqp_storage::stats`]).
//!
//! The estimator answers one question — *how many rows will this plan node
//! produce?* — and the planner uses the answers to order joins and choose
//! index access paths. Estimation is strictly best-effort:
//!
//! - **With statistics** (table analyzed): equality selectivity comes from
//!   the column's histogram (skewed values pin whole equi-depth buckets) or
//!   the uniform `1/NDV` floor, ranges from histogram coverage with linear
//!   interpolation inside the split bucket, and join outputs from the
//!   textbook `|L|·|R| / max(ndv_L, ndv_R)` with NDVs clamped to the side
//!   estimates.
//! - **Without statistics**: the same fixed fallbacks the planner used
//!   before stats existed (`= literal` → [`EQ_FALLBACK`], anything else →
//!   [`DEFAULT_FALLBACK`]), so un-analyzed databases plan exactly as they
//!   always did.
//!
//! Conjunctions multiply selectivities (independence assumption),
//! disjunctions combine as `s1 + s2 − s1·s2`, `NOT` complements.
//!
//! Selectivities apply to *base-table columns*, so the estimator maps a plan
//! node's output columns back to their originating `(table, column)`; that
//! mapping survives scans, filters, joins and pass-through projections. An
//! access path's output origins are those of the columns it emits; its own
//! filter reads the stored row, so it is priced against every column of
//! the table.
//!
//! # One pass
//!
//! A node's row estimate needs its children's rows and origins, and its cost
//! needs its own rows and its children's costs. [`Estimator::estimate`]
//! therefore computes all three — `(rows, cost, origins)` — bottom-up in a
//! single post-order walk, every node reference visited once and handing its
//! triple to its parent (a shared subtree is priced at every reference, as
//! if it were not shared). [`Estimator::rows`], [`Estimator::cost`] and
//! [`Estimator::explain`] are thin wrappers over that walk. Tables are
//! resolved against the catalog once per estimator and referred to by a
//! small integer from then on, so an origin is two machine words and a
//! statistics lookup is an index, not a string hash.
//!
//! # Prices
//!
//! [`Estimator::price_join`] gives the `(rows, cost)` the walk would derive
//! for the join tree the planner would build over a set of FROM factors —
//! from the factors' tables, local selectivities and equi-join edges alone,
//! without binding or building a plan. `Estimator::join_order`, the one
//! join search and index-join rule, reports its steps to both: the planner
//! builds its join tree from them, `price_join` adds them up with the
//! walk's join arithmetic (an indexed equality makes a factor an
//! `IndexScan`, not a bare scan). On analyzed tables the search picks its
//! start factor by that same sum. The strategy layer prices its rewrite
//! candidates with it before building any of them.

use crate::bound::{Expr, ExprKind};
use crate::plan::{key_halves, Node, NodeId, Plan, TopKProbeSource};
use pqp_sql::BinaryOp;
use pqp_storage::{Catalog, ColumnSet, ColumnStats, TableStats, Value};
use std::cell::RefCell;
use std::convert::Infallible;
use std::sync::Arc;

/// Selectivity assumed for `col = literal` without statistics. Matches the
/// planner's historical hardcoded boost, keeping un-analyzed plans stable.
pub const EQ_FALLBACK: f64 = 0.05;
/// Selectivity assumed for any other predicate without statistics.
pub const DEFAULT_FALLBACK: f64 = 0.5;
/// Selectivity assumed for `IS NULL` without statistics.
pub const IS_NULL_FALLBACK: f64 = 0.1;
/// Row estimate for a table the estimator cannot resolve at all.
const UNKNOWN_TABLE_ROWS: f64 = 1000.0;
/// An index nested-loop join probes at most one row per this many rows of
/// the indexed table: with statistics the join order holds the probe side's
/// estimate to it, and the executor the probe rows it actually has.
pub const INDEX_JOIN_RATIO: usize = 4;
/// Two join starts whose scores differ by at most this share of them tie,
/// and the one with fewer rows wins: the same steps summed in another order
/// round differently, and a rounding difference should not move a plan.
const START_TIE: f64 = 1e-9;

/// A table as one [`Estimator`] knows it: an index into its fact list.
type TableId = usize;

/// Where one output column of a plan node comes from: `(table, column
/// position)` in a base table, when derivable from the plan.
pub(crate) type ColumnOrigin = Option<(TableId, usize)>;

/// Per-table planning facts, read from the catalog once per estimator: row
/// count, the statistics snapshot (if the table was ever `ANALYZE`d), the
/// column names and each column's hash-index key count.
struct TableFacts {
    name: Arc<str>,
    rows: f64,
    stats: Option<Arc<TableStats>>,
    columns: Vec<Arc<str>>,
    /// By column: the distinct keys of its hash index, if it has one.
    index_keys: Vec<Option<f64>>,
}

/// What the one-pass walk knows about a plan node once its subtree is done.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated number of rows the node produces.
    pub rows: f64,
    /// Estimated total work of the node's subtree (see [`Estimator::cost`]).
    pub cost: f64,
    /// The base-table origin of each output column.
    pub(crate) origins: Vec<ColumnOrigin>,
}

/// A FROM factor as [`Estimator::price_join`] sees it: a base table, the
/// combined selectivity of the conjuncts local to it, and whether one of
/// them is an indexed `column = literal` (so the planner reads the factor
/// through an `IndexScan`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedFactor<'a> {
    pub table: &'a str,
    pub selectivity: f64,
    pub index_scan: bool,
}

/// An equi-join conjunct between two factors of a priced join, as
/// `(factor position, column)` on each side.
pub type PricedEdge<'a> = ((usize, &'a str), (usize, &'a str));

/// A FROM factor as [`Estimator::join_order`] sees it.
pub(crate) struct JoinFactor {
    /// Estimated rows of the factor's access path.
    pub rows: f64,
    /// The walk's cost of that path: its table's rows for a `Scan`, its own
    /// rows for an `IndexScan`.
    pub cost: f64,
    /// Whether that path is a (filtered) `Scan`: the only side an index
    /// join can read through its table's hash index.
    pub scan: bool,
    /// Whether that path reads a table `ANALYZE` has given statistics.
    pub analyzed: bool,
}

/// Where a factor stands in one run of the greedy join steps.
#[derive(Clone, Copy, PartialEq)]
enum State {
    Left,
    Joined,
    /// Joined, in a side that a step has emptied since.
    Emptied,
}

/// An equi-join conjunct between two factors, as each end's factor and what
/// the join search knows of its column.
pub(crate) type JoinEdge = [(usize, JoinEnd); 2];

/// A join column as [`Estimator::join_order`] sees it, read from the
/// catalog once per search ([`Estimator::join_end`]) so that the steps from
/// every start are plain arithmetic.
#[derive(Clone, Copy, Default)]
pub(crate) struct JoinEnd {
    /// The column's distinct values, as [`Estimator::ndv`] reads them.
    distinct: Option<f64>,
    /// With a hash index on the column: its table's rows, and whether the
    /// table is analyzed.
    index: Option<(f64, bool)>,
}

/// How a step of [`Estimator::join_order`] joins its factor in.
pub(crate) enum Join<'s> {
    /// No factor left is connected to the joined ones.
    Cross,
    /// A hash join along every edge between the new factor and the joined
    /// ones, in edge order. A second edge into the same factor closes a
    /// cycle of the join graph; it is a key like the first.
    Hash(&'s [usize]),
    /// An index nested-loop join along one edge. With `probe_is_left` the
    /// new factor is the bare scan and the joined side probes it; otherwise
    /// the joined side is the start factor's bare scan, probed by the new
    /// factor.
    Index { edge: usize, probe_is_left: bool },
}

/// An edge's `[near, far]` ends when it joins factor `far` in.
pub(crate) fn near_far<T: Copy>([a, b]: [(usize, T); 2], far: usize) -> [(usize, T); 2] {
    if b.0 == far {
        [a, b]
    } else {
        [b, a]
    }
}

/// A cardinality estimator over one catalog. Keeps per-table row counts and
/// statistics snapshots for as long as it lives: one planning pass, or one
/// strategy choice across all its candidates.
pub struct Estimator<'a> {
    catalog: &'a Catalog,
    tables: RefCell<Vec<TableFacts>>,
}

impl<'a> Estimator<'a> {
    pub fn new(catalog: &'a Catalog) -> Estimator<'a> {
        Estimator { catalog, tables: RefCell::new(Vec::new()) }
    }

    /// Rows, cost and column origins of a plan, in one post-order pass.
    pub fn estimate(&self, plan: &Plan) -> Estimate {
        self.estimate_at(plan, plan.root())
    }

    /// [`Self::estimate`] of the subtree rooted at node `id`.
    pub fn estimate_at(&self, plan: &Plan, id: NodeId) -> Estimate {
        self.walk(plan, id, &mut |_, _| {})
    }

    /// [`Self::estimate`] of `node`, which is not in `plan` (yet): its
    /// children are.
    pub(crate) fn estimate_node(&self, plan: &Plan, node: &Node) -> Estimate {
        self.derive(plan, node, &mut |_, _| {})
    }

    /// Estimated number of rows a plan produces.
    pub fn rows(&self, plan: &Plan) -> f64 {
        self.estimate(plan).rows
    }

    /// Estimated total work of a plan: unit cost per row produced at every
    /// node, plus the scan work at the leaves. This is the figure the
    /// personalization layer compares across rewrite strategies (SQ vs MQ
    /// vs native rank) — coarse, but monotone in the quantity that
    /// dominates all three: the rows their operator trees push around.
    pub fn cost(&self, plan: &Plan) -> f64 {
        self.estimate(plan).cost
    }

    /// EXPLAIN text with a per-node `est_rows` annotation, on the first
    /// and every reused occurrence of a shared subtree alike.
    pub fn explain(&self, plan: &Plan) -> String {
        let rows = self.rows_by_node(plan);
        plan.explain_annotated(&mut |id| {
            rows[id as usize].map(|r| format!("est_rows={:.0}", r.round()))
        })
    }

    /// The estimated rows of every node of `plan` the root reaches, by node,
    /// from one walk.
    pub(crate) fn rows_by_node(&self, plan: &Plan) -> Vec<Option<f64>> {
        let mut rows = vec![None; plan.len()];
        self.walk(plan, plan.root(), &mut |id, r| rows[id as usize] = Some(r));
        rows
    }

    /// Selectivity of the conjunct `table.column = value`, as the walk
    /// prices it.
    pub fn eq_selectivity(&self, table: &str, column: &str, value: &Value) -> f64 {
        let t = self.table_id(table);
        let origin = self.column_index(t, column).map(|c| (t, c));
        self.stats_eq_value(&origin, value).unwrap_or(EQ_FALLBACK).clamp(0.0, 1.0)
    }

    /// Whether `node` is an access path of a table `ANALYZE` has given
    /// statistics.
    pub(crate) fn analyzed_path(&self, node: &Node) -> bool {
        match node {
            Node::Scan { table, .. } | Node::IndexScan { table, .. } => {
                self.analyzed(self.table_id(&table.name))
            }
            _ => false,
        }
    }

    /// Whether `table` has a hash index on `column`.
    pub fn has_index(&self, table: &str, column: &str) -> bool {
        let t = self.table_id(table);
        self.column_index(t, column).is_some_and(|c| self.indexed(t, c))
    }

    /// `(rows, cost)` of the join tree the planner would build over
    /// `factors` joined along `edges`, priced as the walk would price that
    /// tree (see the module's "Prices"). Conjuncts that are neither local to
    /// a factor nor equi-join edges are the caller's to apply.
    pub fn price_join(&self, factors: &[PricedFactor<'_>], edges: &[PricedEdge<'_>]) -> (f64, f64) {
        let (sides, ends) = self.priced_sides(factors, edges);
        let mut price = (0.0, 0.0);
        let Ok(()) = self.join_order(&sides, &ends, |f, join| -> Result<bool, Infallible> {
            price = self.step_price(&sides, &ends, price, f, join);
            Ok(false)
        });
        price
    }

    /// Priced factors and edges as [`Self::join_order`] sees them.
    fn priced_sides(
        &self,
        factors: &[PricedFactor<'_>],
        edges: &[PricedEdge<'_>],
    ) -> (Vec<JoinFactor>, Vec<JoinEdge>) {
        let table = |f: usize| {
            let t = self.table_id(factors[f].table);
            (t, self.table_rows(t))
        };
        let sides: Vec<JoinFactor> = (factors.iter().enumerate())
            .map(|(f, p)| {
                let (t, len) = table(f);
                let rows = len * p.selectivity;
                JoinFactor {
                    rows,
                    cost: if p.index_scan { rows.max(1.0) } else { len.max(1.0) },
                    scan: !p.index_scan,
                    analyzed: self.analyzed(t),
                }
            })
            .collect();
        let end = |(f, column): (usize, &str)| {
            let t = table(f).0;
            (f, self.join_end(self.column_index(t, column).map(|c| (t, c))))
        };
        let ends: Vec<JoinEdge> = edges.iter().map(|&(a, b)| [end(a), end(b)]).collect();
        (sides, ends)
    }

    /// The join order over `factors` joined along `edges`, handed to `take`
    /// one step at a time as the factor it adds and how it joins it (`None`
    /// for the start factor). The planner builds its join tree from the
    /// steps and [`Self::price_join`] prices them, so a plan and its price
    /// follow one order.
    ///
    /// From a given start factor the order is greedy. Each step joins the
    /// connected factor whose estimated join output
    /// ([`Self::hash_join_rows`] of the running estimate, floored at one row,
    /// and the factor's rows) is smallest, along every edge between it and
    /// the joined factors, or cross-joins the smallest factor left when none
    /// is connected.
    ///
    /// The start is a cost decision when every factor reads an analyzed
    /// table: the greedy steps run from each start without calling `take`,
    /// and each resulting tree is scored with the walk's own cost, the sum
    /// [`Self::price_join`] forms (every factor's leaf cost, nothing for the
    /// scan side of an index join, plus every step's output rows). The
    /// cheapest start wins; of starts that tie (within [`START_TIE`]), the
    /// one with fewer rows, so an order the fewest-rows start already finds
    /// stays put. Without statistics on every factor the estimates are fallback
    /// constants that cannot rank starts, and the fewest-rows factor starts.
    /// The score charges a shared subtree on its own in every
    /// branch, as [`Self::cost`] does, so the search can give up a subtree
    /// that branches would have shared; counting it once is the cost
    /// model's change to make, not the search's.
    ///
    /// A join along a single edge is an index join when its scan side is a
    /// bare scan with a hash index on the join column and, on an analyzed
    /// table, the probe side's estimate times [`INDEX_JOIN_RATIO`] is at most
    /// the table's rows. The new factor is tried as the scan side first; the
    /// start factor is the other candidate, at the first step only, while it
    /// is still a bare scan. Without statistics the estimate is too crude to
    /// rule the path out, so the shape alone promotes it, and the executor
    /// holds the actual probe rows to the same ratio (hash join if they fail).
    ///
    /// `take` returns whether its step emptied the joined side (a
    /// constant-false filter): an `Empty` node's columns come from nowhere,
    /// so later steps estimate the edges out of it without statistics, as the
    /// walk does. Scoring assumes no step empties its side.
    pub(crate) fn join_order<E>(
        &self,
        factors: &[JoinFactor],
        edges: &[JoinEdge],
        take: impl FnMut(usize, Option<Join<'_>>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let smallest = |a: &usize, b: &usize| factors[*a].rows.total_cmp(&factors[*b].rows);
        let Some(fewest) = (0..factors.len()).min_by(smallest) else { return Ok(()) };
        let mut state = vec![State::Left; factors.len()];
        let mut keys: Vec<usize> = Vec::new();
        let mut start = fewest;
        if factors.len() > 1 && factors.iter().all(|f| f.analyzed) {
            let mut best = f64::INFINITY;
            for s in std::iter::once(fewest).chain((0..factors.len()).filter(|&s| s != fewest)) {
                let limit = best * (1.0 + START_TIE);
                let Some(score) = self.score(factors, edges, s, limit, &mut state, &mut keys)
                else {
                    continue;
                };
                let tie = score <= limit;
                if score < best * (1.0 - START_TIE) || tie && factors[s].rows < factors[start].rows
                {
                    (start, best) = (s, score);
                }
            }
        }
        self.greedy(factors, edges, start, &mut state, &mut keys, take)
    }

    /// The walk's cost of the greedy join tree from factor `start`, or `None`
    /// as soon as the tree built so far costs more than `limit`: from its
    /// first join on, a tree's cost only grows (only that join may drop the
    /// start's leaf cost, when it reads the start through its index).
    fn score(
        &self,
        factors: &[JoinFactor],
        edges: &[JoinEdge],
        start: usize,
        limit: f64,
        state: &mut [State],
        keys: &mut Vec<usize>,
    ) -> Option<f64> {
        let mut price = (0.0, 0.0);
        let scored = self.greedy(factors, edges, start, state, keys, |f, join| {
            let joins = join.is_some();
            price = self.step_price(factors, edges, price, f, join);
            if joins && price.1 > limit {
                Err(())
            } else {
                Ok(false)
            }
        });
        scored.ok().map(|()| price.1)
    }

    /// The greedy steps of [`Self::join_order`] from factor `start`, over
    /// the caller's `state` and `keys` buffers so that scoring a start
    /// allocates nothing.
    fn greedy<E>(
        &self,
        factors: &[JoinFactor],
        edges: &[JoinEdge],
        start: usize,
        state: &mut [State],
        keys: &mut Vec<usize>,
        mut take: impl FnMut(usize, Option<Join<'_>>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let smallest = |a: &usize, b: &usize| factors[*a].rows.total_cmp(&factors[*b].rows);
        state.fill(State::Left);
        let mut emptied = take(start, None)?;
        state[start] = State::Joined;
        let mut est = factors[start].rows;
        for step in 1..factors.len() {
            if emptied {
                for s in state.iter_mut().filter(|s| **s == State::Joined) {
                    *s = State::Emptied;
                }
            }
            let joined = &*state;
            let distinct =
                |(f, end): (usize, JoinEnd)| end.distinct.filter(|_| joined[f] != State::Emptied);
            // The edges that join factor `i` in: every edge between `i` and a
            // joined factor (an edge is used once both its ends are joined).
            let connecting = move |i: usize| {
                (0..edges.len()).filter(move |&e| {
                    let [a, b] = edges[e];
                    (b.0 == i && joined[a.0] != State::Left)
                        || (a.0 == i && joined[b.0] != State::Left)
                })
            };
            let mut best: Option<(usize, f64)> = None;
            for i in (0..factors.len()).filter(|&i| joined[i] == State::Left) {
                let mut on = connecting(i).peekable();
                if on.peek().is_none() {
                    continue;
                }
                let on =
                    on.map(|e| near_far(edges[e], i)).map(|[n, f]| (distinct(n), f.1.distinct));
                let out = hash_join_rows(est, factors[i].rows, on);
                if out < best.map_or(f64::INFINITY, |(_, o)| o) {
                    best = Some((i, out));
                }
            }
            keys.clear();
            let (i, out) = match best {
                Some((i, out)) => {
                    keys.extend(connecting(i));
                    (i, out)
                }
                None => {
                    let left = (0..factors.len()).filter(|&i| joined[i] == State::Left);
                    let Some(i) = left.min_by(smallest) else { break };
                    (i, est * factors[i].rows)
                }
            };
            let join = match keys[..] {
                [] => Join::Cross,
                [e] => {
                    let [near, far] = near_far(edges[e], i);
                    if factors[i].scan && index_probe(far.1, est) {
                        Join::Index { edge: e, probe_is_left: true }
                    } else if step == 1
                        && factors[start].scan
                        && index_probe(near.1, factors[i].rows)
                    {
                        Join::Index { edge: e, probe_is_left: false }
                    } else {
                        Join::Hash(keys)
                    }
                }
                _ => Join::Hash(keys),
            };
            state[i] = State::Joined;
            est = out.max(1.0);
            emptied = take(i, Some(join))?;
        }
        Ok(())
    }

    /// The walk's `(rows, cost)` of the joined side, `(rows, cost)` before,
    /// once a step of [`Self::join_order`] joins factor `f` in as `join` says
    /// (`None`: `f` starts). An index join's scan column has an index, or
    /// [`index_probe`] would not have chosen it.
    fn step_price(
        &self,
        factors: &[JoinFactor],
        edges: &[JoinEdge],
        (rows, cost): (f64, f64),
        f: usize,
        join: Option<Join<'_>>,
    ) -> (f64, f64) {
        let side = &factors[f];
        let len = |end: JoinEnd| end.index.map_or(0.0, |(rows, _)| rows);
        match join {
            None => (side.rows, side.cost),
            Some(Join::Cross) => {
                let rows = rows * side.rows;
                (rows, cost + (rows + side.cost))
            }
            Some(Join::Hash(keys)) => {
                let keys = keys.iter().map(|&e| near_far(edges[e], f));
                let rows = hash_join_rows(
                    rows,
                    side.rows,
                    keys.map(|[n, r]| (n.1.distinct, r.1.distinct)),
                );
                (rows, cost + (rows + side.cost))
            }
            Some(Join::Index { edge, probe_is_left: true }) => {
                let [near, far] = near_far(edges[edge], f);
                let (probe, column) = (near.1.distinct, far.1.distinct);
                let rows = index_join_rows(rows, probe, side.rows, column, len(far.1));
                (rows, cost + rows)
            }
            Some(Join::Index { edge, probe_is_left: false }) => {
                let [start, far] = near_far(edges[edge], f);
                let (probe, column) = (far.1.distinct, start.1.distinct);
                let rows = index_join_rows(side.rows, probe, rows, column, len(start.1));
                (rows, rows + side.cost)
            }
        }
    }

    /// What the join search needs of a join column with origin `origin`.
    pub(crate) fn join_end(&self, origin: ColumnOrigin) -> JoinEnd {
        let Some((t, c)) = origin else { return JoinEnd::default() };
        let index_keys = self.index_keys(t, c);
        JoinEnd {
            distinct: self.with_stats(&origin, |s| s.distinct as f64).or(index_keys),
            index: index_keys.map(|_| (self.table_rows(t), self.analyzed(t))),
        }
    }

    /// The post-order walk: estimate the children, derive node `id`'s
    /// triple from theirs, report `(id, rows)` to `visit`.
    ///
    /// The arithmetic — operand order included — is the textbook recursive
    /// formulation's, so estimates are bit-identical to it (the workspace's
    /// `estimator_equivalence` test keeps that reference and checks).
    fn walk(&self, plan: &Plan, id: NodeId, visit: &mut dyn FnMut(NodeId, f64)) -> Estimate {
        let est = self.derive(plan, plan.node(id), visit);
        visit(id, est.rows);
        est
    }

    /// [`Self::walk`]'s step for one node, its children walked in `plan`.
    fn derive(&self, plan: &Plan, node: &Node, visit: &mut dyn FnMut(NodeId, f64)) -> Estimate {
        match node {
            Node::Empty { arity } => {
                Estimate { rows: 0.0, cost: 0.0, origins: vec![None; *arity as usize] }
            }
            Node::Scan { table, filter, columns } => {
                let t = self.table_id(&table.name);
                let len = self.table_rows(t);
                let arity = self.table_arity(t);
                let rows = match filter {
                    Some(f) => len * self.selectivity(plan.expr(*f), Origins::Table(t, arity)),
                    None => len,
                };
                let origins = emitted_origins(t, *columns, arity);
                // Leaves pay for the rows they read, not just those they emit.
                Estimate { rows, cost: len.max(1.0), origins }
            }
            Node::IndexScan { table, column, key, residual, columns } => {
                let t = self.table_id(&table.name);
                let len = self.table_rows(t);
                let arity = self.table_arity(t);
                let origin = Some((t, *column as usize));
                let key = plan.literal(*key);
                let eq = self.stats_eq_value(&origin, key).unwrap_or(if key.is_null() {
                    0.0
                } else {
                    EQ_FALLBACK
                });
                let res = match residual {
                    Some(f) => self.selectivity(plan.expr(*f), Origins::Table(t, arity)),
                    None => 1.0,
                };
                let rows = len * eq * res;
                Estimate { rows, cost: rows.max(1.0), origins: emitted_origins(t, *columns, arity) }
            }
            Node::Filter { input, predicate } => {
                let i = self.walk(plan, *input, visit);
                let sel = self.selectivity(plan.expr(*predicate), Origins::Output(&i.origins));
                let rows = i.rows * sel;
                Estimate { rows, cost: rows + i.cost, origins: i.origins }
            }
            Node::HashJoin { left, right, keys } => {
                let l = self.walk(plan, *left, visit);
                let r = self.walk(plan, *right, visit);
                let (lo, ro) = (Origins::Output(&l.origins), Origins::Output(&r.origins));
                let (left_keys, right_keys) = key_halves(plan.list(*keys));
                let keys = (left_keys.iter().zip(right_keys)).map(|(lk, rk)| {
                    (self.distinct(&lo.get(*lk as usize)), self.distinct(&ro.get(*rk as usize)))
                });
                let rows = hash_join_rows(l.rows, r.rows, keys);
                Estimate {
                    rows,
                    cost: rows + l.cost + r.cost,
                    origins: concat(l.origins, r.origins),
                }
            }
            Node::IndexJoin { probe, probe_key, table, column, filter, probe_is_left, columns } => {
                let p = self.walk(plan, *probe, visit);
                let t = self.table_id(&table.name);
                let len = self.table_rows(t);
                let arity = self.table_arity(t);
                let fsel = match filter {
                    Some(f) => self.selectivity(plan.expr(*f), Origins::Table(t, arity)),
                    None => 1.0,
                };
                let probe_origin = Origins::Output(&p.origins).get(*probe_key as usize);
                let column = self.distinct(&Some((t, *column as usize)));
                let probe = self.distinct(&probe_origin);
                let rows = index_join_rows(p.rows, probe, len * fsel, column, len);
                let fetched = emitted_origins(t, *columns, arity);
                let origins = if *probe_is_left {
                    concat(p.origins, fetched)
                } else {
                    concat(fetched, p.origins)
                };
                Estimate { rows, cost: rows + p.cost, origins }
            }
            Node::CrossJoin { left, right } => {
                let l = self.walk(plan, *left, visit);
                let r = self.walk(plan, *right, visit);
                let rows = l.rows * r.rows;
                Estimate {
                    rows,
                    cost: rows + l.cost + r.cost,
                    origins: concat(l.origins, r.origins),
                }
            }
            Node::Project { input, exprs } => {
                let i = self.walk(plan, *input, visit);
                let origins = plan
                    .list(*exprs)
                    .iter()
                    .map(|&e| passed_through(plan.expr(e), &i.origins))
                    .collect();
                Estimate { rows: i.rows, cost: i.rows + i.cost, origins }
            }
            // For DISTINCT an upper bound: it can only shrink its input.
            Node::Sort { input, .. } | Node::Distinct { input } => {
                let i = self.walk(plan, *input, visit);
                Estimate { rows: i.rows, cost: i.rows + i.cost, origins: i.origins }
            }
            Node::Aggregate { input, group_by, aggs } => {
                let i = self.walk(plan, *input, visit);
                let group_by = plan.list(*group_by);
                let rows = if group_by.is_empty() {
                    1.0 // global aggregate: exactly one row
                } else if i.rows <= 0.0 {
                    0.0
                } else {
                    let mut groups = 1.0f64;
                    for &g in group_by {
                        groups *= match plan.expr(g).kind() {
                            ExprKind::Column(c) => {
                                self.ndv(i.origins.get(c).unwrap_or(&None), i.rows)
                            }
                            _ => i.rows,
                        };
                    }
                    groups.min(i.rows).max(1.0)
                };
                let mut origins: Vec<ColumnOrigin> =
                    group_by.iter().map(|&g| passed_through(plan.expr(g), &i.origins)).collect();
                origins.resize(group_by.len() + aggs.len as usize, None);
                Estimate { rows, cost: rows + i.cost, origins }
            }
            Node::Limit { input, n } => {
                let i = self.walk(plan, *input, visit);
                let rows = i.rows.min(*n as f64);
                Estimate { rows, cost: rows + i.cost, origins: i.origins }
            }
            Node::Union { inputs, .. } => {
                let arms: Vec<Estimate> =
                    plan.list(*inputs).iter().map(|&i| self.walk(plan, i, visit)).collect();
                let rows: f64 = arms.iter().map(|a| a.rows).sum();
                let cost = rows + arms.iter().map(|a| a.cost).sum::<f64>();
                let arity = arms.first().map_or(0, |a| a.origins.len());
                Estimate { rows, cost, origins: vec![None; arity] }
            }
            Node::TopK { base, probes, visible, rank, .. } => {
                let b = self.walk(plan, *base, visit);
                let probes = plan.probes(*probes);
                let visible = *visible as usize;
                // Base + every witness sub-plan, plus one probe pass over
                // the grouped rows per preference (the early-termination
                // upper bound: pruning only makes it cheaper).
                let witness_cost: f64 = probes
                    .iter()
                    .map(|p| match &p.source {
                        TopKProbeSource::Literal(_) => 0.0,
                        TopKProbeSource::Witness(w) => self.walk(plan, *w, visit).cost,
                    })
                    .sum();
                let cost = b.cost + witness_cost + b.rows * probes.len() as f64;
                // Output cardinality ≈ distinct visible prefixes of the
                // base (the operator groups by them).
                let rows = if b.rows <= 0.0 {
                    0.0
                } else {
                    let mut groups = 1.0f64;
                    for i in 0..visible {
                        groups *= self.ndv(b.origins.get(i).unwrap_or(&None), b.rows);
                    }
                    groups.min(b.rows).max(1.0)
                };
                let mut origins = b.origins;
                origins.resize(visible, None);
                if *rank {
                    // The synthesized interest column has no base origin.
                    origins.push(None);
                }
                Estimate { rows, cost, origins }
            }
        }
    }

    /// Estimated selectivity (in `[0, 1]`) of a bound predicate over rows
    /// whose columns originate as described by `origins`.
    fn selectivity(&self, e: Expr<'_>, origins: Origins<'_>) -> f64 {
        let s = match e.kind() {
            ExprKind::Literal(v) => match v {
                Value::Bool(true) => 1.0,
                _ => 0.0, // FALSE or NULL predicate keeps nothing
            },
            // A bare boolean column as a predicate.
            ExprKind::Column(_) => DEFAULT_FALLBACK,
            ExprKind::Not(inner) => 1.0 - self.selectivity(inner, origins),
            ExprKind::IsNull { expr, negated } => {
                let s = match expr.kind() {
                    ExprKind::Column(i) => {
                        self.null_fraction(&origins.get(i)).unwrap_or(IS_NULL_FALLBACK)
                    }
                    _ => IS_NULL_FALLBACK,
                };
                if negated {
                    1.0 - s
                } else {
                    s
                }
            }
            ExprKind::InList { expr, list, negated } => {
                let s: f64 = list
                    .iter()
                    .map(|&item| self.stats_eq(expr, e.at(item), origins).unwrap_or(EQ_FALLBACK))
                    .sum();
                let s = s.min(1.0);
                if negated {
                    1.0 - s
                } else {
                    s
                }
            }
            ExprKind::Binary { left, op, right } => match op {
                BinaryOp::And => self.selectivity(left, origins) * self.selectivity(right, origins),
                BinaryOp::Or => {
                    let a = self.selectivity(left, origins);
                    let b = self.selectivity(right, origins);
                    a + b - a * b
                }
                BinaryOp::Eq => self.stats_eq(left, right, origins).unwrap_or_else(|| {
                    if is_col_lit(left, right) {
                        EQ_FALLBACK
                    } else {
                        DEFAULT_FALLBACK
                    }
                }),
                BinaryOp::NotEq => {
                    // Stats give `1 − eq`; without them keep the historical
                    // flat guess rather than an optimistic complement.
                    self.stats_eq(left, right, origins).map(|s| 1.0 - s).unwrap_or(DEFAULT_FALLBACK)
                }
                BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                    self.stats_range(left, op, right, origins).unwrap_or(DEFAULT_FALLBACK)
                }
                // Arithmetic in predicate position (shouldn't type-check as
                // a predicate, but stay defensive).
                _ => DEFAULT_FALLBACK,
            },
        };
        s.clamp(0.0, 1.0)
    }

    /// Estimated distinct values of a column within a side producing
    /// `side_rows` rows: statistics NDV when available, the hash index's
    /// distinct-key count as a fallback, the side estimate itself otherwise
    /// (the key/foreign-key assumption); always clamped to `[1, side_rows]`.
    fn ndv(&self, origin: &ColumnOrigin, side_rows: f64) -> f64 {
        ndv(self.distinct(origin), side_rows)
    }

    /// Distinct values of the column behind `origin`: its statistics' NDV,
    /// else its hash index's distinct keys, else unknown.
    fn distinct(&self, origin: &ColumnOrigin) -> Option<f64> {
        (self.with_stats(origin, |c| c.distinct as f64))
            .or_else(|| origin.and_then(|(t, c)| self.index_keys(t, c)))
    }

    /// Statistics-backed equality selectivity, `None` when stats can't help.
    fn stats_eq(&self, a: Expr<'_>, b: Expr<'_>, origins: Origins<'_>) -> Option<f64> {
        match (a.kind(), b.kind()) {
            (ExprKind::Column(i), ExprKind::Literal(v))
            | (ExprKind::Literal(v), ExprKind::Column(i)) => {
                self.stats_eq_value(&origins.get(i), v)
            }
            // col = col within one row set: 1/max NDV, only when both sides
            // have real statistics.
            (ExprKind::Column(i), ExprKind::Column(j)) => {
                let ni = self.stats_ndv(&origins.get(i))?;
                let nj = self.stats_ndv(&origins.get(j))?;
                Some(1.0 / ni.max(nj).max(1.0))
            }
            _ => None,
        }
    }

    /// Equality selectivity of `origin = v` from statistics alone.
    fn stats_eq_value(&self, origin: &ColumnOrigin, v: &Value) -> Option<f64> {
        self.with_stats(origin, |c| c.eq_selectivity(v))
    }

    /// Statistics-backed range selectivity, `None` when stats can't help.
    fn stats_range(
        &self,
        a: Expr<'_>,
        op: BinaryOp,
        b: Expr<'_>,
        origins: Origins<'_>,
    ) -> Option<f64> {
        // Normalize to column-on-the-left; flipping sides flips the operator.
        let (i, v, op) = match (a.kind(), b.kind()) {
            (ExprKind::Column(i), ExprKind::Literal(v)) => (i, v, op),
            (ExprKind::Literal(v), ExprKind::Column(i)) => {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => other,
                };
                (i, v, flipped)
            }
            _ => return None,
        };
        self.with_stats(&origins.get(i), |c| match op {
            BinaryOp::Lt => Some(c.lt_selectivity(v, false)),
            BinaryOp::LtEq => Some(c.lt_selectivity(v, true)),
            BinaryOp::Gt => Some(c.gt_selectivity(v, false)),
            BinaryOp::GtEq => Some(c.gt_selectivity(v, true)),
            _ => None,
        })?
    }

    fn stats_ndv(&self, origin: &ColumnOrigin) -> Option<f64> {
        self.with_stats(origin, |c| c.distinct.max(1) as f64)
    }

    fn null_fraction(&self, origin: &ColumnOrigin) -> Option<f64> {
        self.with_stats(origin, |c| c.null_fraction())
    }

    /// `f` of the `ANALYZE` statistics of the column behind `origin`, when
    /// there is one and its table was analyzed.
    fn with_stats<R>(&self, origin: &ColumnOrigin, f: impl FnOnce(&ColumnStats) -> R) -> Option<R> {
        let (t, col) = origin.as_ref()?;
        let tables = self.tables.borrow();
        Some(f(tables[*t].stats.as_ref()?.column(*col)?))
    }

    /// The id of a table by (case-insensitive) name, reading its facts from
    /// the catalog on first sight. Unknown names get an id too, carrying
    /// [`UNKNOWN_TABLE_ROWS`] and nothing else.
    fn table_id(&self, name: &str) -> TableId {
        let mut tables = self.tables.borrow_mut();
        if let Some(t) = tables.iter().position(|f| f.name.eq_ignore_ascii_case(name)) {
            return t;
        }
        tables.push(match self.catalog.table(name) {
            Ok(table) => {
                let t = table.read();
                let stats = t.stats();
                // The stats snapshot when analyzed (the numbers the rest of
                // estimation is consistent with), live length otherwise.
                let rows = stats.as_ref().map(|s| s.rows as f64).unwrap_or_else(|| t.len() as f64);
                let columns: Vec<Arc<str>> =
                    t.schema().columns.iter().map(|c| c.name.clone()).collect();
                let index_keys = (columns.iter())
                    .map(|c| t.index_on(c).map(|idx| idx.distinct_keys() as f64))
                    .collect();
                TableFacts { name: t.schema().name.clone(), rows, stats, columns, index_keys }
            }
            Err(_) => TableFacts {
                name: Arc::from(name),
                rows: UNKNOWN_TABLE_ROWS,
                stats: None,
                columns: Vec::new(),
                index_keys: Vec::new(),
            },
        });
        tables.len() - 1
    }

    fn table_rows(&self, t: TableId) -> f64 {
        self.tables.borrow()[t].rows
    }

    fn table_arity(&self, t: TableId) -> usize {
        self.tables.borrow()[t].columns.len()
    }

    fn column_index(&self, t: TableId, column: &str) -> Option<usize> {
        self.tables.borrow()[t].columns.iter().position(|c| c.eq_ignore_ascii_case(column))
    }

    /// Whether column `c` of table `t` has a hash index.
    fn indexed(&self, t: TableId, c: usize) -> bool {
        self.index_keys(t, c).is_some()
    }

    /// The distinct keys of the hash index on column `c` of table `t`, if
    /// it has one.
    fn index_keys(&self, t: TableId, c: usize) -> Option<f64> {
        self.tables.borrow()[t].index_keys.get(c).copied().flatten()
    }

    fn analyzed(&self, t: TableId) -> bool {
        self.tables.borrow()[t].stats.is_some()
    }
}

/// [`Estimator::ndv`] of a column with `distinct` values in a side of
/// `side_rows` rows: clamped to `[1, side_rows]`, the side's rows when unknown.
fn ndv(distinct: Option<f64>, side_rows: f64) -> f64 {
    let cap = side_rows.max(1.0);
    distinct.map_or(cap, |d| d.clamp(1.0, cap))
}

/// Rows out of an equi-join of `left_rows` and `right_rows` rows along key
/// columns with the given distinct values: `|L|·|R| / Π max(ndv_L, ndv_R)`.
fn hash_join_rows(
    left_rows: f64,
    right_rows: f64,
    keys: impl Iterator<Item = (Option<f64>, Option<f64>)>,
) -> f64 {
    let mut denom = 1.0f64;
    for (l, r) in keys {
        denom *= ndv(l, left_rows).max(ndv(r, right_rows)).max(1.0);
    }
    left_rows * right_rows / denom
}

/// Rows out of an index join: `probe_rows` rows, keyed by a column of
/// `probe` distinct values, probing a table of `table_rows` rows on a column
/// of `column` distinct values, of which the scan's filter keeps `kept`.
fn index_join_rows(
    probe_rows: f64,
    probe: Option<f64>,
    kept: f64,
    column: Option<f64>,
    table_rows: f64,
) -> f64 {
    let np = ndv(probe, probe_rows);
    let nt = ndv(column, table_rows);
    probe_rows * kept / np.max(nt).max(1.0)
}

/// Whether an index join may read the bare scan whose join column is `end`
/// with `probe_est` probe rows: the column has a hash index and, on an
/// analyzed table, the probe side holds to [`INDEX_JOIN_RATIO`].
fn index_probe(end: JoinEnd, probe_est: f64) -> bool {
    end.index
        .is_some_and(|(rows, analyzed)| !analyzed || probe_est * INDEX_JOIN_RATIO as f64 <= rows)
}

/// The column positions a predicate reads, mapped to where they come from.
#[derive(Clone, Copy)]
enum Origins<'o> {
    /// A plan node's output columns.
    Output(&'o [ColumnOrigin]),
    /// Every column of table `t`, of the given arity, by position: what a
    /// base-table access path's own filter reads.
    Table(TableId, usize),
}

impl Origins<'_> {
    fn get(self, i: usize) -> ColumnOrigin {
        match self {
            Origins::Output(origins) => origins.get(i).copied().flatten(),
            Origins::Table(t, arity) => (i < arity).then_some((t, i)),
        }
    }
}

/// Origins of the `columns` an access path of table `t` emits.
fn emitted_origins(t: TableId, columns: ColumnSet, arity: usize) -> Vec<ColumnOrigin> {
    let mut origins = Vec::with_capacity(columns.len(arity));
    origins.extend(columns.iter(arity).map(|c| Some((t, c))));
    origins
}

fn concat(mut left: Vec<ColumnOrigin>, right: Vec<ColumnOrigin>) -> Vec<ColumnOrigin> {
    left.extend(right);
    left
}

/// The origin an output expression inherits: a bare column reference keeps
/// its input column's, anything computed has none.
fn passed_through(e: Expr<'_>, input: &[ColumnOrigin]) -> ColumnOrigin {
    match e.kind() {
        ExprKind::Column(i) => input.get(i).copied().flatten(),
        _ => None,
    }
}

fn is_col_lit(a: Expr<'_>, b: Expr<'_>) -> bool {
    matches!(
        (a.kind(), b.kind()),
        (ExprKind::Column(_), ExprKind::Literal(_)) | (ExprKind::Literal(_), ExprKind::Column(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_storage::{ColumnDef, DataType, TableSchema};

    /// A table of integer columns holding `rows`.
    fn add_table(c: &mut Catalog, name: &str, columns: &[&str], rows: Vec<Vec<Value>>) {
        let defs = columns.iter().map(|col| ColumnDef::new(*col, DataType::Int)).collect();
        c.create_table(TableSchema::new(name, defs)).unwrap();
        let t = c.table(name).unwrap();
        let mut t = t.write();
        for row in rows {
            t.insert(row).unwrap();
        }
    }

    fn keys(n: i64, of: i64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int(i % of)]).collect()
    }

    /// The chain `T(40) – P(3 360) – M(400) – G(1 000)`, keyed to-many
    /// from `T` to `P` and from `M` to `G`.
    fn chain(analyzed: bool) -> Catalog {
        let mut c = Catalog::new();
        add_table(&mut c, "T", &["id"], keys(40, 40));
        let plays = (0..3360).map(|i| vec![Value::Int(i % 40), Value::Int(i % 400)]).collect();
        add_table(&mut c, "P", &["t_id", "m_id"], plays);
        add_table(&mut c, "M", &["id"], keys(400, 400));
        add_table(&mut c, "G", &["m_id"], keys(1000, 400));
        if analyzed {
            c.analyze_all().unwrap();
        }
        c
    }

    /// `(rows, cost)` bits of the un-analyzed, indexed chain's price at
    /// `G` keeping 1, 0.1 and 0.001, as recorded before the estimator
    /// cached index key counts.
    const CHAIN_PRICE_BITS: [(u64, u64); 3] = [
        (0x40c0_6800_0000_0000, 0x40cd_9c00_0000_0000),
        (0x408a_4000_0000_0000, 0x40bd_b000_0000_0000),
        (0x4020_cccc_cccc_cccd, 0x408f_ce66_6666_6666),
    ];

    const CHAIN_EDGES: [PricedEdge<'static>; 3] =
        [((0, "id"), (1, "t_id")), ((1, "m_id"), (2, "id")), ((2, "id"), (3, "m_id"))];

    /// The chain's factors, with a filter on `G` that keeps `kept` of it.
    fn chain_factors(kept: f64) -> [PricedFactor<'static>; 4] {
        let factor = |table, selectivity| PricedFactor { table, selectivity, index_scan: false };
        [factor("T", 1.0), factor("P", 1.0), factor("M", 1.0), factor("G", kept)]
    }

    /// The start [`Estimator::join_order`] picks, and how often it called
    /// `take`.
    fn start_and_takes(
        est: &Estimator<'_>,
        sides: &[JoinFactor],
        ends: &[JoinEdge],
    ) -> (usize, usize) {
        let mut taken = Vec::new();
        let Ok(()) = est.join_order(sides, ends, |f, _| -> Result<bool, Infallible> {
            taken.push(f);
            Ok(false)
        });
        (taken[0], taken.len())
    }

    fn scores(est: &Estimator<'_>, sides: &[JoinFactor], ends: &[JoinEdge]) -> Vec<f64> {
        let (mut state, mut keys) = (vec![State::Left; sides.len()], Vec::new());
        let mut score = |s| est.score(sides, ends, s, f64::INFINITY, &mut state, &mut keys);
        (0..sides.len()).map(|s| score(s).unwrap()).collect()
    }

    #[test]
    fn the_chosen_start_scores_no_more_than_any_other() {
        let catalog = chain(true);
        let est = Estimator::new(&catalog);
        for kept in [1.0, 0.5, 0.107, 0.01, 0.001] {
            let (sides, ends) = est.priced_sides(&chain_factors(kept), &CHAIN_EDGES);
            let scores = scores(&est, &sides, &ends);
            let (start, _) = start_and_takes(&est, &sides, &ends);
            for (s, score) in scores.iter().enumerate() {
                assert!(
                    scores[start] <= score * (1.0 + START_TIE),
                    "G keeps {kept}: start {start} scores {} > start {s}'s {score}",
                    scores[start]
                );
            }
        }
    }

    #[test]
    fn a_tie_keeps_the_start_with_fewer_rows() {
        // A(20) ⋈ B(10) hashed either way: both starts score 10 + 20 + out,
        // so B starts, whichever position it holds.
        let mut catalog = Catalog::new();
        add_table(&mut catalog, "A", &["id"], keys(20, 20));
        add_table(&mut catalog, "B", &["a_id"], (0..10).map(|i| vec![Value::Int(i * 2)]).collect());
        catalog.analyze_all().unwrap();
        let est = Estimator::new(&catalog);
        let factor = |table| PricedFactor { table, selectivity: 1.0, index_scan: false };
        for (factors, edges, fewer) in [
            ([factor("A"), factor("B")], [((0, "id"), (1, "a_id"))], 1),
            ([factor("B"), factor("A")], [((1, "id"), (0, "a_id"))], 0),
        ] {
            let (sides, ends) = est.priced_sides(&factors, &edges);
            let scores = scores(&est, &sides, &ends);
            assert!((scores[0] - scores[1]).abs() <= scores[0] * START_TIE, "{scores:?}");
            assert_eq!(start_and_takes(&est, &sides, &ends).0, fewer);
        }
    }

    #[test]
    fn unanalyzed_chain_prices_keep_their_bits() {
        // Un-analyzed, every join key's distinct values come from the hash
        // index on its column: the estimator reads each index's key count
        // once per table, and the chain's prices must keep their bits.
        let catalog = chain(false);
        for (table, column) in
            [("T", "id"), ("P", "t_id"), ("P", "m_id"), ("M", "id"), ("G", "m_id")]
        {
            catalog.table(table).unwrap().write().create_index(column).unwrap();
        }
        let est = Estimator::new(&catalog);
        let bits = [1.0, 0.1, 0.001].map(|kept| {
            let (rows, cost) = est.price_join(&chain_factors(kept), &CHAIN_EDGES);
            (rows.to_bits(), cost.to_bits())
        });
        assert_eq!(bits, CHAIN_PRICE_BITS);
    }

    #[test]
    fn scoring_the_starts_calls_take_zero_times() {
        for analyzed in [true, false] {
            let catalog = chain(analyzed);
            let est = Estimator::new(&catalog);
            let (sides, ends) = est.priced_sides(&chain_factors(0.1), &CHAIN_EDGES);
            assert_eq!(sides.iter().all(|s| s.analyzed), analyzed);
            // One call per factor: the replay of the chosen order alone.
            let (start, takes) = start_and_takes(&est, &sides, &ends);
            assert_eq!(takes, 4, "analyzed={analyzed}");
            // Without statistics the fewest-rows factor, T, starts.
            assert_eq!(start, if analyzed { 3 } else { 0 }, "analyzed={analyzed}");
        }
    }
}
