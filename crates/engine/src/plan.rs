//! The (physical) query plan produced by the planner and consumed by the
//! executor.
//!
//! A [`Plan`] is one array of compact [`Node`]s in post-order: a node's
//! children come before it and are referenced by index, and the root is
//! [`Plan::root`]. Expressions live in one pool of flat
//! [`ExprNode`]s, and the lists some nodes carry
//! (a projection's expressions, a union's inputs, a join's keys) in one pool
//! of `u32`s, so a plan is a handful of allocations however many nodes it
//! has — which is what a plan cache pins per entry.
//!
//! Nodes carry no output schema. The planner keeps binding scopes on its
//! own stack while it plans; a plan keeps only its root's column names,
//! for the result set. An access path names its table by the table's own
//! shared [`TableSchema`], so EXPLAIN reads the names of the columns it
//! emits from there.
//!
//! ## Shared subtrees
//!
//! The planner stores equal subtrees once (it looks every node up before it
//! adds one), so a subtree that occurs in several places — the joins MQ's
//! partial queries repeat, the base query a native rank plan's witnesses
//! repeat — is one run of the array with several parents. A `Scan`,
//! `IndexScan`, `HashJoin` or `IndexJoin` that the plan, read from the
//! root, reaches more than once is a *shared subtree*: the executor runs it
//! once per execution and every later read reuses its rows, and EXPLAIN
//! prints it once, as `Shared #n`, and as `Shared #n (reused)` after that.
//! The plan is read as a DAG: a shared node's subtree is read at its first
//! reference only, so a `Scan` that occurs only inside the copies of one
//! shared join is read once, through that join, and is not shared itself.
//! A repeated node of any other kind runs at each reference. Slots number
//! the shared subtrees in pre-order of their first reference, from 0.

use crate::aggregate::AggCall;
use crate::bound::{BoundExpr, Expr, ExprId, ExprNode};
use crate::types::SchemaRef;
use pqp_storage::{ColumnSet, TableSchema, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A node's position in its plan's node array.
pub type NodeId = u32;

/// A run of a plan's list pool: `len` entries from `start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Span {
    pub start: u32,
    pub len: u32,
}

/// One plan node. Plans are produced fully bound: every expression
/// references input columns by position.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Produces no rows of `arity` columns (e.g. `WHERE FALSE`, or a scan
    /// of a provably empty branch).
    Empty { arity: u32 },
    /// Full scan of a base table, with an optional pushed-down filter.
    /// Always reads every row: index access is [`Node::IndexScan`].
    ///
    /// Like the other two base-table access paths it emits only `columns`,
    /// the table columns some operator above reads (every one under
    /// `SELECT *`), in table order. Its filter reads the stored row: it is
    /// bound to table positions.
    Scan { table: Arc<TableSchema>, filter: Option<ExprId>, columns: ColumnSet },
    /// Index point lookup on a base table: the rows where column `column`
    /// (a table position) equals the literal `key` (fetched through the
    /// table's hash index), then filtered by the remaining pushed-down
    /// conjuncts (bound to table positions). Chosen at plan time when a
    /// pushed-down equality conjunct hits a `HashIndex`; the executor falls
    /// back to a full scan if the index is missing at runtime.
    IndexScan {
        table: Arc<TableSchema>,
        column: u32,
        key: ExprId,
        residual: Option<ExprId>,
        columns: ColumnSet,
    },
    /// σ: keep rows whose predicate evaluates to TRUE.
    Filter { input: NodeId, predicate: ExprId },
    /// Equi-join: `left[l[i]] = right[r[i]]` for all i, where `(l, r)` are
    /// [`key_halves`] of the list `keys`: the left key columns, then as many
    /// right ones. Output rows are `left ++ right`. Always a hash join:
    /// probing an index instead is [`Node::IndexJoin`].
    HashJoin { left: NodeId, right: NodeId, keys: Span },
    /// Index nested-loop join chosen at plan time: execute `probe`, then for
    /// each probe row fetch `table` rows whose column `column` (a table
    /// position) equals `probe[probe_key]` through the table's hash index,
    /// applying the pushed-down `filter` (bound to table positions) to
    /// fetched rows, which then contribute their `columns` only. Output
    /// columns are in the engine's fixed `left ++ right` order: probe columns
    /// first when `probe_is_left`, table columns first otherwise. The
    /// executor keeps a size guard and falls back to a hash join when the
    /// probe side turns out large (or the index is gone).
    IndexJoin {
        probe: NodeId,
        probe_key: u32,
        table: Arc<TableSchema>,
        column: u32,
        filter: Option<ExprId>,
        probe_is_left: bool,
        columns: ColumnSet,
    },
    /// Cartesian product (kept for predicates the join planner cannot turn
    /// into equi-joins).
    CrossJoin { left: NodeId, right: NodeId },
    /// π: compute output expressions (the list `exprs` holds their ids).
    Project { input: NodeId, exprs: Span },
    /// γ: hash aggregation. Output rows are group values (the list
    /// `group_by` holds their expressions' ids) followed by aggregate
    /// results ([`Plan::aggs`]). With no group keys, exactly one output row
    /// is produced (even over empty input).
    Aggregate { input: NodeId, group_by: Span, aggs: Span },
    /// δ: duplicate elimination preserving first-seen order.
    Distinct { input: NodeId },
    /// Sort by output column positions ([`Plan::sort_keys`]).
    Sort { input: NodeId, keys: Span },
    /// First-n.
    Limit { input: NodeId, n: u64 },
    /// Concatenation (`all = true`) or set union (`all = false`) of the
    /// nodes the list `inputs` holds.
    Union { inputs: Span, all: bool },
    /// Native rank operator (preference pushdown): evaluate per-preference
    /// satisfaction inside the executor instead of expanding preferences
    /// into a rewrite. `base` produces the visible columns followed by one
    /// probe column per preference; each [`TopKProbe`] ([`Plan::probes`])
    /// tests its probe column (literal equality or membership in a witness
    /// sub-plan's output), satisfaction bits are OR-folded per visible
    /// group, and the group's degree of interest is `1 − ∏(1 − dᵢ)` over the
    /// satisfied preferences. Preference passes run in decreasing-degree
    /// order with group pruning and early termination (see `crate::topk`).
    TopK {
        base: NodeId,
        probes: Span,
        /// How many leading base columns are visible output (the rest are
        /// probe columns, one per probe, in probe order).
        visible: u32,
        matching: TopKMatching,
        /// Append the `interest` column and sort by it (descending, ties by
        /// the visible columns ascending).
        rank: bool,
    },
}

// Equal nodes are equal plans: `TopKMatching`'s degree is never NaN.
impl Eq for Node {}

impl Hash for Node {
    /// The node's kind, children and table: enough to spread a plan's
    /// nodes, equality decides the rest.
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Node::Empty { arity } => arity.hash(h),
            Node::Scan { table, columns, .. } | Node::IndexScan { table, columns, .. } => {
                (&table.name, columns).hash(h)
            }
            Node::IndexJoin { probe, table, .. } => (probe, &table.name).hash(h),
            Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::Aggregate { input, .. }
            | Node::Distinct { input }
            | Node::Sort { input, .. }
            | Node::Limit { input, .. }
            | Node::TopK { base: input, .. } => input.hash(h),
            Node::HashJoin { left, right, .. } | Node::CrossJoin { left, right } => {
                (left, right).hash(h)
            }
            Node::Union { inputs, .. } => inputs.hash(h),
        }
    }
}

impl Node {
    /// Whether the node can be a shared subtree (see the module doc).
    fn shareable(&self) -> bool {
        matches!(
            self,
            Node::Scan { .. }
                | Node::IndexScan { .. }
                | Node::HashJoin { .. }
                | Node::IndexJoin { .. }
        )
    }
}

/// One optional preference carried into a [`Node::TopK`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKProbe {
    /// The preference's degree of interest, in `[0, 1]`.
    pub doi: f64,
    pub source: TopKProbeSource,
}

/// How a [`TopKProbe`]'s probe column is tested.
#[derive(Debug, Clone, PartialEq)]
pub enum TopKProbeSource {
    /// Satisfied when the probe column equals the literal (SQL equality:
    /// NULL never matches).
    Literal(Value),
    /// Satisfied when the probe column is a member of the single-column
    /// output of the witness plan rooted at this node (NULLs on either side
    /// never match).
    Witness(NodeId),
}

/// The match requirement of a [`Node::TopK`] node (mirrors the
/// personalization layer's `MatchSpec` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopKMatching {
    /// Keep groups satisfying at least this many preferences (0 keeps all).
    AtLeast(usize),
    /// Keep groups whose degree of interest exceeds the threshold.
    MinDegree(f64),
}

/// A [`Node::HashJoin`]'s `(left, right)` key columns.
pub fn key_halves(keys: &[u32]) -> (&[u32], &[u32]) {
    keys.split_at(keys.len() / 2)
}

/// A query plan: its nodes in post-order and the pools they index. A
/// plan has at least its root node.
#[derive(Clone)]
pub struct Plan {
    nodes: Vec<Node>,
    root: NodeId,
    exprs: Vec<ExprNode>,
    lists: Vec<u32>,
    aggs: Vec<AggCall>,
    probes: Vec<TopKProbe>,
    /// The root's output column names.
    columns: Box<[Arc<str>]>,
}

/// [`Share::slot`] of a node that is not a shared subtree.
pub(crate) const NOT_SHARED: u32 = u32::MAX;

/// How the plan reads one node (see the module doc).
#[derive(Clone, Copy)]
pub(crate) struct Share {
    /// How many times the plan, read from the root, reads the node.
    pub readers: u32,
    /// The node's slot when it is a shared subtree, [`NOT_SHARED`] otherwise.
    pub slot: u32,
}

impl Plan {
    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node at `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// How many nodes the array holds.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The expression at `id` of the plan's pool.
    pub fn expr(&self, id: ExprId) -> Expr<'_> {
        Expr::new(&self.exprs, id)
    }

    /// The literal value of expression `id` (an index scan's key).
    pub fn literal(&self, id: ExprId) -> &Value {
        match &self.exprs[id as usize] {
            ExprNode::Literal(v) => v,
            _ => &Value::Null,
        }
    }

    /// The entries of a list.
    pub fn list(&self, span: Span) -> &[u32] {
        &self.lists[span.start as usize..(span.start + span.len) as usize]
    }

    /// An [`Node::Aggregate`]'s calls.
    pub fn aggs(&self, span: Span) -> &[AggCall] {
        &self.aggs[span.start as usize..(span.start + span.len) as usize]
    }

    /// A [`Node::TopK`]'s probes.
    pub fn probes(&self, span: Span) -> &[TopKProbe] {
        &self.probes[span.start as usize..(span.start + span.len) as usize]
    }

    /// A [`Node::Sort`]'s keys: output column positions, each ascending or
    /// (`true`) descending.
    pub fn sort_keys(&self, span: Span) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.list(span).iter().map(|&k| ((k >> 1) as usize, k & 1 == 1))
    }

    /// The root's output column names.
    pub fn columns(&self) -> &[Arc<str>] {
        &self.columns
    }

    /// How many columns node `id` outputs.
    pub fn arity(&self, id: NodeId) -> usize {
        match self.node(id) {
            Node::Empty { arity } => *arity as usize,
            Node::Scan { table, columns, .. } | Node::IndexScan { table, columns, .. } => {
                columns.len(table.arity())
            }
            Node::IndexJoin { probe, table, columns, .. } => {
                self.arity(*probe) + columns.len(table.arity())
            }
            Node::HashJoin { left, right, .. } | Node::CrossJoin { left, right } => {
                self.arity(*left) + self.arity(*right)
            }
            Node::Project { exprs, .. } => exprs.len as usize,
            Node::Aggregate { group_by, aggs, .. } => (group_by.len + aggs.len) as usize,
            Node::Filter { input, .. }
            | Node::Distinct { input }
            | Node::Sort { input, .. }
            | Node::Limit { input, .. } => self.arity(*input),
            Node::Union { inputs, .. } => self.list(*inputs).first().map_or(0, |&i| self.arity(i)),
            Node::TopK { visible, rank, .. } => *visible as usize + usize::from(*rank),
        }
    }

    /// Call `f` on each child of node `id`, in the order the executor runs
    /// them: a join's left side before its right, a union's inputs in
    /// order, a rank operator's base before its witness plans.
    pub fn for_each_child(&self, id: NodeId, f: &mut dyn FnMut(NodeId)) {
        match self.node(id) {
            Node::Empty { .. } | Node::Scan { .. } | Node::IndexScan { .. } => {}
            Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::Aggregate { input, .. }
            | Node::Distinct { input }
            | Node::Sort { input, .. }
            | Node::Limit { input, .. } => f(*input),
            Node::HashJoin { left, right, .. } | Node::CrossJoin { left, right } => {
                f(*left);
                f(*right);
            }
            Node::IndexJoin { probe, .. } => f(*probe),
            Node::Union { inputs, .. } => self.list(*inputs).iter().for_each(|&i| f(i)),
            Node::TopK { base, probes, .. } => {
                f(*base);
                for p in self.probes(*probes) {
                    if let TopKProbeSource::Witness(w) = p.source {
                        f(w);
                    }
                }
            }
        }
    }

    /// How the plan reads each node, by node, and how many shared subtrees
    /// it has: one walk from the root counts the reads, entering a
    /// shareable node's subtree at its first read only, and a second walk,
    /// the same way, numbers the shared nodes in pre-order of their first
    /// read.
    pub(crate) fn shares(&self) -> (Vec<Share>, u32) {
        fn count(plan: &Plan, id: NodeId, shares: &mut [Share]) {
            let share = &mut shares[id as usize];
            share.readers += 1;
            if share.readers == 1 || !plan.node(id).shareable() {
                plan.for_each_child(id, &mut |child| count(plan, child, shares));
            }
        }
        fn number(plan: &Plan, id: NodeId, shares: &mut [Share], next: &mut u32) {
            let share = &mut shares[id as usize];
            if share.readers > 1 && plan.node(id).shareable() {
                if share.slot != NOT_SHARED {
                    return;
                }
                share.slot = *next;
                *next += 1;
            }
            plan.for_each_child(id, &mut |child| number(plan, child, shares, next));
        }
        let mut shares = vec![Share { readers: 0, slot: NOT_SHARED }; self.nodes.len()];
        let mut slots = 0;
        count(self, self.root, &mut shares);
        number(self, self.root, &mut shares, &mut slots);
        (shares, slots)
    }

    /// A compact, indented rendering of the plan tree (EXPLAIN-style).
    pub fn explain(&self) -> String {
        self.explain_annotated(&mut |_| None)
    }

    /// Like [`Plan::explain`], but appends ` (annotation)` to every node for
    /// which `annot` returns `Some` — the hook the cost estimator uses to
    /// print `est_rows` without the plan depending on the estimator.
    ///
    /// A shared subtree is printed once, under its first `Shared #n` line;
    /// every later occurrence is the one line `Shared #n (reused)`. Both
    /// lines carry the subtree's annotation.
    pub fn explain_annotated(&self, annot: &mut dyn FnMut(NodeId) -> Option<String>) -> String {
        let mut out = String::new();
        let (shares, slots) = self.shares();
        let mut printed = vec![false; slots as usize];
        self.explain_into(self.root, 0, &mut out, annot, &shares, &mut printed);
        out
    }

    fn explain_into(
        &self,
        id: NodeId,
        depth: usize,
        out: &mut String,
        annot: &mut dyn FnMut(NodeId) -> Option<String>,
        shares: &[Share],
        printed: &mut [bool],
    ) {
        let mut pad = "  ".repeat(depth);
        let suffix = match annot(id) {
            Some(s) => format!(" ({s})"),
            None => String::new(),
        };
        let (slot, mut depth) = (shares[id as usize].slot, depth);
        if slot != NOT_SHARED {
            if std::mem::replace(&mut printed[slot as usize], true) {
                out.push_str(&format!("{pad}Shared #{slot} (reused){suffix}\n"));
                return;
            }
            out.push_str(&format!("{pad}Shared #{slot}{suffix}\n"));
            depth += 1;
            pad.push_str("  ");
        }
        match self.node(id) {
            Node::Empty { .. } => out.push_str(&format!("{pad}Empty{suffix}\n")),
            Node::Scan { table, filter, columns } => {
                out.push_str(&format!(
                    "{pad}Scan {} [{}]{}{suffix}\n",
                    table.name,
                    names(table, *columns),
                    if filter.is_some() { " [filtered]" } else { "" }
                ));
            }
            Node::IndexScan { table, column, key, residual, columns } => {
                out.push_str(&format!(
                    "{pad}IndexScan {}.{}={} [{}]{}{suffix}\n",
                    table.name,
                    table.columns[*column as usize].name,
                    self.literal(*key),
                    names(table, *columns),
                    if residual.is_some() { " [filtered]" } else { "" }
                ));
            }
            Node::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter{suffix}\n"));
                self.explain_into(*input, depth + 1, out, annot, shares, printed);
            }
            Node::HashJoin { left, right, keys } => {
                let (left_keys, right_keys) = key_halves(self.list(*keys));
                out.push_str(&format!("{pad}HashJoin on {left_keys:?}={right_keys:?}{suffix}\n"));
                self.explain_into(*left, depth + 1, out, annot, shares, printed);
                self.explain_into(*right, depth + 1, out, annot, shares, printed);
            }
            Node::IndexJoin { probe, table, column, filter, probe_is_left, columns, .. } => {
                out.push_str(&format!(
                    "{pad}IndexJoin {}.{} [{}]{} [probe={}]{suffix}\n",
                    table.name,
                    table.columns[*column as usize].name,
                    names(table, *columns),
                    if filter.is_some() { " [filtered]" } else { "" },
                    if *probe_is_left { "left" } else { "right" }
                ));
                self.explain_into(*probe, depth + 1, out, annot, shares, printed);
            }
            Node::CrossJoin { left, right } => {
                out.push_str(&format!("{pad}CrossJoin{suffix}\n"));
                self.explain_into(*left, depth + 1, out, annot, shares, printed);
                self.explain_into(*right, depth + 1, out, annot, shares, printed);
            }
            Node::Project { input, exprs } => {
                out.push_str(&format!("{pad}Project [{} exprs]{suffix}\n", exprs.len));
                self.explain_into(*input, depth + 1, out, annot, shares, printed);
            }
            Node::Aggregate { input, group_by, aggs } => {
                out.push_str(&format!(
                    "{pad}Aggregate [{} groups, {} aggs]{suffix}\n",
                    group_by.len, aggs.len
                ));
                self.explain_into(*input, depth + 1, out, annot, shares, printed);
            }
            Node::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct{suffix}\n"));
                self.explain_into(*input, depth + 1, out, annot, shares, printed);
            }
            Node::Sort { input, keys } => {
                let keys: Vec<(usize, bool)> = self.sort_keys(*keys).collect();
                out.push_str(&format!("{pad}Sort by {keys:?}{suffix}\n"));
                self.explain_into(*input, depth + 1, out, annot, shares, printed);
            }
            Node::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}{suffix}\n"));
                self.explain_into(*input, depth + 1, out, annot, shares, printed);
            }
            Node::Union { inputs, all } => {
                out.push_str(&format!(
                    "{pad}Union{} [{} inputs]{suffix}\n",
                    if *all { " All" } else { "" },
                    inputs.len
                ));
                for &i in self.list(*inputs) {
                    self.explain_into(i, depth + 1, out, annot, shares, printed);
                }
            }
            Node::TopK { base, probes, visible, matching, rank } => {
                let match_desc = match matching {
                    TopKMatching::AtLeast(l) => format!("at-least {l}"),
                    TopKMatching::MinDegree(d) => format!("degree > {d}"),
                };
                out.push_str(&format!(
                    "{pad}TopK [{} prefs, visible={visible}, {match_desc}{}]{suffix}\n",
                    probes.len,
                    if *rank { ", ranked" } else { "" },
                ));
                self.explain_into(*base, depth + 1, out, annot, shares, printed);
                let pad2 = "  ".repeat(depth + 1);
                for p in self.probes(*probes) {
                    match &p.source {
                        TopKProbeSource::Literal(v) => {
                            out.push_str(&format!("{pad2}Probe = {v} [doi {}]\n", p.doi));
                        }
                        TopKProbeSource::Witness(w) => {
                            out.push_str(&format!("{pad2}Probe in witness [doi {}]\n", p.doi));
                            self.explain_into(*w, depth + 2, out, annot, shares, printed);
                        }
                    }
                }
            }
        }
    }
}

/// `a, b, c`: the names of the table columns an access path emits.
fn names(table: &TableSchema, columns: ColumnSet) -> String {
    let names: Vec<&str> = columns.iter(table.arity()).map(|c| &*table.columns[c].name).collect();
    names.join(", ")
}

/// The plan as the tree it encodes, each node with its fields and its
/// children in place.
impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Tree(self, self.root).fmt(f)
    }
}

/// One node of a plan, for [`Plan`]'s `Debug`.
struct Tree<'p>(&'p Plan, NodeId);

impl fmt::Debug for Tree<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Tree(plan, id) = *self;
        let tree = |id: &NodeId| Tree(plan, *id);
        let expr = |id: &ExprId| plan.expr(*id);
        let exprs = |span: &Span| plan.list(*span).iter().map(expr).collect::<Vec<_>>();
        match plan.node(id) {
            Node::Empty { arity } => f.debug_struct("Empty").field("arity", arity).finish(),
            Node::Scan { table, filter, columns } => f
                .debug_struct("Scan")
                .field("table", &table.name)
                .field("filter", &filter.as_ref().map(expr))
                .field("columns", columns)
                .finish(),
            Node::IndexScan { table, column, key, residual, columns } => f
                .debug_struct("IndexScan")
                .field("table", &table.name)
                .field("column", &table.columns[*column as usize].name)
                .field("key", plan.literal(*key))
                .field("residual", &residual.as_ref().map(expr))
                .field("columns", columns)
                .finish(),
            Node::Filter { input, predicate } => f
                .debug_struct("Filter")
                .field("input", &tree(input))
                .field("predicate", &expr(predicate))
                .finish(),
            Node::HashJoin { left, right, keys } => f
                .debug_struct("HashJoin")
                .field("left", &tree(left))
                .field("right", &tree(right))
                .field("keys", &plan.list(*keys))
                .finish(),
            Node::IndexJoin { probe, probe_key, table, column, filter, probe_is_left, columns } => {
                f.debug_struct("IndexJoin")
                    .field("probe", &tree(probe))
                    .field("probe_key", probe_key)
                    .field("table", &table.name)
                    .field("column", &table.columns[*column as usize].name)
                    .field("filter", &filter.as_ref().map(expr))
                    .field("probe_is_left", probe_is_left)
                    .field("columns", columns)
                    .finish()
            }
            Node::CrossJoin { left, right } => f
                .debug_struct("CrossJoin")
                .field("left", &tree(left))
                .field("right", &tree(right))
                .finish(),
            Node::Project { input, exprs: list } => f
                .debug_struct("Project")
                .field("input", &tree(input))
                .field("exprs", &exprs(list))
                .finish(),
            Node::Aggregate { input, group_by, aggs } => f
                .debug_struct("Aggregate")
                .field("input", &tree(input))
                .field("group_by", &exprs(group_by))
                .field("aggs", &plan.aggs(*aggs))
                .finish(),
            Node::Distinct { input } => {
                f.debug_struct("Distinct").field("input", &tree(input)).finish()
            }
            Node::Sort { input, keys } => f
                .debug_struct("Sort")
                .field("input", &tree(input))
                .field("keys", &plan.sort_keys(*keys).collect::<Vec<_>>())
                .finish(),
            Node::Limit { input, n } => {
                f.debug_struct("Limit").field("input", &tree(input)).field("n", n).finish()
            }
            Node::Union { inputs, all } => f
                .debug_struct("Union")
                .field("inputs", &plan.list(*inputs).iter().map(tree).collect::<Vec<_>>())
                .field("all", all)
                .finish(),
            Node::TopK { base, probes, visible, matching, rank } => f
                .debug_struct("TopK")
                .field("base", &tree(base))
                .field("probes", &plan.probes(*probes))
                .field("visible", visible)
                .field("matching", matching)
                .field("rank", rank)
                .finish(),
        }
    }
}

/// A plan under construction: the planner adds nodes, children first, and
/// expressions and lists as the nodes need them. With sharing on, a node
/// equal to one already added (with the same output schema, which the
/// builder keeps only to tell such nodes apart) is not added again: its
/// index is returned, so an equal subtree is stored once. Expressions,
/// lists and aggregate calls are stored once whatever the setting.
pub(crate) struct Builder {
    plan: Plan,
    share: bool,
    nodes: HashMap<(Node, usize), NodeId>,
    exprs: HashMap<ExprNode, ExprId>,
    lists: HashMap<Box<[u32]>, Span>,
    aggs: HashMap<Box<[AggCall]>, Span>,
}

impl Builder {
    /// An empty plan; `share` stores equal subtrees once.
    pub fn new(share: bool) -> Builder {
        let plan = Plan {
            nodes: Vec::new(),
            root: 0,
            exprs: Vec::new(),
            lists: Vec::new(),
            aggs: Vec::new(),
            probes: Vec::new(),
            columns: Box::new([]),
        };
        Builder {
            plan,
            share,
            nodes: HashMap::new(),
            exprs: HashMap::new(),
            lists: HashMap::new(),
            aggs: HashMap::new(),
        }
    }

    /// The plan as built so far.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Add `node`, whose output is `schema`; returns its index.
    pub fn push(&mut self, node: Node, schema: &SchemaRef) -> NodeId {
        let nodes = &mut self.plan.nodes;
        let next = nodes.len() as NodeId;
        if !self.share {
            nodes.push(node);
            return next;
        }
        *self.nodes.entry((node, Arc::as_ptr(schema) as usize)).or_insert_with_key(|(node, _)| {
            nodes.push(node.clone());
            next
        })
    }

    /// Add an expression; returns its root's position.
    pub fn expr(&mut self, e: &BoundExpr) -> ExprId {
        let (pool, seen) = (&mut self.plan.exprs, &mut self.exprs);
        e.flatten(&mut |node| {
            *seen.entry(node).or_insert_with_key(|node| {
                pool.push(node.clone());
                pool.len() as ExprId - 1
            })
        })
    }

    /// Add a list.
    pub fn list(&mut self, items: impl IntoIterator<Item = u32>) -> Span {
        let items: Box<[u32]> = items.into_iter().collect();
        let pool = &mut self.plan.lists;
        *self.lists.entry(items).or_insert_with_key(|items| {
            let span = Span { start: pool.len() as u32, len: items.len() as u32 };
            pool.extend_from_slice(items);
            span
        })
    }

    /// Add a list of expressions.
    pub fn exprs(&mut self, exprs: &[BoundExpr]) -> Span {
        let ids: Vec<ExprId> = exprs.iter().map(|e| self.expr(e)).collect();
        self.list(ids)
    }

    /// Add an aggregate's calls.
    pub fn aggs(&mut self, calls: Vec<AggCall>) -> Span {
        let pool = &mut self.plan.aggs;
        *self.aggs.entry(calls.into_boxed_slice()).or_insert_with_key(|calls| {
            let span = Span { start: pool.len() as u32, len: calls.len() as u32 };
            pool.extend_from_slice(calls);
            span
        })
    }

    /// Add a rank operator's probes.
    pub fn probes(&mut self, probes: Vec<TopKProbe>) -> Span {
        let span = Span { start: self.plan.probes.len() as u32, len: probes.len() as u32 };
        self.plan.probes.extend(probes);
        span
    }

    /// The finished plan, rooted at `root`, whose output columns are named
    /// `columns`. Every pool is trimmed to its length: the plan lives as
    /// long as a cache keeps it.
    pub fn finish(self, root: NodeId, columns: Box<[Arc<str>]>) -> Plan {
        let mut plan = self.plan;
        plan.root = root;
        plan.columns = columns;
        plan.nodes.shrink_to_fit();
        plan.exprs.shrink_to_fit();
        plan.lists.shrink_to_fit();
        plan.aggs.shrink_to_fit();
        plan.probes.shrink_to_fit();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_subtrees_share_only_under_one_tuple_variable() {
        use pqp_storage::{Catalog, ColumnDef, DataType};
        let mut catalog = Catalog::new();
        let columns = vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("x", DataType::Int)];
        catalog.create_table(TableSchema::new("A", columns)).unwrap();
        let db = crate::Database::new(catalog);
        let explain = |sql: &str| db.plan(&pqp_sql::parse_query(sql).unwrap()).unwrap().explain();
        let same =
            explain("select A.id from A where A.x < 3 union all select A.id from A where A.x < 3");
        assert!(same.contains("Shared #0 (reused)"), "{same}");
        // The scans are equal nodes, but they bind different tuple
        // variables: their output schemas differ, so each is its own.
        let renamed = explain(
            "select B.id from A B where B.x < 3 union all select C.id from A C where C.x < 3",
        );
        assert!(!renamed.contains("Shared"), "{renamed}");
    }

    #[test]
    fn nodes_and_expression_nodes_stay_compact() {
        assert!(std::mem::size_of::<Node>() <= 40, "{}", std::mem::size_of::<Node>());
        assert!(std::mem::size_of::<ExprNode>() <= 32, "{}", std::mem::size_of::<ExprNode>());
    }
}
