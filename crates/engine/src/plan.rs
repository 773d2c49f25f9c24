//! The (physical) query plan produced by the planner and consumed by the
//! executor.

use crate::aggregate::AggCall;
use crate::bound::BoundExpr;
use crate::types::{OutputColumn, OutputSchema, SchemaRef};
use pqp_storage::{ColumnSet, Value};
use std::sync::Arc;

/// A query plan node. Plans are produced fully bound: every expression
/// references input columns by position.
///
/// Table and column names are the catalog's interned strings and schemas
/// are shared ([`SchemaRef`]), so a plan owns its operator tree and its
/// bound expressions and little else — which is what a plan cache pins.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Produces no rows (e.g. `WHERE FALSE`, or a scan of a provably empty
    /// branch).
    Empty { schema: SchemaRef },
    /// Full scan of a base table, with an optional pushed-down filter.
    /// Always reads every row: index access is [`Plan::IndexScan`].
    ///
    /// Like the other two base-table access paths it emits only `columns`,
    /// the table columns some operator above reads (every one under
    /// `SELECT *`), in table order; `schema` names just those. Its filter
    /// reads the stored row: it is bound to table positions.
    Scan { table: Arc<str>, filter: Option<BoundExpr>, columns: ColumnSet, schema: SchemaRef },
    /// Index point lookup on a base table: the rows where `column = key`
    /// (fetched through the table's hash index), then filtered by the
    /// remaining pushed-down conjuncts (bound to table positions). Chosen at
    /// plan time when a pushed-down equality conjunct hits a `HashIndex`;
    /// the executor falls back to a full scan if the index is missing at
    /// runtime.
    IndexScan {
        table: Arc<str>,
        column: Arc<str>,
        key: Value,
        residual: Option<BoundExpr>,
        columns: ColumnSet,
        schema: SchemaRef,
    },
    /// σ: keep rows whose predicate evaluates to TRUE.
    Filter { input: Box<Plan>, predicate: BoundExpr },
    /// Equi-join: `left[l[i]] = right[r[i]]` for all i, where `(l, r)` are
    /// [`key_halves`] of `keys`: the left key columns, then as many right
    /// ones, in one allocation. Output rows are `left ++ right`. Always a
    /// hash join: probing an index instead is [`Plan::IndexJoin`].
    HashJoin { left: Box<Plan>, right: Box<Plan>, keys: Box<[usize]>, schema: SchemaRef },
    /// Index nested-loop join chosen at plan time: execute `probe`, then for
    /// each probe row fetch `table` rows with `column = probe[probe_key]`
    /// through the table's hash index, applying the pushed-down `filter`
    /// (bound to table positions) to fetched rows, which then contribute
    /// their `columns` only. Output columns are in the engine's fixed `left
    /// ++ right` order: probe columns first when `probe_is_left`, table
    /// columns first otherwise. The executor keeps a size guard and falls
    /// back to a hash join when the probe side turns out large (or the index
    /// is gone).
    IndexJoin {
        probe: Box<Plan>,
        probe_key: usize,
        table: Arc<str>,
        column: Arc<str>,
        filter: Option<BoundExpr>,
        probe_is_left: bool,
        columns: ColumnSet,
        schema: SchemaRef,
    },
    /// Cartesian product (kept for predicates the join planner cannot turn
    /// into equi-joins).
    CrossJoin { left: Box<Plan>, right: Box<Plan>, schema: SchemaRef },
    /// π: compute output expressions.
    Project { input: Box<Plan>, exprs: Vec<BoundExpr>, schema: SchemaRef },
    /// γ: hash aggregation. Output rows are group values followed by
    /// aggregate results. With no group keys, exactly one output row is
    /// produced (even over empty input).
    Aggregate { input: Box<Plan>, group_by: Vec<BoundExpr>, aggs: Vec<AggCall>, schema: SchemaRef },
    /// δ: duplicate elimination preserving first-seen order.
    Distinct { input: Box<Plan> },
    /// Sort by output column positions.
    Sort { input: Box<Plan>, keys: Vec<(usize, bool)> },
    /// First-n.
    Limit { input: Box<Plan>, n: u64 },
    /// Concatenation (`all = true`) or set union (`all = false`).
    Union { inputs: Vec<Plan>, all: bool, schema: SchemaRef },
    /// Native rank operator (preference pushdown): evaluate per-preference
    /// satisfaction inside the executor instead of expanding preferences
    /// into a rewrite. `base` produces the visible columns followed by one
    /// probe column per preference; each [`TopKProbe`] tests its probe
    /// column (literal equality or membership in a witness sub-plan's
    /// output), satisfaction bits are OR-folded per visible group, and the
    /// group's degree of interest is `1 − ∏(1 − dᵢ)` over the satisfied
    /// preferences. Preference passes run in decreasing-degree order with
    /// threshold-style early termination (see `crate::topk`).
    TopK {
        base: Box<Plan>,
        probes: Vec<TopKProbe>,
        /// How many leading base columns are visible output (the rest are
        /// probe columns, one per probe, in probe order).
        visible: usize,
        matching: TopKMatching,
        /// Append the `interest` column and sort by it (descending, ties by
        /// the visible columns ascending).
        rank: bool,
        limit: Option<u64>,
        schema: SchemaRef,
    },
    /// A subtree that occurs more than once in one plan (a `Scan`,
    /// `IndexScan`, `HashJoin` or `IndexJoin`; MQ's partial queries repeat
    /// the base query's joins). Every occurrence holds the same `input`, so
    /// a plan stores the subtree once, and the executor runs it once per
    /// execution: the first reader fills `slot`, later readers read its
    /// rows in place. Built by `crate::share` after planning; `slot`
    /// numbers the shared subtrees of one plan in pre-order from 0.
    Shared { slot: usize, input: Arc<Plan> },
}

/// One optional preference carried into a [`Plan::TopK`] node.
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
    /// Satisfied when the probe column is a member of the witness plan's
    /// single-column output (NULLs on either side never match).
    Witness(Box<Plan>),
}

/// The match requirement of a [`Plan::TopK`] node (mirrors the
/// personalization layer's `MatchSpec` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopKMatching {
    /// Keep groups satisfying at least this many preferences (0 keeps all).
    AtLeast(usize),
    /// Keep groups whose degree of interest exceeds the threshold.
    MinDegree(f64),
}

/// A [`Plan::HashJoin`]'s `(left, right)` key columns.
pub fn key_halves(keys: &[usize]) -> (&[usize], &[usize]) {
    keys.split_at(keys.len() / 2)
}

impl Plan {
    /// The output schema of this node.
    pub fn schema(&self) -> &OutputSchema {
        self.schema_ref()
    }

    /// The shared handle to this node's output schema (cloning it is a
    /// reference-count increment).
    pub fn schema_ref(&self) -> &SchemaRef {
        match self {
            Plan::Empty { schema }
            | Plan::Scan { schema, .. }
            | Plan::IndexScan { schema, .. }
            | Plan::HashJoin { schema, .. }
            | Plan::IndexJoin { schema, .. }
            | Plan::CrossJoin { schema, .. }
            | Plan::Project { schema, .. }
            | Plan::Aggregate { schema, .. }
            | Plan::Union { schema, .. }
            | Plan::TopK { schema, .. } => schema,
            Plan::Filter { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.schema_ref(),
            Plan::Shared { input, .. } => input.schema_ref(),
        }
    }

    /// Call `f` on each child of this node, in the order the executor runs
    /// them: a join's left side before its right, a union's inputs in
    /// order, a rank operator's base before its witness plans. A shared
    /// node's child is its input.
    pub fn for_each_child<'p>(&'p self, f: &mut dyn FnMut(&'p Plan)) {
        match self {
            Plan::Empty { .. } | Plan::Scan { .. } | Plan::IndexScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => f(input),
            Plan::HashJoin { left, right, .. } | Plan::CrossJoin { left, right, .. } => {
                f(left);
                f(right);
            }
            Plan::IndexJoin { probe, .. } => f(probe),
            Plan::Union { inputs, .. } => inputs.iter().for_each(f),
            Plan::TopK { base, probes, .. } => {
                f(base);
                for p in probes {
                    if let TopKProbeSource::Witness(w) = &p.source {
                        f(w);
                    }
                }
            }
            Plan::Shared { input, .. } => f(input),
        }
    }

    /// [`Plan::for_each_child`] with mutable access, except that a shared
    /// node's input, which other nodes also hold, is not visited.
    pub fn for_each_child_mut(&mut self, f: &mut dyn FnMut(&mut Plan)) {
        match self {
            Plan::Empty { .. } | Plan::Scan { .. } | Plan::IndexScan { .. } => {}
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => f(input),
            Plan::HashJoin { left, right, .. } | Plan::CrossJoin { left, right, .. } => {
                f(left);
                f(right);
            }
            Plan::IndexJoin { probe, .. } => f(probe),
            Plan::Union { inputs, .. } => inputs.iter_mut().for_each(f),
            Plan::TopK { base, probes, .. } => {
                f(base);
                for p in probes {
                    if let TopKProbeSource::Witness(w) = &mut p.source {
                        f(w);
                    }
                }
            }
            Plan::Shared { .. } => {}
        }
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
    /// every later occurrence is the one line `Shared #n (reused)`.
    pub fn explain_annotated(&self, annot: &mut dyn FnMut(&Plan) -> Option<String>) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out, annot, &mut Vec::new());
        out
    }

    fn explain_into(
        &self,
        depth: usize,
        out: &mut String,
        annot: &mut dyn FnMut(&Plan) -> Option<String>,
        printed: &mut Vec<usize>,
    ) {
        let pad = "  ".repeat(depth);
        let suffix = match annot(self) {
            Some(s) => format!(" ({s})"),
            None => String::new(),
        };
        match self {
            Plan::Empty { .. } => out.push_str(&format!("{pad}Empty{suffix}\n")),
            Plan::Scan { table, filter, schema, .. } => {
                out.push_str(&format!(
                    "{pad}Scan {table} [{}]{}{suffix}\n",
                    names(&schema.columns),
                    if filter.is_some() { " [filtered]" } else { "" }
                ));
            }
            Plan::IndexScan { table, column, key, residual, schema, .. } => {
                out.push_str(&format!(
                    "{pad}IndexScan {table}.{column}={key} [{}]{}{suffix}\n",
                    names(&schema.columns),
                    if residual.is_some() { " [filtered]" } else { "" }
                ));
            }
            Plan::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter{suffix}\n"));
                input.explain_into(depth + 1, out, annot, printed);
            }
            Plan::HashJoin { left, right, keys, .. } => {
                let (left_keys, right_keys) = key_halves(keys);
                out.push_str(&format!("{pad}HashJoin on {left_keys:?}={right_keys:?}{suffix}\n"));
                left.explain_into(depth + 1, out, annot, printed);
                right.explain_into(depth + 1, out, annot, printed);
            }
            Plan::IndexJoin { probe, table, column, filter, probe_is_left, schema, .. } => {
                // The fetched columns follow the probe's, or precede them.
                let probed = probe.schema().arity().min(schema.arity());
                let fetched = if *probe_is_left {
                    &schema.columns[probed..]
                } else {
                    &schema.columns[..schema.arity() - probed]
                };
                out.push_str(&format!(
                    "{pad}IndexJoin {table}.{column} [{}]{} [probe={}]{suffix}\n",
                    names(fetched),
                    if filter.is_some() { " [filtered]" } else { "" },
                    if *probe_is_left { "left" } else { "right" }
                ));
                probe.explain_into(depth + 1, out, annot, printed);
            }
            Plan::CrossJoin { left, right, .. } => {
                out.push_str(&format!("{pad}CrossJoin{suffix}\n"));
                left.explain_into(depth + 1, out, annot, printed);
                right.explain_into(depth + 1, out, annot, printed);
            }
            Plan::Project { input, exprs, .. } => {
                out.push_str(&format!("{pad}Project [{} exprs]{suffix}\n", exprs.len()));
                input.explain_into(depth + 1, out, annot, printed);
            }
            Plan::Aggregate { input, group_by, aggs, .. } => {
                out.push_str(&format!(
                    "{pad}Aggregate [{} groups, {} aggs]{suffix}\n",
                    group_by.len(),
                    aggs.len()
                ));
                input.explain_into(depth + 1, out, annot, printed);
            }
            Plan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct{suffix}\n"));
                input.explain_into(depth + 1, out, annot, printed);
            }
            Plan::Sort { input, keys } => {
                out.push_str(&format!("{pad}Sort by {keys:?}{suffix}\n"));
                input.explain_into(depth + 1, out, annot, printed);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}{suffix}\n"));
                input.explain_into(depth + 1, out, annot, printed);
            }
            Plan::Union { inputs, all, .. } => {
                out.push_str(&format!(
                    "{pad}Union{} [{} inputs]{suffix}\n",
                    if *all { " All" } else { "" },
                    inputs.len()
                ));
                for i in inputs {
                    i.explain_into(depth + 1, out, annot, printed);
                }
            }
            Plan::TopK { base, probes, visible, matching, rank, limit, .. } => {
                let match_desc = match matching {
                    TopKMatching::AtLeast(l) => format!("at-least {l}"),
                    TopKMatching::MinDegree(d) => format!("degree > {d}"),
                };
                let limit_desc = match limit {
                    Some(n) => format!(", limit {n}"),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{pad}TopK [{} prefs, visible={visible}, {match_desc}{}{limit_desc}]{suffix}\n",
                    probes.len(),
                    if *rank { ", ranked" } else { "" },
                ));
                base.explain_into(depth + 1, out, annot, printed);
                for p in probes {
                    match &p.source {
                        TopKProbeSource::Literal(v) => {
                            let pad2 = "  ".repeat(depth + 1);
                            out.push_str(&format!("{pad2}Probe = {v} [doi {}]\n", p.doi));
                        }
                        TopKProbeSource::Witness(w) => {
                            let pad2 = "  ".repeat(depth + 1);
                            out.push_str(&format!("{pad2}Probe in witness [doi {}]\n", p.doi));
                            w.explain_into(depth + 2, out, annot, printed);
                        }
                    }
                }
            }
            Plan::Shared { slot, input } => {
                if printed.contains(slot) {
                    out.push_str(&format!("{pad}Shared #{slot} (reused){suffix}\n"));
                } else {
                    printed.push(*slot);
                    out.push_str(&format!("{pad}Shared #{slot}{suffix}\n"));
                    input.explain_into(depth + 1, out, annot, printed);
                }
            }
        }
    }
}

/// `a, b, c`: the names an access path's explain line lists as emitted.
fn names(columns: &[OutputColumn]) -> String {
    let names: Vec<&str> = columns.iter().map(|c| &*c.name).collect();
    names.join(", ")
}
