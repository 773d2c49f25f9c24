//! The native rank operator ([`Node::TopK`]): preference pushdown with
//! group pruning and early termination.
//!
//! The SQ/MQ rewrites expand optional preferences into SQL — `C(K−M, L)`
//! disjuncts or `K−M` unioned partial queries — and materialize the full
//! personalized result before ranking. This operator keeps the rewrite
//! machinery for the *mandatory* preferences only (they are plain filters)
//! and evaluates the optional ones inside the executor:
//!
//! 1. **Group**: the base plan (visible columns ++ one probe column per
//!    preference) runs as a pipeline into one flat row set, whose rows are
//!    then folded into visible-prefix groups, first-seen order: each row's
//!    prefix is hashed in place and looked up in a `KeyTable` over the
//!    groups' first rows, and the row's group id is kept beside it. No
//!    prefix or probe value is copied.
//! 2. **Probe passes**: one pass per optional preference, in decreasing
//!    degree order. A pass pushes the preference's *witness* sub-plan (the
//!    preference's join path run on its own) into a membership set of its
//!    one column, walks the stored probe values of the live groups no
//!    earlier row satisfied, and ORs a satisfaction bit into each group.
//!    After every pass,
//!    groups that provably cannot reach the result are pruned:
//!    - they cannot satisfy `L` preferences with the passes that remain,
//!    - their best reachable degree cannot exceed a `MinDegree` threshold.
//!
//!    Once every group is dead the remaining passes (and their witness
//!    sub-plans) are skipped entirely.
//! 3. **Emit**: fold each surviving group's satisfaction bits into its
//!    degree of interest `1 − ∏(1 − dᵢ)` — in ascending preference order,
//!    the exact arithmetic of the `DEGREE_OF_CONJUNCTION` aggregate, so
//!    ranked output is bit-identical to the MQ rewrite — filter by the
//!    match requirement, sort the survivors by `(interest DESC, visible
//!    columns ASC)` as `Sort` does, and push them into the operator's
//!    sink. A top-N cut is a `Limit` node above the operator.
//!
//! **Determinism contract**: same row set and same rank order as the
//! ranked MQ rewrite, with ties broken by the visible columns ascending
//! (MQ's tie order is its union order; the differential suite compares
//! against a canonically re-sorted MQ recompute).
//!
//! **Input consumption is never cut short.** A not-yet-seen base row can
//! OR new satisfaction bits into an *existing* group, so truncating the
//! input would change group degrees; early termination therefore operates
//! on preference passes and group pruning, where the bound is sound.

use crate::error::{EngineError, Result};
use crate::exec::{push, push_sorted, Env, KeyTable, Rows, Sink};
use crate::plan::{Node, TopKMatching, TopKProbe, TopKProbeSource};
use pqp_obs::approx_row_bytes;
use pqp_obs::governor::CHECKPOINT_STRIDE;
use pqp_sql::ast::Query;
use pqp_storage::{KeyState, Row, Value};
use std::collections::HashSet;
use std::hash::BuildHasher;

/// Maximum number of probes a [`Node::TopK`] node may carry (satisfaction
/// bits are a `u64` mask). Personalization falls back to MQ above this.
pub const MAX_PROBES: usize = 64;

/// Name of the appended interest column in ranked output (matches the MQ
/// rewrite's column).
pub const INTEREST_COLUMN: &str = "interest";

/// Slack for the `MinDegree` prune: upper bounds are computed in pass
/// order while final degrees fold in preference order, so the two can
/// differ by a few ulps.
const EPS: f64 = 1e-9;

/// A query-level specification of a native rank execution, produced by the
/// personalization layer and planned by `Database::plan_topk`.
///
/// `base` must project the visible columns first (one per entry of
/// `columns`, in order) followed by one probe column per entry of
/// `probes`, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKSpec {
    /// The mandatory-integrated base query (visible ++ probe columns).
    pub base: Query,
    /// Display names of the visible output columns.
    pub columns: Vec<String>,
    /// One probe per optional preference, in preference order.
    pub probes: Vec<ProbeSpec>,
    /// The match requirement (at-least-L or minimum degree).
    pub matching: TopKMatching,
    /// Append the interest column and rank by it.
    pub rank: bool,
    /// Keep only the first n rows of the (ranked) output: planned as a
    /// `Limit` node above the operator.
    pub limit: Option<u64>,
}

/// One optional preference of a [`TopKSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSpec {
    /// The preference's degree of interest, in `[0, 1]`.
    pub doi: f64,
    pub source: ProbeSource,
}

/// How a [`ProbeSpec`]'s probe column is tested.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeSource {
    /// Satisfied when the probe column equals the literal.
    Literal(Value),
    /// Satisfied when the probe column appears in the witness query's
    /// single-column output.
    Witness(Query),
}

/// One visible-prefix group's state; its prefix and its rows' probe
/// columns stay where the base rows are stored.
struct Group {
    /// The base row that opened the group.
    first: u32,
    /// Satisfaction bitmask (bit j = probe j satisfied).
    bits: u64,
    /// Satisfied-probe count (popcount of `bits`, kept incrementally).
    count: usize,
    /// `∏(1 − dⱼ)` over satisfied probes so far: `1 − lb_om` is a lower
    /// bound on the group's final degree of interest.
    lb_om: f64,
    /// Still a candidate for the result; pruned groups skip all remaining
    /// passes.
    alive: bool,
}

/// Execute a [`Node::TopK`] node, pushing its rows into `sink`; returns
/// how many it pushed.
pub(crate) fn execute(env: &Env, node: &Node, sink: &mut dyn Sink) -> Result<usize> {
    let Node::TopK { base, probes, visible, matching, rank } = node else {
        return Err(EngineError::Internal("not a TopK node".into()));
    };
    let (probes, visible, rank) = (env.plan.probes(*probes), *visible as usize, *rank);
    let nprobes = probes.len();
    if nprobes > MAX_PROBES {
        return Err(EngineError::Internal(format!(
            "TopK carries {nprobes} probes (maximum {MAX_PROBES})"
        )));
    }

    // Phase 1: collect the base, then group its rows by the visible prefix.
    let mut rows = Rows::default();
    push(env, *base, &mut rows)?;
    let (mut groups, owner) = group(env, &rows, visible)?;
    pqp_obs::record("groups", groups.len());

    // Phase 2: one pass per probe, in decreasing-degree order (ties by
    // probe index), with group pruning after every pass.
    let mut order: Vec<usize> = (0..nprobes).collect();
    order.sort_by(|&a, &b| probes[b].doi.total_cmp(&probes[a].doi).then(a.cmp(&b)));
    // remaining[t] = ∏ over passes t.. of (1 − d): the best multiplier the
    // not-yet-run passes could still contribute to a group's degree.
    let mut remaining = vec![1.0f64; nprobes + 1];
    for t in (0..nprobes).rev() {
        remaining[t] = remaining[t + 1] * (1.0 - probes[order[t]].doi);
    }
    let mut pruned = 0usize;
    let mut skipped = 0usize;

    for (t, &j) in order.iter().enumerate() {
        env.ctx.checkpoint()?;
        if !groups.iter().any(|g| g.alive) {
            // Early termination: nothing left to rank — the remaining
            // witness sub-plans are never built or executed.
            skipped = nprobes - t;
            break;
        }
        let (literal, witness) = match &probes[j].source {
            TopKProbeSource::Literal(l) => (Some(l), None),
            TopKProbeSource::Witness(wp) => {
                let mut w = Witnesses { set: HashSet::with_hasher(env.keys), bytes: 0 };
                push(env, *wp, &mut w)?;
                env.ctx.charge_mem(w.bytes)?;
                (None, Some(w.set))
            }
        };
        // Each base row's probe value, for the live groups no earlier row
        // of theirs satisfied. SQL equality: a NULL never satisfies.
        for (r, &gi) in owner.iter().enumerate() {
            if r & (CHECKPOINT_STRIDE - 1) == 0 {
                env.ctx.checkpoint()?;
            }
            let g = &mut groups[gi as usize];
            if !g.alive || g.bits >> j & 1 == 1 {
                continue;
            }
            let v = &rows.row(r)[visible + j];
            let hit = !v.is_null()
                && (literal == Some(v) || witness.as_ref().is_some_and(|set| set.contains(v)));
            if hit {
                g.bits |= 1 << j;
                g.count += 1;
                g.lb_om *= 1.0 - probes[j].doi;
            }
        }

        // Prune: drop groups that provably cannot reach the result.
        let passes_left = nprobes - t - 1;
        let best_left = remaining[t + 1];
        for g in groups.iter_mut() {
            if !g.alive {
                continue;
            }
            let dead = match matching {
                TopKMatching::AtLeast(l) => g.count + passes_left < *l,
                TopKMatching::MinDegree(d) => 1.0 - g.lb_om * best_left <= *d - EPS,
            };
            if dead {
                g.alive = false;
                pruned += 1;
            }
        }
    }
    pqp_obs::record("groups_pruned", pruned);
    pqp_obs::record("passes_skipped", skipped);
    pqp_obs::counter_add("topk.groups_pruned", pruned as i64);
    pqp_obs::counter_add("topk.passes_skipped", skipped as i64);

    // Phase 3: fold bits into degrees (ascending preference order — the
    // DEGREE_OF_CONJUNCTION arithmetic), filter, rank.
    let mut out = Rows::default();
    let mut row = Row::new();
    for (gi, g) in groups.iter().enumerate() {
        if gi & (CHECKPOINT_STRIDE - 1) == 0 {
            env.ctx.checkpoint()?;
        }
        if !g.alive {
            continue;
        }
        let interest = interest_of(g.bits, probes);
        let keep = match matching {
            TopKMatching::AtLeast(l) => g.count >= *l,
            TopKMatching::MinDegree(d) => {
                g.count >= 1 && matches!(interest, Value::Float(x) if x > *d)
            }
        };
        if !keep {
            continue;
        }
        row.extend_from_slice(&rows.row(g.first as usize)[..visible]);
        if rank {
            row.push(interest);
        }
        out.push(&mut row)?;
    }
    // Ranked: interest descending (NULL degrees last), then every visible
    // column ascending, the determinism contract for tie order. Unranked:
    // first-seen order.
    let by_rank = std::iter::once((visible, true)).chain((0..visible).map(|i| (i, false)));
    let nkeys = if rank { visible + 1 } else { 0 };
    push_sorted(&out, || by_rank.clone().take(nkeys), sink)
}

/// Fold satisfaction bits into the degree of interest, in ascending probe
/// order — exactly the `DEGREE_OF_CONJUNCTION` aggregate's arithmetic over
/// the MQ union (whose partials arrive in preference order), so degrees
/// are bit-identical across the two strategies. No satisfied probe yields
/// NULL, like the aggregate over zero non-null inputs.
fn interest_of(bits: u64, probes: &[TopKProbe]) -> Value {
    if bits == 0 {
        return Value::Null;
    }
    let mut one_minus_prod = 1.0f64;
    for (j, p) in probes.iter().enumerate() {
        if bits >> j & 1 == 1 {
            one_minus_prod *= 1.0 - p.doi;
        }
    }
    Value::Float(1.0 - one_minus_prod)
}

/// Group the base rows by their visible prefix, first-seen order: each
/// prefix is hashed where it lies and looked up in a `KeyTable` over the
/// groups' first rows. Returns the groups and each row's group. The
/// governor is charged for the retained bytes every [`CHECKPOINT_STRIDE`]
/// rows.
fn group(env: &Env, rows: &Rows, visible: usize) -> Result<(Vec<Group>, Vec<u32>)> {
    let mut groups: Vec<Group> = Vec::new();
    let mut owner = Vec::with_capacity(rows.len());
    let mut table = KeyTable::with_capacity(0);
    let mut pending_mem = 0u64;
    for (r, row) in rows.iter().enumerate() {
        if r & (CHECKPOINT_STRIDE - 1) == 0 {
            env.ctx.charge_mem(std::mem::take(&mut pending_mem))?;
        }
        if row.len() < visible {
            return Err(EngineError::Internal(format!(
                "TopK base row has {} columns, expected at least {visible}",
                row.len()
            )));
        }
        let prefix = &row[..visible];
        pending_mem += approx_row_bytes(row.len() - visible);
        let h = env.keys.hash_one(prefix);
        let found =
            table.chain(h).find(|&g| &rows.row(groups[g].first as usize)[..visible] == prefix);
        let g = match found {
            Some(g) => g,
            None => {
                pending_mem += approx_row_bytes(visible);
                table.insert(h, groups.len());
                groups.push(Group { first: r as u32, bits: 0, count: 0, lb_om: 1.0, alive: true });
                groups.len() - 1
            }
        };
        owner.push(g as u32);
    }
    env.ctx.charge_mem(pending_mem)?;
    Ok((groups, owner))
}

/// A witness sub-plan's terminal: moves each row's one value into a
/// membership set. NULLs are left out: SQL equality never matches them.
struct Witnesses {
    set: HashSet<Value, KeyState>,
    /// What the distinct values retain.
    bytes: u64,
}

impl Sink for Witnesses {
    fn push(&mut self, row: &mut Row) -> Result<()> {
        if row.is_empty() {
            return Err(EngineError::Internal("TopK witness plan produced no columns".into()));
        }
        let v = row.swap_remove(0);
        if !v.is_null() && self.set.insert(v) {
            self.bytes += approx_row_bytes(1);
        }
        Ok(())
    }
}
