//! The native rank operator ([`Node::TopK`]): preference pushdown with
//! threshold-style early termination.
//!
//! The SQ/MQ rewrites expand optional preferences into SQL — `C(K−M, L)`
//! disjuncts or `K−M` unioned partial queries — and materialize the full
//! personalized result before ranking. This operator keeps the rewrite
//! machinery for the *mandatory* preferences only (they are plain filters)
//! and evaluates the optional ones inside the executor:
//!
//! 1. **Group**: consume the base input (visible columns ++ one probe
//!    column per preference), folding rows into visible-prefix groups.
//! 2. **Probe passes**: one pass per optional preference, in decreasing
//!    degree order. A pass builds the preference's *witness set* (the
//!    single-column result of a small sub-plan — the preference's join
//!    path run on its own) and tests each live group's probe values
//!    against it, OR-ing a satisfaction bit per group. After every pass,
//!    groups that provably cannot reach the result are pruned:
//!    - they cannot satisfy `L` preferences with the passes that remain,
//!    - their best reachable degree cannot exceed a `MinDegree` threshold,
//!    - (ranked, `LIMIT n`) their best reachable degree is strictly below
//!      the n-th best *guaranteed* degree seen so far — the classic
//!      threshold-algorithm bound, applied to preference passes.
//!
//!    Once every group is dead the remaining passes (and their witness
//!    sub-plans) are skipped entirely.
//! 3. **Emit**: fold each surviving group's satisfaction bits into its
//!    degree of interest `1 − ∏(1 − dᵢ)` — in ascending preference order,
//!    the exact arithmetic of the `DEGREE_OF_CONJUNCTION` aggregate, so
//!    ranked output is bit-identical to the MQ rewrite — filter by the
//!    match requirement, sort by `(interest DESC, visible columns ASC)`
//!    and apply the limit.
//!
//! **Determinism contract**: same row set and same rank order as the
//! ranked MQ rewrite, with ties broken by the visible columns ascending
//! (MQ's tie order is its union order; the differential suite compares
//! against a canonically re-sorted MQ recompute).
//!
//! **Deviation from the classic threshold algorithm**: input consumption
//! is never cut short. A not-yet-seen base row can OR new satisfaction
//! bits into an *existing* group, so truncating the input would change
//! group degrees; early termination therefore operates on preference
//! passes and group pruning, where the bound is sound.

use crate::error::{EngineError, Result};
use crate::exec::{self, Env};
#[cfg(doc)]
use crate::plan::Node;
use crate::plan::{NodeId, TopKMatching, TopKProbe, TopKProbeSource};
use pqp_obs::approx_row_bytes;
use pqp_obs::governor::CHECKPOINT_STRIDE;
use pqp_sql::ast::Query;
use pqp_storage::{KeyState, Row, Value};
use std::collections::{HashMap, HashSet};

/// Maximum number of probes a [`Node::TopK`] node may carry (satisfaction
/// bits are a `u64` mask). Personalization falls back to MQ above this.
pub const MAX_PROBES: usize = 64;

/// Name of the appended interest column in ranked output (matches the MQ
/// rewrite's column).
pub const INTEREST_COLUMN: &str = "interest";

/// Slack for threshold comparisons: upper bounds are computed in pass
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
    /// Keep only the first n rows of the (ranked) output.
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

/// One visible-prefix group under construction.
struct Group {
    visible: Row,
    /// The distinct probe-column tuples seen for this prefix.
    suffixes: Vec<Row>,
    /// Satisfaction bitmask (bit j = probe j satisfied).
    bits: u64,
    /// Satisfied-probe count (popcount of `bits`, kept incrementally).
    count: usize,
    /// `∏(1 − dⱼ)` over satisfied probes so far: `1 − lb_om` is a lower
    /// bound on the group's final degree of interest.
    lb_om: f64,
    /// Still a candidate for the result; pruned groups drop their
    /// suffixes and skip all remaining passes.
    alive: bool,
}

/// Execute a [`Node::TopK`] node over its base plan, rooted at `base`.
pub(crate) fn execute(
    env: &Env,
    base: NodeId,
    probes: &[TopKProbe],
    visible: usize,
    matching: &TopKMatching,
    rank: bool,
    limit: Option<u64>,
) -> Result<Vec<Row>> {
    let nprobes = probes.len();
    if nprobes > MAX_PROBES {
        return Err(EngineError::Internal(format!(
            "TopK carries {nprobes} probes (maximum {MAX_PROBES})"
        )));
    }

    // Phase 1: consume the base and group by the visible prefix,
    // first-seen order.
    let mut groups: Vec<Group> = Vec::new();
    let mut index = HashMap::with_hasher(env.keys);
    let rows = exec::run(env, base)?;
    ingest(env, rows, visible, &mut groups, &mut index)?;
    drop(index);
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
    let top_n = if rank { limit.map(|n| n as usize).filter(|&n| n > 0) } else { None };
    let mut lbs: Vec<f64> = Vec::new();
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
        let witness: Option<HashSet<Value, KeyState>> = match &probes[j].source {
            TopKProbeSource::Literal(_) => None,
            TopKProbeSource::Witness(wp) => Some(witness_set(env, *wp)?),
        };
        let literal = match &probes[j].source {
            TopKProbeSource::Literal(v) => Some(v),
            TopKProbeSource::Witness(_) => None,
        };
        for (gi, g) in groups.iter_mut().enumerate() {
            if gi & (CHECKPOINT_STRIDE - 1) == 0 {
                env.ctx.checkpoint()?;
            }
            if !g.alive {
                continue;
            }
            // SQL equality: a NULL probe value never satisfies anything.
            let hit = g.suffixes.iter().any(|s| {
                let v = &s[j];
                if matches!(v, Value::Null) {
                    return false;
                }
                match (&literal, &witness) {
                    (Some(l), _) => v == *l,
                    (None, Some(set)) => set.contains(v),
                    (None, None) => false,
                }
            });
            if hit {
                g.bits |= 1 << j;
                g.count += 1;
                g.lb_om *= 1.0 - probes[j].doi;
            }
        }

        // Prune: drop groups that provably cannot reach the result.
        let passes_left = nprobes - t - 1;
        let best_left = remaining[t + 1];
        let nth_guaranteed = top_n.and_then(|n| {
            lbs.clear();
            for g in &groups {
                let guaranteed = g.alive
                    && match matching {
                        TopKMatching::AtLeast(l) => g.count >= *l,
                        TopKMatching::MinDegree(d) => g.count >= 1 && 1.0 - g.lb_om > *d,
                    };
                if guaranteed {
                    lbs.push(1.0 - g.lb_om);
                }
            }
            (lbs.len() >= n).then(|| {
                let (_, nth, _) = lbs.select_nth_unstable_by(n - 1, |a, b| b.total_cmp(a));
                *nth
            })
        });
        for g in groups.iter_mut() {
            if !g.alive {
                continue;
            }
            let upper = 1.0 - g.lb_om * best_left;
            let dead = match matching {
                TopKMatching::AtLeast(l) => g.count + passes_left < *l,
                TopKMatching::MinDegree(d) => upper <= *d - EPS,
            } || nth_guaranteed.is_some_and(|nth| upper < nth - EPS);
            if dead {
                g.alive = false;
                g.suffixes = Vec::new();
                pruned += 1;
            }
        }
    }
    pqp_obs::record("groups_pruned", pruned);
    pqp_obs::record("passes_skipped", skipped);
    pqp_obs::counter_add("topk.groups_pruned", pruned as i64);
    pqp_obs::counter_add("topk.passes_skipped", skipped as i64);

    // Phase 3: fold bits into degrees (ascending preference order — the
    // DEGREE_OF_CONJUNCTION arithmetic), filter, rank, limit.
    let mut out: Vec<Row> = Vec::new();
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
        let mut row = g.visible.clone();
        if rank {
            row.push(interest);
        }
        out.push(row);
    }
    if rank {
        // Interest descending (NULL degrees last), then every visible
        // column ascending: the determinism contract for tie order.
        let mut keys: Vec<(usize, bool)> = vec![(visible, true)];
        keys.extend((0..visible).map(|i| (i, false)));
        exec::sort_rows(&mut out, &keys);
    }
    if let Some(n) = limit {
        out.truncate(n as usize);
    }
    Ok(out)
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

/// Fold base rows into visible-prefix groups (first-seen order), charging
/// the governor for the retained bytes and checkpointing on stride.
fn ingest(
    env: &Env,
    rows: Vec<Row>,
    visible: usize,
    groups: &mut Vec<Group>,
    index: &mut HashMap<Row, usize, KeyState>,
) -> Result<()> {
    let mut pending_mem: u64 = 0;
    for (i, mut row) in rows.into_iter().enumerate() {
        if i & (CHECKPOINT_STRIDE - 1) == 0 {
            env.ctx.charge_mem(std::mem::take(&mut pending_mem))?;
        }
        if row.len() < visible {
            return Err(EngineError::Internal(format!(
                "TopK base row has {} columns, expected at least {visible}",
                row.len()
            )));
        }
        let suffix = row.split_off(visible);
        pending_mem += approx_row_bytes(suffix.len());
        match index.get(&row) {
            Some(&gi) => groups[gi].suffixes.push(suffix),
            None => {
                pending_mem += approx_row_bytes(row.len());
                index.insert(row.clone(), groups.len());
                groups.push(Group {
                    visible: row,
                    suffixes: vec![suffix],
                    bits: 0,
                    count: 0,
                    lb_om: 1.0,
                    alive: true,
                });
            }
        }
    }
    env.ctx.charge_mem(pending_mem)?;
    Ok(())
}

/// Execute a witness sub-plan, rooted at `witness`, and collect its single
/// output column into a membership set. NULLs are excluded: SQL equality
/// never matches them.
fn witness_set(env: &Env, witness: NodeId) -> Result<HashSet<Value, KeyState>> {
    let rows = exec::run(env, witness)?;
    let mut set = HashSet::with_capacity_and_hasher(rows.len(), env.keys);
    let mut bytes: u64 = 0;
    for row in rows {
        let Some(v) = row.into_iter().next() else {
            return Err(EngineError::Internal("TopK witness plan produced no columns".into()));
        };
        if !matches!(v, Value::Null) && set.insert(v) {
            bytes += approx_row_bytes(1);
        }
    }
    env.ctx.charge_mem(bytes)?;
    Ok(set)
}
