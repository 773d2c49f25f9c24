//! The shared-subtree pass: the last step of planning.
//!
//! MQ (§6) is a `UNION ALL` of partial queries, and every partial re-joins
//! the base query's tables; OR-expansion's branches and a native rank
//! plan's witnesses repeat joins the same way. [`share_subtrees`] finds
//! every `Scan` / `IndexScan` / `HashJoin` / `IndexJoin` subtree that occurs
//! two or more times in one plan and replaces each occurrence with a
//! [`Plan::Shared`] node holding one `Arc` of it, which the executor runs
//! once per execution.
//!
//! Repeats nest. Larger subtrees are shared first, and a repeat counts only
//! where the plan, read as the DAG the pass produces, still holds it: a
//! `Scan` that occurs only inside the copies of one shared join is read
//! once, through that join, and stays as it is; the same `Scan` also
//! occurring on its own is shared separately.
//!
//! The pass changes no estimate: the estimator prices a shared node as its
//! input, at every occurrence.

use crate::plan::Plan;
use std::sync::Arc;

/// No class: a node the pass never shares.
const NONE: usize = usize::MAX;

/// One node of the plan in pre-order.
struct Node<'p> {
    plan: &'p Plan,
    /// One past the pre-order index of the node's last descendant.
    end: usize,
    /// The equality class of a candidate node, [`NONE`] for the others.
    class: usize,
    /// Inside a later occurrence of a shared subtree: the rewrite drops it.
    dropped: bool,
}

/// What the rewrite does at one pre-order position.
#[derive(Clone, Copy)]
enum Mark {
    Keep,
    /// The first occurrence of shared subtree `slot`: wrap it.
    First(usize),
    /// A later occurrence, whose subtree ends before pre-order position
    /// `end`: replace it with the first's `Arc`.
    Reuse {
        slot: usize,
        end: usize,
    },
}

/// Share every repeated subtree of `plan` (see the module doc).
pub(crate) fn share_subtrees(mut plan: Plan) -> Plan {
    let (marks, slots) = mark(&plan);
    if slots == 0 {
        return plan;
    }
    let mut shared = vec![None; slots];
    rewrite(&mut plan, &marks, &mut 0, &mut shared);
    plan
}

/// The subtrees the pass can share.
fn candidate(plan: &Plan) -> bool {
    matches!(
        plan,
        Plan::Scan { .. } | Plan::IndexScan { .. } | Plan::HashJoin { .. } | Plan::IndexJoin { .. }
    )
}

/// How many nodes and candidate nodes the tree holds.
fn count(plan: &Plan, counts: &mut (usize, usize)) {
    counts.0 += 1;
    counts.1 += usize::from(candidate(plan));
    if !matches!(plan, Plan::Shared { .. }) {
        plan.for_each_child(&mut |child| count(child, counts));
    }
}

/// Every node in pre-order, an already shared node as a leaf.
fn collect<'p>(plan: &'p Plan, nodes: &mut Vec<Node<'p>>) {
    let at = nodes.len();
    nodes.push(Node { plan, end: 0, class: NONE, dropped: false });
    if !matches!(plan, Plan::Shared { .. }) {
        plan.for_each_child(&mut |child| collect(child, nodes));
    }
    nodes[at].end = nodes.len();
}

/// The mark of every pre-order position, and how many slots they use
/// (none when nothing repeats).
fn mark(plan: &Plan) -> (Vec<Mark>, usize) {
    let mut counts = (0, 0);
    count(plan, &mut counts);
    if counts.1 < 2 {
        return (Vec::new(), 0);
    }
    let mut nodes = Vec::with_capacity(counts.0);
    collect(plan, &mut nodes);

    // Equality classes: each candidate against the first node of every
    // class of its size (equal subtrees have equal sizes).
    let mut firsts: Vec<usize> = Vec::new();
    for i in 0..nodes.len() {
        if !candidate(nodes[i].plan) {
            continue;
        }
        let size = nodes[i].end - i;
        let same = |&f: &usize| nodes[f].end - f == size && nodes[f].plan == nodes[i].plan;
        nodes[i].class = match firsts.iter().position(same) {
            Some(c) => c,
            None => {
                firsts.push(i);
                firsts.len() - 1
            }
        };
    }

    // Larger classes first: a subtree is smaller than any subtree holding
    // it, so when a class comes up, every class that could hold it is
    // decided and the copies it drops are known.
    let mut order: Vec<usize> = (0..firsts.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(nodes[firsts[c]].end - firsts[c]));
    let mut is_shared = vec![false; firsts.len()];
    for c in order {
        let mut first = true;
        for i in firsts[c]..nodes.len() {
            if nodes[i].class != c || nodes[i].dropped {
                continue;
            }
            if std::mem::take(&mut first) {
                continue;
            }
            // A later occurrence: its copy of the subtree is never read.
            is_shared[c] = true;
            let end = nodes[i].end;
            nodes[i + 1..end].iter_mut().for_each(|n| n.dropped = true);
        }
    }

    if !is_shared.contains(&true) {
        return (Vec::new(), 0);
    }
    // Slots in pre-order of first occurrence.
    let mut slot_of = vec![NONE; firsts.len()];
    let mut slots = 0;
    let mut marks = vec![Mark::Keep; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        if n.class == NONE || !is_shared[n.class] || n.dropped {
            continue;
        }
        marks[i] = if slot_of[n.class] == NONE {
            slot_of[n.class] = slots;
            slots += 1;
            Mark::First(slot_of[n.class])
        } else {
            Mark::Reuse { slot: slot_of[n.class], end: n.end }
        };
    }
    (marks, slots)
}

/// Apply `marks` to the subtree at pre-order position `*at`, leaving `*at`
/// one past it. `shared[slot]` is the `Arc` of each subtree wrapped so far:
/// a first occurrence precedes every later one in pre-order.
fn rewrite(plan: &mut Plan, marks: &[Mark], at: &mut usize, shared: &mut [Option<Arc<Plan>>]) {
    let here = *at;
    if let Mark::Reuse { slot, end } = marks[here] {
        *at = end;
        if let Some(input) = &shared[slot] {
            *plan = Plan::Shared { slot, input: Arc::clone(input) };
        }
        return;
    }
    *at += 1;
    plan.for_each_child_mut(&mut |child| rewrite(child, marks, at, shared));
    if let Mark::First(slot) = marks[here] {
        let placeholder = Plan::Empty { schema: plan.schema_ref().clone() };
        let input = Arc::new(std::mem::replace(plan, placeholder));
        shared[slot] = Some(Arc::clone(&input));
        *plan = Plan::Shared { slot, input };
    }
}
