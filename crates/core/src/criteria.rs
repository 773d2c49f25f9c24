//! Interest criteria `CI` governing how many preferences are selected
//! (§5.1, Table 1).

use crate::doi::{conjunction_degree, disjunction_degree, Doi};
use std::fmt;

/// A criterion over the (ordered, decreasing) set of selected degrees: the
/// algorithm keeps accepting preferences while `CI(P_K ∪ {candidate})`
/// holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterestCriterion {
    /// `t ≤ r`: select at most `r` preferences.
    TopK(usize),
    /// `d_t > d`: select preferences with degree strictly greater than `d`.
    MinDegree(f64),
    /// Select preferences while their disjunction degree `(∑dᵢ)/t` stays
    /// strictly greater than `d`.
    DisjunctionAbove(f64),
    /// Select preferences while their conjunction degree `1 − ∏(1−dᵢ)`
    /// stays strictly greater than `d`.
    ConjunctionAbove(f64),
}

impl InterestCriterion {
    /// Would the criterion still hold after adding `candidate` to the
    /// already-selected degrees `current`?
    pub fn accepts(&self, current: &[Doi], candidate: Doi) -> bool {
        match *self {
            InterestCriterion::TopK(r) => current.len() < r,
            InterestCriterion::MinDegree(d) => candidate.value() > d,
            InterestCriterion::DisjunctionAbove(d) => {
                let mut all: Vec<Doi> = current.to_vec();
                all.push(candidate);
                disjunction_degree(&all).value() > d
            }
            InterestCriterion::ConjunctionAbove(d) => {
                let mut all: Vec<Doi> = current.to_vec();
                all.push(candidate);
                conjunction_degree(&all).value() > d
            }
        }
    }

    /// Whether a rejection is *permanent*: acceptance never depends on the
    /// selected-so-far set in a way that could admit the candidate later.
    ///
    /// True for `TopK` (the set only grows) and `MinDegree` (set
    /// independent) — for these the algorithm may prune expansion branches
    /// eagerly (paper §5.2 rule iv). The disjunction/conjunction criteria
    /// become *easier* to satisfy as more high-degree preferences are
    /// selected, so a candidate rejected against the current set may be
    /// acceptable by the time it is popped; eager pruning would violate
    /// completeness (Theorem 2) for them.
    pub fn rejection_is_permanent(&self) -> bool {
        matches!(self, InterestCriterion::TopK(_) | InterestCriterion::MinDegree(_))
    }

    /// Whether the criterion value is monotone non-increasing along the
    /// (decreasing-degree) selection stream, making the first failing prefix
    /// the last one to check. True for everything except
    /// `ConjunctionAbove`, whose value *grows* with every added preference:
    /// per §5.1 (`K = max{t : CI(P_t)}`), the algorithm must consume the
    /// whole stream and keep the largest satisfying prefix.
    pub fn prefix_failure_is_final(&self) -> bool {
        !matches!(self, InterestCriterion::ConjunctionAbove(_))
    }
}

impl fmt::Display for InterestCriterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterestCriterion::TopK(r) => write!(f, "top-{r}"),
            InterestCriterion::MinDegree(d) => write!(f, "degree > {d}"),
            InterestCriterion::DisjunctionAbove(d) => write!(f, "disjunction > {d}"),
            InterestCriterion::ConjunctionAbove(d) => write!(f, "conjunction > {d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: f64) -> Doi {
        Doi::new(x).unwrap()
    }

    #[test]
    fn top_k() {
        let ci = InterestCriterion::TopK(2);
        assert!(ci.accepts(&[], d(0.1)));
        assert!(ci.accepts(&[d(0.9)], d(0.1)));
        assert!(!ci.accepts(&[d(0.9), d(0.8)], d(0.7)));
        assert!(!InterestCriterion::TopK(0).accepts(&[], d(1.0)));
    }

    #[test]
    fn min_degree_is_strict() {
        let ci = InterestCriterion::MinDegree(0.5);
        assert!(ci.accepts(&[], d(0.51)));
        assert!(!ci.accepts(&[], d(0.5)));
        assert!(!ci.accepts(&[], d(0.49)));
    }

    #[test]
    fn disjunction_above_tracks_average() {
        let ci = InterestCriterion::DisjunctionAbove(0.6);
        // avg(0.9, 0.5) = 0.7 > 0.6 → accepted.
        assert!(ci.accepts(&[d(0.9)], d(0.5)));
        // avg(0.9, 0.2) = 0.55 → rejected.
        assert!(!ci.accepts(&[d(0.9)], d(0.2)));
    }

    #[test]
    fn conjunction_above() {
        let ci = InterestCriterion::ConjunctionAbove(0.9);
        // 1-(1-0.8)(1-0.7) = 0.94 > 0.9.
        assert!(ci.accepts(&[d(0.8)], d(0.7)));
        // First candidate alone: 0.8 ≤ 0.9 → rejected.
        assert!(!ci.accepts(&[], d(0.8)));
    }

    #[test]
    fn monotonicity_in_candidate_degree() {
        // For every criterion: rejecting d implies rejecting anything lower.
        let criteria = [
            InterestCriterion::TopK(3),
            InterestCriterion::MinDegree(0.4),
            InterestCriterion::DisjunctionAbove(0.5),
            InterestCriterion::ConjunctionAbove(0.7),
        ];
        let current = [d(0.9), d(0.6)];
        for ci in criteria {
            let mut prev_accepted = true;
            for i in (0..=10).rev() {
                let cand = d(i as f64 / 10.0);
                let a = ci.accepts(&current, cand);
                if !prev_accepted {
                    assert!(!a, "{ci}: non-monotone at {cand}");
                }
                prev_accepted = a;
            }
        }
    }
}
