//! Result ranking helpers and top-N delivery.
//!
//! The MQ rewrite already ranks inside the database via the
//! `DEGREE_OF_CONJUNCTION` aggregate; this module offers the client-side
//! counterparts: estimating the degree of interest of a combination of
//! satisfied preferences (§3.3) and delivering only the top-N results (the
//! paper's future-work item). Top-N delivery routes through the planner's
//! per-query strategy choice ([`crate::strategy::choose`]) — a ranked
//! `LIMIT n` is exactly where the native rank operator's early termination
//! pays off, but the cost model decides per query.

use crate::doi::{conjunction_degree, Doi};
use crate::error::Result;
use crate::personalize::Personalized;
use crate::strategy::StrategyChoice;
use pqp_engine::Database;
use pqp_sql::ast::Query;

/// Estimated degree of interest of a result satisfying the given
/// preferences: the conjunction combination `1 − ∏(1 − dᵢ)`.
pub fn estimate_interest(satisfied: &[Doi]) -> Doi {
    conjunction_degree(satisfied)
}

/// The cheapest execution delivering the `n` most interesting results:
/// ranking is forced on, then the strategy layer picks between the ranked
/// MQ rewrite and the native rank operator by estimated cost.
pub fn top_n(db: &Database, p: &Personalized<'_>, n: u64) -> Result<StrategyChoice> {
    let mut ranked = p.clone();
    ranked.rank = true;
    crate::strategy::choose(db, &ranked, Some(n))
}

/// The ranked MQ query truncated to the `n` most interesting results.
///
/// This is the SQL-only form, kept for callers that need a query string
/// (wire clients, logs); [`top_n`] is the planner-routed entry point that
/// may pick the native rank operator instead.
pub fn top_n_query(p: &Personalized<'_>, n: u64) -> Result<Query> {
    let mut ranked = p.clone();
    ranked.rank = true;
    let mut q = ranked.mq()?;
    q.limit = Some(n);
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: f64) -> Doi {
        Doi::new(x).unwrap()
    }

    #[test]
    fn interest_is_monotone_in_satisfied_set() {
        // Satisfying strictly more preferences can only increase interest —
        // the intuition behind the paper's subsumption theorem.
        let base = estimate_interest(&[d(0.7)]);
        let more = estimate_interest(&[d(0.7), d(0.5)]);
        assert!(more >= base);
    }

    #[test]
    fn interest_of_nothing_is_zero() {
        assert_eq!(estimate_interest(&[]), Doi::ZERO);
    }

    #[test]
    fn paper_example() {
        let i = estimate_interest(&[d(0.7), d(0.81)]);
        assert!((i.value() - 0.943).abs() < 1e-12);
    }
}
