//! Per-query execution-strategy choice: SQ vs MQ vs the native rank
//! operator.
//!
//! The paper compares its two SQL integrations (SQ and MQ) and observes
//! that neither dominates: SQ degrades combinatorially with `C(K−M, L)`
//! while MQ pays one partial query per optional preference. The native
//! rank operator ([`pqp_engine::topk`]) adds a third execution shape that
//! avoids both blow-ups but pays witness probes per preference. This
//! module picks between them **per query** with the engine's cost
//! estimator: every candidate is fully built and planned, then the
//! cheapest plan (by [`pqp_engine::Estimator::cost`]) wins.
//!
//! Candidate sets respect expressiveness:
//!
//! - SQ cannot rank, cannot apply a minimum-degree threshold and cannot
//!   honor a top-N limit — it only competes for plain matching queries;
//! - MQ and native rank compete everywhere; a native-unsupported shape
//!   (see [`crate::integrate::integrate_native`]) simply drops out.
//!
//! Ties keep MQ (the paper's default), making the choice deterministic.

use crate::error::{PrefError, Result};
use crate::integrate::MatchSpec;
use crate::personalize::{Personalized, Rewrite};
use pqp_engine::plan::Plan;
use pqp_engine::topk::TopKSpec;
use pqp_engine::{Database, Estimate, Estimator};
use pqp_sql::ast::Query;

/// A fully-built execution of a personalized query: either a SQL rewrite
/// or a native rank specification.
#[derive(Debug, Clone, PartialEq)]
pub enum Execution {
    /// Execute a SQL rewrite (original / SQ / MQ).
    Sql(Query),
    /// Execute through the engine's native rank operator.
    Native(TopKSpec),
}

/// The outcome of strategy resolution: the winning rewrite, its built
/// execution and plan, and the estimated costs of every candidate that
/// could be built (including the winner) for EXPLAIN output.
#[derive(Debug, Clone)]
pub struct StrategyChoice {
    /// The resolved rewrite — never [`Rewrite::Auto`]; an explicitly
    /// requested [`Rewrite::NativeRank`] that the query's shape does not
    /// support resolves to [`Rewrite::Mq`] (reported honestly here).
    pub rewrite: Rewrite,
    /// The built execution.
    pub execution: Execution,
    /// Its plan (reusable; cacheable by the serving layer).
    pub plan: Plan,
    /// The estimated cost of `plan`.
    pub cost: f64,
    /// The estimated number of rows `plan` produces (from the same pass
    /// over the plan that priced it).
    pub est_rows: f64,
    /// `(candidate, estimated cost)` for every buildable candidate, in
    /// evaluation order.
    pub alternatives: Vec<(Rewrite, f64)>,
}

impl StrategyChoice {
    /// One-line summary for EXPLAIN output: the chosen strategy, its
    /// estimated cost, and the costs of the alternatives.
    pub fn summary(&self) -> String {
        let alts: Vec<String> =
            self.alternatives.iter().map(|(rw, c)| format!("{}={:.0}", rw.label(), c)).collect();
        format!(
            "strategy: {} (est_cost={:.0}; candidates: {})",
            self.rewrite,
            self.cost,
            alts.join(", ")
        )
    }
}

/// Build the execution for a rewrite, resolving [`Rewrite::Auto`] through
/// [`choose`] and falling back from an unsupported explicit
/// [`Rewrite::NativeRank`] to MQ.
///
/// `limit` is a ranked top-N cut (`None` for the full result); it is only
/// meaningful when `p.rank` is set and is applied to the built execution
/// (SQL `LIMIT` or the operator's limit).
pub fn build_execution(
    db: &Database,
    p: &Personalized<'_>,
    rewrite: Rewrite,
    limit: Option<u64>,
) -> Result<StrategyChoice> {
    match rewrite {
        Rewrite::Auto => choose(db, p, limit),
        Rewrite::NativeRank => match build_one(db, p, Rewrite::NativeRank, limit) {
            Ok(built) => Ok(resolved(db, Rewrite::NativeRank, built)),
            Err(PrefError::UnsupportedQuery(_)) => {
                let built = build_one(db, p, Rewrite::Mq, limit)?;
                Ok(resolved(db, Rewrite::Mq, built))
            }
            Err(e) => Err(e),
        },
        other => {
            let built = build_one(db, p, other, limit)?;
            Ok(resolved(db, other, built))
        }
    }
}

/// Pick the cheapest buildable candidate for this personalized query.
pub fn choose(db: &Database, p: &Personalized<'_>, limit: Option<u64>) -> Result<StrategyChoice> {
    let _span = pqp_obs::span("strategy.choose");
    // MQ first: ties keep it. SQ only competes where it is expressive
    // enough (no ranking, no degree threshold, no top-N cut).
    let mut candidates = vec![Rewrite::Mq];
    if !p.rank && limit.is_none() && matches!(p.matching, MatchSpec::AtLeast(_)) {
        candidates.push(Rewrite::Sq);
    }
    candidates.push(Rewrite::NativeRank);

    // One estimator prices every candidate: they read the same tables.
    let estimator = Estimator::new(db.catalog());
    let mut best: Option<StrategyChoice> = None;
    let mut alternatives: Vec<(Rewrite, f64)> = Vec::new();
    let mut last_err: Option<PrefError> = None;
    for rw in candidates {
        let (execution, plan) = match build_one(db, p, rw, limit) {
            Ok(built) => built,
            // Shapes a candidate cannot express drop out of the race.
            Err(e @ (PrefError::UnsupportedQuery(_) | PrefError::TooManyCombinations { .. })) => {
                last_err = Some(e);
                continue;
            }
            Err(e) => return Err(e),
        };
        let Estimate { rows, cost, .. } = estimator.estimate(&plan);
        alternatives.push((rw, cost));
        if best.as_ref().is_none_or(|b| cost < b.cost) {
            best = Some(StrategyChoice {
                rewrite: rw,
                execution,
                plan,
                cost,
                est_rows: rows,
                alternatives: Vec::new(),
            });
        }
    }
    let mut choice = best.ok_or_else(|| {
        last_err.unwrap_or_else(|| PrefError::Internal("no strategy candidate".into()))
    })?;
    choice.alternatives = alternatives;
    pqp_obs::record("strategy", choice.rewrite.label());
    Ok(choice)
}

/// Build one candidate's execution and plan.
fn build_one(
    db: &Database,
    p: &Personalized<'_>,
    rw: Rewrite,
    limit: Option<u64>,
) -> Result<(Execution, Plan)> {
    match rw {
        Rewrite::NativeRank => {
            let mut spec = p.native()?;
            spec.limit = limit;
            let plan = db.plan_topk(&spec)?;
            Ok((Execution::Native(spec), plan))
        }
        Rewrite::Auto => Err(PrefError::Internal("Auto is resolved before build_one".into())),
        other => {
            let mut q = p.rewritten(other)?;
            if limit.is_some() {
                q.limit = limit;
            }
            let plan = db.plan(&q)?;
            Ok((Execution::Sql(q), plan))
        }
    }
}

/// Wrap an explicitly-requested rewrite's build as a [`StrategyChoice`].
fn resolved(db: &Database, rw: Rewrite, (execution, plan): (Execution, Plan)) -> StrategyChoice {
    let Estimate { rows, cost, .. } = Estimator::new(db.catalog()).estimate(&plan);
    StrategyChoice {
        rewrite: rw,
        execution,
        plan,
        cost,
        est_rows: rows,
        alternatives: vec![(rw, cost)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InMemoryGraph;
    use crate::personalize::{personalize, PersonalizeOptions};
    use crate::profile::Profile;
    use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};

    fn movie_db() -> Database {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "MOVIE",
                vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("title", DataType::Str)],
            )
            .with_primary_key(&["mid"]),
        )
        .unwrap();
        c.create_table(TableSchema::new(
            "GENRE",
            vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
        ))
        .unwrap();
        {
            let t = c.table("MOVIE").unwrap();
            let mut t = t.write();
            for (mid, title) in
                [(1, "Amelie"), (2, "Brazil"), (3, "Casino"), (4, "Dune"), (5, "Elf")]
            {
                t.insert(vec![Value::Int(mid), Value::str(title)]).unwrap();
            }
        }
        {
            let t = c.table("GENRE").unwrap();
            let mut t = t.write();
            for (mid, g) in [
                (1, "comedy"),
                (1, "romance"),
                (2, "comedy"),
                (2, "scifi"),
                (3, "drama"),
                (4, "scifi"),
                (5, "comedy"),
            ] {
                t.insert(vec![Value::Int(mid), Value::str(g)]).unwrap();
            }
        }
        Database::new(c)
    }

    fn profile() -> Profile {
        let mut p = Profile::new("u");
        p.add_join("MOVIE", "mid", "GENRE", "mid", 1.0).unwrap();
        p.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
        p.add_selection("GENRE", "genre", "scifi", 0.7).unwrap();
        p.add_selection("GENRE", "genre", "drama", 0.5).unwrap();
        p
    }

    fn personalized<'g>(db: &Database, g: &'g InMemoryGraph, rank: bool) -> Personalized<'g> {
        let q = pqp_sql::parse_query("select MV.title from MOVIE MV").unwrap();
        let mut opts = PersonalizeOptions::builder().k(3).l(1).build();
        opts.rank = rank;
        personalize(&q, g, db.catalog(), opts).unwrap()
    }

    fn graph(db: &Database) -> InMemoryGraph {
        InMemoryGraph::build(&profile(), db.catalog()).unwrap()
    }

    /// Canonical order: interest descending (NULL last), title ascending.
    fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| {
            let key = |r: &Vec<Value>| match r[1] {
                Value::Float(f) => (0, -f),
                _ => (1, 0.0),
            };
            key(a).partial_cmp(&key(b)).unwrap().then_with(|| a[0].cmp(&b[0]))
        });
        rows
    }

    #[test]
    fn native_matches_ranked_mq() {
        let db = movie_db();
        let g = graph(&db);
        let p = personalized(&db, &g, true);
        let native = build_execution(&db, &p, Rewrite::NativeRank, None).unwrap();
        assert_eq!(native.rewrite, Rewrite::NativeRank);
        let got = db.run_plan(&native.plan).unwrap();
        assert_eq!(got.columns, vec!["title", "interest"]);
        let mq = db.run_query(&p.mq().unwrap()).unwrap();
        assert_eq!(canonical(got.rows), canonical(mq.rows));
    }

    #[test]
    fn native_top_n_truncates_after_ranking() {
        let db = movie_db();
        let g = graph(&db);
        let p = personalized(&db, &g, true);
        let choice = crate::rank::top_n(&db, &p, 2).unwrap();
        let got = db.run_plan(&choice.plan).unwrap();
        assert_eq!(got.rows.len(), 2);
        // The full ranked MQ result, canonically cut to 2, must agree.
        let mq = canonical(db.run_query(&p.mq().unwrap()).unwrap().rows);
        assert_eq!(canonical(got.rows), mq[..2].to_vec());
    }

    #[test]
    fn auto_resolves_and_reports_candidates() {
        let db = movie_db();
        let g = graph(&db);
        let p = personalized(&db, &g, false);
        let choice = choose(&db, &p, None).unwrap();
        assert_ne!(choice.rewrite, Rewrite::Auto);
        // Unranked: SQ, MQ and native all compete.
        assert_eq!(choice.alternatives.len(), 3, "{:?}", choice.alternatives);
        assert!(choice.alternatives.iter().all(|(_, c)| *c >= choice.cost));
        assert!(choice.summary().contains("strategy: "));
        // Ranked: SQ drops out.
        let ranked = choose(&db, &personalized(&db, &g, true), None).unwrap();
        assert_eq!(ranked.alternatives.len(), 2);
    }

    #[test]
    fn explicit_native_falls_back_to_mq_when_unsupported() {
        let db = movie_db();
        let g = graph(&db);
        let mut p = personalized(&db, &g, true);
        // Force an unsupported shape: a path with no condition at all.
        p.paths.push(crate::path::PreferencePath::anchor("MV", "MOVIE"));
        let choice = build_execution(&db, &p, Rewrite::NativeRank, None).unwrap();
        assert_eq!(choice.rewrite, Rewrite::Mq);
        assert!(matches!(choice.execution, Execution::Sql(_)));
    }
}
