//! Per-query execution-strategy choice: SQ vs MQ vs the native rank
//! operator, priced before any of them is built.
//!
//! The paper compares its two SQL integrations (SQ and MQ) and observes
//! that neither dominates: SQ degrades combinatorially with `C(K−M, L)`
//! while MQ pays one partial query per optional preference. The native
//! rank operator ([`pqp_engine::topk`]) adds a third execution shape that
//! avoids both blow-ups but pays witness probes per preference.
//! [`build_execution`] with [`Rewrite::Auto`] picks between them **per
//! query**, in two steps.
//!
//! 1. **Price.** Every candidate gets a closed-form price from what
//!    preference selection produced (the K paths, M, L), the catalog's
//!    statistics, and one estimate of the *base*: the original FROM and
//!    WHERE plus the mandatory preferences. Nothing is integrated,
//!    OR-expanded or planned; [`Estimator::price_join`] prices a join from
//!    its factors' tables, selectivities and edges as the estimator would
//!    price the planned tree.
//!    - **MQ** ≈ the sum of its K−M partials (the base joined with one path
//!      each), plus the union and the grouping over it;
//!    - **SQ** ≈ its `C(K−M, L)` OR-expanded branches: at L = 1 the joins
//!      of MQ's partials under one union, or the base under one OR filter
//!      when every path selects on a query variable (nothing to expand);
//!      at L = 0, or when the query already states a path's condition, the
//!      base alone;
//!    - **native** ≈ base + every witness set + rows(base) · (K−M) probe
//!      tests, the operator's own cost (DESIGN §16.4).
//! 2. **Build.** The cheapest candidate is integrated and planned. Another
//!    one is built too only when its price is within `BUILD_WITHIN` (1.1×)
//!    of that one's, too close for a price to call, and then the exact
//!    [`Estimator::cost`]s decide; equal costs keep MQ (the paper's
//!    default). A candidate that turns out unbuildable drops out, and the
//!    next price is built.
//!
//! Candidate sets respect expressiveness, and no price may change an
//! answer:
//!
//! - SQ cannot rank, cannot apply a minimum-degree threshold and cannot
//!   honor a top-N limit, so it competes only for plain matching queries —
//!   and only at L ≤ 1. Above that SQ returns a subset of MQ's answer (it
//!   needs one witness to satisfy L preferences together; MQ counts them
//!   over all witnesses of a row);
//! - MQ and native rank (which returns MQ's answer) compete everywhere; a
//!   native-unsupported shape (see [`crate::integrate::integrate_native`])
//!   drops out when it is built.
//!
//! A ranked top-N `limit` is a `Limit` node above whichever candidate is
//! built. [`StrategyChoice::alternatives`] reports every candidate: a
//! built one with its plan's cost, the others with their prices.

use crate::error::{PrefError, Result};
use crate::integrate::MatchSpec;
use crate::path::PreferencePath;
use crate::personalize::{Personalized, Rewrite};
use pqp_engine::cost::DEFAULT_FALLBACK;
use pqp_engine::plan::Plan;
use pqp_engine::{Database, Estimate, Estimator, PricedEdge, PricedFactor};
use pqp_sql::ast::{Expr, Select, TableFactor};
use pqp_sql::BinaryOp;
use pqp_storage::Value;

/// How close two prices must be for the exact plan costs to decide: a
/// candidate priced within this factor of the cheapest built one is built
/// and planned too. Prices equal plan costs to 1e-5 on the benchmark's
/// populations; the margin is for what they approximate (non-equality
/// conjuncts, to-one prefixes a mandatory path shares).
const BUILD_WITHIN: f64 = 1.1;

/// A candidate's cost as [`StrategyChoice::alternatives`] reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidateCost {
    /// The estimated cost of the candidate's built plan.
    Plan(f64),
    /// The candidate's closed-form price; it was not built.
    Price(f64),
}

impl CandidateCost {
    /// The figure, however it was obtained.
    pub fn value(self) -> f64 {
        match self {
            CandidateCost::Plan(c) | CandidateCost::Price(c) => c,
        }
    }
}

/// The outcome of strategy resolution: the winning rewrite, its plan, and
/// the cost of every candidate for EXPLAIN output.
#[derive(Debug, Clone)]
pub struct StrategyChoice {
    /// The resolved rewrite — never [`Rewrite::Auto`]; an explicitly
    /// requested [`Rewrite::NativeRank`] that the query's shape does not
    /// support resolves to [`Rewrite::Mq`] (reported honestly here).
    pub rewrite: Rewrite,
    /// Its plan (reusable; cacheable by the serving layer).
    pub plan: Plan,
    /// The estimated cost of `plan`.
    pub cost: f64,
    /// The estimated number of rows `plan` produces (from the same pass
    /// over the plan that priced it).
    pub est_rows: f64,
    /// Every candidate that competed, in evaluation order (MQ, SQ, native):
    /// its plan's cost if it was built, its price if not. A candidate that
    /// turned out unbuildable is left out.
    pub alternatives: Vec<(Rewrite, CandidateCost)>,
}

impl StrategyChoice {
    /// One-line summary for EXPLAIN output: the chosen strategy, its
    /// estimated cost, and the alternatives' costs (`SQ=…`) or prices
    /// (`SQ~=…`).
    pub fn summary(&self) -> String {
        let alts: Vec<String> = (self.alternatives.iter())
            .map(|(rw, c)| match c {
                CandidateCost::Plan(c) => format!("{}={c:.0}", rw.label()),
                CandidateCost::Price(c) => format!("{}~={c:.0}", rw.label()),
            })
            .collect();
        format!(
            "strategy: {} (est_cost={:.0}; candidates: {})",
            self.rewrite,
            self.cost,
            alts.join(", ")
        )
    }
}

/// The one way into the strategy layer: build the plan for a rewrite,
/// pricing the candidates for [`Rewrite::Auto`] (see the module header)
/// and falling back from an unsupported explicit [`Rewrite::NativeRank`]
/// to MQ.
///
/// `limit` is a ranked top-N cut (`None` for the full result); it is only
/// meaningful when `p.rank` is set. Every rewrite plans it as a `Limit`
/// node above the ranked result (SQL `LIMIT`, or a `Limit` over the native
/// operator).
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

/// Price every candidate, then build the cheapest (and any priced too
/// close to it to call) and keep the cheapest plan.
fn choose(db: &Database, p: &Personalized<'_>, limit: Option<u64>) -> Result<StrategyChoice> {
    let _span = pqp_obs::span("strategy.choose");
    // MQ first: ties keep it.
    let mut candidates = vec![Rewrite::Mq];
    if !p.rank && limit.is_none() && matches!(p.matching, MatchSpec::AtLeast(l) if l <= 1) {
        candidates.push(Rewrite::Sq);
    }
    candidates.push(Rewrite::NativeRank);

    // One estimator prices and costs every candidate: they read the same
    // tables.
    let estimator = Estimator::new(db.catalog());
    let prices = prices(&estimator, p, &candidates, limit);
    let mut costs: Vec<Option<CandidateCost>> =
        prices.iter().map(|&price| Some(CandidateCost::Price(price))).collect();
    // Cheapest price first; equal prices keep the candidate order.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| prices[a].total_cmp(&prices[b]));

    let mut best: Option<(usize, StrategyChoice)> = None;
    let mut cheapest_built: Option<f64> = None;
    let mut last_err: Option<PrefError> = None;
    for i in order {
        if cheapest_built.is_some_and(|floor| prices[i] > BUILD_WITHIN * floor) {
            continue;
        }
        let rw = candidates[i];
        let plan = match build_one(db, p, rw, limit) {
            Ok(built) => built,
            // Shapes a candidate cannot express drop out of the race.
            Err(e @ (PrefError::UnsupportedQuery(_) | PrefError::TooManyCombinations { .. })) => {
                costs[i] = None;
                last_err = Some(e);
                continue;
            }
            Err(e) => return Err(e),
        };
        cheapest_built.get_or_insert(prices[i]);
        let Estimate { rows, cost, .. } = estimator.estimate(&plan);
        costs[i] = Some(CandidateCost::Plan(cost));
        if best.as_ref().is_none_or(|(j, b)| cost < b.cost || (cost == b.cost && i < *j)) {
            let choice = StrategyChoice {
                rewrite: rw,
                plan,
                cost,
                est_rows: rows,
                alternatives: Vec::new(),
            };
            best = Some((i, choice));
        }
    }
    let (_, mut choice) = best.ok_or_else(|| {
        last_err.unwrap_or_else(|| PrefError::Internal("no strategy candidate".into()))
    })?;
    choice.alternatives =
        candidates.into_iter().zip(costs).filter_map(|(rw, c)| Some((rw, c?))).collect();
    pqp_obs::record("strategy", choice.rewrite.label());
    Ok(choice)
}

/// Build one candidate's plan.
fn build_one(db: &Database, p: &Personalized<'_>, rw: Rewrite, limit: Option<u64>) -> Result<Plan> {
    match rw {
        Rewrite::NativeRank => {
            let mut spec = p.native()?;
            spec.limit = limit;
            Ok(db.plan_topk(&spec)?)
        }
        Rewrite::Auto => Err(PrefError::Internal("Auto is resolved before build_one".into())),
        other => {
            let mut q = p.rewritten(other)?;
            if limit.is_some() {
                q.limit = limit;
            }
            Ok(db.plan(&q)?)
        }
    }
}

/// Wrap an explicitly-requested rewrite's plan as a [`StrategyChoice`].
fn resolved(db: &Database, rw: Rewrite, plan: Plan) -> StrategyChoice {
    let Estimate { rows, cost, .. } = Estimator::new(db.catalog()).estimate(&plan);
    StrategyChoice {
        rewrite: rw,
        plan,
        cost,
        est_rows: rows,
        alternatives: vec![(rw, CandidateCost::Plan(cost))],
    }
}

/// The closed-form price of each of `candidates` (see the module header).
/// A query the model cannot read — a derived table in FROM, a path
/// anchored at no FROM variable — prices every candidate alike, so every
/// one of them is built.
fn prices(
    est: &Estimator<'_>,
    p: &Personalized<'_>,
    candidates: &[Rewrite],
    limit: Option<u64>,
) -> Vec<f64> {
    let priced = Prices::of(est, p, limit);
    (candidates.iter())
        .map(|rw| match (&priced, rw) {
            (None, _) => 0.0,
            (Some(pr), Rewrite::Sq) => pr.sq,
            (Some(pr), Rewrite::NativeRank) => pr.native,
            (Some(pr), _) => pr.mq,
        })
        .collect()
}

/// The three prices of one personalized query.
struct Prices {
    mq: f64,
    sq: f64,
    native: f64,
}

impl Prices {
    fn of(est: &Estimator<'_>, p: &Personalized<'_>, limit: Option<u64>) -> Option<Prices> {
        let mut base = Shape::of(est, p.select())?;
        for path in &p.paths[..p.m] {
            base.add_path(est, path)?;
        }
        // The one base estimate: what every partial, branch and the
        // native operator's input repeat.
        let (base_rows, base_join) = base.join(est);
        // A projected, deduplicated base: SQ at L = 0, MQ's bare partial,
        // the native operator's input.
        let base_cost = base_join + 2.0 * base_rows;

        let optional = &p.paths[p.m..];
        let (mut partials, mut union_rows, mut witnesses) = (0.0, 0.0, 0.0);
        let mut implied = false;
        // SQ's OR filter when no path joins: its selectivity, combined as
        // the estimator combines a disjunction, and the factor it filters
        // when every path selects on the same one.
        let (mut or_keeps, mut or_factor, mut one_factor) = (0.0, None, true);
        let mut joins = false;
        let mut partial = Shape::new();
        for path in optional {
            // One partial query (an SQ branch at L = 1): the base joined
            // with this path, projected and deduplicated.
            partial.reset_to(&base);
            let (rows, cost) = if partial.add_path(est, path)? {
                partial.join(est)
            } else {
                implied = true;
                (base_rows, base_join)
            };
            partials += cost + 2.0 * rows;
            union_rows += rows;
            match (&path.selection, path.joins.is_empty()) {
                (Some(sel), true) => {
                    let f = base.factor(&path.start_var)?;
                    let keeps =
                        est.eq_selectivity(base.factors[f].table, &sel.attr.column, &sel.value);
                    or_keeps = match or_factor {
                        None => keeps,
                        Some(_) => or_keeps + keeps - or_keeps * keeps,
                    };
                    one_factor &= *or_factor.get_or_insert(f) == f;
                }
                _ => {
                    joins = true;
                    witnesses += witness(est, path);
                }
            }
        }

        let n = optional.len();
        // Nothing to satisfy: SQ is the base, and MQ unions a bare partial.
        let bare = matches!(p.matching, MatchSpec::AtLeast(0)) || n == 0;
        let sq = if bare || implied {
            base_cost
        } else if n == 1 {
            partials
        } else if !joins {
            // Every branch keeps every FROM factor, so OR-expansion leaves
            // the disjunction as one filter: on its factor, or over the join.
            let (rows, cost) = match or_factor.filter(|_| one_factor) {
                Some(f) => {
                    partial.reset_to(&base);
                    partial.factors[f].selectivity *= or_keeps;
                    partial.join(est)
                }
                None => {
                    let kept = base_rows * or_keeps;
                    (kept, base_join + kept)
                }
            };
            cost + 2.0 * rows
        } else {
            partials + union_rows
        };

        // MQ: the partials (plus the bare one) under UNION ALL, the derived
        // table's projection and GROUP BY (as many groups as rows: a union's
        // columns have no statistics), then HAVING (which keeps half), the
        // outer projection, ORDER BY and LIMIT.
        let mut mq = partials;
        let mut rows = union_rows;
        if bare {
            mq += base_cost;
            rows += base_rows;
        }
        mq += 3.0 * rows;
        if matches!(p.matching, MatchSpec::AtLeast(l) if l <= 1) {
            mq += rows;
        } else {
            rows *= DEFAULT_FALLBACK;
            mq += 2.0 * rows;
        }
        if p.rank {
            mq += rows;
        }
        if let Some(limit) = limit {
            mq += rows.min(limit as f64);
        }

        let mut native = base_cost + witnesses + base_rows * n as f64;
        if let Some(limit) = limit {
            // The Limit above the operator: at most one row per base row.
            native += base_rows.min(limit as f64);
        }
        Some(Prices { mq, sq, native })
    }
}

/// The standalone witness query of a path with joins, priced: its chain
/// with the selection at the end, projected and deduplicated.
fn witness(est: &Estimator<'_>, path: &PreferencePath<'_>) -> f64 {
    let mut chain = Shape::new();
    if let (Some(last), Some(sel)) = (chain.push_chain(path, None), &path.selection) {
        chain.select(est, last, &sel.attr.column, &sel.value);
    }
    let (rows, cost) = chain.join(est);
    cost + 2.0 * rows
}

/// A join as [`Estimator::price_join`] prices it, and what pricing needs to
/// read preference paths into it: the FROM variables and the
/// `variable.column = literal` conditions already stated.
struct Shape<'a> {
    /// The tuple variable of each of the query's own factors.
    bindings: Vec<&'a str>,
    factors: Vec<PricedFactor<'a>>,
    edges: Vec<PricedEdge<'a>>,
    /// `(factor, column, literal)` of every stated equality selection.
    stated: Vec<(usize, &'a str, &'a Value)>,
    /// Selectivity of the query's conjuncts that are neither selections nor
    /// equi-joins, priced as one filter over the join.
    residual: f64,
}

impl<'a> Shape<'a> {
    fn new() -> Shape<'a> {
        Shape {
            bindings: Vec::new(),
            factors: Vec::new(),
            edges: Vec::new(),
            stated: Vec::new(),
            residual: 1.0,
        }
    }

    /// The query block's FROM factors and WHERE conjuncts; `None` for a
    /// derived table in FROM.
    fn of(est: &Estimator<'_>, select: &'a Select) -> Option<Shape<'a>> {
        let mut shape = Shape::new();
        for f in &select.from {
            let TableFactor::Table { name, .. } = f else { return None };
            shape.bindings.push(f.binding_name());
            shape.factors.push(PricedFactor { table: name, selectivity: 1.0, index_scan: false });
        }
        let conjuncts = select.selection.as_ref().map(Expr::conjuncts).unwrap_or_default();
        for c in conjuncts {
            let Expr::Binary { left, op: BinaryOp::Eq, right } = c else {
                shape.residual *= DEFAULT_FALLBACK;
                continue;
            };
            match (shape.column(left), shape.column(right), &**left, &**right) {
                (Some(a), Some(b), ..) if a.0 != b.0 => shape.edges.push((a, b)),
                (Some((f, column)), None, _, Expr::Literal(v))
                | (None, Some((f, column)), Expr::Literal(v), _) => shape.select(est, f, column, v),
                _ => shape.residual *= DEFAULT_FALLBACK,
            }
        }
        Some(shape)
    }

    /// The factor a qualified column belongs to, and the column.
    fn column(&self, e: &'a Expr) -> Option<(usize, &'a str)> {
        match e {
            Expr::Column { qualifier: Some(q), name } => Some((self.factor(q)?, name)),
            _ => None,
        }
    }

    /// The factor of a FROM tuple variable.
    fn factor(&self, var: &str) -> Option<usize> {
        self.bindings.iter().position(|b| b.eq_ignore_ascii_case(var))
    }

    /// Become a copy of `other`, reusing this shape's buffers.
    fn reset_to(&mut self, other: &Shape<'a>) {
        self.bindings.clone_from(&other.bindings);
        self.factors.clone_from(&other.factors);
        self.edges.clone_from(&other.edges);
        self.stated.clone_from(&other.stated);
        self.residual = other.residual;
    }

    /// Add a preference path's conditions: its join chain as new factors
    /// hanging off its anchor variable, and its selection on the chain's
    /// last factor (on the anchor itself for a path without joins).
    /// `Some(false)` when the query already states that path's selection
    /// (the path is implied); `None` when it is anchored at no variable of
    /// the query.
    fn add_path(&mut self, est: &Estimator<'_>, path: &'a PreferencePath<'_>) -> Option<bool> {
        let anchor = self.factor(&path.start_var)?;
        let last = self.push_chain(path, Some(anchor)).unwrap_or(anchor);
        let Some(sel) = &path.selection else { return Some(true) };
        let implied = path.joins.is_empty()
            && (self.stated.iter()).any(|&(f, column, v)| {
                f == anchor && column.eq_ignore_ascii_case(&sel.attr.column) && *v == *sel.value
            });
        if !implied {
            self.select(est, last, &sel.attr.column, &sel.value);
        }
        Some(!implied)
    }

    /// Append a path's join chain as new factors, the first one joined to
    /// `anchor` when given; the chain's last factor, if it has joins.
    fn push_chain(&mut self, path: &'a PreferencePath<'_>, anchor: Option<usize>) -> Option<usize> {
        let mut prev = anchor;
        let mut last = None;
        for hop in &path.joins {
            let f = self.factors.len();
            self.factors.push(PricedFactor {
                table: &hop.to.table,
                selectivity: 1.0,
                index_scan: false,
            });
            if let Some(p) = prev {
                self.edges.push(((p, &hop.from.column), (f, &hop.to.column)));
            }
            prev = Some(f);
            last = Some(f);
        }
        last
    }

    /// State `column = value` on factor `f`: it filters the factor, and an
    /// index on the column makes the factor an index scan.
    fn select(&mut self, est: &Estimator<'_>, f: usize, column: &'a str, value: &'a Value) {
        let factor = &mut self.factors[f];
        factor.selectivity *= est.eq_selectivity(factor.table, column, value);
        factor.index_scan |= !value.is_null() && est.has_index(factor.table, column);
        self.stated.push((f, column, value));
    }

    /// `(rows, cost)` of the planned join, its residual filter included.
    fn join(&self, est: &Estimator<'_>) -> (f64, f64) {
        let (rows, cost) = est.price_join(&self.factors, &self.edges);
        if self.residual < 1.0 {
            let kept = rows * self.residual;
            (kept, cost + kept)
        } else {
            (rows, cost)
        }
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
        let choice = build_execution(&db, &p, Rewrite::NativeRank, Some(2)).unwrap();
        assert_eq!(choice.rewrite, Rewrite::NativeRank);
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
        // Unranked at L = 1: MQ, SQ and native all compete, in that order.
        let listed: Vec<Rewrite> = choice.alternatives.iter().map(|(rw, _)| *rw).collect();
        assert_eq!(listed, [Rewrite::Mq, Rewrite::Sq, Rewrite::NativeRank]);
        // The winner was built; nothing reported is cheaper than it.
        let winner = choice.alternatives.iter().find(|(rw, _)| *rw == choice.rewrite).unwrap();
        assert_eq!(winner.1, CandidateCost::Plan(choice.cost));
        assert!(choice.alternatives.iter().all(|(_, c)| c.value() >= choice.cost));
        // A candidate left unbuilt was priced out of the build window.
        for (rw, c) in &choice.alternatives {
            if let CandidateCost::Price(price) = c {
                assert!(*price > BUILD_WITHIN * choice.cost, "{rw} ~= {price} vs {}", choice.cost);
                assert!(choice.summary().contains(&format!("{}~=", rw.label())));
            }
        }
        assert!(choice.summary().contains("strategy: "));
        // Ranked: SQ drops out.
        let ranked = choose(&db, &personalized(&db, &g, true), None).unwrap();
        assert_eq!(ranked.alternatives.len(), 2);
    }

    #[test]
    fn prices_are_the_plan_costs_of_the_built_candidates() {
        let db = movie_db();
        let g = graph(&db);
        // Unlimited, and a ranked top-2, which SQ cannot express.
        for (rank, limit) in [(false, None), (true, None), (true, Some(2))] {
            let p = personalized(&db, &g, rank);
            let candidates = [Rewrite::Mq, Rewrite::Sq, Rewrite::NativeRank];
            let est = Estimator::new(db.catalog());
            for (rw, price) in candidates.into_iter().zip(prices(&est, &p, &candidates, limit)) {
                if rw == Rewrite::Sq && limit.is_some() {
                    continue;
                }
                let built = build_execution(&db, &p, rw, limit).unwrap();
                let off = (price - built.cost).abs() / built.cost;
                let at = format!("{rw} rank={rank} limit={limit:?}");
                assert!(off < 1e-9, "{at}: price {price} vs plan cost {}", built.cost);
            }
        }
    }

    #[test]
    fn sq_competes_only_where_its_answer_is_mqs() {
        let db = movie_db();
        let g = graph(&db);
        let q = pqp_sql::parse_query("select MV.title from MOVIE MV").unwrap();
        for (l, sq) in [(0, true), (1, true), (2, false), (3, false)] {
            let opts = PersonalizeOptions::builder().k(3).l(l).build();
            let p = personalize(&q, &g, db.catalog(), opts).unwrap();
            let choice = choose(&db, &p, None).unwrap();
            let competes = choice.alternatives.iter().any(|(rw, _)| *rw == Rewrite::Sq);
            assert_eq!(competes, sq, "L = {l}: {}", choice.summary());
        }
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
    }
}
