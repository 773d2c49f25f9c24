//! Preference integration (§6): producing the personalized query.
//!
//! Two equivalent constructions are implemented:
//!
//! - **SQ** (single query): one complex qualification — the conjunction of
//!   the mandatory conditions with the disjunction of all conflict-free
//!   conjunctions of `L` optional preferences;
//! - **MQ** (multiple queries): one partial query per optional preference,
//!   `UNION ALL`-ed, grouped by the original projection, `HAVING
//!   COUNT(*) ≥ L` — optionally ranked by the `DEGREE_OF_CONJUNCTION`
//!   aggregate and/or filtered by a minimum estimated degree.
//!
//! Conflicting preferences are never conjoined (they would yield an empty
//! result); tuple variables follow the sharing rules of [`crate::vars`].

use crate::conflict::conflicts_between;
use crate::error::{PrefError, Result};
use crate::path::PreferencePath;
use crate::vars::{PathVars, VarAllocator};
use pqp_engine::planner::expr_eq_ci;
use pqp_sql::ast::{Expr, Query, Select, SelectItem, TableFactor};
use pqp_sql::builder as b;
use pqp_storage::Value;
use std::sync::Arc;

/// Hard cap on the number of conjunctions SQ may enumerate.
pub const SQ_COMBINATION_LIMIT: u128 = 100_000;

/// Column alias used for the degree-of-interest column in MQ partials.
pub const DOI_COLUMN: &str = "pqp_doi";
/// Column alias of the estimated interest in ranked MQ output.
pub const INTEREST_COLUMN: &str = "interest";

/// How the "at least L" requirement is expressed (§6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchSpec {
    /// Every result row must satisfy at least this many of the optional
    /// preferences.
    AtLeast(usize),
    /// Every result row's estimated degree of interest (conjunction of the
    /// degrees of the preferences it satisfies) must exceed this threshold.
    /// Only expressible in the MQ rewrite (the paper makes the same point).
    MinDegree(f64),
}

/// The shared copies of the names one integration writes: every attribute
/// and table name is allocated once, however many partial queries, branches
/// and witnesses repeat it.
#[derive(Default)]
struct Names<'a>(Vec<(&'a str, Arc<str>)>);

impl<'a> Names<'a> {
    fn get(&mut self, name: &'a str) -> Arc<str> {
        if let Some((_, shared)) = self.0.iter().find(|(n, _)| *n == name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(name);
        self.0.push((name, Arc::clone(&shared)));
        shared
    }
}

/// Render the atomic conditions of a path under an allocation: one equality
/// per join hop plus the final selection.
fn path_conditions<'a>(
    path: &'a PreferencePath<'_>,
    vars: &PathVars,
    names: &mut Names<'a>,
) -> Vec<Expr> {
    let mut out = Vec::with_capacity(path.joins.len() + 1);
    let mut current = &path.start_var;
    for (j, var) in path.joins.iter().zip(&vars.hop_vars) {
        out.push(b::eq(
            b::col(Arc::clone(current), names.get(&j.from.column)),
            b::col(Arc::clone(var), names.get(&j.to.column)),
        ));
        current = var;
    }
    if let Some(sel) = &path.selection {
        out.push(b::eq(
            b::col(Arc::clone(current), names.get(&sel.attr.column)),
            Expr::Literal(Value::clone(&sel.value)),
        ));
    }
    out
}

/// FROM factors for the variables a set of conditions introduces.
fn factors_for<'a>(
    paths: &[(&'a PreferencePath<'_>, &PathVars)],
    names: &mut Names<'a>,
) -> Vec<TableFactor> {
    let mut seen: Vec<&Arc<str>> = Vec::new();
    let mut out = Vec::new();
    for &(path, vars) in paths {
        for (j, var) in path.joins.iter().zip(&vars.hop_vars) {
            if !seen.iter().any(|v| v.eq_ignore_ascii_case(var)) {
                seen.push(var);
                out.push(b::table(names.get(&j.to.table), Arc::clone(var)));
            }
        }
    }
    out
}

/// Deduplicating conjunct accumulator (repeated conditions are removed, §6).
#[derive(Default)]
struct ConjunctSet {
    exprs: Vec<Expr>,
}

impl ConjunctSet {
    fn contains(&self, e: &Expr) -> bool {
        self.exprs.iter().any(|x| expr_eq_ci(x, e))
    }

    fn push(&mut self, e: Expr) {
        if !self.contains(&e) {
            self.exprs.push(e);
        }
    }
}

/// The top-level conjuncts of a query's own qualification.
fn initial_conjuncts(select: &Select) -> Vec<&Expr> {
    select.selection.as_ref().map(Expr::conjuncts).unwrap_or_default()
}

/// Whether `e` is one of `conjuncts` (conditions the query already states
/// are not repeated, §6).
fn mentions(conjuncts: &[&Expr], e: &Expr) -> bool {
    conjuncts.iter().any(|x| expr_eq_ci(x, e))
}

/// The tuple variables of the query's own FROM clause, which generated
/// variables must avoid.
fn query_vars(select: &Select) -> impl Iterator<Item = &str> {
    select.from.iter().map(TableFactor::binding_name)
}

/// The query's conditions plus the integrated ones, as one qualification.
fn qualification(select: &Select, integrated: impl IntoIterator<Item = Expr>) -> Option<Expr> {
    b::and_all(select.selection.iter().cloned().chain(integrated))
}

/// Validate and normalize (m, l) against the number of selected preferences.
fn check_params(k: usize, m: usize, spec: MatchSpec) -> Result<usize> {
    if m > k {
        return Err(PrefError::InvalidParams(format!("M = {m} exceeds K = {k}")));
    }
    match spec {
        MatchSpec::AtLeast(l) => {
            if l > k - m {
                return Err(PrefError::InvalidParams(format!("L = {l} exceeds K − M = {}", k - m)));
            }
            Ok(l)
        }
        MatchSpec::MinDegree(d) => {
            if !(0.0..=1.0).contains(&d) {
                return Err(PrefError::InvalidParams(format!("minimum degree {d} not in [0,1]")));
            }
            Ok(0)
        }
    }
}

/// Number of `l`-subsets of `n`, saturating.
fn binomial(n: usize, l: usize) -> u128 {
    if l > n {
        return 0;
    }
    let l = l.min(n - l);
    let mut acc: u128 = 1;
    for i in 0..l {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    acc
}

/// Build the SQ (single-query) personalization of `select`.
///
/// `paths` must be in decreasing degree order (the output of preference
/// selection); the first `m` are mandatory. `spec` must be
/// [`MatchSpec::AtLeast`] — the degree-threshold variant needs the MQ shape.
pub fn integrate_sq(
    select: &Select,
    paths: &[PreferencePath<'_>],
    m: usize,
    spec: MatchSpec,
) -> Result<Query> {
    let _span = pqp_obs::span("integrate.sq");
    pqp_obs::record("paths", paths.len());
    pqp_obs::record("mandatory", m);
    let MatchSpec::AtLeast(l) = spec else {
        return Err(PrefError::InvalidParams(
            "a minimum-degree threshold requires the MQ rewrite".into(),
        ));
    };
    let l = check_params(paths.len(), m, spec).map(|_| l)?;

    let mut names = Names::default();
    let all_vars = VarAllocator::new(query_vars(select)).allocate(paths);
    let initial = initial_conjuncts(select);

    // Mandatory part.
    let mut mandatory = ConjunctSet::default();
    for (p, v) in paths[..m].iter().zip(&all_vars[..m]) {
        for c in path_conditions(p, v, &mut names) {
            if !mentions(&initial, &c) {
                mandatory.push(c);
            }
        }
    }

    // Optional part: the disjunction of all conflict-free L-subsets.
    let optional: Vec<(&PreferencePath, &PathVars)> =
        paths[m..].iter().zip(&all_vars[m..]).collect();
    let n = optional.len();
    let mut or_branches: Vec<Expr> = Vec::new();
    if l > 0 {
        let combos = binomial(n, l);
        if combos > SQ_COMBINATION_LIMIT {
            return Err(PrefError::TooManyCombinations {
                combinations: combos,
                limit: SQ_COMBINATION_LIMIT,
            });
        }
        // Conflict matrix.
        let mut conflict = vec![vec![false; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if conflicts_between(optional[i].0, optional[j].0) {
                    conflict[i][j] = true;
                    conflict[j][i] = true;
                }
            }
        }
        // Each optional preference's new conditions, rendered once and
        // copied into every combination that includes it.
        let conditions: Vec<Vec<Expr>> = (optional.iter())
            .map(|(p, v)| {
                let mut conds = path_conditions(p, v, &mut names);
                conds.retain(|c| !mentions(&initial, c) && !mandatory.contains(c));
                conds
            })
            .collect();
        let mut subset: Vec<usize> = Vec::with_capacity(l);
        // A combination whose every condition the query (or the mandatory
        // part) already states is TRUE, and so is the whole disjunction.
        let mut implied = false;
        enumerate_subsets(n, l, 0, &mut subset, &conflict, &mut |chosen| {
            let mut cs = ConjunctSet::default();
            for &i in chosen {
                for c in &conditions[i] {
                    if !cs.contains(c) {
                        cs.exprs.push(c.clone());
                    }
                }
            }
            match b::and_all(cs.exprs) {
                Some(e) => or_branches.push(e),
                None => implied = true,
            }
        });
        if implied {
            or_branches.clear();
        } else if or_branches.is_empty() {
            // No conflict-free combination exists: nothing can satisfy L
            // preferences simultaneously.
            or_branches.push(Expr::Literal(Value::Bool(false)));
        }
    }

    // FROM: original factors plus the variables the included conditions
    // actually reference (with L = 0 no optional condition is included, so
    // no optional variable may appear — it would cross-product).
    let mut referenced: Vec<&str> = Vec::new();
    for e in mandatory.exprs.iter().chain(&or_branches) {
        e.referenced_qualifiers(&mut referenced);
    }
    let used: Vec<(&PreferencePath, &PathVars)> = paths.iter().zip(&all_vars).collect();
    let mut from = select.from.clone();
    from.extend(
        factors_for(&used, &mut names)
            .into_iter()
            .filter(|f| referenced.iter().any(|q| q.eq_ignore_ascii_case(f.binding_name()))),
    );

    Ok(Query::from_select(Select {
        distinct: true,
        projection: select.projection.clone(),
        from,
        selection: qualification(select, mandatory.exprs.into_iter().chain(b::or_all(or_branches))),
        group_by: Vec::new(),
        having: None,
    }))
}

fn enumerate_subsets(
    n: usize,
    l: usize,
    start: usize,
    subset: &mut Vec<usize>,
    conflict: &[Vec<bool>],
    emit: &mut impl FnMut(&[usize]),
) {
    if subset.len() == l {
        emit(subset);
        return;
    }
    for i in start..n {
        if subset.iter().any(|&j| conflict[j][i]) {
            continue; // conjunctions containing conflicting pairs are excluded
        }
        subset.push(i);
        enumerate_subsets(n, l, i + 1, subset, conflict, emit);
        subset.pop();
    }
}

/// Build the MQ (multiple-queries) personalization of `select`.
///
/// `rank` adds the `DEGREE_OF_CONJUNCTION` interest column and orders the
/// result by it (descending) — the paper's ranking option.
pub fn integrate_mq(
    select: &Select,
    paths: &[PreferencePath<'_>],
    m: usize,
    spec: MatchSpec,
    rank: bool,
) -> Result<Query> {
    let _span = pqp_obs::span("integrate.mq");
    pqp_obs::record("paths", paths.len());
    pqp_obs::record("mandatory", m);
    check_params(paths.len(), m, spec)?;
    let proj = mq_projection(select)?;
    let columns: Vec<Arc<str>> = (0..proj.len()).map(|i| format!("pqp_c{i}").into()).collect();
    let doi_column: Arc<str> = Arc::from(DOI_COLUMN);
    let partial =
        Partial { select, initial: initial_conjuncts(select), proj: &proj, columns: &columns };

    let optional = &paths[m..];
    let mut partials: Vec<Select> = Vec::new();
    let mut names = Names::default();

    // With L = 0 (or a pure degree threshold) rows satisfying only the
    // mandatory part must also appear: emit a preference-free partial whose
    // doi is NULL (ignored by the DEGREE aggregates).
    let include_bare = matches!(spec, MatchSpec::AtLeast(0)) || optional.is_empty();
    if include_bare {
        let mut bare = partial.build(&paths[..m], &mut names);
        bare.projection.push(b::item_as(Expr::Literal(Value::Null), Arc::clone(&doi_column)));
        partials.push(bare);
    }
    for p in optional {
        let mut arm = partial.build(paths[..m].iter().chain([p]), &mut names);
        let doi = Expr::Literal(Value::Float(p.doi.value()));
        arm.projection.push(b::item_as(doi, Arc::clone(&doi_column)));
        partials.push(arm);
    }

    pqp_obs::record("partials", partials.len());
    pqp_obs::counter_add("integrate.partials", partials.len() as i64);
    let union = b::union_all(partials)
        .ok_or_else(|| PrefError::Internal("MQ integration built no partial query".into()))?;
    let temp = b::derived(Query { body: union, order_by: Vec::new(), limit: None }, "PQP_TEMP");

    // Outer query: group by the projected columns, filter by L or degree,
    // optionally rank.
    let mut projection: Vec<SelectItem> = (proj.iter().zip(&columns))
        .map(|((_, display), column)| {
            b::item_as(b::bare_col(Arc::clone(column)), Arc::clone(display))
        })
        .collect();
    if rank {
        projection.push(b::item_as(
            b::func("DEGREE_OF_CONJUNCTION", vec![b::bare_col(Arc::clone(&doi_column))]),
            INTEREST_COLUMN,
        ));
    }
    let having = match spec {
        MatchSpec::AtLeast(l) => {
            if l <= 1 {
                None // every row of the union satisfies ≥ 1 (or the bare partial covers 0)
            } else {
                Some(b::gte(b::count_star(), b::lit(l as i64)))
            }
        }
        MatchSpec::MinDegree(d) => Some(b::gt(
            b::func("DEGREE_OF_CONJUNCTION", vec![b::bare_col(Arc::clone(&doi_column))]),
            b::lit(d),
        )),
    };
    let outer = Select {
        distinct: false,
        projection,
        from: vec![temp],
        selection: None,
        group_by: columns.iter().map(|c| b::bare_col(Arc::clone(c))).collect(),
        having,
    };
    let order_by =
        if rank { vec![b::order_by(b::bare_col(INTEREST_COLUMN), true)] } else { Vec::new() };
    Ok(Query { body: pqp_sql::SetExpr::Select(Box::new(outer)), order_by, limit: None })
}

/// Build the native-rank personalization of `select`: a
/// [`TopKSpec`](pqp_engine::topk::TopKSpec) for the engine's `Node::TopK`
/// operator instead of a SQL rewrite.
///
/// The mandatory preferences are integrated as plain conditions into the
/// *base* query (exactly as in a partial MQ query with no optional part);
/// each optional preference becomes a **probe**: the base additionally
/// projects the preference's anchor column, and the preference's own join
/// chain becomes a standalone single-column *witness* query (or a literal,
/// for selection-only paths). The operator then evaluates satisfaction and
/// degrees inside the executor — see `pqp_engine::topk`.
///
/// Returns [`PrefError::UnsupportedQuery`] for shapes whose MQ semantics a
/// standalone witness cannot reproduce, so callers can fall back to MQ:
///
/// - more than [`pqp_engine::topk::MAX_PROBES`] optional preferences;
/// - an optional path that would share tuple variables with a mandatory
///   path under MQ's allocation (a common to-one prefix — the shared
///   variable couples the optional chain to the mandatory one);
/// - a preference path with no condition at all.
pub fn integrate_native(
    select: &Select,
    paths: &[PreferencePath<'_>],
    m: usize,
    spec: MatchSpec,
    rank: bool,
) -> Result<pqp_engine::topk::TopKSpec> {
    use pqp_engine::topk::{ProbeSource, ProbeSpec, TopKSpec, MAX_PROBES};

    let _span = pqp_obs::span("integrate.native");
    pqp_obs::record("paths", paths.len());
    pqp_obs::record("mandatory", m);
    check_params(paths.len(), m, spec)?;
    let proj = mq_projection(select)?;
    let (mandatory, optional) = paths.split_at(m);
    if optional.len() > MAX_PROBES {
        return Err(PrefError::UnsupportedQuery(format!(
            "native rank supports at most {MAX_PROBES} optional preferences, got {}",
            optional.len()
        )));
    }

    // Var-sharing hazard check: MQ allocates each partial's variables over
    // (mandatory ++ optional) together, sharing common to-one prefixes. A
    // witness query runs the optional chain on its own and cannot observe
    // the shared variable, so such shapes must keep the MQ rewrite.
    for p in optional {
        let vars = VarAllocator::new(query_vars(select)).allocate(mandatory.iter().chain([p]));
        let (mand_vars, opt_vars) = vars.split_at(m);
        let shared = opt_vars[0].hop_vars.iter().any(|v| {
            mand_vars.iter().any(|mv| mv.hop_vars.iter().any(|x| x.eq_ignore_ascii_case(v)))
        });
        if shared {
            return Err(PrefError::UnsupportedQuery(
                "optional preference shares tuple variables with a mandatory one \
                 (common to-one prefix) — native rank cannot decouple them"
                    .into(),
            ));
        }
    }

    // Base query: the original conditions plus the mandatory integration
    // (the same construction as an optional-free MQ partial), projecting
    // the visible columns followed by one probe column per optional
    // preference.
    let columns: Vec<Arc<str>> = (0..proj.len()).map(|i| format!("pqp_c{i}").into()).collect();
    let partial =
        Partial { select, initial: initial_conjuncts(select), proj: &proj, columns: &columns };
    let mut names = Names::default();
    let mut base = partial.build(mandatory, &mut names);
    let mut probes: Vec<ProbeSpec> = Vec::with_capacity(optional.len());
    for (j, p) in optional.iter().enumerate() {
        let (anchor_col, source) = match p.joins.first() {
            Some(first) => (
                b::col(Arc::clone(&p.start_var), names.get(&first.from.column)),
                ProbeSource::Witness(witness_query(p, &mut names)),
            ),
            None => {
                let Some(sel) = &p.selection else {
                    return Err(PrefError::UnsupportedQuery(
                        "preference path with no condition cannot be probed".into(),
                    ));
                };
                (
                    b::col(Arc::clone(&p.start_var), names.get(&sel.attr.column)),
                    ProbeSource::Literal(Value::clone(&sel.value)),
                )
            }
        };
        base.projection.push(b::item_as(anchor_col, format!("pqp_p{j}")));
        probes.push(ProbeSpec { doi: p.doi.value(), source });
    }
    pqp_obs::record("probes", probes.len());

    let matching = match spec {
        MatchSpec::AtLeast(l) => pqp_engine::plan::TopKMatching::AtLeast(l),
        MatchSpec::MinDegree(d) => pqp_engine::plan::TopKMatching::MinDegree(d),
    };
    Ok(TopKSpec {
        base: Query::from_select(base),
        columns: proj.iter().map(|(_, display)| display.to_string()).collect(),
        probes,
        matching,
        rank,
        limit: None,
    })
}

/// The standalone witness query of a preference path with at least one
/// join: the path's own chain (hop equalities past the first one, plus the
/// final selection), projecting the DISTINCT values the anchor column must
/// hit.
fn witness_query<'a>(p: &'a PreferencePath<'_>, names: &mut Names<'a>) -> Query {
    let vars = VarAllocator::new([]).allocate([p]);
    let conds = path_conditions(p, &vars[0], names);
    let from = factors_for(&[(p, &vars[0])], names);
    let first = &p.joins[0];
    let projection =
        vec![b::item(b::col(Arc::clone(&vars[0].hop_vars[0]), names.get(&first.to.column)))];
    Query::from_select(Select {
        distinct: true,
        projection,
        from,
        // conds[0] is the anchor equality (query var = first hop var); the
        // witness projects the hop side instead of constraining it.
        selection: b::and_all(conds.into_iter().skip(1)),
        group_by: Vec::new(),
        having: None,
    })
}

/// The projected columns of the original query as
/// `(column expr, display name)`; MQ needs plain columns to group by.
fn mq_projection(select: &Select) -> Result<Vec<(&Expr, Arc<str>)>> {
    let mut out = Vec::new();
    for item in &select.projection {
        match item {
            SelectItem::Expr { expr: e @ Expr::Column { name, .. }, alias } => {
                out.push((e, Arc::clone(alias.as_ref().unwrap_or(name))));
            }
            _ => {
                return Err(PrefError::UnsupportedQuery(
                    "MQ integration requires a projection of plain columns".into(),
                ))
            }
        }
    }
    if out.is_empty() {
        return Err(PrefError::UnsupportedQuery("query projects nothing".into()));
    }
    Ok(out)
}

/// What every partial query of one MQ (or native) integration shares: the
/// original block, its own conditions, and the projected columns with their
/// positional aliases.
struct Partial<'s> {
    select: &'s Select,
    initial: Vec<&'s Expr>,
    proj: &'s [(&'s Expr, Arc<str>)],
    columns: &'s [Arc<str>],
}

impl Partial<'_> {
    /// The partial query integrating `involved`: the original block plus
    /// their conditions, projecting the original columns as `pqp_c{i}`.
    fn build<'a, 'g: 'a>(
        &self,
        involved: impl IntoIterator<Item = &'a PreferencePath<'g>> + Clone,
        names: &mut Names<'a>,
    ) -> Select {
        // Variables are allocated per partial query (sharing only matters
        // within one conjunction).
        let vars = VarAllocator::new(query_vars(self.select)).allocate(involved.clone());
        let pairs: Vec<(&PreferencePath, &PathVars)> = involved.into_iter().zip(&vars).collect();

        let mut conjuncts = ConjunctSet::default();
        for &(p, v) in &pairs {
            for c in path_conditions(p, v, names) {
                if !mentions(&self.initial, &c) {
                    conjuncts.push(c);
                }
            }
        }
        let mut from = self.select.from.clone();
        from.extend(factors_for(&pairs, names));

        let projection = (self.proj.iter().zip(self.columns))
            .map(|((e, _), column)| b::item_as((*e).clone(), Arc::clone(column)))
            .collect();
        Select {
            distinct: true,
            projection,
            from,
            selection: qualification(self.select, conjuncts.exprs),
            group_by: Vec::new(),
            having: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doi::{Doi, PaperCombinator};
    use crate::graph::{JoinEdge, SelectionEdge};
    use crate::pref::AttrRef;
    use pqp_storage::Cardinality;

    fn initial_select() -> Select {
        pqp_sql::parse_query(
            "select MV.title from MOVIE MV, PLAY PL \
             where MV.mid = PL.mid and PL.date = '2/7/2003'",
        )
        .unwrap()
        .as_select()
        .unwrap()
        .clone()
    }

    fn join(
        from: (&str, &str),
        to: (&str, &str),
        doi: f64,
        card: Cardinality,
    ) -> JoinEdge<'static> {
        JoinEdge::new(
            AttrRef::new(from.0, from.1),
            AttrRef::new(to.0, to.1),
            Doi::new(doi).unwrap(),
            card,
        )
    }

    fn sel(attr: (&str, &str), value: &str, doi: f64) -> SelectionEdge<'static> {
        SelectionEdge::new(AttrRef::new(attr.0, attr.1), Value::str(value), Doi::new(doi).unwrap())
    }

    fn comedy() -> PreferencePath<'static> {
        let c = PaperCombinator;
        PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("GENRE", "mid"), 0.9, Cardinality::ToMany), &c)
            .with_selection(sel(("GENRE", "genre"), "comedy", 0.9), &c)
    }

    fn kidman() -> PreferencePath<'static> {
        let c = PaperCombinator;
        PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("CAST", "mid"), 0.8, Cardinality::ToMany), &c)
            .with_join(join(("CAST", "aid"), ("ACTOR", "aid"), 1.0, Cardinality::ToOne), &c)
            .with_selection(sel(("ACTOR", "name"), "N. Kidman", 0.9), &c)
    }

    fn lynch() -> PreferencePath<'static> {
        let c = PaperCombinator;
        PreferencePath::anchor("MV", "MOVIE")
            .with_join(join(("MOVIE", "mid"), ("DIRECTED", "mid"), 1.0, Cardinality::ToMany), &c)
            .with_join(join(("DIRECTED", "did"), ("DIRECTOR", "did"), 1.0, Cardinality::ToOne), &c)
            .with_selection(sel(("DIRECTOR", "name"), "D. Lynch", 0.9), &c)
    }

    fn region(val: &str) -> PreferencePath<'static> {
        let c = PaperCombinator;
        PreferencePath::anchor("PL", "PLAY")
            .with_join(join(("PLAY", "tid"), ("THEATRE", "tid"), 1.0, Cardinality::ToOne), &c)
            .with_selection(sel(("THEATRE", "region"), val, 0.6), &c)
    }

    #[test]
    fn sq_matches_paper_shape() {
        // The paper's example: K=3, M=0, L=2 over comedy/Lynch/Kidman.
        let paths = vec![lynch(), comedy(), kidman()];
        let q = integrate_sq(&initial_select(), &paths, 0, MatchSpec::AtLeast(2)).unwrap();
        let s = q.as_select().unwrap();
        assert!(s.distinct);
        // FROM: MV, PL + GENRE + CAST + ACTOR + DIRECTED + DIRECTOR = 7.
        assert_eq!(s.from.len(), 7, "{q}");
        let w = s.selection.as_ref().unwrap();
        let conjuncts = w.conjuncts();
        // initial 2 conjuncts + OR part.
        assert_eq!(conjuncts.len(), 3, "{q}");
        let or = conjuncts[2].disjuncts();
        assert_eq!(or.len(), 3, "C(3,2) = 3 combinations: {q}");
        // Re-parse to prove it is valid SQL.
        let text = q.to_string();
        pqp_sql::parse_query(&text).unwrap();
    }

    #[test]
    fn sq_l1_is_flat_disjunction() {
        let paths = vec![comedy(), kidman()];
        let q = integrate_sq(&initial_select(), &paths, 0, MatchSpec::AtLeast(1)).unwrap();
        let s = q.as_select().unwrap();
        let or = s.selection.as_ref().unwrap().conjuncts()[2].disjuncts().len();
        assert_eq!(or, 2);
    }

    #[test]
    fn sq_mandatory_conjunctions() {
        // M = 1: the top preference must be in the conjunctive part.
        let paths = vec![lynch(), comedy()];
        let q = integrate_sq(&initial_select(), &paths, 1, MatchSpec::AtLeast(1)).unwrap();
        let text = q.to_string();
        // Lynch's selection sits outside the OR.
        let w = q.as_select().unwrap().selection.as_ref().unwrap();
        let conjuncts = w.conjuncts();
        assert!(
            conjuncts.iter().take(conjuncts.len() - 1).any(|c| c.to_string().contains("D. Lynch")),
            "{text}"
        );
    }

    #[test]
    fn sq_excludes_conflicting_combinations() {
        // uptown and downtown conflict (to-one chain, same attribute):
        // the L=2 combination must exclude their pair.
        let paths = vec![region("uptown"), region("downtown"), comedy()];
        let q = integrate_sq(&initial_select(), &paths, 0, MatchSpec::AtLeast(2)).unwrap();
        let s = q.as_select().unwrap();
        let or = s.selection.as_ref().unwrap().conjuncts().last().unwrap().disjuncts().len();
        // C(3,2) = 3 minus the conflicting pair = 2.
        assert_eq!(or, 2, "{q}");
    }

    #[test]
    fn sq_l_zero_keeps_initial_semantics() {
        let paths = vec![comedy()];
        let q = integrate_sq(&initial_select(), &paths, 0, MatchSpec::AtLeast(0)).unwrap();
        let s = q.as_select().unwrap();
        // No OR part: just the initial conjuncts.
        assert_eq!(s.selection.as_ref().unwrap().conjuncts().len(), 2, "{q}");
    }

    #[test]
    fn sq_implied_preference_keeps_every_row() {
        // The query already states the date preference's only condition, so
        // at L = 1 every row satisfies a preference: the disjunction is TRUE,
        // not the comedy branch alone (MQ's date partial is the query).
        let c = PaperCombinator;
        let date = PreferencePath::anchor("PL", "PLAY")
            .with_selection(sel(("PLAY", "date"), "2/7/2003", 0.6), &c);
        let q =
            integrate_sq(&initial_select(), &[comedy(), date], 0, MatchSpec::AtLeast(1)).unwrap();
        let s = q.as_select().unwrap();
        assert_eq!(s.selection.as_ref().unwrap().conjuncts().len(), 2, "{q}");
        assert_eq!(s.from.len(), 2, "no optional variable joins in: {q}");
    }

    #[test]
    fn sq_rejects_bad_params() {
        let paths = vec![comedy()];
        assert!(matches!(
            integrate_sq(&initial_select(), &paths, 2, MatchSpec::AtLeast(0)),
            Err(PrefError::InvalidParams(_))
        ));
        assert!(matches!(
            integrate_sq(&initial_select(), &paths, 0, MatchSpec::AtLeast(5)),
            Err(PrefError::InvalidParams(_))
        ));
        assert!(matches!(
            integrate_sq(&initial_select(), &paths, 0, MatchSpec::MinDegree(0.5)),
            Err(PrefError::InvalidParams(_))
        ));
    }

    #[test]
    fn sq_combination_explosion_guarded() {
        let paths: Vec<PreferencePath> = (0..40)
            .map(|i| {
                let c = PaperCombinator;
                PreferencePath::anchor("MV", "MOVIE")
                    .with_join(
                        join(("MOVIE", "mid"), ("GENRE", "mid"), 0.9, Cardinality::ToMany),
                        &c,
                    )
                    .with_selection(sel(("GENRE", "genre"), &format!("g{i}"), 0.5), &c)
            })
            .collect();
        assert!(matches!(
            integrate_sq(&initial_select(), &paths, 0, MatchSpec::AtLeast(20)),
            Err(PrefError::TooManyCombinations { .. })
        ));
    }

    #[test]
    fn mq_matches_paper_shape() {
        let paths = vec![lynch(), comedy(), kidman()];
        let q = integrate_mq(&initial_select(), &paths, 0, MatchSpec::AtLeast(2), false).unwrap();
        let text = q.to_string();
        // Derived table with 3 union-all arms, grouped, having count >= 2.
        assert!(text.contains("UNION ALL"), "{text}");
        assert!(text.to_lowercase().contains("group by"), "{text}");
        assert!(text.contains("COUNT(*) >= 2"), "{text}");
        pqp_sql::parse_query(&text).unwrap();
        let s = q.as_select().unwrap();
        let TableFactor::Derived { query, .. } = &s.from[0] else { panic!() };
        let mut arms = 0;
        fn count_arms(s: &pqp_sql::SetExpr, n: &mut usize) {
            match s {
                pqp_sql::SetExpr::Select(_) => *n += 1,
                pqp_sql::SetExpr::Union { left, right, .. } => {
                    count_arms(left, n);
                    count_arms(right, n);
                }
            }
        }
        count_arms(&query.body, &mut arms);
        assert_eq!(arms, 3);
    }

    #[test]
    fn mq_ranked_output() {
        let paths = vec![comedy(), kidman()];
        let q = integrate_mq(&initial_select(), &paths, 0, MatchSpec::AtLeast(1), true).unwrap();
        let text = q.to_string();
        assert!(text.contains("DEGREE_OF_CONJUNCTION"), "{text}");
        assert!(text.contains("ORDER BY interest DESC"), "{text}");
        pqp_sql::parse_query(&text).unwrap();
    }

    #[test]
    fn mq_min_degree_having() {
        let paths = vec![comedy(), kidman()];
        let q =
            integrate_mq(&initial_select(), &paths, 0, MatchSpec::MinDegree(0.8), true).unwrap();
        let text = q.to_string();
        assert!(text.contains("HAVING DEGREE_OF_CONJUNCTION(pqp_doi) > 0.8"), "{text}");
    }

    #[test]
    fn mq_l_zero_includes_bare_partial() {
        let paths = vec![comedy()];
        let q = integrate_mq(&initial_select(), &paths, 0, MatchSpec::AtLeast(0), true).unwrap();
        let text = q.to_string();
        // Two arms: the bare (NULL-doi) partial plus the comedy partial.
        assert_eq!(text.matches("SELECT DISTINCT").count(), 2, "{text}");
        assert!(text.contains("NULL AS pqp_doi"), "{text}");
    }

    #[test]
    fn mq_requires_plain_projection() {
        let mut s = initial_select();
        s.projection = vec![b::item(b::count_star())];
        assert!(matches!(
            integrate_mq(&s, &[comedy()], 0, MatchSpec::AtLeast(1), false),
            Err(PrefError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn native_shape() {
        use pqp_engine::plan::TopKMatching;
        use pqp_engine::topk::ProbeSource;
        let paths = vec![lynch(), comedy(), kidman()];
        let spec =
            integrate_native(&initial_select(), &paths, 0, MatchSpec::AtLeast(2), true).unwrap();
        assert_eq!(spec.columns, vec!["title".to_string()]);
        assert_eq!(spec.probes.len(), 3);
        assert_eq!(spec.matching, TopKMatching::AtLeast(2));
        assert!(spec.rank);
        // Base: the original FROM only (no mandatory preferences), one
        // visible column plus three probe columns, DISTINCT.
        let s = spec.base.as_select().unwrap();
        assert!(s.distinct);
        assert_eq!(s.from.len(), 2, "{}", spec.base);
        assert_eq!(s.projection.len(), 4, "{}", spec.base);
        // Every path has joins, so every probe is a witness query; each
        // must be valid standalone SQL over the path's own chain.
        for p in &spec.probes {
            let ProbeSource::Witness(w) = &p.source else { panic!("expected witness") };
            pqp_sql::parse_query(&w.to_string()).unwrap();
        }
        // The kidman witness: CAST ⋈ ACTOR, selecting on the actor name,
        // projecting the CAST-side join column the base probes with.
        let ProbeSource::Witness(w) = &spec.probes[2].source else { panic!() };
        let text = w.to_string();
        assert!(text.contains("N. Kidman"), "{text}");
        assert!(text.to_uppercase().contains("SELECT DISTINCT"), "{text}");
        assert_eq!(w.as_select().unwrap().from.len(), 2, "{text}");
    }

    #[test]
    fn native_mandatory_integrates_into_base() {
        let paths = vec![lynch(), comedy()];
        let spec =
            integrate_native(&initial_select(), &paths, 1, MatchSpec::AtLeast(1), false).unwrap();
        let text = spec.base.to_string();
        // The mandatory Lynch chain joins into the base...
        assert!(text.contains("D. Lynch"), "{text}");
        assert_eq!(spec.base.as_select().unwrap().from.len(), 4, "{text}");
        // ...and only comedy remains as a probe.
        assert_eq!(spec.probes.len(), 1);
        assert!((spec.probes[0].doi - comedy().doi.value()).abs() < 1e-12);
    }

    #[test]
    fn native_selection_only_path_probes_a_literal() {
        use pqp_engine::topk::ProbeSource;
        let c = PaperCombinator;
        let date = PreferencePath::anchor("PL", "PLAY")
            .with_selection(sel(("PLAY", "date"), "2/7/2003", 0.6), &c);
        let spec =
            integrate_native(&initial_select(), &[date], 0, MatchSpec::AtLeast(1), false).unwrap();
        let ProbeSource::Literal(v) = &spec.probes[0].source else { panic!("expected literal") };
        assert_eq!(v, &Value::str("2/7/2003"));
        // The probe column is the selection attribute on the query's own var.
        assert!(spec.base.to_string().contains("PL.date AS pqp_p0"), "{}", spec.base);
    }

    #[test]
    fn native_rejects_shared_mandatory_vars() {
        // uptown (mandatory) and downtown (optional) share the to-one
        // PLAY→THEATRE hop under MQ's allocation: a standalone witness
        // cannot reproduce the shared variable, so native must refuse.
        let paths = vec![region("uptown"), region("downtown")];
        assert!(matches!(
            integrate_native(&initial_select(), &paths, 1, MatchSpec::AtLeast(1), false),
            Err(PrefError::UnsupportedQuery(_))
        ));
        // With both optional there is no sharing (each witness is its own
        // chain) — supported.
        assert!(
            integrate_native(&initial_select(), &paths, 0, MatchSpec::AtLeast(1), false).is_ok()
        );
    }

    #[test]
    fn native_min_degree_matching() {
        use pqp_engine::plan::TopKMatching;
        let spec =
            integrate_native(&initial_select(), &[comedy()], 0, MatchSpec::MinDegree(0.5), true)
                .unwrap();
        assert_eq!(spec.matching, TopKMatching::MinDegree(0.5));
    }

    #[test]
    fn binomial_sanity() {
        assert_eq!(binomial(3, 2), 3);
        assert_eq!(binomial(10, 5), 252);
        assert_eq!(binomial(60, 1), 60);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(2, 5), 0);
    }
}
