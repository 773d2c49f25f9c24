//! The end-to-end personalization facade (§4): preference selection +
//! preference integration, with the K/M/L parameterization.

use crate::criteria::InterestCriterion;
use crate::doi::Doi;
use crate::error::{PrefError, Result};
use crate::graph::GraphAccess;
use crate::integrate::{integrate_mq, integrate_sq, MatchSpec};
use crate::path::PreferencePath;
use crate::query_graph::QueryGraph;
use crate::select::{select_preferences_ctx, SelectStats};
use pqp_obs::QueryCtx;
use pqp_sql::ast::{Query, Select};
use pqp_storage::Catalog;
use std::fmt;
use std::str::FromStr;

/// Which rewrite of a personalized query to execute.
///
/// `Original` runs the query unpersonalized; `Sq` and `Mq` are the paper's
/// single-query and multiple-queries integrations (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rewrite {
    /// The original (unpersonalized) query.
    Original,
    /// The single-query (SQ) integration.
    Sq,
    /// The multiple-queries (MQ) integration.
    Mq,
    /// The native rank operator: mandatory preferences integrated as
    /// conditions, optional ones evaluated inside the executor
    /// (`pqp_engine::topk`). Not expressible as a SQL string — execute via
    /// [`crate::strategy::build_execution`].
    NativeRank,
    /// Price SQ / MQ / native rank per query and build the cheapest
    /// ([`crate::strategy::build_execution`]).
    Auto,
}

impl Rewrite {
    /// All *SQL-producing* rewrites, in pipeline order (the experiment
    /// harnesses sweep these; `NativeRank`/`Auto` execute through
    /// [`crate::strategy`]).
    pub const ALL: [Rewrite; 3] = [Rewrite::Original, Rewrite::Sq, Rewrite::Mq];

    /// The label used in reports, CSVs and JSON exports.
    pub fn label(self) -> &'static str {
        match self {
            Rewrite::Original => "original",
            Rewrite::Sq => "SQ",
            Rewrite::Mq => "MQ",
            Rewrite::NativeRank => "native",
            Rewrite::Auto => "auto",
        }
    }
}

impl fmt::Display for Rewrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Rewrite {
    type Err = PrefError;

    /// Parse a rewrite label, case-insensitively (`"original"`, `"sq"`,
    /// `"mq"`, `"native"`, `"auto"`).
    fn from_str(s: &str) -> Result<Rewrite> {
        match s.to_ascii_lowercase().as_str() {
            "original" => Ok(Rewrite::Original),
            "sq" => Ok(Rewrite::Sq),
            "mq" => Ok(Rewrite::Mq),
            "native" | "nativerank" | "native_rank" => Ok(Rewrite::NativeRank),
            "auto" => Ok(Rewrite::Auto),
            other => Err(PrefError::InvalidParams(format!(
                "unknown rewrite `{other}` (expected `original`, `SQ`, `MQ`, `native` or `auto`)"
            ))),
        }
    }
}

/// How the mandatory preferences `M` are chosen (§4: explicitly, or by a
/// degree rule such as "degree 1 preferences are mandatory").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MandatorySpec {
    /// No mandatory preferences (the paper's experiments use M = 0).
    None,
    /// The top `m` selected preferences are mandatory.
    Count(usize),
    /// Preferences with degree ≥ this threshold are mandatory.
    DegreeAtLeast(f64),
}

/// Full personalization options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonalizeOptions {
    /// Interest criterion selecting the top-K preferences.
    pub criterion: InterestCriterion,
    /// How many of them are mandatory.
    pub mandatory: MandatorySpec,
    /// The at-least-L (or minimum-degree) requirement on the rest.
    pub matching: MatchSpec,
    /// Rank results by estimated degree of interest (MQ only).
    pub rank: bool,
}

impl PersonalizeOptions {
    /// Start building options. Defaults: no selection limit
    /// (`TopK(usize::MAX)`), no mandatory preferences, `L = 0`, no ranking.
    ///
    /// ```
    /// use pqp_core::{InterestCriterion, PersonalizeOptions};
    /// let opts = PersonalizeOptions::builder().k(3).l(1).build();
    /// assert_eq!(opts.criterion, InterestCriterion::TopK(3));
    /// ```
    pub fn builder() -> PersonalizeOptionsBuilder {
        PersonalizeOptionsBuilder {
            criterion: InterestCriterion::TopK(usize::MAX),
            mandatory: MandatorySpec::None,
            matching: MatchSpec::AtLeast(0),
            rank: false,
        }
    }

    /// Enable ranking.
    pub fn ranked(mut self) -> PersonalizeOptions {
        self.rank = true;
        self
    }
}

/// Builder for [`PersonalizeOptions`] (see
/// [`PersonalizeOptions::builder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersonalizeOptionsBuilder {
    criterion: InterestCriterion,
    mandatory: MandatorySpec,
    matching: MatchSpec,
    rank: bool,
}

impl PersonalizeOptionsBuilder {
    /// Select at most `k` preferences (sets the criterion to
    /// [`InterestCriterion::TopK`]).
    pub fn k(mut self, k: usize) -> Self {
        self.criterion = InterestCriterion::TopK(k);
        self
    }

    /// Make the top `m` selected preferences mandatory (`m = 0` means none).
    pub fn m(mut self, m: usize) -> Self {
        self.mandatory = if m == 0 { MandatorySpec::None } else { MandatorySpec::Count(m) };
        self
    }

    /// Require every result row to satisfy at least `l` of the optional
    /// preferences.
    pub fn l(mut self, l: usize) -> Self {
        self.matching = MatchSpec::AtLeast(l);
        self
    }

    /// Set the interest criterion directly (overrides [`Self::k`]).
    pub fn criterion(mut self, criterion: InterestCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Set the mandatory-preference rule directly (overrides [`Self::m`]).
    pub fn mandatory(mut self, mandatory: MandatorySpec) -> Self {
        self.mandatory = mandatory;
        self
    }

    /// Set the match requirement directly (overrides [`Self::l`]).
    pub fn matching(mut self, matching: MatchSpec) -> Self {
        self.matching = matching;
        self
    }

    /// Rank results by estimated degree of interest (MQ only).
    pub fn ranked(mut self) -> Self {
        self.rank = true;
        self
    }

    /// Finish building.
    pub fn build(self) -> PersonalizeOptions {
        PersonalizeOptions {
            criterion: self.criterion,
            mandatory: self.mandatory,
            matching: self.matching,
            rank: self.rank,
        }
    }
}

/// The outcome of preference selection, ready for integration.
///
/// Integration is deliberately separate (and lazy): the experiments measure
/// selection time, SQ integration time and MQ integration time
/// independently. The selected paths borrow from the personalization graph
/// they were read from (`'g`).
#[derive(Debug, Clone)]
pub struct Personalized<'g> {
    select: Select,
    /// Selected preferences, decreasing degree.
    pub paths: Vec<PreferencePath<'g>>,
    /// Number of mandatory preferences (a prefix of `paths`).
    pub m: usize,
    /// The match requirement, clamped to `K − M`.
    pub matching: MatchSpec,
    /// Ranking flag.
    pub rank: bool,
    /// Selection statistics.
    pub stats: SelectStats,
}

impl Personalized<'_> {
    /// K: the number of selected preferences.
    pub fn k(&self) -> usize {
        self.paths.len()
    }

    /// The degrees of the selected preferences, decreasing.
    pub fn degrees(&self) -> Vec<Doi> {
        self.paths.iter().map(|p| p.doi).collect()
    }

    /// The query block being personalized.
    pub(crate) fn select(&self) -> &Select {
        &self.select
    }

    /// Build the SQ (single-query) personalized query.
    pub fn sq(&self) -> Result<Query> {
        integrate_sq(&self.select, &self.paths, self.m, self.matching)
    }

    /// Build the MQ (multiple-queries) personalized query.
    pub fn mq(&self) -> Result<Query> {
        integrate_mq(&self.select, &self.paths, self.m, self.matching, self.rank)
    }

    /// The original (unpersonalized) query.
    pub fn original(&self) -> Query {
        Query::from_select(self.select.clone())
    }

    /// Build the native-rank specification ([`pqp_engine::topk::TopKSpec`])
    /// for the engine's `Node::TopK` operator. Errors with
    /// [`PrefError::UnsupportedQuery`] on shapes only MQ can express.
    pub fn native(&self) -> Result<pqp_engine::topk::TopKSpec> {
        crate::integrate::integrate_native(
            &self.select,
            &self.paths,
            self.m,
            self.matching,
            self.rank,
        )
    }

    /// Build the query for the given [`Rewrite`].
    ///
    /// [`Rewrite::NativeRank`] and [`Rewrite::Auto`] have no SQL form —
    /// they execute through [`crate::strategy::build_execution`] — so they
    /// are errors here.
    pub fn rewritten(&self, rewrite: Rewrite) -> Result<Query> {
        match rewrite {
            Rewrite::Original => Ok(self.original()),
            Rewrite::Sq => self.sq(),
            Rewrite::Mq => self.mq(),
            Rewrite::NativeRank | Rewrite::Auto => Err(PrefError::InvalidParams(format!(
                "rewrite `{rewrite}` is not a SQL rewrite — execute it via pqp_core::strategy"
            ))),
        }
    }
}

/// Run preference selection for `query` against a user's personalization
/// graph and prepare integration.
///
/// `query` must be a conjunctive SPJ select (the paper's scope). The
/// requested `L` is clamped to `K − M` when the profile yields fewer
/// preferences than asked for (the experiments sweep L independently of how
/// many preferences each profile/query pair produces).
pub fn personalize<'g>(
    query: &Query,
    graph: &'g impl GraphAccess,
    catalog: &Catalog,
    opts: PersonalizeOptions,
) -> Result<Personalized<'g>> {
    let _span = pqp_obs::span("personalize");
    let select = query
        .as_select()
        .ok_or_else(|| {
            crate::error::PrefError::UnsupportedQuery("only plain SELECT blocks".into())
        })?
        .clone();
    let qg = QueryGraph::from_select(&select, catalog)?;
    personalize_with_graph(select, &qg, graph, opts, &QueryCtx::unlimited())
}

/// [`personalize`] for an already-parsed SELECT with a pre-built
/// [`QueryGraph`] — the serving layer's fast path: the parse and the query
/// graph are user-independent, so a prepared-query cache can reuse them
/// across users while the per-user selection still runs fresh.
pub fn personalize_prepared<'g>(
    select: &Select,
    qg: &QueryGraph,
    graph: &'g impl GraphAccess,
    opts: PersonalizeOptions,
) -> Result<Personalized<'g>> {
    let _span = pqp_obs::span("personalize");
    personalize_with_graph(select.clone(), qg, graph, opts, &QueryCtx::unlimited())
}

/// [`personalize_prepared`] under a query-governor context: preference
/// selection checkpoints the context's budget every best-first round, so a
/// deadline or cancellation cuts personalization off with
/// [`PrefError::Budget`] — the serving layer uses this to degrade
/// gracefully instead of letting the personalization phase eat the whole
/// query budget.
pub fn personalize_prepared_ctx<'g>(
    select: &Select,
    qg: &QueryGraph,
    graph: &'g impl GraphAccess,
    opts: PersonalizeOptions,
    ctx: &QueryCtx,
) -> Result<Personalized<'g>> {
    let _span = pqp_obs::span("personalize");
    personalize_with_graph(select.clone(), qg, graph, opts, ctx)
}

fn personalize_with_graph<'g>(
    select: Select,
    qg: &QueryGraph,
    graph: &'g impl GraphAccess,
    opts: PersonalizeOptions,
    ctx: &QueryCtx,
) -> Result<Personalized<'g>> {
    let outcome =
        select_preferences_ctx(qg, graph, &opts.criterion, &crate::doi::PaperCombinator, ctx)?;
    let paths = outcome.selected;
    let k = paths.len();
    pqp_obs::record("k", k);

    let m = match opts.mandatory {
        MandatorySpec::None => 0,
        MandatorySpec::Count(m) => m.min(k),
        MandatorySpec::DegreeAtLeast(d) => paths.iter().take_while(|p| p.doi.value() >= d).count(),
    };
    let matching = match opts.matching {
        MatchSpec::AtLeast(l) => MatchSpec::AtLeast(l.min(k - m)),
        other => other,
    };

    Ok(Personalized { select, paths, m, matching, rank: opts.rank, stats: outcome.stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InMemoryGraph;
    use crate::profile::Profile;
    use pqp_storage::{ColumnDef, DataType, TableSchema};

    fn catalog() -> Catalog {
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
            "PLAY",
            vec![
                ColumnDef::new("tid", DataType::Int),
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("date", DataType::Str),
            ],
        ))
        .unwrap();
        c.create_table(TableSchema::new(
            "GENRE",
            vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
        ))
        .unwrap();
        c
    }

    fn profile() -> Profile {
        let mut p = Profile::new("u");
        p.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        p.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
        p.add_selection("GENRE", "genre", "thriller", 0.7).unwrap();
        p.add_selection("GENRE", "genre", "drama", 1.0).unwrap();
        p
    }

    fn query() -> Query {
        pqp_sql::parse_query(
            "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and PL.date = 'd1'",
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_selection_then_both_rewrites() {
        let c = catalog();
        let g = InMemoryGraph::build(&profile(), &c).unwrap();
        let p =
            personalize(&query(), &g, &c, PersonalizeOptions::builder().k(3).l(2).build()).unwrap();
        assert_eq!(p.k(), 3);
        assert_eq!(p.m, 0);
        let sq = p.sq().unwrap();
        let mq = p.mq().unwrap();
        pqp_sql::parse_query(&sq.to_string()).unwrap();
        pqp_sql::parse_query(&mq.to_string()).unwrap();
    }

    #[test]
    fn l_is_clamped_to_available_preferences() {
        let c = catalog();
        let g = InMemoryGraph::build(&profile(), &c).unwrap();
        let p = personalize(&query(), &g, &c, PersonalizeOptions::builder().k(10).l(8).build())
            .unwrap();
        assert_eq!(p.k(), 3);
        assert_eq!(p.matching, MatchSpec::AtLeast(3));
        assert!(p.sq().is_ok());
    }

    #[test]
    fn mandatory_by_degree() {
        let c = catalog();
        let g = InMemoryGraph::build(&profile(), &c).unwrap();
        let opts = PersonalizeOptions {
            criterion: InterestCriterion::TopK(3),
            mandatory: MandatorySpec::DegreeAtLeast(0.9),
            matching: MatchSpec::AtLeast(1),
            rank: false,
        };
        let p = personalize(&query(), &g, &c, opts).unwrap();
        // drama = 1.0*0.9 = 0.9 → mandatory; comedy 0.81, thriller 0.63 optional.
        assert_eq!(p.m, 1);
    }

    #[test]
    fn ranked_option_flows_to_mq() {
        let c = catalog();
        let g = InMemoryGraph::build(&profile(), &c).unwrap();
        let p =
            personalize(&query(), &g, &c, PersonalizeOptions::builder().k(2).l(1).build().ranked())
                .unwrap();
        assert!(p.mq().unwrap().to_string().contains("ORDER BY interest DESC"));
    }

    #[test]
    fn empty_profile_yields_original_semantics() {
        let c = catalog();
        let g = InMemoryGraph::build(&Profile::new("nobody"), &c).unwrap();
        let p =
            personalize(&query(), &g, &c, PersonalizeOptions::builder().k(5).l(2).build()).unwrap();
        assert_eq!(p.k(), 0);
        assert_eq!(p.matching, MatchSpec::AtLeast(0));
        // SQ degenerates to the initial query plus DISTINCT.
        let sq = p.sq().unwrap();
        let s = sq.as_select().unwrap();
        assert_eq!(s.from.len(), 2);
    }

    #[test]
    fn builder_composes_every_knob() {
        let new = PersonalizeOptions::builder().k(3).l(2).build();
        assert_eq!(new.criterion, InterestCriterion::TopK(3));
        assert_eq!(new.matching, MatchSpec::AtLeast(2));
        let full = PersonalizeOptions::builder().k(5).m(2).l(1).ranked().build();
        assert_eq!(full.criterion, InterestCriterion::TopK(5));
        assert_eq!(full.mandatory, MandatorySpec::Count(2));
        assert_eq!(full.matching, MatchSpec::AtLeast(1));
        assert!(full.rank);
        // m(0) means no mandatory preferences.
        assert_eq!(PersonalizeOptions::builder().m(0).build().mandatory, MandatorySpec::None);
        // Direct setters override the shorthands.
        let direct = PersonalizeOptions::builder()
            .k(9)
            .criterion(InterestCriterion::MinDegree(0.4))
            .matching(MatchSpec::MinDegree(0.2))
            .mandatory(MandatorySpec::DegreeAtLeast(0.9))
            .build();
        assert_eq!(direct.criterion, InterestCriterion::MinDegree(0.4));
        assert_eq!(direct.matching, MatchSpec::MinDegree(0.2));
        assert_eq!(direct.mandatory, MandatorySpec::DegreeAtLeast(0.9));
    }

    #[test]
    fn rewrite_labels_roundtrip() {
        for rw in Rewrite::ALL {
            assert_eq!(rw.label().parse::<Rewrite>().unwrap(), rw);
            assert_eq!(rw.to_string(), rw.label());
        }
        assert_eq!("mq".parse::<Rewrite>().unwrap(), Rewrite::Mq);
        assert_eq!("Original".parse::<Rewrite>().unwrap(), Rewrite::Original);
        assert!(matches!("nope".parse::<Rewrite>(), Err(PrefError::InvalidParams(_))));
    }

    #[test]
    fn rewritten_dispatches_to_all_three() {
        let c = catalog();
        let g = InMemoryGraph::build(&profile(), &c).unwrap();
        let p =
            personalize(&query(), &g, &c, PersonalizeOptions::builder().k(2).l(1).build()).unwrap();
        assert_eq!(p.rewritten(Rewrite::Original).unwrap().to_string(), p.original().to_string());
        assert_eq!(p.rewritten(Rewrite::Sq).unwrap().to_string(), p.sq().unwrap().to_string());
        assert_eq!(p.rewritten(Rewrite::Mq).unwrap().to_string(), p.mq().unwrap().to_string());
    }

    #[test]
    fn prepared_path_matches_unprepared() {
        let c = catalog();
        let g = InMemoryGraph::build(&profile(), &c).unwrap();
        let q = query();
        let opts = PersonalizeOptions::builder().k(3).l(2).build();
        let direct = personalize(&q, &g, &c, opts).unwrap();
        let select = q.as_select().unwrap();
        let qg = QueryGraph::from_select(select, &c).unwrap();
        let prepared = personalize_prepared(select, &qg, &g, opts).unwrap();
        assert_eq!(prepared.paths, direct.paths);
        assert_eq!(prepared.m, direct.m);
        assert_eq!(prepared.mq().unwrap().to_string(), direct.mq().unwrap().to_string());
    }

    #[test]
    fn union_query_rejected() {
        let c = catalog();
        let g = InMemoryGraph::build(&profile(), &c).unwrap();
        let q = pqp_sql::parse_query(
            "(select MV.title from MOVIE MV) union (select MV.title from MOVIE MV)",
        )
        .unwrap();
        assert!(personalize(&q, &g, &c, PersonalizeOptions::builder().k(3).l(1).build()).is_err());
    }
}
