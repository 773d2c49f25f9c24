//! `EXPLAIN ANALYZE` for the personalization pipeline: run the whole chain
//! — parse, query-graph construction, preference selection, SQ/MQ
//! integration, planning, execution — under a `pqp_obs` trace and return
//! the result set together with the span tree, the per-stage counters, and
//! a rendered report.
//!
//! Every stage is already instrumented (the spans are permanent no-ops when
//! no trace is active); this module only brackets the pipeline with
//! [`pqp_obs::trace_begin`]/[`pqp_obs::trace_end`] and attaches the
//! selection summary (selected preferences and their degrees) to the
//! report.
//!
//! Every plan node has one `exec.<op>` span with its exact `rows_out`. The
//! executor runs chains of streaming operators as push pipelines, so a
//! `Filter`, `Project` or `Distinct` stage does its work inside its
//! producer's loop — a scan, an index scan, a join's probe loop — and that
//! time lands in the producer's span: a stage's own span shows its rows,
//! and little time of its own.

use pqp_core::error::{PrefError, Result};
use pqp_core::graph::GraphAccess;
use pqp_core::{personalize, PersonalizeOptions, Personalized};
use pqp_engine::{Database, ResultSet};
use pqp_obs::{Json, PipelineTrace};
use std::fmt::Write as _;

pub use pqp_core::Rewrite;

/// The outcome of an `EXPLAIN ANALYZE` run.
#[derive(Debug, Clone)]
pub struct Analysis<'g> {
    /// The executed rewrite, as resolved by the strategy layer: an `Auto`
    /// request reports the strategy the cost model picked, an unsupported
    /// `NativeRank` request reports its MQ fallback.
    pub rewrite: Rewrite,
    /// The strategy line: chosen rewrite, estimated cost, and the
    /// estimated cost of every buildable candidate
    /// ([`pqp_core::StrategyChoice::summary`]).
    pub strategy: String,
    /// The personalization outcome (selected preferences, K/M/L), borrowing
    /// the graph it was selected from.
    pub personalized: Personalized<'g>,
    /// The rows the executed query returned.
    pub result: ResultSet,
    /// The span tree + metrics captured across the pipeline.
    pub trace: PipelineTrace,
}

impl Analysis<'_> {
    /// The `EXPLAIN ANALYZE` text report: span tree with timings and
    /// operator cardinalities, followed by the selected preferences.
    pub fn report(&self) -> String {
        let mut out = self.trace.render();
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Selected preferences (K={}, M={}, rewrite {}):",
            self.personalized.k(),
            self.personalized.m,
            self.rewrite.label()
        );
        if self.personalized.paths.is_empty() {
            let _ = writeln!(out, "  (none — the query runs unpersonalized)");
        }
        for p in &self.personalized.paths {
            let _ = writeln!(out, "  {:.4}  {p}", p.doi.value());
        }
        let _ = writeln!(out, "{}", self.strategy);
        let _ = writeln!(out, "Result: {} rows", self.result.rows.len());
        out
    }

    /// The trace (span tree, fields, counters, histograms) as JSON.
    pub fn to_json(&self) -> Json {
        let degrees: Vec<Json> =
            self.personalized.degrees().iter().map(|d| Json::from(d.value())).collect();
        Json::obj()
            .set("rewrite", self.rewrite.label())
            .set("strategy", self.strategy.as_str())
            .set("k", self.personalized.k() as i64)
            .set("m", self.personalized.m as i64)
            .set("degrees", Json::Arr(degrees))
            .set("result_rows", self.result.rows.len() as i64)
            .set("trace", self.trace.to_json())
    }
}

/// Run `sql` personalized for the profile behind `graph` under a pipeline
/// trace, and return rows + trace + report.
///
/// The trace is thread-local; any trace already active on the calling
/// thread is replaced.
pub fn explain_analyze<'g>(
    sql: &str,
    graph: &'g impl GraphAccess,
    db: &Database,
    opts: PersonalizeOptions,
    rewrite: Rewrite,
) -> Result<Analysis<'g>> {
    pqp_obs::trace_begin("explain_analyze");
    let run = || -> Result<(Personalized<'g>, Rewrite, String, ResultSet)> {
        let query =
            pqp_sql::parse_query(sql).map_err(|e| PrefError::UnsupportedQuery(e.to_string()))?;
        let p = personalize(&query, graph, db.catalog(), opts)?;
        // Strategy resolution builds and costs every candidate (or just the
        // requested one); `Auto` picks the cheapest, an unsupported native
        // request falls back to MQ.
        let choice = pqp_core::strategy::build_execution(db, &p, rewrite, None)?;
        let result = db.run_plan(&choice.plan)?;
        Ok((p, choice.rewrite, choice.summary(), result))
    };
    let outcome = run();
    let trace = pqp_obs::trace_end().expect("trace_begin opened a trace");
    let (personalized, rewrite, strategy, result) = outcome?;
    Ok(Analysis { rewrite, strategy, personalized, result, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_core::graph::InMemoryGraph;
    use pqp_core::Profile;
    use pqp_datagen::{generate, MovieDbConfig};

    fn fixture() -> (Database, Profile) {
        let m = generate(MovieDbConfig::tiny());
        let mut profile = Profile::new("ana");
        profile.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        profile.add_selection("GENRE", "genre", "comedy", 0.8).unwrap();
        profile.add_selection("GENRE", "genre", "drama", 0.6).unwrap();
        (m.db, profile)
    }

    #[test]
    fn analyze_traces_every_stage() {
        let (db, profile) = fixture();
        let graph = InMemoryGraph::build(&profile, db.catalog()).unwrap();
        let a = explain_analyze(
            "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid",
            &graph,
            &db,
            PersonalizeOptions::builder().k(2).l(1).build(),
            Rewrite::Mq,
        )
        .unwrap();
        let root = &a.trace.root;
        assert_eq!(root.name, "explain_analyze");
        for stage in ["sql.parse", "personalize", "execute"] {
            assert!(root.find(stage).is_some(), "missing span `{stage}`:\n{}", a.trace.render());
        }
        // The nested selection span sits under personalize.
        let personalize_span = root.find("personalize").unwrap();
        assert!(personalize_span.find("query_graph").is_some());
        assert!(personalize_span.find("selection").is_some());
        // Executor spans carry cardinalities.
        let exec = root.find("execute").unwrap();
        assert!(exec.field("result_rows").is_some());
        // Selection counters flowed into the trace's registry.
        assert!(a.trace.metrics.counter("selection.expansions") > 0);

        let report = a.report();
        assert!(report.contains("EXPLAIN ANALYZE"), "{report}");
        assert!(report.contains("Selected preferences (K=2"), "{report}");
        assert!(report.contains("Result:"), "{report}");

        let json = a.to_json();
        assert_eq!(json.get("rewrite").and_then(Json::as_str), Some("MQ"));
        assert_eq!(json.get("k").and_then(Json::as_i64), Some(2));
        assert!(json.get("trace").and_then(|t| t.get("root")).is_some());
        // The export parses back (whole-valued floats may re-parse as ints,
        // so compare the stable fields rather than the full tree).
        let parsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(parsed.get("k").and_then(Json::as_i64), Some(2));
        let root = parsed.get("trace").and_then(|t| t.get("root")).unwrap();
        assert_eq!(root.get("name").and_then(Json::as_str), Some("explain_analyze"));
        assert_eq!(
            parsed.get("trace").and_then(|t| t.get("schema_version")).and_then(Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn analyze_runs_all_rewrites() {
        let (db, profile) = fixture();
        let graph = InMemoryGraph::build(&profile, db.catalog()).unwrap();
        let sql = "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid";
        for rewrite in [Rewrite::Original, Rewrite::Sq, Rewrite::Mq, Rewrite::NativeRank] {
            let a = explain_analyze(
                sql,
                &graph,
                &db,
                PersonalizeOptions::builder().k(2).l(1).build(),
                rewrite,
            )
            .unwrap();
            assert_eq!(a.rewrite, rewrite);
            assert!(a.trace.root.find("execute").is_some());
            assert!(a.report().contains("strategy: "), "{}", a.report());
        }
        // Auto resolves to a concrete strategy and reports every candidate.
        let a = explain_analyze(
            sql,
            &graph,
            &db,
            PersonalizeOptions::builder().k(2).l(1).build(),
            Rewrite::Auto,
        )
        .unwrap();
        assert_ne!(a.rewrite, Rewrite::Auto);
        assert!(a.strategy.contains("candidates: "), "{}", a.strategy);
        assert_eq!(a.to_json().get("strategy").and_then(Json::as_str), Some(a.strategy.as_str()));
    }

    #[test]
    fn analyze_surfaces_errors_but_still_ends_the_trace() {
        let (db, profile) = fixture();
        let graph = InMemoryGraph::build(&profile, db.catalog()).unwrap();
        let err = explain_analyze(
            "select nonsense from",
            &graph,
            &db,
            PersonalizeOptions::builder().k(2).l(1).build(),
            Rewrite::Mq,
        );
        assert!(err.is_err());
        // The thread-local trace was consumed: a fresh one starts clean.
        assert!(!pqp_obs::trace_active());
    }
}
