//! # pqp-engine
//!
//! The relational query engine of the `pqp` workspace: the substitute for
//! the Oracle 9i substrate the paper's prototype ran on.
//!
//! Pipeline: `parse → OR-expansion rewrite → plan (bind + push down + join
//! order, into one flat node array that stores repeated subtrees once) →
//! execute`. See [`rewrite`] for why
//! OR-expansion matters to the reproduction, and [`naive`] for the
//! differential-testing oracle.
//!
//! Execution is serial: every operator of [`exec`] runs on the calling
//! thread.
//!
//! ```
//! use pqp_engine::Database;
//! use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema};
//!
//! let mut catalog = Catalog::new();
//! catalog
//!     .create_table(
//!         TableSchema::new(
//!             "MOVIE",
//!             vec![
//!                 ColumnDef::new("mid", DataType::Int),
//!                 ColumnDef::new("title", DataType::Str),
//!             ],
//!         )
//!         .with_primary_key(&["mid"]),
//!     )
//!     .unwrap();
//! {
//!     let movie = catalog.table("MOVIE").unwrap();
//!     let mut movie = movie.write();
//!     movie.insert(vec![1.into(), "Alien".into()]).unwrap();
//!     movie.insert(vec![2.into(), "Brazil".into()]).unwrap();
//! }
//! let db = Database::new(catalog);
//!
//! // Parse → plan → execute; plans are reusable and thread-safe.
//! let query = pqp_sql::parse_query("select MV.title from MOVIE MV where MV.mid = 2").unwrap();
//! let plan = db.plan(&query).unwrap();
//! let answer = db.run_plan(&plan).unwrap();
//! assert_eq!(answer.rows, vec![vec!["Brazil".into()]]);
//! ```

pub mod aggregate;
pub mod bound;
pub mod cost;
pub mod ddl;
pub mod error;
pub mod exec;
pub mod naive;
pub mod plan;
pub mod planner;
pub mod rewrite;
pub mod topk;
pub mod types;

pub use cost::{Estimate, Estimator, PricedEdge, PricedFactor};
pub use error::{EngineError, Result};
pub use exec::ExecOptions;
pub use types::{OutputColumn, OutputSchema, ResultSet, SchemaRef};

use pqp_obs::QueryCtx;
use pqp_sql::ast::Query;
use pqp_storage::Catalog;

/// A database: a catalog plus the query pipeline.
pub struct Database {
    catalog: Catalog,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Database");
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.table(&name) {
                d.field(&name, &t.read().len());
            }
        }
        d.finish()
    }
}

impl Database {
    /// Wrap a catalog.
    pub fn new(catalog: Catalog) -> Database {
        Database { catalog }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (loading data, creating tables).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Parse, plan and execute a SQL string.
    pub fn run(&self, sql: &str) -> Result<ResultSet> {
        let q = pqp_sql::parse_query(sql)?;
        self.run_query(&q)
    }

    /// Parse and execute any statement: DDL, DML or a query.
    pub fn execute(&mut self, sql: &str) -> Result<ddl::StatementResult> {
        let stmt = pqp_sql::parse_statement(sql)?;
        match &stmt {
            pqp_sql::Statement::Query(q) => Ok(ddl::StatementResult::Rows(self.run_query(q)?)),
            other => ddl::execute_statement(other, &mut self.catalog),
        }
    }

    /// Plan and execute a parsed query.
    pub fn run_query(&self, q: &Query) -> Result<ResultSet> {
        let plan = self.plan(q)?;
        self.run_plan(&plan)
    }

    /// Execute an already-planned query.
    ///
    /// This is the plan-reuse entry point: a plan produced by
    /// [`Database::plan`] is immutable and can be executed any number of
    /// times (and from any thread) as long as the referenced tables still
    /// exist — the serving layer's personalized-plan cache relies on it.
    pub fn run_plan(&self, plan: &plan::Plan) -> Result<ResultSet> {
        self.run_plan_ctx(plan, &ExecOptions::default(), &QueryCtx::unlimited())
    }

    /// Execute an already-planned query under a query-governor context
    /// ([`pqp_obs::QueryCtx`]); the field-less [`ExecOptions`] argument is
    /// ignored (see its doc).
    ///
    /// Operators check the context's deadline / rows-scanned / memory budget
    /// cooperatively at loop boundaries and abort with
    /// [`EngineError::Budget`] (partial-progress counters included) when it
    /// trips.
    pub fn run_plan_ctx(
        &self,
        plan: &plan::Plan,
        _exec: &ExecOptions,
        ctx: &QueryCtx,
    ) -> Result<ResultSet> {
        let _span = pqp_obs::span("execute");
        let rows = exec::execute_ctx(plan, &self.catalog, ctx)?;
        pqp_obs::record("result_rows", rows.len());
        let columns = plan.columns().iter().map(|c| c.to_string()).collect();
        Ok(ResultSet { columns, rows })
    }

    /// Produce the optimized plan for a query (OR-expansion + planning),
    /// its repeated subtrees stored once (see [`plan`]).
    pub fn plan(&self, q: &Query) -> Result<plan::Plan> {
        let _span = pqp_obs::span("plan");
        let pass = planner::Planner::new(&self.catalog);
        let root = self.plan_in(&pass, q)?;
        Ok(pass.finish(root))
    }

    /// One query of a planning pass.
    fn plan_in(&self, pass: &planner::Planner<'_>, q: &Query) -> Result<planner::Sub> {
        let rewritten = rewrite::or_expand(q, &self.catalog);
        pass.query(&rewritten)
    }

    /// Plan without the OR-expansion rewrite, every subtree stored where it
    /// occurs (used by tests and ablations).
    pub fn plan_unexpanded(&self, q: &Query) -> Result<plan::Plan> {
        planner::Planner::unshared(&self.catalog).plan_query(q)
    }

    /// Plan a native rank execution ([`topk::TopKSpec`]) into a
    /// [`plan::Node::TopK`] root: the base query and every witness query
    /// are planned through the normal pipeline, then assembled under the
    /// rank operator. A spec's limit is a [`plan::Node::Limit`] above the
    /// operator, as SQL `LIMIT` is planned. The resulting plan executes
    /// through the usual [`Database::run_plan_ctx`] entry points (and is
    /// cacheable like any other plan). Subtrees the base and the witnesses
    /// repeat are stored once across all of them.
    pub fn plan_topk(&self, spec: &topk::TopKSpec) -> Result<plan::Plan> {
        let _span = pqp_obs::span("plan");
        if spec.probes.len() > topk::MAX_PROBES {
            return Err(EngineError::Bind(format!(
                "native rank supports at most {} preferences, got {}",
                topk::MAX_PROBES,
                spec.probes.len()
            )));
        }
        // One pass for the base and every witness: they bind the same
        // tables under the same tuple variables.
        let pass = planner::Planner::new(&self.catalog);
        let base = self.plan_in(&pass, &spec.base)?;
        let arity = base.schema.arity();
        let expected = spec.columns.len() + spec.probes.len();
        if arity != expected {
            return Err(EngineError::Bind(format!(
                "native rank base projects {arity} columns, expected {expected} \
                 ({} visible + {} probes)",
                spec.columns.len(),
                spec.probes.len()
            )));
        }
        let mut probes = Vec::with_capacity(spec.probes.len());
        for p in &spec.probes {
            if !(0.0..=1.0).contains(&p.doi) {
                return Err(EngineError::Bind(format!(
                    "probe degree of interest {} not in [0, 1]",
                    p.doi
                )));
            }
            let source = match &p.source {
                topk::ProbeSource::Literal(v) => plan::TopKProbeSource::Literal(v.clone()),
                topk::ProbeSource::Witness(q) => {
                    let wp = self.plan_in(&pass, q)?;
                    if wp.schema.arity() != 1 {
                        return Err(EngineError::Bind(format!(
                            "native rank witness query must project exactly one column, got {}",
                            wp.schema.arity()
                        )));
                    }
                    plan::TopKProbeSource::Witness(wp.id)
                }
            };
            probes.push(plan::TopKProbe { doi: p.doi, source });
        }
        let mut columns = Vec::with_capacity(spec.columns.len() + 1);
        columns.extend(spec.columns.iter().map(|c| OutputColumn::new(None, c)));
        if spec.rank {
            columns.push(OutputColumn::new(None, topk::INTEREST_COLUMN));
        }
        let rank = plan::Node::TopK {
            base: base.id,
            probes: pass.builder().probes(probes),
            visible: spec.columns.len() as u32,
            matching: spec.matching,
            rank: spec.rank,
        };
        let mut root = pass.push(rank, pass.share(OutputSchema::new(columns)));
        if let Some(n) = spec.limit {
            root = pass.push(plan::Node::Limit { input: root.id, n }, root.schema);
        }
        Ok(pass.finish(root))
    }

    /// EXPLAIN text for a SQL string, with per-node `est_rows` from the
    /// cost estimator.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let q = pqp_sql::parse_query(sql)?;
        let plan = self.plan(&q)?;
        Ok(Estimator::new(&self.catalog).explain(&plan))
    }
}
