//! The planner: binds an AST query against the catalog and produces an
//! executable [`Plan`].
//!
//! Planning includes the optimizations the reproduction depends on for
//! honest relative costs:
//!
//! - single-table predicates are pushed into scans;
//! - equi-join conjuncts drive a greedy join-order search producing hash
//!   and index joins (cross joins only remain for genuinely disconnected
//!   factors); the search and the index-join rule are
//!   `Estimator::join_order` (`crate::cost`), which prices run too;
//! - constant folding short-circuits `WHERE FALSE` branches to `Empty`;
//! - every base-table access path emits only the columns some operator
//!   above it reads (`Planner::plan_select` says which those are).
//!
//! The OR-expansion rewrite (see [`crate::rewrite`]) runs before planning.
//!
//! One `Planner` is one planning pass, and it plans straight into one
//! [`Plan`]'s node array, children first, so a subtree equal to one already
//! planned is stored once (see [`crate::plan`]). The schemas it binds names
//! against are its own, kept beside each planned sub-plan (`Sub`) and not
//! in the plan. Within a pass every name is interned (column and table names
//! are the catalog's own `Arc<str>`s, tuple variables and output names are
//! interned here) and equal schemas are shared, so the partial queries of
//! an MQ rewrite — or the base and witness queries of a native rank plan —
//! which bind the same tables under the same tuple variables keep one
//! schema per `(table, binding)`, per join shape and per projection; the
//! pass also shares one [`Estimator`].

use crate::aggregate::{AggCall, AggFunc};
use crate::bound::BoundExpr;
use crate::cost::{near_far, Estimate, Estimator, Join, JoinEdge, JoinFactor};
use crate::error::{bind_err, EngineError, Result};
use crate::plan::{Builder, Node, NodeId, Plan};
use crate::types::{unresolved, OutputColumn, OutputSchema, SchemaRef};
use pqp_sql::ast::*;
use pqp_storage::{Catalog, ColumnDef, ColumnSet, Table, TableRef, TableSchema, Value};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

/// Plans queries against a catalog.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    estimator: Estimator<'a>,
    /// Tuple variables and output-column names seen in this pass.
    names: RefCell<HashSet<Arc<str>>>,
    /// Every schema built in this pass; equal ones are shared.
    schemas: RefCell<HashSet<SchemaRef>>,
    /// The plan this pass builds: every node goes straight into it.
    plan: RefCell<Builder>,
}

/// A planned sub-plan: its root node and output schema. The schema is the
/// pass's, for binding what is planned above; the plan does not keep it.
pub(crate) struct Sub {
    pub id: NodeId,
    pub schema: SchemaRef,
}

/// A FROM factor's access path as the join order sees it.
struct Path {
    access: Access,
    schema: SchemaRef,
}

enum Access {
    /// A base-table path, not added to the plan yet: an index join may
    /// read the table through its index instead.
    Leaf(Node),
    Planned(NodeId),
}

impl<'a> Planner<'a> {
    /// A planning pass that stores equal subtrees once (see [`crate::plan`]).
    pub fn new(catalog: &'a Catalog) -> Planner<'a> {
        Planner::with_sharing(catalog, true)
    }

    /// A planning pass that stores every subtree where it occurs: its plan
    /// has no shared subtree.
    pub fn unshared(catalog: &'a Catalog) -> Planner<'a> {
        Planner::with_sharing(catalog, false)
    }

    fn with_sharing(catalog: &'a Catalog, share: bool) -> Planner<'a> {
        Planner {
            catalog,
            estimator: Estimator::new(catalog),
            names: RefCell::new(HashSet::new()),
            schemas: RefCell::new(HashSet::new()),
            plan: RefCell::new(Builder::new(share)),
        }
    }

    /// The pass-wide shared copy of a name.
    fn intern(&self, name: &str) -> Arc<str> {
        if let Some(shared) = self.names.borrow().get(name) {
            return shared.clone();
        }
        let shared: Arc<str> = Arc::from(name);
        self.names.borrow_mut().insert(shared.clone());
        shared
    }

    /// [`Self::intern`] for a name the AST already shares: the first
    /// sighting keeps the AST's allocation instead of copying it.
    fn intern_shared(&self, name: &Arc<str>) -> Arc<str> {
        if let Some(shared) = self.names.borrow().get(&**name) {
            return shared.clone();
        }
        self.names.borrow_mut().insert(name.clone());
        name.clone()
    }

    /// The tuple variable a FROM factor binds.
    fn binding(&self, f: &TableFactor) -> Arc<str> {
        match f {
            TableFactor::Table { name, alias } => {
                self.intern_shared(alias.as_ref().unwrap_or(name))
            }
            TableFactor::Derived { alias, .. } => self.intern_shared(alias),
        }
    }

    /// The pass-wide shared handle to a schema: the partial queries and
    /// witness queries of one rewrite repeat the same few shapes, so only
    /// the first of each is kept.
    pub(crate) fn share(&self, schema: OutputSchema) -> SchemaRef {
        if let Some(shared) = self.schemas.borrow().get(&schema) {
            return shared.clone();
        }
        let shared = Arc::new(schema);
        self.schemas.borrow_mut().insert(shared.clone());
        shared
    }

    /// Add `node`, whose output is `schema`, to the plan.
    pub(crate) fn push(&self, node: Node, schema: SchemaRef) -> Sub {
        let id = self.plan.borrow_mut().push(node, &schema);
        Sub { id, schema }
    }

    /// The plan's builder, to add expressions and lists to.
    pub(crate) fn builder(&self) -> std::cell::RefMut<'_, Builder> {
        self.plan.borrow_mut()
    }

    /// The pass's plan, rooted at `root`.
    pub(crate) fn finish(self, root: Sub) -> Plan {
        let columns = root.schema.columns.iter().map(|c| c.name.clone()).collect();
        self.plan.into_inner().finish(root.id, columns)
    }

    fn column(&self, qualifier: Option<&Arc<str>>, name: &Arc<str>) -> OutputColumn {
        OutputColumn {
            qualifier: qualifier.map(|q| self.intern_shared(q)),
            name: self.intern_shared(name),
        }
    }

    /// An unqualified output column the planner names itself.
    fn named_column(&self, name: &str) -> OutputColumn {
        OutputColumn { qualifier: None, name: self.intern(name) }
    }

    /// Output column for a projected expression.
    fn projected_column(&self, expr: &Expr, alias: Option<&Arc<str>>) -> OutputColumn {
        match (alias, expr) {
            (Some(a), _) => self.column(None, a),
            (None, Expr::Column { qualifier, name }) => self.column(qualifier.as_ref(), name),
            (None, other) => self.named_column(&other.to_string()),
        }
    }

    /// Plan a full query with this pass.
    pub fn plan_query(self, q: &Query) -> Result<Plan> {
        let root = self.query(q)?;
        Ok(self.finish(root))
    }

    /// Plan a full query (set expression + order by + limit) into the pass's
    /// plan.
    pub(crate) fn query(&self, q: &Query) -> Result<Sub> {
        let mut plan = match &q.body {
            // ORDER BY may bind below the projection (the hidden-column
            // path), so the select block orders itself.
            SetExpr::Select(sel) => self.plan_select(sel, &q.order_by)?,
            body => {
                let plan = self.plan_set_expr(body)?;
                if q.order_by.is_empty() {
                    plan
                } else {
                    let keys = self.bind_order_by(&q.order_by, first_select(body), &plan.schema)?;
                    self.sort(plan, &keys)
                }
            }
        };
        if let Some(n) = q.limit {
            plan = self.push(Node::Limit { input: plan.id, n }, plan.schema);
        }
        Ok(plan)
    }

    /// `plan` sorted by output column positions.
    fn sort(&self, plan: Sub, keys: &[(usize, bool)]) -> Sub {
        let keys =
            self.builder().list(keys.iter().map(|&(c, desc)| (c as u32) << 1 | u32::from(desc)));
        self.push(Node::Sort { input: plan.id, keys }, plan.schema)
    }

    /// `input` projected by `exprs` into `schema`, then made DISTINCT.
    fn project(&self, input: Sub, exprs: &[BoundExpr], schema: SchemaRef, distinct: bool) -> Sub {
        let exprs = self.builder().exprs(exprs);
        let plan = self.push(Node::Project { input: input.id, exprs }, schema);
        if distinct {
            return self.push(Node::Distinct { input: plan.id }, plan.schema);
        }
        plan
    }

    /// The ORDER BY path that binds below the projection: extend the
    /// projection of `input` with hidden key columns bound against `input`,
    /// sort, then strip them (back to the projection's own `schema`). Legal
    /// for a plain (non-DISTINCT, non-aggregate) select only.
    fn sort_with_hidden_columns(
        &self,
        s: &Select,
        order_by: &[OrderByItem],
        input: Sub,
        mut exprs: Vec<BoundExpr>,
        schema: SchemaRef,
    ) -> Result<Sub> {
        if s.distinct || !s.group_by.is_empty() || s.having.is_some() {
            return bind_err("ORDER BY column must appear in the projection");
        }
        let visible = schema.arity();
        let mut extended = OutputSchema::clone(&schema);
        let mut keys = Vec::new();
        for item in order_by {
            // Visible output column first; otherwise bind against the input.
            if let Expr::Column { qualifier, name } = &item.expr {
                if let Some(i) = extended.position(qualifier.as_deref(), name) {
                    keys.push((i, item.desc));
                    continue;
                }
            }
            let bound = self.bind_expr(&item.expr, &input.schema)?;
            let idx = exprs.len();
            exprs.push(bound);
            extended.columns.push(self.named_column(&format!("__sort_{idx}")));
            keys.push((idx, item.desc));
        }
        let extended = self.project(input, &exprs, self.share(extended), false);
        let sorted = self.sort(extended, &keys);
        let strip: Vec<BoundExpr> = (0..visible).map(BoundExpr::Column).collect();
        Ok(self.project(sorted, &strip, schema, false))
    }

    fn plan_set_expr(&self, s: &SetExpr) -> Result<Sub> {
        match s {
            SetExpr::Select(sel) => self.plan_select(sel, &[]),
            SetExpr::Union { left, right, all } => {
                // Flatten nested unions of the same kind into one n-ary node.
                let mut inputs = Vec::new();
                self.collect_union(left, *all, &mut inputs)?;
                self.collect_union(right, *all, &mut inputs)?;
                let arity = inputs[0].schema.arity();
                for p in &inputs[1..] {
                    if p.schema.arity() != arity {
                        return bind_err(format!(
                            "UNION arms have different arities ({arity} vs {})",
                            p.schema.arity()
                        ));
                    }
                }
                let span = self.builder().list(inputs.iter().map(|p| p.id));
                Ok(self.push(Node::Union { inputs: span, all: *all }, inputs[0].schema.clone()))
            }
        }
    }

    fn collect_union(&self, s: &SetExpr, all: bool, out: &mut Vec<Sub>) -> Result<()> {
        match s {
            SetExpr::Union { left, right, all: inner_all } if *inner_all == all => {
                self.collect_union(left, all, out)?;
                self.collect_union(right, all, out)?;
                Ok(())
            }
            other => {
                out.push(self.plan_set_expr(other)?);
                Ok(())
            }
        }
    }

    /// Plan one select block. `order_by` is the query's ORDER BY when this
    /// block is the whole query body, empty otherwise; the block is then
    /// sorted by it.
    ///
    /// Column pruning: a base table's access path emits only the columns
    /// read *above* it — those named by the projection, GROUP BY, HAVING,
    /// `order_by`, the equi-join edges and the residual conjuncts (multi-
    /// factor or constant); `SELECT *` reads them all. A column that only a
    /// single-factor conjunct reads is not emitted: that conjunct is the
    /// access path's own filter and binds to table positions. A qualified
    /// name marks its factor's column, an unqualified one the column on
    /// every factor that has it, so a name ambiguous over the whole tables
    /// stays ambiguous over the emitted ones.
    fn plan_select(&self, s: &Select, order_by: &[OrderByItem]) -> Result<Sub> {
        // 1. Bind FROM factors.
        let mut factors: Vec<BoundFactor> = Vec::with_capacity(s.from.len());
        for f in &s.from {
            let binding = self.binding(f);
            if factors.iter().any(|seen| seen.binding.eq_ignore_ascii_case(&binding)) {
                return bind_err(format!("duplicate tuple variable `{binding}`"));
            }
            let source = match f {
                TableFactor::Table { name, .. } => {
                    FactorSource::Table { table: self.catalog.table(name)?, read: ColumnSet::EMPTY }
                }
                TableFactor::Derived { query, .. } => {
                    FactorSource::Derived(self.plan_derived(query, &binding)?)
                }
            };
            factors.push(BoundFactor { binding, source });
        }
        for item in &s.projection {
            match item {
                SelectItem::Wildcard => {
                    for f in &mut factors {
                        if let FactorSource::Table { read, .. } = &mut f.source {
                            *read = ColumnSet::ALL;
                        }
                    }
                }
                SelectItem::Expr { expr, .. } => mark_read(expr, &mut factors),
            }
        }
        for e in s.group_by.iter().chain(&s.having).chain(order_by.iter().map(|o| &o.expr)) {
            mark_read(e, &mut factors);
        }

        // 2. Decompose WHERE into conjuncts and plan the join tree.
        let mut plan = if factors.is_empty() {
            // FROM-less select: a single empty row lets `SELECT 1` work.
            let empty = self.share(OutputSchema::default());
            let input = self.push(Node::Empty { arity: 0 }, empty.clone());
            self.project(input, &[], empty, false)
        } else {
            let conjuncts = s.selection.as_ref().map(Expr::conjuncts).unwrap_or_default();
            self.plan_joins(factors, conjuncts)?
        };
        if s.from.is_empty() {
            if let Some(w) = &s.selection {
                let pred = self.bind_expr(w, &plan.schema)?.fold();
                plan = self.filter(plan, &pred);
            }
        }

        // 3. Aggregation.
        let needs_agg = !s.group_by.is_empty()
            || s.having.is_some()
            || s.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            });

        let (proj_exprs, proj_schema) = if needs_agg {
            let (aggregated, exprs, schema, having) = self.bind_aggregate_select(s, plan)?;
            plan = aggregated;
            if let Some(h) = having {
                plan = self.filter(plan, &h);
            }
            (exprs, schema)
        } else {
            self.bind_projection(&s.projection, &plan.schema)?
        };

        // 4. Projection, DISTINCT and ORDER BY.
        let schema = self.share(proj_schema);
        if order_by.is_empty() {
            return Ok(self.project(plan, &proj_exprs, schema, s.distinct));
        }
        match self.bind_order_by(order_by, Some(s), &schema) {
            Ok(keys) => {
                let projected = self.project(plan, &proj_exprs, schema, s.distinct);
                Ok(self.sort(projected, &keys))
            }
            // Sorting by a non-projected column: append hidden sort
            // columns, sort, then strip them.
            Err(e) => {
                self.sort_with_hidden_columns(s, order_by, plan, proj_exprs, schema).map_err(|_| e)
            }
        }
    }

    /// A derived table: its query planned, then its output columns
    /// re-qualified with the alias so references like `TEMP.title` resolve.
    /// The re-qualifying projection is the identity on rows, and the
    /// executor passes them through.
    fn plan_derived(&self, query: &Query, alias: &Arc<str>) -> Result<Sub> {
        let inner = self.query(query)?;
        let columns: Vec<OutputColumn> = (inner.schema.columns.iter())
            .map(|c| OutputColumn { qualifier: Some(alias.clone()), name: c.name.clone() })
            .collect();
        let exprs: Vec<BoundExpr> = (0..columns.len()).map(BoundExpr::Column).collect();
        Ok(self.project(inner, &exprs, self.share(OutputSchema::new(columns)), false))
    }

    /// A factor's access path: its single-factor conjuncts bound to what
    /// the factor reads — a base table's stored row, by table position, or
    /// a derived table's output — and pushed into a scan that emits the
    /// columns read above it.
    fn access_path(
        &self,
        binding: &Arc<str>,
        source: FactorSource,
        preds: &[&Expr],
    ) -> Result<Path> {
        match source {
            FactorSource::Table { table, read } => {
                let t = table.read();
                let schema = t.schema();
                let pred = self.conjunction(preds, Scope::Table(binding, &schema.columns))?;
                let mut columns = Vec::with_capacity(read.len(schema.arity()));
                columns.extend(read.iter(schema.arity()).map(|c| OutputColumn {
                    qualifier: Some(binding.clone()),
                    name: schema.columns[c].name.clone(),
                }));
                let out = self.share(OutputSchema::new(columns));
                let table = t.shared_schema().clone();
                let node = match pred {
                    Some(p) if p.is_const_false() => Node::Empty { arity: out.arity() as u32 },
                    Some(p) if !p.is_const_true() => self.filtered_scan(&t, table, read, p),
                    _ => Node::Scan { table, filter: None, columns: read },
                };
                Ok(Path { access: Access::Leaf(node), schema: out })
            }
            FactorSource::Derived(plan) => {
                let pred = self.conjunction(preds, Scope::Output(&plan.schema))?;
                let plan = match pred {
                    Some(p) => self.filtered(plan, &p),
                    None => plan,
                };
                Ok(Path { access: Access::Planned(plan.id), schema: plan.schema })
            }
        }
    }

    /// The conjuncts bound in `scope`, folded and ANDed in order.
    fn conjunction(&self, conjuncts: &[&Expr], scope: Scope<'_>) -> Result<Option<BoundExpr>> {
        let mut pred: Option<BoundExpr> = None;
        for c in conjuncts {
            let b = self.bind(c, scope)?.fold();
            pred = Some(match pred {
                None => b,
                Some(p) => {
                    BoundExpr::Binary { left: Box::new(p), op: BinaryOp::And, right: Box::new(b) }
                }
            });
        }
        Ok(pred)
    }

    /// A path's estimate, whether it is in the plan yet or not.
    fn estimate(&self, path: &Path) -> Estimate {
        let plan = self.plan.borrow();
        match &path.access {
            Access::Leaf(node) => self.estimator.estimate_node(plan.plan(), node),
            Access::Planned(id) => self.estimator.estimate_at(plan.plan(), *id),
        }
    }

    /// A path as a sub-plan: a leaf is added to the plan now.
    fn place(&self, path: Path) -> Sub {
        match path.access {
            Access::Leaf(node) => self.push(node, path.schema),
            Access::Planned(id) => Sub { id, schema: path.schema },
        }
    }

    /// The join tree over the FROM factors, in the order
    /// [`Estimator::join_order`] gives (the one join search and index-join
    /// rule, which [`Estimator::price_join`] runs too): each step's hash,
    /// index or cross join, then every residual conjunct whose factors are
    /// all joined.
    fn plan_joins(&self, mut factors: Vec<BoundFactor>, conjuncts: Vec<&Expr>) -> Result<Sub> {
        // Classify conjuncts by the set of factors they reference.
        let mut single: Vec<Vec<&Expr>> = vec![Vec::new(); factors.len()];
        let mut edges: Vec<[(usize, &Expr); 2]> = Vec::new();
        let mut residual: Vec<Option<&Expr>> = Vec::new();
        for c in conjuncts {
            let refs = self.factor_refs(c, &factors)?;
            match refs[..] {
                [] => residual.push(Some(c)), // constant predicate
                [i] => single[i].push(c),
                [_, _] => match self.join_edge(c, &factors)? {
                    Some(edge) => edges.push(edge),
                    None => residual.push(Some(c)),
                },
                _ => residual.push(Some(c)),
            }
        }
        // Join edges and residuals are evaluated above the access paths.
        for [(_, l), (_, r)] in &edges {
            mark_read(l, &mut factors);
            mark_read(r, &mut factors);
        }
        for r in residual.iter().flatten() {
            mark_read(r, &mut factors);
        }

        // Attach single-factor predicates, pushing them into the access path
        // (an IndexScan when an equality conjunct hits a hash index, a
        // filtered scan otherwise). Each factor's cardinality and the origins
        // of its join columns come from the statistics-backed estimator;
        // un-analyzed tables fall back to the fixed per-conjunct
        // selectivities inside `crate::cost`.
        let estimator = &self.estimator;
        let mut paths: Vec<Option<(Arc<str>, Path)>> = Vec::with_capacity(factors.len());
        let mut sizes: Vec<JoinFactor> = Vec::with_capacity(factors.len());
        let mut ends: Vec<JoinEdge> = edges
            .iter()
            .map(|&[(a, _), (b, _)]| [(a, Default::default()), (b, Default::default())])
            .collect();
        for (f, (factor, preds)) in factors.into_iter().zip(&single).enumerate() {
            let path = self.access_path(&factor.binding, factor.source, preds)?;
            let est = self.estimate(&path);
            for (edge, ends) in edges.iter().zip(&mut ends) {
                for (&(g, column), (_, end)) in edge.iter().zip(ends) {
                    if g == f {
                        let c = self.bind_column_index(column, &path.schema)?;
                        *end = estimator.join_end(est.origins.get(c).copied().flatten());
                    }
                }
            }
            let leaf = match &path.access {
                Access::Leaf(node) => Some(node),
                Access::Planned(_) => None,
            };
            sizes.push(JoinFactor {
                rows: est.rows,
                cost: est.cost,
                scan: matches!(leaf, Some(Node::Scan { .. })),
                analyzed: leaf.is_some_and(|node| estimator.analyzed_path(node)),
            });
            paths.push(Some((factor.binding, path)));
        }

        let lost = |what: &str| EngineError::Internal(format!("join ordering: {what}"));
        let mut current: Option<Path> = None;
        let mut bindings_in: Vec<Arc<str>> = Vec::with_capacity(paths.len());
        estimator.join_order(&sizes, &ends, |factor, join| {
            let (binding, right) = paths[factor].take().ok_or_else(|| lost("joined twice"))?;
            bindings_in.push(binding);
            let mut plan = match (current.take(), join) {
                (None, None) => {
                    current = Some(right);
                    return Ok(false);
                }
                (Some(left), Some(join)) => self.join(left, right, join, factor, &edges)?,
                _ => return Err(lost("a start factor mid-way")),
            };
            // Apply residual predicates whose factors are all available.
            let mut emptied = false;
            for r in residual.iter_mut() {
                let Some(expr) = *r else { continue };
                if self.refers_only_to(expr, &plan.schema, &bindings_in) {
                    *r = None;
                    let pred = self.bind_expr(expr, &plan.schema)?.fold();
                    emptied |= pred.is_const_false();
                    plan = self.filtered(plan, &pred);
                }
            }
            current = Some(Path { access: Access::Planned(plan.id), schema: plan.schema });
            Ok(emptied)
        })?;
        // An empty FROM never reaches here (the binder rejects it).
        let mut plan = self.place(current.ok_or_else(|| lost("no factors"))?);

        // Leftover residuals (constant predicates, or anything unresolved).
        for r in residual.into_iter().flatten() {
            let pred = self.bind_expr(r, &plan.schema)?.fold();
            plan = self.filtered(plan, &pred);
        }
        Ok(plan)
    }

    /// The joined side `left` joined with factor `factor`'s access path
    /// `right` as a step of the join order says: every form emits
    /// `left ++ right`.
    fn join(
        &self,
        left: Path,
        right: Path,
        join: Join<'_>,
        factor: usize,
        edges: &[[(usize, &Expr); 2]],
    ) -> Result<Sub> {
        let schema = self.share(left.schema.join(&right.schema));
        let node = match join {
            Join::Cross => {
                let (left, right) = (self.place(left), self.place(right));
                Node::CrossJoin { left: left.id, right: right.id }
            }
            Join::Hash(edge_ids) => {
                let mut keys = vec![0; 2 * edge_ids.len()];
                let (left_keys, right_keys) = keys.split_at_mut(edge_ids.len());
                for ((&e, l), r) in edge_ids.iter().zip(left_keys).zip(right_keys) {
                    let [(_, near), (_, far)] = near_far(edges[e], factor);
                    *l = self.bind_column_index(near, &left.schema)? as u32;
                    *r = self.bind_column_index(far, &right.schema)? as u32;
                }
                let (left, right) = (self.place(left), self.place(right));
                let keys = self.builder().list(keys);
                Node::HashJoin { left: left.id, right: right.id, keys }
            }
            Join::Index { edge, probe_is_left } => {
                let [(_, near), (_, far)] = near_far(edges[edge], factor);
                let (probe, probe_column, scan, column) =
                    if probe_is_left { (left, near, right, far) } else { (right, far, left, near) };
                let probe_key = self.bind_column_index(probe_column, &probe.schema)? as u32;
                let scan_key = self.bind_column_index(column, &scan.schema)?;
                let Access::Leaf(Node::Scan { table, filter, columns }) = scan.access else {
                    return Err(EngineError::Internal("index join into a non-scan".into()));
                };
                // The join column's table position: the `scan_key`-th emitted.
                let Some(column) = columns.iter(table.arity()).nth(scan_key) else {
                    return Err(EngineError::Internal("index join on an unemitted column".into()));
                };
                let column = column as u32;
                let probe = self.place(probe);
                Node::IndexJoin {
                    probe: probe.id,
                    probe_key,
                    table,
                    column,
                    filter,
                    probe_is_left,
                    columns,
                }
            }
        };
        Ok(self.push(node, schema))
    }

    /// A bare scan of `table` (read through its guard `t`) with the bound
    /// single-table predicate pushed into it: an [`Node::IndexScan`] when an
    /// equality conjunct hits a hash index, a filtered scan otherwise.
    fn filtered_scan(
        &self,
        t: &Table,
        table: Arc<TableSchema>,
        columns: ColumnSet,
        pred: BoundExpr,
    ) -> Node {
        let mut plan = self.builder();
        if let Some((column, key, residual)) = index_split(t, &pred) {
            let key = plan.expr(&BoundExpr::Literal(key));
            let residual = residual.map(|r| plan.expr(&r));
            return Node::IndexScan { table, column, key, residual, columns };
        }
        Node::Scan { table, filter: Some(plan.expr(&pred)), columns }
    }

    /// `plan` filtered by a bound predicate; a plain filter, never pushed
    /// into an access path.
    fn filter(&self, plan: Sub, pred: &BoundExpr) -> Sub {
        let predicate = self.builder().expr(pred);
        self.push(Node::Filter { input: plan.id, predicate }, plan.schema)
    }

    /// `plan` filtered by a folded predicate; a constant-false one empties
    /// it (the emptied subtree stays in the plan's array, unreferenced), a
    /// constant-true one keeps it as it is.
    fn filtered(&self, plan: Sub, pred: &BoundExpr) -> Sub {
        if pred.is_const_false() {
            let arity = plan.schema.arity() as u32;
            self.push(Node::Empty { arity }, plan.schema)
        } else if pred.is_const_true() {
            plan
        } else {
            self.filter(plan, pred)
        }
    }

    /// Which factors an expression references, each once. An unqualified
    /// column counts for its factor when no other column of any factor
    /// shares its name.
    fn factor_refs(&self, e: &Expr, factors: &[BoundFactor]) -> Result<Vec<usize>> {
        let mut out: Vec<usize> = Vec::new();
        let mut unknown: Option<&str> = None;
        for_each_column(e, &mut |qualifier, name| {
            let factor = match qualifier {
                Some(q) => {
                    let hit = factors.iter().position(|f| f.binding.eq_ignore_ascii_case(q));
                    if hit.is_none() && unknown.is_none() {
                        unknown = Some(q);
                    }
                    hit
                }
                None => {
                    let mut hits = factors
                        .iter()
                        .enumerate()
                        .filter_map(|(i, f)| Some((i, f.count(name))).filter(|&(_, n)| n > 0));
                    match (hits.next(), hits.next()) {
                        (Some((i, 1)), None) => Some(i),
                        _ => None,
                    }
                }
            };
            if let Some(i) = factor {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
        });
        if let Some(q) = unknown {
            return bind_err(format!("unknown tuple variable `{q}`"));
        }
        Ok(out)
    }

    /// Whether every column of `e` belongs to one of `bindings` (unqualified
    /// columns through the qualifier `schema` resolves them to).
    fn refers_only_to(&self, e: &Expr, schema: &OutputSchema, bindings: &[Arc<str>]) -> bool {
        let mut all = true;
        for_each_column(e, &mut |qualifier, name| {
            let qualifier = match qualifier {
                Some(q) => Some(q),
                None => {
                    schema.position(None, name).and_then(|i| schema.columns[i].qualifier.as_deref())
                }
            };
            if let Some(q) = qualifier {
                all &= bindings.iter().any(|b| b.eq_ignore_ascii_case(q));
            }
        });
        all
    }

    /// `a.x = b.y` between two different factors, as a join edge: each
    /// side's factor and column.
    fn join_edge<'e>(
        &self,
        c: &'e Expr,
        factors: &[BoundFactor],
    ) -> Result<Option<[(usize, &'e Expr); 2]>> {
        let Expr::Binary { left, op: BinaryOp::Eq, right } = c else {
            return Ok(None);
        };
        if !matches!((&**left, &**right), (Expr::Column { .. }, Expr::Column { .. })) {
            return Ok(None);
        }
        let li = self.factor_of_column(left, factors)?;
        let ri = self.factor_of_column(right, factors)?;
        Ok(match (li, ri) {
            (Some(li), Some(ri)) if li != ri => Some([(li, &**left), (ri, &**right)]),
            _ => None,
        })
    }

    fn factor_of_column(&self, e: &Expr, factors: &[BoundFactor]) -> Result<Option<usize>> {
        let Expr::Column { qualifier, name } = e else {
            return Ok(None);
        };
        match qualifier {
            Some(q) => Ok(factors.iter().position(|f| f.binding.eq_ignore_ascii_case(q))),
            None => {
                // Unqualified: find the unique factor having this column.
                let mut hit = None;
                for (i, f) in factors.iter().enumerate() {
                    if f.count(name) == 1 {
                        if hit.is_some() {
                            return bind_err(format!("ambiguous column `{name}`"));
                        }
                        hit = Some(i);
                    }
                }
                Ok(hit)
            }
        }
    }

    fn bind_column_index(&self, e: &Expr, schema: &OutputSchema) -> Result<usize> {
        let Expr::Column { qualifier, name } = e else {
            return bind_err("join key must be a plain column");
        };
        schema.resolve(qualifier.as_deref(), name).map_err(EngineError::Bind)
    }

    /// Bind a scalar expression (no aggregates allowed here).
    pub fn bind_expr(&self, e: &Expr, schema: &OutputSchema) -> Result<BoundExpr> {
        self.bind(e, Scope::Output(schema))
    }

    fn bind(&self, e: &Expr, scope: Scope<'_>) -> Result<BoundExpr> {
        match e {
            Expr::Column { qualifier, name } => {
                Ok(BoundExpr::Column(scope.resolve(qualifier.as_deref(), name)?))
            }
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.bind(left, scope)?),
                op: *op,
                right: Box::new(self.bind(right, scope)?),
            }),
            Expr::Not(inner) => Ok(BoundExpr::Not(Box::new(self.bind(inner, scope)?))),
            Expr::IsNull { expr, negated } => {
                Ok(BoundExpr::IsNull { expr: Box::new(self.bind(expr, scope)?), negated: *negated })
            }
            Expr::InList { expr, list, negated } => Ok(BoundExpr::InList {
                expr: Box::new(self.bind(expr, scope)?),
                list: list.iter().map(|x| self.bind(x, scope)).collect::<Result<_>>()?,
                negated: *negated,
            }),
            Expr::Function { name, .. } => {
                if pqp_sql::is_aggregate_name(name) {
                    bind_err(format!("aggregate `{name}` not allowed in this context"))
                } else {
                    bind_err(format!("unknown function `{name}`"))
                }
            }
        }
    }

    /// Bind a plain (non-aggregate) projection.
    fn bind_projection(
        &self,
        items: &[SelectItem],
        schema: &OutputSchema,
    ) -> Result<(Vec<BoundExpr>, OutputSchema)> {
        let mut exprs = Vec::with_capacity(items.len());
        let mut cols = Vec::with_capacity(items.len());
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in schema.columns.iter().enumerate() {
                        exprs.push(BoundExpr::Column(i));
                        cols.push(c.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(self.bind_expr(expr, schema)?);
                    cols.push(self.projected_column(expr, alias.as_ref()));
                }
            }
        }
        Ok((exprs, OutputSchema::new(cols)))
    }

    /// Bind an aggregate select: puts an Aggregate node over `plan` and
    /// returns it with the projection over its output and the rebound HAVING.
    fn bind_aggregate_select(
        &self,
        s: &Select,
        plan: Sub,
    ) -> Result<(Sub, Vec<BoundExpr>, OutputSchema, Option<BoundExpr>)> {
        let input_schema = &plan.schema;

        // Collect aggregate calls from projection and having.
        let mut agg_asts: Vec<Expr> = Vec::new();
        for item in &s.projection {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggregates(expr, &mut agg_asts);
            }
        }
        if let Some(h) = &s.having {
            collect_aggregates(h, &mut agg_asts);
        }

        // Bind group-by expressions.
        let mut group_bound = Vec::with_capacity(s.group_by.len());
        let mut agg_schema_cols = Vec::with_capacity(s.group_by.len() + agg_asts.len());
        for (i, g) in s.group_by.iter().enumerate() {
            group_bound.push(self.bind_expr(g, input_schema)?);
            agg_schema_cols.push(match g {
                Expr::Column { qualifier, name } => self.column(qualifier.as_ref(), name),
                other => self.named_column(&format!("group_{i}__{other}")),
            });
        }

        // Bind aggregate calls.
        let mut aggs = Vec::with_capacity(agg_asts.len());
        for (i, a) in agg_asts.iter().enumerate() {
            let Expr::Function { name, args, wildcard } = a else { unreachable!() };
            let func = AggFunc::from_name(name)
                .ok_or_else(|| EngineError::Bind(format!("unknown aggregate `{name}`")))?;
            let arg = if *wildcard {
                if func != AggFunc::Count {
                    return bind_err(format!("only COUNT accepts `*`, not {name}"));
                }
                None
            } else {
                if args.len() != 1 {
                    return bind_err(format!("aggregate `{name}` takes exactly one argument"));
                }
                Some(self.builder().expr(&self.bind_expr(&args[0], input_schema)?))
            };
            aggs.push(AggCall::new(func, arg)?);
            agg_schema_cols.push(self.named_column(&format!("agg_{i}")));
        }

        let agg_out = self.share(OutputSchema::new(agg_schema_cols));
        let (group_by, aggs) = {
            let mut plan = self.builder();
            (plan.exprs(&group_bound), plan.aggs(aggs))
        };
        let plan = self.push(Node::Aggregate { input: plan.id, group_by, aggs }, agg_out.clone());

        // Rebind projection and HAVING over the aggregate output.
        let ctx = AggContext { group_asts: &s.group_by, agg_asts: &agg_asts };
        let mut exprs = Vec::with_capacity(s.projection.len());
        let mut cols = Vec::with_capacity(s.projection.len());
        for item in &s.projection {
            match item {
                SelectItem::Wildcard => {
                    return bind_err("`*` is not allowed in an aggregate query");
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(self.rebind_post_agg(expr, &ctx, &agg_out)?);
                    cols.push(self.projected_column(expr, alias.as_ref()));
                }
            }
        }
        let having = match &s.having {
            Some(h) => Some(self.rebind_post_agg(h, &ctx, &agg_out)?),
            None => None,
        };
        Ok((plan, exprs, OutputSchema::new(cols), having))
    }

    /// Rebind an expression that may reference group keys and aggregates to
    /// the output of the Aggregate node.
    fn rebind_post_agg(
        &self,
        e: &Expr,
        ctx: &AggContext<'_>,
        agg_out: &OutputSchema,
    ) -> Result<BoundExpr> {
        // Group expression match → group column.
        if let Some(i) = ctx.group_asts.iter().position(|g| expr_eq_ci(g, e)) {
            return Ok(BoundExpr::Column(i));
        }
        // Aggregate call match → aggregate column.
        if let Some(i) = ctx.agg_asts.iter().position(|a| expr_eq_ci(a, e)) {
            return Ok(BoundExpr::Column(ctx.group_asts.len() + i));
        }
        match e {
            Expr::Column { qualifier, name } => {
                // Allow referencing a group column by name.
                let i = agg_out.resolve(qualifier.as_deref(), name).map_err(|_| {
                    EngineError::Bind(format!(
                        "column `{}` must appear in GROUP BY or inside an aggregate",
                        e
                    ))
                })?;
                Ok(BoundExpr::Column(i))
            }
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.rebind_post_agg(left, ctx, agg_out)?),
                op: *op,
                right: Box::new(self.rebind_post_agg(right, ctx, agg_out)?),
            }),
            Expr::Not(inner) => {
                Ok(BoundExpr::Not(Box::new(self.rebind_post_agg(inner, ctx, agg_out)?)))
            }
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.rebind_post_agg(expr, ctx, agg_out)?),
                negated: *negated,
            }),
            Expr::InList { expr, list, negated } => Ok(BoundExpr::InList {
                expr: Box::new(self.rebind_post_agg(expr, ctx, agg_out)?),
                list: list
                    .iter()
                    .map(|x| self.rebind_post_agg(x, ctx, agg_out))
                    .collect::<Result<_>>()?,
                negated: *negated,
            }),
            Expr::Function { name, .. } => {
                bind_err(format!("unexpected function `{name}` after aggregation"))
            }
        }
    }

    /// Bind ORDER BY keys against the projected output.
    fn bind_order_by(
        &self,
        items: &[OrderByItem],
        first: Option<&Select>,
        schema: &OutputSchema,
    ) -> Result<Vec<(usize, bool)>> {
        // Projection ASTs of the first select block, for structural matching.
        let first_projection: Vec<(Option<&str>, &Expr)> = match first {
            Some(sel) => sel
                .projection
                .iter()
                .filter_map(|it| match it {
                    SelectItem::Expr { expr, alias } => Some((alias.as_deref(), expr)),
                    SelectItem::Wildcard => None,
                })
                .collect(),
            None => Vec::new(),
        };
        let mut keys = Vec::new();
        for item in items {
            // 1. Alias or column name in the output schema.
            if let Expr::Column { qualifier, name } = &item.expr {
                if let Some(i) = schema.position(qualifier.as_deref(), name) {
                    keys.push((i, item.desc));
                    continue;
                }
            }
            // 2. Structural match against a projection expression.
            if let Some(i) = first_projection.iter().position(|(_, e)| expr_eq_ci(e, &item.expr)) {
                keys.push((i, item.desc));
                continue;
            }
            return bind_err(format!(
                "ORDER BY expression `{}` does not match any output column",
                item.expr
            ));
        }
        Ok(keys)
    }
}

struct BoundFactor {
    binding: Arc<str>,
    source: FactorSource,
}

/// What a FROM factor reads.
enum FactorSource {
    /// A base table, and the columns read above its access path (see
    /// [`Planner::plan_select`]).
    Table { table: TableRef, read: ColumnSet },
    /// A derived table, planned.
    Derived(Sub),
}

impl BoundFactor {
    /// How many of the factor's columns the unqualified `name` matches.
    fn count(&self, name: &str) -> usize {
        match &self.source {
            FactorSource::Table { table, .. } => {
                let t = table.read();
                t.schema().columns.iter().filter(|c| c.name.eq_ignore_ascii_case(name)).count()
            }
            FactorSource::Derived(plan) => {
                plan.schema.columns.iter().filter(|c| c.matches(None, name)).count()
            }
        }
    }
}

/// Mark the base-table columns `e` reads as read above the access paths: a
/// qualified name on its own factor, an unqualified one on every factor
/// that has it.
fn mark_read(e: &Expr, factors: &mut [BoundFactor]) {
    for_each_column(e, &mut |qualifier, name| {
        for f in factors.iter_mut() {
            if qualifier.is_some_and(|q| !f.binding.eq_ignore_ascii_case(q)) {
                continue;
            }
            if let FactorSource::Table { table, read } = &mut f.source {
                let t = table.read();
                for (c, column) in t.schema().columns.iter().enumerate() {
                    if column.name.eq_ignore_ascii_case(name) {
                        read.insert(c);
                    }
                }
            }
        }
    });
}

/// What column references bind against.
#[derive(Clone, Copy)]
enum Scope<'s> {
    /// The columns of an intermediate result.
    Output(&'s OutputSchema),
    /// Every column of a base table under a tuple variable, by table
    /// position: what a single-factor conjunct reads, because its access
    /// path evaluates it on the stored row.
    Table(&'s str, &'s [ColumnDef]),
}

impl Scope<'_> {
    fn resolve(self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let resolved = match self {
            Scope::Output(schema) => schema.resolve(qualifier, name),
            Scope::Table(binding, columns) => {
                let mut hits = (0..columns.len()).filter(|&c| {
                    columns[c].name.eq_ignore_ascii_case(name)
                        && qualifier.is_none_or(|q| binding.eq_ignore_ascii_case(q))
                });
                match (hits.next(), hits.next()) {
                    (Some(c), None) => Ok(c),
                    (first, _) => Err(unresolved(qualifier, name, first.is_some())),
                }
            }
        };
        resolved.map_err(EngineError::Bind)
    }
}

/// Find the first `col = literal` conjunct of `pred` (non-NULL literal)
/// that hits a hash index of table `t`; returns the indexed column's
/// position, the key, and the remaining conjuncts re-ANDed in order.
fn index_split(t: &Table, pred: &BoundExpr) -> Option<(u32, Value, Option<BoundExpr>)> {
    let conjuncts = split_and(pred);
    let (pos, column, key) = conjuncts.iter().enumerate().find_map(|(i, c)| {
        let (col, v) = as_eq_literal(c)?;
        if v.is_null() {
            return None; // `= NULL` is never TRUE; leave it to the filter
        }
        t.index_on(&t.schema().columns.get(col)?.name)?;
        Some((i, col as u32, v.clone()))
    })?;
    let residual = conjuncts
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != pos)
        .map(|(_, c)| c.clone())
        .reduce(|a, b| BoundExpr::Binary {
            left: Box::new(a),
            op: BinaryOp::And,
            right: Box::new(b),
        });
    Some((column, key, residual))
}

struct AggContext<'a> {
    group_asts: &'a [Expr],
    agg_asts: &'a [Expr],
}

/// Top-level conjuncts of a bound expression.
fn split_and(e: &BoundExpr) -> Vec<&BoundExpr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
        match e {
            BoundExpr::Binary { left, op: BinaryOp::And, right } => {
                walk(left, out);
                walk(right, out);
            }
            other => out.push(other),
        }
    }
    walk(e, &mut out);
    out
}

/// `col = literal` (either orientation), as (column position, literal).
fn as_eq_literal(e: &BoundExpr) -> Option<(usize, &Value)> {
    let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = e else {
        return None;
    };
    match (&**left, &**right) {
        (BoundExpr::Column(c), BoundExpr::Literal(v)) => Some((*c, v)),
        (BoundExpr::Literal(v), BoundExpr::Column(c)) => Some((*c, v)),
        _ => None,
    }
}

/// Collect aggregate function calls (outermost only), deduplicating
/// structurally.
fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Function { name, .. } if pqp_sql::is_aggregate_name(name) => {
            if !out.iter().any(|x| expr_eq_ci(x, e)) {
                out.push(e.clone());
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Not(inner) => collect_aggregates(inner, out),
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for x in list {
                collect_aggregates(x, out);
            }
        }
        Expr::Column { .. } | Expr::Literal(_) => {}
    }
}

/// Case-insensitive structural equality of expressions (identifiers and
/// function names compare case-insensitively; literals exactly).
pub fn expr_eq_ci(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Column { qualifier: qa, name: na }, Expr::Column { qualifier: qb, name: nb }) => {
            na.eq_ignore_ascii_case(nb)
                && match (qa, qb) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    (None, None) => true,
                    _ => false,
                }
        }
        (Expr::Literal(x), Expr::Literal(y)) => x == y,
        (
            Expr::Binary { left: la, op: oa, right: ra },
            Expr::Binary { left: lb, op: ob, right: rb },
        ) => oa == ob && expr_eq_ci(la, lb) && expr_eq_ci(ra, rb),
        (Expr::Not(x), Expr::Not(y)) => expr_eq_ci(x, y),
        (Expr::IsNull { expr: ea, negated: na }, Expr::IsNull { expr: eb, negated: nb }) => {
            na == nb && expr_eq_ci(ea, eb)
        }
        (
            Expr::InList { expr: ea, list: la, negated: na },
            Expr::InList { expr: eb, list: lb, negated: nb },
        ) => {
            na == nb
                && expr_eq_ci(ea, eb)
                && la.len() == lb.len()
                && la.iter().zip(lb).all(|(x, y)| expr_eq_ci(x, y))
        }
        (
            Expr::Function { name: na, args: aa, wildcard: wa },
            Expr::Function { name: nb, args: ab, wildcard: wb },
        ) => {
            na.eq_ignore_ascii_case(nb)
                && wa == wb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| expr_eq_ci(x, y))
        }
        _ => false,
    }
}

/// Call `f(qualifier, name)` for every column reference in `e`, left to
/// right.
fn for_each_column<'e>(e: &'e Expr, f: &mut impl FnMut(Option<&'e str>, &'e str)) {
    match e {
        Expr::Column { qualifier, name } => f(qualifier.as_deref(), name),
        Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            for_each_column(left, f);
            for_each_column(right, f);
        }
        Expr::Not(inner) => for_each_column(inner, f),
        Expr::IsNull { expr, .. } => for_each_column(expr, f),
        Expr::InList { expr, list, .. } => {
            for_each_column(expr, f);
            for x in list {
                for_each_column(x, f);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                for_each_column(a, f);
            }
        }
    }
}

fn first_select(s: &SetExpr) -> Option<&Select> {
    match s {
        SetExpr::Select(sel) => Some(sel),
        SetExpr::Union { left, .. } => first_select(left),
    }
}
