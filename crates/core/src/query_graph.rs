//! Mapping a query onto the personalization graph (§5): the query graph.
//!
//! The query graph contains one node per tuple variable (relations may be
//! replicated) plus the selection and join edges of the qualification's
//! conjuncts. Preference paths attach to its nodes and expand outward.

use crate::error::{PrefError, Result};
use pqp_sql::ast::{BinaryOp, Expr, Select, TableFactor};
use pqp_storage::{Catalog, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// A tuple variable of the query: `var` ranges over `table`.
///
/// Both names are shared with the AST and the catalog, and every preference
/// path anchored at this node shares them too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryNode {
    pub var: Arc<str>,
    pub table: Arc<str>,
}

/// A selection condition of the query: `var.column = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySelection {
    pub var: String,
    pub column: String,
    pub value: Value,
}

/// A join condition of the query: `left_var.left_col = right_var.right_col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryJoin {
    pub left_var: String,
    pub left_col: String,
    pub right_var: String,
    pub right_col: String,
}

/// The query represented as a sub-graph of the personalization graph.
#[derive(Debug, Clone, Default)]
pub struct QueryGraph {
    pub nodes: Vec<QueryNode>,
    pub selections: Vec<QuerySelection>,
    pub joins: Vec<QueryJoin>,
}

impl QueryGraph {
    /// Build the query graph of a SELECT block.
    ///
    /// The paper's framework personalizes conjunctive SPJ queries: the FROM
    /// clause must contain base tables only, and only the conjunctive
    /// equality conditions of the qualification become graph edges (other
    /// conjuncts — inequalities, disjunctions — are preserved in the query
    /// but play no role in preference selection).
    pub fn from_select(s: &Select, catalog: &Catalog) -> Result<QueryGraph> {
        let _span = pqp_obs::span("query_graph");
        let mut g = QueryGraph::default();
        for f in &s.from {
            match f {
                TableFactor::Table { name, alias } => {
                    let schema = catalog.schema_of(name).map_err(|_| {
                        PrefError::UnsupportedQuery(format!("unknown table `{name}`"))
                    })?;
                    let var = Arc::clone(alias.as_ref().unwrap_or(name));
                    g.nodes.push(QueryNode { var, table: Arc::clone(&schema.name) });
                }
                TableFactor::Derived { .. } => {
                    return Err(PrefError::UnsupportedQuery(
                        "derived tables cannot be personalized".into(),
                    ));
                }
            }
        }
        if g.nodes.is_empty() {
            return Err(PrefError::UnsupportedQuery("query has no FROM clause".into()));
        }
        if let Some(w) = &s.selection {
            for c in w.conjuncts() {
                g.classify_conjunct(c)?;
            }
        }
        Ok(g)
    }

    fn classify_conjunct(&mut self, c: &Expr) -> Result<()> {
        if let Expr::Binary { left, op: BinaryOp::Eq, right } = c {
            match (&**left, &**right) {
                (Expr::Column { .. }, Expr::Literal(v)) => {
                    if let Some((var, col)) = self.resolve_column(left)? {
                        self.selections.push(QuerySelection { var, column: col, value: v.clone() });
                    }
                    return Ok(());
                }
                (Expr::Literal(v), Expr::Column { .. }) => {
                    if let Some((var, col)) = self.resolve_column(right)? {
                        self.selections.push(QuerySelection { var, column: col, value: v.clone() });
                    }
                    return Ok(());
                }
                (Expr::Column { .. }, Expr::Column { .. }) => {
                    let l = self.resolve_column(left)?;
                    let r = self.resolve_column(right)?;
                    if let (Some((lv, lc)), Some((rv, rc))) = (l, r) {
                        if !lv.eq_ignore_ascii_case(&rv) {
                            self.joins.push(QueryJoin {
                                left_var: lv,
                                left_col: lc,
                                right_var: rv,
                                right_col: rc,
                            });
                        }
                    }
                    return Ok(());
                }
                _ => {}
            }
        }
        // Non-equality or complex conjuncts are legal; they just do not
        // contribute edges.
        Ok(())
    }

    /// Resolve a column AST to (tuple variable, column name). Unqualified
    /// columns resolve if exactly one node's table is plausible; qualified
    /// ones must match a tuple variable.
    fn resolve_column(&self, e: &Expr) -> Result<Option<(String, String)>> {
        let Expr::Column { qualifier, name } = e else {
            return Ok(None);
        };
        match qualifier {
            Some(q) => {
                let node =
                    self.nodes.iter().find(|n| n.var.eq_ignore_ascii_case(q)).ok_or_else(|| {
                        PrefError::UnsupportedQuery(format!("unknown tuple variable `{q}`"))
                    })?;
                Ok(Some((node.var.to_string(), name.to_string())))
            }
            None => {
                // Without schema info per node we cannot disambiguate here;
                // accept only the single-node case.
                if self.nodes.len() == 1 {
                    Ok(Some((self.nodes[0].var.to_string(), name.to_string())))
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Whether a relation (by name, case-insensitively) participates in the
    /// query — the cycle-pruning rule: preference paths must not re-enter
    /// the query.
    pub fn contains_table(&self, table: &str) -> bool {
        self.nodes.iter().any(|n| n.table.eq_ignore_ascii_case(table))
    }

    /// The node of a tuple variable.
    pub fn node(&self, var: &str) -> Option<&QueryNode> {
        self.nodes.iter().find(|n| n.var.eq_ignore_ascii_case(var))
    }

    /// Selection conditions attached to `var` on `column`.
    pub fn selections_on<'a>(
        &'a self,
        var: &'a str,
        column: &'a str,
    ) -> impl Iterator<Item = &'a QuerySelection> + 'a {
        self.selections.iter().filter(move |s| {
            s.var.eq_ignore_ascii_case(var) && s.column.eq_ignore_ascii_case(column)
        })
    }

    /// Join edges leaving `var` (in either syntactic direction), normalized
    /// so the returned tuples read (var, col, other_var, other_col).
    pub fn joins_from_var<'a>(
        &'a self,
        var: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a str, &'a str, &'a str)> + 'a {
        self.joins.iter().filter_map(move |j| {
            if j.left_var.eq_ignore_ascii_case(var) {
                Some((&*j.left_var, &*j.left_col, &*j.right_var, &*j.right_col))
            } else if j.right_var.eq_ignore_ascii_case(var) {
                Some((&*j.right_var, &*j.right_col, &*j.left_var, &*j.left_col))
            } else {
                None
            }
        })
    }

    /// Whether the query graph is connected (the paper notes all but the
    /// most artificial queries are).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen: HashSet<String> = HashSet::new();
        let mut stack = vec![self.nodes[0].var.to_ascii_uppercase()];
        while let Some(v) = stack.pop() {
            if !seen.insert(v.clone()) {
                continue;
            }
            for j in &self.joins {
                let (a, b) = (j.left_var.to_ascii_uppercase(), j.right_var.to_ascii_uppercase());
                if a == v && !seen.contains(&b) {
                    stack.push(b);
                } else if b == v && !seen.contains(&a) {
                    stack.push(a);
                }
            }
        }
        seen.len() == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_storage::{ColumnDef, DataType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in [
            ("MOVIE", vec!["mid", "title"]),
            ("PLAY", vec!["tid", "mid", "date"]),
            ("GENRE", vec!["mid", "genre"]),
        ] {
            c.create_table(TableSchema::new(
                name,
                cols.iter().map(|n| ColumnDef::new(*n, DataType::Str)).collect(),
            ))
            .unwrap();
        }
        c
    }

    fn parse_select(sql: &str) -> Select {
        let q = pqp_sql::parse_query(sql).unwrap();
        q.as_select().unwrap().clone()
    }

    #[test]
    fn paper_initial_query() {
        let s = parse_select(
            "select MV.title from MOVIE MV, PLAY PL \
             where MV.mid = PL.mid and PL.date = '2/7/2003'",
        );
        let g = QueryGraph::from_select(&s, &catalog()).unwrap();
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.joins.len(), 1);
        assert_eq!(g.selections.len(), 1);
        assert_eq!(g.selections[0].var, "PL");
        assert_eq!(&*g.nodes[1].var, "PL");
        assert!(g.contains_table("movie"));
        assert!(!g.contains_table("GENRE"));
        assert!(g.is_connected());
    }

    #[test]
    fn replicated_relations_get_distinct_nodes() {
        let s = parse_select("select G1.genre from GENRE G1, GENRE G2 where G1.mid = G2.mid");
        let g = QueryGraph::from_select(&s, &catalog()).unwrap();
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.joins.len(), 1);
        assert!(g.contains_table("GENRE"));
    }

    #[test]
    fn joins_from_var_normalizes_direction() {
        let s = parse_select("select MV.title from MOVIE MV, PLAY PL where PL.mid = MV.mid");
        let g = QueryGraph::from_select(&s, &catalog()).unwrap();
        let from_mv: Vec<_> = g.joins_from_var("MV").collect();
        assert_eq!(from_mv.len(), 1);
        assert_eq!(from_mv[0].0, "MV");
        assert_eq!(from_mv[0].2, "PL");
    }

    #[test]
    fn non_equality_conjuncts_are_ignored_not_rejected() {
        let s =
            parse_select("select MV.title from MOVIE MV where MV.title <> 'x' and MV.mid = '5'");
        let g = QueryGraph::from_select(&s, &catalog()).unwrap();
        assert_eq!(g.selections.len(), 1);
    }

    #[test]
    fn derived_tables_rejected() {
        let s = parse_select("select T.x from (select MV.title as x from MOVIE MV) T");
        assert!(matches!(
            QueryGraph::from_select(&s, &catalog()),
            Err(PrefError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn unknown_table_rejected() {
        let s = parse_select("select X.a from NOPE X");
        assert!(QueryGraph::from_select(&s, &catalog()).is_err());
    }

    #[test]
    fn disconnected_query_detected() {
        let s = parse_select("select MV.title from MOVIE MV, GENRE GN");
        let g = QueryGraph::from_select(&s, &catalog()).unwrap();
        assert!(!g.is_connected());
    }
}
