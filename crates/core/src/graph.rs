//! The personalization graph (§3.1) and its access backends.
//!
//! The graph extends the schema graph with the user's degrees of interest:
//! join edges (attribute → attribute, directed, labelled with a degree and a
//! to-one/to-many cardinality derived from the schema) and selection edges
//! (attribute → value, labelled with a degree).
//!
//! Two backends implement [`GraphAccess`]:
//!
//! - [`InMemoryGraph`]: adjacency lists held in memory, built once from a
//!   [`Profile`];
//! - [`StoredProfileGraph`]: preferences stored in database tables and
//!   fetched with SQL on every adjacency lookup — the setup of the paper's
//!   prototype ("user profiles are stored in a separate table"), whose
//!   per-access cost explains the shape of Figure 6.

use crate::doi::Doi;
use crate::error::Result;
use crate::pref::{AtomicPreference, AttrRef};
use crate::profile::Profile;
use pqp_engine::Database;
use pqp_storage::{Cardinality, Catalog, ColumnDef, DataType, StorageError, TableSchema, Value};
use std::cell::Cell;
use std::collections::HashMap;

/// A join edge of the personalization graph, labelled with a degree of
/// interest and the cardinality of following it (into `to`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    pub from: AttrRef,
    pub to: AttrRef,
    pub doi: Doi,
    pub cardinality: Cardinality,
}

/// A selection edge of the personalization graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionEdge {
    pub attr: AttrRef,
    pub value: Value,
    pub doi: Doi,
}

/// Read access to a user's personalization graph, as required by the
/// preference-selection algorithm. Adjacency lists must be returned in
/// **decreasing degree of interest** (the algorithm's expansion pruning
/// relies on it).
pub trait GraphAccess {
    /// Join edges leaving (any attribute of) `table`.
    fn joins_from(&self, table: &str) -> Vec<JoinEdge>;
    /// Selection edges on (attributes of) `table`.
    fn selections_of(&self, table: &str) -> Vec<SelectionEdge>;
    /// Number of adjacency fetches performed so far (a proxy for the
    /// prototype's "database accesses"; used by the Figure 6 experiment).
    fn access_count(&self) -> usize;
    /// Reset the access counter.
    fn reset_access_count(&self);
}

/// In-memory personalization graph.
pub struct InMemoryGraph {
    joins: HashMap<String, Vec<JoinEdge>>,
    selections: HashMap<String, Vec<SelectionEdge>>,
    accesses: Cell<usize>,
}

impl InMemoryGraph {
    /// Build the graph for a profile over a schema catalog.
    ///
    /// Join-edge cardinalities come from the catalog: following an edge into
    /// a table on a key column is to-one, otherwise to-many.
    pub fn build(profile: &Profile, catalog: &Catalog) -> Result<InMemoryGraph> {
        profile.validate(catalog)?;
        let mut joins: HashMap<String, Vec<JoinEdge>> = HashMap::new();
        let mut selections: HashMap<String, Vec<SelectionEdge>> = HashMap::new();
        for p in profile.preferences() {
            match p {
                AtomicPreference::Join { from, to, doi } => {
                    let cardinality = catalog.join_cardinality(&to.table, &to.column)?;
                    joins.entry(from.table.to_ascii_uppercase()).or_default().push(JoinEdge {
                        from: from.clone(),
                        to: to.clone(),
                        doi: *doi,
                        cardinality,
                    });
                }
                AtomicPreference::Selection { attr, value, doi } => {
                    selections.entry(attr.table.to_ascii_uppercase()).or_default().push(
                        SelectionEdge { attr: attr.clone(), value: value.clone(), doi: *doi },
                    );
                }
            }
        }
        for v in joins.values_mut() {
            v.sort_by_key(|e| std::cmp::Reverse(e.doi));
        }
        for v in selections.values_mut() {
            v.sort_by_key(|e| std::cmp::Reverse(e.doi));
        }
        Ok(InMemoryGraph { joins, selections, accesses: Cell::new(0) })
    }
}

impl GraphAccess for InMemoryGraph {
    fn joins_from(&self, table: &str) -> Vec<JoinEdge> {
        self.accesses.set(self.accesses.get() + 1);
        self.joins.get(&table.to_ascii_uppercase()).cloned().unwrap_or_default()
    }

    fn selections_of(&self, table: &str) -> Vec<SelectionEdge> {
        self.accesses.set(self.accesses.get() + 1);
        self.selections.get(&table.to_ascii_uppercase()).cloned().unwrap_or_default()
    }

    fn access_count(&self) -> usize {
        self.accesses.get()
    }

    fn reset_access_count(&self) {
        self.accesses.set(0);
    }
}

/// Names of the profile tables created by [`StoredProfileGraph::install`].
pub const PROFILE_SELECTIONS_TABLE: &str = "PQP_PROFILE_SELECTIONS";
/// See [`PROFILE_SELECTIONS_TABLE`].
pub const PROFILE_JOINS_TABLE: &str = "PQP_PROFILE_JOINS";

/// A personalization graph whose adjacency lists live in database tables and
/// are fetched with SQL queries — one query per adjacency lookup, exactly as
/// in the paper's prototype.
pub struct StoredProfileGraph<'a> {
    db: &'a Database,
    user: String,
    accesses: Cell<usize>,
    /// Simulated per-access latency (see [`Self::with_access_penalty`]).
    penalty: std::time::Duration,
}

impl<'a> StoredProfileGraph<'a> {
    /// Create the profile tables in a database (idempotent: existing tables
    /// are kept).
    pub fn install(db: &mut Database) -> Result<()> {
        let catalog = db.catalog_mut();
        if !catalog.contains(PROFILE_SELECTIONS_TABLE) {
            catalog.create_table(TableSchema::new(
                PROFILE_SELECTIONS_TABLE,
                vec![
                    ColumnDef::new("user_id", DataType::Str),
                    ColumnDef::new("tbl", DataType::Str),
                    ColumnDef::new("col", DataType::Str),
                    ColumnDef::new("val", DataType::Str),
                    ColumnDef::new("doi", DataType::Float),
                ],
            ))?;
            // Adjacency lookups filter on the owning table name.
            catalog.table(PROFILE_SELECTIONS_TABLE)?.write().create_index("tbl")?;
        }
        if !catalog.contains(PROFILE_JOINS_TABLE) {
            catalog.create_table(TableSchema::new(
                PROFILE_JOINS_TABLE,
                vec![
                    ColumnDef::new("user_id", DataType::Str),
                    ColumnDef::new("from_tbl", DataType::Str),
                    ColumnDef::new("from_col", DataType::Str),
                    ColumnDef::new("to_tbl", DataType::Str),
                    ColumnDef::new("to_col", DataType::Str),
                    ColumnDef::new("doi", DataType::Float),
                    ColumnDef::new("to_one", DataType::Bool),
                ],
            ))?;
            catalog.table(PROFILE_JOINS_TABLE)?.write().create_index("from_tbl")?;
        }
        Ok(())
    }

    /// Store a profile's preferences into the profile tables.
    ///
    /// Selection values are stored in their SQL literal form (the store is a
    /// string-typed side table, as in the prototype).
    pub fn store(db: &mut Database, profile: &Profile) -> Result<()> {
        Self::install(db)?;
        profile.validate(db.catalog())?;
        let sels = db.catalog().table(PROFILE_SELECTIONS_TABLE)?;
        let joins = db.catalog().table(PROFILE_JOINS_TABLE)?;
        // Storing is an upsert of the whole profile: clear the user's
        // previous rows, or a refresh would duplicate every preference.
        for table in [&sels, &joins] {
            table.write().delete_where(|r| {
                Ok::<_, StorageError>(r[0].as_str() == Some(profile.user.as_str()))
            })?;
        }
        for p in profile.preferences() {
            match p {
                AtomicPreference::Selection { attr, value, doi } => {
                    sels.write().insert(vec![
                        Value::str(profile.user.as_str()),
                        Value::str(attr.table.to_ascii_uppercase()),
                        Value::str(attr.column.as_str()),
                        Value::str(pqp_sql::sql_literal(value)),
                        Value::Float(doi.value()),
                    ])?;
                }
                AtomicPreference::Join { from, to, doi } => {
                    let card = db.catalog().join_cardinality(&to.table, &to.column)?;
                    joins.write().insert(vec![
                        Value::str(profile.user.as_str()),
                        Value::str(from.table.to_ascii_uppercase()),
                        Value::str(from.column.as_str()),
                        Value::str(to.table.to_ascii_uppercase()),
                        Value::str(to.column.as_str()),
                        Value::Float(doi.value()),
                        Value::Bool(card == Cardinality::ToOne),
                    ])?;
                }
            }
        }
        Ok(())
    }

    /// Open the stored graph of a user.
    pub fn open(db: &'a Database, user: impl Into<String>) -> StoredProfileGraph<'a> {
        StoredProfileGraph {
            db,
            user: user.into(),
            accesses: Cell::new(0),
            penalty: std::time::Duration::ZERO,
        }
    }

    /// Add a simulated latency to every adjacency fetch.
    ///
    /// The paper's prototype fetched adjacency lists from Oracle, paying a
    /// round trip per access; that cost — not the in-memory graph work — is
    /// what shapes its Figure 6 (small profiles touch *more* of the schema
    /// graph per derived preference). An in-process engine answers these
    /// lookups in microseconds, so the Figure 6 experiment offers this
    /// switch to reinstate a realistic per-access cost (busy-wait, so it is
    /// unaffected by timer resolution).
    pub fn with_access_penalty(mut self, penalty: std::time::Duration) -> StoredProfileGraph<'a> {
        self.penalty = penalty;
        self
    }

    fn pay_penalty(&self) {
        if !self.penalty.is_zero() {
            let end = std::time::Instant::now() + self.penalty;
            while std::time::Instant::now() < end {
                std::hint::spin_loop();
            }
        }
    }

    fn parse_literal(text: &str) -> Value {
        pqp_sql::parse_expr(text)
            .ok()
            .and_then(|e| match e {
                pqp_sql::Expr::Literal(v) => Some(v),
                _ => None,
            })
            .unwrap_or_else(|| Value::str(text))
    }
}

impl GraphAccess for StoredProfileGraph<'_> {
    fn joins_from(&self, table: &str) -> Vec<JoinEdge> {
        self.accesses.set(self.accesses.get() + 1);
        self.pay_penalty();
        let sql = format!(
            "select from_tbl, from_col, to_tbl, to_col, doi, to_one \
             from {PROFILE_JOINS_TABLE} \
             where user_id = '{}' and from_tbl = '{}' order by doi desc",
            self.user.replace('\'', "''"),
            table.to_ascii_uppercase()
        );
        let Ok(rs) = self.db.run(&sql) else {
            return Vec::new();
        };
        rs.rows
            .into_iter()
            .filter_map(|r| {
                Some(JoinEdge {
                    from: AttrRef::new(r[0].as_str()?, r[1].as_str()?),
                    to: AttrRef::new(r[2].as_str()?, r[3].as_str()?),
                    doi: Doi::new(r[4].as_f64()?).ok()?,
                    cardinality: if r[5].as_bool()? {
                        Cardinality::ToOne
                    } else {
                        Cardinality::ToMany
                    },
                })
            })
            .collect()
    }

    fn selections_of(&self, table: &str) -> Vec<SelectionEdge> {
        self.accesses.set(self.accesses.get() + 1);
        self.pay_penalty();
        let sql = format!(
            "select tbl, col, val, doi from {PROFILE_SELECTIONS_TABLE} \
             where user_id = '{}' and tbl = '{}' order by doi desc",
            self.user.replace('\'', "''"),
            table.to_ascii_uppercase()
        );
        let Ok(rs) = self.db.run(&sql) else {
            return Vec::new();
        };
        rs.rows
            .into_iter()
            .filter_map(|r| {
                Some(SelectionEdge {
                    attr: AttrRef::new(r[0].as_str()?, r[1].as_str()?),
                    value: Self::parse_literal(r[2].as_str()?),
                    doi: Doi::new(r[3].as_f64()?).ok()?,
                })
            })
            .collect()
    }

    fn access_count(&self) -> usize {
        self.accesses.get()
    }

    fn reset_access_count(&self) {
        self.accesses.set(0);
    }
}

/// Ensure adjacency lists are sorted by decreasing degree (defensive check
/// used by tests and debug assertions).
pub fn is_sorted_desc(dois: impl IntoIterator<Item = Doi>) -> bool {
    let mut prev: Option<Doi> = None;
    for d in dois {
        if let Some(p) = prev {
            if d > p {
                return false;
            }
        }
        prev = Some(d);
    }
    true
}

#[allow(unused)]
fn _assert_object_safe(_: &dyn GraphAccess) {}

#[cfg(test)]
mod tests {
    use super::*;
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
        c.create_table(
            TableSchema::new(
                "GENRE",
                vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
            )
            .with_foreign_key(&["mid"], "MOVIE", &["mid"]),
        )
        .unwrap();
        c
    }

    fn profile() -> Profile {
        let mut p = Profile::new("julie");
        p.add_selection("GENRE", "genre", "comedy", 0.9).unwrap();
        p.add_selection("GENRE", "genre", "thriller", 0.7).unwrap();
        p.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
        p.add_join("GENRE", "mid", "MOVIE", "mid", 1.0).unwrap();
        p
    }

    #[test]
    fn build_and_adjacency() {
        let g = InMemoryGraph::build(&profile(), &catalog()).unwrap();
        let joins = g.joins_from("movie");
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].to.table, "GENRE");
        // GENRE.mid is not a key of GENRE → to-many.
        assert_eq!(joins[0].cardinality, Cardinality::ToMany);
        // MOVIE.mid is the primary key → to-one.
        let back = g.joins_from("GENRE");
        assert_eq!(back[0].cardinality, Cardinality::ToOne);
        let sels = g.selections_of("GENRE");
        assert_eq!(sels.len(), 2);
        assert!(is_sorted_desc(sels.iter().map(|s| s.doi)));
    }

    #[test]
    fn adjacency_sorted_desc() {
        let mut p = profile();
        p.add_selection("GENRE", "genre", "adventure", 0.95).unwrap();
        let g = InMemoryGraph::build(&p, &catalog()).unwrap();
        let sels = g.selections_of("GENRE");
        assert_eq!(sels[0].value, Value::str("adventure"));
        assert!(is_sorted_desc(sels.iter().map(|s| s.doi)));
    }

    #[test]
    fn access_counting() {
        let g = InMemoryGraph::build(&profile(), &catalog()).unwrap();
        g.joins_from("MOVIE");
        g.selections_of("GENRE");
        assert_eq!(g.access_count(), 2);
        g.reset_access_count();
        assert_eq!(g.access_count(), 0);
    }

    #[test]
    fn invalid_profile_rejected() {
        let mut p = Profile::new("x");
        p.add_selection("NOPE", "c", "v", 0.5).unwrap();
        assert!(InMemoryGraph::build(&p, &catalog()).is_err());
    }

    #[test]
    fn stored_graph_roundtrip() {
        let mut db = Database::new(catalog());
        StoredProfileGraph::store(&mut db, &profile()).unwrap();
        let g = StoredProfileGraph::open(&db, "julie");
        let sels = g.selections_of("GENRE");
        assert_eq!(sels.len(), 2);
        assert_eq!(sels[0].value, Value::str("comedy"));
        assert_eq!(sels[0].doi.value(), 0.9);
        assert!(is_sorted_desc(sels.iter().map(|s| s.doi)));
        let joins = g.joins_from("MOVIE");
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].cardinality, Cardinality::ToMany);
        assert!(g.access_count() >= 2);
        // Unknown user sees an empty graph.
        let other = StoredProfileGraph::open(&db, "rob");
        assert!(other.selections_of("GENRE").is_empty());
    }

    #[test]
    fn re_storing_a_profile_is_an_upsert() {
        let mut db = Database::new(catalog());
        StoredProfileGraph::store(&mut db, &profile()).unwrap();
        // Refresh with an updated degree: no duplicates, new degree wins.
        let mut updated = profile();
        updated.add_selection("GENRE", "genre", "comedy", 0.4).unwrap();
        StoredProfileGraph::store(&mut db, &updated).unwrap();
        let g = StoredProfileGraph::open(&db, "julie");
        let sels = g.selections_of("GENRE");
        assert_eq!(sels.len(), 2, "no duplicated rows after re-store");
        let comedy = sels.iter().find(|s| s.value == Value::str("comedy")).unwrap();
        assert_eq!(comedy.doi.value(), 0.4);
        // Other users' rows untouched.
        let mut other = Profile::new("rob");
        other.add_selection("GENRE", "genre", "sci-fi", 0.9).unwrap();
        StoredProfileGraph::store(&mut db, &other).unwrap();
        StoredProfileGraph::store(&mut db, &updated).unwrap();
        let rob = StoredProfileGraph::open(&db, "rob");
        assert_eq!(rob.selections_of("GENRE").len(), 1);
    }

    #[test]
    fn access_penalty_slows_fetches() {
        let mut db = Database::new(catalog());
        StoredProfileGraph::store(&mut db, &profile()).unwrap();
        let slow = StoredProfileGraph::open(&db, "julie")
            .with_access_penalty(std::time::Duration::from_millis(2));
        let start = std::time::Instant::now();
        slow.selections_of("GENRE");
        slow.joins_from("MOVIE");
        assert!(start.elapsed() >= std::time::Duration::from_millis(4));
        assert_eq!(slow.access_count(), 2);
    }

    #[test]
    fn stored_graph_quoting() {
        let mut db = Database::new(catalog());
        let mut p = Profile::new("o'neil");
        p.add_selection("GENRE", "genre", "sci'fi", 0.5).unwrap();
        StoredProfileGraph::store(&mut db, &p).unwrap();
        let g = StoredProfileGraph::open(&db, "o'neil");
        let sels = g.selections_of("GENRE");
        assert_eq!(sels.len(), 1);
        assert_eq!(sels[0].value, Value::str("sci'fi"));
    }
}
