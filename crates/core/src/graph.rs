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
//!   [`Profile`] as positions into its preference list, so the edges it
//!   hands out borrow the profile's attributes and values;
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
use std::borrow::Cow;
use std::sync::Arc;

/// A join edge of the personalization graph, labelled with a degree of
/// interest and the cardinality of following it (into `to`).
///
/// An edge borrows its attributes from the graph that handed it out (`'g`);
/// a backend that materializes edges per lookup hands out owned ones.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge<'g> {
    pub from: Cow<'g, AttrRef>,
    pub to: Cow<'g, AttrRef>,
    pub doi: Doi,
    pub cardinality: Cardinality,
}

impl JoinEdge<'_> {
    /// An edge that owns its attributes.
    pub fn new(
        from: AttrRef,
        to: AttrRef,
        doi: Doi,
        cardinality: Cardinality,
    ) -> JoinEdge<'static> {
        JoinEdge { from: Cow::Owned(from), to: Cow::Owned(to), doi, cardinality }
    }

    /// Whether two edges join the same attributes (case-insensitively),
    /// whatever their degrees.
    pub fn same_hop(&self, other: &JoinEdge<'_>) -> bool {
        self.from.same_as(&other.from) && self.to.same_as(&other.to)
    }
}

/// A selection edge of the personalization graph; borrowed like
/// [`JoinEdge`].
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionEdge<'g> {
    pub attr: Cow<'g, AttrRef>,
    pub value: Cow<'g, Value>,
    pub doi: Doi,
}

impl SelectionEdge<'_> {
    /// An edge that owns its attribute and value.
    pub fn new(attr: AttrRef, value: Value, doi: Doi) -> SelectionEdge<'static> {
        SelectionEdge { attr: Cow::Owned(attr), value: Cow::Owned(value), doi }
    }
}

/// Read access to a user's personalization graph, as required by the
/// preference-selection algorithm. Adjacency lists must be returned in
/// **decreasing degree of interest** (the algorithm's expansion pruning
/// relies on it).
///
/// Each call is one adjacency *fetch* — the prototype's "database access",
/// the Figure 6 axis — and the selection algorithm counts them itself
/// ([`crate::select::SelectStats::graph_accesses`]), so a backend keeps no
/// per-query state and one graph can serve concurrent selections.
pub trait GraphAccess {
    /// Join edges leaving (any attribute of) `table`.
    fn joins_from(&self, table: &str) -> impl Iterator<Item = JoinEdge<'_>>;
    /// Selection edges on (attributes of) `table`.
    fn selections_of(&self, table: &str) -> impl Iterator<Item = SelectionEdge<'_>>;
}

/// In-memory personalization graph.
///
/// It shares its profile's preference list and stores each adjacency list
/// as positions into it (plus, for joins, the schema-derived cardinality),
/// so a graph costs a few bytes per preference beyond the profile it reads.
/// The default graph has no preferences.
#[derive(Debug, Default)]
pub struct InMemoryGraph {
    preferences: Arc<Vec<AtomicPreference>>,
    /// Per table: join preferences leaving it, with their cardinalities.
    joins: Adjacency<(usize, Cardinality)>,
    /// Per table: selection preferences on it.
    selections: Adjacency<usize>,
}

/// Per table (upper-cased), positions into the preference list.
type Adjacency<T> = Vec<(Box<str>, Vec<T>)>;

/// The adjacency list of `table` (matched case-insensitively).
fn adjacency<'a, T>(lists: &'a Adjacency<T>, table: &str) -> &'a [T] {
    lists.iter().find(|(t, _)| t.eq_ignore_ascii_case(table)).map_or(&[], |(_, list)| list)
}

/// The adjacency list of `table`, created empty on first use.
fn adjacency_mut<'a, T>(lists: &'a mut Adjacency<T>, table: &str) -> &'a mut Vec<T> {
    let i = match lists.iter().position(|(t, _)| t.eq_ignore_ascii_case(table)) {
        Some(i) => i,
        None => {
            lists.push((table.to_ascii_uppercase().into(), Vec::new()));
            lists.len() - 1
        }
    };
    &mut lists[i].1
}

impl InMemoryGraph {
    /// Build the graph for a profile over a schema catalog.
    ///
    /// Join-edge cardinalities come from the catalog: following an edge into
    /// a table on a key column is to-one, otherwise to-many.
    pub fn build(profile: &Profile, catalog: &Catalog) -> Result<InMemoryGraph> {
        profile.validate(catalog)?;
        let preferences = Arc::clone(profile.shared_preferences());
        let mut joins: Adjacency<(usize, Cardinality)> = Vec::new();
        let mut selections: Adjacency<usize> = Vec::new();
        for (i, p) in preferences.iter().enumerate() {
            match p {
                AtomicPreference::Join { from, to, .. } => {
                    let cardinality = catalog.join_cardinality(&to.table, &to.column)?;
                    adjacency_mut(&mut joins, &from.table).push((i, cardinality));
                }
                AtomicPreference::Selection { attr, .. } => {
                    adjacency_mut(&mut selections, &attr.table).push(i);
                }
            }
        }
        // Stable sorts: equal degrees keep profile order.
        let doi = |i: usize| std::cmp::Reverse(preferences[i].doi());
        for (_, list) in &mut joins {
            list.sort_by_key(|&(i, _)| doi(i));
            list.shrink_to_fit();
        }
        for (_, list) in &mut selections {
            list.sort_by_key(|&i| doi(i));
            list.shrink_to_fit();
        }
        joins.shrink_to_fit();
        selections.shrink_to_fit();
        Ok(InMemoryGraph { preferences, joins, selections })
    }
}

impl GraphAccess for InMemoryGraph {
    fn joins_from(&self, table: &str) -> impl Iterator<Item = JoinEdge<'_>> {
        adjacency(&self.joins, table).iter().filter_map(|&(i, cardinality)| {
            match &self.preferences[i] {
                AtomicPreference::Join { from, to, doi } => Some(JoinEdge {
                    from: Cow::Borrowed(from),
                    to: Cow::Borrowed(to),
                    doi: *doi,
                    cardinality,
                }),
                AtomicPreference::Selection { .. } => None,
            }
        })
    }

    fn selections_of(&self, table: &str) -> impl Iterator<Item = SelectionEdge<'_>> {
        adjacency(&self.selections, table).iter().filter_map(|&i| match &self.preferences[i] {
            AtomicPreference::Selection { attr, value, doi } => Some(SelectionEdge {
                attr: Cow::Borrowed(attr),
                value: Cow::Borrowed(value),
                doi: *doi,
            }),
            AtomicPreference::Join { .. } => None,
        })
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
        StoredProfileGraph { db, user: user.into() }
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
    fn joins_from(&self, table: &str) -> impl Iterator<Item = JoinEdge<'_>> {
        let sql = format!(
            "select from_tbl, from_col, to_tbl, to_col, doi, to_one \
             from {PROFILE_JOINS_TABLE} \
             where user_id = '{}' and from_tbl = '{}' order by doi desc",
            self.user.replace('\'', "''"),
            table.to_ascii_uppercase()
        );
        let rows = self.db.run(&sql).map(|rs| rs.rows).unwrap_or_default();
        rows.into_iter().filter_map(|r| {
            Some(JoinEdge::new(
                AttrRef::new(r[0].as_str()?, r[1].as_str()?),
                AttrRef::new(r[2].as_str()?, r[3].as_str()?),
                Doi::new(r[4].as_f64()?).ok()?,
                if r[5].as_bool()? { Cardinality::ToOne } else { Cardinality::ToMany },
            ))
        })
    }

    fn selections_of(&self, table: &str) -> impl Iterator<Item = SelectionEdge<'_>> {
        let sql = format!(
            "select tbl, col, val, doi from {PROFILE_SELECTIONS_TABLE} \
             where user_id = '{}' and tbl = '{}' order by doi desc",
            self.user.replace('\'', "''"),
            table.to_ascii_uppercase()
        );
        let rows = self.db.run(&sql).map(|rs| rs.rows).unwrap_or_default();
        rows.into_iter().filter_map(|r| {
            Some(SelectionEdge::new(
                AttrRef::new(r[0].as_str()?, r[1].as_str()?),
                Self::parse_literal(r[2].as_str()?),
                Doi::new(r[3].as_f64()?).ok()?,
            ))
        })
    }
}

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
        let joins: Vec<JoinEdge> = g.joins_from("movie").collect();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].to.table, "GENRE");
        // GENRE.mid is not a key of GENRE → to-many.
        assert_eq!(joins[0].cardinality, Cardinality::ToMany);
        // MOVIE.mid is the primary key → to-one.
        let back: Vec<JoinEdge> = g.joins_from("GENRE").collect();
        assert_eq!(back[0].cardinality, Cardinality::ToOne);
        let sels: Vec<SelectionEdge> = g.selections_of("GENRE").collect();
        assert_eq!(sels.len(), 2);
        assert!(sels.windows(2).all(|w| w[0].doi >= w[1].doi));
    }

    #[test]
    fn adjacency_sorted_desc() {
        let mut p = profile();
        p.add_selection("GENRE", "genre", "adventure", 0.95).unwrap();
        let g = InMemoryGraph::build(&p, &catalog()).unwrap();
        let sels: Vec<SelectionEdge> = g.selections_of("GENRE").collect();
        assert_eq!(*sels[0].value, Value::str("adventure"));
        assert!(sels.windows(2).all(|w| w[0].doi >= w[1].doi));
    }

    #[test]
    fn edges_borrow_the_profile_they_were_built_from() {
        let p = profile();
        let g = InMemoryGraph::build(&p, &catalog()).unwrap();
        assert!(Arc::ptr_eq(&g.preferences, p.shared_preferences()), "the list is shared");
        let sel = g.selections_of("GENRE").next().unwrap();
        let AtomicPreference::Selection { attr, .. } = &p.preferences()[0] else { panic!() };
        assert!(matches!(sel.attr, Cow::Borrowed(a) if std::ptr::eq(a, attr)));
        // A later mutation of the profile copies its list; the graph keeps
        // reading the one it was built from.
        let mut q = p.clone();
        q.add_selection("GENRE", "genre", "comedy", 0.1).unwrap();
        assert_eq!(g.selections_of("GENRE").next().unwrap().doi.value(), 0.9);
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
        let sels: Vec<SelectionEdge> = g.selections_of("GENRE").collect();
        assert_eq!(sels.len(), 2);
        assert_eq!(*sels[0].value, Value::str("comedy"));
        assert_eq!(sels[0].doi.value(), 0.9);
        assert!(sels.windows(2).all(|w| w[0].doi >= w[1].doi));
        let joins: Vec<JoinEdge> = g.joins_from("MOVIE").collect();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].cardinality, Cardinality::ToMany);
        // Unknown user sees an empty graph.
        let other = StoredProfileGraph::open(&db, "rob");
        assert_eq!(other.selections_of("GENRE").count(), 0);
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
        let sels: Vec<SelectionEdge> = g.selections_of("GENRE").collect();
        assert_eq!(sels.len(), 2, "no duplicated rows after re-store");
        let comedy = sels.iter().find(|s| *s.value == Value::str("comedy")).unwrap();
        assert_eq!(comedy.doi.value(), 0.4);
        // Other users' rows untouched.
        let mut other = Profile::new("rob");
        other.add_selection("GENRE", "genre", "sci-fi", 0.9).unwrap();
        StoredProfileGraph::store(&mut db, &other).unwrap();
        StoredProfileGraph::store(&mut db, &updated).unwrap();
        let rob = StoredProfileGraph::open(&db, "rob");
        assert_eq!(rob.selections_of("GENRE").count(), 1);
    }

    #[test]
    fn stored_graph_quoting() {
        let mut db = Database::new(catalog());
        let mut p = Profile::new("o'neil");
        p.add_selection("GENRE", "genre", "sci'fi", 0.5).unwrap();
        StoredProfileGraph::store(&mut db, &p).unwrap();
        let g = StoredProfileGraph::open(&db, "o'neil");
        let sels: Vec<SelectionEdge> = g.selections_of("GENRE").collect();
        assert_eq!(sels.len(), 1);
        assert_eq!(*sels[0].value, Value::str("sci'fi"));
    }
}
