//! The personalization graph (§3.1) and its access backends.
//!
//! The graph extends the schema graph with the user's degrees of interest:
//! join edges (attribute → attribute, directed, labelled with a degree and a
//! to-one/to-many cardinality derived from the schema) and selection edges
//! (attribute → value, labelled with a degree).
//!
//! Two backends implement [`GraphAccess`]:
//!
//! - [`InMemoryGraph`]: the stored form of a profile — one compact table
//!   per user holding each attribute once, one entry per preference and
//!   per-table adjacency lists of positions into it; the edges it hands
//!   out borrow from that table, and the profile can be read back from it;
//! - [`StoredProfileGraph`]: preferences stored in database tables and
//!   fetched with SQL on every adjacency lookup — the setup of the paper's
//!   prototype ("user profiles are stored in a separate table"), whose
//!   per-access cost explains the shape of Figure 6.

use crate::doi::Doi;
use crate::error::{PrefError, Result};
use crate::pref::{AtomicPreference, AttrRef};
use crate::profile::Profile;
use pqp_engine::Database;
use pqp_storage::{Cardinality, Catalog, ColumnDef, DataType, StorageError, TableSchema, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

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

/// In-memory personalization graph: the stored form of a profile.
///
/// It owns one exact-size table built from a [`Profile`]: each distinct
/// attribute once, in its exact spelling; one 40-byte entry per preference,
/// in profile order, naming its attributes by index; and, per table, the
/// positions of the entries leaving it, in decreasing degree. The edges it
/// hands out borrow their attributes and values from that table, and
/// [`InMemoryGraph::to_profile`] gives the profile back unchanged. The
/// default graph has no preferences.
#[derive(Debug, Default)]
pub struct InMemoryGraph {
    /// Each distinct attribute of the profile, in `cmp_attr` order.
    attrs: Box<[AttrRef]>,
    /// One entry per preference, in profile order.
    entries: Box<[Entry]>,
    /// One run of `positions` per table (matched case-insensitively).
    tables: Box<[TableRun]>,
    /// Positions into `entries`, table by table: the joins leaving the
    /// table, then the selections on it, each in decreasing degree (equal
    /// degrees in profile order).
    positions: Box<[u32]>,
}

/// A preference of the graph, its attributes as indices into
/// [`InMemoryGraph::attrs`].
#[derive(Debug)]
enum Entry {
    Selection { attr: u32, value: Value, doi: Doi },
    Join { from: u32, to: u32, doi: Doi, cardinality: Cardinality },
}

const _: () = assert!(std::mem::size_of::<Entry>() == 40);

impl Entry {
    fn doi(&self) -> Doi {
        match self {
            Entry::Selection { doi, .. } | Entry::Join { doi, .. } => *doi,
        }
    }

    /// The attribute whose table the entry leaves: a selection's own, a
    /// join's `from`.
    fn origin(&self) -> u32 {
        match self {
            Entry::Selection { attr, .. } => *attr,
            Entry::Join { from, .. } => *from,
        }
    }
}

/// One table's adjacency: `positions[start..joins_end]` are the joins
/// leaving it, `positions[joins_end..end]` the selections on it.
#[derive(Debug)]
struct TableRun {
    /// An attribute of the table, which spells its name.
    attr: u32,
    start: u32,
    joins_end: u32,
    end: u32,
}

/// Case-insensitive order of table names.
fn cmp_table(a: &str, b: &str) -> Ordering {
    a.bytes().map(|c| c.to_ascii_uppercase()).cmp(b.bytes().map(|c| c.to_ascii_uppercase()))
}

/// An attribute's exact spelling.
fn spelling(a: &AttrRef) -> (&str, &str) {
    (&a.table, &a.column)
}

/// The order the graph stores attributes in: by table, case-insensitively,
/// so that every spelling of one table is one contiguous run, then by exact
/// spelling.
fn cmp_attr(a: &AttrRef, b: &AttrRef) -> Ordering {
    cmp_table(&a.table, &b.table).then_with(|| spelling(a).cmp(&spelling(b)))
}

/// A position into the graph's table, which holds at most `u32::MAX` items.
fn index(i: usize) -> Result<u32> {
    u32::try_from(i).map_err(|_| PrefError::Internal(format!("a profile of {i}+ items")))
}

impl InMemoryGraph {
    /// Build the graph for a profile over a schema catalog, validating the
    /// profile against it.
    ///
    /// Join-edge cardinalities come from the catalog: following an edge into
    /// a table on a key column is to-one, otherwise to-many.
    pub fn build(profile: &Profile, catalog: &Catalog) -> Result<InMemoryGraph> {
        profile.validate(catalog)?;
        let preferences = profile.preferences();

        let mut distinct: Vec<&AttrRef> = Vec::with_capacity(preferences.len() * 2);
        for p in preferences {
            match p {
                AtomicPreference::Selection { attr, .. } => distinct.push(attr),
                AtomicPreference::Join { from, to, .. } => distinct.extend([from, to]),
            }
        }
        distinct.sort_unstable_by(|a, b| cmp_attr(a, b));
        distinct.dedup_by(|a, b| spelling(a) == spelling(b));
        let attrs: Box<[AttrRef]> = distinct.iter().map(|&a| a.clone()).collect();
        drop(distinct);
        let attr = |a: &AttrRef| match attrs.binary_search_by(|x| cmp_attr(x, a)) {
            Ok(i) => index(i),
            Err(_) => Err(PrefError::Internal(format!("attribute {a} missing from its graph"))),
        };

        let mut entries = Vec::with_capacity(preferences.len());
        for p in preferences {
            entries.push(match p {
                AtomicPreference::Selection { attr: a, value, doi } => {
                    Entry::Selection { attr: attr(a)?, value: value.clone(), doi: *doi }
                }
                AtomicPreference::Join { from, to, doi } => Entry::Join {
                    from: attr(from)?,
                    to: attr(to)?,
                    doi: *doi,
                    cardinality: catalog.join_cardinality(&to.table, &to.column)?,
                },
            });
        }
        let entries = entries.into_boxed_slice();

        // Ordered by the attribute they leave, the entries of one table are
        // contiguous (attributes are stored table by table). Within a table:
        // joins before selections, then decreasing degree, with the position
        // breaking ties so that equal degrees keep profile order.
        let origin = |i: &u32| entries[*i as usize].origin();
        let same_table = |a: &u32, b: &u32| {
            attrs[origin(a) as usize].table.eq_ignore_ascii_case(&attrs[origin(b) as usize].table)
        };
        let is_selection = |i: &u32| matches!(entries[*i as usize], Entry::Selection { .. });
        let mut positions = (0..index(entries.len())?).collect::<Vec<u32>>();
        positions.sort_unstable_by_key(origin);
        for run in positions.chunk_by_mut(same_table) {
            run.sort_unstable_by(|a, b| {
                (is_selection(a).cmp(&is_selection(b)))
                    .then(entries[*b as usize].doi().cmp(&entries[*a as usize].doi()))
                    .then(a.cmp(b))
            });
        }
        let mut tables = Vec::with_capacity(positions.chunk_by(same_table).count());
        // Every run fits in `positions`, whose length fits a `u32`.
        let mut start = 0;
        for run in positions.chunk_by(same_table) {
            let joins = run.iter().take_while(|i| !is_selection(i)).count();
            let (joins_end, end) = (start + joins as u32, start + run.len() as u32);
            tables.push(TableRun { attr: origin(&run[0]), start, joins_end, end });
            start = end;
        }
        Ok(InMemoryGraph {
            attrs,
            entries,
            tables: tables.into_boxed_slice(),
            positions: positions.into_boxed_slice(),
        })
    }

    /// The profile this graph was built from, for `user`: the same
    /// preferences in the same order, spellings and degrees.
    pub fn to_profile(&self, user: impl Into<String>) -> Profile {
        let attr = |i: u32| self.attrs[i as usize].clone();
        let preferences = (self.entries.iter())
            .map(|e| match e {
                Entry::Selection { attr: a, value, doi } => {
                    AtomicPreference::Selection { attr: attr(*a), value: value.clone(), doi: *doi }
                }
                Entry::Join { from, to, doi, .. } => {
                    AtomicPreference::Join { from: attr(*from), to: attr(*to), doi: *doi }
                }
            })
            .collect();
        Profile::from_preferences(user, preferences)
    }

    /// The positions of `table`'s joins and of its selections.
    fn adjacency(&self, table: &str) -> (&[u32], &[u32]) {
        let run = self
            .tables
            .iter()
            .find(|r| self.attrs[r.attr as usize].table.eq_ignore_ascii_case(table));
        run.map_or((&[], &[]), |r| {
            let (start, joins_end, end) = (r.start as usize, r.joins_end as usize, r.end as usize);
            (&self.positions[start..joins_end], &self.positions[joins_end..end])
        })
    }
}

impl GraphAccess for InMemoryGraph {
    fn joins_from(&self, table: &str) -> impl Iterator<Item = JoinEdge<'_>> {
        let attr = |i: &u32| Cow::Borrowed(&self.attrs[*i as usize]);
        self.adjacency(table).0.iter().filter_map(move |&i| match &self.entries[i as usize] {
            Entry::Join { from, to, doi, cardinality } => Some(JoinEdge {
                from: attr(from),
                to: attr(to),
                doi: *doi,
                cardinality: *cardinality,
            }),
            Entry::Selection { .. } => None,
        })
    }

    fn selections_of(&self, table: &str) -> impl Iterator<Item = SelectionEdge<'_>> {
        self.adjacency(table).1.iter().filter_map(|&i| match &self.entries[i as usize] {
            Entry::Selection { attr, value, doi } => Some(SelectionEdge {
                attr: Cow::Borrowed(&self.attrs[*attr as usize]),
                value: Cow::Borrowed(value),
                doi: *doi,
            }),
            Entry::Join { .. } => None,
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
    fn edges_borrow_the_graph() {
        let mut p = profile();
        let g = InMemoryGraph::build(&p, &catalog()).unwrap();
        let sel = g.selections_of("GENRE").next().unwrap();
        assert!(matches!(sel.attr, Cow::Borrowed(a) if g.attrs.iter().any(|b| std::ptr::eq(a, b))));
        assert!(matches!(sel.value, Cow::Borrowed(_)));
        let join = g.joins_from("MOVIE").next().unwrap();
        assert!(matches!((join.from, join.to), (Cow::Borrowed(_), Cow::Borrowed(_))));
        // The graph owns its table: a later mutation of the profile does not
        // reach it.
        p.add_selection("GENRE", "genre", "comedy", 0.1).unwrap();
        drop(p);
        assert_eq!(g.selections_of("GENRE").next().unwrap().doi.value(), 0.9);
    }

    #[test]
    fn each_attribute_is_stored_once_per_spelling() {
        let mut p = profile();
        p.add_selection("genre", "GENRE", "drama", 0.8).unwrap();
        let g = InMemoryGraph::build(&p, &catalog()).unwrap();
        // GENRE.genre, genre.GENRE, MOVIE.mid, GENRE.mid.
        assert_eq!(g.attrs.len(), 4);
        // Both spellings of GENRE are one table's adjacency.
        assert_eq!(g.selections_of("Genre").count(), 3);
        assert_eq!(g.tables.len(), 2);
    }

    #[test]
    fn to_profile_gives_the_profile_back() {
        let mut p = profile();
        p.add_selection("genre", "GENRE", "drama", 0.1 + 0.2).unwrap();
        p.add_selection("GENRE", "genre", "comedy", 0.4).unwrap();
        let g = InMemoryGraph::build(&p, &catalog()).unwrap();
        let back = g.to_profile("julie");
        assert_eq!(back, p);
        assert_eq!(format!("{:?}", back.preferences()), format!("{:?}", p.preferences()));
        assert_eq!(InMemoryGraph::default().to_profile("x"), Profile::new("x"));
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
