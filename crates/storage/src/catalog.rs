//! The catalog: the set of tables of one database, plus schema-graph
//! metadata queries (foreign-key joins and their cardinalities) consumed by
//! the personalization layer.

use crate::error::{Result, StorageError};
use crate::schema::{Cardinality, TableSchema};
use crate::sync::RwLock;
use crate::table::Table;
use pqp_obs::failpoint::Failpoints;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared handle to a table. Readers take the lock briefly to scan; the
/// engine materializes what it needs rather than holding guards across
/// operators.
pub type TableRef = Arc<RwLock<Table>>;

/// One join of the schema graph, as derived from a foreign key: the edge is
/// usable in both directions with different cardinalities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaJoin {
    pub from_table: String,
    pub from_column: String,
    pub to_table: String,
    pub to_column: String,
    /// Cardinality of following the edge from `from` to `to`.
    pub cardinality: Cardinality,
}

/// The catalog of a database.
#[derive(Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableRef>,
    /// Bumped on every `ANALYZE` so plan caches keyed on it miss after
    /// statistics change (see `pqp-service`).
    stats_epoch: AtomicU64,
    /// This database's fault-injection registry: every layer serving from
    /// the catalog fires its failpoint sites here, so faults belong to the
    /// node, not the process.
    failpoints: Failpoints,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Create a table from a schema. Fails if the name is taken or if a
    /// foreign key references an unknown table/column already in the catalog.
    /// (Foreign keys to tables created later are validated lazily by
    /// [`Catalog::validate_foreign_keys`].)
    pub fn create_table(&mut self, schema: TableSchema) -> Result<TableRef> {
        let key = schema.name.to_ascii_uppercase();
        if self.tables.contains_key(&key) {
            return Err(StorageError::TableExists(schema.name.to_string()));
        }
        let t = Arc::new(RwLock::new(Table::new(schema)));
        self.tables.insert(key, t.clone());
        Ok(t)
    }

    /// Look up a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<TableRef> {
        self.lookup(name).cloned().ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// Keys are upper-cased names. The planner and estimator look tables up
    /// by their catalog spelling many times per query, so a name that is
    /// already its own key is not copied.
    fn lookup(&self, name: &str) -> Option<&TableRef> {
        if name.bytes().any(|b| b.is_ascii_lowercase()) {
            self.tables.get(&name.to_ascii_uppercase())
        } else {
            self.tables.get(name)
        }
    }

    /// Remove a table. Fails if the table does not exist. Foreign keys of
    /// other tables referencing it are left dangling (re-validate with
    /// [`Catalog::validate_foreign_keys`] if that matters to the caller).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(&name.to_ascii_uppercase())
            .map(|_| ())
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.read().schema().name.to_string()).collect()
    }

    /// A snapshot of a table's schema.
    pub fn schema_of(&self, name: &str) -> Result<TableSchema> {
        Ok(self.table(name)?.read().schema().clone())
    }

    /// Check every declared foreign key references an existing table/column.
    pub fn validate_foreign_keys(&self) -> Result<()> {
        for t in self.tables.values() {
            let t = t.read();
            let s = t.schema();
            for fk in &s.foreign_keys {
                let parent = self.table(&fk.parent_table).map_err(|_| {
                    StorageError::InvalidForeignKey(format!(
                        "`{}` references missing table `{}`",
                        s.name, fk.parent_table
                    ))
                })?;
                let parent = parent.read();
                if fk.columns.len() != fk.parent_columns.len() {
                    return Err(StorageError::InvalidForeignKey(format!(
                        "`{}`: column count mismatch in fk to `{}`",
                        s.name, fk.parent_table
                    )));
                }
                for c in &fk.columns {
                    if s.column_index(c).is_none() {
                        return Err(StorageError::InvalidForeignKey(format!(
                            "`{}`: unknown local column `{c}`",
                            s.name
                        )));
                    }
                }
                for c in &fk.parent_columns {
                    if parent.schema().column_index(c).is_none() {
                        return Err(StorageError::InvalidForeignKey(format!(
                            "`{}`: unknown column `{c}` in parent `{}`",
                            s.name, fk.parent_table
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// All joins of the schema graph, both directions of every foreign key.
    ///
    /// For a foreign key `CHILD.fk → PARENT.pk`:
    /// - `CHILD → PARENT` is **to-one** (pk is a key of PARENT);
    /// - `PARENT → CHILD` is **to-many** unless `fk` happens to be a key of
    ///   CHILD (a 1:1 relationship).
    pub fn schema_joins(&self) -> Vec<SchemaJoin> {
        let mut out = Vec::new();
        for t in self.tables.values() {
            let t = t.read();
            let s = t.schema();
            for fk in &s.foreign_keys {
                let Ok(parent) = self.schema_of(&fk.parent_table) else {
                    continue;
                };
                for (c, pc) in fk.columns.iter().zip(&fk.parent_columns) {
                    out.push(SchemaJoin {
                        from_table: s.name.to_string(),
                        from_column: c.clone(),
                        to_table: parent.name.to_string(),
                        to_column: pc.clone(),
                        cardinality: parent.join_cardinality_into(pc),
                    });
                    out.push(SchemaJoin {
                        from_table: parent.name.to_string(),
                        from_column: pc.clone(),
                        to_table: s.name.to_string(),
                        to_column: c.clone(),
                        cardinality: s.join_cardinality_into(c),
                    });
                }
            }
        }
        out
    }

    /// Monotonic counter bumped by every `ANALYZE`. Plan caches fold it into
    /// their keys so plans built against old statistics are not reused.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Acquire)
    }

    /// The catalog's failpoint registry (one per node; clones share it).
    pub fn failpoints(&self) -> &Failpoints {
        &self.failpoints
    }

    /// `ANALYZE table`: (re)collect statistics for one table and bump the
    /// stats epoch. Takes `&self` — tables are behind locks, so analysis
    /// needs no exclusive catalog access.
    pub fn analyze_table(&self, name: &str) -> Result<()> {
        self.table(name)?.write().analyze();
        self.stats_epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// `ANALYZE`: (re)collect statistics for every table; bumps the stats
    /// epoch once. Returns the number of tables analyzed.
    pub fn analyze_all(&self) -> Result<usize> {
        for t in self.tables.values() {
            t.write().analyze();
        }
        self.stats_epoch.fetch_add(1, Ordering::AcqRel);
        Ok(self.tables.len())
    }

    /// Cardinality of the join `from_table.from_col = to_table.to_col`
    /// followed from `from` to `to`: to-one iff the target column is a key of
    /// the target table. Works for arbitrary equi-joins, not just declared
    /// foreign keys.
    pub fn join_cardinality(&self, to_table: &str, to_column: &str) -> Result<Cardinality> {
        Ok(self.table(to_table)?.read().schema().join_cardinality_into(to_column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::{DataType, Value};

    fn demo_catalog() -> Catalog {
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
                "PLAY",
                vec![
                    ColumnDef::new("tid", DataType::Int),
                    ColumnDef::new("mid", DataType::Int),
                    ColumnDef::new("date", DataType::Str),
                ],
            )
            .with_foreign_key(&["mid"], "MOVIE", &["mid"]),
        )
        .unwrap();
        c
    }

    #[test]
    fn create_and_lookup() {
        let c = demo_catalog();
        assert!(c.contains("movie"));
        assert!(c.table("MOVIE").is_ok());
        assert!(c.table("nope").is_err());
        assert_eq!(c.table_names(), vec!["MOVIE".to_string(), "PLAY".to_string()]);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = demo_catalog();
        let r = c.create_table(TableSchema::new("movie", vec![ColumnDef::new("x", DataType::Int)]));
        assert!(matches!(r, Err(StorageError::TableExists(_))));
    }

    #[test]
    fn schema_join_cardinalities() {
        let c = demo_catalog();
        let joins = c.schema_joins();
        assert_eq!(joins.len(), 2);
        let to_movie =
            joins.iter().find(|j| j.from_table == "PLAY" && j.to_table == "MOVIE").unwrap();
        assert_eq!(to_movie.cardinality, Cardinality::ToOne);
        let to_play =
            joins.iter().find(|j| j.from_table == "MOVIE" && j.to_table == "PLAY").unwrap();
        assert_eq!(to_play.cardinality, Cardinality::ToMany);
    }

    #[test]
    fn fk_validation() {
        let c = demo_catalog();
        assert!(c.validate_foreign_keys().is_ok());

        let mut bad = Catalog::new();
        bad.create_table(
            TableSchema::new("A", vec![ColumnDef::new("x", DataType::Int)]).with_foreign_key(
                &["x"],
                "MISSING",
                &["y"],
            ),
        )
        .unwrap();
        assert!(bad.validate_foreign_keys().is_err());
    }

    #[test]
    fn shared_handle_mutation() {
        let c = demo_catalog();
        let t = c.table("MOVIE").unwrap();
        t.write().insert(vec![Value::Int(1), Value::str("Alien")]).unwrap();
        assert_eq!(c.table("movie").unwrap().read().len(), 1);
    }

    #[test]
    fn join_cardinality_for_adhoc_join() {
        let c = demo_catalog();
        assert_eq!(c.join_cardinality("MOVIE", "mid").unwrap(), Cardinality::ToOne);
        assert_eq!(c.join_cardinality("PLAY", "mid").unwrap(), Cardinality::ToMany);
    }
}
