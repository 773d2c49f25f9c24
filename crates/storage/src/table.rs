//! A table = schema + heap + indexes, with insert-time constraint checking.
//!
//! Rows go in as values and come out either decoded ([`Table::scan`],
//! [`Table::get`]) or as their encoded bytes ([`Table::iter_raw`],
//! [`Table::index_lookup_raw`]) for the executor, which decodes them
//! straight into column batches or output rows.

use crate::error::{Result, StorageError};
use crate::heap::Heap;
use crate::index::HashIndex;
use crate::page::RowId;
use crate::row::Row;
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::value::Value;
use std::sync::Arc;

/// A stored table.
pub struct Table {
    schema: TableSchema,
    heap: Heap,
    /// Indexes; index 0, when present, is the primary-key index.
    indexes: Vec<HashIndex>,
    /// Statistics snapshot from the last `ANALYZE`, if any. Deliberately
    /// left stale across inserts/deletes until the next `ANALYZE`.
    stats: Option<Arc<TableStats>>,
}

impl Table {
    /// Create an empty table. A unique index is built for the primary key and
    /// for each declared unique constraint.
    pub fn new(schema: TableSchema) -> Table {
        let mut indexes = Vec::new();
        if !schema.primary_key.is_empty() {
            indexes.push(HashIndex::new(schema.primary_key.clone(), true));
        }
        for u in &schema.unique {
            indexes.push(HashIndex::new(u.clone(), true));
        }
        Table { schema, heap: Heap::new(), indexes, stats: None }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Add a non-unique secondary index on the named column. Existing rows
    /// are back-filled. Returns the index position.
    pub fn create_index(&mut self, column: &str) -> Result<usize> {
        let col = self.schema.column_index(column).ok_or_else(|| StorageError::UnknownColumn {
            table: self.schema.name.to_string(),
            column: column.to_string(),
        })?;
        let mut idx = HashIndex::new(vec![col], false);
        for (id, row) in self.heap.iter() {
            idx.insert(&row?, id);
        }
        self.indexes.push(idx);
        Ok(self.indexes.len() - 1)
    }

    /// Find a single-column index on the named column, if any.
    pub fn index_on(&self, column: &str) -> Option<&HashIndex> {
        let col = self.schema.column_index(column)?;
        self.indexes.iter().find(|i| i.columns() == [col])
    }

    /// Validate and insert a row. Values are coerced (Int → Float) to the
    /// column types; arity, type, NOT NULL and key constraints are enforced.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name.to_string(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(&self.schema.columns) {
            if v.is_null() {
                if !col.nullable {
                    return Err(StorageError::NullViolation {
                        table: self.schema.name.to_string(),
                        column: col.name.to_string(),
                    });
                }
                coerced.push(v);
                continue;
            }
            if !v.conforms_to(col.ty) {
                return Err(StorageError::TypeMismatch {
                    table: self.schema.name.to_string(),
                    column: col.name.to_string(),
                    expected: col.ty.to_string(),
                    got: format!("{v:?}"),
                });
            }
            coerced.push(v.coerce_to(col.ty));
        }
        for idx in &self.indexes {
            if idx.is_unique() && idx.contains_key(&idx.key_of(&coerced)) {
                return Err(StorageError::DuplicateKey { table: self.schema.name.to_string() });
            }
        }
        let id = self.heap.insert(&coerced)?;
        for idx in &mut self.indexes {
            idx.insert(&coerced, id);
        }
        Ok(id)
    }

    /// Fetch a row by id.
    pub fn get(&self, id: RowId) -> Option<Result<Row>> {
        self.heap.get(id)
    }

    /// Delete a row by id, maintaining indexes.
    pub fn delete(&mut self, id: RowId) -> Result<bool> {
        let Some(row) = self.heap.get(id) else {
            return Ok(false);
        };
        let row = row?;
        if !self.heap.delete(id) {
            return Ok(false);
        }
        for idx in &mut self.indexes {
            idx.remove(&row, id);
        }
        Ok(true)
    }

    /// Iterate over live rows.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Result<Row>)> + '_ {
        self.heap.iter()
    }

    /// Number of heap pages.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// Materialize all rows.
    pub fn scan(&self) -> Result<Vec<Row>> {
        self.heap.scan()
    }

    /// Iterate over live rows as raw encoded bytes (the executor's scan
    /// path; same order as [`Table::iter`]).
    pub fn iter_raw(&self) -> impl Iterator<Item = Result<&[u8]>> + '_ {
        self.heap.iter_raw()
    }

    /// Scan the table and (re)collect its statistics snapshot. Returns the
    /// fresh stats. O(rows · columns · log rows) — per-column sorts for NDV
    /// and the equi-depth histograms.
    pub fn analyze(&mut self) -> Result<Arc<TableStats>> {
        let rows = self.heap.scan()?;
        let stats = Arc::new(TableStats::collect(&rows, self.schema.arity()));
        self.stats = Some(stats.clone());
        Ok(stats)
    }

    /// The statistics snapshot from the last [`Table::analyze`], if any.
    /// May be stale relative to the live heap.
    pub fn stats(&self) -> Option<Arc<TableStats>> {
        self.stats.clone()
    }

    /// Point lookup through an index on `column`: the encoded bytes of each
    /// matching row, in index order, undecoded — the caller decodes them
    /// where the values are wanted (`crate::row::decode_row_into`). Returns
    /// `None` if no index on that column exists.
    pub fn index_lookup_raw<'a>(
        &'a self,
        column: &str,
        key: &Value,
    ) -> Option<impl Iterator<Item = &'a [u8]> + 'a> {
        let ids = self.index_on(column)?.lookup(std::slice::from_ref(key));
        Some(ids.iter().filter_map(|&id| self.heap.get_raw(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn movie_table() -> Table {
        Table::new(
            TableSchema::new(
                "MOVIE",
                vec![
                    ColumnDef::new("mid", DataType::Int),
                    ColumnDef::new("title", DataType::Str),
                    ColumnDef::nullable("year", DataType::Int),
                ],
            )
            .with_primary_key(&["mid"]),
        )
    }

    #[test]
    fn insert_and_scan() {
        let mut t = movie_table();
        t.insert(vec![Value::Int(1), Value::str("Alien"), Value::Int(1979)]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("Brazil"), Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
        let rows = t.scan().unwrap();
        assert_eq!(rows[0][1], Value::str("Alien"));
        assert_eq!(rows[1][2], Value::Null);
    }

    #[test]
    fn arity_and_type_enforced() {
        let mut t = movie_table();
        assert!(matches!(t.insert(vec![Value::Int(1)]), Err(StorageError::ArityMismatch { .. })));
        assert!(matches!(
            t.insert(vec![Value::str("not an id"), Value::str("x"), Value::Null]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn null_constraint_enforced() {
        let mut t = movie_table();
        assert!(matches!(
            t.insert(vec![Value::Null, Value::str("x"), Value::Null]),
            Err(StorageError::NullViolation { .. })
        ));
    }

    #[test]
    fn primary_key_enforced() {
        let mut t = movie_table();
        t.insert(vec![Value::Int(1), Value::str("a"), Value::Null]).unwrap();
        assert!(matches!(
            t.insert(vec![Value::Int(1), Value::str("b"), Value::Null]),
            Err(StorageError::DuplicateKey { .. })
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_frees_key() {
        let mut t = movie_table();
        let id = t.insert(vec![Value::Int(1), Value::str("a"), Value::Null]).unwrap();
        assert!(t.delete(id).unwrap());
        assert!(!t.delete(id).unwrap());
        // Key 1 is reusable after delete.
        t.insert(vec![Value::Int(1), Value::str("again"), Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn secondary_index_backfill_and_lookup() {
        let mut t = movie_table();
        t.insert(vec![Value::Int(1), Value::str("a"), Value::Int(2000)]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("a"), Value::Int(2001)]).unwrap();
        t.insert(vec![Value::Int(3), Value::str("b"), Value::Int(2002)]).unwrap();
        t.create_index("title").unwrap();
        let hits = |t: &Table, key: &str| -> Vec<Row> {
            let raw = t.index_lookup_raw("title", &Value::str(key)).unwrap();
            raw.map(|bytes| crate::row::decode_row(bytes).unwrap()).collect()
        };
        assert_eq!(
            hits(&t, "a"),
            vec![
                vec![Value::Int(1), Value::str("a"), Value::Int(2000)],
                vec![Value::Int(2), Value::str("a"), Value::Int(2001)],
            ]
        );
        assert!(t.index_lookup_raw("year", &Value::Int(2000)).is_none(), "no index on year");
        // Index maintained on later inserts and deletes.
        let id = t.insert(vec![Value::Int(4), Value::str("a"), Value::Null]).unwrap();
        assert_eq!(hits(&t, "a").len(), 3);
        t.delete(id).unwrap();
        assert_eq!(hits(&t, "a").len(), 2);
        assert!(hits(&t, "zzz").is_empty());
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut t = Table::new(TableSchema::new("T", vec![ColumnDef::new("x", DataType::Float)]));
        t.insert(vec![Value::Int(2)]).unwrap();
        assert_eq!(t.scan().unwrap()[0][0], Value::Float(2.0));
    }
}
