//! A table = schema + column chunks + hash indexes, with insert-time
//! constraint checking.
//!
//! Rows are stored in insertion order as [`Batch`] chunks of [`BATCH_SIZE`]
//! rows, each column typed by its schema column; only the last chunk is
//! partly filled. The executor reads the chunks directly ([`Table::chunks`])
//! or finds a single row by ordinal ([`Table::locate`], with the ordinals an
//! index hit returns). A row's ordinal is its position in
//! insertion order: a delete compacts the chunks and rebuilds the indexes,
//! so there are no tombstones and every chunk but the last stays full.

use crate::batch::{Batch, BATCH_SIZE};
use crate::error::{Result, StorageError};
use crate::index::HashIndex;
use crate::row::Row;
use crate::schema::TableSchema;
use crate::stats::TableStats;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Rows a table holds at most: an ordinal is a `u32`, and so is a position
/// in an index's ordinal pool, which holds at most twice the rows.
const MAX_ROWS: usize = u32::MAX as usize / 2;

/// A stored table.
pub struct Table {
    /// Shared, so a plan names the table by holding this same allocation.
    schema: Arc<TableSchema>,
    /// The rows in insertion order, [`BATCH_SIZE`] per chunk.
    chunks: Vec<Batch>,
    len: usize,
    /// Per column, the distinct strings it stores (empty for other types):
    /// a repeated string is one shared allocation.
    strings: Vec<HashSet<Arc<str>>>,
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
        let strings = schema.columns.iter().map(|_| HashSet::new()).collect();
        let schema = Arc::new(schema);
        Table { schema, chunks: Vec::new(), len: 0, strings, indexes, stats: None }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The shared handle to the table schema (cloning it is a
    /// reference-count increment).
    pub fn shared_schema(&self) -> &Arc<TableSchema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add a non-unique secondary index on the named column. Existing rows
    /// are back-filled. Returns the index position.
    pub fn create_index(&mut self, column: &str) -> Result<usize> {
        let col = self.schema.column_index(column).ok_or_else(|| StorageError::UnknownColumn {
            table: self.schema.name.to_string(),
            column: column.to_string(),
        })?;
        let mut idx = HashIndex::new(vec![col], false);
        idx.fill(&self.chunks);
        self.indexes.push(idx);
        Ok(self.indexes.len() - 1)
    }

    /// Find a single-column index on the named column, if any.
    pub fn index_on(&self, column: &str) -> Option<&HashIndex> {
        let col = self.schema.column_index(column)?;
        self.indexes.iter().find(|i| i.columns() == [col])
    }

    /// Validate and insert a row. Values are coerced to the column types
    /// (`Int` → `Float`, `-0.0` → `0.0`); arity, type, NOT NULL and key
    /// constraints are enforced.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
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
            if idx.is_unique() && idx.contains_row(&coerced) {
                return Err(StorageError::DuplicateKey { table: self.schema.name.to_string() });
            }
        }
        if self.len >= MAX_ROWS {
            return Err(StorageError::Corrupt(format!("table `{}` is full", self.schema.name)));
        }
        self.intern(&mut coerced);
        for idx in &mut self.indexes {
            idx.insert(&coerced, self.len as u32);
        }
        self.append(coerced);
        Ok(())
    }

    /// Point each string of `row` at its column's shared copy; a string the
    /// column does not hold yet becomes that copy.
    fn intern(&mut self, row: &mut Row) {
        for (v, strings) in row.iter_mut().zip(&mut self.strings) {
            if let Value::Str(s) = v {
                match strings.get(&**s) {
                    Some(shared) => *s = Arc::clone(shared),
                    None => {
                        strings.insert(Arc::clone(s));
                    }
                }
            }
        }
    }

    /// Store an already checked, coerced and interned row at the next
    /// ordinal; the caller indexes it.
    fn append(&mut self, row: Row) {
        if self.len.is_multiple_of(BATCH_SIZE) {
            self.chunks.push(Batch::new(self.schema.columns.iter().map(|c| c.ty)));
        }
        if let Some(last) = self.chunks.last_mut() {
            last.push_row(row);
        }
        self.len += 1;
    }

    /// Delete every row `doomed` selects; returns how many went. The
    /// survivors keep their insertion order, packed into full chunks, and
    /// the indexes are refilled over their new ordinals. If `doomed` fails
    /// on any row, nothing is deleted.
    pub fn delete_where<E>(
        &mut self,
        mut doomed: impl FnMut(&[Value]) -> std::result::Result<bool, E>,
    ) -> std::result::Result<usize, E> {
        let mut keep = Vec::with_capacity(self.len);
        let mut row = Row::new();
        for ord in 0..self.len as u32 {
            row.clear();
            self.append_row(ord, &mut row);
            keep.push(!doomed(&row)?);
        }
        let deleted = self.len - keep.iter().filter(|&&k| k).count();
        if deleted == 0 {
            return Ok(0);
        }
        let old = std::mem::take(&mut self.chunks);
        self.len = 0;
        self.strings.iter_mut().for_each(HashSet::clear);
        for (ord, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            let mut row = old[ord / BATCH_SIZE].row(ord % BATCH_SIZE);
            self.intern(&mut row);
            self.append(row);
        }
        for idx in &mut self.indexes {
            idx.clear();
            idx.fill(&self.chunks);
        }
        Ok(deleted)
    }

    /// The rows as column chunks, in insertion order: every chunk but the
    /// last holds exactly [`BATCH_SIZE`] rows. This is the executor's scan,
    /// and [`Table::scan`]'s.
    pub fn chunks(&self) -> &[Batch] {
        &self.chunks
    }

    /// Materialize all rows, in insertion order.
    pub fn scan(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            chunk.append_rows(&mut rows);
        }
        rows
    }

    /// Append the values of the row at ordinal `ord` (from
    /// [`Table::index_lookup`]) to `out`, after whatever it already holds.
    pub fn append_row(&self, ord: u32, out: &mut Row) {
        let (chunk, i) = self.locate(ord);
        chunk.append_row(i, out);
    }

    /// The chunk holding the row at ordinal `ord`, and the row's place in it.
    #[inline]
    pub fn locate(&self, ord: u32) -> (&Batch, usize) {
        let ord = ord as usize;
        (&self.chunks[ord / BATCH_SIZE], ord % BATCH_SIZE)
    }

    /// Scan the table and (re)collect its statistics snapshot. Returns the
    /// fresh stats. O(rows · columns · log rows) — per-column sorts for NDV
    /// and the equi-depth histograms.
    pub fn analyze(&mut self) -> Arc<TableStats> {
        let rows = self.scan();
        let stats = Arc::new(TableStats::collect(&rows, self.schema.arity()));
        self.stats = Some(stats.clone());
        stats
    }

    /// The statistics snapshot from the last [`Table::analyze`], if any.
    /// May be stale relative to the stored rows.
    pub fn stats(&self) -> Option<Arc<TableStats>> {
        self.stats.clone()
    }

    /// Point lookup through an index on `column`: the ordinals of the
    /// matching rows, ascending (insertion order); read them with
    /// [`Table::append_row`]. `None` if no index on that column exists.
    pub fn index_lookup(&self, column: &str, key: &Value) -> Option<&[u32]> {
        Some(self.index_on(column)?.lookup(std::slice::from_ref(key)))
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

    fn mid_is(i: i64) -> impl FnMut(&[Value]) -> Result<bool> {
        move |r| Ok(r[0] == Value::Int(i))
    }

    #[test]
    fn insert_and_scan() {
        let mut t = movie_table();
        t.insert(vec![Value::Int(1), Value::str("Alien"), Value::Int(1979)]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("Brazil"), Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
        let rows = t.scan();
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
        t.insert(vec![Value::Int(1), Value::str("a"), Value::Null]).unwrap();
        assert_eq!(t.delete_where(mid_is(1)).unwrap(), 1);
        assert_eq!(t.delete_where(mid_is(1)).unwrap(), 0);
        // Key 1 is reusable after delete.
        t.insert(vec![Value::Int(1), Value::str("again"), Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn failing_predicate_deletes_nothing() {
        let mut t = movie_table();
        t.insert(vec![Value::Int(1), Value::str("a"), Value::Null]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("b"), Value::Null]).unwrap();
        let mut seen = 0;
        let r = t.delete_where(|_| {
            seen += 1;
            if seen == 2 {
                Err("boom")
            } else {
                Ok(true)
            }
        });
        assert_eq!(r, Err("boom"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn secondary_index_backfill_and_lookup() {
        let mut t = movie_table();
        t.insert(vec![Value::Int(1), Value::str("a"), Value::Int(2000)]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("a"), Value::Int(2001)]).unwrap();
        t.insert(vec![Value::Int(3), Value::str("b"), Value::Int(2002)]).unwrap();
        t.create_index("title").unwrap();
        let hits = |t: &Table, key: &str| -> Vec<Row> {
            let ords = t.index_lookup("title", &Value::str(key)).unwrap();
            ords.iter()
                .map(|&ord| {
                    let mut row = Row::new();
                    t.append_row(ord, &mut row);
                    row
                })
                .collect()
        };
        assert_eq!(
            hits(&t, "a"),
            vec![
                vec![Value::Int(1), Value::str("a"), Value::Int(2000)],
                vec![Value::Int(2), Value::str("a"), Value::Int(2001)],
            ]
        );
        assert!(t.index_lookup("year", &Value::Int(2000)).is_none(), "no index on year");
        // Index maintained on later inserts and deletes.
        t.insert(vec![Value::Int(4), Value::str("a"), Value::Null]).unwrap();
        assert_eq!(hits(&t, "a").len(), 3);
        t.delete_where(mid_is(1)).unwrap();
        assert_eq!(hits(&t, "a")[0][0], Value::Int(2), "ordinals follow the compaction");
        assert_eq!(hits(&t, "a").len(), 2);
        assert!(hits(&t, "zzz").is_empty());
    }

    #[test]
    fn int_widens_to_float_column_and_negative_zero_is_stored_as_zero() {
        let mut t = Table::new(TableSchema::new("T", vec![ColumnDef::new("x", DataType::Float)]));
        t.insert(vec![Value::Int(2)]).unwrap();
        t.insert(vec![Value::Float(-0.0)]).unwrap();
        let rows = t.scan();
        assert_eq!(rows[0][0], Value::Float(2.0));
        assert_eq!(rows[1][0].to_string(), "0");
    }

    #[test]
    fn repeated_strings_share_one_allocation() {
        let mut t = movie_table();
        t.insert(vec![Value::Int(1), Value::str("same"), Value::Null]).unwrap();
        t.insert(vec![Value::Int(2), Value::str("same"), Value::Null]).unwrap();
        let rows = t.scan();
        let ptr = |r: &Row| r[1].as_str().map(str::as_ptr);
        assert_eq!(ptr(&rows[0]), ptr(&rows[1]));
    }

    #[test]
    fn chunks_fill_to_batch_size() {
        let mut t = movie_table();
        for i in 0..(2 * BATCH_SIZE + 5) as i64 {
            t.insert(vec![Value::Int(i), Value::str("t"), Value::Null]).unwrap();
        }
        let sizes = |t: &Table| t.chunks().iter().map(Batch::len).collect::<Vec<_>>();
        assert_eq!(sizes(&t), [BATCH_SIZE, BATCH_SIZE, 5]);
        // Deleting from the first chunk packs the survivors again.
        t.delete_where(|r| Ok::<_, StorageError>(r[0].as_i64().is_some_and(|i| i % 100 == 0)))
            .unwrap();
        assert_eq!(sizes(&t), [BATCH_SIZE, BATCH_SIZE - 16]);
    }
}
