//! Column chunks: how a table stores its rows, and what the scan filters.
//!
//! A [`Batch`] holds up to [`BATCH_SIZE`] rows column-wise. Each [`Column`]
//! is typed by its schema column (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`,
//! `Vec<Arc<str>>`) and carries a null mask once it has held a NULL. A
//! [`crate::Table`] is a sequence of these chunks; the executor's scan reads
//! a row's cells one at a time ([`Column::value`]), only those its filter
//! and its output need, and a string cell costs a reference-count bump to
//! read.

use crate::row::Row;
use crate::value::{DataType, Value};
use std::sync::{Arc, OnceLock};

/// Rows per stored chunk. Large enough to amortize per-chunk overhead (the
/// scan's governor charge), small enough that a chunk's working set stays
/// cache-resident. A power of two, so a column vector that grows by
/// doubling ends a full chunk with no spare capacity.
pub const BATCH_SIZE: usize = 1024;

/// The typed payload of a [`Column`].
#[derive(Clone, Debug)]
enum ColumnData {
    /// 64-bit integers; null positions hold `0`.
    Int(Vec<i64>),
    /// 64-bit floats; null positions hold `0.0`.
    Float(Vec<f64>),
    /// Booleans; null positions hold `false`.
    Bool(Vec<bool>),
    /// Strings; null positions hold the empty string.
    Str(Vec<Arc<str>>),
}

/// One column of a [`Batch`]: typed data plus a null mask. `nulls` is
/// `None` until the column holds its first NULL (the common case is never).
#[derive(Clone, Debug)]
pub struct Column {
    data: ColumnData,
    nulls: Option<Vec<bool>>,
}

/// The string a NULL string cell holds: one allocation per process, shared.
fn empty_str() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from("")))
}

impl Column {
    fn new(ty: DataType) -> Column {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
        };
        Column { data, nulls: None }
    }

    /// Whether cell `i` is NULL.
    fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|m| m[i])
    }

    /// Materialize cell `i` as a [`Value`] (a string cell is shared, not
    /// copied: `Arc::clone`). Inlined into the executor's per-row loops.
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(Arc::clone(&v[i])),
        }
    }

    /// Append one cell to this column of `len` cells. A value that is not of
    /// the column's type is stored as NULL: [`Batch::push_row`]'s callers
    /// type-check.
    fn push(&mut self, v: Value, len: usize) {
        let null = match (&mut self.data, v) {
            (ColumnData::Int(c), Value::Int(x)) => {
                c.push(x);
                false
            }
            (ColumnData::Float(c), Value::Float(x)) => {
                c.push(x);
                false
            }
            (ColumnData::Bool(c), Value::Bool(x)) => {
                c.push(x);
                false
            }
            (ColumnData::Str(c), Value::Str(x)) => {
                c.push(x);
                false
            }
            (data, v) => {
                debug_assert!(v.is_null(), "{v:?} pushed into a {data:?} column");
                match data {
                    ColumnData::Int(c) => c.push(0),
                    ColumnData::Float(c) => c.push(0.0),
                    ColumnData::Bool(c) => c.push(false),
                    ColumnData::Str(c) => c.push(empty_str()),
                }
                true
            }
        };
        if null || self.nulls.is_some() {
            self.nulls.get_or_insert_with(|| vec![false; len]).push(null);
        }
    }
}

/// A column-oriented chunk of rows.
#[derive(Clone, Debug)]
pub struct Batch {
    columns: Vec<Column>,
    len: usize,
}

impl Batch {
    /// An empty batch with one column of each type, in order.
    pub fn new(types: impl IntoIterator<Item = DataType>) -> Batch {
        Batch { columns: types.into_iter().map(Column::new).collect(), len: 0 }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Append one row, one value per column. Each value must be NULL or of
    /// its column's type; `Table::insert` checks and coerces before it
    /// appends (a value of any other type is stored as NULL).
    pub fn push_row(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.columns.len());
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v, self.len);
        }
        self.len += 1;
    }

    /// Append row `i`'s values to `out`, after whatever it already holds.
    pub fn append_row(&self, i: usize, out: &mut Row) {
        out.extend(self.columns.iter().map(|c| c.value(i)));
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        let mut row = Row::with_capacity(self.columns.len());
        self.append_row(i, &mut row);
        row
    }

    /// Materialize every row, appending to `out`.
    pub fn append_rows(&self, out: &mut Vec<Row>) {
        out.reserve(self.len);
        out.extend((0..self.len).map(|i| self.row(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TYPES: [DataType; 4] = [DataType::Int, DataType::Str, DataType::Float, DataType::Bool];

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::str("a"), Value::Float(1.5), Value::Bool(true)],
            vec![Value::Int(2), Value::Null, Value::Float(-0.5), Value::Bool(false)],
            vec![Value::Null, Value::str(""), Value::Null, Value::Null],
            vec![Value::Int(4), Value::str("d\0d"), Value::Float(0.0), Value::Bool(true)],
        ]
    }

    fn batch_of(rows: &[Row]) -> Batch {
        let mut b = Batch::new(TYPES);
        for r in rows {
            b.push_row(r.clone());
        }
        b
    }

    fn rows_of(b: &Batch) -> Vec<Row> {
        let mut out = Vec::new();
        b.append_rows(&mut out);
        out
    }

    #[test]
    fn push_row_roundtrips() {
        let rows = sample_rows();
        let b = batch_of(&rows);
        assert_eq!(b.len(), rows.len());
        assert_eq!(rows_of(&b), rows);
        assert_eq!(b.row(3), rows[3]);
        let mut out = vec![Value::str("kept")];
        b.append_row(0, &mut out);
        assert_eq!(out, [vec![Value::str("kept")], rows[0].clone()].concat());
    }

    #[test]
    fn columns_keep_their_schema_type_and_mask_only_once_null() {
        let b = batch_of(&sample_rows()[..1]);
        assert!(matches!(b.column(0).data, ColumnData::Int(_)));
        assert!(matches!(b.column(1).data, ColumnData::Str(_)));
        assert!(b.column(0).nulls.is_none());
        let b = batch_of(&sample_rows());
        assert!(b.column(0).is_null(2) && !b.column(0).is_null(3));
    }

    #[test]
    fn all_null_column_stays_typed_with_a_full_mask() {
        let mut b = Batch::new([DataType::Str]);
        b.push_row(vec![Value::Null]);
        b.push_row(vec![Value::Null]);
        assert!(matches!(b.column(0).data, ColumnData::Str(_)));
        assert!(b.column(0).is_null(0) && b.column(0).is_null(1));
        assert_eq!(b.row(1), vec![Value::Null]);
    }
}
