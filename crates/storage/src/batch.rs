//! Column-oriented row batches: the inside of the heap scan.
//!
//! A [`Batch`] holds ~[`BATCH_SIZE`] rows column-wise. Each [`Column`] is a
//! typed vector (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`, `Vec<Arc<str>>`) with
//! an optional null mask, falling back to a plain `Vec<Value>` for all-null
//! or mixed-type columns. The scan decodes heap rows into a batch, filters
//! it with typed comparison loops over whole columns, and materializes a
//! `Vec<Value>` only for the rows that survive.
//!
//! Columns are dynamically typed with promotion: a [`BatchBuilder`] column
//! starts untyped, adopts the type of the first non-null value it sees, and
//! demotes to the `Val` fallback if a second type ever appears. Batches
//! scanned from schema-typed tables therefore always take the typed
//! representation (inserts coerce `Int` → `Float`, so a column never mixes),
//! and the fallback only pays for exotic columns.
//!
//! [`BatchBuilder::push_encoded`] decodes a [`crate::datum`]-encoded row
//! straight into the column vectors without ever materializing a
//! `Vec<Value>`.

use crate::datum::{
    float_from_order_key, int_from_order_key, split_str_body, take_u64, TAG_FALSE, TAG_FLOAT,
    TAG_INT, TAG_NULL, TAG_STR, TAG_TRUE,
};
use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::value::Value;
use std::sync::Arc;

/// Target rows per batch. Large enough to amortize per-batch overhead
/// (governor charge, selection-vector allocation), small enough that a
/// batch's working set stays cache-resident. The last batch of a scan (or
/// of a scan partition) is shorter.
pub const BATCH_SIZE: usize = 1024;

/// The typed payload of a [`Column`].
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// 64-bit integers; null positions hold `0`.
    Int(Vec<i64>),
    /// 64-bit floats; null positions hold `0.0`.
    Float(Vec<f64>),
    /// Booleans; null positions hold `false`.
    Bool(Vec<bool>),
    /// Strings; null positions hold the empty string.
    Str(Vec<Arc<str>>),
    /// Fallback: boxed values, nulls stored inline as [`Value::Null`].
    /// Used for all-null columns and columns that mix types.
    Val(Vec<Value>),
}

/// One column of a [`Batch`]: typed data plus an optional null mask.
/// `nulls` is `None` when the column has no nulls (the common case) and is
/// never used with the `Val` representation (which stores nulls inline).
#[derive(Clone, Debug)]
pub struct Column {
    data: ColumnData,
    nulls: Option<Vec<bool>>,
}

impl Column {
    fn new(data: ColumnData, nulls: Option<Vec<bool>>) -> Column {
        debug_assert!(!(matches!(data, ColumnData::Val(_)) && nulls.is_some()));
        Column { data, nulls }
    }

    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Whether cell `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match &self.nulls {
            Some(m) => m[i],
            None => match &self.data {
                ColumnData::Val(v) => v[i].is_null(),
                _ => false,
            },
        }
    }

    /// Materialize cell `i` as a [`Value`] (a string cell is shared, not
    /// copied: `Arc::clone`).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(Arc::clone(&v[i])),
            ColumnData::Val(v) => v[i].clone(),
        }
    }
}

fn into_values(data: ColumnData, nulls: Option<Vec<bool>>) -> Vec<Value> {
    let materialize = |i: usize, v: Value| match &nulls {
        Some(m) if m[i] => Value::Null,
        _ => v,
    };
    match data {
        ColumnData::Int(v) => {
            v.into_iter().enumerate().map(|(i, x)| materialize(i, Value::Int(x))).collect()
        }
        ColumnData::Float(v) => {
            v.into_iter().enumerate().map(|(i, x)| materialize(i, Value::Float(x))).collect()
        }
        ColumnData::Bool(v) => {
            v.into_iter().enumerate().map(|(i, x)| materialize(i, Value::Bool(x))).collect()
        }
        ColumnData::Str(v) => {
            v.into_iter().enumerate().map(|(i, x)| materialize(i, Value::Str(x))).collect()
        }
        ColumnData::Val(v) => v,
    }
}

/// A column-oriented batch of rows.
#[derive(Clone, Debug)]
pub struct Batch {
    columns: Vec<Column>,
    len: usize,
}

impl Batch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Materialize every row, appending to `out`.
    pub fn append_rows(&self, out: &mut Vec<Row>) {
        out.reserve(self.len);
        for i in 0..self.len {
            out.push(self.row(i));
        }
    }
}

/// Incrementally builds a [`Batch`] row by row, straight from
/// [`crate::datum`]-encoded bytes.
pub struct BatchBuilder {
    cols: Vec<ColBuilder>,
    len: usize,
}

enum ColBuilder {
    /// Only nulls so far (or nothing); the type is still open.
    Nulls(usize),
    Int {
        v: Vec<i64>,
        nulls: Option<Vec<bool>>,
    },
    Float {
        v: Vec<f64>,
        nulls: Option<Vec<bool>>,
    },
    Bool {
        v: Vec<bool>,
        nulls: Option<Vec<bool>>,
    },
    Str {
        v: Vec<Arc<str>>,
        nulls: Option<Vec<bool>>,
    },
    Val(Vec<Value>),
}

impl ColBuilder {
    fn push_null(&mut self) {
        match self {
            ColBuilder::Nulls(n) => *n += 1,
            ColBuilder::Int { v, nulls } => {
                push_masked_null(nulls, v.len());
                v.push(0);
            }
            ColBuilder::Float { v, nulls } => {
                push_masked_null(nulls, v.len());
                v.push(0.0);
            }
            ColBuilder::Bool { v, nulls } => {
                push_masked_null(nulls, v.len());
                v.push(false);
            }
            ColBuilder::Str { v, nulls } => {
                push_masked_null(nulls, v.len());
                v.push(Arc::from(""));
            }
            ColBuilder::Val(v) => v.push(Value::Null),
        }
    }

    fn push_int(&mut self, x: i64) {
        match self {
            ColBuilder::Nulls(n) => {
                let mut v = vec![0i64; *n];
                v.push(x);
                let nulls = (*n > 0).then(|| leading_nulls(*n));
                *self = ColBuilder::Int { v, nulls };
            }
            ColBuilder::Int { v, nulls } => {
                push_masked_live(nulls);
                v.push(x);
            }
            ColBuilder::Val(v) => v.push(Value::Int(x)),
            _ => self.demote_push(Value::Int(x)),
        }
    }

    fn push_float(&mut self, x: f64) {
        match self {
            ColBuilder::Nulls(n) => {
                let mut v = vec![0.0f64; *n];
                v.push(x);
                let nulls = (*n > 0).then(|| leading_nulls(*n));
                *self = ColBuilder::Float { v, nulls };
            }
            ColBuilder::Float { v, nulls } => {
                push_masked_live(nulls);
                v.push(x);
            }
            ColBuilder::Val(v) => v.push(Value::Float(x)),
            _ => self.demote_push(Value::Float(x)),
        }
    }

    fn push_bool(&mut self, x: bool) {
        match self {
            ColBuilder::Nulls(n) => {
                let mut v = vec![false; *n];
                v.push(x);
                let nulls = (*n > 0).then(|| leading_nulls(*n));
                *self = ColBuilder::Bool { v, nulls };
            }
            ColBuilder::Bool { v, nulls } => {
                push_masked_live(nulls);
                v.push(x);
            }
            ColBuilder::Val(v) => v.push(Value::Bool(x)),
            _ => self.demote_push(Value::Bool(x)),
        }
    }

    fn push_str(&mut self, x: Arc<str>) {
        match self {
            ColBuilder::Nulls(n) => {
                let mut v = vec![Arc::from(""); *n];
                v.push(x);
                let nulls = (*n > 0).then(|| leading_nulls(*n));
                *self = ColBuilder::Str { v, nulls };
            }
            ColBuilder::Str { v, nulls } => {
                push_masked_live(nulls);
                v.push(x);
            }
            ColBuilder::Val(v) => v.push(Value::Str(x)),
            _ => self.demote_push(Value::Str(x)),
        }
    }

    /// Mixed types in one column: fall back to boxed values.
    fn demote_push(&mut self, v: Value) {
        let old = std::mem::replace(self, ColBuilder::Val(Vec::new()));
        let mut vals = match old {
            ColBuilder::Nulls(n) => vec![Value::Null; n],
            ColBuilder::Int { v, nulls } => into_values(ColumnData::Int(v), nulls),
            ColBuilder::Float { v, nulls } => into_values(ColumnData::Float(v), nulls),
            ColBuilder::Bool { v, nulls } => into_values(ColumnData::Bool(v), nulls),
            ColBuilder::Str { v, nulls } => into_values(ColumnData::Str(v), nulls),
            ColBuilder::Val(v) => v,
        };
        vals.push(v);
        *self = ColBuilder::Val(vals);
    }

    fn finish(&mut self) -> Column {
        match std::mem::replace(self, ColBuilder::Nulls(0)) {
            ColBuilder::Nulls(n) => Column::new(ColumnData::Val(vec![Value::Null; n]), None),
            ColBuilder::Int { v, nulls } => Column::new(ColumnData::Int(v), nulls),
            ColBuilder::Float { v, nulls } => Column::new(ColumnData::Float(v), nulls),
            ColBuilder::Bool { v, nulls } => Column::new(ColumnData::Bool(v), nulls),
            ColBuilder::Str { v, nulls } => Column::new(ColumnData::Str(v), nulls),
            ColBuilder::Val(v) => Column::new(ColumnData::Val(v), None),
        }
    }
}

fn push_masked_null(nulls: &mut Option<Vec<bool>>, live_len: usize) {
    nulls.get_or_insert_with(|| vec![false; live_len]).push(true);
}

fn push_masked_live(nulls: &mut Option<Vec<bool>>) {
    if let Some(m) = nulls {
        m.push(false);
    }
}

fn leading_nulls(n: usize) -> Vec<bool> {
    let mut m = vec![true; n];
    m.push(false);
    m
}

impl BatchBuilder {
    /// A builder for batches of `arity` columns.
    pub fn new(arity: usize) -> BatchBuilder {
        BatchBuilder { cols: (0..arity).map(|_| ColBuilder::Nulls(0)).collect(), len: 0 }
    }

    /// True if no rows have been pushed since the last [`BatchBuilder::finish`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once the builder holds at least [`BATCH_SIZE`] rows.
    pub fn is_full(&self) -> bool {
        self.len >= BATCH_SIZE
    }

    /// Decode one [`crate::datum`]-encoded row straight into the column
    /// vectors. Strings become `Arc<str>` in a single allocation — the only
    /// one a string cell costs per scan, since materializing a row shares
    /// it; no intermediate `Vec<Value>` is built.
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<()> {
        let mut rest = bytes;
        for c in &mut self.cols {
            let Some(&tag) = rest.first() else {
                return Err(StorageError::Corrupt("row has fewer datums than columns".into()));
            };
            match tag {
                TAG_NULL => {
                    c.push_null();
                    rest = &rest[1..];
                }
                TAG_FALSE => {
                    c.push_bool(false);
                    rest = &rest[1..];
                }
                TAG_TRUE => {
                    c.push_bool(true);
                    rest = &rest[1..];
                }
                TAG_INT => {
                    let k = take_u64(&rest[1..], "int datum")?;
                    c.push_int(int_from_order_key(k));
                    rest = &rest[9..];
                }
                TAG_FLOAT => {
                    let k = take_u64(&rest[1..], "float datum")?;
                    c.push_float(float_from_order_key(k));
                    rest = &rest[9..];
                }
                TAG_STR => {
                    let (body, used) = split_str_body(&rest[1..])?;
                    c.push_str(body.into_shared()?);
                    rest = &rest[1 + used..];
                }
                other => {
                    return Err(StorageError::Corrupt(format!("unknown datum tag {other:#04x}")))
                }
            }
        }
        if !rest.is_empty() {
            return Err(StorageError::Corrupt("row has more datums than columns".into()));
        }
        self.len += 1;
        Ok(())
    }

    /// Take the accumulated rows as a [`Batch`], resetting the builder.
    pub fn finish(&mut self) -> Batch {
        let columns = self.cols.iter_mut().map(ColBuilder::finish).collect();
        let len = std::mem::take(&mut self.len);
        Batch { columns, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::encode_row_vec;

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::str("a"), Value::Float(1.5), Value::Bool(true)],
            vec![Value::Int(2), Value::Null, Value::Float(-0.5), Value::Bool(false)],
            vec![Value::Null, Value::str(""), Value::Null, Value::Null],
            vec![Value::Int(4), Value::str("d\0d"), Value::Float(0.0), Value::Bool(true)],
        ]
    }

    fn batch_of(rows: &[Row], arity: usize) -> Batch {
        let mut b = BatchBuilder::new(arity);
        for r in rows {
            b.push_encoded(&encode_row_vec(r)).unwrap();
        }
        b.finish()
    }

    fn rows_of(b: &Batch) -> Vec<Row> {
        let mut out = Vec::new();
        b.append_rows(&mut out);
        out
    }

    #[test]
    fn push_encoded_roundtrips() {
        let rows = sample_rows();
        let b = batch_of(&rows, 4);
        assert_eq!(b.len(), rows.len());
        assert_eq!(rows_of(&b), rows);
        assert_eq!(b.row(3), rows[3]);
    }

    #[test]
    fn finish_resets_the_builder() {
        let rows = sample_rows();
        let mut b = BatchBuilder::new(4);
        assert!(b.is_empty());
        b.push_encoded(&encode_row_vec(&rows[0])).unwrap();
        assert!(!b.is_empty() && !b.is_full());
        assert_eq!(rows_of(&b.finish()), rows[..1]);
        assert!(b.is_empty());
        // The second batch's columns start untyped again.
        b.push_encoded(&encode_row_vec(&rows[2])).unwrap();
        assert_eq!(rows_of(&b.finish()), rows[2..3]);
    }

    #[test]
    fn scan_typed_columns_stay_typed() {
        let rows = vec![vec![Value::Int(1), Value::str("x")], vec![Value::Int(2), Value::str("y")]];
        let b = batch_of(&rows, 2);
        assert!(matches!(b.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(b.column(1).data(), ColumnData::Str(_)));
        assert!(b.column(0).nulls.is_none());
    }

    #[test]
    fn mixed_types_demote_to_val() {
        let rows = vec![vec![Value::Int(1)], vec![Value::str("x")], vec![Value::Null]];
        let b = batch_of(&rows, 1);
        assert!(matches!(b.column(0).data(), ColumnData::Val(_)));
        assert_eq!(rows_of(&b), rows);
    }

    #[test]
    fn all_null_column_materializes_nulls() {
        let rows = vec![vec![Value::Null], vec![Value::Null]];
        let b = batch_of(&rows, 1);
        assert!(b.column(0).is_null(0) && b.column(0).is_null(1));
        assert_eq!(b.row(1), vec![Value::Null]);
    }

    #[test]
    fn push_encoded_rejects_arity_mismatch() {
        let mut b = BatchBuilder::new(2);
        let one = encode_row_vec(&[Value::Int(1)]);
        assert!(b.push_encoded(&one).is_err(), "fewer datums than columns");
        let mut b = BatchBuilder::new(1);
        let two = encode_row_vec(&[Value::Int(1), Value::Int(2)]);
        assert!(b.push_encoded(&two).is_err(), "more datums than columns");
    }
}
