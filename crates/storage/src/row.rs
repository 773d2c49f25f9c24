//! Row representation and the binary row codec.
//!
//! A stored row is the plain concatenation of its values' datums in the
//! compact, order-preserving encoding of [`crate::datum`]. Datums are
//! self-delimiting, so the row needs no count header or offset table: the
//! page slot bounds the slice, and decode walks datums until the slice is
//! exhausted. Because each datum is memcmp-comparable within its type
//! class, encoded rows over the same schema compare byte-wise like
//! column-wise value comparison — the property composite keys build on.
//!
//! The codec is infallible on encode and validating on decode, so a corrupt
//! page surfaces as an error rather than UB or a panic.

use crate::datum::{datum_size, decode_datum, encode_datum};
use crate::error::Result;
use crate::value::Value;

/// A materialized row.
pub type Row = Vec<Value>;

/// Encode a row into `buf`: one [`crate::datum`] encoding per value,
/// concatenated.
pub fn encode_row(row: &[Value], buf: &mut Vec<u8>) {
    for v in row {
        encode_datum(v, buf);
    }
}

/// Encode a row into a fresh buffer.
pub fn encode_row_vec(row: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(estimated_size(row));
    encode_row(row, &mut buf);
    buf
}

/// Exact encoded size of a row, used for page-fit checks.
pub fn estimated_size(row: &[Value]) -> usize {
    row.iter().map(datum_size).sum()
}

/// Decode a row from a byte slice previously produced by [`encode_row`].
/// The slice must contain exactly one row (page slots guarantee this).
pub fn decode_row(data: &[u8]) -> Result<Row> {
    let mut row = Vec::new();
    decode_row_into(data, &mut row)?;
    Ok(row)
}

/// Decode a row like [`decode_row`], appending its values to `out` after
/// whatever it already holds — the executor's index probes decode a hit
/// straight into the output row. On error `out` may hold a prefix of the
/// row's values.
pub fn decode_row_into(data: &[u8], out: &mut Row) -> Result<()> {
    let mut rest = data;
    while !rest.is_empty() {
        let (v, used) = decode_datum(rest)?;
        out.push(v);
        rest = &rest[used..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::TAG_STR;

    fn roundtrip(row: Row) {
        let bytes = encode_row_vec(&row);
        assert_eq!(bytes.len(), estimated_size(&row));
        let back = decode_row(&bytes).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(3.25),
            Value::str("hello κόσμε"),
        ]);
    }

    #[test]
    fn roundtrip_empty_row() {
        roundtrip(vec![]);
    }

    #[test]
    fn roundtrip_empty_string() {
        roundtrip(vec![Value::str("")]);
    }

    #[test]
    fn rows_compare_bytewise_like_values() {
        let rows = [
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(1), Value::str("b")],
            vec![Value::Int(2), Value::str("a")],
        ];
        for a in &rows {
            for b in &rows {
                assert_eq!(encode_row_vec(a).cmp(&encode_row_vec(b)), a.cmp(b));
            }
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_row_vec(&[Value::Int(7), Value::str("abc")]);
        for cut in 0..bytes.len() {
            // Every strict prefix must either fail or decode to a shorter row,
            // never panic.
            let _ = decode_row(&bytes[..cut]);
        }
        assert!(decode_row(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert!(decode_row(&[99]).is_err());
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        assert!(decode_row(&[TAG_STR, 0xff, 0xfe, 0x00, 0x00]).is_err());
    }

    #[test]
    fn decode_into_appends_after_existing_values() {
        let tail = vec![Value::Int(7), Value::str("abc"), Value::Null];
        let mut out = vec![Value::str("kept"), Value::Float(0.5)];
        decode_row_into(&encode_row_vec(&tail), &mut out).unwrap();
        assert_eq!(out, [vec![Value::str("kept"), Value::Float(0.5)], tail].concat());
    }

    #[test]
    fn decode_into_rejects_what_decode_row_rejects() {
        let bytes = encode_row_vec(&[Value::Int(7), Value::str("abc")]);
        let mut out = vec![Value::Int(1)];
        assert!(decode_row_into(&bytes[..bytes.len() - 1], &mut out).is_err(), "truncation");
        assert!(decode_row_into(&[99], &mut vec![]).is_err(), "bad tag");
        assert!(
            decode_row_into(&[TAG_STR, 0xff, 0xfe, 0x00, 0x00], &mut vec![]).is_err(),
            "invalid utf-8"
        );
        assert_eq!(out[0], Value::Int(1), "the values before the decoded row stay");
    }
}
