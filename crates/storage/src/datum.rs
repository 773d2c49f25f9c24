//! Compact, order-preserving datum encoding.
//!
//! Every [`Value`] encodes to a type-tagged byte sequence with two
//! properties the rest of the workspace builds on:
//!
//! 1. **Self-delimiting**: a datum's length is recoverable from its own
//!    bytes, so rows are plain concatenations of datums with no offset
//!    table, and composite keys are plain concatenations of column datums.
//! 2. **Memcmp-comparable within a type class**: for two values `a`, `b`
//!    drawn from the same type class (both `Int`, both `Float`, both `Str`,
//!    both `Bool`, or either `NULL`), `memcmp(encode(a), encode(b))` equals
//!    `a.cmp(b)`. Byte comparison of encoded rows therefore sorts like
//!    column-wise value comparison over any schema-typed prefix.
//!
//! The per-type grammar (first byte is the tag; tags sort like
//! `Value`'s type rank — NULL < BOOL < numeric < TEXT):
//!
//! | value | encoding |
//! |---|---|
//! | `NULL` | `0x00` |
//! | `FALSE` / `TRUE` | `0x01` / `0x02` (value folded into the tag) |
//! | `Int(i)` | `0x03` then `(i as u64) ^ 1<<63` big-endian — flipping the sign bit maps `i64::MIN..=i64::MAX` onto `0..=u64::MAX`, so unsigned byte order equals signed order |
//! | `Float(f)` | `0x04` then the sign-flip trick on the IEEE-754 bits: negative floats have **all** bits inverted (descending magnitude → ascending order), non-negative floats have only the sign bit set; the result orders exactly like `f64::total_cmp`. `-0.0` is normalized to `0.0` before encoding, matching the engine's `-0.0 == 0.0` comparison and hash semantics |
//! | `Str(s)` | `0x05` then the UTF-8 bytes with `0x00` escaped as `0x00 0xFF`, terminated by `0x00 0x00` — the terminator sorts below every continuation byte, so prefixes sort first and embedded NULs keep their order |
//!
//! **Deliberate limit**: `Int` and `Float` carry different tags, so *mixed*
//! numeric comparisons are not memcmp-faithful (every `Int` sorts below
//! every `Float`). They cannot be: `Value` treats `Int(5)` and
//! `Float(5.0)` as equal, and a round-trippable encoding cannot map two
//! distinguishable values to identical bytes. This never bites in
//! practice because encoded comparisons happen over *schema-typed*
//! columns — an `Int` datum is never stored in a `FLOAT` column (inserts
//! widen) and vice versa. See DESIGN.md §15 for the full argument.

use crate::error::{Result, StorageError};
use crate::value::Value;
use std::sync::Arc;

/// Tag byte for `NULL`. Tags are public so the column decoder in
/// [`crate::batch`] can dispatch without re-deriving the grammar.
pub const TAG_NULL: u8 = 0x00;
/// Tag byte for `FALSE` (the boolean is folded into the tag).
pub const TAG_FALSE: u8 = 0x01;
/// Tag byte for `TRUE`.
pub const TAG_TRUE: u8 = 0x02;
/// Tag byte for a 64-bit signed integer.
pub const TAG_INT: u8 = 0x03;
/// Tag byte for a 64-bit IEEE-754 float.
pub const TAG_FLOAT: u8 = 0x04;
/// Tag byte for a UTF-8 string.
pub const TAG_STR: u8 = 0x05;

const SIGN: u64 = 1 << 63;

/// Map an `i64` to a `u64` whose unsigned byte order equals signed order.
#[inline]
pub fn int_order_key(i: i64) -> u64 {
    (i as u64) ^ SIGN
}

/// Invert [`int_order_key`].
#[inline]
pub fn int_from_order_key(k: u64) -> i64 {
    (k ^ SIGN) as i64
}

/// Map an `f64` to a `u64` whose unsigned byte order equals
/// `f64::total_cmp` order (`-0.0` normalized to `0.0` first).
#[inline]
pub fn float_order_key(f: f64) -> u64 {
    let f = if f == 0.0 { 0.0 } else { f };
    let bits = f.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

/// Invert [`float_order_key`].
#[inline]
pub fn float_from_order_key(k: u64) -> f64 {
    let bits = if k & SIGN != 0 { k & !SIGN } else { !k };
    f64::from_bits(bits)
}

/// Append the encoding of one datum to `buf`.
pub fn encode_datum(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_FALSE),
        Value::Bool(true) => buf.push(TAG_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&int_order_key(*i).to_be_bytes());
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&float_order_key(*f).to_be_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            encode_str_body(s.as_bytes(), buf);
        }
    }
}

/// Append the escaped + terminated body of a string datum (everything after
/// the tag byte).
fn encode_str_body(bytes: &[u8], buf: &mut Vec<u8>) {
    for &b in bytes {
        buf.push(b);
        if b == 0x00 {
            buf.push(0xFF);
        }
    }
    buf.extend_from_slice(&[0x00, 0x00]);
}

/// Exact encoded size of one datum in bytes.
pub fn datum_size(v: &Value) -> usize {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 3 + s.len() + s.as_bytes().iter().filter(|&&b| b == 0x00).count(),
    }
}

/// Read the 8-byte big-endian order key at the front of `data`, failing
/// with [`StorageError::Corrupt`] if the input is truncated.
pub(crate) fn take_u64(data: &[u8], what: &str) -> Result<u64> {
    let bytes: [u8; 8] = data
        .get(..8)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| StorageError::Corrupt(format!("truncated {what}")))?;
    Ok(u64::from_be_bytes(bytes))
}

/// Decode one datum from the front of `data`. Returns the value and the
/// number of bytes consumed. Every read is bounds-checked; malformed input
/// surfaces as [`StorageError::Corrupt`].
pub fn decode_datum(data: &[u8]) -> Result<(Value, usize)> {
    let Some(&tag) = data.first() else {
        return Err(StorageError::Corrupt("empty datum".into()));
    };
    match tag {
        TAG_NULL => Ok((Value::Null, 1)),
        TAG_FALSE => Ok((Value::Bool(false), 1)),
        TAG_TRUE => Ok((Value::Bool(true), 1)),
        TAG_INT => {
            let k = take_u64(&data[1..], "int datum")?;
            Ok((Value::Int(int_from_order_key(k)), 9))
        }
        TAG_FLOAT => {
            let k = take_u64(&data[1..], "float datum")?;
            Ok((Value::Float(float_from_order_key(k)), 9))
        }
        TAG_STR => {
            let (body, consumed) = split_str_body(&data[1..])?;
            Ok((Value::Str(body.into_shared()?), 1 + consumed))
        }
        other => Err(StorageError::Corrupt(format!("unknown datum tag {other:#04x}"))),
    }
}

/// The unescaped body of a string datum: borrowed straight from the input
/// when no byte was escaped (the overwhelmingly common case), owned when
/// unescaping had to copy.
pub enum StrBody<'a> {
    /// No `0x00` appeared in the string: the input slice is the body.
    Borrowed(&'a [u8]),
    /// The body after collapsing `0x00 0xFF` escapes.
    Owned(Vec<u8>),
}

impl StrBody<'_> {
    /// The body as a shared string, validated as UTF-8: the one allocation
    /// a decoded string cell costs (every later copy is a reference-count
    /// bump).
    pub(crate) fn into_shared(self) -> Result<Arc<str>> {
        let bytes = match &self {
            StrBody::Borrowed(b) => b,
            StrBody::Owned(b) => b.as_slice(),
        };
        std::str::from_utf8(bytes)
            .map(Arc::from)
            .map_err(|_| StorageError::Corrupt("invalid utf-8 in string datum".into()))
    }
}

/// Split the escaped, terminated body of a string datum (input starts just
/// *after* the tag). Returns the unescaped bytes and the total number of
/// input bytes consumed, including the two-byte terminator.
pub fn split_str_body(data: &[u8]) -> Result<(StrBody<'_>, usize)> {
    let mut i = 0;
    // Fast path: scan to the first 0x00. If it starts the terminator, the
    // body is a clean borrow of everything before it.
    while i < data.len() {
        if data[i] == 0x00 {
            match data.get(i + 1) {
                Some(0x00) => return Ok((StrBody::Borrowed(&data[..i]), i + 2)),
                Some(0xFF) => break, // escaped NUL: fall through to the copying path
                _ => return Err(StorageError::Corrupt("bad escape in string datum".into())),
            }
        }
        i += 1;
    }
    if i >= data.len() {
        return Err(StorageError::Corrupt("unterminated string datum".into()));
    }
    // Copying path: at least one escaped NUL.
    let mut out = data[..i].to_vec();
    while i < data.len() {
        match data[i] {
            0x00 => match data.get(i + 1) {
                Some(0x00) => return Ok((StrBody::Owned(out), i + 2)),
                Some(0xFF) => {
                    out.push(0x00);
                    i += 2;
                }
                _ => return Err(StorageError::Corrupt("bad escape in string datum".into())),
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Err(StorageError::Corrupt("unterminated string datum".into()))
}

/// Encode a composite key: the concatenation of each value's datum. Because
/// datums are self-delimiting and memcmp-comparable within a type class,
/// two keys over the same column types compare byte-wise exactly like
/// column-wise [`Value`] comparison.
pub fn encode_key(values: &[Value], buf: &mut Vec<u8>) {
    for v in values {
        encode_datum(v, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn enc(v: &Value) -> Vec<u8> {
        let mut b = Vec::new();
        encode_datum(v, &mut b);
        assert_eq!(b.len(), datum_size(v), "datum_size must be exact for {v:?}");
        b
    }

    fn roundtrip(v: &Value) -> Value {
        let b = enc(v);
        let (back, used) = decode_datum(&b).unwrap();
        assert_eq!(used, b.len(), "decode must consume the whole datum for {v:?}");
        back
    }

    #[test]
    fn roundtrips_exactly() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(-3.5),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("hello κόσμε"),
            Value::str("embedded\0nul\0s"),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
        // -0.0 normalizes to 0.0 (equal under Value semantics, and the
        // normalized form is what the hash uses too).
        assert_eq!(roundtrip(&Value::Float(-0.0)).as_f64().unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn memcmp_matches_value_cmp_within_type_class() {
        let ints: Vec<Value> =
            [i64::MIN, i64::MIN + 1, -1, 0, 1, 42, i64::MAX - 1, i64::MAX].map(Value::Int).into();
        let floats: Vec<Value> =
            [f64::NEG_INFINITY, -1.5, -0.0, 0.0, f64::MIN_POSITIVE, 1.0, f64::INFINITY, f64::NAN]
                .map(Value::Float)
                .into();
        let strs: Vec<Value> = ["", "a", "a\0", "a\0b", "ab", "b", "κ"].map(Value::str).into();
        let bools = vec![Value::Bool(false), Value::Bool(true)];
        for class in [ints, floats, strs, bools] {
            let mut with_null = class.clone();
            with_null.push(Value::Null);
            for a in &with_null {
                for b in &with_null {
                    assert_eq!(
                        enc(a).cmp(&enc(b)),
                        a.cmp(b),
                        "memcmp order diverged for {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn composite_keys_compare_columnwise() {
        let keys = [
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(1), Value::str("ab")],
            vec![Value::Int(2), Value::str("")],
            vec![Value::Null, Value::str("z")],
        ];
        let enc_key = |k: &[Value]| {
            let mut b = Vec::new();
            encode_key(k, &mut b);
            b
        };
        for a in &keys {
            for b in &keys {
                let expect = a
                    .iter()
                    .zip(b.iter())
                    .map(|(x, y)| x.cmp(y))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal);
                assert_eq!(enc_key(a).cmp(&enc_key(b)), expect, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(decode_datum(&[]).is_err());
        assert!(decode_datum(&[0x99]).is_err(), "unknown tag");
        assert!(decode_datum(&[TAG_INT, 1, 2]).is_err(), "truncated int");
        assert!(decode_datum(&[TAG_STR, b'a']).is_err(), "unterminated string");
        assert!(decode_datum(&[TAG_STR, 0x00, 0x7F]).is_err(), "bad escape");
        assert!(decode_datum(&[TAG_STR, 0xFF, 0xFE, 0x00, 0x00]).is_err(), "invalid utf-8");
    }
}
