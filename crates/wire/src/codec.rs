//! Byte-level primitives of the wire format: a [`Writer`] that appends
//! big-endian fields to a payload buffer and a bounds-checked [`Reader`]
//! that decodes them with typed errors (never a panic, whatever the bytes).

use std::fmt;

/// A payload decode failure. Every variant names what was being decoded, so
/// protocol errors sent back to a peer are actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before a field did.
    Truncated {
        /// What was being decoded.
        what: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The payload had bytes left after the last field of the message.
    Trailing {
        /// Bytes left over.
        remaining: usize,
    },
    /// An enum discriminant (message tag, value tag, …) is not assigned.
    BadTag {
        /// What the tag discriminates.
        what: &'static str,
        /// The unassigned value.
        tag: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// What the string field was.
        what: &'static str,
    },
    /// A count or length field exceeds its sanity bound.
    TooLong {
        /// What the length counts.
        what: &'static str,
        /// The announced length.
        len: usize,
        /// The maximum this decoder accepts.
        max: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { what, needed, remaining } => {
                write!(f, "truncated {what}: needed {needed} bytes, {remaining} left")
            }
            DecodeError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            DecodeError::BadTag { what, tag } => write!(f, "unassigned {what} tag {tag}"),
            DecodeError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            DecodeError::TooLong { what, len, max } => {
                write!(f, "{what} length {len} exceeds limit {max}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for payload decoding.
pub type Result<T> = std::result::Result<T, DecodeError>;

/// Appends big-endian fields to a payload buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload buffer.
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    /// The encoded payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) -> &mut Writer {
        self.buf.push(v);
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.u8(v as u8)
    }

    pub fn u16(&mut self, v: u16) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn i64(&mut self, v: i64) -> &mut Writer {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// IEEE-754 bit pattern, big-endian (NaN round-trips bit-exactly).
    pub fn f64(&mut self, v: f64) -> &mut Writer {
        self.u64(v.to_bits())
    }

    /// `u32be` length prefix + UTF-8 bytes.
    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// `u32be` length prefix + raw bytes (opaque payloads: WAL records,
    /// snapshot blobs).
    pub fn bytes(&mut self, b: &[u8]) -> &mut Writer {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }
}

/// Bounds-checked big-endian decoder over a payload slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole payload was consumed — a message with bytes to
    /// spare was built by a different (newer?) protocol.
    pub fn expect_end(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(DecodeError::Trailing { remaining }),
        }
    }

    fn take(&mut self, what: &'static str, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { what, needed: n, remaining: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.take(what, 1)?[0])
    }

    pub fn bool(&mut self, what: &'static str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what, tag: tag as u64 }),
        }
    }

    pub fn u16(&mut self, what: &'static str) -> Result<u16> {
        let b = self.take(what, 2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32> {
        let b = self.take(what, 4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64> {
        let b = self.take(what, 8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub fn i64(&mut self, what: &'static str) -> Result<i64> {
        Ok(self.u64(what)? as i64)
    }

    pub fn f64(&mut self, what: &'static str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A length-prefixed UTF-8 string. The length is validated against the
    /// bytes actually present before anything is allocated.
    pub fn str(&mut self, what: &'static str) -> Result<String> {
        self.str_ref(what).map(str::to_owned)
    }

    /// [`Reader::str`] borrowed from the payload, so the caller picks the
    /// one allocation (a string [`pqp_storage::Value`] takes an `Arc<str>`).
    pub(crate) fn str_ref(&mut self, what: &'static str) -> Result<&'a str> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return Err(DecodeError::Truncated { what, needed: len, remaining: self.remaining() });
        }
        let bytes = self.take(what, len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8 { what })
    }

    /// A length-prefixed opaque byte blob. Like [`Reader::str`], the
    /// length is validated against the bytes present before allocating.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return Err(DecodeError::Truncated { what, needed: len, remaining: self.remaining() });
        }
        Ok(self.take(what, len)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut w = Writer::new();
        w.u8(7).bool(true).u16(65535).u32(1 << 30).u64(u64::MAX).i64(-42).f64(-0.125).str("héllo");
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.u16("c").unwrap(), 65535);
        assert_eq!(r.u32("d").unwrap(), 1 << 30);
        assert_eq!(r.u64("e").unwrap(), u64::MAX);
        assert_eq!(r.i64("f").unwrap(), -42);
        assert_eq!(r.f64("g").unwrap(), -0.125);
        assert_eq!(r.str("h").unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_typed_never_a_panic() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(
            r.u64("field"),
            Err(DecodeError::Truncated { what: "field", needed: 8, remaining: 5 })
        ));
    }

    #[test]
    fn string_length_is_validated_before_allocation() {
        // Announce a 4 GiB string backed by 2 bytes: must fail cheaply.
        let mut w = Writer::new();
        w.u32(u32::MAX).u16(0);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.str("s"), Err(DecodeError::Truncated { .. })));
    }

    #[test]
    fn bad_utf8_and_trailing_are_typed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str("s"), Err(DecodeError::BadUtf8 { what: "s" }));

        let buf = [0u8; 3];
        let r = Reader::new(&buf);
        assert_eq!(r.expect_end(), Err(DecodeError::Trailing { remaining: 3 }));
    }

    #[test]
    fn nan_bit_patterns_round_trip() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut w = Writer::new();
        w.f64(weird);
        let buf = w.into_vec();
        assert_eq!(Reader::new(&buf).f64("x").unwrap().to_bits(), weird.to_bits());
    }
}
