//! Slotted pages: the unit of row storage inside a heap.
//!
//! Layout (all offsets within one contiguous `PAGE_SIZE` buffer):
//!
//! ```text
//! +-----------+----------------------+ ...free... +-------------+---------+
//! | header    | slot directory →     |            | ← row data  | row data|
//! | (4 bytes) | (4 bytes per slot)   |            |             |         |
//! +-----------+----------------------+------------+-------------+---------+
//! ```
//!
//! The header stores the slot count and the offset of the free-space end.
//! Each slot stores `(offset: u16, len: u16)` of its row payload; a slot of
//! `(0, 0)` is a tombstone left by a delete. The offset disambiguates: live
//! payloads always sit above the 4-byte header, so offset 0 can only mean a
//! tombstone, while a zero-*length* slot at a real offset is a legitimate
//! empty row (the datum encoding of a zero-column row is zero bytes). Rows
//! grow from the tail of the page toward the slot directory.

use crate::error::{Result, StorageError};
use crate::row::{decode_row, encode_row_vec, Row};

/// Size of one page in bytes. 8 KiB, the classic default.
pub const PAGE_SIZE: usize = 8192;

const HEADER_SIZE: usize = 4;
const SLOT_SIZE: usize = 4;

/// Identifier of a row inside a heap: page number and slot number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    pub page: u32,
    pub slot: u16,
}

/// A single slotted page.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Page {
        let data = match vec![0u8; PAGE_SIZE].into_boxed_slice().try_into() {
            Ok(data) => data,
            Err(_) => unreachable!("a Vec of PAGE_SIZE bytes converts to [u8; PAGE_SIZE]"),
        };
        let mut p = Page { data };
        p.set_slot_count(0);
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_free_end(&mut self, off: u16) {
        self.data[2..4].copy_from_slice(&off.to_le_bytes());
    }

    fn slot(&self, i: u16) -> (u16, u16) {
        let base = HEADER_SIZE + i as usize * SLOT_SIZE;
        let off = u16::from_le_bytes([self.data[base], self.data[base + 1]]);
        let len = u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]);
        (off, len)
    }

    fn set_slot(&mut self, i: u16, off: u16, len: u16) {
        let base = HEADER_SIZE + i as usize * SLOT_SIZE;
        self.data[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes of free space available for one more row (including its slot).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        (self.free_end() as usize).saturating_sub(dir_end).saturating_sub(SLOT_SIZE)
    }

    /// Number of slots (including tombstones).
    pub fn len(&self) -> u16 {
        self.slot_count()
    }

    /// True if the page holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slot_count() == 0
    }

    /// Try to insert an encoded row; returns the slot id, or `None` if the
    /// page lacks space.
    pub fn insert(&mut self, encoded: &[u8]) -> Option<u16> {
        if encoded.len() > self.free_space() || encoded.is_empty() && self.free_space() == 0 {
            return None;
        }
        let slot = self.slot_count();
        let new_end = self.free_end() as usize - encoded.len();
        self.data[new_end..new_end + encoded.len()].copy_from_slice(encoded);
        self.set_slot(slot, new_end as u16, encoded.len() as u16);
        self.set_slot_count(slot + 1);
        self.set_free_end(new_end as u16);
        Some(slot)
    }

    /// Read and decode the row in `slot`. Tombstoned or out-of-range slots
    /// yield `None`.
    pub fn get(&self, slot: u16) -> Option<Result<Row>> {
        self.get_raw(slot).map(decode_row)
    }

    /// Raw encoded bytes of the row in `slot`, if live.
    pub fn get_raw(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return None; // Tombstone: no live payload can sit in the header.
        }
        Some(&self.data[off as usize..(off + len) as usize])
    }

    /// Tombstone the row in `slot`. Returns whether a live row was deleted.
    /// The payload space is not reclaimed (no compaction), matching a
    /// classic delete-in-place heap.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (off, _) = self.slot(slot);
        if off == 0 {
            return false;
        }
        self.set_slot(slot, 0, 0);
        true
    }

    /// Iterate over live rows as `(slot, Row)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, Result<Row>)> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Iterate over live rows as raw encoded bytes, skipping the decode —
    /// the executor's scan decodes straight into column vectors instead.
    pub fn iter_raw(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get_raw(s))
    }

    /// Convenience: insert an unencoded row.
    pub fn insert_row(&mut self, row: &[crate::value::Value]) -> Option<u16> {
        self.insert(&encode_row_vec(row))
    }
}

/// Returns an error if a row is too large to ever fit in a page.
pub fn check_row_fits(encoded_len: usize) -> Result<()> {
    let max = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;
    if encoded_len > max {
        return Err(StorageError::Corrupt(format!(
            "row of {encoded_len} bytes exceeds maximum page payload of {max} bytes"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s0 = p.insert_row(&[Value::Int(1), Value::str("a")]).unwrap();
        let s1 = p.insert_row(&[Value::Int(2), Value::str("b")]).unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get(0).unwrap().unwrap(), vec![Value::Int(1), Value::str("a")]);
        assert_eq!(p.get(1).unwrap().unwrap(), vec![Value::Int(2), Value::str("b")]);
        assert!(p.get(2).is_none());
    }

    #[test]
    fn fills_until_full() {
        let mut p = Page::new();
        let row = vec![Value::str("x".repeat(100))];
        let mut n = 0;
        while p.insert_row(&row).is_some() {
            n += 1;
        }
        // Each row is ~107 bytes payload + 4 bytes slot → about 70 rows/page.
        assert!(n >= 60, "expected at least 60 rows, got {n}");
        // Page must report all of them.
        assert_eq!(p.iter().count(), n);
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        p.insert_row(&[Value::Int(1)]).unwrap();
        p.insert_row(&[Value::Int(2)]).unwrap();
        assert!(p.delete(0));
        assert!(!p.delete(0), "double delete is a no-op");
        assert!(p.get(0).is_none());
        let live: Vec<_> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(live, vec![1]);
    }

    #[test]
    fn empty_row_is_live_not_tombstone() {
        let mut p = Page::new();
        let s = p.insert(&[]).unwrap();
        assert_eq!(p.get(s).unwrap().unwrap(), Vec::<Value>::new());
        assert_eq!(p.get_raw(s).unwrap(), &[] as &[u8]);
        assert_eq!(p.iter().count(), 1);
        assert!(p.delete(s));
        assert!(p.get(s).is_none());
        assert!(!p.delete(s), "double delete of an empty row is a no-op");
    }

    #[test]
    fn oversized_row_rejected() {
        assert!(check_row_fits(PAGE_SIZE).is_err());
        assert!(check_row_fits(100).is_ok());
    }

    #[test]
    fn free_space_decreases_monotonically() {
        let mut p = Page::new();
        let before = p.free_space();
        p.insert_row(&[Value::Int(42)]).unwrap();
        assert!(p.free_space() < before);
    }
}
