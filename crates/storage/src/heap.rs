//! A heap file: an append-oriented collection of slotted pages.

use crate::error::{Result, StorageError};
use crate::page::{check_row_fits, Page, RowId};
use crate::row::{encode_row_vec, Row};
use crate::value::Value;

/// A heap of pages storing encoded rows.
#[derive(Default)]
pub struct Heap {
    pages: Vec<Page>,
    live_rows: usize,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    /// True if no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Insert a row, appending a new page if the last one is full.
    pub fn insert(&mut self, row: &[Value]) -> Result<RowId> {
        let encoded = encode_row_vec(row);
        check_row_fits(encoded.len())?;
        // Append-only fill discipline: try the last page only. Scanning all
        // pages for holes would make bulk loads quadratic.
        if let Some(last) = self.pages.last_mut() {
            if let Some(slot) = last.insert(&encoded) {
                self.live_rows += 1;
                return Ok(RowId { page: (self.pages.len() - 1) as u32, slot });
            }
        }
        let mut page = Page::new();
        let slot = page.insert(&encoded).ok_or_else(|| {
            StorageError::Corrupt("fresh page rejected a size-checked row".into())
        })?;
        self.pages.push(page);
        self.live_rows += 1;
        Ok(RowId { page: (self.pages.len() - 1) as u32, slot })
    }

    /// Fetch a row by id. `None` for tombstones and out-of-range ids.
    pub fn get(&self, id: RowId) -> Option<Result<Row>> {
        self.pages.get(id.page as usize)?.get(id.slot)
    }

    /// The encoded bytes of a row by id, undecoded. `None` for tombstones
    /// and out-of-range ids.
    pub(crate) fn get_raw(&self, id: RowId) -> Option<&[u8]> {
        self.pages.get(id.page as usize)?.get_raw(id.slot)
    }

    /// Delete a row by id. Returns whether a live row was removed.
    pub fn delete(&mut self, id: RowId) -> bool {
        let Some(page) = self.pages.get_mut(id.page as usize) else {
            return false;
        };
        let deleted = page.delete(id.slot);
        if deleted {
            self.live_rows -= 1;
        }
        deleted
    }

    /// The `storage.scan` failpoint: when armed, a scan yields one injected
    /// corrupt-row error before any real row, exercising the executor's
    /// error path.
    fn scan_failpoint() -> Option<(RowId, Result<Row>)> {
        pqp_obs::failpoint::fire("storage.scan").map(|msg| {
            let err = StorageError::Corrupt(format!("injected: {msg}"));
            (RowId { page: u32::MAX, slot: u16::MAX }, Err(err))
        })
    }

    /// Iterate over all live rows with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Result<Row>)> + '_ {
        Self::scan_failpoint().into_iter().chain(self.pages.iter().enumerate().flat_map(
            |(pno, page)| {
                page.iter().map(move |(slot, row)| (RowId { page: pno as u32, slot }, row))
            },
        ))
    }

    /// Iterate over all live rows as raw encoded bytes (same order as
    /// [`Heap::iter`]). The executor's scan decodes these straight into
    /// column vectors, skipping the per-row `Vec<Value>` allocation. The
    /// `storage.scan` failpoint fires here exactly as it does in
    /// [`Heap::iter`].
    pub fn iter_raw(&self) -> impl Iterator<Item = Result<&[u8]>> + '_ {
        pqp_obs::failpoint::fire("storage.scan")
            .map(|msg| Err(StorageError::Corrupt(format!("injected: {msg}"))))
            .into_iter()
            .chain(self.pages.iter().flat_map(|page| page.iter_raw().map(Ok)))
    }

    /// Materialize all live rows, failing on the first corrupt row.
    pub fn scan(&self) -> Result<Vec<Row>> {
        self.iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_across_pages() {
        let mut h = Heap::new();
        let row = vec![Value::str("y".repeat(1000))];
        let mut ids = Vec::new();
        for _ in 0..50 {
            ids.push(h.insert(&row).unwrap());
        }
        assert_eq!(h.len(), 50);
        assert!(h.page_count() > 1, "1000-byte rows must spill to multiple pages");
        for id in &ids {
            assert_eq!(h.get(*id).unwrap().unwrap(), row);
            assert_eq!(h.get_raw(*id).unwrap(), encode_row_vec(&row));
        }
    }

    #[test]
    fn scan_returns_insertion_order() {
        let mut h = Heap::new();
        for i in 0..100 {
            h.insert(&[Value::Int(i)]).unwrap();
        }
        let rows = h.scan().unwrap();
        assert_eq!(rows.len(), 100);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
    }

    #[test]
    fn delete_reduces_len_and_scan() {
        let mut h = Heap::new();
        let a = h.insert(&[Value::Int(1)]).unwrap();
        let b = h.insert(&[Value::Int(2)]).unwrap();
        assert!(h.delete(a));
        assert!(!h.delete(a));
        assert_eq!(h.len(), 1);
        assert_eq!(h.scan().unwrap(), vec![vec![Value::Int(2)]]);
        assert!(h.get(a).is_none());
        assert!(h.get(b).is_some());
    }

    #[test]
    fn oversized_row_is_rejected() {
        let mut h = Heap::new();
        let row = vec![Value::str("z".repeat(20_000))];
        assert!(h.insert(&row).is_err());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn get_out_of_range() {
        let h = Heap::new();
        assert!(h.get(RowId { page: 0, slot: 0 }).is_none());
        assert!(h.get(RowId { page: 9, slot: 3 }).is_none());
        assert!(h.get_raw(RowId { page: 9, slot: 3 }).is_none());
    }
}
