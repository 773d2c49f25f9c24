//! Randomized tests over the storage layer: the row codec, slotted pages and
//! heaps must preserve arbitrary rows through any interleaving of inserts
//! and deletes. Driven by a seeded PRNG so failures reproduce exactly.

use pqp_obs::rng::{Rng, SmallRng};
use pqp_storage::{decode_row, encode_row_vec, Heap, Page, RowId, Value};

fn arb_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.next_u64() as i64),
        3 => {
            // A finite float spanning many magnitudes.
            let m = rng.gen_range(-1.0e6..1.0e6);
            Value::Float(m)
        }
        _ => {
            let len = rng.gen_range(0..40usize);
            let s: String = (0..len)
                .map(|_| char::from_u32(rng.gen_range(0x20..0x2FF_u32)).unwrap_or('x'))
                .collect();
            Value::str(s)
        }
    }
}

fn arb_row(rng: &mut SmallRng) -> Vec<Value> {
    let n = rng.gen_range(0..8usize);
    (0..n).map(|_| arb_value(rng)).collect()
}

#[test]
fn codec_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC0DEC);
    for _ in 0..256 {
        let row = arb_row(&mut rng);
        let bytes = encode_row_vec(&row);
        let back = decode_row(&bytes).unwrap();
        assert_eq!(back, row);
    }
}

#[test]
fn codec_rejects_any_truncation() {
    let mut rng = SmallRng::seed_from_u64(0x7242C);
    for _ in 0..64 {
        let row = arb_row(&mut rng);
        let bytes = encode_row_vec(&row);
        // No strict prefix may decode to the same row (either error or a
        // different/shorter row), and none may panic.
        for cut in 0..bytes.len() {
            if let Ok(decoded) = decode_row(&bytes[..cut]) {
                assert_ne!(decoded, row, "prefix of {cut} bytes decoded equal");
            }
        }
    }
}

#[test]
fn page_preserves_rows() {
    let mut rng = SmallRng::seed_from_u64(0x9A6E);
    for _ in 0..64 {
        let n = rng.gen_range(1..30usize);
        let rows: Vec<_> = (0..n).map(|_| arb_row(&mut rng)).collect();
        let mut page = Page::new();
        let mut stored = Vec::new();
        for row in &rows {
            if let Some(slot) = page.insert_row(row) {
                stored.push((slot, row.clone()));
            }
        }
        for (slot, row) in &stored {
            assert_eq!(&page.get(*slot).unwrap().unwrap(), row);
        }
        assert_eq!(page.iter().count(), stored.len());
    }
}

#[test]
fn heap_insert_delete_scan() {
    let mut rng = SmallRng::seed_from_u64(0x48EA9);
    for _ in 0..64 {
        let n = rng.gen_range(1..40usize);
        let rows: Vec<_> = (0..n).map(|_| arb_row(&mut rng)).collect();
        let delete_mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let mut heap = Heap::new();
        let mut ids: Vec<(RowId, Vec<Value>)> = Vec::new();
        for row in &rows {
            // Oversized rows are legitimately rejected; skip them.
            if let Ok(id) = heap.insert(row) {
                ids.push((id, row.clone()));
            }
        }
        let mut surviving = Vec::new();
        for (i, (id, row)) in ids.iter().enumerate() {
            if *delete_mask.get(i).unwrap_or(&false) {
                assert!(heap.delete(*id));
                assert!(heap.get(*id).is_none());
            } else {
                surviving.push(row.clone());
            }
        }
        assert_eq!(heap.len(), surviving.len());
        let mut scanned = heap.scan().unwrap();
        let mut expected = surviving;
        scanned.sort();
        expected.sort();
        assert_eq!(scanned, expected);
    }
}

#[test]
fn value_ordering_is_total_and_consistent() {
    use std::cmp::Ordering;
    let mut rng = SmallRng::seed_from_u64(0x0217D);
    for _ in 0..512 {
        let a = arb_value(&mut rng);
        let b = arb_value(&mut rng);
        let c = arb_value(&mut rng);
        // Antisymmetry.
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot form): a ≤ b ≤ c ⇒ a ≤ c.
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        // Hash consistency with equality.
        if a == b {
            use std::hash::{Hash, Hasher};
            let h = |v: &Value| {
                let mut s = std::collections::hash_map::DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            };
            assert_eq!(h(&a), h(&b));
        }
    }
}
