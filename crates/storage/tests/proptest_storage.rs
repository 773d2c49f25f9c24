//! Randomized tests over the storage layer: a [`Table`] must behave like a
//! plain `Vec<Row>` through any interleaving of inserts, duplicate-key
//! rejections (on one- and two-column keys), compacting deletes and index
//! creation, and an index's ordinal pool stays within twice the table's
//! rows. Driven by a seeded PRNG so failures reproduce exactly.

use pqp_obs::rng::{Rng, SmallRng};
use pqp_storage::{Batch, ColumnDef, DataType, Row, Table, TableSchema, Value, BATCH_SIZE};

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

/// `id` is the primary key; the other columns are nullable, one per type.
fn schema() -> TableSchema {
    TableSchema::new(
        "T",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::nullable("i", DataType::Int),
            ColumnDef::nullable("f", DataType::Float),
            ColumnDef::nullable("s", DataType::Str),
            ColumnDef::nullable("b", DataType::Bool),
        ],
    )
    .with_primary_key(&["id"])
}

/// The strings a row draws from: a small pool, so strings repeat, with the
/// empty string and embedded NULs among them.
const STRINGS: &[&str] = &["", "a", "a\0", "\0", "κόσμε", "lead", "oscar"];

/// A row for key `id` with about 25 % NULLs per nullable column. The float
/// column sometimes gets an `Int` (widened at insert), `-0.0` or NaN.
fn arb_row(rng: &mut SmallRng, id: i64) -> Row {
    let mut row = vec![Value::Int(id)];
    let cell = |rng: &mut SmallRng, v: Value| if rng.gen_bool(0.25) { Value::Null } else { v };
    let i = Value::Int(rng.gen_range(0..8i64));
    row.push(cell(rng, i));
    let f = match rng.gen_range(0..5u32) {
        0 => Value::Int(rng.gen_range(-3..3i64)),
        1 => Value::Float(-0.0),
        2 => Value::Float(f64::NAN),
        _ => Value::Float(rng.gen_range(0..8i64) as f64 / 2.0),
    };
    row.push(cell(rng, f));
    let s = Value::str(STRINGS[rng.gen_index(STRINGS.len())]);
    row.push(cell(rng, s));
    let b = Value::Bool(rng.gen_bool(0.5));
    row.push(cell(rng, b));
    row
}

/// What the table should hold after inserting `row`: the float column
/// widened and `-0.0` stored as `0.0`.
fn stored(mut row: Row) -> Row {
    match row[2] {
        Value::Int(i) => row[2] = Value::Float(i as f64),
        // A float pattern compares with `==`: this arm takes -0.0.
        Value::Float(0.0) => row[2] = Value::Float(0.0),
        _ => {}
    }
    row
}

/// The table agrees with the model: the same rows in the same order, the
/// same length, full chunks, and index hits equal to the model's filter.
fn check(t: &Table, model: &[Row], rng: &mut SmallRng) {
    assert_eq!(t.len(), model.len());
    let rows = t.scan();
    assert_eq!(rows, model);
    for (r, m) in rows.iter().zip(model) {
        // Equality treats -0.0 as 0.0; the stored form must print as 0.
        assert_eq!(r[2].to_string(), m[2].to_string());
    }
    let sizes: Vec<usize> = t.chunks().iter().map(Batch::len).collect();
    if let Some((_, full)) = sizes.split_last() {
        assert!(full.iter().all(|&n| n == BATCH_SIZE), "chunk sizes {sizes:?}");
    }
    for (c, column) in t.schema().columns.iter().enumerate() {
        // NULL, a key no row holds, and keys some rows hold.
        let mut keys = vec![Value::Null, Value::Int(-1)];
        let held = (0..4).filter_map(|_| model.get(rng.gen_index(model.len().max(1))));
        keys.extend(held.map(|r| r[c].clone()));
        for key in keys {
            let Some(ords) = t.index_lookup(&column.name, &key) else { break };
            let got: Vec<Row> = ords
                .iter()
                .map(|&ord| {
                    let mut row = Row::new();
                    t.append_row(ord, &mut row);
                    row
                })
                .collect();
            let want: Vec<Row> = model.iter().filter(|r| r[c] == key).cloned().collect();
            assert_eq!(got, want, "index on `{}`, key {key:?}", column.name);
        }
    }
}

#[test]
fn table_matches_a_vec_model() {
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(0x7AB1E + seed);
        let mut t = Table::new(schema());
        let mut model: Vec<Row> = Vec::new();
        let mut next_id = 0i64;
        let mut freed_ids: Vec<i64> = Vec::new();
        let (mut deleted, mut reinserted) = (0, 0);
        let mut indexed = [false; 5];
        indexed[0] = true; // the primary-key index
        while model.len() <= 3 * BATCH_SIZE + BATCH_SIZE / 2 {
            let some_row = model.get(rng.gen_index(model.len().max(1))).cloned();
            match (rng.gen_range(0..200u32), some_row) {
                (0, Some(victim)) => {
                    // Delete the rows holding one column's value, among
                    // one id residue class.
                    let c = rng.gen_range(1..5usize);
                    let m = rng.gen_range(0..8i64);
                    let id = |r: &[Value]| r[0].as_i64().unwrap();
                    let doomed = |r: &[Value]| r[c] == victim[c] && id(r) % 8 == m;
                    let n = t.delete_where(|r| Ok::<_, ()>(doomed(r))).unwrap();
                    freed_ids.extend(model.iter().filter(|r| doomed(r)).map(|r| id(r)));
                    let before = model.len();
                    model.retain(|r| !doomed(r));
                    assert_eq!(n, before - model.len());
                    deleted += n;
                    check(&t, &model, &mut rng);
                }
                (1, _) => {
                    let c = rng.gen_range(1..5usize);
                    if !indexed[c] {
                        indexed[c] = true;
                        t.create_index(&t.schema().columns[c].name.clone()).unwrap();
                        check(&t, &model, &mut rng);
                    }
                }
                (2..=7, Some(live)) => {
                    // A live key again: rejected, and nothing changes.
                    let id = live[0].as_i64().unwrap();
                    assert!(t.insert(arb_row(&mut rng, id)).is_err(), "duplicate key {id}");
                    assert_eq!(t.len(), model.len());
                }
                (draw, _) => {
                    // A fresh key, or now and then a deleted one again.
                    let id = if draw < 12 && !freed_ids.is_empty() {
                        reinserted += 1;
                        freed_ids.swap_remove(rng.gen_index(freed_ids.len()))
                    } else {
                        next_id += 1;
                        next_id
                    };
                    let row = arb_row(&mut rng, id);
                    t.insert(row.clone()).unwrap();
                    model.push(stored(row));
                }
            }
        }
        assert_ne!(model.len() % BATCH_SIZE, 0, "the scan ends on a short chunk");
        assert!(deleted > 0 && reinserted > 0, "{deleted} deleted, {reinserted} re-inserted");
        check(&t, &model, &mut rng);
        // Deleting everything leaves an empty table that still takes rows.
        t.delete_where(|_| Ok::<_, ()>(true)).unwrap();
        assert!(t.is_empty() && t.chunks().is_empty());
        t.insert(arb_row(&mut rng, 0)).unwrap();
        assert_eq!(t.len(), 1);
    }
}

/// `(mid, genre)` is the primary key, as in the crate doc's GENRE table, and
/// `(rank, mid)` a second unique constraint over columns out of order.
fn genre_schema() -> TableSchema {
    TableSchema::new(
        "GENRE",
        vec![
            ColumnDef::new("mid", DataType::Int),
            ColumnDef::new("genre", DataType::Str),
            ColumnDef::new("rank", DataType::Int),
        ],
    )
    .with_primary_key(&["mid", "genre"])
    .with_unique(&["rank", "mid"])
}

#[test]
fn two_column_keys_reject_only_a_duplicate_of_both_columns() {
    const GENRES: &[&str] = &["comedy", "drama", "noir", "western"];
    let mut rng = SmallRng::seed_from_u64(0x6E4E);
    let mut t = Table::new(genre_schema());
    let mut model: Vec<Row> = Vec::new();
    let duplicate = |model: &[Row], row: &Row, cols: [usize; 2]| {
        model.iter().any(|m| cols.iter().all(|&c| m[c] == row[c]))
    };
    for step in 0..3000 {
        if rng.gen_range(0..100u32) == 0 {
            let mid = Value::Int(rng.gen_range(0..64i64));
            t.delete_where(|r| Ok::<_, ()>(r[0] == mid)).unwrap();
            model.retain(|r| r[0] != mid);
        } else {
            let row = vec![
                Value::Int(rng.gen_range(0..64i64)),
                Value::str(GENRES[rng.gen_index(GENRES.len())]),
                Value::Int(rng.gen_range(0..16i64)),
            ];
            let rejected = duplicate(&model, &row, [0, 1]) || duplicate(&model, &row, [2, 0]);
            assert_eq!(t.insert(row.clone()).is_err(), rejected, "step {step}: {row:?}");
            if !rejected {
                model.push(row);
            }
        }
        assert_eq!(t.len(), model.len(), "step {step}");
    }
    assert_eq!(t.scan(), model);
    // One column repeated is accepted, both rejected, on either key.
    t.delete_where(|_| Ok::<_, ()>(true)).unwrap();
    let row = |mid: i64, genre: &str, rank: i64| vec![mid.into(), genre.into(), rank.into()];
    t.insert(row(1, "comedy", 1)).unwrap();
    t.insert(row(1, "drama", 2)).unwrap();
    t.insert(row(2, "comedy", 1)).unwrap();
    assert!(t.insert(row(1, "comedy", 3)).is_err(), "(mid, genre) repeated");
    assert!(t.insert(row(1, "noir", 2)).is_err(), "(rank, mid) repeated");
    assert_eq!(t.len(), 3);
}

#[test]
fn a_growing_index_keeps_its_pool_within_twice_the_rows() {
    for seed in 0..3u64 {
        let mut rng = SmallRng::seed_from_u64(0x9001 + seed);
        let mut t = Table::new(schema());
        t.create_index("i").unwrap();
        let mut model: Vec<Row> = Vec::new();
        let mut moves = 0;
        for id in 0..6 * BATCH_SIZE as i64 {
            if rng.gen_range(0..400u32) == 0 {
                let m = rng.gen_range(0..4i64);
                let doomed = |r: &[Value]| r[0].as_i64().is_some_and(|id| id % 4 == m);
                t.delete_where(|r| Ok::<_, ()>(doomed(r))).unwrap();
                model.retain(|r| !doomed(r));
            } else {
                let row = arb_row(&mut rng, id);
                // Interleaved keys: most inserts move their key's run.
                moves += usize::from(model.last().is_some_and(|last| last[1] != row[1]));
                t.insert(row.clone()).unwrap();
                model.push(stored(row));
            }
            let pool = t.index_on("i").unwrap().pool_len();
            assert!(pool <= 2 * t.len(), "id {id}: pool {pool} for {} rows", t.len());
        }
        assert!(moves > BATCH_SIZE, "{moves} inserts changed key");
        check(&t, &model, &mut rng);
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
