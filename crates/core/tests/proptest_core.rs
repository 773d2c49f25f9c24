//! Randomized tests over the personalization core: tuple-variable allocation
//! invariants and the degree algebra under composition.

use pqp_core::doi::{Doi, PaperCombinator};
use pqp_core::graph::{JoinEdge, SelectionEdge};
use pqp_core::path::PreferencePath;
use pqp_core::pref::AttrRef;
use pqp_core::vars::VarAllocator;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_storage::{Cardinality, Value};

/// A small universe of tables/columns for random paths.
const TABLES: &[&str] = &["TA", "TB", "TC", "TD", "TE"];

fn arb_doi(rng: &mut SmallRng) -> Doi {
    Doi::new(0.05 + rng.gen_f64() * 0.95).unwrap()
}

fn arb_str(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(1..=6usize);
    (0..len).map(|_| (b'a' + rng.gen_range(0..26u32) as u8) as char).collect()
}

/// A random acyclic path of 0..4 joins anchored at `A@TA`, ending in a
/// selection.
fn arb_path(rng: &mut SmallRng) -> PreferencePath<'static> {
    let comb = PaperCombinator;
    let mut path = PreferencePath::anchor("A", "TA");
    let mut current = "TA".to_string();
    let mut visited = vec!["TA".to_string()];
    let hops = rng.gen_range(0..4usize);
    for _ in 0..hops {
        // Next unvisited table keeps the path acyclic.
        let candidates: Vec<&str> =
            TABLES.iter().copied().filter(|t| !visited.iter().any(|v| v == t)).collect();
        if candidates.is_empty() {
            break;
        }
        let next = candidates[rng.gen_index(candidates.len())].to_string();
        let doi = arb_doi(rng);
        let cardinality = if rng.gen_bool(0.5) { Cardinality::ToOne } else { Cardinality::ToMany };
        path = path.with_join(
            JoinEdge::new(
                AttrRef::new(current.clone(), "x"),
                AttrRef::new(next.clone(), "x"),
                doi,
                cardinality,
            ),
            &comb,
        );
        visited.push(next.clone());
        current = next;
    }
    path.with_selection(
        SelectionEdge::new(AttrRef::new(current, "v"), Value::str(arb_str(rng)), arb_doi(rng)),
        &comb,
    )
}

#[test]
fn path_degree_is_product_of_edges() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_c04e);
    for _ in 0..256 {
        let p = arb_path(&mut rng);
        let mut expect = 1.0;
        for j in &p.joins {
            expect *= j.doi.value();
        }
        expect *= p.selection.as_ref().unwrap().doi.value();
        assert!((p.doi.value() - expect).abs() < 1e-12, "degree not a product: {p}");
        // And never exceeds any single edge degree.
        for j in &p.joins {
            assert!(p.doi <= j.doi);
        }
    }
}

#[test]
fn allocation_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xa110_c8ed);
    for _ in 0..256 {
        let n = rng.gen_range(1..8usize);
        let paths: Vec<PreferencePath> = (0..n).map(|_| arb_path(&mut rng)).collect();
        let mut alloc = VarAllocator::new(["A"]);
        let vars = alloc.allocate(&paths);
        assert_eq!(vars.len(), paths.len());

        for (p, v) in paths.iter().zip(&vars) {
            // One variable per hop, none reserved.
            assert_eq!(v.hop_vars.len(), p.joins.len());
            for name in &v.hop_vars {
                assert!(!name.eq_ignore_ascii_case("A"));
            }
            // Within a path, all hop variables are distinct.
            for i in 0..v.hop_vars.len() {
                for j in (i + 1)..v.hop_vars.len() {
                    assert_ne!(&v.hop_vars[i], &v.hop_vars[j]);
                }
            }
        }

        // Pairwise: identical all-to-one prefixes share variables; any pair
        // sharing a variable at hop h has identical edge prefixes up to h,
        // all to-one.
        for a in 0..paths.len() {
            for b in (a + 1)..paths.len() {
                let (pa, pb) = (&paths[a], &paths[b]);
                let (va, vb) = (&vars[a], &vars[b]);
                let hops = pa.joins.len().min(pb.joins.len());
                let mut forced = true;
                for h in 0..hops {
                    let same_edge = pa.joins[h].same_hop(&pb.joins[h]);
                    let to_one = pa.joins[h].cardinality == Cardinality::ToOne
                        && pb.joins[h].cardinality == Cardinality::ToOne;
                    forced = forced && same_edge && to_one;
                    let shared = va.hop_vars[h] == vb.hop_vars[h];
                    if forced {
                        assert!(shared, "forced to-one prefix must share at hop {h}: {pa} / {pb}");
                    } else {
                        assert!(!shared, "sharing without a forced prefix at hop {h}: {pa} / {pb}");
                    }
                }
            }
        }
    }
}

#[test]
fn allocation_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xdede_7e57);
    for _ in 0..128 {
        let n = rng.gen_range(1..6usize);
        let paths: Vec<PreferencePath> = (0..n).map(|_| arb_path(&mut rng)).collect();
        let a = VarAllocator::new(["A"]).allocate(&paths);
        let b = VarAllocator::new(["A"]).allocate(&paths);
        assert_eq!(a, b);
    }
}
