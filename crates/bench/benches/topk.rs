//! K/L sweep of the three execution strategies for a ranked personalized
//! query: SQ, MQ, and the native rank operator (`Node::TopK`).
//!
//! One query — the paper's running example, "movies playing tonight"
//! (`MOVIE ⋈ PLAY` with a date filter, the mandatory part every strategy
//! repeats or pushes down), one profile with 16 genre preferences
//! reachable through the MOVIE→GENRE join, and a sweep over
//! K ∈ {6, 8, 10, 12, 14, 16} selected preferences × L ∈ {1..4}
//! at-least-L matching. MQ and native run in their ranked top-N form
//! (`LIMIT 20`, a `Limit` node above the ranked result); SQ cannot rank, so its point is the unranked matching form
//! (the paper's own comparison), and it is skipped where `C(K, L)`
//! explodes past the practical OR-expansion size (skips are printed — no
//! silent caps).
//!
//! MQ and native are asserted equivalent (canonical rank order) before
//! anything is timed. Writes `results/micro_topk.json` (schema_version 2
//! `meta` block) with a `derived` block: per-corner speedups, the cost
//! model's per-point choice, and the measured-cheapest strategy at both
//! sweep ends.
//!
//! `PQP_TOPK_SMOKE=1` shrinks the sweep to its two ends — K ∈ {6, 14},
//! L ∈ {1, 3} — and the sample count to 3, for the CI/verify smoke gate
//! (the same equivalence assertion and output schema, a fraction of the
//! wall-clock). The smoke writes `target/topk-smoke/micro_topk.json` and
//! `target/topk-smoke/metrics.json` instead, so it never overwrites the
//! recorded sweep.

use pqp_bench::microbench::{write_metrics_json, MicroBench};
use pqp_core::{
    build_execution, personalize, InMemoryGraph, PersonalizeOptions, Personalized, Profile,
    Rewrite, StrategyChoice,
};
use pqp_engine::Database;
use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::Json;
use pqp_sql::parse_query;
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};
use std::path::{Path, PathBuf};

const MOVIES: usize = 20_000;
const PLAYS: usize = 60_000;
const DATES: usize = 30;
const N_GENRES: usize = 16;
/// Fraction (percent) of movies carrying genre annotations: sparse,
/// like real attribute data, which keeps the witness sub-plans small.
const ANNOTATED_PCT: u32 = 10;

/// The paper's running example: what plays tonight. The `MOVIE ⋈ PLAY`
/// join plus the date filter is the *mandatory* work — the SQ/MQ rewrites
/// repeat it in every disjunct/partial, the native operator runs it once
/// and evaluates the K optional preferences as witness probes.
const TONIGHT_SQL: &str = "select MV.title from MOVIE MV, PLAY PL \
     where MV.mid = PL.mid and PL.date = 'd00'";
const TOP_N: u64 = 20;
/// SQ is benched only while `C(K, L)` stays below this many disjuncts —
/// each disjunct repeats the mandatory join, so large combinations take
/// whole seconds per run.
const SQ_DISJUNCT_CAP: u128 = 150;

/// Whether `PQP_TOPK_SMOKE` asks for the smoke sweep.
fn smoke() -> bool {
    std::env::var("PQP_TOPK_SMOKE").is_ok_and(|v| v != "0")
}

/// The sweep axes: the full grid, or its two ends for the smoke.
fn sweep(smoke: bool) -> (Vec<usize>, Vec<usize>, usize) {
    if smoke {
        (vec![6, 14], vec![1, 3], 3)
    } else {
        (vec![6, 8, 10, 12, 14, 16], vec![1, 2, 3, 4], 6)
    }
}

fn genre_name(i: usize) -> String {
    format!("genre{i:02}")
}

/// MOVIE(mid, title) + PLAY(mid, date) + GENRE(mid, genre): no indexes,
/// ANALYZE'd. PLAY spreads uniformly over `DATES` dates, so the mandatory
/// date filter admits ~`PLAYS / DATES` rows. Only `ANNOTATED_PCT`% of
/// movies carry genres, but those carry a *run* of 3–6 consecutive
/// genres, so even at-least-4 matching against the top-K preferred genres
/// stays non-empty.
fn fixture() -> Database {
    let mut c = Catalog::new();
    c.create_table(TableSchema::new(
        "MOVIE",
        vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("title", DataType::Str)],
    ))
    .unwrap();
    c.create_table(TableSchema::new(
        "PLAY",
        vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("date", DataType::Str)],
    ))
    .unwrap();
    c.create_table(TableSchema::new(
        "GENRE",
        vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("genre", DataType::Str)],
    ))
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(0x709C_5EED);
    {
        let t = c.table("MOVIE").unwrap();
        let mut t = t.write();
        for mid in 0..MOVIES {
            t.insert(vec![Value::Int(mid as i64), Value::str(format!("Movie {mid:05}"))]).unwrap();
        }
        t.analyze();
    }
    {
        let t = c.table("PLAY").unwrap();
        let mut t = t.write();
        for _ in 0..PLAYS {
            let mid = rng.next_u32() as usize % MOVIES;
            let date = rng.next_u32() as usize % DATES;
            t.insert(vec![Value::Int(mid as i64), Value::str(format!("d{date:02}"))]).unwrap();
        }
        t.analyze();
    }
    {
        let t = c.table("GENRE").unwrap();
        let mut t = t.write();
        for mid in 0..MOVIES {
            if rng.next_u32() % 100 >= ANNOTATED_PCT {
                continue;
            }
            let n = 3 + (rng.next_u32() % 4) as usize;
            let first = rng.next_u32() as usize % N_GENRES;
            for j in 0..n {
                let g = genre_name((first + j) % N_GENRES);
                t.insert(vec![Value::Int(mid as i64), Value::str(g)]).unwrap();
            }
        }
        t.analyze();
    }
    Database::new(c)
}

/// 16 genre preferences with geometrically decaying degrees (Zipf-like
/// user interest), all reachable through one MOVIE→GENRE join edge: K
/// selects exactly the top-K genres. The decay matters: the operator's
/// termination bound over the unprobed suffix is `1 − ∏(1 − dᵢ)`, which
/// only collapses below the running top-N floor when the tail degrees are
/// genuinely small. A near-flat profile keeps every witness relevant and
/// forces all K probes — same work as MQ, by design.
fn profile() -> Profile {
    let mut p = Profile::new("sweep");
    p.add_join("MOVIE", "mid", "GENRE", "mid", 1.0).unwrap();
    for i in 0..N_GENRES {
        p.add_selection("GENRE", "genre", genre_name(i), 0.9 * 0.6f64.powi(i as i32)).unwrap();
    }
    p
}

fn binomial(n: u128, k: u128) -> u128 {
    if k > n {
        return 0;
    }
    (0..k.min(n - k)).fold(1u128, |acc, i| acc * (n - i) / (i + 1))
}

fn personalized<'g>(
    db: &Database,
    graph: &'g InMemoryGraph,
    k: usize,
    l: usize,
    rank: bool,
) -> Personalized<'g> {
    let q = parse_query(TONIGHT_SQL).unwrap();
    let opts = PersonalizeOptions::builder().k(k).l(l).build();
    let opts = if rank { opts.ranked() } else { opts };
    personalize(&q, graph, db.catalog(), opts).unwrap()
}

/// Canonical rank order: interest desc (NULL last), then title asc.
fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        let key = |r: &Vec<Value>| match r.last() {
            Some(Value::Float(f)) => (0u8, -f),
            _ => (1u8, 0.0),
        };
        key(a).partial_cmp(&key(b)).unwrap().then_with(|| a[0].cmp(&b[0]))
    });
    rows
}

fn main() {
    let db = fixture();
    let graph = InMemoryGraph::build(&profile(), db.catalog()).unwrap();

    // Equivalence gate before any timing: native ≡ ranked MQ (canonical
    // order) at a mid-sweep point, unlimited so LIMIT tie-picking cannot
    // mask a divergence.
    {
        let p = personalized(&db, &graph, 10, 2, true);
        let native = build_execution(&db, &p, Rewrite::NativeRank, None).unwrap();
        assert_eq!(native.rewrite, Rewrite::NativeRank, "fixture must support the native operator");
        let mq = build_execution(&db, &p, Rewrite::Mq, None).unwrap();
        let a = canonical(db.run_plan(&native.plan).unwrap().rows);
        let b = canonical(db.run_plan(&mq.plan).unwrap().rows);
        assert_eq!(a, b, "native diverged from ranked MQ at K=10 L=2");
        println!("equivalence gate: native ≡ ranked MQ on {} rows", a.len());
    }

    let smoke = smoke();
    let (k_sweep, l_sweep, samples) = sweep(smoke);
    let mut group = MicroBench::new("topk").sample_size(samples);
    // (k, l, strategy label, estimated cost) plus the cost model's pick.
    let mut points: Vec<Json> = Vec::new();
    for &k in &k_sweep {
        for &l in &l_sweep {
            let ranked = personalized(&db, &graph, k, l, true);
            let mq = build_execution(&db, &ranked, Rewrite::Mq, Some(TOP_N)).unwrap();
            let native = build_execution(&db, &ranked, Rewrite::NativeRank, Some(TOP_N)).unwrap();
            assert_eq!(native.rewrite, Rewrite::NativeRank, "native unsupported at K={k} L={l}");
            group.bench(format!("k{k}_l{l}_mq"), || db.run_plan(&mq.plan).unwrap());
            group.bench(format!("k{k}_l{l}_native"), || db.run_plan(&native.plan).unwrap());
            let sq: Option<StrategyChoice> = if binomial(k as u128, l as u128) <= SQ_DISJUNCT_CAP {
                let unranked = personalized(&db, &graph, k, l, false);
                let sq = build_execution(&db, &unranked, Rewrite::Sq, None).unwrap();
                group.bench(format!("k{k}_l{l}_sq"), || db.run_plan(&sq.plan).unwrap());
                Some(sq)
            } else {
                println!(
                    "k{k}_l{l}_sq skipped: C({k},{l}) = {} disjuncts exceeds cap {}",
                    binomial(k as u128, l as u128),
                    SQ_DISJUNCT_CAP
                );
                None
            };
            let chosen = build_execution(&db, &ranked, Rewrite::Auto, Some(TOP_N)).unwrap();
            let mut point = Json::obj()
                .set("k", k as i64)
                .set("l", l as i64)
                .set("est_cost_mq", mq.cost)
                .set("est_cost_native", native.cost)
                .set("cost_model_choice", chosen.rewrite.label());
            if let Some(sq) = &sq {
                point = point.set("est_cost_sq", sq.cost);
            }
            points.push(point);
        }
    }

    let dir = output_dir(smoke);
    match group.write_json(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write micro_topk.json: {err}"),
    }
    annotate(&dir.join("micro_topk.json"), points);
    match write_metrics_json(&dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write metrics.json: {err}"),
    }
}

/// `results/` for the full sweep, `target/topk-smoke/` for the smoke.
fn output_dir(smoke: bool) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root");
    if smoke {
        root.join("target").join("topk-smoke")
    } else {
        root.join("results")
    }
}

/// Add the `derived` block: the sweep table (per-point estimated costs and
/// cost-model choice), the K=14 L=3 corner speedup (native vs the
/// best of SQ/MQ), and the measured-cheapest strategy at both sweep ends.
fn annotate(path: &Path, points: Vec<Json>) {
    let Ok(text) = std::fs::read_to_string(path) else { return };
    let Ok(doc) = Json::parse(&text) else { return };
    let mean = |name: &str| -> Option<f64> {
        doc.get("benchmarks")?
            .as_array()?
            .iter()
            .find_map(|b| (b.get("name")?.as_str()? == name).then(|| b.get("mean_ms")?.as_f64())?)
    };
    // Only the ranked candidates (the ones the cost model actually chooses
    // between for a ranked query) — SQ stays in the table but cannot rank.
    let measured_winner = |k: usize, l: usize| -> Option<(String, f64)> {
        ["mq", "native"]
            .iter()
            .filter_map(|s| mean(&format!("k{k}_l{l}_{s}")).map(|m| (s.to_string(), m)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    };
    let corner = |k: usize, l: usize| -> Option<f64> {
        let native = mean(&format!("k{k}_l{l}_native"))?;
        let best_sql = [mean(&format!("k{k}_l{l}_mq")), mean(&format!("k{k}_l{l}_sq"))]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        (best_sql.is_finite()).then(|| best_sql / native)
    };
    let host_cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let end = |p: &Json| Some((p.get("k")?.as_i64()? as usize, p.get("l")?.as_i64()? as usize));
    let low_end = points.first().and_then(end);
    let high_end = points.last().and_then(end);
    let mut derived = Json::obj()
        .set("top_n", TOP_N as i64)
        .set("sweep", Json::Arr(points))
        .set("host_cores", host_cores as i64);
    if let Some(s) = corner(14, 3) {
        println!("native speedup vs best of SQ/MQ at K=14 L=3: {s:.2}x");
        derived = derived.set("native_speedup_k14_l3", s);
    }
    if let Some(s) = corner(6, 1) {
        derived = derived.set("native_speedup_k6_l1", s);
    }
    // The two ends of whatever sweep actually ran (the smoke sweep is a
    // sub-grid): at both, the measured winner should be the cost model's
    // pick for that point.
    for (p, key) in
        [(low_end, "measured_cheapest_low_end"), (high_end, "measured_cheapest_high_end")]
    {
        let Some((k, l)) = p else { continue };
        if let Some((name, ms)) = measured_winner(k, l) {
            println!("measured cheapest at K={k} L={l}: {name} ({ms:.3} ms)");
            derived = derived.set(
                key,
                Json::obj().set("k", k as i64).set("l", l as i64).set("strategy", name.as_str()),
            );
        }
    }
    let doc = doc.set("derived", derived);
    let _ = std::fs::write(path, doc.pretty());
}
