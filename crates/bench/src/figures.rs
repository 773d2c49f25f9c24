//! The experiment runners, one per figure of the paper's §7.
//!
//! Every runner returns [`Experiment`]s whose series mirror the figure's
//! series; the `figures` binary prints them as markdown tables and writes
//! CSVs under `results/`.

use crate::context::{schema_only_db, Scale, Workload};
use crate::harness::{time_ms, Experiment, Series, Stats};
use pqp_core::prelude::*;
use pqp_core::{select_preferences, InterestCriterion, QueryGraph};
use pqp_datagen::{generate_profile, generate_queries, ProfileGenConfig, QueryGenConfig};

/// Figure 6: Preference Selection Time with Profile Size, for K ∈ {5,10,15}.
///
/// Profiles are *stored in database tables* (as in the paper's prototype)
/// and the selection algorithm fetches adjacency lists with SQL — the
/// per-access cost is what shapes this figure. A companion experiment
/// records the number of adjacency fetches, and an in-memory-backend
/// variant isolates the pure graph-algorithm cost.
pub fn fig6(scale: &Scale) -> Vec<Experiment> {
    let ks = [5usize, 10, 15];
    // Queries are generated over a catalog-scale-independent pool: Figure 6
    // never touches the data tables, so a small pool database suffices.
    let pool_db = pqp_datagen::generate(pqp_datagen::MovieDbConfig {
        movies: 300,
        theatres: 8,
        ..Default::default()
    });
    let queries = generate_queries(scale.fig6_queries, &pool_db.pools, &QueryGenConfig::default());

    let mut stored_time = Experiment::new(
        "fig6",
        "Preference Selection Time with Profile Size (stored profiles)",
        "profile size",
        "selection time (ms, mean)",
    );
    let mut memory_time = Experiment::new(
        "fig6_inmemory",
        "Preference Selection Time with Profile Size (in-memory graph)",
        "profile size",
        "selection time (ms, mean)",
    );
    let mut accesses = Experiment::new(
        "fig6_accesses",
        "Adjacency fetches per selection with Profile Size",
        "profile size",
        "graph accesses (mean)",
    );
    let mut penalized = Experiment::new(
        "fig6_penalized",
        "Preference Selection Time with Profile Size (stored profiles, \
         simulated 100µs/access round trip — the paper's regime)",
        "profile size",
        "selection time (ms, mean)",
    );
    let penalty = std::time::Duration::from_micros(100);
    for &k in &ks {
        let mut s_stored = Series::new(format!("K={k}"));
        let mut s_mem = Series::new(format!("K={k}"));
        let mut s_acc = Series::new(format!("K={k}"));
        let mut s_pen = Series::new(format!("K={k}"));
        for &size in &scale.fig6_sizes {
            let mut t_stored = Vec::new();
            let mut t_mem = Vec::new();
            let mut n_acc = Vec::new();
            let mut t_pen = Vec::new();
            for pi in 0..scale.fig6_profiles {
                let profile = generate_profile(
                    &format!("p{size}_{pi}"),
                    &pool_db.pools,
                    &ProfileGenConfig {
                        selections: size,
                        seed: 31 + (size * 1000 + pi) as u64,
                        ..Default::default()
                    },
                );
                // Stored backend: a schema-only host database per profile.
                let mut host = schema_only_db();
                StoredProfileGraph::store(&mut host, &profile).expect("store profile");
                let stored = StoredProfileGraph::open(&host, &profile.user);
                let memory = InMemoryGraph::build(&profile, host.catalog()).expect("valid profile");
                for q in &queries {
                    let qg = QueryGraph::from_select(
                        q.as_select().expect("plain select"),
                        host.catalog(),
                    )
                    .expect("generated query maps onto the graph");
                    let ci = InterestCriterion::TopK(k);
                    let (out, ms) = time_ms(|| select_preferences(&qg, &stored, &ci));
                    t_stored.push(ms);
                    n_acc.push(out.stats.graph_accesses as f64);
                    let (_, ms) = time_ms(|| select_preferences(&qg, &memory, &ci));
                    t_mem.push(ms);
                    // Simulated per-access round trip: accesses dominate, so
                    // derive the time analytically rather than spinning
                    // (identical result, no wasted wall clock).
                    t_pen.push(ms + out.stats.graph_accesses as f64 * penalty.as_secs_f64() * 1e3);
                }
            }
            s_stored.push(size as f64, Stats::of(&t_stored).mean);
            s_mem.push(size as f64, Stats::of(&t_mem).mean);
            s_acc.push(size as f64, Stats::of(&n_acc).mean);
            s_pen.push(size as f64, Stats::of(&t_pen).mean);
        }
        stored_time.series.push(s_stored);
        memory_time.series.push(s_mem);
        accesses.series.push(s_acc);
        penalized.series.push(s_pen);
    }
    vec![stored_time, memory_time, accesses, penalized]
}

/// Shared machinery of Figure 7: % of initial-query rows returned by the
/// personalized (MQ) query.
fn result_size_percent(w: &Workload, k: usize, l: usize) -> f64 {
    let mut percents = Vec::new();
    for (qi, pi) in w.pairs() {
        let initial = w.db().run_query(&w.queries[qi]).expect("initial query runs");
        // Compare against the *distinct* projected rows: the personalized
        // query is a set, the initial one a multiset.
        let mut distinct_rows = initial.rows.clone();
        distinct_rows.sort();
        distinct_rows.dedup();
        if distinct_rows.is_empty() {
            continue;
        }
        let p = w.personalize(qi, pi, k, l, false);
        let mq = p.mq().expect("MQ integration");
        let personalized = w.db().run_query(&mq).expect("personalized query runs");
        percents.push(100.0 * personalized.len() as f64 / distinct_rows.len() as f64);
    }
    Stats::of(&percents).mean
}

/// Figure 7(a): result size with K (L = 1).
pub fn fig7a(w: &Workload) -> Vec<Experiment> {
    let mut e = Experiment::new(
        "fig7a",
        "Size of the Results of Personalized Queries with K (L=1)",
        "K",
        "% of rows of the initial query",
    );
    let mut s = Series::new("% of initial rows");
    for &k in &w.scale.fig7a_ks {
        s.push(k as f64, result_size_percent(w, k, 1));
    }
    e.series.push(s);
    vec![e]
}

/// Figure 7(b): result size with L (K = 10).
pub fn fig7b(w: &Workload) -> Vec<Experiment> {
    let mut e = Experiment::new(
        "fig7b",
        "Size of the Results of Personalized Queries with L (K=10)",
        "L",
        "% of rows of the initial query",
    );
    let mut s = Series::new("% of initial rows");
    for &l in &w.scale.fig7b_ls {
        s.push(l as f64, result_size_percent(w, 10, l));
    }
    e.series.push(s);
    vec![e]
}

/// Figure 7(c): result size with L (K = 60).
pub fn fig7c(w: &Workload) -> Vec<Experiment> {
    let mut e = Experiment::new(
        "fig7c",
        "Size of the Results of Personalized Queries with L (K=60)",
        "L",
        "% of rows of the initial query",
    );
    let mut s = Series::new("% of initial rows");
    for &l in &w.scale.fig7c_ls {
        s.push(l as f64, result_size_percent(w, w.scale.fig7c_k, l));
    }
    e.series.push(s);
    vec![e]
}

/// Figures 8 and 9 share this: integration + execution time of SQ vs MQ.
fn sq_mq_times(w: &Workload, k: usize, l: usize) -> (f64, f64, f64, f64) {
    let mut int_sq = Vec::new();
    let mut int_mq = Vec::new();
    let mut exec_sq = Vec::new();
    let mut exec_mq = Vec::new();
    // Warm-up: one untimed round absorbs lazy-allocation cold-start cost.
    if let Some(&(qi, pi)) = w.pairs().first() {
        let p = w.personalize(qi, pi, k, l, false);
        let _ = p.sq();
        let _ = p.mq();
    }
    for (qi, pi) in w.pairs() {
        let p = w.personalize(qi, pi, k, l, false);
        let (sq, ms) = time_ms(|| p.sq());
        int_sq.push(ms);
        let (mq, ms) = time_ms(|| p.mq());
        int_mq.push(ms);
        if let Ok(sq) = sq {
            let (r, ms) = time_ms(|| w.db().run_query(&sq));
            r.expect("SQ runs");
            exec_sq.push(ms);
        }
        let mq = mq.expect("MQ integration");
        let (r, ms) = time_ms(|| w.db().run_query(&mq));
        r.expect("MQ runs");
        exec_mq.push(ms);
    }
    (
        Stats::of(&int_sq).mean,
        Stats::of(&int_mq).mean,
        Stats::of(&exec_sq).mean,
        Stats::of(&exec_mq).mean,
    )
}

/// Figure 8: SQ vs MQ with K (L = 1): integration and execution times.
pub fn fig8(w: &Workload) -> Vec<Experiment> {
    let mut integration = Experiment::new(
        "fig8_integration",
        "Preference Integration Times with K (L=1)",
        "K",
        "integration time (ms, mean)",
    );
    let mut execution = Experiment::new(
        "fig8_execution",
        "Execution Times with K (L=1)",
        "K",
        "execution time (ms, mean)",
    );
    let mut i_sq = Series::new("SQ");
    let mut i_mq = Series::new("MQ");
    let mut e_sq = Series::new("SQ");
    let mut e_mq = Series::new("MQ");
    for &k in &w.scale.fig8_ks {
        let (isq, imq, esq, emq) = sq_mq_times(w, k, 1.min(k));
        i_sq.push(k as f64, isq);
        i_mq.push(k as f64, imq);
        e_sq.push(k as f64, esq);
        e_mq.push(k as f64, emq);
    }
    integration.series = vec![i_sq, i_mq];
    execution.series = vec![e_sq, e_mq];
    vec![integration, execution]
}

/// Figure 9: SQ vs MQ with L (K = 10): integration and execution times.
pub fn fig9(w: &Workload) -> Vec<Experiment> {
    let mut integration = Experiment::new(
        "fig9_integration",
        "Preference Integration Times with L (K=10)",
        "L",
        "integration time (ms, mean)",
    );
    let mut execution = Experiment::new(
        "fig9_execution",
        "Execution Times with L (K=10)",
        "L",
        "execution time (ms, mean)",
    );
    let mut i_sq = Series::new("SQ");
    let mut i_mq = Series::new("MQ");
    let mut e_sq = Series::new("SQ");
    let mut e_mq = Series::new("MQ");
    for &l in &w.scale.fig9_ls {
        let (isq, imq, esq, emq) = sq_mq_times(w, 10, l);
        i_sq.push(l as f64, isq);
        i_mq.push(l as f64, imq);
        e_sq.push(l as f64, esq);
        e_mq.push(l as f64, emq);
    }
    integration.series = vec![i_sq, i_mq];
    execution.series = vec![e_sq, e_mq];
    vec![integration, execution]
}

/// Figure 10: performance of personalization (MQ): initial-query execution
/// vs personalized-query execution vs personalization time, swept over K
/// (L=1) and over L (K=10).
pub fn fig10(w: &Workload) -> Vec<Experiment> {
    let mut with_k = Experiment::new(
        "fig10_k",
        "Performance of Personalization with K (L=1, MQ)",
        "K",
        "time (ms, mean)",
    );
    let mut with_l = Experiment::new(
        "fig10_l",
        "Performance of Personalization with L (K=10, MQ)",
        "L",
        "time (ms, mean)",
    );

    // Figure 10 measures the regime the paper describes — broad initial
    // queries whose execution cost is dominated by result size — so it uses
    // the selection-free query set.
    let measure = |k: usize, l: usize| -> (f64, f64, f64) {
        let mut t_initial = Vec::new();
        let mut t_personalized = Vec::new();
        let mut t_personalization = Vec::new();
        for (qi, pi) in w.pairs() {
            let query = &w.broad_queries[qi];
            let (r, ms) = time_ms(|| w.db().run_query(query));
            r.expect("initial runs");
            t_initial.push(ms);
            // Personalization time = preference selection + MQ integration.
            let (mq, ms) = time_ms(|| {
                let p = personalize(
                    query,
                    &w.graphs[pi],
                    w.db().catalog(),
                    PersonalizeOptions::builder().k(k).l(l).build(),
                )
                .expect("personalize");
                p.mq().expect("MQ integration")
            });
            t_personalization.push(ms);
            let (r, ms) = time_ms(|| w.db().run_query(&mq));
            r.expect("personalized runs");
            t_personalized.push(ms);
        }
        (
            Stats::of(&t_initial).mean,
            Stats::of(&t_personalized).mean,
            Stats::of(&t_personalization).mean,
        )
    };

    let mut k_init = Series::new("Initial Query Exec.Time");
    let mut k_pers = Series::new("Personal. Query Exec.Time");
    let mut k_time = Series::new("Personalization Time");
    for &k in &w.scale.fig8_ks {
        let (a, b, c) = measure(k, 1.min(k));
        k_init.push(k as f64, a);
        k_pers.push(k as f64, b);
        k_time.push(k as f64, c);
    }
    with_k.series = vec![k_init, k_pers, k_time];

    let mut l_init = Series::new("Initial Query Exec.Time");
    let mut l_pers = Series::new("Personal. Query Exec.Time");
    let mut l_time = Series::new("Personalization Time");
    for &l in &w.scale.fig9_ls {
        let (a, b, c) = measure(10, l);
        l_init.push(l as f64, a);
        l_pers.push(l as f64, b);
        l_time.push(l as f64, c);
    }
    with_l.series = vec![l_init, l_pers, l_time];

    vec![with_k, with_l]
}

/// Ablation: the combination-function choice (paper's product/`1−∏(1−d)`
/// vs the admissible-but-degenerate min/max family) — how many of the
/// top-K preferences change, and how the selected degrees differ.
pub fn ablation_combinators(w: &Workload) -> Vec<Experiment> {
    use pqp_core::{select_preferences_with, MinMaxCombinator, PaperCombinator};
    let mut e = Experiment::new(
        "ablation_combinators",
        "Top-K overlap between paper and min/max combination semantics",
        "K",
        "fraction of shared preferences (mean)",
    );
    let mut overlap = Series::new("overlap");
    let mut paper_len = Series::new("avg path length (paper)");
    let mut minmax_len = Series::new("avg path length (min/max)");
    for &k in &[5usize, 10, 15] {
        let mut shares = Vec::new();
        let mut lens_p = Vec::new();
        let mut lens_m = Vec::new();
        for (qi, pi) in w.pairs() {
            let qg = QueryGraph::from_select(w.queries[qi].as_select().unwrap(), w.db().catalog())
                .unwrap();
            let ci = InterestCriterion::TopK(k);
            let a = select_preferences_with(&qg, &w.graphs[pi], &ci, &PaperCombinator);
            let b = select_preferences_with(&qg, &w.graphs[pi], &ci, &MinMaxCombinator);
            let set_a: Vec<String> = a.selected.iter().map(|p| p.to_string()).collect();
            let set_b: Vec<String> = b.selected.iter().map(|p| p.to_string()).collect();
            let inter = set_a.iter().filter(|x| set_b.contains(x)).count();
            if !set_a.is_empty() {
                shares.push(inter as f64 / set_a.len() as f64);
            }
            lens_p.extend(a.selected.iter().map(|p| p.len() as f64));
            lens_m.extend(b.selected.iter().map(|p| p.len() as f64));
        }
        overlap.push(k as f64, Stats::of(&shares).mean);
        paper_len.push(k as f64, Stats::of(&lens_p).mean);
        minmax_len.push(k as f64, Stats::of(&lens_m).mean);
    }
    e.series = vec![overlap, paper_len, minmax_len];
    vec![e]
}

/// Ablation: the engine's OR-expansion rewrite — SQ execution time with and
/// without it. Without the rewrite, preference tables referenced only
/// inside the disjunction plan as cross products, so this runs on a
/// deliberately *micro* database (the unexpanded cost grows multiplicatively
/// with every table a preference path adds).
pub fn ablation_or_expansion() -> Vec<Experiment> {
    let micro = pqp_datagen::generate(pqp_datagen::MovieDbConfig {
        movies: 20,
        theatres: 2,
        days: 2,
        plays_per_day: 2,
        ..Default::default()
    });
    // The query/profile seeds are chosen so the selected preference paths
    // pull in tables outside the query (the regime where the unexpanded plan
    // degenerates into cross products).
    let queries =
        generate_queries(4, &micro.pools, &QueryGenConfig { seed: 1, ..Default::default() });
    let profile = generate_profile(
        "ablation",
        &micro.pools,
        &ProfileGenConfig { selections: 30, seed: 5, ..Default::default() },
    );
    let graph = InMemoryGraph::build(&profile, micro.db.catalog()).expect("valid profile");

    let mut e = Experiment::new(
        "ablation_or_expansion",
        "SQ execution time with and without OR-expansion (micro database, L=1)",
        "K",
        "execution time (ms, mean)",
    );
    let mut with = Series::new("with OR-expansion");
    let mut without = Series::new("without (cross products)");
    for &k in &[1usize, 2, 3] {
        let mut t_with = Vec::new();
        let mut t_without = Vec::new();
        for q in &queries {
            let p = personalize(
                q,
                &graph,
                micro.db.catalog(),
                PersonalizeOptions::builder().k(k).l(1).build(),
            )
            .expect("personalize");
            let Ok(sq) = p.sq() else { continue };
            let (r, ms) = time_ms(|| {
                let plan = micro.db.plan(&sq).expect("plan");
                micro.db.run_plan(&plan)
            });
            r.expect("expanded SQ runs");
            t_with.push(ms);
            let (r, ms) = time_ms(|| {
                let plan = micro.db.plan_unexpanded(&sq).expect("plan");
                micro.db.run_plan(&plan)
            });
            r.expect("unexpanded SQ runs");
            t_without.push(ms);
        }
        with.push(k as f64, Stats::of(&t_with).mean);
        without.push(k as f64, Stats::of(&t_without).mean);
    }
    e.series = vec![with, without];
    vec![e]
}
