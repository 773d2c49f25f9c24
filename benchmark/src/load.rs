//! The untraced run: set-up, the measured closed loop, the workload guards
//! and the correctness checks. Produces the end-to-end metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use pqp_obs::rng::{Rng, SmallRng};
use pqp_obs::Json;
use pqp_service::UserId;

use crate::report::{host_ticks, percentile, proc_status_kb, Metrics, Report, RunResult};
use crate::spec::{ops_digest, Op, Spec, Workload, CLIENTS};
use crate::stack::{build_service, Phase, SetupPhases, Stack};

/// (user, query) answers compared row for row with a cache-cold reference.
const ANSWER_SAMPLE: usize = 64;

/// `started` is when the process began: `setup_s` runs from there to the
/// first timed op.
pub fn run(spec: Spec, seed: u64, seconds: f64, started: Instant, work_dir: &Path) -> Report {
    let mut stack = Stack::build(spec.clone(), seed, started, work_dir);
    let phases = stack.phases;

    let digest = ops_digest(stack.clients.iter().map(|c| c.ops.as_slice()));
    let counters_before = pqp_obs::metrics::global_snapshot();
    let caches_before = stack.service.cache_stats();
    let (stolen_before, ticks_before) = host_ticks();
    let mut driven = stack.drive(Phase::For(Duration::from_secs_f64(seconds)));
    let (stolen_after, ticks_after) = host_ticks();
    let caches_after = stack.service.cache_stats();
    let counters_after = pqp_obs::metrics::global_snapshot();

    let succeeded = driven.latencies_ns.len() as u64;
    let mut attempted = succeeded + driven.failed;
    let mut failed = driven.failed;
    let mut failures = std::mem::take(&mut driven.failures);
    let wall_s = driven.wall.as_secs_f64();

    // Workload guards: fail the run rather than measure something else.
    let plan_hits = caches_after.plans.hits - caches_before.plans.hits;
    let plan_lookups = plan_hits
        + (caches_after.plans.misses - caches_before.plans.misses)
        + (caches_after.plans.stale - caches_before.plans.stale);
    let hit_ratio = plan_hits as f64 / plan_lookups.max(1) as f64;
    let counter_delta = |name: &str| counters_after.counter(name) - counters_before.counter(name);
    let mut guard = |ok: bool, what: String| {
        if !ok {
            failed += 1;
            failures.push(format!("guard: {what}"));
        }
    };
    match spec.workload {
        Workload::HotRead | Workload::RankExec => {
            guard(hit_ratio >= 0.99, format!("plan-cache hit ratio {hit_ratio:.4} < 0.99"))
        }
        Workload::ColdRead => {
            guard(hit_ratio <= 0.01, format!("plan-cache hit ratio {hit_ratio:.4} > 0.01"))
        }
        Workload::ProfileWrite => {
            // A full-length run must cross several compaction cycles (≈23
            // at this host's usual rate; 5 still holds at a fifth of it);
            // the 2 s smoke run only has time for one or two.
            let wanted = if seconds >= 10.0 { 5 } else { 1 };
            let snapshots = counter_delta("repl.snapshots");
            guard(snapshots >= wanted, format!("{snapshots} WAL snapshot cycles < {wanted}"));
            let changes =
                counter_delta("router.leader_changes") + counter_delta("router.promotions");
            guard(changes == 0, format!("{changes} router leader changes during the run"));
        }
    }

    // Correctness of the answers, in the same command.
    let (checked, mismatches) = if spec.workload.is_read() {
        check_answers(&mut stack, seed)
    } else {
        check_replicas(&stack, 0)
    };
    attempted += checked;
    failed += mismatches.len() as u64;
    failures.extend(mismatches);

    let mut latencies = driven.latencies_ns;
    latencies.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let metrics: Metrics = vec![
        ("setup_s", phases.total_s, "s"),
        ("peak_rss_mb", proc_status_kb("VmHWM") / 1024.0, "MB"),
    ];
    let reported: Metrics = vec![
        ("ops_per_s", succeeded as f64 / wall_s, "1/s"),
        ("p95_ms", ms(percentile(&latencies, 0.95)), "ms"),
        ("cpu_us_per_op", driven.cpu_s * 1e6 / succeeded.max(1) as f64, "us"),
    ];

    let detail = Json::obj()
        .set("ops_digest", format!("{digest:016x}"))
        .set("measured_wall_s", wall_s)
        .set("measured_cpu_s", driven.cpu_s)
        .set("cpu_utilisation_cores", driven.cpu_s / wall_s)
        .set("host_cpu_stolen_share", (stolen_after - stolen_before) / (ticks_after - ticks_before))
        .set("plan_cache_hit_ratio", hit_ratio)
        .set(
            "client",
            Json::obj()
                .set("samples", latencies.len())
                .set("p50_ms", ms(percentile(&latencies, 0.50)))
                .set("p90_ms", ms(percentile(&latencies, 0.90)))
                .set("p99_ms", ms(percentile(&latencies, 0.99)))
                .set("max_ms", ms(latencies.last().copied().unwrap_or(0))),
        )
        .set(
            "setup_phases_s",
            Json::obj()
                .set("datagen", phases.datagen_s)
                .set("analyze", phases.analyze_s)
                .set("profiles", phases.profiles_s)
                .set("connect", phases.connect_s)
                .set("warmup", phases.warmup_s),
        )
        .set("answers_checked", checked)
        .set("failures", Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()));

    stack.teardown();
    Report { result: RunResult { attempted, failed, metrics, reported }, detail }
}

/// Compare a seeded sample of (user, query) answers, fetched over the wire,
/// row for row with an in-process `Session::query` on a second service that
/// has never cached anything. Returns (answers checked, mismatches).
pub(crate) fn check_answers(stack: &mut Stack, seed: u64) -> (u64, Vec<String>) {
    let spec = stack.env.spec.clone();
    let (reference, _) = build_service(&spec, &mut SetupPhases::default());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE_C0DE);
    let mut mismatches = Vec::new();
    for _ in 0..ANSWER_SAMPLE {
        let client = rng.gen_range(0..CLIENTS);
        let op = Op {
            user: rng.gen_range(0..spec.users_per_client()) as u32,
            item: rng.gen_range(0..spec.items) as u32,
            doi: 0.0,
        };
        let state = &mut stack.clients[client];
        let user = stack.env.population.user_names[state.global_user(op.user)].clone();
        let sql = &stack.env.population.sqls[op.item as usize];
        let mut session = reference.session(UserId::from(user.as_str()));
        if let Some(options) = spec.options {
            session = session.with_options(options);
        }
        if let Some(rewrite) = spec.rewrite {
            session = session.with_rewrite(rewrite);
        }
        match (state.query(&stack.env, op), session.query(sql)) {
            (Ok(wire), Ok(local)) => {
                if wire.rows != local.rows
                    || wire.meta.rewrite != local.meta.rewrite
                    || wire.meta.k != local.meta.k
                {
                    mismatches.push(format!(
                        "{user} `{sql}`: {} rows ({}, k={}) over the wire, {} rows ({}, k={}) in process",
                        wire.rows.len(),
                        wire.meta.rewrite,
                        wire.meta.k,
                        local.rows.len(),
                        local.meta.rewrite,
                        local.meta.k,
                    ));
                }
            }
            (wire, local) => mismatches.push(format!(
                "{user} `{sql}`: wire {:?}, in process {:?}",
                wire.map(|a| a.rows.len()),
                local.map(|a| a.rows.len())
            )),
        }
    }
    (ANSWER_SAMPLE as u64, mismatches)
}

/// The write workload's end state: for every user, leader profile ==
/// follower profile, every written preference holds the model's doi, the
/// follower has acked the log tip, and the log holds exactly the mutations
/// that were acknowledged: to the clients over the wire, plus
/// `acked_in_process` (the traced run's direct `ReplNode` calls). Returns
/// (users checked, violations).
pub(crate) fn check_replicas(stack: &Stack, acked_in_process: u64) -> (u64, Vec<String>) {
    let cluster = stack.cluster.as_ref().expect("the write workload runs on a cluster");
    let spec = &stack.env.spec;
    let mut violations = Vec::new();
    for client in &stack.clients {
        for user in 0..spec.users_per_client() {
            let global = client.global_user(user as u32);
            let name = stack.env.population.user_names[global].as_str();
            let leader = stack.service.profile(name);
            let follower = cluster.follower_service.profile(name);
            if leader != follower {
                violations.push(format!("{name}: leader and follower profiles differ"));
                continue;
            }
            let Some(profile) = leader else {
                violations.push(format!("{name}: profile missing"));
                continue;
            };
            for (item, (table, column, value)) in
                stack.env.population.prefs[global].iter().enumerate()
            {
                let wanted = client.model[user * spec.items + item];
                if wanted.is_nan() {
                    continue;
                }
                let stored = profile.selections().find_map(|pref| match pref {
                    pqp_core::AtomicPreference::Selection { attr, value: v, doi }
                        if attr.table == *table && attr.column == *column && v == value =>
                    {
                        Some(doi.value())
                    }
                    _ => None,
                });
                if stored != Some(wanted) {
                    violations.push(format!(
                        "{name} {table}.{column}: stored doi {stored:?}, model {wanted}"
                    ));
                }
            }
        }
    }
    let acked = acked_in_process + stack.clients.iter().map(|c| c.acked).sum::<u64>();
    let last_seq = cluster.leader.status().last_seq;
    if last_seq != acked {
        violations.push(format!("leader last_seq {last_seq} != {acked} acked mutations"));
    }
    match stack.service.telemetry().repl_status() {
        Some(status) if status.followers.iter().all(|f| f.lag == 0) => {}
        status => violations.push(format!("follower lag is not 0: {status:?}")),
    }
    violations.truncate(8);
    (spec.users as u64, violations)
}
