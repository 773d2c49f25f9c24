//! The traced run: the per-layer metrics.
//!
//! One thread replays a fixed number of client 0's ops and, for each, calls
//! every layer's public function itself — outside-in — inside a span. Spans
//! live in the benchmark, not in the program: moving them inside is a later
//! change. Counts (ratios, rows, bytes) repeat exactly from run to run with
//! the same seed; times do not.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pqp_core::{build_execution, personalize_prepared, InMemoryGraph, QueryGraph, Rewrite};
use pqp_engine::plan::Plan;
use pqp_obs::{Budget, Json, QueryCtx};
use pqp_server::{ReplConfig, ReplNode};
use pqp_service::{QueryApi, Service, UserId};
use pqp_storage::Wal;
use pqp_wire::{Client, ClientConfig, MutationRecord, ProfileOp, Request, Response};

use crate::load::{check_answers, check_replicas};
use crate::report::{percentile, Metrics, Report, RunResult};
use crate::spec::{Op, Spec, Workload, CLIENTS};
use crate::stack::{build_service, SetupPhases, Stack};

/// Every per-layer metric: (name, unit, better, exact). `exact` marks the
/// counts that must repeat bit for bit across runs with one seed. The list
/// is the single source for the output order and for `BENCHMARK.json`
/// (`tests/determinism.rs` checks they agree).
pub const PER_LAYER: &[(&str, &str, &str, bool)] = &[
    ("wire.request_encode_us", "us", "lower", false),
    ("wire.request_decode_us", "us", "lower", false),
    ("wire.response_encode_us", "us", "lower", false),
    ("wire.response_decode_us", "us", "lower", false),
    ("wire.response_bytes", "B", "lower", true),
    ("server.tcp_overhead_us", "us", "lower", false),
    ("server.connect_us", "us", "lower", false),
    ("server.router_hop_us", "us", "lower", false),
    ("server.repl_mutate_q1_us", "us", "lower", false),
    ("server.repl_mutate_q2_us", "us", "lower", false),
    ("server.repl_ship_ack_us", "us", "lower", false),
    ("service.query_hit_us", "us", "lower", false),
    ("service.hit_overhead_us", "us", "lower", false),
    ("service.query_miss_us", "us", "lower", false),
    ("service.miss_overhead_us", "us", "lower", false),
    ("service.plan_cache_hit_ratio", "ratio", "higher", true),
    ("service.prepared_cache_hit_ratio", "ratio", "higher", true),
    ("service.plan_evictions_per_op", "count", "lower", true),
    ("service.rss_kb_per_cached_plan", "kB", "lower", false),
    ("service.mutate_us", "us", "lower", false),
    ("sql.parse_us", "us", "lower", false),
    ("core.query_graph_us", "us", "lower", false),
    ("core.profile_graph_us", "us", "lower", false),
    ("core.select_us", "us", "lower", false),
    ("core.select_graph_accesses", "count", "lower", true),
    ("core.integrate_sq_us", "us", "lower", false),
    ("core.integrate_mq_us", "us", "lower", false),
    ("core.integrate_native_us", "us", "lower", false),
    ("core.strategy_us", "us", "lower", false),
    ("core.strategy_sq_ratio", "ratio", "higher", true),
    ("core.strategy_mq_ratio", "ratio", "higher", true),
    ("core.strategy_native_ratio", "ratio", "higher", true),
    ("engine.plan_us", "us", "lower", false),
    ("engine.execute_us", "us", "lower", false),
    ("engine.rows_scanned_per_op", "count", "lower", true),
    ("engine.rows_out_per_op", "count", "lower", true),
    ("engine.rows_scanned_per_row_out", "ratio", "lower", true),
    ("engine.mem_bytes_per_op", "B", "lower", true),
    ("engine.execute_sq_us", "us", "lower", false),
    ("engine.execute_native_us", "us", "lower", false),
    ("storage.wal_append_us", "us", "lower", false),
    ("storage.wal_sync_us", "us", "lower", false),
    ("storage.wal_bytes_per_mutation", "B", "lower", true),
    ("storage.wal_amplification", "ratio", "lower", true),
    ("setup.datagen_s", "s", "lower", false),
    ("setup.analyze_s", "s", "lower", false),
    ("setup.profiles_s", "s", "lower", false),
    ("setup.connect_s", "s", "lower", false),
    ("setup.warmup_s", "s", "lower", false),
    ("client.p50_ms", "ms", "lower", false),
    ("client.p99_ms", "ms", "lower", false),
    ("client.max_ms", "ms", "lower", false),
    ("client.samples", "count", "higher", true),
    ("trace.overhead_ratio", "ratio", "lower", false),
    ("trace.coverage_ratio", "ratio", "higher", false),
];

/// One timed call: `(op, name, parent span, start, end)`, times in ns since
/// the trace began.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self) {
        let index = self.open.pop().expect("exit without enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Time one call into a layer as a child of the open span.
    fn time<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = call();
        self.exit();
        out
    }

    fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans.iter().filter(move |s| s.name == name).map(|s| s.end_ns - s.start_ns)
    }

    /// Mean duration of the spans called `name`, µs (0 when there are none).
    fn mean_us(&self, name: &str) -> f64 {
        let (sum, count) = self.durations_ns(name).fold((0u64, 0u64), |(s, c), d| (s + d, c + 1));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 1e3
        }
    }

    fn write(&self, path: &Path, workload: Workload, seed: u64) -> std::io::Result<()> {
        let mut names: Vec<&str> = Vec::new();
        let mut rows = String::new();
        for span in &self.spans {
            let name = names.iter().position(|n| *n == span.name).unwrap_or_else(|| {
                names.push(span.name);
                names.len() - 1
            });
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            rows.push_str(&format!(
                "[{},{},{},{},{}]",
                span.op, name, parent, span.start_ns, span.end_ns
            ));
        }
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        std::fs::write(
            path,
            format!(
                "{{\"workload\":\"{}\",\"seed\":{seed},\
                 \"span_fields\":[\"op\",\"name\",\"parent\",\"start_ns\",\"end_ns\"],\
                 \"names\":[{}],\"spans\":[\n{rows}\n]}}\n",
                workload.name(),
                names.join(",")
            ),
        )
    }
}

/// Longest the traced loop may take: a stalled disk must not push the run
/// past its time limit. A loop cut short is a failed run.
const TRACE_CAP: std::time::Duration = std::time::Duration::from_secs(60);

/// Counts taken at the layer boundaries while the trace runs.
#[derive(Default)]
struct Counts {
    ops: u64,
    response_bytes: u64,
    plan_hits: u64,
    plan_lookups: u64,
    plan_evictions: u64,
    prepared_hits: u64,
    prepared_lookups: u64,
    graph_accesses: u64,
    chose: [u64; 3], // SQ, MQ, native
    rows_scanned: u64,
    rows_out: u64,
    mem_bytes: u64,
    wal_log_bytes: u64,
    wal_record_bytes: u64,
    /// Mutations acknowledged by direct `ReplNode::client_mutate` calls on
    /// the cluster's leader (the wire ones are counted by the clients).
    acked_in_process: u64,
}

/// Run the traced pass of `spec` and write `trace_<workload>.json` to
/// `out_dir`.
pub fn run(spec: Spec, seed: u64, started: Instant, work_dir: &Path, out_dir: &Path) -> Report {
    let mut stack = Stack::build(spec.clone(), seed, started, work_dir);
    let ops: Vec<Op> = (0..spec.trace_ops).map(|_| stack.clients[0].take_op()).collect();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut failures: Vec<String> = Vec::new();
    let mut rungs = (!spec.workload.is_read()).then(|| WriteRungs::open(&stack, work_dir));

    let loop_started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if loop_started.elapsed() > TRACE_CAP {
            failures.push(format!("trace stopped after {i} of {} ops: time cap", ops.len()));
            break;
        }
        tracer.op = i as u32;
        tracer.enter("op");
        let traced = if spec.workload.is_read() {
            trace_read(&mut stack, *op, &mut tracer, &mut counts)
        } else {
            trace_write(&mut stack, &mut rungs, *op, &mut tracer, &mut counts)
        };
        if let Err(reason) = traced {
            failures.push(reason);
        }
        tracer.exit();
    }
    if let Some(rungs) = rungs {
        rungs.close();
    }

    let (checked, mismatches) = if spec.workload.is_read() {
        check_answers(&mut stack, seed)
    } else {
        check_replicas(&stack, counts.acked_in_process)
    };
    failures.extend(mismatches);

    let metrics = metrics(&stack, &tracer, &counts);
    let trace_file = out_dir.join(format!("trace_{}.json", spec.workload.name()));
    tracer.write(&trace_file, spec.workload, seed).expect("write the span file");
    let detail = Json::obj()
        .set("trace_file", trace_file.display().to_string())
        .set("spans", tracer.spans.len())
        .set("answers_checked", checked)
        .set("failures", Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()));
    stack.teardown();
    Report {
        result: RunResult {
            attempted: ops.len() as u64 + checked,
            failed: failures.len() as u64,
            metrics,
            reported: Vec::new(),
        },
        detail,
    }
}

/// One read, layer by layer.
fn trace_read(
    stack: &mut Stack,
    op: Op,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let spec = &stack.env.spec;
    let service: &Service = &stack.service;
    let db = service.database();
    let catalog = db.catalog();
    let user_name = &stack.env.population.user_names[stack.clients[0].global_user(op.user)];
    let user = UserId::from(user_name.as_str());
    let sql = stack.env.population.sqls[op.item as usize].as_str();
    let options = spec.options.unwrap_or(service.config().options);
    let rewrite = spec.rewrite.unwrap_or(service.config().rewrite);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    counts.ops += 1;

    // wire: the request frame as the client sends and the server reads it.
    let request =
        Request::Query { sql: sql.to_string(), options: spec.options, rewrite: spec.rewrite };
    let (tag, payload) = t.time("wire.request_encode", || request.encode());
    t.time("wire.request_decode", || Request::decode(tag, &payload))
        .map_err(|e| fail("request decode", &e))?;

    // service: the call the server makes, on the serving node's own caches.
    let before = service.cache_stats();
    let span = t.enter("service.query_miss");
    let answer =
        service.query_ctx(&user, sql, options, rewrite, &QueryCtx::new(Budget::unlimited()));
    t.exit();
    let answer = answer.map_err(|e| fail("Service::query_ctx", &e))?;
    if answer.meta.cache.is_hit() {
        t.spans[span].name = "service.query_hit";
    }
    let after = service.cache_stats();
    counts.plan_hits += after.plans.hits - before.plans.hits;
    counts.plan_lookups += (after.plans.hits + after.plans.misses + after.plans.stale)
        - (before.plans.hits + before.plans.misses + before.plans.stale);
    counts.plan_evictions += after.plans.evictions - before.plans.evictions;
    counts.prepared_hits += after.prepared.hits - before.prepared.hits;
    counts.prepared_lookups += (after.prepared.hits + after.prepared.misses)
        - (before.prepared.hits + before.prepared.misses);

    // wire: the answer frame.
    let response = Response::Answer(answer);
    let (tag, payload) = t.time("wire.response_encode", || response.encode());
    counts.response_bytes += payload.len() as u64 + 5; // + len:u32 tag:u8
    t.time("wire.response_decode", || Response::decode(tag, &payload))
        .map_err(|e| fail("response decode", &e))?;

    // server: the same request over loopback TCP against the same request in
    // process; the plan is cached by now, so both are hits.
    let env = &stack.env;
    let client = &mut stack.clients[0];
    t.time("server.client_query", || client.query(env, op))
        .map_err(|e| fail("Client::query_with", &e))?;
    t.time("service.query_hit", || {
        service.query_ctx(&user, sql, options, rewrite, &QueryCtx::new(Budget::unlimited()))
    })
    .map_err(|e| fail("Service::query_ctx", &e))?;

    // sql + core: what a plan-cache miss computes, one public call at a time.
    let query = t.time("sql.parse", || pqp_sql::parse_query(sql)).map_err(|e| fail("parse", &e))?;
    let select = query.as_select().ok_or("not a plain SELECT")?.clone();
    let query_graph = t
        .time("core.query_graph", || QueryGraph::from_select(&select, catalog))
        .map_err(|e| fail("QueryGraph::from_select", &e))?;
    let profile = service.profile(user.clone()).ok_or("profile missing")?;
    let graph = t
        .time("core.profile_graph", || InMemoryGraph::build(&profile, catalog))
        .map_err(|e| fail("InMemoryGraph::build", &e))?;
    let personalized = t
        .time("core.select", || personalize_prepared(&select, &query_graph, &graph, options))
        .map_err(|e| fail("personalize_prepared", &e))?;
    counts.graph_accesses += personalized.stats.graph_accesses as u64;
    // SQ cannot express every option set and native rank not every shape;
    // a refusal is an answer too, so these three are timed, not unwrapped.
    let _ = t.time("core.integrate_sq", || personalized.sq());
    let mq = t.time("core.integrate_mq", || personalized.mq()).map_err(|e| fail("mq", &e))?;
    let _ = t.time("core.integrate_native", || personalized.native());
    let choice = t
        .time("core.strategy", || build_execution(db, &personalized, Rewrite::Auto, None))
        .map_err(|e| fail("build_execution", &e))?;
    match choice.rewrite {
        Rewrite::Sq => counts.chose[0] += 1,
        Rewrite::Mq => counts.chose[1] += 1,
        _ => counts.chose[2] += 1,
    }

    // engine: plan the MQ rewrite, execute the plan this workload runs.
    let mq_plan = t.time("engine.plan", || db.plan(&mq)).map_err(|e| fail("plan", &e))?;
    let plan = if rewrite == Rewrite::Auto { &choice.plan } else { &mq_plan };
    let mut execute = |name: &'static str, plan: &Plan| {
        let ctx = QueryCtx::new(Budget::unlimited());
        let rows = t
            .time(name, || db.run_plan_ctx(plan, &service.config().exec, &ctx))
            .map_err(|e| fail(name, &e))?;
        Ok::<_, String>((rows.len() as u64, ctx.progress()))
    };
    let (rows_out, progress) = execute("engine.execute", plan)?;
    counts.rows_out += rows_out;
    counts.rows_scanned += progress.rows_scanned;
    counts.mem_bytes += progress.mem_bytes;
    if spec.workload == Workload::RankExec {
        // Context for the strategy chooser: the same selection executed the
        // other two ways (where they can express it).
        for (name, other) in
            [("engine.execute_sq", Rewrite::Sq), ("engine.execute_native", Rewrite::NativeRank)]
        {
            if let Ok(built) = build_execution(db, &personalized, other, None) {
                if built.rewrite == other {
                    execute(name, &built.plan)?;
                }
            }
        }
    }
    Ok(())
}

/// What the traced write path needs beside the cluster: direct sessions to
/// the leader (to price the router hop), and the rungs below a replicated
/// mutation — a leader with nobody to ship to, a store with no log, a bare
/// log.
struct WriteRungs {
    direct: Vec<Client>,
    scratch: Arc<Service>,
    solo: Arc<ReplNode>,
    wal: Wal,
}

impl WriteRungs {
    fn open(stack: &Stack, work_dir: &Path) -> WriteRungs {
        let cluster = stack.cluster.as_ref().expect("the write workload runs on a cluster");
        let spec = &stack.env.spec;
        let direct = (0..spec.users_per_client())
            .map(|user| {
                let name = &stack.env.population.user_names[user * CLIENTS];
                Client::connect(cluster.leader_addr.as_str(), ClientConfig::new(name.as_str()))
                    .expect("connect to the leader")
            })
            .collect();
        let (scratch, _) = build_service(spec, &mut SetupPhases::default());
        let scratch = Arc::new(scratch);
        let solo =
            ReplNode::open(Arc::clone(&scratch), ReplConfig::new("solo", work_dir.join("solo")))
                .expect("open the solo WAL");
        let (wal, _) = Wal::open(&work_dir.join("bare")).expect("open the bare WAL");
        WriteRungs { direct, scratch, solo, wal }
    }

    fn close(self) {
        for session in self.direct {
            session.close();
        }
    }
}

/// One write, layer by layer. Even ops go through the router, odd ops
/// straight to the leader; the difference of the means is the router hop.
fn trace_write(
    stack: &mut Stack,
    rungs: &mut Option<WriteRungs>,
    op: Op,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let rungs = rungs.as_mut().expect("write rungs are open for the write workload");
    let cluster = stack.cluster.as_ref().expect("the write workload runs on a cluster");
    let global = stack.clients[0].global_user(op.user);
    let user = UserId::from(stack.env.population.user_names[global].as_str());
    let (table, column, value) = stack.env.population.prefs[global][op.item as usize].clone();
    let mutation = ProfileOp::AddSelection {
        table: table.clone(),
        column: column.clone(),
        value: value.clone(),
        doi: op.doi,
    };
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    counts.ops += 1;

    let request = Request::Mutate(mutation.clone());
    let (tag, payload) = t.time("wire.request_encode", || request.encode());
    t.time("wire.request_decode", || Request::decode(tag, &payload))
        .map_err(|e| fail("request decode", &e))?;
    let response = Response::MutateOk { epoch: u64::from(t.op), removed: true };
    let (tag, payload) = t.time("wire.response_encode", || response.encode());
    counts.response_bytes += payload.len() as u64 + 5; // + len:u32 tag:u8
    t.time("wire.response_decode", || Response::decode(tag, &payload))
        .map_err(|e| fail("response decode", &e))?;

    let (name, session) = match t.op % 2 {
        0 => ("server.mutate_routed", &mut stack.clients[0].sessions[op.user as usize]),
        _ => ("server.mutate_direct", &mut rungs.direct[op.user as usize]),
    };
    t.time(name, || session.add_selection(&table, &column, value.clone(), op.doi))
        .map_err(|e| fail(name, &e))?;
    counts.acked_in_process += 1;
    t.time("server.repl_mutate_q2", || cluster.leader.client_mutate(&user, mutation.clone()))
        .map_err(|e| fail("ReplNode::client_mutate (quorum 2)", &e))?;
    counts.acked_in_process += 1;
    stack.clients[0].model[op.key(&stack.env.spec)] = op.doi;
    t.time("server.repl_mutate_q1", || rungs.solo.client_mutate(&user, mutation.clone()))
        .map_err(|e| fail("ReplNode::client_mutate (quorum 1)", &e))?;
    t.time("service.mutate", || {
        rungs.scratch.add_selection(user.clone(), &table, &column, value.clone(), op.doi)
    })
    .map_err(|e| fail("Service::add_selection", &e))?;

    let record = MutationRecord { user: user.as_str().to_string(), op: mutation }.encode();
    let before = rungs.wal.log_bytes();
    t.time("storage.wal_append", || rungs.wal.append(&record))
        .map_err(|e| fail("Wal::append", &e))?;
    t.time("storage.wal_sync", || rungs.wal.sync()).map_err(|e| fail("Wal::sync", &e))?;
    counts.wal_log_bytes += rungs.wal.log_bytes() - before;
    counts.wal_record_bytes += record.len() as u64;
    Ok(())
}

/// Fold spans and counts into the per-layer metrics, in `PER_LAYER` order.
fn metrics(stack: &Stack, t: &Tracer, c: &Counts) -> Metrics {
    let spec = &stack.env.spec;
    let per_op = |total: u64| total as f64 / c.ops.max(1) as f64;
    let ratio = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    let us = |name: &str| t.mean_us(name);

    let hit_us = us("service.query_hit");
    let miss_us = us("service.query_miss");
    // What the service's miss path runs below itself, as this trace timed it.
    let build_us = if spec.rewrite == Some(Rewrite::Auto) {
        us("core.strategy")
    } else {
        us("core.integrate_mq") + us("engine.plan")
    };
    let below_miss_us =
        us("core.profile_graph") + us("core.select") + build_us + us("engine.execute");
    let has = |name: &str| t.durations_ns(name).next().is_some();
    let only_if = |cond: bool, value: f64| if cond { value } else { 0.0 };

    let mut tcp: Vec<u64> = t
        .durations_ns(if spec.workload.is_read() {
            "server.client_query"
        } else {
            "server.mutate_routed"
        })
        .collect();
    tcp.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;

    let op_total: u64 = t.durations_ns("op").sum();
    let children_total: u64 =
        t.spans.iter().filter(|s| s.parent.is_some()).map(|s| s.end_ns - s.start_ns).sum();
    // Plans the warm-up left in the cache, for the memory-per-plan estimate.
    let warmed_plans = if spec.workload.is_read() {
        let touched = if spec.warm_every_key { spec.keys_per_client() } else { spec.warmup_ops };
        (touched * CLIENTS).min(spec.plan_capacity) as f64
    } else {
        0.0
    };
    let strategy_runs: u64 = c.chose.iter().sum();

    let values: Vec<(&str, f64)> = vec![
        ("wire.request_encode_us", us("wire.request_encode")),
        ("wire.request_decode_us", us("wire.request_decode")),
        ("wire.response_encode_us", us("wire.response_encode")),
        ("wire.response_decode_us", us("wire.response_decode")),
        ("wire.response_bytes", per_op(c.response_bytes)),
        (
            "server.tcp_overhead_us",
            only_if(spec.workload.is_read(), us("server.client_query") - hit_us),
        ),
        ("server.connect_us", stack.connect_us),
        (
            "server.router_hop_us",
            only_if(
                has("server.mutate_routed"),
                us("server.mutate_routed") - us("server.mutate_direct"),
            ),
        ),
        ("server.repl_mutate_q1_us", us("server.repl_mutate_q1")),
        ("server.repl_mutate_q2_us", us("server.repl_mutate_q2")),
        ("server.repl_ship_ack_us", us("server.repl_mutate_q2") - us("server.repl_mutate_q1")),
        ("service.query_hit_us", hit_us),
        (
            "service.hit_overhead_us",
            only_if(has("service.query_hit"), hit_us - us("engine.execute")),
        ),
        ("service.query_miss_us", miss_us),
        ("service.miss_overhead_us", only_if(has("service.query_miss"), miss_us - below_miss_us)),
        ("service.plan_cache_hit_ratio", ratio(c.plan_hits, c.plan_lookups)),
        ("service.prepared_cache_hit_ratio", ratio(c.prepared_hits, c.prepared_lookups)),
        ("service.plan_evictions_per_op", per_op(c.plan_evictions)),
        (
            "service.rss_kb_per_cached_plan",
            only_if(
                warmed_plans > 0.0,
                (stack.rss_after_warmup_kb - stack.rss_before_warmup_kb) / warmed_plans.max(1.0),
            ),
        ),
        ("service.mutate_us", us("service.mutate")),
        ("sql.parse_us", us("sql.parse")),
        ("core.query_graph_us", us("core.query_graph")),
        ("core.profile_graph_us", us("core.profile_graph")),
        ("core.select_us", us("core.select")),
        ("core.select_graph_accesses", per_op(c.graph_accesses)),
        ("core.integrate_sq_us", us("core.integrate_sq")),
        ("core.integrate_mq_us", us("core.integrate_mq")),
        ("core.integrate_native_us", us("core.integrate_native")),
        ("core.strategy_us", us("core.strategy")),
        ("core.strategy_sq_ratio", ratio(c.chose[0], strategy_runs)),
        ("core.strategy_mq_ratio", ratio(c.chose[1], strategy_runs)),
        ("core.strategy_native_ratio", ratio(c.chose[2], strategy_runs)),
        ("engine.plan_us", us("engine.plan")),
        ("engine.execute_us", us("engine.execute")),
        ("engine.rows_scanned_per_op", per_op(c.rows_scanned)),
        ("engine.rows_out_per_op", per_op(c.rows_out)),
        ("engine.rows_scanned_per_row_out", ratio(c.rows_scanned, c.rows_out)),
        ("engine.mem_bytes_per_op", per_op(c.mem_bytes)),
        ("engine.execute_sq_us", us("engine.execute_sq")),
        ("engine.execute_native_us", us("engine.execute_native")),
        ("storage.wal_append_us", us("storage.wal_append")),
        ("storage.wal_sync_us", us("storage.wal_sync")),
        (
            "storage.wal_bytes_per_mutation",
            only_if(c.wal_record_bytes > 0, per_op(c.wal_log_bytes)),
        ),
        ("storage.wal_amplification", ratio(c.wal_log_bytes, c.wal_record_bytes)),
        ("setup.datagen_s", stack.phases.datagen_s),
        ("setup.analyze_s", stack.phases.analyze_s),
        ("setup.profiles_s", stack.phases.profiles_s),
        ("setup.connect_s", stack.phases.connect_s),
        ("setup.warmup_s", stack.phases.warmup_s),
        ("client.p50_ms", ms(percentile(&tcp, 0.50))),
        ("client.p99_ms", ms(percentile(&tcp, 0.99))),
        ("client.max_ms", ms(tcp.last().copied().unwrap_or(0))),
        ("client.samples", tcp.len() as f64),
        ("trace.overhead_ratio", ratio(op_total, children_total)),
        (
            "trace.coverage_ratio",
            only_if(has("service.query_miss"), below_miss_us / miss_us.max(f64::MIN_POSITIVE)),
        ),
    ];
    assert_eq!(values.len(), PER_LAYER.len(), "one value per per-layer metric");
    PER_LAYER
        .iter()
        .map(|(name, unit, _, _)| {
            let value = values.iter().find(|(n, _)| n == name).expect("every metric has a value").1;
            (*name, value, *unit)
        })
        .collect()
}
