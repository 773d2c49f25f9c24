//! Set-up: everything between process start and the first timed op.
//!
//! One process hosts the whole stack — serving node(s), the optional router
//! and the load generator — so a run needs no orchestration and its CPU and
//! memory are one process's.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pqp_core::AtomicPreference;
use pqp_datagen::{
    generate, generate_profiles, generate_queries, MovieDbConfig, ProfileGenConfig, QueryGenConfig,
};
use pqp_obs::Budget;
use pqp_server::{
    ReplConfig, ReplNode, Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle,
};
use pqp_service::{Answer, QueryApi, Service, ServiceConfig};
use pqp_storage::Value;
use pqp_wire::repl::Role;
use pqp_wire::{Client, ClientConfig};

use crate::spec::{generate_ops, Op, Spec, Workload, CLIENTS, RANK_EXEC_K};

/// Seed of the generated profiles: part of the fixed population.
const PROFILE_SEED: u64 = 11;

/// A mutable preference of the write workload: `TABLE.column = value`.
pub type Pref = (String, String, Value);

/// The fixed population a workload runs against.
pub struct Population {
    pub user_names: Vec<String>,
    /// Query texts, most popular first.
    pub sqls: Vec<String>,
    /// Per user, the pre-seeded selection preferences the write workload
    /// overwrites (the first `items` of the generated profile).
    pub prefs: Vec<Vec<Pref>>,
}

/// Seconds spent in each phase of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    pub datagen_s: f64,
    pub analyze_s: f64,
    pub profiles_s: f64,
    pub connect_s: f64,
    pub warmup_s: f64,
    /// Process start to first timed op.
    pub total_s: f64,
}

/// Generate the database, `ANALYZE` it, generate the population and wrap it
/// all in a `Service` with the profiles installed. Deterministic: two calls
/// build identical services (the correctness reference is a second call).
pub fn build_service(spec: &Spec, phases: &mut SetupPhases) -> (Service, Population) {
    let t = Instant::now();
    let mut movies = generate(MovieDbConfig::default());
    phases.datagen_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    movies.db.execute("ANALYZE").expect("ANALYZE on the generated database");
    phases.analyze_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let profiles = generate_profiles(
        "user",
        spec.users,
        &movies.pools,
        &ProfileGenConfig {
            selections: spec.profile_selections,
            join_coverage: if spec.profile_joins { 1.0 } else { 0.0 },
            seed: PROFILE_SEED,
        },
    );
    let query_config =
        if spec.broad_queries { QueryGenConfig::broad() } else { QueryGenConfig::default() };
    // The generator repeats itself now and then, and two equal texts would
    // share one plan-cache key: keep the first `items` distinct ones.
    let mut sqls: Vec<String> = Vec::new();
    for query in generate_queries(spec.items * 8, &movies.pools, &query_config) {
        let text = query.to_string();
        if sqls.len() < spec.items && !sqls.contains(&text) {
            sqls.push(text);
        }
    }
    assert_eq!(sqls.len(), spec.items, "the query generator ran out of distinct texts");
    let prefs = profiles
        .iter()
        .map(|p| {
            p.selections()
                .filter_map(|pref| match pref {
                    AtomicPreference::Selection { attr, value, .. } => {
                        Some((attr.table.clone(), attr.column.clone(), value.clone()))
                    }
                    AtomicPreference::Join { .. } => None,
                })
                .take(spec.items)
                .collect()
        })
        .collect();
    // Explicit values where the default would read the environment: the run
    // must not depend on `PQP_*` knobs (main() scrubs them as well).
    let service = Service::with_config(
        movies.db,
        ServiceConfig {
            plan_capacity: spec.plan_capacity,
            budget: Budget::unlimited(),
            max_in_flight: 0,
            ..ServiceConfig::default()
        },
    );
    for profile in &profiles {
        service.install_profile(profile.clone()).expect("generated profiles validate");
    }
    phases.profiles_s += t.elapsed().as_secs_f64();

    let user_names = profiles.iter().map(|p| p.user.clone()).collect();
    (service, Population { user_names, sqls, prefs })
}

fn spawn_server(service: Arc<Service>, repl: Option<Arc<ReplNode>>) -> ServerHandle {
    // No idle timeout: the 60 s default would close the sessions of the
    // zipf tail's rarely drawn users in the middle of a run.
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_string(), read_timeout: None, ..Default::default() };
    Server::bind_replicated(service, config, repl)
        .expect("bind loopback")
        .spawn()
        .expect("spawn accept loop")
}

/// The replicated write path: leader (quorum 2) → one follower, fronted by
/// the router.
pub struct Cluster {
    pub leader: Arc<ReplNode>,
    pub leader_addr: String,
    pub follower_service: Arc<Service>,
    pub follower: ServerHandle,
    pub router: RouterHandle,
}

/// What the client threads share read-only.
pub struct Env {
    pub spec: Spec,
    pub population: Population,
}

/// One closed-loop client: its sessions, its op sequence, and what it has
/// learned about the answers so far.
pub struct ClientState {
    pub index: usize,
    /// One wire session per owned user.
    pub sessions: Vec<Client>,
    pub ops: Vec<Op>,
    /// Next op of `ops` (wraps around).
    cursor: usize,
    /// Row count of each key's first answer (`u32::MAX` = not seen yet);
    /// every later answer for the key must have the same count.
    rows_seen: Vec<u32>,
    /// Write workload: the doi each (user, pref) was last set to (NaN =
    /// never written), i.e. what the stores must hold at the end.
    pub model: Vec<f64>,
    /// Write workload: mutations the server acknowledged to this client.
    pub acked: u64,
}

impl ClientState {
    /// Global user index of this client's `user`-th user.
    pub fn global_user(&self, user: u32) -> usize {
        user as usize * CLIENTS + self.index
    }

    pub fn take_op(&mut self) -> Op {
        let op = self.ops[self.cursor % self.ops.len()];
        self.cursor += 1;
        op
    }

    /// Send one read over the wire with the workload's overrides.
    pub fn query(&mut self, env: &Env, op: Op) -> pqp_service::Result<Answer> {
        let sql = &env.population.sqls[op.item as usize];
        self.sessions[op.user as usize].query_with(sql, env.spec.options, env.spec.rewrite)
    }

    /// Run one op end to end and check its answer; `Err` is a failed op.
    pub fn run_op(&mut self, env: &Env, op: Op) -> Result<(), String> {
        let key = op.key(&env.spec);
        if env.spec.workload.is_read() {
            let answer = self.query(env, op).map_err(|e| format!("query failed: {e}"))?;
            // rank_exec must execute what it says it measures: the ranked
            // MQ rewrite with all twelve preferences selected.
            if env.spec.workload == Workload::RankExec
                && (Some(answer.meta.rewrite) != env.spec.rewrite || answer.meta.k != RANK_EXEC_K)
            {
                return Err(format!(
                    "guard: rank_exec ran {} with k={}, wanted MQ with k={RANK_EXEC_K}",
                    answer.meta.rewrite, answer.meta.k
                ));
            }
            let rows = answer.rows.len() as u32;
            let seen = &mut self.rows_seen[key];
            if *seen == u32::MAX {
                *seen = rows;
            } else if *seen != rows {
                return Err(format!("key {key} answered {rows} rows, earlier {seen}"));
            }
        } else {
            let (table, column, value) =
                &env.population.prefs[self.global_user(op.user)][op.item as usize];
            self.sessions[op.user as usize]
                .add_selection(table, column, value.clone(), op.doi)
                .map_err(|e| format!("mutation failed: {e}"))?;
            self.model[key] = op.doi;
            self.acked += 1;
        }
        Ok(())
    }
}

/// Which ops a [`Stack::drive`] phase runs on each client.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Every (user, item) key of the client once, in key order.
    EveryKey,
    /// The next `n` ops of the client's sequence.
    Ops(usize),
    /// The client's sequence until the deadline passes.
    For(Duration),
}

/// What one phase observed, all clients merged.
#[derive(Debug, Default)]
pub struct Driven {
    /// Client-observed latency of every op that succeeded, ns.
    pub latencies_ns: Vec<u64>,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    /// First request sent to last reply received, the slower client's.
    pub wall: Duration,
    /// CPU seconds (user + system) the whole process used meanwhile.
    pub cpu_s: f64,
}

/// A fully set-up stack, warmed and ready for the first timed op.
pub struct Stack {
    pub env: Env,
    pub service: Arc<Service>,
    pub server: ServerHandle,
    pub cluster: Option<Cluster>,
    pub clients: Vec<ClientState>,
    pub phases: SetupPhases,
    /// Mean `Client::connect` (handshake + session thread), microseconds.
    pub connect_us: f64,
    /// Resident memory before the warm-up filled the plan cache, kB.
    pub rss_before_warmup_kb: f64,
    pub rss_after_warmup_kb: f64,
    work_dir: PathBuf,
}

impl Stack {
    /// Build and warm the stack for `spec`; `started` is when the process
    /// began. `work_dir` receives the WAL directories of the write workload
    /// and is removed by [`Stack::teardown`].
    pub fn build(spec: Spec, seed: u64, started: Instant, work_dir: &Path) -> Stack {
        let mut phases = SetupPhases::default();
        let (service, population) = build_service(&spec, &mut phases);
        let service = Arc::new(service);

        let (server, cluster) = if spec.workload == Workload::ProfileWrite {
            let (server, cluster) = start_cluster(&spec, &service, &mut phases, work_dir);
            (server, Some(cluster))
        } else {
            (spawn_server(Arc::clone(&service), None), None)
        };
        let front_door = cluster.as_ref().map_or(server.addr(), |c| c.router.addr());

        let t = Instant::now();
        let clients: Vec<ClientState> = (0..CLIENTS)
            .map(|index| {
                let sessions = (0..spec.users_per_client())
                    .map(|user| {
                        let name = &population.user_names[user * CLIENTS + index];
                        Client::connect(front_door, ClientConfig::new(name.as_str()))
                            .expect("connect to the in-process server")
                    })
                    .collect();
                ClientState {
                    index,
                    sessions,
                    ops: generate_ops(&spec, seed, index),
                    cursor: 0,
                    rows_seen: vec![u32::MAX; spec.keys_per_client()],
                    model: vec![f64::NAN; spec.keys_per_client()],
                    acked: 0,
                }
            })
            .collect();
        phases.connect_s = t.elapsed().as_secs_f64();
        let connect_us = phases.connect_s * 1e6 / spec.users as f64;

        let mut stack = Stack {
            env: Env { spec, population },
            service,
            server,
            cluster,
            clients,
            phases,
            connect_us,
            rss_before_warmup_kb: crate::report::proc_status_kb("VmRSS"),
            rss_after_warmup_kb: 0.0,
            work_dir: work_dir.to_path_buf(),
        };

        let t = Instant::now();
        let mut failures = Vec::new();
        if stack.env.spec.warm_every_key {
            failures = stack.drive(Phase::EveryKey).failures;
        }
        failures.extend(stack.drive(Phase::Ops(stack.env.spec.warmup_ops)).failures);
        assert!(failures.is_empty(), "warm-up ops failed: {failures:?}");
        stack.phases.warmup_s = t.elapsed().as_secs_f64();
        stack.rss_after_warmup_kb = crate::report::proc_status_kb("VmRSS");
        stack.phases.total_s = started.elapsed().as_secs_f64();
        stack
    }

    /// Run one phase on every client concurrently (closed loop: each client
    /// sends its next request when the previous one has answered).
    pub fn drive(&mut self, phase: Phase) -> Driven {
        let env = &self.env;
        let barrier = Barrier::new(self.clients.len() + 1);
        let mut merged = Driven::default();
        let per_client: Vec<Driven> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut out = Driven::default();
                        barrier.wait();
                        let start = Instant::now();
                        let mut run = |client: &mut ClientState, op: Op| {
                            let sent = Instant::now();
                            match client.run_op(env, op) {
                                Ok(()) => out.latencies_ns.push(sent.elapsed().as_nanos() as u64),
                                Err(reason) => {
                                    out.failed += 1;
                                    if out.failures.len() < 4 {
                                        out.failures.push(reason);
                                    }
                                }
                            }
                        };
                        match phase {
                            Phase::EveryKey => {
                                for key in 0..env.spec.keys_per_client() {
                                    let (user, item) = (key / env.spec.items, key % env.spec.items);
                                    run(
                                        client,
                                        Op { user: user as u32, item: item as u32, doi: 0.0 },
                                    );
                                }
                            }
                            Phase::Ops(n) => {
                                for _ in 0..n {
                                    let op = client.take_op();
                                    run(client, op);
                                }
                            }
                            Phase::For(duration) => {
                                let deadline = start + duration;
                                while Instant::now() < deadline {
                                    let op = client.take_op();
                                    run(client, op);
                                }
                            }
                        }
                        out.wall = start.elapsed();
                        out
                    })
                })
                .collect();

            let cpu_before = crate::report::cpu_seconds();
            barrier.wait();
            let per_client =
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            merged.cpu_s = crate::report::cpu_seconds() - cpu_before;
            per_client
        });

        for driven in per_client {
            merged.wall = merged.wall.max(driven.wall);
            merged.latencies_ns.extend(driven.latencies_ns);
            merged.failed += driven.failed;
            merged.failures.extend(driven.failures);
        }
        merged
    }

    /// Close every session, stop every server thread and remove the WAL
    /// directories.
    pub fn teardown(self) {
        for client in self.clients {
            for session in client.sessions {
                session.close();
            }
        }
        if let Some(cluster) = self.cluster {
            cluster.router.shutdown();
            cluster.follower.shutdown();
        }
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.work_dir);
    }
}

/// Start follower, leader and router for the write workload. Both nodes
/// start from the same installed profiles; every later change goes through
/// the replicated log.
fn start_cluster(
    spec: &Spec,
    leader_service: &Arc<Service>,
    phases: &mut SetupPhases,
    work_dir: &Path,
) -> (ServerHandle, Cluster) {
    let _ = std::fs::remove_dir_all(work_dir);
    let (follower_service, _) = build_service(spec, phases);
    let follower_service = Arc::new(follower_service);
    let mut follower_config = ReplConfig::new("follower", work_dir.join("follower"));
    follower_config.role = Role::Follower;
    let follower_node = ReplNode::open(Arc::clone(&follower_service), follower_config)
        .expect("open the follower WAL");
    let follower = spawn_server(Arc::clone(&follower_service), Some(follower_node));

    let mut leader_config = ReplConfig::new("leader", work_dir.join("leader"));
    leader_config.peers = vec![follower.addr().to_string()];
    leader_config.quorum = 2;
    let leader =
        ReplNode::open(Arc::clone(leader_service), leader_config).expect("open the leader WAL");
    let server = spawn_server(Arc::clone(leader_service), Some(Arc::clone(&leader)));
    let leader_addr = server.addr().to_string();

    // The server binary's probe settings (`RouterConfig::from_env` defaults).
    let router = Router::bind(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        nodes: vec![leader_addr.clone(), follower.addr().to_string()],
        probe_interval: Duration::from_millis(200),
        fail_threshold: 3,
        probe_timeout: Duration::from_millis(1_000),
        token: String::new(),
    })
    .expect("bind the router")
    .spawn()
    .expect("spawn the router");
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.leader().as_deref() != Some(leader_addr.as_str()) {
        assert!(Instant::now() < deadline, "the router never found the leader");
        std::thread::sleep(Duration::from_millis(5));
    }
    (server, Cluster { leader, leader_addr, follower_service, follower, router })
}
