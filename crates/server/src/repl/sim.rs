//! Deterministic simulation of a replicated cluster: N [`ReplCore`]s over
//! in-memory logs, one seeded generator, and faults at every step.
//!
//! Each seed runs a random schedule of client mutations, crashes,
//! restarts, delayed-message deliveries and router promotions. The
//! executor drops, duplicates and delays messages (a delayed one arrives
//! later, out of order), loses an answer after its request took effect,
//! crashes a node at any effect boundary (its unsynced records are lost),
//! and fails appends, fsyncs and term writes. The router promotes with
//! its own [`promotion_candidate`], only when no live node leads and it
//! reaches `N - quorum + 1` nodes. A crashed node restarts from its
//! durable state as a follower.
//!
//! Checked after every step: each core's log equals its disk's; each
//! term is at least its log tip's; each store equals a replay of
//! snapshot + log; logs match (two entries with
//! one `(term, seq)` have equal prefixes); one leader per term; a
//! promoted node holds every acked mutation. Then the schedule heals and
//! runs to quiescence, where every acked mutation is in the log at its
//! seq and every replica holds the same bytes. A failure names its seed.

use std::collections::BTreeMap;
use std::time::Instant;

use pqp_obs::rng::{Rng, SmallRng};
use pqp_wire::repl::{ReplRequest, ReplResponse, Role};

use super::core::{Effect, Event, LogState, Record, ReplCore};
use super::ReplConfig;
use crate::router::promotion_candidate;

/// Compaction cadence: small, so snapshots ship within a schedule.
const SNAPSHOT_EVERY: u64 = 4;
/// Random actions per schedule, before it heals.
const STEPS: usize = 80;

/// The fault kinds a schedule can fire; `FAULT_NAMES` labels them.
#[derive(Clone, Copy)]
enum Fault {
    Drop,
    Duplicate,
    Delay,
    Reorder,
    LostAnswer,
    Crash,
    Restart,
    AppendFail,
    SyncFail,
    TermWriteFail,
    Promote,
}

const FAULT_NAMES: [&str; 11] = [
    "drop",
    "duplicate",
    "delay",
    "reorder",
    "lost answer",
    "crash",
    "restart",
    "append fail",
    "fsync fail",
    "term write fail",
    "promote",
];

/// What a node's disk holds: the snapshot as the full history it covers,
/// the log after it (the first `synced` records durable), the term file.
#[derive(Clone, Default)]
struct Disk {
    base_term: u64,
    history: Vec<Record>,
    log: Vec<Record>,
    synced: usize,
    term: u64,
}

impl Disk {
    /// Every record from seq 1: snapshot history, then the log.
    fn full(&self) -> Vec<Record> {
        self.history.iter().chain(&self.log).cloned().collect()
    }
}

/// The profile store stand-in: a payload `[key, value..4]` upserts `key`.
type Store = BTreeMap<u8, Vec<u8>>;

fn replay<'a>(records: impl IntoIterator<Item = &'a Record>) -> Store {
    let mut store = Store::new();
    for record in records {
        apply(&mut store, &record.payload);
    }
    store
}

fn apply(store: &mut Store, payload: &[u8]) {
    if let Some((key, value)) = payload.split_first() {
        store.insert(*key, value.to_vec());
    }
}

/// Snapshot bytes: the covered history, `term:u64 len:u8 payload` each.
fn encode(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&r.term.to_be_bytes());
        out.push(r.payload.len() as u8);
        out.extend_from_slice(&r.payload);
    }
    out
}

fn decode(mut bytes: &[u8]) -> Vec<Record> {
    let mut records = Vec::new();
    while bytes.len() >= 9 {
        let mut term = [0u8; 8];
        term.copy_from_slice(&bytes[..8]);
        let len = bytes[8] as usize;
        let end = (9 + len).min(bytes.len());
        records.push(Record { term: u64::from_be_bytes(term), payload: bytes[9..end].to_vec() });
        bytes = &bytes[end..];
    }
    records
}

struct Node {
    /// `None` while crashed.
    core: Option<ReplCore>,
    store: Store,
    disk: Disk,
}

/// How a driven operation ended.
enum Outcome {
    Reply(ReplResponse),
    Finish(Result<u64, String>),
    Crashed,
}

struct Sim {
    rng: SmallRng,
    n: usize,
    quorum: usize,
    nodes: Vec<Node>,
    /// Requests in flight past their sender's timeout.
    delayed: Vec<(usize, ReplRequest)>,
    faults: bool,
    fired: [bool; FAULT_NAMES.len()],
    /// Every acked mutation: its seq and record.
    acked: Vec<(u64, Record)>,
    leaders: BTreeMap<u64, usize>,
    router_term: u64,
    next_value: u32,
}

type Check = Result<(), String>;

impl Sim {
    fn new(seed: u64, n: usize, quorum: usize) -> Sim {
        let mut sim = Sim {
            rng: SmallRng::seed_from_u64(seed),
            n,
            quorum,
            nodes: Vec::new(),
            delayed: Vec::new(),
            faults: true,
            fired: [false; FAULT_NAMES.len()],
            acked: Vec::new(),
            leaders: BTreeMap::from([(0, 0)]),
            router_term: 0,
            next_value: 0,
        };
        for i in 0..n {
            let role = if i == 0 { Role::Leader } else { Role::Follower };
            let core = ReplCore::new(sim.config(i, role), 0, LogState::default());
            sim.nodes.push(Node { core: Some(core), store: Store::new(), disk: Disk::default() });
        }
        sim
    }

    fn config(&self, i: usize, role: Role) -> ReplConfig {
        ReplConfig {
            quorum: self.quorum,
            peers: self.peers(i).map(|j| format!("n{j}")).collect(),
            role,
            snapshot_every: SNAPSHOT_EVERY,
            ..ReplConfig::new(format!("n{i}"), "")
        }
    }

    /// Node `i`'s followers, in its slot order.
    fn peers(&self, i: usize) -> impl Iterator<Item = usize> {
        (0..self.n).filter(move |&j| j != i)
    }

    fn fault(&mut self, kind: Fault, p: f64) -> bool {
        let hit = self.faults && self.rng.gen_bool(p);
        if hit {
            self.fired[kind as usize] = true;
        }
        hit
    }

    fn core(&self, i: usize) -> Option<&ReplCore> {
        self.nodes[i].core.as_ref()
    }

    fn leader(&self) -> Option<usize> {
        (0..self.n).find(|&i| self.core(i).is_some_and(|c| c.role() == Role::Leader))
    }

    // ---- the executor -------------------------------------------------------

    /// Step node `i` from `event` and execute its effects until it answers
    /// or crashes. `own` is the client mutation's payload.
    fn drive(&mut self, i: usize, event: Event, own: &[u8]) -> Result<Outcome, String> {
        let mut event = event;
        loop {
            let Some(core) = self.nodes[i].core.as_mut() else { return Ok(Outcome::Crashed) };
            let effects = core.step(event);
            let count = effects.len();
            let mut next = None;
            for (k, effect) in effects.into_iter().enumerate() {
                let awaited = matches!(
                    effect,
                    Effect::Write(_) | Effect::Send { .. } | Effect::SendSnapshot { .. }
                );
                let terminal = matches!(effect, Effect::Reply(_) | Effect::Finish(_));
                if (awaited || terminal) != (k + 1 == count) {
                    return Err(format!(
                        "n{i}: effect {effect:?} at {k} of a {count}-effect batch"
                    ));
                }
                if self.fault(Fault::Crash, 0.004) {
                    self.crash(i);
                    return Ok(Outcome::Crashed);
                }
                if let Effect::Write(records) = effect {
                    next = Some(Event::Written(self.write(i, records)));
                    if self.nodes[i].core.is_none() {
                        return Ok(Outcome::Crashed);
                    }
                    continue;
                }
                let node = &mut self.nodes[i];
                next = match effect {
                    Effect::Write(_) => None,
                    Effect::ApplyOwn => {
                        apply(&mut node.store, own);
                        None
                    }
                    Effect::Send { peer, request } => Some(self.send(i, peer, request)?),
                    Effect::SendSnapshot { peer, term, last_seq, last_term } => {
                        let data = encode(&node.disk.full());
                        let request = ReplRequest::Snapshot { term, last_seq, last_term, data };
                        Some(self.send(i, peer, request)?)
                    }
                    Effect::Apply(payload) => {
                        apply(&mut node.store, &payload);
                        None
                    }
                    Effect::Rebuild(payloads) => {
                        node.store = replay(&node.disk.history);
                        for payload in &payloads {
                            apply(&mut node.store, payload);
                        }
                        None
                    }
                    Effect::PersistTerm(term) => {
                        if !self.fault(Fault::TermWriteFail, 0.25) {
                            self.nodes[i].disk.term = term;
                        }
                        None
                    }
                    Effect::Truncate { from } => {
                        let keep = (from - node.disk.history.len() as u64 - 1) as usize;
                        node.disk.log.truncate(keep);
                        node.disk.synced = node.disk.synced.min(keep);
                        None
                    }
                    Effect::Compact { term } => {
                        let disk = &mut node.disk;
                        disk.history.append(&mut disk.log);
                        disk.base_term = term;
                        disk.synced = 0;
                        None
                    }
                    Effect::Install { seq, term, data } => {
                        let history = decode(&data);
                        if history.len() as u64 != seq
                            || history.last().map_or(0, |r| r.term) != term
                        {
                            return Err(format!(
                                "n{i}: a snapshot at ({seq}, {term}) is not its data"
                            ));
                        }
                        node.store = replay(&history);
                        node.disk = Disk {
                            base_term: term,
                            history,
                            term: node.disk.term,
                            ..Disk::default()
                        };
                        None
                    }
                    Effect::Reply(reply) => return Ok(Outcome::Reply(reply)),
                    Effect::Finish(outcome) => return Ok(Outcome::Finish(outcome)),
                };
            }
            event = next.ok_or_else(|| format!("n{i}: a batch ended without an answer"))?;
        }
    }

    /// Append `records` to node `i`'s disk, then sync: an append fault
    /// writes nothing, a crash between the two loses what was appended, a
    /// sync fault leaves it unsynced.
    fn write(&mut self, i: usize, records: Vec<Record>) -> Result<(), String> {
        if self.fault(Fault::AppendFail, 0.03) {
            return Err("append failed: disk full".into());
        }
        self.nodes[i].disk.log.extend(records);
        if self.fault(Fault::Crash, 0.004) {
            self.crash(i);
            return Err("crashed".into());
        }
        if self.fault(Fault::SyncFail, 0.03) {
            return Err("fsync failed: sync lost".into());
        }
        let disk = &mut self.nodes[i].disk;
        disk.synced = disk.log.len();
        Ok(())
    }

    /// Node `from` sends `request` to its follower slot `peer`.
    fn send(&mut self, from: usize, peer: usize, request: ReplRequest) -> Result<Event, String> {
        let Some(to) = self.peers(from).nth(peer) else {
            return Err(format!("n{from}: no follower slot {peer}"));
        };
        if self.core(to).is_none() {
            return Ok(Event::Answer(Err("connection refused".into())));
        }
        if self.fault(Fault::Drop, 0.04) {
            return Ok(Event::Answer(Err("timed out".into())));
        }
        if self.fault(Fault::Delay, 0.04) {
            self.delayed.push((to, request));
            return Ok(Event::Answer(Err("timed out".into())));
        }
        if self.fault(Fault::Duplicate, 0.04) {
            self.deliver(to, request.clone())?;
        }
        let answer = match self.deliver(to, request)? {
            Outcome::Reply(reply) => Ok(reply),
            _ => Err("connection reset".to_string()),
        };
        if answer.is_ok() && self.fault(Fault::LostAnswer, 0.03) {
            return Ok(Event::Answer(Err("timed out".into())));
        }
        Ok(Event::Answer(answer))
    }

    fn deliver(&mut self, to: usize, request: ReplRequest) -> Result<Outcome, String> {
        let outcome = self.drive(to, Event::Peer { request, authed: true }, &[])?;
        self.check_node(to)?;
        Ok(outcome)
    }

    fn crash(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        node.core = None;
        node.store.clear();
        node.disk.log.truncate(node.disk.synced);
    }

    fn restart(&mut self, i: usize) {
        let disk = self.nodes[i].disk.clone();
        let log = LogState {
            base_seq: disk.history.len() as u64,
            base_term: disk.base_term,
            records: disk.log.clone(),
        };
        let core = ReplCore::new(self.config(i, Role::Follower), disk.term, log);
        self.nodes[i].store = replay(disk.history.iter().chain(&disk.log));
        self.nodes[i].core = Some(core);
    }

    // ---- actions ------------------------------------------------------------

    fn mutate(&mut self) -> Check {
        let Some(leader) = self.leader() else { return Ok(()) };
        self.next_value += 1;
        let key = self.rng.gen_range(0..4u8);
        let mut payload = vec![key];
        payload.extend_from_slice(&self.next_value.to_be_bytes());
        let outcome = self.drive(leader, Event::Mutate(payload.clone()), &payload)?;
        if let Outcome::Finish(Ok(seq)) = outcome {
            let full = self.nodes[leader].disk.full();
            let Some(record) = full.get(seq as usize - 1).filter(|r| r.payload == payload) else {
                return Err(format!("n{leader} acked seq {seq} but does not hold it"));
            };
            self.acked.push((seq, record.clone()));
        }
        self.check_node(leader)
    }

    /// The router's probe round: promote only when no live node leads and
    /// enough nodes answer that the pick meets every acked quorum.
    fn router_tick(&mut self) -> Check {
        let live: Vec<usize> = (0..self.n).filter(|&i| self.core(i).is_some()).collect();
        let statuses: Vec<_> =
            live.iter().filter_map(|&i| self.core(i)).map(|c| c.status()).collect();
        self.router_term = statuses.iter().map(|s| s.term).fold(self.router_term, u64::max);
        if self.leader().is_some() || live.len() < self.n - self.quorum + 1 {
            return Ok(());
        }
        let Some(pick) = promotion_candidate(&statuses).map(|k| live[k]) else { return Ok(()) };
        let term = self.router_term + 1;
        self.router_term = term;
        self.fired[Fault::Promote as usize] = true;
        let request = ReplRequest::Promote { term, token: String::new() };
        if let Outcome::Reply(ReplResponse::Ok { .. }) =
            self.drive(pick, Event::Peer { request, authed: true }, &[])?
        {
            let full = self.nodes[pick].disk.full();
            for (seq, record) in &self.acked {
                if full.get(*seq as usize - 1) != Some(record) {
                    return Err(format!("n{pick} promoted at term {term} without acked seq {seq}"));
                }
            }
        }
        self.check_node(pick)
    }

    fn step(&mut self) -> Check {
        match self.rng.gen_range(0..100u32) {
            0..=44 => self.mutate()?,
            45..=54 => {
                let live: Vec<usize> = (0..self.n).filter(|&i| self.core(i).is_some()).collect();
                if !live.is_empty() && self.fault(Fault::Crash, 1.0) {
                    let i = live[self.rng.gen_range(0..live.len())];
                    self.crash(i);
                }
            }
            55..=69 => {
                let down: Vec<usize> = (0..self.n).filter(|&i| self.core(i).is_none()).collect();
                if !down.is_empty() {
                    self.fired[Fault::Restart as usize] = true;
                    let i = down[self.rng.gen_range(0..down.len())];
                    self.restart(i);
                }
            }
            70..=79 => {
                if !self.delayed.is_empty() {
                    let k = self.rng.gen_range(0..self.delayed.len());
                    let (to, request) = self.delayed.remove(k);
                    if self.core(to).is_some() {
                        self.fired[Fault::Reorder as usize] = true;
                        self.deliver(to, request)?;
                    }
                }
            }
            _ => self.router_tick()?,
        }
        self.check_cluster()
    }

    /// Heal: restart every node, deliver what is in flight, fault-free,
    /// then mutate until every follower holds the leader's tip.
    fn quiesce(&mut self) -> Check {
        self.faults = false;
        for i in 0..self.n {
            if self.core(i).is_none() {
                self.restart(i);
            }
        }
        for (to, request) in std::mem::take(&mut self.delayed) {
            self.deliver(to, request)?;
        }
        self.router_tick()?;
        let Some(leader) = self.leader() else { return Err("no leader after healing".into()) };
        for _ in 0..64 {
            self.mutate()?;
            let tip = self.nodes[leader].disk.full().len();
            if (0..self.n).all(|i| self.nodes[i].disk.full().len() == tip) {
                break;
            }
        }
        self.check_cluster()?;
        let full = self.nodes[leader].disk.full();
        for (seq, record) in &self.acked {
            if full.get(*seq as usize - 1) != Some(record) {
                return Err(format!("acked seq {seq} lost at quiescence"));
            }
        }
        for i in 0..self.n {
            let node = &self.nodes[i];
            if node.disk.full() != full || node.store != self.nodes[leader].store {
                return Err(format!("n{i} differs from leader n{leader} at quiescence"));
            }
        }
        Ok(())
    }

    // ---- properties ---------------------------------------------------------

    /// A live, idle node's core mirrors its disk, and its store is the
    /// replay of its snapshot and log.
    fn check_node(&self, i: usize) -> Check {
        let node = &self.nodes[i];
        let Some(core) = &node.core else { return Ok(()) };
        if core.base_seq() != node.disk.history.len() as u64 || core.records() != node.disk.log {
            return Err(format!("n{i}: the core's log differs from its disk"));
        }
        if core.term() < core.last_term() {
            return Err(format!(
                "n{i}: term {} below its log tip's {}",
                core.term(),
                core.last_term()
            ));
        }
        if node.store != replay(&node.disk.full()) {
            return Err(format!("n{i}: applied state differs from replay(snapshot + log)"));
        }
        Ok(())
    }

    /// Log matching across every pair of nodes, and one leader per term.
    fn check_cluster(&mut self) -> Check {
        let logs: Vec<Vec<Record>> = self.nodes.iter().map(|n| n.disk.full()).collect();
        for a in 0..self.n {
            for b in a + 1..self.n {
                let (la, lb) = (&logs[a], &logs[b]);
                let common = la.len().min(lb.len());
                if let Some(s) = (0..common).rev().find(|&s| la[s].term == lb[s].term) {
                    if la[..=s] != lb[..=s] {
                        return Err(format!(
                            "logs of n{a} and n{b} match at seq {} but differ before",
                            s + 1
                        ));
                    }
                }
            }
        }
        for i in 0..self.n {
            if let Some(core) = self.core(i).filter(|c| c.role() == Role::Leader) {
                let term = core.term();
                if *self.leaders.entry(term).or_insert(i) != i {
                    return Err(format!("two leaders at term {term}"));
                }
            }
        }
        Ok(())
    }
}

/// Run one schedule; the fault kinds it fired, or the broken property.
fn simulate(seed: u64, n: usize, quorum: usize) -> Result<[bool; FAULT_NAMES.len()], String> {
    let mut sim = Sim::new(seed, n, quorum);
    for _ in 0..STEPS {
        sim.step()?;
    }
    sim.quiesce()?;
    Ok(sim.fired)
}

/// Every seed in `seeds` at N = 3 / quorum 2 and N = 2 / quorum 2 (the
/// benchmark's shape). Prints the wall time and how many seeds fired each
/// fault kind; panics naming the first failing seed.
fn run(seeds: std::ops::Range<u64>) {
    let started = Instant::now();
    let mut fired = [0u64; FAULT_NAMES.len()];
    let mut failures = Vec::new();
    for seed in seeds.clone() {
        for (n, quorum) in [(3, 2), (2, 2)] {
            match simulate(seed, n, quorum) {
                Ok(kinds) => {
                    for (count, hit) in fired.iter_mut().zip(kinds) {
                        *count += u64::from(hit);
                    }
                }
                Err(e) => failures.push(format!("seed {seed} (n={n}, quorum={quorum}): {e}")),
            }
        }
    }
    let runs = 2 * (seeds.end - seeds.start);
    println!("{runs} schedules in {:.2?}; schedules that fired each fault:", started.elapsed());
    for (name, count) in FAULT_NAMES.iter().zip(fired) {
        println!("  {name:>16}: {count}");
    }
    for failure in &failures {
        println!("FAILED {failure}");
    }
    assert!(failures.is_empty(), "{} failing schedules, first {}", failures.len(), failures[0]);
    assert!(fired.iter().all(|&c| c > 0), "a fault kind never fired: {fired:?}");
}

#[test]
fn a_thousand_seeds_keep_every_property() {
    run(0..1_000);
}

#[test]
#[ignore = "10 000 seeds: run in release with --ignored (scripts/verify.sh does)"]
fn ten_thousand_seeds_keep_every_property() {
    run(0..10_000);
}
