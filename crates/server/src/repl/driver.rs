//! [`ReplNode`], the driver of the replication core: it owns the WAL, the
//! term file, the peer links and the service, and executes the core's
//! effects in order under one mutex.

use std::collections::HashSet;
use std::io::{self, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pqp_core::Profile;
use pqp_service::{Error, FollowerLag, ReplStatus, Result, Service, UserId};
use pqp_storage::{StorageError, Wal, WalRecovery};
use pqp_wire::codec::{Reader, Writer};
use pqp_wire::proto::ProfileOp;
use pqp_wire::repl::{MutationRecord, NodeStatus, ReplRequest, ReplResponse, Role};

use super::core::{Effect, Event, LogState, Record, ReplCore};
use super::ReplConfig;
use crate::conn::{apply_op, connect, exchange};

/// Name of the file in the WAL directory holding the persisted term.
const TERM_FILE: &str = "term";

/// Per-connection replication link state, owned by the connection
/// handler. A link must present the shared secret in `Hello` before its
/// state-changing frames are honored.
#[derive(Default)]
pub struct PeerLink {
    authed: bool,
}

impl PeerLink {
    /// A fresh, unauthenticated link.
    pub fn new() -> PeerLink {
        PeerLink::default()
    }
}

/// The client mutation a step drives, if any.
type Own<'a> = Option<(&'a UserId, &'a ProfileOp)>;

/// The state the mutex guards.
struct Inner {
    core: ReplCore,
    wal: Wal,
    /// One lazily opened link per follower, in the core's slot order.
    links: Vec<Option<TcpStream>>,
}

/// The replication engine of one node, shared by the client dispatch
/// path (mutations) and the peer frame handler.
pub struct ReplNode {
    config: ReplConfig,
    service: Arc<Service>,
    inner: Mutex<Inner>,
    /// The probe state, copied out after every step: `Status` probes never
    /// wait on the `Inner` mutex, so a leader stalled in peer I/O still
    /// probes as alive (no spurious promotion).
    status: Mutex<NodeStatus>,
    fsync_ms: pqp_obs::WindowedHistogram,
    ship_ms: pqp_obs::WindowedHistogram,
}

impl ReplNode {
    /// Open (or create) the WAL directory, recover state — snapshot
    /// first, then the surviving log suffix, truncating any torn tail —
    /// and replay it into the service so the in-memory profile store is
    /// byte-identical to what was durable at the crash.
    pub fn open(service: Arc<Service>, config: ReplConfig) -> Result<Arc<ReplNode>> {
        if config.snapshot_every == 0 {
            return Err(Error::Internal("ReplConfig::snapshot_every must be at least 1".into()));
        }
        let (wal, recovery) = Wal::open(&config.wal_dir)?;
        if recovery.truncated_bytes > 0 {
            pqp_obs::counter_add("repl.torn_tail_bytes", recovery.truncated_bytes as i64);
        }
        let (snapshot, log) = log_state(&recovery)?;
        snapshot.map(|data| apply_profile_snapshot(&service, data)).transpose()?;
        replay(&service, log.records.iter().map(|r| &r.payload[..]), "repl.replay_errors");
        let core = ReplCore::new(config.clone(), load_term(&config), log);
        let links = config.peers.iter().map(|_| None).collect();
        let node = Arc::new(ReplNode {
            status: Mutex::new(core.status()),
            inner: Mutex::new(Inner { core, wal, links }),
            service,
            config,
            fsync_ms: pqp_obs::WindowedHistogram::default(),
            ship_ms: pqp_obs::WindowedHistogram::default(),
        });
        node.publish(&node.lock());
        Ok(node)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// This node's identity.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// Current role (never waits on replication work).
    pub fn role(&self) -> Role {
        self.status().role
    }

    /// Current term (never waits on replication work).
    pub fn term(&self) -> u64 {
        self.status().term
    }

    /// The node's status as answered to a `Status` probe, as of the last
    /// completed replication step.
    pub fn status(&self) -> NodeStatus {
        self.status.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Apply one client mutation through the replicated log. Leader
    /// only; followers answer [`Error::Unavailable`] naming the reason.
    ///
    /// Order of operations: validate (without applying), append + fsync
    /// the WAL, apply to the in-memory service, ship to followers,
    /// count the quorum. The in-memory store is only touched once the
    /// record is durable — a failed append or fsync never leaves a
    /// mutation visible to reads that would vanish on restart.
    pub fn client_mutate(&self, user: &UserId, op: ProfileOp) -> Result<(u64, bool)> {
        if let Some(msg) = self.service.failpoints().fire("node.crash") {
            return Err(Error::Internal(format!("node.crash failpoint: {msg}")));
        }
        let mut inner = self.lock();
        // A leader validates first (the op alone, no store mutation): an op
        // the schema rejects never reaches the log, so the log replays
        // cleanly forever. A follower's core refuses the mutation.
        if inner.core.role() == Role::Leader {
            validate_op(&self.service, user, &op)?;
        }
        // A stored profile has a nonzero epoch.
        let removed = !matches!(op, ProfileOp::Remove) || self.service.epoch(user.clone()) != 0;
        let record = MutationRecord { user: user.as_str().to_string(), op: op.clone() }.encode();
        let outcome = self.run(&mut inner, Event::Mutate(record), Some((user, &op)));
        self.publish(&inner);
        match outcome? {
            Effect::Finish(Ok(_)) => Ok((self.service.epoch(user.clone()), removed)),
            Effect::Finish(Err(reason)) => Err(Error::Unavailable(reason)),
            other => Err(Error::Internal(format!("mutation ended in {other:?}"))),
        }
    }

    /// Handle one peer request (the other side of the leader's ship
    /// path, plus probes and failover control). `link` is the
    /// per-connection auth state: a link must present the cluster token
    /// in `Hello` before `Append`/`Snapshot` are honored on it.
    pub fn handle_peer(&self, request: ReplRequest, link: &mut PeerLink) -> ReplResponse {
        if matches!(request, ReplRequest::Status) {
            return ReplResponse::Status(self.status());
        }
        let hello = matches!(request, ReplRequest::Hello { .. });
        let mut inner = self.lock();
        let reply = match self.run(&mut inner, Event::Peer { request, authed: link.authed }, None) {
            Ok(Effect::Reply(reply)) => reply,
            Ok(other) => inner.core.reject(format!("peer request ended in {other:?}")),
            Err(Error::Internal(reason)) => inner.core.reject(reason),
            Err(e) => inner.core.reject(e.to_string()),
        };
        // A handshake is answered `Ok` only once the token and term passed.
        link.authed |= hello && matches!(reply, ReplResponse::Ok { .. });
        self.publish(&inner);
        reply
    }

    /// Step the core from `event` and execute its effects until it answers
    /// with a `Reply` or `Finish`. `Err` is the error that ended the
    /// operation: a failed write's (which the core answered), or a
    /// driver-side effect's (the core is then aborted).
    fn run(&self, inner: &mut Inner, event: Event, own: Own<'_>) -> Result<Effect> {
        let mut failed = None;
        let mut next = Some(event);
        while let Some(event) = next.take() {
            for effect in inner.core.step(event) {
                match effect {
                    Effect::Finish(Err(reason)) => {
                        return failed.map_or(Ok(Effect::Finish(Err(reason))), Err);
                    }
                    terminal @ (Effect::Reply(_) | Effect::Finish(_)) => return Ok(terminal),
                    effect => match self.execute(inner, effect, own, &mut failed) {
                        Ok(answer) => next = next.or(answer),
                        Err(e) => {
                            inner.core.abort();
                            return Err(failed.unwrap_or(e));
                        }
                    },
                }
            }
        }
        inner.core.abort();
        Err(Error::Internal("replication step ended without an answer".into()))
    }

    /// Execute one non-terminal effect; an awaited one returns the event
    /// that answers it. A failed write keeps its error in `failed`.
    fn execute(
        &self,
        inner: &mut Inner,
        effect: Effect,
        own: Own<'_>,
        failed: &mut Option<Error>,
    ) -> Result<Option<Event>> {
        match effect {
            Effect::Write(records) => {
                let written = self.write(&mut inner.wal, &records).map_err(|(what, e)| {
                    let text = format!("{what} failed: {e}");
                    failed.get_or_insert(Error::from(e));
                    text
                });
                return Ok(Some(Event::Written(written)));
            }
            Effect::Send { peer, request } => return Ok(Some(self.send(inner, peer, &request))),
            Effect::SendSnapshot { peer, term, last_seq, last_term } => {
                let data = encode_profile_snapshot(&self.service);
                let request = ReplRequest::Snapshot { term, last_seq, last_term, data };
                return Ok(Some(self.send(inner, peer, &request)));
            }
            Effect::ApplyOwn => {
                let (user, op) = own.ok_or_else(|| Error::Internal("no mutation".into()))?;
                // Validation passed, so a failure is exceptional; the
                // record is durable and will still ship and replay.
                apply_op(&self.service, user, op)
                    .inspect_err(|_| pqp_obs::counter_add("repl.apply_errors", 1))?;
            }
            // The leader validated before logging, so failures here are
            // exceptional; counted, never dropped.
            Effect::Apply(payload) => replay(&self.service, [&payload[..]], "repl.apply_errors"),
            Effect::Rebuild(payloads) => {
                self.rebuild_store(&inner.wal, payloads.iter().map(|p| &p[..]))
            }
            Effect::PersistTerm(term) => persist_term(&self.config, term),
            Effect::Truncate { from } => {
                if let Err(e) = inner.wal.truncate_from(from) {
                    pqp_obs::counter_add("repl.orphaned_records", 1);
                    self.reload(inner);
                    return Err(e.into());
                }
            }
            Effect::Compact { term } => {
                // Best-effort: a failed compaction only costs disk space,
                // once the log is re-read.
                let data = wrap_record(term, &encode_profile_snapshot(&self.service));
                if inner.wal.install_snapshot(&data).is_ok() {
                    pqp_obs::counter_add("repl.snapshots", 1);
                } else {
                    pqp_obs::counter_add("repl.snapshot_failed", 1);
                    self.reload(inner);
                }
            }
            Effect::Install { seq, term, data } => {
                if let Err(e) = inner.wal.reset_to(seq, &wrap_record(term, &data)) {
                    self.reload(inner);
                    return Err(Error::Internal(format!("snapshot install failed: {e}")));
                }
                apply_profile_snapshot(&self.service, &data)
                    .map_err(|e| Error::Internal(format!("snapshot apply failed: {e}")))?;
            }
            Effect::Reply(_) | Effect::Finish(_) => {}
        }
        Ok(None)
    }

    /// Append `records` (behind the `wal.append` failpoint), then one
    /// fsync (behind `wal.fsync`); the failing stage names the error.
    fn write(
        &self,
        wal: &mut Wal,
        records: &[Record],
    ) -> std::result::Result<(), (&'static str, StorageError)> {
        let failpoint = |name: &str| match self.service.failpoints().fire(name) {
            Some(msg) => Err(StorageError::Io(format!("{name} failpoint: {msg}"))),
            None => Ok(()),
        };
        for record in records {
            failpoint("wal.append")
                .and_then(|()| wal.append(&wrap_record(record.term, &record.payload)))
                .map_err(|e| ("append", e))?;
        }
        let t = Instant::now();
        failpoint("wal.fsync").and_then(|()| wal.sync()).map_err(|e| ("fsync", e))?;
        self.fsync_ms.record(t.elapsed().as_secs_f64() * 1_000.0);
        Ok(())
    }

    /// One framed request/response on follower `peer`'s link, with the
    /// `repl.ship` / `repl.ack` failpoints around it. A `Hello` opens a
    /// fresh link; any failure closes it.
    fn send(&self, inner: &mut Inner, peer: usize, request: &ReplRequest) -> Event {
        let t = Instant::now();
        let link = &mut inner.links[peer];
        let answer = (|| {
            if matches!(request, ReplRequest::Hello { .. }) {
                *link = Some(connect(&self.config.peers[peer], self.config.ship_timeout)?);
            }
            let fired = |name| self.service.failpoints().fire(name);
            if let Some(msg) = fired("repl.ship") {
                return Err(io::Error::other(format!("repl.ship failpoint: {msg}")));
            }
            let stream = link.as_mut().ok_or_else(|| io::Error::other("no follower link"))?;
            let answer = exchange(stream, request)?;
            match fired("repl.ack") {
                Some(msg) => Err(io::Error::other(format!("repl.ack failpoint: {msg}"))),
                None => Ok(answer),
            }
        })()
        .map_err(|e| e.to_string());
        match answer {
            Ok(_) => self.ship_ms.record(t.elapsed().as_secs_f64() * 1_000.0),
            Err(_) => *link = None,
        }
        Event::Answer(answer)
    }

    /// Rebuild the store from durable state (the snapshot, then the live
    /// records) after a truncation changed history under it.
    fn rebuild_store<'a>(&self, wal: &Wal, payloads: impl IntoIterator<Item = &'a [u8]>) {
        pqp_obs::counter_add("repl.store_rebuilds", 1);
        match wal.read_snapshot().ok().flatten() {
            Some(snapshot) => {
                let applied = split_record(&snapshot.data)
                    .and_then(|(_, data)| apply_profile_snapshot(&self.service, data));
                if applied.is_err() {
                    pqp_obs::counter_add("repl.apply_errors", 1);
                }
            }
            None => {
                for user in self.service.users() {
                    self.service.remove_profile(user);
                }
            }
        }
        replay(&self.service, payloads, "repl.apply_errors");
    }

    /// Re-read the log from disk after a WAL write failed part-way, so
    /// the core and the store match what the disk holds again.
    fn reload(&self, inner: &mut Inner) {
        pqp_obs::counter_add("repl.reloads", 1);
        let Ok((wal, recovery)) = Wal::open(&self.config.wal_dir) else { return };
        let Ok((_, log)) = log_state(&recovery) else { return };
        inner.wal = wal;
        self.rebuild_store(&inner.wal, log.records.iter().map(|r| &r.payload[..]));
        inner.core.reset_log(log);
    }

    /// Publish this node's replication state to the status probes and
    /// the service telemetry (`SHOW METRICS` `repl.*` rows,
    /// `Telemetry::repl_status`).
    fn publish(&self, inner: &Inner) {
        let status = inner.core.status();
        let (fsync, ship) = (self.fsync_ms.snapshot(), self.ship_ms.snapshot());
        let followers = self.config.peers.iter().zip(inner.core.followers());
        let followers = followers.map(|(addr, f)| FollowerLag {
            addr: addr.clone(),
            ack_seq: f.ack_seq,
            lag: status.last_seq.saturating_sub(f.ack_seq),
        });
        self.service.telemetry().set_repl_status(ReplStatus {
            node_id: self.config.node_id.clone(),
            role: status.role.label().to_string(),
            term: status.term,
            last_seq: status.last_seq,
            durable_seq: status.durable_seq,
            quorum: self.config.quorum,
            followers: followers.collect(),
            fsync_p50_ms: fsync.window.p50(),
            fsync_p99_ms: fsync.window.p99(),
            ship_p50_ms: ship.window.p50(),
            ship_p99_ms: ship.window.p99(),
        });
        *self.status.lock().unwrap_or_else(|e| e.into_inner()) = status;
    }
}

/// Prefix `payload` with the 8-byte big-endian term it was written
/// under. The WAL stays payload-agnostic; this framing is the
/// replication layer's, giving every stored record (and the snapshot)
/// the `(term, seq)` identity the conflict check needs.
fn wrap_record(term: u64, payload: &[u8]) -> Vec<u8> {
    [&term.to_be_bytes()[..], payload].concat()
}

/// Split a stored record into its term prefix and inner payload.
fn split_record(stored: &[u8]) -> Result<(u64, &[u8])> {
    let short = || Error::Protocol("stored record shorter than its term prefix".to_string());
    let (term, payload) = stored.split_first_chunk::<8>().ok_or_else(short)?;
    Ok((u64::from_be_bytes(*term), payload))
}

/// What a recovery found: the snapshot's store bytes, and the log
/// identity (the snapshot point and every surviving `(term, payload)`).
fn log_state(recovery: &WalRecovery) -> Result<(Option<&[u8]>, LogState)> {
    let (snapshot, base_seq, base_term) = match &recovery.snapshot {
        Some(snap) => {
            let (term, data) = split_record(&snap.data)?;
            (Some(data), snap.last_seq, term)
        }
        None => (None, 0, 0),
    };
    let records = recovery
        .records
        .iter()
        .map(|r| {
            let (term, payload) = split_record(&r.payload)?;
            Ok(Record { term, payload: payload.to_vec() })
        })
        .collect::<Result<_>>()?;
    Ok((snapshot, LogState { base_seq, base_term, records }))
}

/// Check a mutation against the schema *without* applying it: invalid ops
/// never reach the log, while the real store is only touched after the
/// record is durable. Only the op is checked, on a profile of its own:
/// its degree by `Profile`'s own `add_*` checks, its attributes against
/// the catalog. A profile's validation checks each preference on its own,
/// and the stored profile was validated when it was committed.
fn validate_op(service: &Service, user: &UserId, op: &ProfileOp) -> Result<()> {
    let mut alone = Profile::new(user.as_str());
    match op {
        ProfileOp::AddSelection { table, column, value, doi } => {
            alone.add_selection(table, column, value.clone(), *doi)?;
        }
        ProfileOp::AddJoin { from_table, from_column, to_table, to_column, doi } => {
            alone.add_join(from_table, from_column, to_table, to_column, *doi)?;
        }
        ProfileOp::Remove => return Ok(()),
    }
    alone.validate(service.database().catalog())?;
    Ok(())
}

/// Decode and apply logged records in order. Errors are counted under
/// `counter` and never stop the replay — one bad record must not take
/// down the node when the rest of the log is sound.
fn replay<'a>(service: &Service, payloads: impl IntoIterator<Item = &'a [u8]>, counter: &str) {
    for payload in payloads {
        let applied = MutationRecord::decode(payload)
            .map_err(|e| Error::Protocol(format!("bad mutation record: {e}")))
            .and_then(|r| apply_op(service, &UserId::from(r.user.as_str()), &r.op));
        if applied.is_err() {
            pqp_obs::counter_add(counter, 1);
        }
    }
}

/// Encode the whole profile store as snapshot bytes: `u32` user count,
/// then `(user, profile-json)` string pairs in sorted user order, so
/// identical stores encode to identical bytes.
fn encode_profile_snapshot(service: &Service) -> Vec<u8> {
    let mut pairs = Vec::new();
    for user in service.users() {
        if let Some(profile) = service.profile(user.clone()) {
            pairs.push((user.as_str().to_string(), profile.to_json()));
        }
    }
    let mut w = Writer::new();
    w.u32(pairs.len() as u32);
    for (user, json) in &pairs {
        w.str(user).str(json);
    }
    w.into_vec()
}

/// Replace the service's profile store with a snapshot: install every
/// profile it carries, remove every user it does not.
fn apply_profile_snapshot(service: &Service, data: &[u8]) -> Result<()> {
    let mut r = Reader::new(data);
    let bad = |e: pqp_wire::DecodeError| Error::Protocol(format!("bad snapshot: {e}"));
    let count = r.u32("snapshot user count").map_err(bad)?;
    let mut keep: HashSet<String> = HashSet::with_capacity(count as usize);
    for _ in 0..count {
        let user = r.str("snapshot user").map_err(bad)?;
        let json = r.str("snapshot profile").map_err(bad)?;
        let profile = Profile::from_json(&json)?;
        service.install_profile(profile)?;
        keep.insert(user);
    }
    r.expect_end().map_err(bad)?;
    for user in service.users() {
        if !keep.contains(user.as_str()) {
            service.remove_profile(user);
        }
    }
    Ok(())
}

/// Load the persisted term (0 when absent or unreadable — a fresh node).
fn load_term(config: &ReplConfig) -> u64 {
    std::fs::read_to_string(config.wal_dir.join(TERM_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Persist the term durably (tmp + fsync + rename). Best-effort: a node
/// that cannot persist its term still fences correctly while running,
/// and a reopened node takes at least its log tip's term.
fn persist_term(config: &ReplConfig, term: u64) {
    let write = || -> io::Result<()> {
        let tmp = config.wal_dir.join("term.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(term.to_string().as_bytes())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, config.wal_dir.join(TERM_FILE))
    };
    if write().is_err() {
        pqp_obs::counter_add("repl.term_persist_failed", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_datagen::{generate, MovieDbConfig};
    use pqp_storage::Value;
    use std::path::PathBuf;

    fn service() -> Arc<Service> {
        Arc::new(Service::new(generate(MovieDbConfig::default()).db))
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqp_repl_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn add(node: &ReplNode, user: &str, value: i64) -> Result<(u64, bool)> {
        node.client_mutate(
            &UserId::from(user),
            ProfileOp::AddSelection {
                table: "MOVIE".into(),
                column: "year".into(),
                value: Value::Int(value),
                doi: 0.5,
            },
        )
    }

    fn users(svc: &Service) -> Vec<String> {
        svc.users().iter().map(|u| u.as_str().to_string()).collect()
    }

    #[test]
    fn mutations_survive_reopen_via_replay() {
        let dir = tempdir("replay");
        {
            let node = ReplNode::open(service(), ReplConfig::new("n1", &dir)).unwrap();
            add(&node, "ana", 1999).unwrap();
            add(&node, "bob", 2001).unwrap();
            assert_eq!(node.status().last_seq, 2);
        }
        let svc = service();
        let node = ReplNode::open(Arc::clone(&svc), ReplConfig::new("n1", &dir)).unwrap();
        assert_eq!(node.status().last_seq, 2);
        assert_eq!(users(&svc), ["ana", "bob"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_leader_accepts_and_rejects_each_op_as_its_stored_profile_would() {
        use pqp_core::PrefError;
        let dir = tempdir("validate");
        let node = ReplNode::open(service(), ReplConfig::new("n4", &dir)).unwrap();
        add(&node, "ana", 1999).unwrap();
        let select = |table: &str, column: &str, doi: f64| ProfileOp::AddSelection {
            table: table.into(),
            column: column.into(),
            value: Value::Int(1999),
            doi,
        };
        let join = |to_column: &str, doi: f64| ProfileOp::AddJoin {
            from_table: "MOVIE".into(),
            from_column: "mid".into(),
            to_table: "GENRE".into(),
            to_column: to_column.into(),
            doi,
        };
        let unknown = |table: &str, column: &str| {
            Some(Error::Personalize(PrefError::UnknownAttribute {
                table: table.into(),
                column: column.into(),
            }))
        };
        let cases = [
            (select("MOVIE", "year", 0.7), None),
            (select("movie", "YEAR", 0.2), None),
            (join("mid", 0.9), None),
            (select("NOPE", "year", 0.7), unknown("NOPE", "year")),
            (select("MOVIE", "nope", 0.7), unknown("MOVIE", "nope")),
            (join("nope", 0.9), unknown("GENRE", "nope")),
            (select("MOVIE", "year", 1.5), Some(Error::Personalize(PrefError::InvalidDegree(1.5)))),
            (join("mid", -0.1), Some(Error::Personalize(PrefError::InvalidDegree(-0.1)))),
            // A zero degree removes the preference, so there is no attribute to check.
            (select("NOPE", "year", 0.0), None),
            (ProfileOp::Remove, None),
        ];
        for (op, rejected) in cases {
            let seq = node.status().last_seq;
            let outcome = node.client_mutate(&UserId::from("ana"), op.clone());
            assert_eq!(outcome.as_ref().err(), rejected.as_ref(), "{op:?}");
            let logged = node.status().last_seq - seq;
            assert_eq!(logged, u64::from(rejected.is_none()), "{op:?} logged {logged} records");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_remove_answers_whether_a_profile_was_stored() {
        let dir = tempdir("remove");
        let config = ReplConfig { quorum: 1, ..ReplConfig::new("n5", &dir) };
        let node = ReplNode::open(service(), config).unwrap();
        add(&node, "ana", 1999).unwrap();
        let remove = || node.client_mutate(&UserId::from("ana"), ProfileOp::Remove).unwrap().1;
        assert!(remove(), "a profile was stored");
        assert!(!remove(), "second removal is a no-op");
        assert_eq!(node.status().last_seq, 3, "both removals are logged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn follower_refuses_client_mutations() {
        let dir = tempdir("follower");
        let mut config = ReplConfig::new("n2", &dir);
        config.role = Role::Follower;
        let node = ReplNode::open(service(), config).unwrap();
        let err = add(&node, "ana", 2000).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "got {err:?}");
        assert_eq!(err.kind(), "unavailable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopened_node_keeps_its_term_without_the_term_file() {
        let dir = tempdir("term");
        let mut config = ReplConfig::new("n3", &dir);
        config.role = Role::Follower;
        {
            let node = ReplNode::open(service(), config.clone()).unwrap();
            let promote = ReplRequest::Promote { term: 5, token: String::new() };
            let resp = node.handle_peer(promote, &mut PeerLink::new());
            assert!(matches!(resp, ReplResponse::Ok { term: 5, .. }), "{resp:?}");
            add(&node, "ana", 1999).unwrap();
        }
        // The term file survives a restart, so a reborn node cannot be
        // promoted with a recycled term…
        assert_eq!(ReplNode::open(service(), config.clone()).unwrap().term(), 5);
        // …and without it the log tip's term still stands.
        std::fs::remove_file(dir.join(TERM_FILE)).unwrap();
        let node = ReplNode::open(service(), config).unwrap();
        assert!(node.term() >= 5, "reopened at term {}", node.term());
        assert_eq!(node.status().last_term, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_conflict_rebuilds_the_store_and_the_disk_agrees() {
        let dir = tempdir("conflict");
        let mut config = ReplConfig::new("n7", &dir);
        config.role = Role::Follower;
        let svc = service();
        let node = ReplNode::open(Arc::clone(&svc), config).unwrap();
        let record = |user: &str, value: i64| {
            let op = ProfileOp::AddSelection {
                table: "MOVIE".into(),
                column: "year".into(),
                value: Value::Int(value),
                doi: 0.5,
            };
            MutationRecord { user: user.into(), op }.encode()
        };
        let entry = |term, seq, payload| pqp_wire::LogEntry { term, seq, payload };
        let mut link = PeerLink::new();
        let entries = vec![entry(1, 1, record("ana", 1999)), entry(1, 2, record("bob", 2001))];
        let request = ReplRequest::Append { term: 1, prev_seq: 0, prev_term: 0, entries };
        node.handle_peer(request, &mut link);
        let entries = vec![entry(3, 2, record("cara", 1985))];
        let request = ReplRequest::Append { term: 3, prev_seq: 1, prev_term: 1, entries };
        let resp = node.handle_peer(request, &mut link);
        assert!(matches!(resp, ReplResponse::Ok { ack_seq: 2, ack_term: 3, .. }), "{resp:?}");
        assert_eq!(users(&svc), ["ana", "cara"], "bob's orphaned mutation is gone");
        let svc2 = service();
        let reborn = ReplNode::open(Arc::clone(&svc2), ReplConfig::new("n7", &dir)).unwrap();
        assert_eq!(reborn.status().last_seq, 2);
        assert_eq!(users(&svc2), ["ana", "cara"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_every_zero_is_a_typed_error() {
        let dir = tempdir("snap0");
        let mut config = ReplConfig::new("n0", &dir);
        config.snapshot_every = 0;
        let err = ReplNode::open(service(), config).err().expect("refused");
        assert!(err.to_string().contains("snapshot_every"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_snapshot_round_trips_byte_identically() {
        let svc = service();
        svc.add_selection(UserId::from("ana"), "MOVIE", "year", Value::Int(1999), 0.9).unwrap();
        svc.add_selection(UserId::from("bob"), "MOVIE", "year", Value::Int(2001), 0.4).unwrap();
        let snap = encode_profile_snapshot(&svc);

        let other = service();
        other.add_selection(UserId::from("zoe"), "MOVIE", "year", Value::Int(1950), 0.1).unwrap();
        apply_profile_snapshot(&other, &snap).unwrap();
        assert_eq!(encode_profile_snapshot(&other), snap, "byte-identical store");
        assert!(other.profile(UserId::from("zoe")).is_none(), "absent users removed");
    }

    #[test]
    fn invalid_mutations_never_reach_the_log() {
        let dir = tempdir("invalid");
        let node = ReplNode::open(service(), ReplConfig::new("n6", &dir)).unwrap();
        let err = node.client_mutate(
            &UserId::from("ana"),
            ProfileOp::AddSelection {
                table: "NO_SUCH_TABLE".into(),
                column: "x".into(),
                value: Value::Int(1),
                doi: 0.5,
            },
        );
        assert!(err.is_err());
        assert_eq!(node.status().last_seq, 0, "rejected op not logged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
