//! Single-leader replication of the profile store.
//!
//! The replication unit is the profile **mutation**: every client
//! mutation the leader accepts is encoded as a
//! [`MutationRecord`], appended to a crash-safe WAL
//! ([`pqp_storage::Wal`]), fsynced, and shipped to every follower. The
//! client sees success only once the record is durable on the leader
//! *and* acknowledged by the configured quorum of nodes — so an acked
//! mutation survives the loss of any `quorum - 1` nodes.
//!
//! ## Roles, terms, and log identity
//!
//! One node is the **leader** (accepts mutations, ships the log); the
//! rest are **followers** (apply shipped records, refuse client
//! mutations with a typed `unavailable` error). Failover is
//! promotion-by-term: a follower promoted with [`ReplRequest::Promote`]
//! adopts a strictly higher term, and every peer request carries its
//! sender's term — a deposed leader's ships are rejected by the higher
//! term, it steps down on the first rejection, and can never ack
//! another mutation. That is the whole fencing protocol.
//!
//! A log entry's identity is `(term, seq)` — the term is stored with
//! every WAL record and shipped with every entry. A deposed leader can
//! hold durable-but-unacked entries the new leader never saw; those
//! suffixes are detected (Raft's consistency check: every `Append`
//! carries the identity of the entry preceding the batch, every ack
//! carries the term of the acker's tip) and **truncated**, and the
//! follower rebuilds its in-memory store from the surviving log, so
//! replicas converge byte-identically instead of diverging silently. The
//! leader never counts a follower toward quorum on a self-reported
//! offset alone: acks are clamped to the leader's own tip and validated
//! against the leader's log by term.
//!
//! ## Ack semantics
//!
//! A mutation that fails *before* the WAL fsync was never durable and
//! returns a typed error — retrying is safe and exact (a record whose
//! fsync failed is truncated back off the log, and the in-memory store
//! is only updated *after* the fsync, so failed mutations are never
//! visible to reads). A mutation that is durable locally but misses
//! quorum returns [`Error::Unavailable`]: it *may* replicate later, so
//! a client retry gives at-least-once semantics. Profile mutations are
//! upserts keyed on the preference, so replaying one is harmless.
//!
//! ## Authentication
//!
//! Replication frames share the client listen port, so the
//! state-changing vocabulary is gated on a shared secret
//! (`PQP_REPL_TOKEN`): `Hello` must present it before `Append`/
//! `Snapshot` are honored on a link, and `Promote` carries it directly.
//! `Status` stays open — it is a read-only probe. An empty token
//! disables the check (single-machine and test clusters).
//!
//! Failpoint sites, fired on the service's registry: `wal.append` and
//! `wal.fsync` (before each WAL append and sync, leader and follower),
//! `repl.ship` (before sending to a follower), `repl.ack` (after the
//! follower answered), `node.crash` (at mutation entry).

use std::collections::HashSet;
use std::io::{self, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pqp_core::Profile;
use pqp_service::{Error, FollowerLag, ReplStatus, Result, Service, UserId};
use pqp_storage::{StorageError, Wal, WalRecovery};
use pqp_wire::codec::{Reader, Writer};
use pqp_wire::frame::{read_frame, write_frame};
use pqp_wire::proto::ProfileOp;
use pqp_wire::repl::{LogEntry, MutationRecord, NodeStatus, ReplRequest, ReplResponse, Role};
use pqp_wire::{MAX_FRAME_LEN, PROTOCOL_VERSION};

/// Name of the file in the WAL directory holding the persisted term.
const TERM_FILE: &str = "term";

/// Catch-up attempts per follower per ship round before giving up on it
/// for this mutation (it retries on the next one).
const SHIP_ATTEMPTS: usize = 4;

/// Replication knobs. Present only when the node runs replicated — a
/// plain single-node server has no `ReplConfig` and no WAL.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// This node's identity, carried in peer handshakes and telemetry
    /// (`PQP_NODE_ID`, default `node-1`).
    pub node_id: String,
    /// Directory for the WAL, snapshot, and term files (`PQP_WAL_DIR`;
    /// setting it is what turns replication on).
    pub wal_dir: PathBuf,
    /// Nodes (including this one) that must hold a mutation durably
    /// before the client is acked (`PQP_REPL_QUORUM`, default 1 =
    /// leader-only durability).
    pub quorum: usize,
    /// Follower addresses this node ships to when it is the leader
    /// (`PQP_REPL_PEERS`, comma-separated).
    pub peers: Vec<String>,
    /// Starting role (`PQP_REPL_ROLE`: `leader` | `follower`, default
    /// `leader`).
    pub role: Role,
    /// Compact the log into a snapshot after this many appended records
    /// (`PQP_REPL_SNAPSHOT_EVERY`, default 1024; 0 disables).
    pub snapshot_every: u64,
    /// Connect/read/write timeout on peer links
    /// (`PQP_REPL_SHIP_TIMEOUT_MS`, default 5000).
    pub ship_timeout: Duration,
    /// Shared secret gating the state-changing replication frames
    /// (`PQP_REPL_TOKEN`). Every node of a cluster must carry the same
    /// value; empty disables the check.
    pub token: String,
}

impl ReplConfig {
    /// Build from the environment. `Ok(None)` unless `PQP_WAL_DIR` is set —
    /// the knob that turns the replicated mutation log on. An unset (or
    /// blank) variable means its default; one that is set but invalid is an
    /// error naming the variable and what it accepts, because a typo must
    /// not silently start a second leader or lower the quorum.
    pub fn from_env() -> std::result::Result<Option<ReplConfig>, String> {
        ReplConfig::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`ReplConfig::from_env`] over any `name -> value` lookup (tests pass
    /// a map instead of mutating the process environment). Values are
    /// trimmed.
    fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> std::result::Result<Option<ReplConfig>, String> {
        fn number<T: std::str::FromStr>(
            var: impl Fn(&str) -> Option<String>,
            name: &str,
        ) -> std::result::Result<Option<T>, String> {
            var(name)
                .map(|v| {
                    v.parse().map_err(|_| {
                        format!("{name}={v:?} is not valid: expected a non-negative whole number")
                    })
                })
                .transpose()
        }
        let var = |name: &str| lookup(name).map(|v| v.trim().to_string()).filter(|v| !v.is_empty());
        let Some(wal_dir) = var("PQP_WAL_DIR") else {
            return Ok(None);
        };
        let d =
            ReplConfig::new(var("PQP_NODE_ID").unwrap_or_else(|| "node-1".to_string()), wal_dir);
        let role = match var("PQP_REPL_ROLE").as_deref() {
            None | Some("leader") => Role::Leader,
            Some("follower") => Role::Follower,
            Some(v) => {
                return Err(format!(
                    "PQP_REPL_ROLE={v:?} is not valid: expected `leader` or `follower`"
                ))
            }
        };
        Ok(Some(ReplConfig {
            quorum: number(var, "PQP_REPL_QUORUM")?.unwrap_or(d.quorum).max(1),
            peers: var("PQP_REPL_PEERS")
                .map(|v| {
                    v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
                })
                .unwrap_or_default(),
            role,
            snapshot_every: number(var, "PQP_REPL_SNAPSHOT_EVERY")?.unwrap_or(d.snapshot_every),
            ship_timeout: number(var, "PQP_REPL_SHIP_TIMEOUT_MS")?
                .map_or(d.ship_timeout, Duration::from_millis),
            token: lookup("PQP_REPL_TOKEN").unwrap_or_default(),
            ..d
        }))
    }

    /// A config for tests and embedding: leader-by-default, quorum 1,
    /// no peers.
    pub fn new(node_id: impl Into<String>, wal_dir: impl Into<PathBuf>) -> ReplConfig {
        ReplConfig {
            node_id: node_id.into(),
            wal_dir: wal_dir.into(),
            quorum: 1,
            peers: Vec::new(),
            role: Role::Leader,
            snapshot_every: 1024,
            ship_timeout: Duration::from_millis(5_000),
            token: String::new(),
        }
    }
}

/// One follower as tracked by the leader: its address, a lazily opened
/// (and lazily re-opened) peer link, and its acknowledged log offset.
struct FollowerSlot {
    addr: String,
    conn: Option<TcpStream>,
    ack_seq: u64,
}

/// Mutable replication state, guarded by one mutex so the log order,
/// the apply order, and the ship order are the same order.
struct Inner {
    role: Role,
    term: u64,
    wal: Wal,
    /// Term of the log's tip entry (`base_term` when the log is empty).
    last_term: u64,
    /// Term of the entry at the snapshot point (0 when no snapshot).
    base_term: u64,
    followers: Vec<FollowerSlot>,
    records_since_snapshot: u64,
}

/// Lock-free mirror of the node's probe-visible state, refreshed on
/// every state change. `Status` probes (the router's health checks) are
/// answered from here so a leader stalled in peer I/O under the `Inner`
/// mutex still probes as alive — otherwise one dead follower could make
/// the router misread the leader as down and trigger a spurious
/// promotion.
struct StatusCell {
    role: AtomicU8,
    term: AtomicU64,
    last_seq: AtomicU64,
    durable_seq: AtomicU64,
}

impl StatusCell {
    fn store(&self, inner: &Inner) {
        self.role.store(
            match inner.role {
                Role::Leader => 0,
                Role::Follower => 1,
            },
            Ordering::Relaxed,
        );
        self.term.store(inner.term, Ordering::Relaxed);
        self.last_seq.store(inner.wal.last_seq(), Ordering::Relaxed);
        self.durable_seq.store(inner.wal.synced_seq(), Ordering::Relaxed);
    }

    fn role(&self) -> Role {
        match self.role.load(Ordering::Relaxed) {
            0 => Role::Leader,
            _ => Role::Follower,
        }
    }
}

/// Per-connection replication link state, owned by the connection
/// handler. A link must present the shared secret in `Hello` before its
/// state-changing frames are honored.
pub struct PeerLink {
    authed: bool,
}

impl PeerLink {
    /// A fresh, unauthenticated link.
    pub fn new() -> PeerLink {
        PeerLink { authed: false }
    }
}

impl Default for PeerLink {
    fn default() -> PeerLink {
        PeerLink::new()
    }
}

/// The replication engine of one node. Owns the WAL, the role/term
/// state, and (as leader) the follower links. Shared between the
/// client dispatch path (mutations) and the peer frame handler.
pub struct ReplNode {
    config: ReplConfig,
    service: Arc<Service>,
    inner: Mutex<Inner>,
    status: StatusCell,
    fsync_ms: pqp_obs::WindowedHistogram,
    ship_ms: pqp_obs::WindowedHistogram,
}

impl ReplNode {
    /// Open (or create) the WAL directory, recover state — snapshot
    /// first, then the surviving log suffix, truncating any torn tail —
    /// and replay it into the service so the in-memory profile store is
    /// byte-identical to what was durable at the crash.
    pub fn open(service: Arc<Service>, config: ReplConfig) -> Result<Arc<ReplNode>> {
        let (wal, recovery) = Wal::open(&config.wal_dir)?;
        let term = load_term(&config);
        replay(&service, &recovery)?;
        if recovery.truncated_bytes > 0 {
            pqp_obs::counter_add("repl.torn_tail_bytes", recovery.truncated_bytes as i64);
        }
        // Rebuild the (term, seq) identity of the log tail from the
        // term prefix every stored record and snapshot carries.
        let base_term = match &recovery.snapshot {
            Some(snap) => split_record(&snap.data).map(|(t, _)| t).unwrap_or(0),
            None => 0,
        };
        let last_term = recovery
            .records
            .last()
            .and_then(|r| split_record(&r.payload).ok().map(|(t, _)| t))
            .unwrap_or(base_term);
        let followers = config
            .peers
            .iter()
            .map(|addr| FollowerSlot { addr: addr.clone(), conn: None, ack_seq: 0 })
            .collect();
        let node = Arc::new(ReplNode {
            inner: Mutex::new(Inner {
                role: config.role,
                term,
                wal,
                last_term,
                base_term,
                followers,
                records_since_snapshot: 0,
            }),
            service,
            config,
            status: StatusCell {
                role: AtomicU8::new(0),
                term: AtomicU64::new(0),
                last_seq: AtomicU64::new(0),
                durable_seq: AtomicU64::new(0),
            },
            fsync_ms: pqp_obs::WindowedHistogram::default(),
            ship_ms: pqp_obs::WindowedHistogram::default(),
        });
        node.publish(&node.lock());
        Ok(node)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// This node's identity.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// Current role (lock-free: reads the status cell).
    pub fn role(&self) -> Role {
        self.status.role()
    }

    /// Current term (lock-free: reads the status cell).
    pub fn term(&self) -> u64 {
        self.status.term.load(Ordering::Relaxed)
    }

    /// The node's status as answered to a `Status` probe. Served from
    /// the lock-free status cell so probes never wait on replication
    /// work in progress.
    pub fn status(&self) -> NodeStatus {
        NodeStatus {
            node_id: self.config.node_id.clone(),
            role: self.status.role(),
            term: self.status.term.load(Ordering::Relaxed),
            last_seq: self.status.last_seq.load(Ordering::Relaxed),
            durable_seq: self.status.durable_seq.load(Ordering::Relaxed),
        }
    }

    /// Constant-time-ish comparison of the supplied auth token against
    /// the configured shared secret. An empty configured token disables
    /// the check.
    fn token_ok(&self, supplied: &str) -> bool {
        let want = self.config.token.as_bytes();
        if want.is_empty() {
            return true;
        }
        let got = supplied.as_bytes();
        let mut diff = want.len() ^ got.len();
        for (i, byte) in want.iter().enumerate() {
            diff |= (byte ^ got.get(i).copied().unwrap_or(0)) as usize;
        }
        diff == 0
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
        if inner.role != Role::Leader {
            return Err(Error::Unavailable(format!(
                "not the leader (follower at term {})",
                inner.term
            )));
        }
        // Validate first (on a clone, no store mutation): an op the
        // schema rejects never reaches the log, so the log replays
        // cleanly forever.
        validate_op(&self.service, user, &op)?;
        let record = MutationRecord { user: user.as_str().to_string(), op: op.clone() }.encode();
        let term = inner.term;
        let seq = self.wal_append(&mut inner.wal, &wrap_record(term, &record))?;
        let t = Instant::now();
        if let Err(e) = self.wal_sync(&mut inner.wal) {
            // The record is written but not durable: take it back off
            // the log so a later successful fsync cannot make durable a
            // record the in-memory store never applied.
            if inner.wal.truncate_from(seq).is_err() {
                pqp_obs::counter_add("repl.orphaned_records", 1);
            }
            self.refresh_tip_term(&mut inner);
            self.publish(&inner);
            return Err(e.into());
        }
        self.fsync_ms.record(t.elapsed().as_secs_f64() * 1_000.0);
        inner.last_term = term;
        // Durable: now (and only now) the mutation becomes visible.
        let removed = match apply_op(&self.service, user, &op) {
            Ok(removed) => removed,
            Err(e) => {
                // Validation passed, so this is exceptional; the record
                // is durable and will still ship and replay.
                pqp_obs::counter_add("repl.apply_errors", 1);
                return Err(e);
            }
        };

        let ship_failures = self.ship(&mut inner)?;
        let acked = 1 + inner.followers.iter().filter(|f| f.ack_seq >= seq).count();
        let quorum = self.config.quorum;
        self.maybe_compact(&mut inner);
        self.publish(&inner);
        if acked < quorum {
            pqp_obs::counter_add("repl.quorum_failures", 1);
            let detail = if ship_failures.is_empty() {
                String::new()
            } else {
                format!("; {}", ship_failures.join("; "))
            };
            return Err(Error::Unavailable(format!(
                "quorum not reached: {acked}/{quorum} nodes hold seq {seq} \
                 (durable on leader; a retry is safe){detail}"
            )));
        }
        Ok((self.service.epoch(user.clone()), removed))
    }

    /// Bring every follower up to the log tip. A follower that cannot
    /// be reached this round is skipped (its `ack_seq` stays behind and
    /// the failure is reported back for the quorum error message); a
    /// rejection with a higher term fences this leader — it steps down
    /// and the mutation fails `Unavailable`.
    fn ship(&self, inner: &mut Inner) -> Result<Vec<String>> {
        let term = inner.term;
        let tip = inner.wal.last_seq();
        let tip_term = inner.last_term;
        let base_term = inner.base_term;
        let mut fenced: Option<u64> = None;
        let mut failures = Vec::new();
        // Split borrows: the WAL (read) and the follower slots (mutated).
        let Inner { wal, followers, .. } = &mut *inner;
        for slot in followers.iter_mut() {
            if slot.ack_seq >= tip {
                continue;
            }
            let t = Instant::now();
            match self.catch_up(wal, term, tip, tip_term, base_term, slot) {
                Ok(()) => self.ship_ms.record(t.elapsed().as_secs_f64() * 1_000.0),
                Err(ShipError::Io(reason)) => {
                    pqp_obs::counter_add("repl.ship_failed", 1);
                    failures.push(format!("{}: {reason}", slot.addr));
                    slot.conn = None;
                }
                Err(ShipError::Fenced(higher)) => {
                    fenced = Some(higher);
                    slot.conn = None;
                }
            }
        }
        if let Some(higher) = fenced {
            inner.term = higher;
            inner.role = Role::Follower;
            persist_term(&self.config, higher);
            pqp_obs::counter_add("repl.fenced", 1);
            self.publish(inner);
            return Err(Error::Unavailable(format!(
                "fenced by newer term {higher}; stepping down"
            )));
        }
        Ok(failures)
    }

    /// Drive one follower to the log tip: handshake if the link is
    /// fresh, then Append batches from its ack offset — or a full
    /// snapshot when the log has been compacted past it.
    ///
    /// The follower's self-reported ack is never trusted verbatim: it
    /// is clamped to this leader's own tip, and the term the follower
    /// reports for its tip must match this log's entry at that offset —
    /// otherwise the ack walks back so the next `Append`'s consistency
    /// check lands on (and truncates) the conflicting suffix.
    fn catch_up(
        &self,
        wal: &Wal,
        term: u64,
        tip: u64,
        tip_term: u64,
        base_term: u64,
        slot: &mut FollowerSlot,
    ) -> std::result::Result<(), ShipError> {
        for _ in 0..SHIP_ATTEMPTS {
            if slot.conn.is_none() {
                let stream = connect_peer(&slot.addr, self.config.ship_timeout)
                    .map_err(|e| ShipError::Io(e.to_string()))?;
                slot.conn = Some(stream);
                let hello = ReplRequest::Hello {
                    version: PROTOCOL_VERSION,
                    node_id: self.config.node_id.clone(),
                    term,
                    token: self.config.token.clone(),
                    last_seq: tip,
                    last_term: tip_term,
                };
                match self.exchange(slot, &hello)? {
                    ReplResponse::Ok { ack_seq, ack_term, .. } => {
                        slot.ack_seq = validate_ack(wal, base_term, tip, ack_seq, ack_term);
                    }
                    ReplResponse::Reject { term: t, .. } if t > term => {
                        return Err(ShipError::Fenced(t));
                    }
                    ReplResponse::Reject { reason, .. } => {
                        return Err(ShipError::Io(format!("handshake rejected: {reason}")));
                    }
                    ReplResponse::Status(_) => {
                        return Err(ShipError::Io("status answer to hello".to_string()));
                    }
                }
            }
            if slot.ack_seq >= tip {
                return Ok(());
            }
            let records =
                wal.read_from(slot.ack_seq + 1).map_err(|e| ShipError::Io(e.to_string()))?;
            let prev = term_at(wal, base_term, slot.ack_seq);
            let request = match (records, prev) {
                (Some(records), Some(prev_term)) => {
                    let prev_seq = slot.ack_seq;
                    let mut entries = Vec::with_capacity(records.len());
                    for r in records {
                        let (t, payload) =
                            split_record(&r.payload).map_err(|e| ShipError::Io(e.to_string()))?;
                        entries.push(LogEntry { term: t, seq: r.seq, payload: payload.to_vec() });
                    }
                    ReplRequest::Append { term, prev_seq, prev_term, entries }
                }
                // The log was compacted past this follower (its offset
                // is below the snapshot point, so there is no entry to
                // hang a consistency check off): ship the whole state.
                // Under the inner lock the service state corresponds
                // exactly to the log tip.
                _ => ReplRequest::Snapshot {
                    term,
                    last_seq: tip,
                    last_term: tip_term,
                    data: encode_profile_snapshot(&self.service),
                },
            };
            match self.exchange(slot, &request)? {
                ReplResponse::Ok { ack_seq, ack_term, .. } => {
                    slot.ack_seq = validate_ack(wal, base_term, tip, ack_seq, ack_term);
                    if slot.ack_seq >= tip {
                        return Ok(());
                    }
                }
                ReplResponse::Reject { term: t, .. } if t > term => {
                    return Err(ShipError::Fenced(t));
                }
                // A rejection tells us where the follower's log actually
                // matches (a gap, or a conflict walk-back after it
                // truncated a deposed leader's suffix); resume there.
                ReplResponse::Reject { last_seq, .. } => slot.ack_seq = last_seq.min(tip),
                ReplResponse::Status(_) => {
                    return Err(ShipError::Io("status answer to append".to_string()));
                }
            }
        }
        Err(ShipError::Io(format!("follower {} still behind after retries", slot.addr)))
    }

    /// One framed request/response on a follower link, with the
    /// `repl.ship` / `repl.ack` failpoints around it.
    fn exchange(
        &self,
        slot: &mut FollowerSlot,
        request: &ReplRequest,
    ) -> std::result::Result<ReplResponse, ShipError> {
        if let Some(msg) = self.service.failpoints().fire("repl.ship") {
            return Err(ShipError::Io(format!("repl.ship failpoint: {msg}")));
        }
        let Some(stream) = slot.conn.as_mut() else {
            return Err(ShipError::Io("no follower link".to_string()));
        };
        let (tag, payload) = request.encode();
        write_frame(stream, tag, &payload).map_err(|e| ShipError::Io(e.to_string()))?;
        stream.flush().map_err(|e| ShipError::Io(e.to_string()))?;
        let (tag, payload) =
            read_frame(stream, MAX_FRAME_LEN).map_err(|e| ShipError::Io(e.to_string()))?;
        if let Some(msg) = self.service.failpoints().fire("repl.ack") {
            return Err(ShipError::Io(format!("repl.ack failpoint: {msg}")));
        }
        ReplResponse::decode(tag, &payload).map_err(|e| ShipError::Io(e.to_string()))
    }

    /// [`Wal::append`] behind the `wal.append` failpoint.
    fn wal_append(&self, wal: &mut Wal, record: &[u8]) -> pqp_storage::Result<u64> {
        if let Some(msg) = self.service.failpoints().fire("wal.append") {
            return Err(StorageError::Io(format!("wal.append failpoint: {msg}")));
        }
        wal.append(record)
    }

    /// [`Wal::sync`] behind the `wal.fsync` failpoint.
    fn wal_sync(&self, wal: &mut Wal) -> pqp_storage::Result<()> {
        if let Some(msg) = self.service.failpoints().fire("wal.fsync") {
            return Err(StorageError::Io(format!("wal.fsync failpoint: {msg}")));
        }
        wal.sync()
    }

    /// Compact the log into a snapshot once enough records accumulated.
    /// Best-effort: a failed compaction only costs disk space.
    fn maybe_compact(&self, inner: &mut Inner) {
        if self.config.snapshot_every == 0 {
            return;
        }
        inner.records_since_snapshot += 1;
        if inner.records_since_snapshot < self.config.snapshot_every {
            return;
        }
        inner.records_since_snapshot = 0;
        let data = wrap_record(inner.last_term, &encode_profile_snapshot(&self.service));
        if inner.wal.install_snapshot(&data).is_err() {
            pqp_obs::counter_add("repl.snapshot_failed", 1);
        } else {
            inner.base_term = inner.last_term;
            pqp_obs::counter_add("repl.snapshots", 1);
        }
    }

    /// Handle one peer request (the other side of the leader's internal
    /// `ship` path, plus probes and failover control). `link` is the
    /// per-connection auth state: a link must present the cluster token
    /// in `Hello` before `Append`/`Snapshot` are honored on it.
    pub fn handle_peer(&self, request: ReplRequest, link: &mut PeerLink) -> ReplResponse {
        // Status is read-only and answered from the lock-free cell, so
        // the router's probes stay fast even while this node is stalled
        // in peer I/O under the inner mutex.
        if matches!(request, ReplRequest::Status) {
            return ReplResponse::Status(self.status());
        }
        let mut inner = self.lock();
        let authed = link.authed || self.config.token.is_empty();
        let response = match request {
            ReplRequest::Hello { version, node_id, term, token, last_seq, last_term } => self
                .peer_hello(&mut inner, link, version, &node_id, term, &token, last_seq, last_term),
            ReplRequest::Append { term, prev_seq, prev_term, entries } => {
                if !authed {
                    self.reject_unauthenticated(&inner, "append")
                } else {
                    self.peer_append(&mut inner, term, prev_seq, prev_term, entries)
                }
            }
            ReplRequest::Snapshot { term, last_seq, last_term, data } => {
                if !authed {
                    self.reject_unauthenticated(&inner, "snapshot")
                } else {
                    self.peer_snapshot(&mut inner, term, last_seq, last_term, &data)
                }
            }
            ReplRequest::Status => unreachable!("answered above the lock"),
            ReplRequest::Promote { term, token } => {
                if !self.token_ok(&token) {
                    pqp_obs::counter_add("repl.auth_failures", 1);
                    ReplResponse::Reject {
                        term: inner.term,
                        last_seq: inner.wal.last_seq(),
                        reason: "authentication failed".to_string(),
                    }
                } else if term <= inner.term {
                    ReplResponse::Reject {
                        term: inner.term,
                        last_seq: inner.wal.last_seq(),
                        reason: format!(
                            "promotion term {term} not above current term {}",
                            inner.term
                        ),
                    }
                } else {
                    inner.term = term;
                    inner.role = Role::Leader;
                    persist_term(&self.config, term);
                    // Follower offsets are stale guesses now; each link
                    // re-handshakes and reports its real offset.
                    for slot in &mut inner.followers {
                        slot.conn = None;
                        slot.ack_seq = 0;
                    }
                    pqp_obs::counter_add("repl.promotions", 1);
                    ReplResponse::Ok {
                        term,
                        ack_seq: inner.wal.last_seq(),
                        ack_term: inner.last_term,
                    }
                }
            }
        };
        self.publish(&inner);
        response
    }

    /// Handshake: check the version and the cluster token, fence terms,
    /// then reconcile this node's log tail against the leader's tip. A
    /// tail beyond the leader's tip, or a tip entry whose term the
    /// leader disagrees with, is a deposed leader's unreplicated suffix
    /// — it is truncated here (and the store rebuilt) rather than left
    /// to diverge silently.
    #[allow(clippy::too_many_arguments)]
    fn peer_hello(
        &self,
        inner: &mut Inner,
        link: &mut PeerLink,
        version: u16,
        node_id: &str,
        term: u64,
        token: &str,
        leader_last_seq: u64,
        leader_last_term: u64,
    ) -> ReplResponse {
        if version != PROTOCOL_VERSION {
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!(
                    "unsupported protocol version {version} (node speaks {PROTOCOL_VERSION})"
                ),
            };
        }
        if !self.token_ok(token) {
            pqp_obs::counter_add("repl.auth_failures", 1);
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!("authentication failed for {node_id}"),
            };
        }
        if let Some(reject) = self.fence(inner, term, "hello") {
            return reject;
        }
        link.authed = true;
        let last = inner.wal.last_seq();
        if last > leader_last_seq {
            // Entries the leader never had: a deposed leader's durable-
            // but-unacked suffix. Cut it before reporting an ack.
            self.drop_suffix(inner, leader_last_seq + 1);
        } else if last == leader_last_seq && last > 0 && inner.last_term != leader_last_term {
            // Same length, different tip identity: the tip (at least)
            // conflicts. Cut it; the walk-back finds the fork point.
            self.drop_suffix(inner, last);
        }
        ReplResponse::Ok {
            term: inner.term,
            ack_seq: inner.wal.last_seq(),
            ack_term: inner.last_term,
        }
    }

    /// Apply shipped entries. In order: fence stale terms, run the
    /// consistency check on the `(prev_seq, prev_term)` identity the
    /// batch hangs off (truncating a conflicting suffix — Raft's
    /// AppendEntries check), reject gaps (telling the leader where the
    /// log really ends), then append + one fsync + apply.
    fn peer_append(
        &self,
        inner: &mut Inner,
        term: u64,
        prev_seq: u64,
        prev_term: u64,
        entries: Vec<LogEntry>,
    ) -> ReplResponse {
        if let Some(reject) = self.fence(inner, term, "append") {
            return reject;
        }
        let last = inner.wal.last_seq();
        if prev_seq > last {
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: last,
                reason: format!("log gap: batch hangs off seq {prev_seq}, log ends at {last}"),
            };
        }
        if prev_seq < inner.wal.base_seq() {
            // The batch hangs off history below this node's snapshot
            // point, which cannot be checked. Reset; the leader re-ships
            // from scratch (in practice: a snapshot).
            self.reset_empty(inner);
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: "batch predates the local snapshot point; re-ship from scratch".to_string(),
            };
        }
        if term_at(&inner.wal, inner.base_term, prev_seq) != Some(prev_term) {
            // This log's entry at prev_seq is not the one the leader
            // has: everything from it onward is a deposed leader's
            // suffix. Cut it and report where the log now ends so the
            // leader walks back to the fork point.
            self.drop_suffix(inner, prev_seq);
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!(
                    "log conflict at seq {prev_seq}: local term differs from leader's \
                     {prev_term}; suffix truncated"
                ),
            };
        }
        let mut truncated = false;
        let mut first_appended: Option<u64> = None;
        let mut appended = Vec::new();
        for entry in entries {
            let last = inner.wal.last_seq();
            if entry.seq <= last {
                if term_at(&inner.wal, inner.base_term, entry.seq) == Some(entry.term) {
                    continue; // Re-shipped entry we already hold.
                }
                // Conflict inside the overlap: the deposed suffix
                // starts here. Cut it, then append the leader's entry
                // in its place.
                self.drop_suffix(inner, entry.seq);
                truncated = true;
                if inner.wal.last_seq() + 1 != entry.seq {
                    // The cut reached into the snapshot; re-ship.
                    return ReplResponse::Reject {
                        term: inner.term,
                        last_seq: inner.wal.last_seq(),
                        reason: format!(
                            "log conflict at seq {} reached the snapshot point; re-ship",
                            entry.seq
                        ),
                    };
                }
            } else if entry.seq != last + 1 {
                return ReplResponse::Reject {
                    term: inner.term,
                    last_seq: last,
                    reason: format!("log gap: got seq {}, log ends at {last}", entry.seq),
                };
            }
            match self.wal_append(&mut inner.wal, &wrap_record(entry.term, &entry.payload)) {
                Ok(seq) => {
                    inner.last_term = entry.term;
                    first_appended.get_or_insert(seq);
                    appended.push(entry.payload);
                }
                Err(e) => {
                    return ReplResponse::Reject {
                        term: inner.term,
                        last_seq: inner.wal.last_seq(),
                        reason: format!("append failed: {e}"),
                    };
                }
            }
        }
        let t = Instant::now();
        if let Err(e) = self.wal_sync(&mut inner.wal) {
            // Mirror the leader's mutation path: records that failed to
            // become durable come back off the log, so memory and log
            // never disagree. The leader re-ships them next round.
            if let Some(first) = first_appended {
                if inner.wal.truncate_from(first).is_err() {
                    pqp_obs::counter_add("repl.orphaned_records", 1);
                }
                self.refresh_tip_term(inner);
            }
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!("fsync failed: {e}"),
            };
        }
        self.fsync_ms.record(t.elapsed().as_secs_f64() * 1_000.0);
        if truncated {
            // History changed under the in-memory store mid-batch:
            // rebuild from durable state instead of applying on top.
            self.rebuild_store(inner);
        } else {
            for payload in appended {
                // The leader validated before logging, so failures here
                // are exceptional; counted, never silently dropped.
                if apply_record(&self.service, &payload).is_err() {
                    pqp_obs::counter_add("repl.apply_errors", 1);
                }
            }
        }
        ReplResponse::Ok {
            term: inner.term,
            ack_seq: inner.wal.last_seq(),
            ack_term: inner.last_term,
        }
    }

    /// Adopt a full snapshot: replace the WAL and the profile store.
    fn peer_snapshot(
        &self,
        inner: &mut Inner,
        term: u64,
        last_seq: u64,
        last_term: u64,
        data: &[u8],
    ) -> ReplResponse {
        if let Some(reject) = self.fence(inner, term, "snapshot") {
            return reject;
        }
        if let Err(e) = inner.wal.reset_to(last_seq, &wrap_record(last_term, data)) {
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!("snapshot install failed: {e}"),
            };
        }
        inner.base_term = last_term;
        inner.last_term = last_term;
        if let Err(e) = apply_profile_snapshot(&self.service, data) {
            return ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!("snapshot apply failed: {e}"),
            };
        }
        pqp_obs::counter_add("repl.snapshots_received", 1);
        ReplResponse::Ok {
            term: inner.term,
            ack_seq: inner.wal.last_seq(),
            ack_term: inner.last_term,
        }
    }

    /// The Reject every state-changing frame gets on a link that never
    /// presented the cluster token.
    fn reject_unauthenticated(&self, inner: &Inner, what: &str) -> ReplResponse {
        pqp_obs::counter_add("repl.auth_failures", 1);
        ReplResponse::Reject {
            term: inner.term,
            last_seq: inner.wal.last_seq(),
            reason: format!("unauthenticated {what}: present the cluster token in Hello first"),
        }
    }

    /// Remove the log suffix from `from` onward (inclusive) and rebuild
    /// the in-memory store from what survives. When the cut reaches
    /// into the snapshot, local history is unverifiable — reset to
    /// empty and let the leader re-ship from scratch.
    fn drop_suffix(&self, inner: &mut Inner, from: u64) {
        pqp_obs::counter_add("repl.log_truncations", 1);
        if from > inner.wal.base_seq() && inner.wal.truncate_from(from).is_ok() {
            self.refresh_tip_term(inner);
            self.rebuild_store(inner);
        } else {
            self.reset_empty(inner);
        }
    }

    /// Re-derive `last_term` from the log tip (after a truncation).
    fn refresh_tip_term(&self, inner: &mut Inner) {
        let last = inner.wal.last_seq();
        inner.last_term = if last <= inner.wal.base_seq() {
            inner.base_term
        } else {
            match inner.wal.read_record(last) {
                Ok(Some(record)) => {
                    split_record(&record.payload).map(|(t, _)| t).unwrap_or(inner.base_term)
                }
                _ => inner.base_term,
            }
        };
    }

    /// Rebuild the in-memory profile store from durable state (the
    /// snapshot, then the surviving log) after a truncation changed
    /// history under it.
    fn rebuild_store(&self, inner: &Inner) {
        pqp_obs::counter_add("repl.store_rebuilds", 1);
        match inner.wal.read_snapshot() {
            Ok(Some(snapshot)) => {
                let applied = split_record(&snapshot.data)
                    .and_then(|(_, data)| apply_profile_snapshot(&self.service, data));
                if applied.is_err() {
                    pqp_obs::counter_add("repl.apply_errors", 1);
                }
            }
            _ => {
                for user in self.service.users() {
                    self.service.remove_profile(user);
                }
            }
        }
        if let Ok(Some(records)) = inner.wal.read_from(inner.wal.base_seq() + 1) {
            for record in records {
                let applied = split_record(&record.payload)
                    .and_then(|(_, payload)| apply_record(&self.service, payload).map(|_| ()));
                if applied.is_err() {
                    pqp_obs::counter_add("repl.apply_errors", 1);
                }
            }
        }
    }

    /// Reset to a completely empty replica — empty snapshot at seq 0,
    /// no log, no profiles — for when local history is unverifiable
    /// (a conflict reached into the compacted snapshot).
    fn reset_empty(&self, inner: &mut Inner) {
        let mut w = Writer::new();
        w.u32(0);
        if inner.wal.reset_to(0, &wrap_record(0, &w.into_vec())).is_err() {
            pqp_obs::counter_add("repl.snapshot_failed", 1);
            return;
        }
        inner.base_term = 0;
        inner.last_term = 0;
        for user in self.service.users() {
            self.service.remove_profile(user);
        }
    }

    /// Shared term check for state-changing peer requests: reject stale
    /// terms, adopt higher ones (stepping down if this node led).
    fn fence(&self, inner: &mut Inner, term: u64, what: &str) -> Option<ReplResponse> {
        if term < inner.term {
            return Some(ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!("stale term {term} on {what} (current {})", inner.term),
            });
        }
        if term == inner.term && inner.role == Role::Leader {
            // Two leaders at one term cannot happen under promote-by-
            // higher-term; refuse rather than corrupt the log.
            return Some(ReplResponse::Reject {
                term: inner.term,
                last_seq: inner.wal.last_seq(),
                reason: format!("this node leads term {term}; split brain refused"),
            });
        }
        self.adopt(inner, term);
        None
    }

    /// Adopt `term` if newer, stepping down from leadership.
    fn adopt(&self, inner: &mut Inner, term: u64) {
        if term > inner.term {
            if inner.role == Role::Leader {
                pqp_obs::counter_add("repl.stepdowns", 1);
            }
            inner.term = term;
            inner.role = Role::Follower;
            persist_term(&self.config, term);
        }
    }

    /// Publish this node's replication state into the lock-free status
    /// cell (which answers `Status` probes) and the service telemetry
    /// (`SHOW METRICS` `repl.*` rows, `Telemetry::repl_status`).
    fn publish(&self, inner: &Inner) {
        self.status.store(inner);
        let tip = inner.wal.last_seq();
        let fsync = self.fsync_ms.snapshot();
        let ship = self.ship_ms.snapshot();
        self.service.telemetry().set_repl_status(ReplStatus {
            node_id: self.config.node_id.clone(),
            role: inner.role.label().to_string(),
            term: inner.term,
            last_seq: tip,
            durable_seq: inner.wal.synced_seq(),
            quorum: self.config.quorum,
            followers: inner
                .followers
                .iter()
                .map(|f| FollowerLag {
                    addr: f.addr.clone(),
                    ack_seq: f.ack_seq,
                    lag: tip.saturating_sub(f.ack_seq),
                })
                .collect(),
            fsync_p50_ms: fsync.window.p50(),
            fsync_p99_ms: fsync.window.p99(),
            ship_p50_ms: ship.window.p50(),
            ship_p99_ms: ship.window.p99(),
        });
    }
}

/// Why shipping to one follower failed.
enum ShipError {
    /// Transport/protocol trouble on the link; retry next round.
    Io(String),
    /// The follower knows a higher term — this leader is deposed.
    Fenced(u64),
}

/// Prefix `payload` with the 8-byte big-endian term it was written
/// under. The WAL stays payload-agnostic; this framing is the
/// replication layer's, giving every stored record (and the snapshot)
/// the `(term, seq)` identity the conflict check needs.
fn wrap_record(term: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&term.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split a stored record into its term prefix and inner payload.
fn split_record(stored: &[u8]) -> Result<(u64, &[u8])> {
    if stored.len() < 8 {
        return Err(Error::Protocol("stored record shorter than its term prefix".to_string()));
    }
    let mut term = [0u8; 8];
    term.copy_from_slice(&stored[..8]);
    Ok((u64::from_be_bytes(term), &stored[8..]))
}

/// Term of the log entry at `seq` as this node's log records it. The
/// empty-log origin (seq 0) has term 0; the snapshot point answers the
/// snapshot's term; sequences outside the log answer `None`.
fn term_at(wal: &Wal, base_term: u64, seq: u64) -> Option<u64> {
    if seq == 0 {
        return Some(0);
    }
    if seq == wal.base_seq() {
        return Some(base_term);
    }
    match wal.read_record(seq) {
        Ok(Some(record)) => split_record(&record.payload).ok().map(|(t, _)| t),
        _ => None,
    }
}

/// Clamp and validate a follower's self-reported `(ack_seq, ack_term)`
/// against the leader's own log. The ack is never trusted above the
/// leader's tip, and the follower's tip term must match the leader's
/// entry at that offset — on mismatch the ack walks back one entry so
/// the next `Append` carries a consistency check that lands on (and
/// truncates) the conflicting suffix.
fn validate_ack(wal: &Wal, base_term: u64, tip: u64, ack_seq: u64, ack_term: u64) -> u64 {
    let clamped = ack_seq.min(tip);
    if clamped < ack_seq {
        pqp_obs::counter_add("repl.ack_clamped", 1);
        return clamped;
    }
    if clamped > 0 {
        if let Some(my_term) = term_at(wal, base_term, clamped) {
            if my_term != ack_term {
                pqp_obs::counter_add("repl.ack_conflicts", 1);
                return clamped - 1;
            }
        }
    }
    clamped
}

/// Check a mutation against the schema *without* applying it: run it on
/// a clone of the user's profile and validate the result. Invalid ops
/// never reach the log, while the real store is only touched after the
/// record is durable.
fn validate_op(service: &Service, user: &UserId, op: &ProfileOp) -> Result<()> {
    let mut profile = service.profile(user.clone()).unwrap_or_else(|| Profile::new(user.as_str()));
    match op {
        ProfileOp::AddSelection { table, column, value, doi } => {
            profile.add_selection(table, column, value.clone(), *doi)?;
        }
        ProfileOp::AddJoin { from_table, from_column, to_table, to_column, doi } => {
            profile.add_join(from_table, from_column, to_table, to_column, *doi)?;
        }
        ProfileOp::Remove => return Ok(()),
    }
    profile.validate(service.database().catalog())?;
    Ok(())
}

/// Apply one mutation to the service. `Ok(removed)` mirrors the
/// single-node `Mutate` dispatch semantics.
fn apply_op(service: &Service, user: &UserId, op: &ProfileOp) -> Result<bool> {
    match op {
        ProfileOp::AddSelection { table, column, value, doi } => {
            service.add_selection(user.clone(), table, column, value.clone(), *doi).map(|_| true)
        }
        ProfileOp::AddJoin { from_table, from_column, to_table, to_column, doi } => service
            .add_join(user.clone(), from_table, from_column, to_table, to_column, *doi)
            .map(|_| true),
        ProfileOp::Remove => Ok(service.remove_profile(user.clone())),
    }
}

/// Decode + apply one WAL/shipped record.
fn apply_record(service: &Service, payload: &[u8]) -> Result<bool> {
    let record = MutationRecord::decode(payload)
        .map_err(|e| Error::Protocol(format!("bad mutation record: {e}")))?;
    apply_op(service, &UserId::from(record.user.as_str()), &record.op)
}

/// Replay recovered durable state into the service: the snapshot (if
/// any) first, then the surviving log suffix. Replay errors are counted
/// but do not abort recovery — one bad record must not take down the
/// node when the rest of the log is sound.
fn replay(service: &Service, recovery: &WalRecovery) -> Result<()> {
    if let Some(snapshot) = &recovery.snapshot {
        let (_, data) = split_record(&snapshot.data)?;
        apply_profile_snapshot(service, data)?;
    }
    for record in &recovery.records {
        let applied = split_record(&record.payload)
            .and_then(|(_, payload)| apply_record(service, payload).map(|_| ()));
        if applied.is_err() {
            pqp_obs::counter_add("repl.replay_errors", 1);
        }
    }
    Ok(())
}

/// Encode the whole profile store as snapshot bytes: `u32` user count,
/// then `(user, profile-json)` string pairs in sorted user order, so
/// identical stores encode to identical bytes.
pub(crate) fn encode_profile_snapshot(service: &Service) -> Vec<u8> {
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
pub(crate) fn apply_profile_snapshot(service: &Service, data: &[u8]) -> Result<()> {
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

/// Open a peer link with the ship timeout on connect, reads and writes.
fn connect_peer(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to nothing");
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
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
/// and a reborn node rejoins as a follower at worst.
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

    fn service() -> Arc<Service> {
        Arc::new(Service::new(generate(MovieDbConfig::default()).db))
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pqp_repl_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `ReplConfig::from_lookup` over a fixed set of variables.
    fn config_from(vars: &[(&str, &str)]) -> std::result::Result<Option<ReplConfig>, String> {
        ReplConfig::from_lookup(|name| {
            vars.iter().find(|(n, _)| *n == name).map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn env_config_rejects_set_but_invalid_values() {
        // Unset: replication is off; with only the WAL directory, defaults.
        assert!(config_from(&[]).unwrap().is_none());
        assert!(config_from(&[("PQP_REPL_ROLE", "follower")]).unwrap().is_none());
        let c = config_from(&[("PQP_WAL_DIR", "/tmp/w")]).unwrap().unwrap();
        assert_eq!((c.role, c.quorum, c.node_id.as_str()), (Role::Leader, 1, "node-1"));
        assert_eq!((c.snapshot_every, c.ship_timeout), (1024, Duration::from_millis(5_000)));

        // Valid values, trimmed.
        let c = config_from(&[
            ("PQP_WAL_DIR", " /tmp/w "),
            ("PQP_REPL_ROLE", " follower\n"),
            ("PQP_REPL_QUORUM", " 2 "),
            ("PQP_REPL_PEERS", "a:1, b:2,"),
        ])
        .unwrap()
        .unwrap();
        assert_eq!(c.wal_dir, PathBuf::from("/tmp/w"));
        assert_eq!((c.role, c.quorum), (Role::Follower, 2));
        assert_eq!(c.peers, ["a:1", "b:2"]);
        let c = config_from(&[("PQP_WAL_DIR", "/tmp/w"), ("PQP_REPL_ROLE", "leader")]);
        assert_eq!(c.unwrap().unwrap().role, Role::Leader);

        // Set but invalid: an error naming the variable and what it accepts
        // — never a silent leader, never a silent quorum of 1.
        for role in ["Follower", "folower", "FOLLOWER", "primary"] {
            let err =
                config_from(&[("PQP_WAL_DIR", "/tmp/w"), ("PQP_REPL_ROLE", role)]).expect_err(role);
            assert!(err.contains("PQP_REPL_ROLE") && err.contains(role), "{err}");
            assert!(err.contains("`leader` or `follower`"), "{err}");
        }
        for (name, value) in [
            ("PQP_REPL_QUORUM", "two"),
            ("PQP_REPL_QUORUM", "-1"),
            ("PQP_REPL_SNAPSHOT_EVERY", "1k"),
            ("PQP_REPL_SHIP_TIMEOUT_MS", "5s"),
        ] {
            let err = config_from(&[("PQP_WAL_DIR", "/tmp/w"), (name, value)]).expect_err(name);
            assert!(err.contains(name) && err.contains(value), "{err}");
            assert!(err.contains("whole number"), "{err}");
        }
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

    /// Drive one peer request over a fresh (per-call) link — the common
    /// case for tests with no token configured.
    fn peer(node: &ReplNode, request: ReplRequest) -> ReplResponse {
        node.handle_peer(request, &mut PeerLink::new())
    }

    fn record_for(user: &str, value: i64) -> Vec<u8> {
        MutationRecord {
            user: user.into(),
            op: ProfileOp::AddSelection {
                table: "MOVIE".into(),
                column: "year".into(),
                value: Value::Int(value),
                doi: 0.5,
            },
        }
        .encode()
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
        let users: Vec<String> = svc.users().iter().map(|u| u.as_str().to_string()).collect();
        assert_eq!(users, ["ana", "bob"]);
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
    fn promotion_requires_strictly_higher_term_and_persists() {
        let dir = tempdir("promote");
        let mut config = ReplConfig::new("n3", &dir);
        config.role = Role::Follower;
        let node = ReplNode::open(service(), config.clone()).unwrap();
        assert!(matches!(
            peer(&node, ReplRequest::Promote { term: 0, token: String::new() }),
            ReplResponse::Reject { .. }
        ));
        assert!(matches!(
            peer(&node, ReplRequest::Promote { term: 3, token: String::new() }),
            ReplResponse::Ok { term: 3, .. }
        ));
        assert_eq!(node.role(), Role::Leader);
        drop(node);
        // The term survives a restart, so the reborn node cannot be
        // promoted with a recycled term.
        let node = ReplNode::open(service(), config).unwrap();
        assert_eq!(node.term(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_term_appends_are_fenced() {
        let dir = tempdir("fence");
        let mut config = ReplConfig::new("n4", &dir);
        config.role = Role::Follower;
        let node = ReplNode::open(service(), config).unwrap();
        peer(&node, ReplRequest::Promote { term: 5, token: String::new() });
        let record = MutationRecord { user: "ana".into(), op: ProfileOp::Remove }.encode();
        let resp = peer(
            &node,
            ReplRequest::Append {
                term: 2,
                prev_seq: 0,
                prev_term: 0,
                entries: vec![LogEntry { term: 2, seq: 1, payload: record }],
            },
        );
        let ReplResponse::Reject { term, reason, .. } = resp else {
            panic!("stale append accepted: {resp:?}");
        };
        assert_eq!(term, 5);
        assert!(reason.contains("stale term"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_gaps_report_the_real_log_end() {
        let dir = tempdir("gap");
        let mut config = ReplConfig::new("n5", &dir);
        config.role = Role::Follower;
        let node = ReplNode::open(service(), config).unwrap();
        let record = MutationRecord { user: "ana".into(), op: ProfileOp::Remove }.encode();
        let resp = peer(
            &node,
            ReplRequest::Append {
                term: 1,
                prev_seq: 4,
                prev_term: 1,
                entries: vec![LogEntry { term: 1, seq: 5, payload: record }],
            },
        );
        let ReplResponse::Reject { last_seq: 0, reason, .. } = resp else {
            panic!("gap accepted: {resp:?}");
        };
        assert!(reason.contains("log gap"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deposed_leader_suffix_is_truncated_on_conflict() {
        let dir = tempdir("conflict");
        let mut config = ReplConfig::new("n7", &dir);
        config.role = Role::Follower;
        let svc = service();
        let node = ReplNode::open(Arc::clone(&svc), config).unwrap();
        // The old leader (term 1) replicated seqs 1–2 here before dying;
        // seq 2 was durable-but-unacked and the new leader never saw it.
        let resp = peer(
            &node,
            ReplRequest::Append {
                term: 1,
                prev_seq: 0,
                prev_term: 0,
                entries: vec![
                    LogEntry { term: 1, seq: 1, payload: record_for("ana", 1999) },
                    LogEntry { term: 1, seq: 2, payload: record_for("bob", 2001) },
                ],
            },
        );
        assert!(matches!(resp, ReplResponse::Ok { ack_seq: 2, ack_term: 1, .. }), "{resp:?}");
        // The new leader (term 3) holds seq 1 but a *different* seq 2.
        // Its append must truncate bob's entry and install cara's.
        let resp = peer(
            &node,
            ReplRequest::Append {
                term: 3,
                prev_seq: 1,
                prev_term: 1,
                entries: vec![LogEntry { term: 3, seq: 2, payload: record_for("cara", 1985) }],
            },
        );
        assert!(matches!(resp, ReplResponse::Ok { ack_seq: 2, ack_term: 3, .. }), "{resp:?}");
        let users: Vec<String> = svc.users().iter().map(|u| u.as_str().to_string()).collect();
        assert_eq!(users, ["ana", "cara"], "bob's orphaned mutation is gone");
        // And the durable log agrees after a restart.
        let svc2 = service();
        let reborn = ReplNode::open(Arc::clone(&svc2), ReplConfig::new("n7", &dir)).unwrap();
        assert_eq!(reborn.status().last_seq, 2);
        let users: Vec<String> = svc2.users().iter().map(|u| u.as_str().to_string()).collect();
        assert_eq!(users, ["ana", "cara"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hello_reconciles_a_tail_beyond_the_leaders_tip() {
        let dir = tempdir("hello_reconcile");
        let mut config = ReplConfig::new("n8", &dir);
        config.role = Role::Follower;
        let svc = service();
        let node = ReplNode::open(Arc::clone(&svc), config).unwrap();
        peer(
            &node,
            ReplRequest::Append {
                term: 1,
                prev_seq: 0,
                prev_term: 0,
                entries: vec![
                    LogEntry { term: 1, seq: 1, payload: record_for("ana", 1999) },
                    LogEntry { term: 1, seq: 2, payload: record_for("bob", 2001) },
                ],
            },
        );
        // New leader's log ends at seq 1: the handshake itself must cut
        // the follower's longer tail instead of trusting its ack.
        let resp = peer(
            &node,
            ReplRequest::Hello {
                version: PROTOCOL_VERSION,
                node_id: "leader".into(),
                term: 2,
                token: String::new(),
                last_seq: 1,
                last_term: 1,
            },
        );
        assert!(matches!(resp, ReplResponse::Ok { ack_seq: 1, ack_term: 1, .. }), "{resp:?}");
        assert_eq!(node.status().last_seq, 1);
        let users: Vec<String> = svc.users().iter().map(|u| u.as_str().to_string()).collect();
        assert_eq!(users, ["ana"], "bob's orphaned mutation rolled back");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_changing_frames_require_the_cluster_token() {
        let dir = tempdir("auth");
        let mut config = ReplConfig::new("n9", &dir);
        config.role = Role::Follower;
        config.token = "s3cret".to_string();
        let node = ReplNode::open(service(), config).unwrap();
        // Promote with a wrong token is refused outright.
        let resp = peer(&node, ReplRequest::Promote { term: 9, token: "wrong".into() });
        let ReplResponse::Reject { reason, .. } = resp else {
            panic!("unauthenticated promote accepted: {resp:?}");
        };
        assert!(reason.contains("authentication failed"));
        assert_eq!(node.role(), Role::Follower);
        // Append on a link that never authenticated is refused.
        let mut link = PeerLink::new();
        let resp = node.handle_peer(
            ReplRequest::Append {
                term: 1,
                prev_seq: 0,
                prev_term: 0,
                entries: vec![LogEntry { term: 1, seq: 1, payload: record_for("ana", 1999) }],
            },
            &mut link,
        );
        let ReplResponse::Reject { reason, .. } = resp else {
            panic!("unauthenticated append accepted: {resp:?}");
        };
        assert!(reason.contains("unauthenticated"));
        // Status stays open — it is the router's health probe.
        assert!(matches!(
            node.handle_peer(ReplRequest::Status, &mut link),
            ReplResponse::Status(_)
        ));
        // Hello with the right token authenticates the link; the same
        // append is then honored.
        let resp = node.handle_peer(
            ReplRequest::Hello {
                version: PROTOCOL_VERSION,
                node_id: "leader".into(),
                term: 1,
                token: "s3cret".into(),
                last_seq: 0,
                last_term: 0,
            },
            &mut link,
        );
        assert!(matches!(resp, ReplResponse::Ok { .. }), "{resp:?}");
        let resp = node.handle_peer(
            ReplRequest::Append {
                term: 1,
                prev_seq: 0,
                prev_term: 0,
                entries: vec![LogEntry { term: 1, seq: 1, payload: record_for("ana", 1999) }],
            },
            &mut link,
        );
        assert!(matches!(resp, ReplResponse::Ok { ack_seq: 1, .. }), "{resp:?}");
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
