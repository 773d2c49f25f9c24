//! The replication protocol as a state machine, with no socket, file,
//! clock, WAL or service. [`ReplCore::step`] takes one [`Event`] and
//! returns the [`Effect`]s to execute in order. A batch ends on an awaited
//! effect (`Write`, `Send`, `SendSnapshot`) or a terminal one (`Reply`,
//! `Finish`); every other effect must succeed, or the driver aborts the
//! operation and reloads the log from disk.

use pqp_wire::repl::{LogEntry, NodeStatus, ReplRequest, ReplResponse, Role};
use pqp_wire::PROTOCOL_VERSION;

use super::ReplConfig;

/// Catch-up attempts per follower per ship round before giving up on it
/// for this mutation (it retries on the next one).
const SHIP_ATTEMPTS: usize = 4;

/// One live log record: the term it was written under and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Record {
    pub(crate) term: u64,
    pub(crate) payload: Vec<u8>,
}

/// A durable log: the snapshot point and the records after it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LogState {
    pub(crate) base_seq: u64,
    pub(crate) base_term: u64,
    pub(crate) records: Vec<Record>,
}

impl LogState {
    /// An empty log after a snapshot at `(base_seq, base_term)`.
    fn at(base_seq: u64, base_term: u64) -> LogState {
        LogState { base_seq, base_term, records: Vec::new() }
    }
}

#[derive(Debug)]
pub(crate) enum Event {
    /// A client mutation the driver validated, as its encoded record.
    Mutate(Vec<u8>),
    /// A peer request; `authed` when its link presented the token.
    Peer { request: ReplRequest, authed: bool },
    /// The outcome of the awaited `Write`, with the error's text.
    Written(Result<(), String>),
    /// A follower's answer to the awaited `Send` or `SendSnapshot`.
    Answer(Result<ReplResponse, String>),
}

#[derive(Debug, PartialEq)]
pub(crate) enum Effect {
    /// Append the records to the WAL, then fsync once. Awaited.
    Write(Vec<Record>),
    /// Exchange `request` with follower `peer` (indexing
    /// `ReplConfig::peers`); a `Hello` opens a fresh link. Awaited.
    Send { peer: usize, request: ReplRequest },
    /// Exchange a `Snapshot` of the applied store with `peer`. Awaited.
    SendSnapshot { peer: usize, term: u64, last_seq: u64, last_term: u64 },
    /// Apply the client's own (now durable) mutation to the store.
    ApplyOwn,
    /// Apply one shipped record to the store (a failure is counted).
    Apply(Vec<u8>),
    /// Rebuild the store from the snapshot plus these live records.
    Rebuild(Vec<Vec<u8>>),
    /// Persist the term, best-effort.
    PersistTerm(u64),
    /// Drop every WAL record from `from` on.
    Truncate { from: u64 },
    /// Snapshot the applied store at the log tip under `term`; cut the log.
    Compact { term: u64 },
    /// Replace the WAL and the store with a peer's snapshot of `1..=seq`.
    Install { seq: u64, term: u64, data: Vec<u8> },
    /// Answer the peer request. Terminal.
    Reply(ReplResponse),
    /// Answer the client mutation: the acked seq, or why the node cannot
    /// ack it (the failed `Write`'s error, or why it is unavailable).
    Finish(Result<u64, String>),
}

/// One follower as the leader tracks it.
#[derive(Debug, Clone)]
pub(crate) struct Follower {
    /// How far its log is known to match this one.
    pub(crate) ack_seq: u64,
    linked: bool,
    /// Appends cannot reconcile its log (its snapshot reaches past where
    /// a batch could hang off): ship the whole state.
    needs_snapshot: bool,
}

/// A ship round in progress.
#[derive(Debug, Default)]
struct Ship {
    seq: u64,
    peer: usize,
    attempt: usize,
    /// The awaited answer is the handshake's.
    hello: bool,
    failures: Vec<String>,
    fenced: Option<u64>,
}

/// The operation awaiting the driver's answer.
#[derive(Debug)]
enum Op {
    Idle,
    /// A client mutation's record at this seq is being written.
    Mutation(u64),
    /// A follower's batch from `first` is being written; `rebuild` when a
    /// conflict cut history under the store.
    Batch {
        first: u64,
        rebuild: bool,
    },
    Ship(Ship),
}

/// One node's role, term and `(term, payload)` of every live record since
/// the snapshot point (at most `snapshot_every`: every node compacts), so
/// shipping, the consistency check and ack validation never read the WAL.
#[derive(Debug)]
pub(crate) struct ReplCore {
    config: ReplConfig,
    role: Role,
    term: u64,
    base_seq: u64,
    base_term: u64,
    /// Records `base_seq + 1 ..= last_seq()`.
    log: Vec<Record>,
    synced_seq: u64,
    followers: Vec<Follower>,
    op: Op,
}

impl ReplCore {
    /// A core over a recovered log. The term is at least the log tip's:
    /// the term file is best-effort, the log is not.
    pub(crate) fn new(config: ReplConfig, term: u64, log: LogState) -> ReplCore {
        let followers = config.peers.iter().map(|_| Follower {
            ack_seq: 0,
            linked: false,
            needs_snapshot: false,
        });
        let mut core = ReplCore {
            role: config.role,
            followers: followers.collect(),
            config,
            term: 0,
            base_seq: 0,
            base_term: 0,
            log: Vec::new(),
            synced_seq: 0,
            op: Op::Idle,
        };
        core.reset_log(log);
        core.term = term.max(core.last_term());
        core
    }

    /// Replace the log with what the disk holds, and forget any operation
    /// in progress.
    pub(crate) fn reset_log(&mut self, log: LogState) {
        (self.base_seq, self.base_term, self.log) = (log.base_seq, log.base_term, log.records);
        self.synced_seq = self.last_seq();
        self.op = Op::Idle;
    }

    /// Forget the operation in progress: the driver answered it itself.
    pub(crate) fn abort(&mut self) {
        self.op = Op::Idle;
    }

    pub(crate) fn role(&self) -> Role {
        self.role
    }

    pub(crate) fn last_seq(&self) -> u64 {
        self.base_seq + self.log.len() as u64
    }

    pub(crate) fn last_term(&self) -> u64 {
        self.log.last().map_or(self.base_term, |r| r.term)
    }

    pub(crate) fn followers(&self) -> &[Follower] {
        &self.followers
    }

    pub(crate) fn status(&self) -> NodeStatus {
        NodeStatus {
            node_id: self.config.node_id.clone(),
            role: self.role,
            term: self.term,
            last_seq: self.last_seq(),
            durable_seq: self.synced_seq,
            last_term: self.last_term(),
        }
    }

    /// A refusal carrying this node's term and log end.
    pub(crate) fn reject(&self, reason: impl Into<String>) -> ReplResponse {
        ReplResponse::Reject { term: self.term, last_seq: self.last_seq(), reason: reason.into() }
    }

    fn ok(&self) -> ReplResponse {
        ReplResponse::Ok { term: self.term, ack_seq: self.last_seq(), ack_term: self.last_term() }
    }

    /// Term of the entry at `seq`: 0 at the empty-log origin, the
    /// snapshot's at the snapshot point, `None` outside the log.
    fn term_at(&self, seq: u64) -> Option<u64> {
        match seq {
            0 => Some(0),
            s if s == self.base_seq => Some(self.base_term),
            s if s < self.base_seq => None,
            s => self.log.get((s - self.base_seq - 1) as usize).map(|r| r.term),
        }
    }

    pub(crate) fn step(&mut self, event: Event) -> Vec<Effect> {
        let mut out = Vec::new();
        match (std::mem::replace(&mut self.op, Op::Idle), event) {
            (Op::Idle, Event::Mutate(payload)) => self.mutate(payload, &mut out),
            (Op::Idle, Event::Peer { request, authed }) => {
                let reply = self.peer(request, authed, &mut out);
                out.extend(reply.map(Effect::Reply));
            }
            (Op::Mutation(seq), Event::Written(Err(reason))) => {
                // Not durable: take it back off the log so a later fsync
                // cannot make durable a record the store never applied.
                self.truncate(seq, &mut out);
                out.push(Effect::Finish(Err(reason)));
            }
            (Op::Mutation(seq), Event::Written(Ok(()))) => {
                self.synced_seq = seq;
                out.push(Effect::ApplyOwn);
                self.ship(Ship { seq, ..Ship::default() }, &mut out);
            }
            (Op::Batch { first, rebuild }, Event::Written(Err(reason))) => {
                // Records that did not become durable come back off the
                // log; the leader re-ships them.
                self.truncate(first, &mut out);
                if rebuild {
                    out.push(self.rebuild());
                }
                out.push(Effect::Reply(self.reject(reason)));
            }
            (Op::Batch { first, rebuild }, Event::Written(Ok(()))) => {
                self.synced_seq = self.last_seq();
                if rebuild {
                    out.push(self.rebuild());
                } else {
                    let fresh = &self.log[(first - self.base_seq - 1) as usize..];
                    out.extend(fresh.iter().map(|r| Effect::Apply(r.payload.clone())));
                }
                self.maybe_compact(&mut out);
                out.push(Effect::Reply(self.ok()));
            }
            (Op::Ship(ship), Event::Answer(answer)) => self.answer(ship, answer, &mut out),
            (op, event) => unreachable!("{event:?} does not resume {op:?}"),
        }
        out
    }

    /// Order of operations: write (append + fsync), apply, ship, count.
    fn mutate(&mut self, payload: Vec<u8>, out: &mut Vec<Effect>) {
        if self.role != Role::Leader {
            let reason = format!("not the leader (follower at term {})", self.term);
            return out.push(Effect::Finish(Err(reason)));
        }
        let record = Record { term: self.term, payload };
        out.push(Effect::Write(vec![record.clone()]));
        self.log.push(record);
        self.op = Op::Mutation(self.last_seq());
    }

    /// Drive every lagging follower to the log tip, one exchange per
    /// batch. A follower that cannot be reached this round is skipped (its
    /// ack stays behind); a higher term fences this leader.
    fn ship(&mut self, mut ship: Ship, out: &mut Vec<Effect>) {
        let tip = self.last_seq();
        while let Some(follower) = self.followers.get(ship.peer) {
            if follower.ack_seq >= tip {
                (ship.peer, ship.attempt) = (ship.peer + 1, 0);
                continue;
            }
            if ship.attempt == SHIP_ATTEMPTS {
                let reason =
                    format!("follower {} still behind after retries", self.config.peers[ship.peer]);
                self.ship_failed(&mut ship, reason);
                continue;
            }
            let (peer, ack) = (ship.peer, follower.ack_seq);
            ship.hello = !follower.linked;
            let whole = !ship.hello && (follower.needs_snapshot || ack < self.base_seq);
            let follower = &mut self.followers[peer];
            follower.linked = true;
            follower.needs_snapshot &= !whole;
            out.push(if ship.hello {
                let request = ReplRequest::Hello {
                    version: PROTOCOL_VERSION,
                    node_id: self.config.node_id.clone(),
                    term: self.term,
                    token: self.config.token.clone(),
                    last_seq: tip,
                    last_term: self.last_term(),
                };
                Effect::Send { peer, request }
            } else if whole {
                // Compacted past it, or its own snapshot is in the way:
                // there is no entry to hang a consistency check off.
                let (term, last_term) = (self.term, self.last_term());
                Effect::SendSnapshot { peer, term, last_seq: tip, last_term }
            } else {
                let entries = self.log[(ack - self.base_seq) as usize..].iter().zip(ack + 1..);
                let entries = entries.map(|(r, seq)| LogEntry {
                    term: r.term,
                    seq,
                    payload: r.payload.clone(),
                });
                let prev_term = self.term_at(ack).unwrap_or(0);
                let request = ReplRequest::Append {
                    term: self.term,
                    prev_seq: ack,
                    prev_term,
                    entries: entries.collect(),
                };
                Effect::Send { peer, request }
            });
            self.op = Op::Ship(ship);
            return;
        }
        self.finish_mutation(ship, out);
    }

    /// Fold one follower's answer into its slot, then continue the round.
    fn answer(
        &mut self,
        mut ship: Ship,
        answer: Result<ReplResponse, String>,
        out: &mut Vec<Effect>,
    ) {
        let (tip, term) = (self.last_seq(), self.term);
        // The follower's tip term must match this log's entry there; on
        // mismatch the ack walks back one entry so the next `Append`'s
        // consistency check lands on the conflict.
        let conflict = matches!(&answer, Ok(ReplResponse::Ok { ack_seq, ack_term, .. })
            if *ack_seq > 0 && matches!(self.term_at(*ack_seq), Some(t) if t != *ack_term));
        ship.attempt += usize::from(!ship.hello);
        let follower = &mut self.followers[ship.peer];
        let sent_from = follower.ack_seq;
        match answer {
            // A log beyond this tip the handshake could not cut: its entry
            // at the tip is unknown, so it never counts.
            Ok(ReplResponse::Ok { ack_seq, .. }) if ack_seq > tip => {
                pqp_obs::counter_add("repl.ack_clamped", 1);
                follower.ack_seq = sent_from.min(tip - 1);
                follower.needs_snapshot = true;
            }
            Ok(ReplResponse::Ok { ack_seq, .. }) => {
                if conflict {
                    pqp_obs::counter_add("repl.ack_conflicts", 1);
                }
                follower.ack_seq = ack_seq - u64::from(conflict);
            }
            Ok(ReplResponse::Reject { term: higher, .. }) if higher > term => {
                ship.fenced = ship.fenced.max(Some(higher));
                follower.linked = false;
                (ship.peer, ship.attempt) = (ship.peer + 1, 0);
            }
            Ok(ReplResponse::Reject { reason, .. }) if ship.hello => {
                self.ship_failed(&mut ship, format!("handshake rejected: {reason}"));
            }
            // Where the follower's log ends (a gap, or a walk-back after a
            // conflict cut): a resume point below the tip, never an ack.
            // A log that still ends at or past the batch's anchor cannot
            // be reconciled by appends.
            Ok(ReplResponse::Reject { last_seq, .. }) => {
                follower.ack_seq = last_seq.min(tip - 1);
                follower.needs_snapshot |= last_seq >= sent_from;
            }
            Ok(ReplResponse::Status(_)) => {
                let what = if ship.hello { "hello" } else { "append" };
                self.ship_failed(&mut ship, format!("status answer to {what}"));
            }
            Err(reason) => self.ship_failed(&mut ship, reason),
        }
        self.ship(ship, out);
    }

    fn ship_failed(&mut self, ship: &mut Ship, reason: String) {
        pqp_obs::counter_add("repl.ship_failed", 1);
        self.followers[ship.peer].linked = false;
        ship.failures.push(format!("{}: {reason}", self.config.peers[ship.peer]));
        (ship.peer, ship.attempt) = (ship.peer + 1, 0);
    }

    fn finish_mutation(&mut self, ship: Ship, out: &mut Vec<Effect>) {
        if let Some(higher) = ship.fenced {
            (self.term, self.role) = (higher, Role::Follower);
            out.push(Effect::PersistTerm(higher));
            pqp_obs::counter_add("repl.fenced", 1);
            out.push(Effect::Finish(Err(format!("fenced by newer term {higher}; stepping down"))));
            return;
        }
        let seq = ship.seq;
        let acked = 1 + self.followers.iter().filter(|f| f.ack_seq >= seq).count();
        self.maybe_compact(out);
        let quorum = self.config.quorum;
        out.push(Effect::Finish(if acked < quorum {
            pqp_obs::counter_add("repl.quorum_failures", 1);
            let detail: String = ship.failures.iter().map(|f| format!("; {f}")).collect();
            Err(format!(
                "quorum not reached: {acked}/{quorum} nodes hold seq {seq} \
                 (durable on leader; a retry is safe){detail}"
            ))
        } else {
            Ok(seq)
        }));
    }

    /// Compact once the live log reaches `snapshot_every` records; the
    /// store corresponds exactly to the log tip here.
    fn maybe_compact(&mut self, out: &mut Vec<Effect>) {
        if self.log.len() as u64 >= self.config.snapshot_every {
            out.push(Effect::Compact { term: self.last_term() });
            self.reset_log(LogState::at(self.last_seq(), self.last_term()));
        }
    }

    /// `None` while a batch is being written.
    fn peer(
        &mut self,
        request: ReplRequest,
        authed: bool,
        out: &mut Vec<Effect>,
    ) -> Option<ReplResponse> {
        let authed = authed || self.config.token.is_empty();
        Some(match request {
            ReplRequest::Status => ReplResponse::Status(self.status()),
            ReplRequest::Hello { version, node_id, term, token, last_seq, last_term } => {
                if version != PROTOCOL_VERSION {
                    return Some(self.reject(format!(
                        "unsupported protocol version {version} (node speaks {PROTOCOL_VERSION})"
                    )));
                }
                if !self.token_ok(&token) {
                    pqp_obs::counter_add("repl.auth_failures", 1);
                    return Some(self.reject(format!("authentication failed for {node_id}")));
                }
                self.fence(term, "hello", out)
                    .unwrap_or_else(|| self.hello(term, last_seq, last_term, out))
            }
            ReplRequest::Append { .. } if !authed => self.unauthenticated("append"),
            ReplRequest::Snapshot { .. } if !authed => self.unauthenticated("snapshot"),
            ReplRequest::Append { term, prev_seq, prev_term, entries } => {
                match self.fence(term, "append", out) {
                    Some(reject) => reject,
                    None => return self.append(prev_seq, prev_term, entries, out),
                }
            }
            ReplRequest::Snapshot { term, last_seq, last_term, data } => {
                let fenced = self.fence(term, "snapshot", out);
                fenced.unwrap_or_else(|| self.snapshot(term, last_seq, last_term, data, out))
            }
            ReplRequest::Promote { term, token } => self.promote(term, &token, out),
        })
    }

    fn unauthenticated(&self, what: &str) -> ReplResponse {
        pqp_obs::counter_add("repl.auth_failures", 1);
        self.reject(format!("unauthenticated {what}: present the cluster token in Hello first"))
    }

    /// Constant-time-ish comparison against the configured shared secret;
    /// an empty configured token disables the check.
    fn token_ok(&self, supplied: &str) -> bool {
        let want = self.config.token.as_bytes();
        let got = supplied.as_bytes();
        let mut diff = want.len() ^ got.len();
        for (i, byte) in want.iter().enumerate() {
            diff |= (byte ^ got.get(i).copied().unwrap_or(0)) as usize;
        }
        want.is_empty() || diff == 0
    }

    /// Reject stale terms, refuse a second leader at this term, adopt
    /// higher terms (stepping down if this node led).
    fn fence(&mut self, term: u64, what: &str, out: &mut Vec<Effect>) -> Option<ReplResponse> {
        if term < self.term {
            return Some(
                self.reject(format!("stale term {term} on {what} (current {})", self.term)),
            );
        }
        if term == self.term && self.role == Role::Leader {
            // Two leaders at one term cannot happen under promote-by-
            // higher-term; refuse rather than corrupt the log.
            return Some(self.reject(format!("this node leads term {term}; split brain refused")));
        }
        if term > self.term {
            if self.role == Role::Leader {
                pqp_obs::counter_add("repl.stepdowns", 1);
            }
            (self.term, self.role) = (term, Role::Follower);
            out.push(Effect::PersistTerm(term));
        }
        None
    }

    /// Reconcile this log's tail against the leader's tip identity. A tail
    /// beyond the tip written under an older term, or a tip entry whose
    /// term the leader disagrees with, is a deposed leader's unreplicated
    /// suffix: it is cut. A tail at the leader's own term was shipped
    /// after a delayed `Hello` was sent and stays; a cut into the snapshot
    /// is left to the leader, which ships its state.
    fn hello(
        &mut self,
        term: u64,
        leader_seq: u64,
        leader_term: u64,
        out: &mut Vec<Effect>,
    ) -> ReplResponse {
        let last = self.last_seq();
        if last > leader_seq && self.last_term() < term && leader_seq >= self.base_seq {
            self.drop_suffix(leader_seq + 1, out);
        } else if last == leader_seq && last > self.base_seq && self.last_term() != leader_term {
            self.drop_suffix(last, out);
        }
        self.ok()
    }

    /// Raft's AppendEntries: check the `(prev_seq, prev_term)` the batch
    /// hangs off (cutting a conflicting suffix), skip entries already
    /// held, cut a conflict in the overlap, then write the rest with one
    /// fsync and apply them. `None` while the write is awaited.
    fn append(
        &mut self,
        mut prev_seq: u64,
        mut prev_term: u64,
        mut entries: Vec<LogEntry>,
        out: &mut Vec<Effect>,
    ) -> Option<ReplResponse> {
        let last = self.last_seq();
        if prev_seq > last {
            return Some(
                self.reject(format!("log gap: batch hangs off seq {prev_seq}, log ends at {last}")),
            );
        }
        if let Some((e, want)) = entries.iter().zip(prev_seq + 1..).find(|(e, s)| e.seq != *s) {
            return Some(self.reject(format!("log gap: got seq {}, expected {want}", e.seq)));
        }
        if prev_seq < self.base_seq {
            // Below the snapshot point: the batch's entry there decides.
            let base = self.base_seq;
            match entries.iter().find(|e| e.seq == base).map(|e| e.term) {
                Some(t) if t == self.base_term => {
                    entries.retain(|e| e.seq > base);
                    (prev_seq, prev_term) = (base, t);
                }
                Some(_) => return Some(self.reject("log conflict at the snapshot point")),
                None => return Some(self.reject("batch predates the local snapshot point")),
            }
        }
        if self.term_at(prev_seq) != Some(prev_term) {
            if prev_seq == self.base_seq {
                return Some(self.reject("log conflict at the snapshot point"));
            }
            // Cut from the conflict and report the new end, so the leader
            // walks back.
            self.drop_suffix(prev_seq, out);
            return Some(self.reject(format!(
                "log conflict at seq {prev_seq}: local term differs from leader's \
                 {prev_term}; suffix truncated"
            )));
        }
        let mut rebuild = false;
        let mut fresh = Vec::new();
        for entry in entries {
            match self.term_at(entry.seq) {
                Some(term) if term == entry.term => continue, // Re-shipped, held.
                // Conflict in the overlap: the deposed suffix starts here.
                Some(_) => {
                    pqp_obs::counter_add("repl.log_truncations", 1);
                    self.truncate(entry.seq, out);
                    rebuild = true;
                }
                None => {}
            }
            let record = Record { term: entry.term, payload: entry.payload };
            fresh.push(record.clone());
            self.log.push(record);
        }
        let first = self.last_seq() + 1 - fresh.len() as u64;
        out.push(Effect::Write(fresh));
        self.op = Op::Batch { first, rebuild };
        None
    }

    /// Adopt a full snapshot, unless this log already holds it (a delayed
    /// one: installing it would cut what was shipped since).
    fn snapshot(
        &mut self,
        term: u64,
        last_seq: u64,
        last_term: u64,
        data: Vec<u8>,
        out: &mut Vec<Effect>,
    ) -> ReplResponse {
        let held = match self.term_at(last_seq) {
            Some(t) => t == last_term,
            // Compacted past it under this leader's term: a prefix.
            None => last_seq < self.base_seq && self.base_term == term,
        };
        if !held {
            out.push(Effect::Install { seq: last_seq, term: last_term, data });
            self.reset_log(LogState::at(last_seq, last_term));
            pqp_obs::counter_add("repl.snapshots_received", 1);
        }
        self.ok()
    }

    fn promote(&mut self, term: u64, token: &str, out: &mut Vec<Effect>) -> ReplResponse {
        if !self.token_ok(token) {
            pqp_obs::counter_add("repl.auth_failures", 1);
            return self.reject("authentication failed");
        }
        if term <= self.term {
            return self
                .reject(format!("promotion term {term} not above current term {}", self.term));
        }
        (self.term, self.role) = (term, Role::Leader);
        out.push(Effect::PersistTerm(term));
        // Follower offsets are stale guesses now; each link re-handshakes.
        for follower in &mut self.followers {
            (follower.linked, follower.ack_seq, follower.needs_snapshot) = (false, 0, false);
        }
        pqp_obs::counter_add("repl.promotions", 1);
        self.ok()
    }

    /// Drop records from `from` on (`from > base_seq`; past the tip, a
    /// no-op).
    fn truncate(&mut self, from: u64, out: &mut Vec<Effect>) {
        if from <= self.last_seq() {
            self.log.truncate((from - self.base_seq - 1) as usize);
            self.synced_seq = self.synced_seq.min(from - 1);
            out.push(Effect::Truncate { from });
        }
    }

    /// Cut the suffix from `from` on and rebuild the store from the rest.
    fn drop_suffix(&mut self, from: u64, out: &mut Vec<Effect>) {
        pqp_obs::counter_add("repl.log_truncations", 1);
        self.truncate(from, out);
        out.push(self.rebuild());
    }

    fn rebuild(&self) -> Effect {
        Effect::Rebuild(self.log.iter().map(|r| r.payload.clone()).collect())
    }
}

#[cfg(test)]
impl ReplCore {
    pub(crate) fn term(&self) -> u64 {
        self.term
    }

    pub(crate) fn base_seq(&self) -> u64 {
        self.base_seq
    }

    pub(crate) fn records(&self) -> &[Record] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(role: Role, token: &str) -> ReplCore {
        let config = ReplConfig { role, token: token.into(), ..ReplConfig::new("n", "") };
        ReplCore::new(config, 0, LogState::default())
    }

    fn follower() -> ReplCore {
        core(Role::Follower, "")
    }

    fn entry(term: u64, seq: u64, payload: &[u8]) -> LogEntry {
        LogEntry { term, seq, payload: payload.to_vec() }
    }

    /// Step a peer request with every awaited WAL effect succeeding;
    /// returns every effect and the reply.
    fn peer(
        core: &mut ReplCore,
        request: ReplRequest,
        authed: bool,
    ) -> (Vec<Effect>, ReplResponse) {
        let mut all = Vec::new();
        let mut effects = core.step(Event::Peer { request, authed });
        loop {
            let last = effects.pop();
            all.extend(effects);
            match last {
                Some(Effect::Reply(reply)) => return (all, reply),
                Some(write @ Effect::Write(_)) => {
                    all.push(write);
                    effects = core.step(Event::Written(Ok(())));
                }
                other => panic!("unexpected batch end {other:?}"),
            }
        }
    }

    fn append(term: u64, prev_seq: u64, prev_term: u64, entries: Vec<LogEntry>) -> ReplRequest {
        ReplRequest::Append { term, prev_seq, prev_term, entries }
    }

    fn hello(term: u64, token: &str, last_seq: u64, last_term: u64) -> ReplRequest {
        ReplRequest::Hello {
            version: PROTOCOL_VERSION,
            node_id: "leader".into(),
            term,
            token: token.into(),
            last_seq,
            last_term,
        }
    }

    fn payloads(core: &ReplCore) -> Vec<&[u8]> {
        core.records().iter().map(|r| r.payload.as_slice()).collect()
    }

    #[test]
    fn promotion_requires_a_strictly_higher_term_and_persists_it() {
        let mut node = follower();
        let (_, reply) =
            peer(&mut node, ReplRequest::Promote { term: 0, token: String::new() }, false);
        assert!(matches!(reply, ReplResponse::Reject { .. }), "{reply:?}");
        let (effects, reply) =
            peer(&mut node, ReplRequest::Promote { term: 3, token: String::new() }, false);
        assert!(matches!(reply, ReplResponse::Ok { term: 3, .. }), "{reply:?}");
        assert_eq!(effects, [Effect::PersistTerm(3)]);
        assert_eq!((node.role(), node.term()), (Role::Leader, 3));
    }

    #[test]
    fn a_reopened_term_is_at_least_the_log_tips() {
        let log = LogState {
            base_seq: 0,
            base_term: 0,
            records: vec![Record { term: 5, payload: b"a".to_vec() }],
        };
        assert_eq!(ReplCore::new(follower().config, 0, log).term(), 5);
    }

    #[test]
    fn followers_refuse_client_mutations() {
        let mut node = follower();
        assert_eq!(
            node.step(Event::Mutate(b"m".to_vec())),
            [Effect::Finish(Err("not the leader (follower at term 0)".into()))]
        );
    }

    #[test]
    fn stale_term_appends_are_fenced() {
        let mut node = follower();
        peer(&mut node, ReplRequest::Promote { term: 5, token: String::new() }, false);
        let (_, reply) = peer(&mut node, append(2, 0, 0, vec![entry(2, 1, b"r")]), true);
        let ReplResponse::Reject { term, reason, .. } = reply else {
            panic!("stale append accepted: {reply:?}");
        };
        assert_eq!(term, 5);
        assert!(reason.contains("stale term"), "{reason}");
        assert_eq!(node.last_seq(), 0);
    }

    #[test]
    fn a_higher_term_deposes_a_leader() {
        let mut node = core(Role::Leader, "");
        let (effects, reply) = peer(&mut node, append(4, 0, 0, vec![]), true);
        assert!(matches!(reply, ReplResponse::Ok { term: 4, .. }), "{reply:?}");
        assert_eq!(effects, [Effect::PersistTerm(4), Effect::Write(vec![])]);
        assert_eq!(node.role(), Role::Follower);
        let (_, reply) = peer(&mut core(Role::Leader, ""), append(0, 0, 0, vec![]), true);
        let ReplResponse::Reject { reason, .. } = reply else { panic!("{reply:?}") };
        assert!(reason.contains("split brain"), "{reason}");
    }

    #[test]
    fn append_gaps_report_the_real_log_end() {
        let mut node = follower();
        let (_, reply) = peer(&mut node, append(1, 4, 1, vec![entry(1, 5, b"r")]), true);
        let ReplResponse::Reject { last_seq: 0, reason, .. } = reply else {
            panic!("gap accepted: {reply:?}");
        };
        assert!(reason.contains("log gap"), "{reason}");
        let (_, reply) = peer(&mut node, append(1, 0, 0, vec![entry(1, 2, b"r")]), true);
        let ReplResponse::Reject { last_seq: 0, reason, .. } = reply else { panic!("{reply:?}") };
        assert!(reason.contains("got seq 2"), "{reason}");
    }

    #[test]
    fn appended_entries_sync_once_then_apply_and_reshipped_ones_are_skipped() {
        let mut node = follower();
        let batch = vec![entry(1, 1, b"a"), entry(1, 2, b"b")];
        let (effects, reply) = peer(&mut node, append(1, 0, 0, batch.clone()), true);
        assert!(matches!(reply, ReplResponse::Ok { ack_seq: 2, ack_term: 1, .. }), "{reply:?}");
        let record = |p: &[u8]| Record { term: 1, payload: p.to_vec() };
        assert_eq!(
            effects,
            [
                Effect::PersistTerm(1),
                Effect::Write(vec![record(b"a"), record(b"b")]),
                Effect::Apply(b"a".to_vec()),
                Effect::Apply(b"b".to_vec())
            ]
        );
        let (effects, reply) = peer(&mut node, append(1, 0, 0, batch), true);
        assert!(matches!(reply, ReplResponse::Ok { ack_seq: 2, .. }), "{reply:?}");
        assert_eq!(effects, [Effect::Write(vec![])], "nothing re-appended or re-applied");
    }

    #[test]
    fn deposed_leader_suffix_is_truncated_on_conflict() {
        let mut node = follower();
        // The old leader (term 1) replicated seqs 1–2 here before dying;
        // seq 2 was durable-but-unacked and the new leader never saw it.
        peer(&mut node, append(1, 0, 0, vec![entry(1, 1, b"ana"), entry(1, 2, b"bob")]), true);
        // The new leader (term 3) holds seq 1 but a different seq 2.
        let (effects, reply) = peer(&mut node, append(3, 1, 1, vec![entry(3, 2, b"cara")]), true);
        assert!(matches!(reply, ReplResponse::Ok { ack_seq: 2, ack_term: 3, .. }), "{reply:?}");
        assert!(effects.contains(&Effect::Truncate { from: 2 }), "{effects:?}");
        assert_eq!(
            effects.last(),
            Some(&Effect::Rebuild(vec![b"ana".to_vec(), b"cara".to_vec()])),
            "bob's mutation leaves the store"
        );
        assert_eq!(payloads(&node), [b"ana".as_slice(), b"cara"]);
        // A batch hanging off a conflicting entry cuts it and walks back.
        let (effects, reply) = peer(&mut node, append(4, 2, 4, vec![entry(4, 3, b"dan")]), true);
        let ReplResponse::Reject { last_seq: 1, reason, .. } = reply else { panic!("{reply:?}") };
        assert!(reason.contains("log conflict at seq 2"), "{reason}");
        assert!(effects.contains(&Effect::Truncate { from: 2 }), "{effects:?}");
    }

    #[test]
    fn failed_appends_and_fsyncs_take_the_batch_back_off_the_log() {
        let mut node = follower();
        let batch = vec![entry(1, 1, b"a"), entry(1, 2, b"b")];
        node.step(Event::Peer { request: append(1, 0, 0, batch), authed: true });
        let effects = node.step(Event::Written(Err("fsync failed: sync lost".into())));
        assert_eq!(effects[0], Effect::Truncate { from: 1 });
        let Effect::Reply(ReplResponse::Reject { last_seq: 0, reason, .. }) = &effects[1] else {
            panic!("{effects:?}")
        };
        assert_eq!(reason, "fsync failed: sync lost");
        assert_eq!(node.last_seq(), 0);
        // A leader's record whose write failed comes back off the log too.
        let mut leader = core(Role::Leader, "");
        leader.step(Event::Mutate(b"m".to_vec()));
        let effects = leader.step(Event::Written(Err("append failed: disk full".into())));
        let failed = Effect::Finish(Err("append failed: disk full".into()));
        assert_eq!(effects, [Effect::Truncate { from: 1 }, failed]);
        assert_eq!(leader.last_seq(), 0);
    }

    #[test]
    fn hello_reconciles_a_tail_beyond_the_leaders_tip() {
        let mut node = follower();
        peer(&mut node, append(1, 0, 0, vec![entry(1, 1, b"ana"), entry(1, 2, b"bob")]), true);
        // The new leader's log ends at seq 1: the handshake itself cuts the
        // longer tail instead of trusting the ack.
        let (effects, reply) = peer(&mut node, hello(2, "", 1, 1), false);
        assert!(matches!(reply, ReplResponse::Ok { ack_seq: 1, ack_term: 1, .. }), "{reply:?}");
        assert!(effects.contains(&Effect::Truncate { from: 2 }), "{effects:?}");
        assert_eq!(effects.last(), Some(&Effect::Rebuild(vec![b"ana".to_vec()])));
        // Same length, different tip identity: the tip is cut.
        let (_, reply) = peer(&mut node, hello(3, "", 1, 2), false);
        assert!(matches!(reply, ReplResponse::Ok { ack_seq: 0, .. }), "{reply:?}");
    }

    #[test]
    fn a_delayed_hello_never_cuts_what_its_leader_shipped_since() {
        let mut node = follower();
        peer(&mut node, append(2, 0, 0, vec![entry(2, 1, b"a"), entry(2, 2, b"b")]), true);
        let (effects, reply) = peer(&mut node, hello(2, "", 1, 2), false);
        assert!(matches!(reply, ReplResponse::Ok { ack_seq: 2, .. }), "{reply:?}");
        assert!(!effects.iter().any(|e| matches!(e, Effect::Truncate { .. })), "{effects:?}");
    }

    #[test]
    fn state_changing_frames_require_the_cluster_token() {
        let mut node = core(Role::Follower, "s3cret");
        let (_, reply) =
            peer(&mut node, ReplRequest::Promote { term: 9, token: "wrong".into() }, false);
        let ReplResponse::Reject { reason, .. } = reply else { panic!("{reply:?}") };
        assert!(reason.contains("authentication failed"), "{reason}");
        assert_eq!(node.role(), Role::Follower);
        for request in [
            append(1, 0, 0, vec![entry(1, 1, b"a")]),
            ReplRequest::Snapshot { term: 1, last_seq: 0, last_term: 0, data: vec![] },
        ] {
            let (_, reply) = peer(&mut node, request, false);
            let ReplResponse::Reject { reason, .. } = reply else { panic!("{reply:?}") };
            assert!(reason.contains("unauthenticated"), "{reason}");
        }
        let (_, reply) = peer(&mut node, ReplRequest::Status, false);
        assert!(matches!(reply, ReplResponse::Status(_)), "Status stays open");
        let (_, reply) = peer(&mut node, hello(1, "wrong", 0, 0), false);
        assert!(matches!(reply, ReplResponse::Reject { .. }), "{reply:?}");
        let (_, reply) = peer(&mut node, hello(1, "s3cret", 0, 0), false);
        assert!(matches!(reply, ReplResponse::Ok { .. }), "{reply:?}");
        let (_, reply) = peer(&mut node, append(1, 0, 0, vec![entry(1, 1, b"a")]), true);
        assert!(matches!(reply, ReplResponse::Ok { ack_seq: 1, .. }), "{reply:?}");
    }

    #[test]
    fn hello_refuses_another_protocol_version() {
        let mut request = hello(1, "", 0, 0);
        if let ReplRequest::Hello { version, .. } = &mut request {
            *version = PROTOCOL_VERSION + 1;
        }
        let (_, reply) = peer(&mut follower(), request, false);
        let ReplResponse::Reject { reason, .. } = reply else { panic!("{reply:?}") };
        assert!(reason.contains("unsupported protocol version"), "{reason}");
    }

    #[test]
    fn the_leader_ships_from_memory_and_counts_validated_acks() {
        let config = ReplConfig { quorum: 2, peers: vec!["f".into()], ..ReplConfig::new("l", "") };
        let mut leader = ReplCore::new(config, 1, LogState::default());
        assert_eq!(
            leader.step(Event::Mutate(b"m".to_vec())),
            [Effect::Write(vec![Record { term: 1, payload: b"m".to_vec() }])]
        );
        let effects = leader.step(Event::Written(Ok(())));
        assert!(matches!(
            &effects[..],
            [Effect::ApplyOwn, Effect::Send { peer: 0, request: ReplRequest::Hello { .. } }]
        ));
        // The follower claims a tip the leader does not have: it never
        // counts, and the leader ships its whole state instead.
        let effects =
            leader.step(Event::Answer(Ok(ReplResponse::Ok { term: 1, ack_seq: 9, ack_term: 1 })));
        assert_eq!(effects, [Effect::SendSnapshot { peer: 0, term: 1, last_seq: 1, last_term: 1 }]);
        let effects =
            leader.step(Event::Answer(Ok(ReplResponse::Ok { term: 1, ack_seq: 1, ack_term: 1 })));
        assert_eq!(effects, [Effect::Finish(Ok(1))]);
        // A wrong tip term walks the ack back one entry: no quorum.
        leader.step(Event::Mutate(b"n".to_vec()));
        let effects = leader.step(Event::Written(Ok(())));
        let [Effect::ApplyOwn, Effect::Send {
            request: ReplRequest::Append { prev_seq: 1, prev_term: 1, entries, .. },
            ..
        }] = &effects[..]
        else {
            panic!("{effects:?}")
        };
        assert_eq!(entries, &[entry(1, 2, b"n")], "shipped from memory");
        let mut effects = Vec::new();
        for _ in 0..SHIP_ATTEMPTS {
            effects = leader.step(Event::Answer(Ok(ReplResponse::Ok {
                term: 1,
                ack_seq: 2,
                ack_term: 7,
            })));
        }
        let [Effect::Finish(Err(reason))] = &effects[..] else { panic!("{effects:?}") };
        assert!(reason.starts_with("quorum not reached: 1/2 nodes hold seq 2"), "{reason}");
        assert!(reason.ends_with("; f: follower f still behind after retries"), "{reason}");
        // A higher term in a rejection fences the leader.
        leader.step(Event::Mutate(b"o".to_vec()));
        leader.step(Event::Written(Ok(())));
        let effects = leader.step(Event::Answer(Ok(ReplResponse::Reject {
            term: 9,
            last_seq: 0,
            reason: "stale".into(),
        })));
        let fenced = Effect::Finish(Err("fenced by newer term 9; stepping down".into()));
        assert_eq!(effects, [Effect::PersistTerm(9), fenced]);
        assert_eq!((leader.role(), leader.term()), (Role::Follower, 9));
    }
}
