//! Replication frames: the node-to-node vocabulary for single-leader log
//! shipping, snapshot transfer, role/term handshake, and failover control.
//!
//! Replication reuses the client frame grammar (`len:u32be tag:u8
//! payload`) on the same listen port — a connection's *first* frame
//! decides whether it is a client session (`Hello`, tag `0x01`) or a
//! replication peer (any tag in the [`tag`] ranges below). Tags are
//! append-only like the client vocabulary; requests sit in `0x10..=0x14`,
//! responses in `0x90..=0x92`, disjoint from the client ranges.
//!
//! # Term fencing and log identity
//!
//! Every request carries the sender's `term` (except `Status`, which is a
//! read-only probe). A node rejects any request whose term is below its
//! own with [`ReplResponse::Reject`] carrying the higher term; a leader
//! that sees a higher term in any response steps down immediately — that
//! is the whole fencing protocol. Promotion bumps the term, so a deposed
//! leader can never ship another record.
//!
//! A log entry's identity is the pair `(term, seq)` — Raft's invariant:
//! two logs holding an entry with the same term and sequence hold the
//! same entry and the same prefix. [`ReplRequest::Append`] therefore
//! carries the identity of the entry *preceding* the batch
//! (`prev_seq`/`prev_term`); a follower whose log disagrees at that
//! position truncates its conflicting suffix and rejects so the leader
//! walks back. A follower's self-reported offset is likewise qualified by
//! the term of its tip ([`ReplResponse::Ok::ack_term`]) — the leader
//! never counts an offset toward quorum without validating the term.
//!
//! # Authentication
//!
//! The state-changing vocabulary (`Hello`+`Append`/`Snapshot`, `Promote`)
//! carries a shared-secret token, because these frames share the client
//! listen port: without it, anyone who can connect could seize leadership
//! or wipe the store. `Status` stays open — it is a read-only probe.
//!
//! # Log record payloads
//!
//! The shipped log entries are opaque to this layer; the serving layer
//! encodes each profile mutation as a [`MutationRecord`] (the same
//! encoding is what the leader's WAL stores), so a follower applies
//! exactly the bytes the leader made durable.

use crate::codec::{DecodeError, Reader, Result, Writer};
use crate::proto::{decode_profile_op, encode_profile_op, ProfileOp};

/// Replication message tags. Requests sit in `0x10..=0x14`, responses in
/// `0x90..=0x92` — disjoint from the client tag ranges and append-only.
pub mod tag {
    /// Peer → node: role/term handshake (first frame of a peer link).
    pub const REPL_HELLO: u8 = 0x10;
    /// Leader → follower: ship log entries (AppendEntries-style).
    pub const REPL_APPEND: u8 = 0x11;
    /// Leader → follower: replace the follower's state with a snapshot.
    pub const REPL_SNAPSHOT: u8 = 0x12;
    /// Any → node: read-only health/lag probe (router, diagnostics).
    pub const REPL_STATUS: u8 = 0x13;
    /// Router → follower: become leader at the given (higher) term.
    pub const REPL_PROMOTE: u8 = 0x14;
    /// Node → peer: request accepted; carries term + ack offset.
    pub const REPL_OK: u8 = 0x90;
    /// Node → peer: request refused (stale term, log gap).
    pub const REPL_REJECT: u8 = 0x91;
    /// Node → peer: answer to a `REPL_STATUS` probe.
    pub const REPL_STATUS_OK: u8 = 0x92;
}

/// True when `t` is a replication *request* tag — the server uses this on
/// a connection's first frame to route it to the peer handler instead of
/// the client session handler.
pub fn is_repl_request(t: u8) -> bool {
    (tag::REPL_HELLO..=tag::REPL_PROMOTE).contains(&t)
}

/// A node's replication role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts client mutations, ships the log to followers.
    Leader,
    /// Applies shipped records; refuses client mutations.
    Follower,
}

impl Role {
    /// Stable lowercase label (telemetry, `SHOW METRICS`).
    pub fn label(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Role::Leader => 0,
            Role::Follower => 1,
        }
    }

    fn from_u8(t: u8) -> Result<Role> {
        match t {
            0 => Ok(Role::Leader),
            1 => Ok(Role::Follower),
            t => Err(DecodeError::BadTag { what: "role", tag: t as u64 }),
        }
    }
}

/// One shipped log entry: its `(term, seq)` identity and the opaque
/// record bytes exactly as the leader made them durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The term the entry was created under (half of its identity).
    pub term: u64,
    /// The leader's log sequence number for this record.
    pub seq: u64,
    /// The record payload (a [`MutationRecord`] encoding).
    pub payload: Vec<u8>,
}

/// A node's replication status, as answered to a `Status` probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node's configured identity.
    pub node_id: String,
    /// Current role.
    pub role: Role,
    /// Current term.
    pub term: u64,
    /// Last appended log sequence number.
    pub last_seq: u64,
    /// Last sequence number known durable (fsynced).
    pub durable_seq: u64,
    /// Term of the last log entry (0 for an empty log): with `last_seq`,
    /// the log tip's identity, which failover compares.
    pub last_term: u64,
}

/// A node-to-node replication request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplRequest {
    /// Handshake: must be the first frame on a peer link. The receiver
    /// adopts a higher term (stepping down if it was leader), reconciles
    /// its log tail against the leader's tip identity (truncating any
    /// suffix the leader does not hold), and answers [`ReplResponse::Ok`]
    /// with its last log position so the sender can pick catch-up vs
    /// snapshot transfer.
    Hello {
        /// The protocol version the peer speaks (exact match required).
        version: u16,
        /// The sending node's identity.
        node_id: String,
        /// The sender's current term.
        term: u64,
        /// Shared-secret auth token (`PQP_REPL_TOKEN`); must match the
        /// receiver's configured token before any state-changing frame
        /// is honored on this link.
        token: String,
        /// The sender's (the leader's) last log sequence number.
        last_seq: u64,
        /// The term of the sender's last log entry (0 for an empty log).
        last_term: u64,
    },
    /// Ship contiguous log entries. The receiver verifies the entry
    /// preceding the batch matches `(prev_seq, prev_term)` — truncating
    /// its conflicting suffix if not — then appends, syncs, applies, and
    /// acks its new last sequence; it rejects stale terms and gaps.
    Append {
        /// The sender's term (fencing).
        term: u64,
        /// Sequence of the entry immediately before this batch (0 when
        /// the batch starts the log).
        prev_seq: u64,
        /// Term of that preceding entry (0 when `prev_seq` is 0). A
        /// mismatch on the receiver is a log conflict.
        prev_term: u64,
        /// Entries in sequence order, contiguous after `prev_seq`.
        entries: Vec<LogEntry>,
    },
    /// Replace the receiver's entire state with a snapshot (the catch-up
    /// path when the sender's log no longer reaches back far enough).
    Snapshot {
        /// The sender's term (fencing).
        term: u64,
        /// The sequence number the snapshot covers through.
        last_seq: u64,
        /// The term of the entry at `last_seq` (the snapshot's identity).
        last_term: u64,
        /// Opaque snapshot bytes (the serving layer's profile dump).
        data: Vec<u8>,
    },
    /// Read-only status probe; never changes node state.
    Status,
    /// Manual/router-triggered failover: become leader at `term`. The
    /// receiver refuses unless `term` is strictly above its own and the
    /// token matches its configured secret.
    Promote {
        /// The new leadership term (must exceed every term the cluster
        /// has seen, so the deposed leader is fenced).
        term: u64,
        /// Shared-secret auth token (`PQP_REPL_TOKEN`).
        token: String,
    },
}

/// A node's answer to a [`ReplRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplResponse {
    /// Accepted. `ack_seq` is the receiver's last log sequence after the
    /// request — the sender's replication offset for this peer. The
    /// sender must validate `(ack_seq, ack_term)` against its own log
    /// before trusting the offset for quorum.
    Ok {
        /// The receiver's current term.
        term: u64,
        /// The receiver's last log sequence number.
        ack_seq: u64,
        /// The term of the receiver's entry at `ack_seq` (0 for an empty
        /// log) — the identity half of the ack.
        ack_term: u64,
    },
    /// Refused: stale term (fencing) or a log discontinuity. `last_seq`
    /// tells the sender where the receiver's log actually ends so it can
    /// resend from there (or ship a snapshot).
    Reject {
        /// The receiver's current term (≥ the sender's on fencing).
        term: u64,
        /// The receiver's last log sequence number.
        last_seq: u64,
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Answer to [`ReplRequest::Status`].
    Status(NodeStatus),
}

/// Sanity ceiling on entries per `Append` frame (the frame length limit
/// bounds total bytes; this bounds the vector allocation).
const MAX_ENTRIES: usize = 65_536;

impl ReplRequest {
    /// Encode into `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let tag = match self {
            ReplRequest::Hello { version, node_id, term, token, last_seq, last_term } => {
                w.u16(*version).str(node_id).u64(*term).str(token).u64(*last_seq).u64(*last_term);
                tag::REPL_HELLO
            }
            ReplRequest::Append { term, prev_seq, prev_term, entries } => {
                w.u64(*term).u64(*prev_seq).u64(*prev_term).u32(entries.len() as u32);
                for e in entries {
                    w.u64(e.term).u64(e.seq).bytes(&e.payload);
                }
                tag::REPL_APPEND
            }
            ReplRequest::Snapshot { term, last_seq, last_term, data } => {
                w.u64(*term).u64(*last_seq).u64(*last_term).bytes(data);
                tag::REPL_SNAPSHOT
            }
            ReplRequest::Status => tag::REPL_STATUS,
            ReplRequest::Promote { term, token } => {
                w.u64(*term).str(token);
                tag::REPL_PROMOTE
            }
        };
        (tag, w.into_vec())
    }

    /// Decode from `(tag, payload)`. The whole payload must be consumed.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<ReplRequest> {
        let mut r = Reader::new(payload);
        let req = match tag {
            tag::REPL_HELLO => ReplRequest::Hello {
                version: r.u16("protocol version")?,
                node_id: r.str("node id")?,
                term: r.u64("term")?,
                token: r.str("auth token")?,
                last_seq: r.u64("leader last seq")?,
                last_term: r.u64("leader last term")?,
            },
            tag::REPL_APPEND => {
                let term = r.u64("term")?;
                let prev_seq = r.u64("prev seq")?;
                let prev_term = r.u64("prev term")?;
                let count = r.u32("entry count")? as usize;
                // Each entry is ≥ 20 bytes (term + seq + length prefix):
                // reject absurd counts before allocating.
                if count > MAX_ENTRIES || count > r.remaining() / 20 + 1 {
                    return Err(DecodeError::TooLong {
                        what: "append entries",
                        len: count,
                        max: MAX_ENTRIES.min(r.remaining() / 20 + 1),
                    });
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(LogEntry {
                        term: r.u64("entry term")?,
                        seq: r.u64("entry seq")?,
                        payload: r.bytes("entry payload")?,
                    });
                }
                ReplRequest::Append { term, prev_seq, prev_term, entries }
            }
            tag::REPL_SNAPSHOT => ReplRequest::Snapshot {
                term: r.u64("term")?,
                last_seq: r.u64("snapshot last seq")?,
                last_term: r.u64("snapshot last term")?,
                data: r.bytes("snapshot data")?,
            },
            tag::REPL_STATUS => ReplRequest::Status,
            tag::REPL_PROMOTE => {
                ReplRequest::Promote { term: r.u64("term")?, token: r.str("auth token")? }
            }
            tag => return Err(DecodeError::BadTag { what: "repl request", tag: tag as u64 }),
        };
        r.expect_end()?;
        Ok(req)
    }
}

impl ReplResponse {
    /// Encode into `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let tag = match self {
            ReplResponse::Ok { term, ack_seq, ack_term } => {
                w.u64(*term).u64(*ack_seq).u64(*ack_term);
                tag::REPL_OK
            }
            ReplResponse::Reject { term, last_seq, reason } => {
                w.u64(*term).u64(*last_seq).str(reason);
                tag::REPL_REJECT
            }
            ReplResponse::Status(s) => {
                w.str(&s.node_id)
                    .u8(s.role.to_u8())
                    .u64(s.term)
                    .u64(s.last_seq)
                    .u64(s.durable_seq)
                    .u64(s.last_term);
                tag::REPL_STATUS_OK
            }
        };
        (tag, w.into_vec())
    }

    /// Decode from `(tag, payload)`. The whole payload must be consumed.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<ReplResponse> {
        let mut r = Reader::new(payload);
        let resp = match tag {
            tag::REPL_OK => ReplResponse::Ok {
                term: r.u64("term")?,
                ack_seq: r.u64("ack seq")?,
                ack_term: r.u64("ack term")?,
            },
            tag::REPL_REJECT => ReplResponse::Reject {
                term: r.u64("term")?,
                last_seq: r.u64("last seq")?,
                reason: r.str("reject reason")?,
            },
            tag::REPL_STATUS_OK => ReplResponse::Status(NodeStatus {
                node_id: r.str("node id")?,
                role: Role::from_u8(r.u8("role")?)?,
                term: r.u64("term")?,
                last_seq: r.u64("last seq")?,
                durable_seq: r.u64("durable seq")?,
                last_term: r.u64("last term")?,
            }),
            tag => return Err(DecodeError::BadTag { what: "repl response", tag: tag as u64 }),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

/// One profile mutation as recorded in the WAL and shipped to followers:
/// the target user plus the operation. This is the log record grammar —
/// the bytes a [`LogEntry`] carries and the leader's WAL stores.
///
/// Epochs are deliberately *not* part of the record: they are node-local
/// cache-invalidation counters, re-drawn on every apply. The WAL sequence
/// number (carried by the framing, not the record) is the authoritative
/// mutation order.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRecord {
    /// The user whose profile mutates.
    pub user: String,
    /// The mutation.
    pub op: ProfileOp,
}

impl MutationRecord {
    /// Encode to the canonical record bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.user);
        encode_profile_op(&mut w, &self.op);
        w.into_vec()
    }

    /// Decode from record bytes. The whole buffer must be consumed.
    pub fn decode(bytes: &[u8]) -> Result<MutationRecord> {
        let mut r = Reader::new(bytes);
        let record = MutationRecord { user: r.str("record user")?, op: decode_profile_op(&mut r)? };
        r.expect_end()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_storage::Value;

    fn round_trip_request(req: ReplRequest) {
        let (tag, payload) = req.encode();
        assert_eq!(ReplRequest::decode(tag, &payload).unwrap(), req);
    }

    fn round_trip_response(resp: ReplResponse) {
        let (tag, payload) = resp.encode();
        assert_eq!(ReplResponse::decode(tag, &payload).unwrap(), resp);
    }

    #[test]
    fn repl_requests_round_trip() {
        round_trip_request(ReplRequest::Hello {
            version: 1,
            node_id: "node-a".into(),
            term: 7,
            token: "s3cret".into(),
            last_seq: 41,
            last_term: 6,
        });
        round_trip_request(ReplRequest::Append {
            term: 3,
            prev_seq: 9,
            prev_term: 2,
            entries: vec![],
        });
        round_trip_request(ReplRequest::Append {
            term: 3,
            prev_seq: 9,
            prev_term: 3,
            entries: vec![
                LogEntry { term: 3, seq: 10, payload: vec![1, 2, 3] },
                LogEntry { term: 3, seq: 11, payload: vec![] },
            ],
        });
        round_trip_request(ReplRequest::Snapshot {
            term: 9,
            last_seq: 1000,
            last_term: 8,
            data: vec![0xAB; 64],
        });
        round_trip_request(ReplRequest::Status);
        round_trip_request(ReplRequest::Promote { term: 12, token: String::new() });
    }

    #[test]
    fn repl_responses_round_trip() {
        round_trip_response(ReplResponse::Ok { term: 4, ack_seq: 99, ack_term: 4 });
        round_trip_response(ReplResponse::Reject {
            term: 5,
            last_seq: 42,
            reason: "stale term".into(),
        });
        round_trip_response(ReplResponse::Status(NodeStatus {
            node_id: "node-b".into(),
            role: Role::Follower,
            term: 6,
            last_seq: 77,
            durable_seq: 76,
            last_term: 5,
        }));
        round_trip_response(ReplResponse::Status(NodeStatus {
            node_id: "node-a".into(),
            role: Role::Leader,
            term: 6,
            last_seq: 78,
            durable_seq: 78,
            last_term: 6,
        }));
    }

    #[test]
    fn mutation_records_round_trip() {
        for op in [
            ProfileOp::AddSelection {
                table: "GENRE".into(),
                column: "genre".into(),
                value: Value::Str("comedy".into()),
                doi: 0.9,
            },
            ProfileOp::AddJoin {
                from_table: "MOVIE".into(),
                from_column: "mid".into(),
                to_table: "GENRE".into(),
                to_column: "mid".into(),
                doi: 0.5,
            },
            ProfileOp::Remove,
        ] {
            let record = MutationRecord { user: "julie".into(), op };
            assert_eq!(MutationRecord::decode(&record.encode()).unwrap(), record);
        }
    }

    #[test]
    fn repl_tags_are_disjoint_from_client_tags() {
        use crate::proto::tag as client;
        let client_tags = [
            client::HELLO,
            client::QUERY,
            client::PREPARE,
            client::MUTATE,
            client::SHOW,
            client::CLOSE,
            client::HELLO_OK,
            client::ANSWER,
            client::PREPARE_OK,
            client::MUTATE_OK,
            client::ERROR,
            client::BYE,
        ];
        let repl_tags = [
            tag::REPL_HELLO,
            tag::REPL_APPEND,
            tag::REPL_SNAPSHOT,
            tag::REPL_STATUS,
            tag::REPL_PROMOTE,
            tag::REPL_OK,
            tag::REPL_REJECT,
            tag::REPL_STATUS_OK,
        ];
        for t in repl_tags {
            assert!(!client_tags.contains(&t), "tag {t:#04x} reused");
        }
        for t in [tag::REPL_HELLO, tag::REPL_PROMOTE] {
            assert!(is_repl_request(t));
        }
        for t in [client::HELLO, client::MUTATE, tag::REPL_OK] {
            assert!(!is_repl_request(t));
        }
    }

    #[test]
    fn malformed_repl_payloads_are_typed_errors() {
        assert!(matches!(
            ReplRequest::decode(0x7F, &[]),
            Err(DecodeError::BadTag { what: "repl request", .. })
        ));
        assert!(matches!(
            ReplResponse::decode(0x8F, &[]),
            Err(DecodeError::BadTag { what: "repl response", .. })
        ));
        // Absurd entry count: longer than the payload can carry.
        let mut w = Writer::new();
        w.u64(1).u64(0).u64(0).u32(u32::MAX);
        assert!(matches!(
            ReplRequest::decode(tag::REPL_APPEND, &w.into_vec()),
            Err(DecodeError::TooLong { what: "append entries", .. })
        ));
        // Truncated snapshot.
        let mut w = Writer::new();
        w.u64(1).u64(5).u64(1).u32(1000);
        assert!(matches!(
            ReplRequest::decode(tag::REPL_SNAPSHOT, &w.into_vec()),
            Err(DecodeError::Truncated { .. })
        ));
        // Trailing bytes after a well-formed response.
        let (tag, mut payload) = ReplResponse::Ok { term: 1, ack_seq: 2, ack_term: 1 }.encode();
        payload.push(0);
        assert!(matches!(ReplResponse::decode(tag, &payload), Err(DecodeError::Trailing { .. })));
        // Unassigned role discriminant.
        let mut w = Writer::new();
        w.str("n").u8(9).u64(1).u64(1).u64(1).u64(1);
        assert!(matches!(
            ReplResponse::decode(tag::REPL_STATUS_OK, &w.into_vec()),
            Err(DecodeError::BadTag { what: "role", .. })
        ));
    }
}
