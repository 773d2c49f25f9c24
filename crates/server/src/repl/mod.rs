//! Single-leader replication of the profile store (DESIGN.md §17). Every
//! client mutation the leader accepts is written to a crash-safe WAL
//! ([`pqp_storage::Wal`]), applied, and shipped; the client is acked once
//! the configured quorum of nodes holds it. `core.rs` is the protocol as a
//! state machine with no socket, file, clock, WAL or service (terms fence
//! deposed leaders, and Raft's consistency check on each entry's
//! `(term, seq)` truncates their unacked suffixes). `driver.rs` is
//! [`ReplNode`], which owns the WAL, the term file, the peer links and the
//! service, and executes the core's effects under one mutex. `sim.rs`
//! (tests only) drives several cores through seeded faults. Failpoints,
//! fired on the service's registry: `wal.append`, `wal.fsync`,
//! `repl.ship`, `repl.ack`, `node.crash`.

use std::path::PathBuf;
use std::time::Duration;

use pqp_wire::repl::Role;

mod core;
mod driver;
#[cfg(test)]
mod sim;

pub use driver::{PeerLink, ReplNode};

/// Replication knobs. Present only when the node runs replicated — a
/// plain single-node server has no `ReplConfig` and no WAL.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// This node's identity, carried in peer handshakes and telemetry.
    pub node_id: String,
    /// Directory for the WAL, snapshot, and term files.
    pub wal_dir: PathBuf,
    /// Nodes (including this one) that must hold a mutation durably
    /// before the client is acked (default 1 = leader-only durability).
    pub quorum: usize,
    /// Follower addresses this node ships to when it is the leader.
    pub peers: Vec<String>,
    /// Starting role (default leader).
    pub role: Role,
    /// Compact the log into a snapshot once it holds this many records
    /// (default 1024). It bounds the records kept in memory, so it must be
    /// at least 1.
    pub snapshot_every: u64,
    /// Connect/read/write timeout on peer links (default 5 s).
    pub ship_timeout: Duration,
    /// Shared secret gating the state-changing replication frames. Every
    /// node of a cluster must carry the same value; empty disables the
    /// check.
    pub token: String,
}

impl ReplConfig {
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
