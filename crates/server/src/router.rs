//! Thin routing tier for a replicated cluster: health-check the nodes,
//! redirect each client's handshake to the current leader, and promote the
//! follower with the highest log tip when the leader dies.
//!
//! The router holds no replicated state of its own and carries no client
//! traffic. It discovers the leader with [`ReplRequest::Status`] probes and
//! answers each client's `Hello` with [`Response::Redirect`] naming it (or
//! a typed `unavailable` error when there is none), then closes; the
//! client repeats its handshake at the leader and talks to it directly.
//! The accept loop answers each connection inline, so the router runs two
//! threads, its health loop and its accept loop, whatever its number of
//! clients. Failover is promote-by-term: after `fail_threshold`
//! consecutive probe rounds with no reachable leader, the router picks the
//! reachable node with the most up-to-date log (`promotion_candidate`),
//! sends [`ReplRequest::Promote`] with a term above every term it has
//! seen, and the old leader — should it come back — is fenced by that
//! higher term on its first ship.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pqp_service::Error;
use pqp_wire::frame::{read_frame, write_frame};
use pqp_wire::proto::{Request, Response, WireError};
use pqp_wire::repl::{NodeStatus, ReplRequest, ReplResponse, Role};
use pqp_wire::MAX_FRAME_LEN;

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address for client connections.
    pub addr: String,
    /// Node addresses to probe, and to redirect clients to: each as clients
    /// reach it.
    pub nodes: Vec<String>,
    /// Delay between health-probe rounds.
    pub probe_interval: Duration,
    /// Consecutive leaderless probe rounds before the router promotes a
    /// follower.
    pub fail_threshold: u32,
    /// Connect/read/write timeout on probes and promote requests, and the
    /// most time the accept loop gives a client to send its `Hello`.
    pub probe_timeout: Duration,
    /// Cluster shared secret carried on `Promote` — the same token the
    /// nodes are configured with; empty when the cluster runs without auth.
    pub token: String,
}

impl RouterConfig {
    /// A config for tests: given nodes, fast probes.
    pub fn new(addr: impl Into<String>, nodes: Vec<String>) -> RouterConfig {
        RouterConfig {
            addr: addr.into(),
            nodes,
            probe_interval: Duration::from_millis(50),
            fail_threshold: 2,
            probe_timeout: Duration::from_millis(500),
            token: String::new(),
        }
    }
}

struct RouterState {
    config: RouterConfig,
    leader: Mutex<Option<String>>,
    /// Highest term seen in any probe; promotions go strictly above it.
    max_term: Mutex<u64>,
    misses: AtomicU32,
    shutdown: AtomicBool,
}

/// A bound router. [`Router::spawn`] starts the health loop and the
/// accept loop on their own threads.
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
}

impl Router {
    /// Bind the router's listen socket.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Router {
            listener,
            state: Arc::new(RouterState {
                config,
                leader: Mutex::new(None),
                max_term: Mutex::new(0),
                misses: AtomicU32::new(0),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the health loop and the accept loop.
    pub fn spawn(self) -> io::Result<RouterHandle> {
        let addr = self.local_addr()?;
        let Router { listener, state } = self;
        let health_state = Arc::clone(&state);
        let health = std::thread::Builder::new()
            .name("pqp-router-health".to_string())
            .spawn(move || health_loop(&health_state))?;
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("pqp-router-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_state))?;
        Ok(RouterHandle { addr, state, threads: vec![health, accept] })
    }
}

/// Handle to a running router: leader view, manual failover, shutdown.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node currently routed to, if any.
    pub fn leader(&self) -> Option<String> {
        self.state.leader.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Stop both loops and join them.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn health_loop(state: &Arc<RouterState>) {
    while !state.shutdown.load(Ordering::SeqCst) {
        tick(state);
        std::thread::sleep(state.config.probe_interval);
    }
}

/// One probe round: find the reachable leader with the highest term; if
/// none for `fail_threshold` consecutive rounds, promote.
fn tick(state: &Arc<RouterState>) {
    let mut best: Option<(String, NodeStatus)> = None;
    let mut max_term = 0u64;
    for addr in &state.config.nodes {
        let Some(status) = probe(addr, state.config.probe_timeout) else { continue };
        max_term = max_term.max(status.term);
        if status.role == Role::Leader && best.as_ref().is_none_or(|(_, b)| status.term > b.term) {
            best = Some((addr.clone(), status));
        }
    }
    {
        let mut seen = state.max_term.lock().unwrap_or_else(|e| e.into_inner());
        *seen = (*seen).max(max_term);
    }
    match best {
        Some((addr, _)) => {
            state.misses.store(0, Ordering::Relaxed);
            let mut leader = state.leader.lock().unwrap_or_else(|e| e.into_inner());
            if leader.as_deref() != Some(addr.as_str()) {
                pqp_obs::counter_add("router.leader_changes", 1);
                *leader = Some(addr);
            }
        }
        None => {
            *state.leader.lock().unwrap_or_else(|e| e.into_inner()) = None;
            let misses = state.misses.fetch_add(1, Ordering::Relaxed) + 1;
            if misses >= state.config.fail_threshold {
                state.misses.store(0, Ordering::Relaxed);
                promote(state);
            }
        }
    }
}

/// Promote the reachable node with the most up-to-date log at a term above
/// everything seen. Returns the promoted node's address on success.
fn promote(state: &Arc<RouterState>) -> Option<String> {
    let (addrs, statuses): (Vec<&String>, Vec<NodeStatus>) = state
        .config
        .nodes
        .iter()
        .filter_map(|addr| Some((addr, probe(addr, state.config.probe_timeout)?)))
        .unzip();
    let pick = promotion_candidate(&statuses)?;
    let addr = addrs[pick].clone();
    let term = {
        let mut seen = state.max_term.lock().unwrap_or_else(|e| e.into_inner());
        *seen = (*seen).max(statuses[pick].term) + 1;
        *seen
    };
    let promote = ReplRequest::Promote { term, token: state.config.token.clone() };
    let response = peer_rpc(&addr, &promote, state.config.probe_timeout);
    match response {
        Ok(ReplResponse::Ok { .. }) => {
            pqp_obs::counter_add("router.promotions", 1);
            *state.leader.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr.clone());
            Some(addr)
        }
        _ => {
            pqp_obs::counter_add("router.promote_failed", 1);
            None
        }
    }
}

/// The node to promote among `statuses`: the highest log tip by
/// `(last_term, last_seq)`, the first on a tie, `None` when there is none.
/// A longer log whose tip is from an older term ends in a deposed leader's
/// unacked suffix; the higher tip term holds what a later leader acked.
pub(crate) fn promotion_candidate(statuses: &[NodeStatus]) -> Option<usize> {
    let tip = |s: &NodeStatus| (s.last_term, s.last_seq);
    (0..statuses.len())
        .reduce(|best, i| if tip(&statuses[i]) > tip(&statuses[best]) { i } else { best })
}

/// Probe one node's replication status; `None` when unreachable or
/// answering garbage.
fn probe(addr: &str, timeout: Duration) -> Option<NodeStatus> {
    match peer_rpc(addr, &ReplRequest::Status, timeout) {
        Ok(ReplResponse::Status(status)) => Some(status),
        _ => None,
    }
}

/// One framed request/response against a node, with timeouts.
fn peer_rpc(addr: &str, request: &ReplRequest, timeout: Duration) -> io::Result<ReplResponse> {
    crate::conn::exchange(&mut crate::conn::connect(addr, timeout)?, request)
}

fn accept_loop(listener: TcpListener, state: &Arc<RouterState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = stream else {
            pqp_obs::counter_add("router.accept_failed", 1);
            continue;
        };
        pqp_obs::counter_add("router.connections", 1);
        answer(client, state);
    }
}

/// Answer one connection: read its first frame, taking at most
/// `probe_timeout` in all, and answer a `Hello` with a redirect to the
/// current leader, or with a typed `unavailable` error when there is none.
/// Any other first frame is closed unanswered. The frame is read before
/// the socket closes, because closing with unread input resets the
/// connection, and the reset can discard the answer before the client
/// reads it.
fn answer(mut client: TcpStream, state: &RouterState) {
    let timeout = state.config.probe_timeout;
    let mut first = Deadline { stream: &client, until: Instant::now() + timeout };
    let hello = read_frame(&mut first, MAX_FRAME_LEN).is_ok_and(|(tag, payload)| {
        matches!(Request::decode(tag, &payload), Ok(Request::Hello { .. }))
    });
    if !hello {
        pqp_obs::counter_add("router.dropped", 1);
        return;
    }
    let leader = state.leader.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let response = match leader {
        Some(addr) => Response::Redirect { addr },
        None => {
            pqp_obs::counter_add("router.refused", 1);
            let reason = "no leader available; failover in progress".to_string();
            Response::Error(WireError::from_error(&Error::Unavailable(reason)))
        }
    };
    let (tag, payload) = response.encode();
    // Best-effort: the client may already be gone.
    let _ = client.set_write_timeout(Some(timeout));
    let _ = write_frame(&mut client, tag, &payload);
}

/// A socket read that gives up at `until`, however the bytes trickle in.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(last_seq: u64, last_term: u64) -> NodeStatus {
        NodeStatus {
            node_id: String::new(),
            role: Role::Follower,
            term: last_term,
            last_seq,
            durable_seq: last_seq,
            last_term,
        }
    }

    #[test]
    fn promotion_prefers_the_newer_tip_term_over_the_longer_log() {
        // A logged 6–8 at term 1 unacked while cut off; C acked 6 at term 2.
        assert_eq!(promotion_candidate(&[status(8, 1), status(6, 2)]), Some(1));
        assert_eq!(promotion_candidate(&[status(6, 2), status(7, 2)]), Some(1));
        assert_eq!(promotion_candidate(&[status(7, 2), status(7, 2)]), Some(0));
        assert_eq!(promotion_candidate(&[]), None);
    }
}
