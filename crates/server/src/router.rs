//! Thin routing tier for a replicated cluster: health-check the nodes,
//! proxy client connections to the current leader, and promote the
//! most-caught-up follower when the leader dies.
//!
//! The router holds no replicated state of its own — it discovers the
//! leader with [`ReplRequest::Status`] probes and routes by proxying
//! raw bytes, so the wire protocol passes through untouched. Failover
//! is promote-by-term: after `fail_threshold` consecutive probe rounds
//! with no reachable leader, the router picks the reachable node with
//! the longest log (`last_seq`), sends [`ReplRequest::Promote`] with a
//! term above every term it has seen, and the old leader — should it
//! come back — is fenced by that higher term on its first ship.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pqp_service::Error;
use pqp_wire::frame::{read_frame, write_frame};
use pqp_wire::proto::{Response, WireError};
use pqp_wire::repl::{NodeStatus, ReplRequest, ReplResponse, Role};
use pqp_wire::MAX_FRAME_LEN;

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address for client connections.
    pub addr: String,
    /// Node addresses to probe and route to.
    pub nodes: Vec<String>,
    /// Delay between health-probe rounds.
    pub probe_interval: Duration,
    /// Consecutive leaderless probe rounds before the router promotes a
    /// follower.
    pub fail_threshold: u32,
    /// Connect/read/write timeout on probes and promote requests.
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

/// Promote the reachable node with the longest log at a term above
/// everything seen. Returns the promoted node's address on success.
fn promote(state: &Arc<RouterState>) -> Option<String> {
    let mut candidate: Option<(String, NodeStatus)> = None;
    for addr in &state.config.nodes {
        let Some(status) = probe(addr, state.config.probe_timeout) else { continue };
        if candidate.as_ref().is_none_or(|(_, c)| status.last_seq > c.last_seq) {
            candidate = Some((addr.clone(), status));
        }
    }
    let (addr, status) = candidate?;
    let term = {
        let mut seen = state.max_term.lock().unwrap_or_else(|e| e.into_inner());
        *seen = (*seen).max(status.term) + 1;
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
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "unresolvable node"))?;
    let mut stream = TcpStream::connect_timeout(&resolved, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let (tag, payload) = request.encode();
    write_frame(&mut stream, tag, &payload)
        .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))?;
    stream.flush()?;
    let (tag, payload) = read_frame(&mut stream, MAX_FRAME_LEN)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    ReplResponse::decode(tag, &payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
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
        let conn_state = Arc::clone(state);
        let spawned = std::thread::Builder::new()
            .name("pqp-router-proxy".to_string())
            .spawn(move || route(client, &conn_state));
        if spawned.is_err() {
            pqp_obs::counter_add("router.spawn_failed", 1);
        }
    }
}

/// Proxy one client connection to the current leader, or answer a typed
/// `unavailable` error frame when there is none.
fn route(client: TcpStream, state: &Arc<RouterState>) {
    let leader = state.leader.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let Some(leader) = leader else {
        refuse(client, "no leader available; failover in progress");
        return;
    };
    let upstream = match TcpStream::connect(&leader) {
        Ok(s) => s,
        Err(e) => {
            refuse(client, &format!("leader {leader} unreachable: {e}"));
            return;
        }
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    proxy(client, upstream);
}

/// Answer one typed error frame and close. Best-effort — the client may
/// already be gone.
fn refuse(mut client: TcpStream, reason: &str) {
    pqp_obs::counter_add("router.refused", 1);
    let error = WireError::from_error(&Error::Unavailable(reason.to_string()));
    let (tag, payload) = Response::Error(error).encode();
    let _ = write_frame(&mut client, tag, &payload);
    let _ = client.flush();
    let _ = client.shutdown(Shutdown::Both);
}

/// Bidirectional byte pump. Each direction runs on its own thread; when
/// either side closes, both sockets shut down and the threads exit.
fn proxy(client: TcpStream, upstream: TcpStream) {
    let Ok(client_r) = client.try_clone() else { return };
    let Ok(upstream_r) = upstream.try_clone() else { return };
    let up = std::thread::Builder::new()
        .name("pqp-router-up".to_string())
        .spawn(move || pump(client_r, upstream));
    pump(upstream_r, client);
    if let Ok(handle) = up {
        let _ = handle.join();
    }
}

/// Copy bytes until EOF or error, then shut both ends down.
fn pump(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
