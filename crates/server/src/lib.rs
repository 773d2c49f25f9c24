//! # pqp-server — the TCP session runtime
//!
//! Serves a [`Service`] over TCP speaking the `pqp-wire` protocol. Each
//! connection is one user session (bound at handshake) on its own thread,
//! which owns the socket, the framing, the read/write timeouts and the
//! protocol errors. Queries and prepares run on the server's fixed pool of
//! one worker per CPU, at least two (`pool.rs`); mutations and `Show` run on
//! the session thread. Every failure is a typed error frame, and the
//! service's admission control surfaces as `Overloaded` frames at the
//! network edge.
//!
//! The robustness contract at this boundary:
//!
//! - A malformed *payload* answers with a `protocol` error frame and the
//!   session continues (the stream is still frame-aligned).
//! - A malformed *frame* (oversized, zero-length) answers with a
//!   `protocol` error frame and closes — the stream can no longer be
//!   trusted to be frame-aligned.
//! - A client that disconnects mid-query costs nothing but the query: the
//!   service's in-flight slot is released by its RAII guard, the write
//!   failure is counted, and the connection thread exits cleanly.
//! - Failpoints (`server.frame`, `repl.ship`, `repl.ack`, `node.crash`,
//!   plus `wal.append`/`wal.fsync` in the storage layer) and
//!   `catch_unwind` at the dispatch boundary turn injected panics into
//!   `internal` error frames instead of process aborts.
//!
//! With `PQP_WAL_DIR` set, the server runs a replicated profile store:
//! every client mutation goes through a crash-safe WAL and single-leader
//! log shipping (see [`repl`]), and the same listen port speaks both the
//! client protocol and the node-to-node replication frames — a
//! connection's first frame picks the handler. The [`router`] module is
//! the companion routing tier for multi-node deployments.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pqp_service::Service;

mod conn;
mod pool;
pub mod repl;
pub mod router;

pub use repl::{PeerLink, ReplConfig, ReplNode};
pub use router::{Router, RouterConfig, RouterHandle};

/// Server knobs. Every field has an environment override so a deployment
/// is configured without code changes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`PQP_LISTEN_ADDR`, default `127.0.0.1:5433`).
    pub addr: String,
    /// Per-session read timeout: an idle session is closed after this long
    /// with no request (`PQP_SERVER_READ_TIMEOUT_MS`, default 60 000; `0`
    /// = no timeout).
    pub read_timeout: Option<Duration>,
    /// Per-session write timeout on responses
    /// (`PQP_SERVER_WRITE_TIMEOUT_MS`, default 30 000; `0` = no timeout).
    pub write_timeout: Option<Duration>,
    /// Server identification sent in the handshake.
    pub name: String,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:5433".to_string(),
            read_timeout: Some(Duration::from_millis(60_000)),
            write_timeout: Some(Duration::from_millis(30_000)),
            name: format!("pqp-server/{}", env!("CARGO_PKG_VERSION")),
        }
    }
}

fn timeout_from_env(var: &str, default: Option<Duration>) -> Option<Duration> {
    match std::env::var(var).ok().and_then(|v| v.trim().parse::<u64>().ok()) {
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
        None => default,
    }
}

impl ServerConfig {
    /// The default config with every `PQP_*` environment override applied.
    pub fn from_env() -> ServerConfig {
        let d = ServerConfig::default();
        ServerConfig {
            addr: std::env::var("PQP_LISTEN_ADDR").unwrap_or(d.addr),
            read_timeout: timeout_from_env("PQP_SERVER_READ_TIMEOUT_MS", d.read_timeout),
            write_timeout: timeout_from_env("PQP_SERVER_WRITE_TIMEOUT_MS", d.write_timeout),
            name: d.name,
        }
    }
}

/// State shared by the accept loop and every connection thread.
pub(crate) struct Shared {
    pub(crate) service: Arc<Service>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Connections accepted over the server's lifetime.
    pub(crate) connections: AtomicU64,
    /// Sessions currently open.
    pub(crate) active: AtomicU64,
    /// The replication engine, when this node runs a replicated store.
    pub(crate) repl: Option<Arc<repl::ReplNode>>,
    /// The workers that run every session's reads.
    pub(crate) pool: pool::Pool,
}

/// A bound-but-not-yet-running server. [`Server::run`] blocks the calling
/// thread in the accept loop; [`Server::spawn`] runs it on its own thread
/// and returns a [`ServerHandle`] for shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket. The service is shared — the same instance
    /// can keep serving in-process sessions concurrently.
    pub fn bind(service: Arc<Service>, config: ServerConfig) -> io::Result<Server> {
        Server::bind_replicated(service, config, None)
    }

    /// Bind with a replication engine attached: client mutations go
    /// through the node's WAL + log shipping, and the listen port also
    /// speaks the replication frames (a connection's first frame picks
    /// the handler).
    pub fn bind_replicated(
        service: Arc<Service>,
        config: ServerConfig,
        repl: Option<Arc<repl::ReplNode>>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let pool = pool::Pool::start(&service)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                service,
                config,
                shutdown: AtomicBool::new(false),
                connections: AtomicU64::new(0),
                active: AtomicU64::new(0),
                repl,
                pool,
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections until shutdown, spawning one session thread per
    /// connection; the session threads hand reads to the worker pool.
    /// Blocks the calling thread.
    pub fn run(self) {
        let Server { listener, shared } = self;
        Self::accept_loop(listener, shared);
    }

    /// Run the accept loop on its own thread; the returned handle shuts
    /// the server down and joins it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let Server { listener, shared } = self;
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("pqp-accept".to_string())
            .spawn(move || Self::accept_loop(listener, loop_shared))?;
        Ok(ServerHandle { addr, shared, thread })
    }

    fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    pqp_obs::counter_add("server.connections", 1);
                    let conn_shared = Arc::clone(&shared);
                    // Session threads are detached: they exit when the
                    // client goes away or the read timeout fires, and the
                    // service outlives them via the Arc. The workers exit
                    // once this loop and the last session have dropped it.
                    let spawned = std::thread::Builder::new()
                        .name("pqp-session".to_string())
                        .spawn(move || conn::serve(&conn_shared, stream));
                    if spawned.is_err() {
                        pqp_obs::counter_add("server.spawn_failed", 1);
                    }
                }
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    pqp_obs::counter_add("server.accept_failed", 1);
                }
            }
        }
    }
}

/// Handle to a running server: address, stats, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service> {
        &self.shared.service
    }

    /// Connections accepted since the server started.
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> u64 {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// The replication engine, when this server runs replicated.
    pub fn repl(&self) -> Option<&Arc<repl::ReplNode>> {
        self.shared.repl.as_ref()
    }

    /// Stop accepting, wake the accept loop, and join it. Open sessions
    /// drain on their own (client close or read timeout); the worker pool
    /// exits after the last of them.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}
