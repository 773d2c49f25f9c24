//! # pqp-server — the TCP session runtime
//!
//! Serves a [`Service`] over TCP speaking the `pqp-wire` protocol. Each
//! connection is one user session, bound at handshake. Every session of a
//! server is served by one epoll readiness loop (`event_loop.rs`): a loop
//! thread per run slot (`available_parallelism().max(2)`, plus a standby
//! for when long reads hold every slot) waits on one set, and the thread
//! that sees a session readable runs its read on the spot and writes the
//! answer. The session logic itself — framing from a byte buffer, the
//! handshake, protocol errors and the close reason — is the socket-free
//! `SessionCore` (`session.rs`). Mutations run on a mutation thread and
//! replication peer links on blocking threads of their own, never on a
//! loop thread. Every failure is a typed error frame, and the service's
//! admission control surfaces as `Overloaded` frames at the network edge.
//! The server needs Linux (epoll).
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
//!   failure is counted, and the session closes.
//! - A client that stops reading holds no thread: its answers wait in the
//!   session's buffer, and it is closed once they have waited past the
//!   write timeout.
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
//! the companion routing tier for multi-node deployments: it redirects
//! each client's handshake to the current leader, and the client then
//! talks to the leader directly.

#[cfg(not(target_os = "linux"))]
compile_error!("pqp-server serves its sessions from an epoll set and needs Linux");

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pqp_service::Service;

pub mod config;
mod conn;
mod epoll;
mod event_loop;
pub mod repl;
pub mod router;
mod session;

pub use config::{Config, ConfigError, NodeConfig};
pub use repl::{PeerLink, ReplConfig, ReplNode};
pub use router::{Router, RouterConfig, RouterHandle};

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (default `127.0.0.1:5433`).
    pub addr: String,
    /// Per-session read timeout: a session is closed after this long with
    /// no bytes in and no answer out (default 60 s; `None` = no timeout).
    pub read_timeout: Option<Duration>,
    /// Per-session write timeout: a session whose answers have waited this
    /// long for the client to read them is closed (default 30 s; `None` =
    /// no timeout).
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

/// State shared by the accept loop and the readiness loop's threads.
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
    /// The readiness loop that serves every session.
    pub(crate) runtime: event_loop::Runtime,
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
        let runtime = event_loop::Runtime::new(&config)?;
        service.telemetry().set_pool_workers(runtime.slots());
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                service,
                config,
                shutdown: AtomicBool::new(false),
                connections: AtomicU64::new(0),
                active: AtomicU64::new(0),
                repl,
                runtime,
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start the readiness loop and accept connections into it until
    /// shutdown. Blocks the calling thread.
    pub fn run(self) {
        let Server { listener, shared } = self;
        if event_loop::Runtime::start(&shared).is_err() {
            pqp_obs::counter_add("server.spawn_failed", 1);
            return;
        }
        Self::accept_loop(listener, shared);
    }

    /// Run the accept loop on its own thread; the returned handle shuts
    /// the server down and joins it.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let Server { listener, shared } = self;
        event_loop::Runtime::start(&shared)?;
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("pqp-accept".to_string())
            .spawn(move || Self::accept_loop(listener, loop_shared))
            .inspect_err(|_| {
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.runtime.accept_ended(&shared);
            })?;
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
                    shared.runtime.register(&shared, stream);
                }
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    pqp_obs::counter_add("server.accept_failed", 1);
                }
            }
        }
        shared.runtime.accept_ended(&shared);
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
    /// keep being served (each later request is answered `Bye`) until the
    /// client closes or a timeout fires; the loop threads exit after the
    /// last of them.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}
