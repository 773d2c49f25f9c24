//! The `pqp-server` binary: serve a personalized-query database over TCP.
//!
//! With no arguments it generates the demo movie database (plus a handful
//! of seeded user profiles) and listens on `PQP_LISTEN_ADDR` (default
//! `127.0.0.1:5433`). Point the `pqp-wire` [`Client`] at it:
//!
//! ```text
//! PQP_LISTEN_ADDR=127.0.0.1:5433 pqp-server
//! ```
//!
//! Knobs (all environment variables):
//! - `PQP_LISTEN_ADDR` — listen address (default `127.0.0.1:5433`)
//! - `PQP_SERVER_READ_TIMEOUT_MS` / `PQP_SERVER_WRITE_TIMEOUT_MS` —
//!   per-session socket timeouts (0 = none)
//! - `PQP_MAX_IN_FLIGHT` — admission-control limit (0 = unlimited)
//! - `PQP_DEADLINE_MS`, `PQP_MAX_ROWS_SCANNED`, `PQP_MAX_MEMORY_BYTES` —
//!   per-query governor budget
//! - `PQP_FAILPOINTS` — fault injection, e.g. `server.frame=error(boom)`
//!
//! Replication (see `DESIGN.md` §17):
//! - `PQP_WAL_DIR` — turn on the crash-safe replicated mutation log,
//!   storing the WAL/snapshot/term files here
//! - `PQP_NODE_ID`, `PQP_REPL_ROLE` (`leader`|`follower`),
//!   `PQP_REPL_PEERS` (comma-separated follower addresses),
//!   `PQP_REPL_QUORUM` — replication identity and durability quorum; a
//!   value that is set but invalid stops the server with exit code 2
//!
//! Router mode (replaces server mode when set):
//! - `PQP_ROUTER_NODES` — comma-separated node addresses; the process
//!   becomes a thin router that proxies clients to the current leader
//!   and promotes the most-caught-up follower when the leader dies
//!   (`PQP_ROUTER_ADDR` to pick the listen address)
//!
//! [`Client`]: pqp_wire::Client

use std::sync::Arc;

use pqp_datagen::{generate, generate_profiles, MovieDbConfig, ProfileGenConfig};
use pqp_server::{ReplConfig, ReplNode, Router, RouterConfig, Server, ServerConfig};
use pqp_service::{Service, ServiceConfig};

fn main() {
    // Router mode: no database, no service — just health checks and
    // byte proxying to the current leader.
    if let Some(router_config) = RouterConfig::from_env() {
        let addr = router_config.addr.clone();
        let router = match Router::bind(router_config) {
            Ok(router) => router,
            Err(e) => {
                eprintln!("pqp-server: router cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        };
        match router.local_addr() {
            Ok(addr) => println!("pqp-server routing on {addr}"),
            Err(e) => eprintln!("pqp-server: local_addr failed: {e}"),
        }
        match router.spawn() {
            Ok(_handle) => loop {
                std::thread::park();
            },
            Err(e) => {
                eprintln!("pqp-server: router threads failed to start: {e}");
                std::process::exit(1);
            }
        }
    }

    // A mistyped replication variable must stop the node, not start it in
    // a role or with a quorum the operator did not ask for.
    let repl_config = ReplConfig::from_env().unwrap_or_else(|e| {
        eprintln!("pqp-server: {e}");
        std::process::exit(2);
    });

    let movie_db = generate(MovieDbConfig::default());
    let service = Arc::new(Service::with_config(movie_db.db, ServiceConfig::from_env()));
    // A bad fault spec is reported, arms nothing, and never stops the node.
    if let Err(e) = service.failpoints().configure_from_env() {
        eprintln!("pqp-server: PQP_FAILPOINTS ignored: {e}");
    }

    // With a WAL configured, recovery replays the durable profile store;
    // generated seed profiles only populate a fresh (empty-log) node.
    let repl = match repl_config {
        Some(config) => match ReplNode::open(Arc::clone(&service), config) {
            Ok(node) => Some(node),
            Err(e) => {
                eprintln!("pqp-server: replication recovery failed: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };
    if service.users().is_empty() {
        let profiles = generate_profiles(
            "user",
            16,
            &movie_db.pools,
            &ProfileGenConfig { selections: 40, seed: 7, ..Default::default() },
        );
        for profile in profiles {
            if let Err(e) = service.install_profile(profile) {
                eprintln!("pqp-server: skipping generated profile: {e}");
            }
        }
    }

    let config = ServerConfig::from_env();
    let server = match Server::bind_replicated(service, config.clone(), repl) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pqp-server: cannot listen on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("pqp-server listening on {addr} (protocol v{})", {
            pqp_wire::PROTOCOL_VERSION
        }),
        Err(e) => eprintln!("pqp-server: local_addr failed: {e}"),
    }
    server.run();
}
