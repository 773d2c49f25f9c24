//! The `pqp-server` binary: serve a personalized-query database over TCP.
//!
//! With no arguments it generates the demo movie database (plus a handful
//! of seeded user profiles) and listens on `127.0.0.1:5433`. Point the
//! `pqp-wire` [`Client`] at it:
//!
//! ```text
//! PQP_LISTEN_ADDR=127.0.0.1:5433 pqp-server
//! ```
//!
//! It is configured by `PQP_*` environment variables, parsed once by
//! [`Config::from_env`] (the table is in `pqp_server::config`). A value that
//! is set but invalid stops it with exit code 2 before it generates any data.
//!
//! [`Client`]: pqp_wire::Client

use std::fmt::Display;
use std::sync::Arc;

use pqp_datagen::{generate, generate_profiles, MovieDbConfig, ProfileGenConfig};
use pqp_server::{Config, NodeConfig, ReplNode, Router, RouterConfig, Server};
use pqp_service::Service;

fn main() {
    match Config::from_env() {
        Ok(Config::Router(config)) => route(config),
        Ok(Config::Node(config)) => serve(*config),
        Err(e) => die(2, e),
    }
}

/// Report `error` and exit: code 2 for a bad configuration, 1 for a node or
/// router that cannot start.
fn die(code: i32, error: impl Display) -> ! {
    eprintln!("pqp-server: {error}");
    std::process::exit(code)
}

/// Router mode: no database, no service — just health checks and a
/// redirect of each client's handshake to the current leader.
fn route(config: RouterConfig) {
    let addr = config.addr.clone();
    let router = Router::bind(config)
        .unwrap_or_else(|e| die(1, format!("router cannot listen on {addr}: {e}")));
    match router.local_addr() {
        Ok(addr) => println!("pqp-server routing on {addr}"),
        Err(e) => eprintln!("pqp-server: local_addr failed: {e}"),
    }
    let _handle =
        router.spawn().unwrap_or_else(|e| die(1, format!("router threads failed to start: {e}")));
    loop {
        std::thread::park();
    }
}

fn serve(config: NodeConfig) {
    let movie_db = generate(MovieDbConfig::default());
    let service = Arc::new(Service::with_config(movie_db.db, config.service.clone()));
    config.arm_failpoints(service.failpoints()).unwrap_or_else(|e| die(2, e));

    // With a WAL configured, recovery replays the durable profile store;
    // generated seed profiles only populate a fresh (empty-log) node.
    let repl = config.repl.map(|repl| {
        ReplNode::open(Arc::clone(&service), repl)
            .unwrap_or_else(|e| die(1, format!("replication recovery failed: {e}")))
    });
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

    let addr = config.server.addr.clone();
    let server = Server::bind_replicated(service, config.server, repl)
        .unwrap_or_else(|e| die(1, format!("cannot listen on {addr}: {e}")));
    match server.local_addr() {
        Ok(addr) => println!("pqp-server listening on {addr} (protocol v{})", {
            pqp_wire::PROTOCOL_VERSION
        }),
        Err(e) => eprintln!("pqp-server: local_addr failed: {e}"),
    }
    server.run();
}
