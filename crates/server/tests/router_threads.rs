//! The router holds no thread per client connection: 32 sessions opened
//! through it and held open leave the process with no more threads than it
//! had before them.
//!
//! This must stay the only test in its binary: it counts the threads of the
//! whole test process, and a server started by another test would add
//! threads of its own.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{movie_db, Q};
use pqp_server::{ReplConfig, ReplNode, Router, RouterConfig, Server, ServerConfig};
use pqp_service::{QueryApi, Service};
use pqp_storage::Value;
use pqp_wire::{Client, ClientConfig};

const SESSIONS: usize = 32;

/// Threads of this process (`/proc/self/task`).
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The fewest threads seen over a few samples. The node answers each of the
/// router's health probes on a short-lived peer thread, so a single sample
/// may catch one in flight.
fn fewest_threads() -> usize {
    (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(5));
            threads()
        })
        .min()
        .unwrap()
}

#[test]
fn sessions_through_the_router_hold_no_thread() {
    let dir = std::env::temp_dir().join(format!("pqp_router_threads_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Arc::new(Service::new(movie_db()));
    let node = ReplNode::open(Arc::clone(&svc), ReplConfig::new("leader", &dir)).unwrap();
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
    let server = Server::bind_replicated(svc, config, Some(node)).unwrap().spawn().unwrap();
    let leader = server.addr().to_string();
    let router = Router::bind(RouterConfig::new("127.0.0.1:0", vec![leader.clone()]))
        .unwrap()
        .spawn()
        .unwrap();
    for _ in 0..600 {
        if router.leader().as_deref() == Some(leader.as_str()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(router.leader().as_deref(), Some(leader.as_str()), "the router found the leader");

    // One session first, so that whatever a first session starts is running.
    let mut client = Client::connect(router.addr(), ClientConfig::new("warm")).unwrap();
    client.query(Q).unwrap();
    client.close();
    let before = fewest_threads();

    let mut sessions: Vec<Client> = (0..SESSIONS)
        .map(|i| Client::connect(router.addr(), ClientConfig::new(format!("user{i}"))).unwrap())
        .collect();
    for (i, client) in sessions.iter_mut().enumerate() {
        client.add_selection("MOVIE", "mid", Value::Int(i as i64 % 3 + 1), 0.5).unwrap();
        client.query(Q).unwrap();
    }
    let held = fewest_threads();
    assert!(
        held <= before,
        "{SESSIONS} sessions held through the router grew the process from {before} to {held} \
         threads"
    );

    for client in sessions {
        client.close();
    }
    router.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
