//! The query worker pool's lifetime: its threads exit once the server is
//! shut down and its last session has closed.
//!
//! This must stay the only test in its binary: it counts the threads of the
//! whole test process, and a server started by another test would add
//! workers of its own.

mod common;

use std::time::Duration;

use common::{service_with_ana, start, Q};
use pqp_service::QueryApi;
use pqp_wire::{Client, ClientConfig};

/// Threads of this process named `pqp-worker` (`/proc/self/task/*/comm`).
fn workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "pqp-worker")
        .count()
}

/// Poll until `cond` holds on the worker count.
fn settle(what: &str, cond: impl Fn(usize) -> bool) {
    for _ in 0..300 {
        if cond(workers()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting until {what} ({} pqp-worker threads)", workers());
}

#[test]
fn workers_exit_with_the_server_and_its_last_session() {
    let handle = start(service_with_ana());
    let pool = handle.service().telemetry().snapshot().pool_workers as usize;
    assert!(pool >= 2, "the pool has at least two workers, got {pool}");
    // A thread takes its name once it runs, so the count is polled.
    settle("every worker is named", |n| n == pool + 1);

    let mut client = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    assert!(client.query(Q).is_ok());
    handle.shutdown();
    assert_eq!(workers(), pool + 1, "workers outlive shutdown while a session is open");

    client.close();
    settle("no worker is left after shutdown and the last close", |n| n == 0);
}
