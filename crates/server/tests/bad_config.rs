//! A `PQP_*` value that is set but invalid stops `pqp-server` with exit code
//! 2 and a message naming it, before it generates any data — not a node
//! serving without the deadline or the faults it was given.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_bad_variable_stops_the_binary_with_exit_code_2_naming_it() {
    for (var, value) in [("PQP_DEADLINE_MS", "5s"), ("PQP_FAILPOINTS", "nope")] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pqp-server"))
            .env_clear()
            .env("PQP_LISTEN_ADDR", "127.0.0.1:0")
            .env(var, value)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("pqp-server with {var}={value:?} still runs after 5 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(&format!("{var}={value:?} is not valid")), "{stderr}");
    }
}
