//! The one parse of the `pqp-server` binary's configuration.
//!
//! [`Config::from_env`] reads every `PQP_*` variable once and returns the
//! typed configuration of the mode they select; no library reads the
//! environment. One rule holds for every variable: unset or blank means the
//! default, and a value that is set but invalid is a [`ConfigError`] naming
//! the variable — never a silent default. `pqp-server` exits with code 2 on
//! it before it generates any data. Values are trimmed, durations are whole
//! milliseconds, and a variable is read only in the mode it configures.
//!
//! | variable | mode | meaning | default |
//! |---|---|---|---|
//! | `PQP_ROUTER_NODES` | — | comma-separated node addresses; setting it selects router mode | node mode |
//! | `PQP_ROUTER_ADDR` | router | listen address | `127.0.0.1:5440` |
//! | `PQP_REPL_TOKEN` | router, replicated node | cluster shared secret on the replication frames, the same on every node and the router | empty: no check |
//! | `PQP_LISTEN_ADDR` | node | listen address | `127.0.0.1:5433` |
//! | `PQP_SERVER_READ_TIMEOUT_MS` | node | idle-session timeout (`0` = none) | 60 000 |
//! | `PQP_SERVER_WRITE_TIMEOUT_MS` | node | response write timeout (`0` = none) | 30 000 |
//! | `PQP_DEADLINE_MS` | node | per-query wall-clock deadline (`0` = none) | none |
//! | `PQP_MAX_ROWS_SCANNED` | node | cap on base-table rows read per query | none |
//! | `PQP_MAX_MEMORY_BYTES` | node | cap on materialized intermediate bytes per query | none |
//! | `PQP_MAX_IN_FLIGHT` | node | queries in flight before `Overloaded` (`0` = unlimited) | 0 |
//! | `PQP_SLOW_QUERY_MS` | node | slow-query threshold of the query log (`0` = off) | 250 |
//! | `PQP_QUERY_LOG_FILE` | node | JSON-lines file receiving every query record | none |
//! | `PQP_FAILPOINTS` | node | fault-injection sites, `site=spec;…` (grammar in `pqp_obs::failpoint`) | none |
//! | `PQP_FAILPOINT_SEED` | node | seed of the probabilistic failpoints | fixed |
//! | `PQP_WAL_DIR` | node | WAL, snapshot and term directory; setting it turns replication on | no WAL |
//! | `PQP_NODE_ID` | replicated node | identity in peer handshakes and telemetry | `node-1` |
//! | `PQP_REPL_ROLE` | replicated node | starting role, `leader` or `follower` | `leader` |
//! | `PQP_REPL_PEERS` | replicated node | comma-separated follower addresses | none |
//! | `PQP_REPL_QUORUM` | replicated node | nodes holding a mutation before the ack; a leader's is at most its peers + 1 | 1 |
//!
//! The protocol timings are constants: the router probes every 200 ms,
//! promotes after 3 leaderless rounds and gives a probe 1 s; a replicated
//! node snapshots its log every 1 024 records and gives a peer link 5 s
//! ([`ReplConfig::new`]).

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use pqp_obs::failpoint::Failpoints;
use pqp_obs::Budget;
use pqp_service::{ServiceConfig, TelemetryConfig};
use pqp_wire::repl::Role;

use crate::{ReplConfig, RouterConfig, ServerConfig};

const ROUTER_PROBE_INTERVAL: Duration = Duration::from_millis(200);
const ROUTER_FAIL_THRESHOLD: u32 = 3;
const ROUTER_PROBE_TIMEOUT: Duration = Duration::from_millis(1_000);

const WHOLE_NUMBER: &str = "a non-negative whole number";

/// The binary's configuration: one mode, fully parsed.
#[derive(Debug, Clone)]
pub enum Config {
    /// `PQP_ROUTER_NODES` is set: proxy clients to the cluster's leader.
    Router(RouterConfig),
    /// Serve the database, alone or as a replicated node.
    Node(Box<NodeConfig>),
}

/// Everything a serving node is built from.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Governor budget, admission limit and telemetry.
    pub service: ServiceConfig,
    /// Listen address and session timeouts.
    pub server: ServerConfig,
    /// Present when `PQP_WAL_DIR` turns the replicated mutation log on.
    pub repl: Option<ReplConfig>,
    /// Fault-injection spec (`PQP_FAILPOINTS`), checked by the parse.
    pub failpoints: Option<String>,
    /// Seed of the probabilistic failpoints (`PQP_FAILPOINT_SEED`).
    pub failpoint_seed: Option<u64>,
}

/// A variable that is set but invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable's name.
    pub var: &'static str,
    /// Its trimmed value.
    pub value: String,
    /// What the variable accepts.
    pub expected: String,
}

impl ConfigError {
    fn new(var: &'static str, value: &str, expected: impl Into<String>) -> ConfigError {
        ConfigError { var, value: value.to_string(), expected: expected.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not valid: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse the process environment (the table is in the module docs).
    pub fn from_env() -> Result<Config, ConfigError> {
        Config::from_lookup(|name| std::env::var(name).ok())
    }

    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Config, ConfigError> {
        let vars = Vars(&lookup);
        let token = vars.text("PQP_REPL_TOKEN").unwrap_or_default();
        if let Some(nodes) = vars.list("PQP_ROUTER_NODES").filter(|nodes| !nodes.is_empty()) {
            return Ok(Config::Router(RouterConfig {
                addr: vars.text("PQP_ROUTER_ADDR").unwrap_or_else(|| "127.0.0.1:5440".into()),
                nodes,
                probe_interval: ROUTER_PROBE_INTERVAL,
                fail_threshold: ROUTER_FAIL_THRESHOLD,
                probe_timeout: ROUTER_PROBE_TIMEOUT,
                token,
            }));
        }
        let (service, server) = (ServiceConfig::default(), ServerConfig::default());
        let node = NodeConfig {
            service: ServiceConfig {
                // The default budget is unlimited: every field `None`.
                budget: Budget {
                    deadline: vars.millis("PQP_DEADLINE_MS", None)?,
                    max_rows_scanned: vars.number("PQP_MAX_ROWS_SCANNED")?,
                    max_memory: vars.number("PQP_MAX_MEMORY_BYTES")?,
                },
                max_in_flight: vars.number("PQP_MAX_IN_FLIGHT")?.unwrap_or(service.max_in_flight),
                telemetry: TelemetryConfig {
                    slow_query_ms: vars
                        .number("PQP_SLOW_QUERY_MS")?
                        .unwrap_or(service.telemetry.slow_query_ms),
                    log_file: vars.text("PQP_QUERY_LOG_FILE").map(Into::into),
                    ..service.telemetry
                },
                ..service
            },
            server: ServerConfig {
                addr: vars.text("PQP_LISTEN_ADDR").unwrap_or(server.addr),
                read_timeout: vars.millis("PQP_SERVER_READ_TIMEOUT_MS", server.read_timeout)?,
                write_timeout: vars.millis("PQP_SERVER_WRITE_TIMEOUT_MS", server.write_timeout)?,
                ..server
            },
            repl: vars.text("PQP_WAL_DIR").map(|dir| vars.repl(dir, token)).transpose()?,
            failpoints: vars.text("PQP_FAILPOINTS"),
            failpoint_seed: vars.number("PQP_FAILPOINT_SEED")?,
        };
        // Arming a scratch registry checks the spec: a fault the operator
        // asked for and did not get would read as a false pass.
        node.arm_failpoints(&Failpoints::default())?;
        Ok(Config::Node(Box::new(node)))
    }
}

impl NodeConfig {
    /// Seed `registry` and arm the configured failpoints on it, all sites or
    /// none.
    pub fn arm_failpoints(&self, registry: &Failpoints) -> Result<(), ConfigError> {
        if let Some(seed) = self.failpoint_seed {
            registry.set_seed(seed);
        }
        let Some(spec) = &self.failpoints else { return Ok(()) };
        registry.configure_many(spec).map_err(|e| {
            ConfigError::new("PQP_FAILPOINTS", spec, format!("`site=spec;…` failpoints ({e})"))
        })
    }
}

/// The environment as a lookup, with one reader per kind of value.
struct Vars<'a>(&'a dyn Fn(&str) -> Option<String>);

impl Vars<'_> {
    /// The trimmed value; unset or blank is `None`.
    fn text(&self, var: &str) -> Option<String> {
        (self.0)(var).map(|v| v.trim().to_string()).filter(|v| !v.is_empty())
    }

    fn number<T: FromStr>(&self, var: &'static str) -> Result<Option<T>, ConfigError> {
        let parse = |v: String| v.parse().map_err(|_| ConfigError::new(var, &v, WHOLE_NUMBER));
        self.text(var).map(parse).transpose()
    }

    /// Whole milliseconds, `0` = none; unset or blank is `default`.
    fn millis(
        &self,
        var: &'static str,
        default: Option<Duration>,
    ) -> Result<Option<Duration>, ConfigError> {
        Ok(self.number(var)?.map_or(default, |ms| (ms > 0).then(|| Duration::from_millis(ms))))
    }

    /// Comma-separated items, blank ones dropped.
    fn list(&self, var: &str) -> Option<Vec<String>> {
        let text = self.text(var)?;
        Some(text.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect())
    }

    /// The replication variables, read once `PQP_WAL_DIR` is set.
    fn repl(&self, wal_dir: String, token: String) -> Result<ReplConfig, ConfigError> {
        let d =
            ReplConfig::new(self.text("PQP_NODE_ID").unwrap_or_else(|| "node-1".into()), wal_dir);
        let role = match self.text("PQP_REPL_ROLE").as_deref() {
            None | Some("leader") => Role::Leader,
            Some("follower") => Role::Follower,
            Some(v) => return Err(ConfigError::new("PQP_REPL_ROLE", v, "`leader` or `follower`")),
        };
        let peers = self.list("PQP_REPL_PEERS").unwrap_or_default();
        let quorum = self.number("PQP_REPL_QUORUM")?.unwrap_or(d.quorum);
        // A leader with fewer nodes than its quorum fsyncs every mutation and
        // then answers Unavailable. A follower gets its peers when promoted.
        if quorum == 0 || (role == Role::Leader && quorum > peers.len() + 1) {
            let n = peers.len();
            let expected = format!(
                "at least 1; for a leader, at most {} (itself + {n} PQP_REPL_PEERS)",
                n + 1
            );
            return Err(ConfigError::new("PQP_REPL_QUORUM", &quorum.to_string(), expected));
        }
        Ok(ReplConfig { quorum, peers, role, token, ..d })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<Config, ConfigError> {
        Config::from_lookup(|name| {
            vars.iter().find(|(n, _)| *n == name).map(|(_, v)| v.to_string())
        })
    }

    fn node(vars: &[(&str, &str)]) -> NodeConfig {
        match parse(vars) {
            Ok(Config::Node(node)) => *node,
            other => panic!("expected node mode for {vars:?}, got {other:?}"),
        }
    }

    #[test]
    fn every_variable_lands_in_its_field_defaults_when_blank_and_rejects_a_bad_number() {
        // A peer, so that a leader's quorum of 2 is reachable.
        let base = [("PQP_WAL_DIR", "/tmp/w"), ("PQP_REPL_PEERS", "p:1")];
        let config = |vars: &[(&str, &str)]| format!("{:?}", node(vars));
        for (var, value, field, numeric) in [
            ("PQP_LISTEN_ADDR", " 127.0.0.1:0 ", r#"addr: "127.0.0.1:0""#, false),
            ("PQP_WAL_DIR", " /tmp/x ", r#"wal_dir: "/tmp/x""#, false),
            ("PQP_SERVER_READ_TIMEOUT_MS", "0", "read_timeout: None", true),
            ("PQP_SERVER_WRITE_TIMEOUT_MS", "1500", "write_timeout: Some(1.5s)", true),
            ("PQP_DEADLINE_MS", " 1234\n", "deadline: Some(1.234s)", true),
            ("PQP_MAX_ROWS_SCANNED", "77", "max_rows_scanned: Some(77)", true),
            ("PQP_MAX_MEMORY_BYTES", "4096", "max_memory: Some(4096)", true),
            ("PQP_MAX_IN_FLIGHT", "3", "max_in_flight: 3", true),
            ("PQP_SLOW_QUERY_MS", "0", "slow_query_ms: 0", true),
            ("PQP_QUERY_LOG_FILE", "/tmp/q.jsonl", r#"log_file: Some("/tmp/q.jsonl")"#, false),
            ("PQP_FAILPOINTS", "s.x=off", r#"failpoints: Some("s.x=off")"#, false),
            ("PQP_FAILPOINT_SEED", "42", "failpoint_seed: Some(42)", true),
            ("PQP_NODE_ID", "node-2", r#"node_id: "node-2""#, false),
            ("PQP_REPL_ROLE", " follower", "role: Follower", false),
            ("PQP_REPL_PEERS", "a:1, b:2,", r#"peers: ["a:1", "b:2"]"#, false),
            ("PQP_REPL_QUORUM", "2", "quorum: 2", true),
            ("PQP_REPL_TOKEN", "t", r#"token: "t""#, false),
        ] {
            let unset: Vec<_> = base.into_iter().filter(|(name, _)| *name != var).collect();
            let with = |value| [&[(var, value)], &unset[..]].concat();
            let set = config(&with(value));
            assert!(set.contains(field) && !config(&unset).contains(field), "{var}: {set}");
            for blank in ["", " \t\n"] {
                assert_eq!(config(&with(blank)), config(&unset), "{var}");
            }
            if !numeric {
                continue;
            }
            for bad in ["5s", "ten", "-1", "1.5", "0x10", "99999999999999999999999"] {
                let padded = format!(" {bad}\n");
                let err = parse(&[&[(var, padded.as_str())], &unset[..]].concat()).expect_err(var);
                assert_eq!((err.var, err.value.as_str()), (var, bad));
                let message = format!("{var}={bad:?} is not valid: expected {WHOLE_NUMBER}");
                assert_eq!(err.to_string(), message);
            }
        }
        // A zero deadline is no deadline, like every millisecond variable.
        assert_eq!(node(&[("PQP_DEADLINE_MS", "0")]).service.budget, Budget::unlimited());
    }

    #[test]
    fn defaults_are_the_library_defaults_and_router_nodes_select_router_mode() {
        let node = node(&[]);
        assert_eq!(format!("{:?}", node.service), format!("{:?}", ServiceConfig::default()));
        assert_eq!(format!("{:?}", node.server), format!("{:?}", ServerConfig::default()));
        assert!(node.repl.is_none() && node.failpoints.is_none() && node.failpoint_seed.is_none());
        let repl = self::node(&[("PQP_WAL_DIR", "/tmp/w")]).repl;
        assert_eq!(format!("{repl:?}"), format!("{:?}", Some(ReplConfig::new("node-1", "/tmp/w"))));
        // The replication variables mean nothing without a WAL directory.
        assert!(self::node(&[("PQP_REPL_ROLE", "follower")]).repl.is_none());

        let vars = [("PQP_ROUTER_NODES", "a:1, b:2,"), ("PQP_REPL_TOKEN", "t")];
        let Ok(Config::Router(router)) = parse(&vars) else { panic!("expected router mode") };
        assert_eq!((router.addr.as_str(), router.token.as_str()), ("127.0.0.1:5440", "t"));
        assert_eq!(router.nodes, ["a:1", "b:2"]);
        // The binary's probe timings, which the benchmark's cluster mirrors.
        let timings = (router.probe_interval, router.fail_threshold, router.probe_timeout);
        assert_eq!(timings, (Duration::from_millis(200), 3, Duration::from_millis(1_000)));
        assert!(matches!(parse(&[("PQP_ROUTER_NODES", " , ")]), Ok(Config::Node(_))));
    }

    #[test]
    fn a_bad_role_or_an_unreachable_leader_quorum_is_an_error() {
        let repl = |role: &str, peers: &str, quorum: &str| {
            let wal = ("PQP_WAL_DIR", "/tmp/w");
            parse(&[
                wal,
                ("PQP_REPL_ROLE", role),
                ("PQP_REPL_PEERS", peers),
                ("PQP_REPL_QUORUM", quorum),
            ])
        };
        for role in ["Follower", "folower", "FOLLOWER", "primary"] {
            let err = repl(role, "", "").expect_err(role);
            let expected = ("PQP_REPL_ROLE", role, "`leader` or `follower`");
            assert_eq!((err.var, err.value.as_str(), err.expected.as_str()), expected);
        }
        for role in ["", "leader"] {
            assert!(repl(role, "a:1,b:2", "3").is_ok());
            let Ok(Config::Node(node)) = repl(role, "a:1", "2") else { panic!("{role}") };
            assert_eq!(node.repl.map(|repl| repl.role), Some(Role::Leader));
            for (peers, quorum) in [("", "2"), ("a:1", "3"), ("a:1,b:2", "4"), ("a:1", "0")] {
                let err = repl(role, peers, quorum).expect_err(quorum);
                assert_eq!((err.var, err.value.as_str()), ("PQP_REPL_QUORUM", quorum));
            }
        }
        // A follower gets its peers when it is promoted: only 0 is wrong.
        assert!(repl("follower", "", "2").is_ok() && repl("follower", "", "0").is_err());
    }

    #[test]
    fn failpoints_are_checked_by_the_parse_and_armed_with_their_seed() {
        let spec = "service.query=1*error(armed); nope";
        let err = parse(&[("PQP_FAILPOINTS", spec)]).expect_err(spec);
        assert_eq!((err.var, err.value.as_str()), ("PQP_FAILPOINTS", spec));
        let spec = "service.query=1*error(armed); storage.scan=50%error";
        let node = node(&[("PQP_FAILPOINTS", spec), ("PQP_FAILPOINT_SEED", "42")]);
        let (armed, reference) = (Failpoints::default(), Failpoints::default());
        node.arm_failpoints(&armed).unwrap();
        assert_eq!(armed.fire("service.query").as_deref(), Some("armed"));
        assert_eq!(armed.fire("service.query"), None, "a 1* site fires once");
        reference.set_seed(42);
        reference.configure("storage.scan", "50%error").unwrap();
        for _ in 0..64 {
            assert_eq!(armed.fire("storage.scan"), reference.fire("storage.scan"));
        }
    }
}
