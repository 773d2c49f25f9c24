//! Failover chaos: kill the leader mid-workload and prove the cluster
//! loses nothing. The acceptance bar: typed errors only, zero process
//! aborts, no acked mutation lost, and byte-identical personalized
//! answers from the promoted leader. Every node is its own service with
//! its own failpoint registry, so a fault armed on one leader stays there.

mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{movie_db, Q};
use pqp_server::{
    PeerLink, ReplConfig, ReplNode, Router, RouterConfig, RouterHandle, Server, ServerConfig,
    ServerHandle,
};
use pqp_service::{QueryApi, Service, UserId};
use pqp_storage::Value;
use pqp_wire::repl::{ReplRequest, ReplResponse, Role};
use pqp_wire::{Client, ClientConfig, Request, Response};

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..600 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting until {what}");
}

/// One in-process cluster member: its own service, WAL dir, replication
/// engine, and TCP server on an ephemeral port.
struct TestNode {
    dir: PathBuf,
    svc: Arc<Service>,
    node: Arc<ReplNode>,
    handle: Option<ServerHandle>,
    addr: String,
}

impl TestNode {
    fn start(tag: &str, role: Role, peers: Vec<String>, quorum: usize) -> TestNode {
        let dir =
            std::env::temp_dir().join(format!("pqp_repl_failover_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TestNode::start_in(dir, tag, role, peers, quorum)
    }

    /// Like [`TestNode::start`], but on an existing WAL dir — a node
    /// rebooting after a crash, recovering whatever was durable.
    fn start_in(
        dir: PathBuf,
        tag: &str,
        role: Role,
        peers: Vec<String>,
        quorum: usize,
    ) -> TestNode {
        let svc = Arc::new(Service::new(movie_db()));
        let mut config = ReplConfig::new(tag, &dir);
        config.role = role;
        config.peers = peers;
        config.quorum = quorum;
        config.ship_timeout = Duration::from_millis(500);
        let node = ReplNode::open(Arc::clone(&svc), config).unwrap();
        let server_config =
            ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
        let handle =
            Server::bind_replicated(Arc::clone(&svc), server_config, Some(Arc::clone(&node)))
                .unwrap()
                .spawn()
                .unwrap();
        let addr = handle.addr().to_string();
        TestNode { dir, svc, node, handle: Some(handle), addr }
    }

    /// Kill this node's server (connections refuse; the process-local
    /// state stays around, as a crashed-but-not-reaped node's would).
    fn kill(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }

    /// Kill the node and hand back its WAL dir *without* deleting it,
    /// so the node can be "rebooted" with [`TestNode::start_in`].
    fn stop_keeping_dir(mut self) -> PathBuf {
        self.kill();
        std::mem::take(&mut self.dir)
    }

    fn profile_json(&self, user: &str) -> Option<String> {
        self.svc.profile(UserId::from(user)).map(|p| p.to_json())
    }
}

impl Drop for TestNode {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Install ana's personalization profile through the wire client; every
/// returned `Ok` is an acked (quorum-durable) mutation.
fn install_ana(client: &mut Client) {
    client.add_join("MOVIE", "mid", "GENRE", "mid", 0.9).unwrap();
    client.add_selection("GENRE", "genre", Value::Str("comedy".into()), 0.8).unwrap();
}

#[test]
fn leader_death_failover_keeps_every_acked_mutation_and_answer() {
    // Topology: f2 (leaf) ← f1 ← leader; f1 is wired to ship to f2 so
    // it can sustain quorum 2 after taking over.
    let f2 = TestNode::start("f2", Role::Follower, vec![], 1);
    let f1 = TestNode::start("f1", Role::Follower, vec![f2.addr.clone()], 2);
    let mut leader =
        TestNode::start("lead0", Role::Leader, vec![f1.addr.clone(), f2.addr.clone()], 2);

    let mut client = Client::connect(&*leader.addr, ClientConfig::new("ana")).unwrap();
    install_ana(&mut client);
    let baseline = client.query(Q).unwrap();
    assert_eq!(baseline.meta.k, 1, "the personalized answer found the comedy slice");
    client.close();

    // Quorum 2 means at least one follower holds both mutations; with a
    // healthy cluster both do.
    wait_until("followers caught up", || {
        f1.node.status().last_seq == 2 && f2.node.status().last_seq == 2
    });

    // Kill the leader. Promote the most-caught-up follower at a term
    // above the dead leader's — what the router does automatically.
    leader.kill();
    let (best, other) = if f1.node.status().last_seq >= f2.node.status().last_seq {
        (&f1, &f2)
    } else {
        (&f2, &f1)
    };
    assert_eq!(best.addr, f1.addr, "f1 holds the longest log and can ship to f2");
    let term = leader.node.term() + 1;
    let response = best
        .node
        .handle_peer(ReplRequest::Promote { term, token: String::new() }, &mut PeerLink::new());
    assert!(matches!(response, ReplResponse::Ok { .. }), "promotion refused: {response:?}");
    assert_eq!(best.node.role(), Role::Leader);

    // No acked mutation lost: the new leader serves byte-identical
    // personalized answers.
    let mut client = Client::connect(&*best.addr, ClientConfig::new("ana")).unwrap();
    let after = client.query(Q).unwrap();
    assert_eq!(after.rows, baseline.rows, "personalized answer changed across failover");
    assert_eq!(after.meta.k, baseline.meta.k);

    // The cluster keeps accepting writes at quorum 2 (new leader + f2).
    client.add_selection("MOVIE", "mid", Value::Int(2), 0.4).unwrap();
    client.close();
    wait_until("f2 receives the post-failover mutation", || other.node.status().last_seq == 3);
    assert_eq!(
        best.profile_json("ana"),
        other.profile_json("ana"),
        "replicas diverged after failover"
    );

    // Fencing: the deposed leader's next ship is rejected by the higher
    // term — it steps down and the mutation fails with a typed error.
    let err = leader
        .node
        .client_mutate(
            &UserId::from("ana"),
            pqp_wire::ProfileOp::AddSelection {
                table: "MOVIE".into(),
                column: "mid".into(),
                value: Value::Int(99),
                doi: 0.1,
            },
        )
        .unwrap_err();
    assert_eq!(err.kind(), "unavailable", "fenced write got {err:?}");
    assert_eq!(leader.node.role(), Role::Follower, "the old leader stepped down");
    assert!(leader.node.term() >= term, "the old leader adopted the fencing term");
}

#[test]
fn router_promotes_the_survivor_and_keeps_routing() {
    let follower = TestNode::start("rf", Role::Follower, vec![], 1);
    let mut leader = TestNode::start("rlead", Role::Leader, vec![follower.addr.clone()], 2);

    let router = Router::bind(RouterConfig::new(
        "127.0.0.1:0",
        vec![leader.addr.clone(), follower.addr.clone()],
    ))
    .unwrap()
    .spawn()
    .unwrap();
    let leader_addr = leader.addr.clone();
    wait_until("router finds the leader", || router.leader().as_deref() == Some(&*leader_addr));

    // Writes through the router land on the leader and replicate.
    let mut client = Client::connect(router.addr(), ClientConfig::new("ana")).unwrap();
    install_ana(&mut client);
    let baseline = client.query(Q).unwrap();
    client.close();
    wait_until("follower caught up", || follower.node.status().last_seq == 2);

    // Leader dies; the router notices, promotes the follower (the only
    // reachable node, with the full log), and re-routes.
    leader.kill();
    wait_until("router promotes the follower", || follower.node.role() == Role::Leader);
    let follower_addr = follower.addr.clone();
    wait_until("router routes to the new leader", || {
        router.leader().as_deref() == Some(&*follower_addr)
    });

    let mut client = Client::connect(router.addr(), ClientConfig::new("ana")).unwrap();
    let after = client.query(Q).unwrap();
    assert_eq!(after.rows, baseline.rows, "answer changed across router failover");
    // Post-failover writes work (the promoted node acks alone: its own
    // quorum config is 1).
    client.add_selection("MOVIE", "mid", Value::Int(3), 0.3).unwrap();
    client.close();
    router.shutdown();
}

#[test]
fn router_with_no_reachable_leader_refuses_with_a_typed_error() {
    // No nodes at all: the leader view stays empty and every client is
    // refused with an `unavailable` error frame, not a hang or a reset.
    let router = Router::bind(RouterConfig::new("127.0.0.1:0", vec![])).unwrap().spawn().unwrap();
    let err = Client::connect(router.addr(), ClientConfig::new("ana")).unwrap_err();
    assert_eq!(err.kind(), "unavailable", "got {err:?}");
    assert!(err.to_string().contains("no leader"), "got {err}");
    router.shutdown();
}

/// A router in front of `leader` alone, once it routes there.
fn router_to(leader: &TestNode, probe_timeout: Duration) -> RouterHandle {
    let mut config = RouterConfig::new("127.0.0.1:0", vec![leader.addr.clone()]);
    config.probe_timeout = probe_timeout;
    let router = Router::bind(config).unwrap().spawn().unwrap();
    wait_until("router finds the leader", || router.leader().as_deref() == Some(&*leader.addr));
    router
}

/// Send one client frame on a raw socket and read the answer.
fn client_rpc(stream: &mut TcpStream, request: &Request) -> Response {
    let (tag, payload) = request.encode();
    pqp_wire::frame::write_frame(stream, tag, &payload).unwrap();
    let (tag, payload) = pqp_wire::frame::read_frame(stream, pqp_wire::MAX_FRAME_LEN).unwrap();
    Response::decode(tag, &payload).unwrap()
}

#[test]
fn a_connection_that_never_sends_its_hello_delays_a_redirect_by_at_most_probe_timeout() {
    let leader = TestNode::start("slow_lead", Role::Leader, vec![], 1);
    let probe_timeout = Duration::from_millis(300);
    let router = router_to(&leader, probe_timeout);

    // One connection sends nothing; another trickles a Hello one byte per
    // 50 ms, which would keep a per-read timeout from ever expiring.
    let mut silent = TcpStream::connect(router.addr()).unwrap();
    let mut trickle = TcpStream::connect(router.addr()).unwrap();
    let (tag, payload) =
        Request::Hello { version: pqp_wire::PROTOCOL_VERSION, user: "t".repeat(64) }.encode();
    let mut hello = (1 + payload.len() as u32).to_be_bytes().to_vec();
    hello.push(tag);
    hello.extend_from_slice(&payload);
    let trickler = std::thread::spawn(move || {
        for byte in hello {
            if trickle.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    // Each holds the accept loop for at most `probe_timeout`.
    let started = Instant::now();
    let mut client = Client::connect(router.addr(), ClientConfig::new("ana")).unwrap();
    let waited = started.elapsed();
    assert!(
        waited < 2 * probe_timeout + Duration::from_millis(500),
        "a redirect waited {waited:?} behind two stalled handshakes"
    );
    assert!(client.query(Q).is_ok());
    client.close();

    // The silent connection was closed, not answered.
    silent.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    assert!(matches!(silent.read(&mut byte), Ok(0) | Err(_)), "the silent connection got bytes");
    trickler.join().unwrap();
    router.shutdown();
}

#[test]
fn a_garbage_first_frame_is_closed_without_a_redirect_and_the_router_keeps_serving() {
    let leader = TestNode::start("junk_lead", Role::Leader, vec![], 1);
    let router = router_to(&leader, Duration::from_millis(500));

    for (tag, payload) in [(0x7F, &b"junk"[..]), (Request::Close.encode().0, &[][..])] {
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        pqp_wire::frame::write_frame(&mut stream, tag, payload).unwrap();
        let answer = pqp_wire::frame::read_frame(&mut stream, pqp_wire::MAX_FRAME_LEN);
        assert!(
            matches!(answer, Err(pqp_wire::FrameError::Closed | pqp_wire::FrameError::Io(_))),
            "tag {tag:#04x} was answered: {answer:?}"
        );
    }

    let mut client = Client::connect(router.addr(), ClientConfig::new("ana")).unwrap();
    assert!(client.query(Q).is_ok());
    client.close();
    router.shutdown();
}

#[test]
fn a_redirect_to_a_second_router_is_a_typed_protocol_error() {
    let leader = TestNode::start("twice_lead", Role::Leader, vec![], 1);
    let router = router_to(&leader, Duration::from_millis(500));

    // A stand-in first router that redirects every handshake to the real
    // router, which redirects it again, to the leader.
    let first = TcpListener::bind("127.0.0.1:0").unwrap();
    let first_addr = first.local_addr().unwrap();
    let second = router.addr().to_string();
    let stand_in = std::thread::spawn(move || {
        let (mut stream, _) = first.accept().unwrap();
        pqp_wire::frame::read_frame(&mut stream, pqp_wire::MAX_FRAME_LEN).unwrap();
        let (tag, payload) = Response::Redirect { addr: second }.encode();
        pqp_wire::frame::write_frame(&mut stream, tag, &payload).unwrap();
    });

    let err = Client::connect(first_addr, ClientConfig::new("ana")).unwrap_err();
    assert_eq!(err.kind(), "protocol", "got {err:?}");
    assert!(err.to_string().contains(&*leader.addr), "got {err}");
    stand_in.join().unwrap();
    router.shutdown();
}

#[test]
fn a_version_mismatch_through_the_router_is_answered_by_the_node() {
    let leader = TestNode::start("vers_lead", Role::Leader, vec![], 1);
    let router = router_to(&leader, Duration::from_millis(500));
    let version = pqp_wire::PROTOCOL_VERSION + 1;
    let hello = Request::Hello { version, user: "ana".into() };

    let mut stream = TcpStream::connect(router.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let Response::Redirect { addr } = client_rpc(&mut stream, &hello) else {
        panic!("the router did not redirect")
    };
    assert_eq!(addr, leader.addr);

    let mut stream = TcpStream::connect(&*addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let Response::Error(e) = client_rpc(&mut stream, &hello) else {
        panic!("the node accepted version {version}")
    };
    let e = e.into_error();
    assert_eq!(e.kind(), "protocol", "got {e:?}");
    let message = e.to_string();
    assert!(message.contains(&version.to_string()), "got {message}");
    assert!(message.contains(&pqp_wire::PROTOCOL_VERSION.to_string()), "got {message}");
    router.shutdown();
}

#[test]
fn replication_chaos_yields_typed_errors_only_and_converges() {
    let follower = TestNode::start("cf", Role::Follower, vec![], 1);
    let leader = TestNode::start("clead", Role::Leader, vec![follower.addr.clone()], 2);
    let mut client = Client::connect(&*leader.addr, ClientConfig::new("ana")).unwrap();

    // Ship failure: durable on the leader, below quorum — a typed
    // `unavailable` naming the retry contract, never an abort.
    leader.svc.failpoints().configure("repl.ship", "1*error(link cut)").unwrap();
    let err = client.add_selection("GENRE", "genre", Value::Str("drama".into()), 0.5);
    let err = err.unwrap_err();
    assert_eq!(err.kind(), "unavailable", "ship fault got {err:?}");
    assert!(err.to_string().contains("retry is safe"), "got {err}");

    // Ack failure: the follower may hold the record, the leader
    // cannot know — same typed contract.
    leader.svc.failpoints().configure("repl.ack", "1*error(ack lost)").unwrap();
    let err = client.add_selection("GENRE", "genre", Value::Str("drama".into()), 0.5);
    assert_eq!(err.unwrap_err().kind(), "unavailable");

    // Crash at mutation entry: typed internal error, process alive.
    leader.svc.failpoints().configure("node.crash", "1*error(struck by lightning)").unwrap();
    let err = client.add_selection("GENRE", "genre", Value::Str("drama".into()), 0.5);
    assert_eq!(err.unwrap_err().kind(), "internal");

    // Chaos off: the retry lands, the cluster converges, and the
    // replicas hold identical bytes.
    leader.svc.failpoints().clear();
    client.add_selection("GENRE", "genre", Value::Str("drama".into()), 0.5).unwrap();
    client.close();
    wait_until("follower catches up", || {
        follower.node.status().last_seq == leader.node.status().last_seq
    });
    assert_eq!(leader.profile_json("ana"), follower.profile_json("ana"));
    assert!(
        leader.profile_json("ana").unwrap().contains("drama"),
        "the acked mutation is in the store"
    );
}

/// One framed request/response on an already-open replication link —
/// what a peer (or an attacker on the client port) would send.
fn repl_rpc(stream: &mut std::net::TcpStream, request: &ReplRequest) -> ReplResponse {
    let (tag, payload) = request.encode();
    pqp_wire::frame::write_frame(stream, tag, &payload).unwrap();
    stream.flush().unwrap();
    let (tag, payload) = pqp_wire::frame::read_frame(stream, pqp_wire::MAX_FRAME_LEN).unwrap();
    ReplResponse::decode(tag, &payload).unwrap()
}

#[test]
fn deposed_leaders_unacked_suffix_is_truncated_and_replicas_converge() {
    let f1 = TestNode::start("heal_f1", Role::Follower, vec![], 1);
    let l0 = TestNode::start("heal_l0", Role::Leader, vec![f1.addr.clone()], 2);

    let mut ana = Client::connect(&*l0.addr, ClientConfig::new("ana")).unwrap();
    ana.add_selection("MOVIE", "mid", Value::Int(1), 0.5).unwrap();
    ana.close();
    assert_eq!(f1.node.status().last_seq, 1, "seq 1 replicated before the partition");

    // The link to f1 is cut while bob's mutation lands: durable on
    // the leader, never acked — the classic deposed-leader suffix.
    l0.svc.failpoints().configure("repl.ship", "8*error(partition)").unwrap();
    let mut bob = Client::connect(&*l0.addr, ClientConfig::new("bob")).unwrap();
    let err = bob.add_selection("MOVIE", "mid", Value::Int(2), 0.5).unwrap_err();
    assert_eq!(err.kind(), "unavailable", "got {err:?}");
    bob.close();
    l0.svc.failpoints().clear();
    assert_eq!(l0.node.status().last_seq, 2, "bob's record is durable on the old leader");
    assert!(l0.profile_json("bob").is_some());

    // Both nodes go down; the cluster reboots with f1 — which never
    // saw bob's record — promoted over the reborn old leader.
    let f1_dir = f1.stop_keeping_dir();
    let l0_dir = l0.stop_keeping_dir();
    let old = TestNode::start_in(l0_dir, "heal_l0", Role::Follower, vec![], 1);
    let new_leader =
        TestNode::start_in(f1_dir, "heal_f1", Role::Follower, vec![old.addr.clone()], 2);
    let resp = new_leader.node.handle_peer(
        ReplRequest::Promote { term: old.node.term() + 1, token: String::new() },
        &mut PeerLink::new(),
    );
    assert!(matches!(resp, ReplResponse::Ok { .. }), "{resp:?}");
    assert_eq!(new_leader.node.status().last_seq, 1, "the new leader never saw seq 2");

    // cara's write (quorum 2) forces the catch-up: the old leader's
    // conflicting seq 2 must be truncated and replaced — under the
    // pre-fix protocol its self-reported ack (2 >= tip) would have
    // counted toward quorum for a record it does not hold.
    let mut cara = Client::connect(&*new_leader.addr, ClientConfig::new("cara")).unwrap();
    cara.add_selection("MOVIE", "mid", Value::Int(3), 0.5).unwrap();
    cara.close();

    assert_eq!(old.node.status().last_seq, 2);
    assert_eq!(old.profile_json("bob"), None, "the orphaned suffix was rolled back");
    assert_eq!(old.profile_json("ana"), new_leader.profile_json("ana"));
    assert_eq!(old.profile_json("cara"), new_leader.profile_json("cara"));
    assert!(old.profile_json("cara").is_some(), "the healed log carries cara's record");

    // The truncation is durable: a reboot of the old leader replays
    // the healed log, not the orphaned one.
    let old_dir = old.stop_keeping_dir();
    let reborn = TestNode::start_in(old_dir, "heal_l0", Role::Follower, vec![], 1);
    assert_eq!(reborn.profile_json("bob"), None);
    assert_eq!(reborn.profile_json("cara"), new_leader.profile_json("cara"));
}

#[test]
fn status_probes_answer_while_shipping_stalls_on_a_dead_peer() {
    // A peer that accepts the TCP connect and then never answers:
    // the leader's ship path blocks inside the inner lock until the
    // 500ms read timeout — exactly when the router's probes must
    // keep answering, or a stalled-but-alive leader reads as down.
    let blackhole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let blackhole_addr = blackhole.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((stream, _)) = blackhole.accept() {
            held.push(stream); // hold the link open, never reply
        }
    });

    let leader = TestNode::start("stall_lead", Role::Leader, vec![blackhole_addr], 1);
    let node = Arc::clone(&leader.node);
    let mutator = std::thread::spawn(move || {
        // Quorum 1: the write succeeds even though the ship stalls.
        node.client_mutate(
            &UserId::from("ana"),
            pqp_wire::ProfileOp::AddSelection {
                table: "MOVIE".into(),
                column: "mid".into(),
                value: Value::Int(1),
                doi: 0.5,
            },
        )
    });

    // While the mutation is stalled in peer I/O under the inner
    // mutex, a Status probe over the wire (what the router sends)
    // must answer from the status cell instead of waiting.
    std::thread::sleep(Duration::from_millis(100));
    let mut stream = std::net::TcpStream::connect(&*leader.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let t = std::time::Instant::now();
    let resp = repl_rpc(&mut stream, &ReplRequest::Status);
    let elapsed = t.elapsed();
    let ReplResponse::Status(status) = resp else { panic!("expected status, got {resp:?}") };
    assert_eq!(status.role, Role::Leader);
    assert!(
        elapsed < Duration::from_millis(250),
        "status probe took {elapsed:?} while shipping stalled"
    );
    mutator.join().unwrap().unwrap();
}

#[test]
fn repl_frames_on_the_client_port_require_the_cluster_token() {
    let dir = std::env::temp_dir().join(format!("pqp_repl_auth_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Arc::new(Service::new(movie_db()));
    let mut config = ReplConfig::new("authn", &dir);
    config.role = Role::Follower;
    config.token = "cluster-secret".to_string();
    let node = ReplNode::open(Arc::clone(&svc), config).unwrap();
    let server_config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
    let handle = Server::bind_replicated(Arc::clone(&svc), server_config, Some(Arc::clone(&node)))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr().to_string();
    let mut stream = std::net::TcpStream::connect(&*addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Leadership cannot be seized with a guessed token…
    let resp =
        repl_rpc(&mut stream, &ReplRequest::Promote { term: 99, token: "guess".to_string() });
    let ReplResponse::Reject { reason, .. } = resp else { panic!("promote accepted: {resp:?}") };
    assert!(reason.contains("authentication failed"), "got {reason}");
    assert_eq!(node.role(), Role::Follower);

    // …nor the store wiped by an unauthenticated Snapshot…
    let resp = repl_rpc(
        &mut stream,
        &ReplRequest::Snapshot { term: 1, last_seq: 0, last_term: 0, data: vec![] },
    );
    let ReplResponse::Reject { reason, .. } = resp else { panic!("snapshot accepted: {resp:?}") };
    assert!(reason.contains("unauthenticated"), "got {reason}");

    // …while the read-only Status probe stays open…
    assert!(matches!(repl_rpc(&mut stream, &ReplRequest::Status), ReplResponse::Status(_)));

    // …and a link that presents the token works end to end.
    let resp = repl_rpc(
        &mut stream,
        &ReplRequest::Hello {
            version: pqp_wire::PROTOCOL_VERSION,
            node_id: "peer".to_string(),
            term: 1,
            token: "cluster-secret".to_string(),
            last_seq: 0,
            last_term: 0,
        },
    );
    assert!(matches!(resp, ReplResponse::Ok { .. }), "handshake refused: {resp:?}");
    let resp =
        repl_rpc(&mut stream, &ReplRequest::Promote { term: 7, token: "cluster-secret".into() });
    assert!(matches!(resp, ReplResponse::Ok { term: 7, .. }), "{resp:?}");
    assert_eq!(node.role(), Role::Leader);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
