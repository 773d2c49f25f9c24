//! Protocol robustness at the network edge: malformed and truncated
//! frames, oversized-frame rejection, byte-at-a-time partial reads,
//! handshake version mismatches — the server answers with typed error
//! frames and never aborts. Frame-level work and mutations never wait for
//! the query worker pool.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{service_with_ana, service_with_config, start, Q};
use pqp_engine::Database;
use pqp_server::{Server, ServerConfig, ServerHandle};
use pqp_service::{ErrorCode, QueryApi, ServiceConfig};
use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};
use pqp_wire::{
    read_frame, write_frame, Client, ClientConfig, FrameError, ProfileOp, Request, Response,
    ShowRequest, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// Raw socket helper: a connection that speaks frames by hand.
fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

fn send_request(stream: &mut TcpStream, req: &Request) {
    let (tag, payload) = req.encode();
    write_frame(stream, tag, &payload).unwrap();
}

fn recv_response(stream: &mut TcpStream) -> Response {
    let (tag, payload) = read_frame(stream, MAX_FRAME_LEN).unwrap();
    Response::decode(tag, &payload).unwrap()
}

fn handshake(stream: &mut TcpStream, user: &str) {
    send_request(stream, &Request::Hello { version: PROTOCOL_VERSION, user: user.into() });
    match recv_response(stream) {
        Response::HelloOk { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("handshake failed: {other:?}"),
    }
}

fn assert_protocol_error(resp: Response) -> String {
    match resp {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Protocol.as_u16(), "typed as protocol: {}", e.message);
            e.message
        }
        other => panic!("expected a protocol error frame, got {other:?}"),
    }
}

#[test]
fn version_mismatch_is_rejected_with_a_typed_error() {
    let handle = start(service_with_ana());
    let mut stream = raw_connect(handle.addr());
    send_request(&mut stream, &Request::Hello { version: 99, user: "ana".into() });
    let msg = assert_protocol_error(recv_response(&mut stream));
    assert!(msg.contains("99"), "names the offending version: {msg}");
    // The server closes after a failed handshake.
    assert!(matches!(read_frame(&mut stream, MAX_FRAME_LEN), Err(FrameError::Closed)));
    handle.shutdown();
}

#[test]
fn first_frame_must_be_hello() {
    let handle = start(service_with_ana());
    let mut stream = raw_connect(handle.addr());
    send_request(&mut stream, &Request::Prepare { sql: Q.into() });
    assert_protocol_error(recv_response(&mut stream));
    assert!(matches!(read_frame(&mut stream, MAX_FRAME_LEN), Err(FrameError::Closed)));
    handle.shutdown();
}

#[test]
fn empty_user_is_rejected() {
    let handle = start(service_with_ana());
    let mut stream = raw_connect(handle.addr());
    send_request(&mut stream, &Request::Hello { version: PROTOCOL_VERSION, user: String::new() });
    assert_protocol_error(recv_response(&mut stream));
    handle.shutdown();
}

#[test]
fn malformed_payload_gets_a_typed_error_and_the_session_survives() {
    let handle = start(service_with_ana());
    let mut stream = raw_connect(handle.addr());
    handshake(&mut stream, "ana");

    // A Query frame whose payload is garbage: sound frame, broken payload.
    write_frame(&mut stream, 0x02, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    assert_protocol_error(recv_response(&mut stream));

    // An unassigned message tag.
    write_frame(&mut stream, 0x7F, &[]).unwrap();
    assert_protocol_error(recv_response(&mut stream));

    // A well-formed message with trailing garbage.
    let (tag, mut payload) = Request::Prepare { sql: Q.into() }.encode();
    payload.push(0x00);
    write_frame(&mut stream, tag, &payload).unwrap();
    assert_protocol_error(recv_response(&mut stream));

    // The stream stayed frame-aligned throughout: real work still runs.
    send_request(&mut stream, &Request::Query { sql: Q.into(), options: None, rewrite: None });
    match recv_response(&mut stream) {
        Response::Answer(a) => assert_eq!(a.meta.k, 1),
        other => panic!("session did not survive: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn oversized_frames_are_rejected_and_the_connection_closed() {
    let handle = start(service_with_ana());
    let mut stream = raw_connect(handle.addr());
    handshake(&mut stream, "ana");

    // Announce a frame just over the limit; send no payload.
    let announced = (MAX_FRAME_LEN as u32) + 1;
    stream.write_all(&announced.to_be_bytes()).unwrap();
    stream.flush().unwrap();

    let msg = assert_protocol_error(recv_response(&mut stream));
    assert!(msg.contains("unreadable"), "explains the close: {msg}");
    assert!(matches!(read_frame(&mut stream, MAX_FRAME_LEN), Err(FrameError::Closed)));
    handle.shutdown();
}

#[test]
fn zero_length_frames_are_rejected() {
    let handle = start(service_with_ana());
    let mut stream = raw_connect(handle.addr());
    handshake(&mut stream, "ana");
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    assert_protocol_error(recv_response(&mut stream));
    assert!(matches!(read_frame(&mut stream, MAX_FRAME_LEN), Err(FrameError::Closed)));
    handle.shutdown();
}

#[test]
fn partial_reads_reassemble_into_whole_requests() {
    let handle = start(service_with_ana());
    let mut stream = raw_connect(handle.addr());
    handshake(&mut stream, "ana");

    // Dribble a whole query frame one byte at a time.
    let (tag, payload) = Request::Query { sql: Q.into(), options: None, rewrite: None }.encode();
    let mut frame = Vec::new();
    write_frame(&mut frame, tag, &payload).unwrap();
    for byte in frame {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    match recv_response(&mut stream) {
        Response::Answer(a) => assert_eq!(a.meta.k, 1),
        other => panic!("expected an answer, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaves_the_server_serving() {
    let handle = start(service_with_ana());
    {
        let mut stream = raw_connect(handle.addr());
        handshake(&mut stream, "ana");
        // Announce 100 bytes, deliver 3, vanish.
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
    } // dropped: EOF mid-frame on the server

    // The server shrugs it off: fresh connections work, nothing leaked.
    let mut client = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    let answer = client.query(Q).unwrap();
    assert_eq!(answer.meta.k, 1);
    client.close();

    wait_until("in-flight drains to zero", || handle.service().in_flight() == 0);
    handle.shutdown();
}

#[test]
fn abrupt_disconnect_before_handshake_is_harmless() {
    let handle = start(service_with_ana());
    for _ in 0..5 {
        let stream = raw_connect(handle.addr());
        drop(stream);
    }
    let mut client = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    assert!(client.query(Q).is_ok());
    client.close();
    handle.shutdown();
}

#[test]
fn held_workers_never_delay_handshakes_protocol_errors_mutations_or_show() {
    let handle =
        start(service_with_config(ServiceConfig { max_in_flight: 0, ..ServiceConfig::default() }));
    let workers = handle.service().telemetry().snapshot().pool_workers as usize;
    assert!(workers >= 2, "the pool has at least two workers, got {workers}");
    handle.service().failpoints().configure("service.query", "delay(300)").unwrap();

    // One slow query per worker holds the whole pool.
    let addr = handle.addr();
    let finished = Arc::new(AtomicUsize::new(0));
    let held: Vec<_> = (0..workers)
        .map(|_| {
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, ClientConfig::new("ana")).unwrap();
                let result = client.query(Q);
                finished.fetch_add(1, Ordering::SeqCst);
                client.close();
                result
            })
        })
        .collect();
    wait_until("every worker is held", || handle.service().in_flight() == workers);
    // No admission limit: one more query queues for a worker.
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr, ClientConfig::new("ana")).unwrap();
        let result = client.query(Q);
        client.close();
        result
    });

    let quick = |what: &str, started: Instant| {
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "{what} took {took:?} with every worker held");
    };
    let started = Instant::now();
    let mut stream = raw_connect(addr);
    handshake(&mut stream, "bob");
    quick("a Hello", started);

    let started = Instant::now();
    write_frame(&mut stream, 0x02, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    assert_protocol_error(recv_response(&mut stream));
    quick("a malformed payload's protocol frame", started);

    let started = Instant::now();
    send_request(
        &mut stream,
        &Request::Mutate(ProfileOp::AddSelection {
            table: "GENRE".into(),
            column: "genre".into(),
            value: Value::str("drama"),
            doi: 0.7,
        }),
    );
    match recv_response(&mut stream) {
        Response::MutateOk { .. } => {}
        other => panic!("the mutation failed: {other:?}"),
    }
    quick("a mutation", started);

    let started = Instant::now();
    send_request(&mut stream, &Request::Show(ShowRequest::Metrics));
    match recv_response(&mut stream) {
        Response::Answer(_) => {}
        other => panic!("SHOW METRICS failed: {other:?}"),
    }
    quick("a SHOW METRICS", started);
    assert_eq!(finished.load(Ordering::SeqCst), 0, "the pool was held throughout");

    for slow in held {
        assert!(slow.join().unwrap().is_ok(), "a held query completed");
    }
    assert!(queued.join().unwrap().is_ok(), "the queued query ran once a worker freed");
    let waited_us = handle.service().telemetry().snapshot().pool_wait_us.quantile(1.0);
    assert!(waited_us >= 100_000.0, "the queued query waited for a worker ({waited_us} us)");
    handle.shutdown();
}

#[test]
fn pool_size_and_wait_show_in_show_metrics() {
    let handle = start(service_with_ana());
    let mut client = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    client.query(Q).unwrap();
    let metrics = client.show(ShowRequest::Metrics).unwrap();
    let value = |name: &str| {
        let row = metrics.rows.rows.iter().find(|row| row[0] == Value::str(name));
        row.unwrap_or_else(|| panic!("SHOW METRICS has no {name} row")).clone()
    };
    match &value("server.pool.workers")[1] {
        Value::Int(n) => assert!(*n >= 2, "at least two workers, got {n}"),
        other => panic!("server.pool.workers is {other:?}"),
    }
    // The query waited for a worker; the SHOW ran on the session thread.
    assert_eq!(value("server.pool.wait_us.count")[1], Value::Int(1));
    for quantile in ["p50", "p99", "max"] {
        match &value(&format!("server.pool.wait_us.{quantile}"))[1] {
            Value::Float(us) => assert!(*us >= 0.0),
            other => panic!("server.pool.wait_us.{quantile} is {other:?}"),
        }
    }
    client.close();
    handle.shutdown();
}

/// Serve `service` on an ephemeral port with the given session timeouts.
fn start_with_timeouts(
    service: pqp_service::Service,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout,
        write_timeout,
        ..Default::default()
    };
    Server::bind(Arc::new(service), config).unwrap().spawn().unwrap()
}

fn counter(name: &str) -> i64 {
    pqp_obs::metrics::global_snapshot().counter(name)
}

#[test]
fn idle_sessions_close_after_the_read_timeout_and_busy_ones_stay() {
    let handle = start_with_timeouts(
        service_with_ana(),
        Some(Duration::from_millis(200)),
        Some(Duration::from_secs(30)),
    );
    // No other test of this binary sets a short read timeout.
    let idle_before = counter("server.close.idle_timeout");

    let mut idle = raw_connect(handle.addr());
    handshake(&mut idle, "ana");
    let mut busy = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(700) {
        assert_eq!(busy.query(Q).unwrap().meta.k, 1, "the busy session keeps answering");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The idle session was closed in between, at a frame boundary.
    assert!(matches!(read_frame(&mut idle, MAX_FRAME_LEN), Err(FrameError::Closed)));
    wait_until("the idle close is counted", || {
        counter("server.close.idle_timeout") - idle_before == 1
    });
    assert_eq!(handle.active_sessions(), 1, "only the busy session is open");
    assert!(busy.query(Q).is_ok());
    busy.close();
    handle.shutdown();
}

/// A movie table whose every answer is a few hundred kilobytes, so a few
/// dozen unread answers fill the socket buffers of both ends.
fn service_with_wide_answers() -> pqp_service::Service {
    let mut catalog = Catalog::new();
    catalog
        .create_table(
            TableSchema::new(
                "MOVIE",
                vec![ColumnDef::new("mid", DataType::Int), ColumnDef::new("title", DataType::Str)],
            )
            .with_primary_key(&["mid"]),
        )
        .unwrap();
    let table = catalog.table("MOVIE").unwrap();
    for mid in 0..2_000i64 {
        let title = format!("{mid:0>200}");
        table.write().insert(vec![mid.into(), title.as_str().into()]).unwrap();
    }
    pqp_service::Service::new(Database::new(catalog))
}

#[test]
fn a_client_that_stops_reading_holds_no_thread() {
    let write_timeout = Duration::from_millis(500);
    let handle = start_with_timeouts(service_with_wide_answers(), None, Some(write_timeout));
    let addr = handle.addr();

    // Pipeline query after query and never read an answer.
    let mut stuck = raw_connect(addr);
    handshake(&mut stuck, "zed");
    let (tag, payload) = Request::Query { sql: Q.into(), options: None, rewrite: None }.encode();
    for _ in 0..64 {
        write_frame(&mut stuck, tag, &payload).unwrap();
    }
    std::thread::sleep(Duration::from_millis(150));

    // Every other session is served as if the stuck one did not exist.
    let narrow = "select MV.title from MOVIE MV where MV.mid = 7";
    let mut other = Client::connect(addr, ClientConfig::new("zed")).unwrap();
    assert!(other.query(narrow).is_ok(), "a warm-up query answers");
    let started = Instant::now();
    assert_eq!(other.query(narrow).unwrap().rows.rows.len(), 1);
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "a query took {took:?} beside a stuck session");
    assert_eq!(handle.active_sessions(), 2, "the stuck session is still open");
    other.close();

    // Its undrained answers outlive the write timeout: the server gives up.
    wait_until("the stuck session is closed", || handle.active_sessions() == 0);
    handle.shutdown();
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..200 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting until {what}");
}
