//! Chaos at the server boundary: failpoint-injected errors, panics and
//! delays at the dispatch site, admission-control saturation surfacing as
//! typed `Overloaded` frames, and mid-query client disconnects. The
//! acceptance bar is zero process aborts — every fault costs at most one
//! request. Each test arms failpoints on its own server's registry.

mod common;

use std::time::Duration;

use common::{service_with_ana, service_with_config, start, Q};
use pqp_service::{Error, QueryApi, ServiceConfig};
use pqp_wire::{
    read_frame, write_frame, Client, ClientConfig, Request, Response, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..300 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting until {what}");
}

#[test]
fn saturation_returns_typed_overloaded_frames() {
    let handle =
        start(service_with_config(ServiceConfig { max_in_flight: 1, ..ServiceConfig::default() }));
    // Make the in-flight query slow enough to saturate the one slot.
    handle.service().failpoints().configure("service.query", "delay(400)").unwrap();

    let addr = handle.addr();
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr, ClientConfig::new("ana")).unwrap();
        let result = client.query(Q);
        client.close();
        result
    });
    // Let the slow query claim the slot, then knock on the door.
    wait_until("slot is claimed", || handle.service().in_flight() == 1);
    let mut client = Client::connect(addr, ClientConfig::new("bob")).unwrap();
    let err = client.query(Q).unwrap_err();
    match err {
        Error::Overloaded { in_flight, max } => {
            assert_eq!(max, 1, "the admission limit crosses the wire");
            assert!(in_flight >= 1);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(err.kind(), "overloaded");

    assert!(slow.join().unwrap().is_ok(), "the admitted query completed");
    // Capacity freed: the refused client retries successfully.
    handle.service().failpoints().clear();
    assert!(client.query(Q).is_ok(), "retry succeeds once the slot frees");
    client.close();
    handle.shutdown();
}

#[test]
fn a_limit_at_the_pool_size_still_refuses_instead_of_queueing() {
    // The pool runs one query per worker, so with the limit at the pool
    // size the next query would wait for a worker; it is refused instead.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let handle = start(service_with_config(ServiceConfig {
        max_in_flight: workers,
        ..ServiceConfig::default()
    }));
    assert_eq!(handle.service().telemetry().snapshot().pool_workers as usize, workers);
    handle.service().failpoints().configure("service.query", "delay(400)").unwrap();

    let addr = handle.addr();
    let slow: Vec<_> = (0..workers)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, ClientConfig::new("ana")).unwrap();
                let result = client.query(Q);
                client.close();
                result
            })
        })
        .collect();
    wait_until("every worker runs a query", || handle.service().in_flight() == workers);
    let mut client = Client::connect(addr, ClientConfig::new("bob")).unwrap();
    match client.query(Q).unwrap_err() {
        Error::Overloaded { in_flight, max } => assert_eq!((in_flight, max), (workers, workers)),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    for query in slow {
        assert!(query.join().unwrap().is_ok(), "every admitted query completed");
    }
    handle.service().failpoints().clear();
    assert!(client.query(Q).is_ok(), "retry succeeds once a worker frees");
    client.close();
    handle.shutdown();
}

#[test]
fn injected_errors_at_the_dispatch_boundary_cost_one_request() {
    let handle = start(service_with_ana());
    let mut client = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    handle.service().failpoints().configure("server.frame", "1*error(injected fault)").unwrap();

    let err = client.query(Q).unwrap_err();
    assert_eq!(err.kind(), "internal");
    assert!(err.to_string().contains("injected fault"));

    // The failpoint was one-shot; the session keeps serving.
    assert!(client.query(Q).is_ok());
    client.close();
    handle.shutdown();
}

#[test]
fn injected_panics_become_error_frames_not_aborts() {
    let handle = start(service_with_ana());
    let mut client = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    handle.service().failpoints().configure("server.frame", "1*panic(chaos at the edge)").unwrap();

    let err = client.query(Q).unwrap_err();
    assert_eq!(err.kind(), "internal", "the panic is isolated into a typed frame");

    // Same connection, same process — both survived.
    assert!(client.query(Q).is_ok());
    client.close();
    handle.shutdown();
}

#[test]
fn mid_query_disconnect_frees_the_in_flight_slot() {
    let handle = start(service_with_ana());
    // Slow the query down so the disconnect happens while it runs.
    handle.service().failpoints().configure("service.query", "delay(250)").unwrap();

    {
        // Speak the protocol by hand: handshake, fire a query, vanish
        // without reading the answer.
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (tag, payload) =
            Request::Hello { version: PROTOCOL_VERSION, user: "ana".into() }.encode();
        write_frame(&mut stream, tag, &payload).unwrap();
        let (tag, payload) = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
        assert!(matches!(Response::decode(tag, &payload).unwrap(), Response::HelloOk { .. }));
        let (tag, payload) =
            Request::Query { sql: Q.into(), options: None, rewrite: None }.encode();
        write_frame(&mut stream, tag, &payload).unwrap();
        wait_until("the query is admitted", || handle.service().in_flight() == 1);
    } // dropped mid-query

    wait_until("the in-flight slot is released", || handle.service().in_flight() == 0);
    wait_until("the session thread exits", || handle.active_sessions() == 0);

    // No leak, no abort: the server keeps serving.
    handle.service().failpoints().clear();
    let mut client = Client::connect(handle.addr(), ClientConfig::new("ana")).unwrap();
    assert_eq!(client.query(Q).unwrap().meta.k, 1);
    client.close();
    handle.shutdown();
}

#[test]
fn failpoint_storm_zero_aborts() {
    let handle = start(service_with_ana());
    handle
        .service()
        .failpoints()
        .configure_many(
            "server.frame=20%error(storm edge);\
         service.query=20%panic(storm front door);\
         plan.cache=30%error(storm cache)",
        )
        .unwrap();

    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, ClientConfig::new("ana")).unwrap();
                let mut ok = 0usize;
                for _ in 0..25 {
                    if client.query(Q).is_ok() {
                        ok += 1;
                    }
                }
                client.close();
                ok
            })
        })
        .collect();
    let succeeded: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    // The storm is probabilistic; what is certain is that the process
    // survived and the service still works with the chaos off.
    handle.service().failpoints().clear();
    let mut client = Client::connect(addr, ClientConfig::new("ana")).unwrap();
    assert_eq!(client.query(Q).unwrap().meta.k, 1, "healthy after the storm ({succeeded} ok)");
    client.close();
    assert_eq!(handle.service().in_flight(), 0, "no admission slots leaked");
    handle.shutdown();
}
