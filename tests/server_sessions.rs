//! The serving edge, end to end: many wire sessions against one `Server`
//! answer row for row what in-process sessions answer, and `SHOW METRICS`
//! answers while every run slot is held by a slow read.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{julie, paper_db, rob, TONIGHT};
use pqp::{Answer, Client, ClientConfig, QueryApi, Server, ServerConfig, ServerHandle};
use pqp::{Service, ServiceConfig};
use pqp_storage::Value;
use pqp_wire::ShowRequest;

const USERS: [&str; 3] = ["julie", "rob", "guest"];

fn queries() -> Vec<String> {
    vec![
        format!(
            "select MV.title from MOVIE MV, PLAY PL where MV.mid = PL.mid and PL.date = '{TONIGHT}'"
        ),
        "select MV.title from MOVIE MV".to_string(),
        "select MV.title, GE.genre from MOVIE MV, GENRE GE where MV.mid = GE.mid".to_string(),
    ]
}

fn service(config: ServiceConfig) -> Arc<Service> {
    let service = Service::with_config(paper_db(), config);
    service.install_profile(julie()).unwrap();
    service.install_profile(rob()).unwrap();
    Arc::new(service)
}

fn serve(service: &Arc<Service>) -> ServerHandle {
    let config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
    Server::bind(Arc::clone(service), config).unwrap().spawn().unwrap()
}

fn assert_same(remote: &Answer, local: &Answer, what: &str) {
    assert_eq!(remote.rows, local.rows, "{what}: rows differ");
    assert_eq!(remote.meta.k, local.meta.k, "{what}: preferences differ");
    assert_eq!(remote.meta.rewrite, local.meta.rewrite, "{what}: rewrite differs");
}

#[test]
fn sixty_four_wire_sessions_answer_what_in_process_sessions_answer() {
    let service = service(ServiceConfig::default());
    let queries = Arc::new(queries());
    // The reference: each user's answer to each query, in process.
    let expected: Arc<Vec<Vec<Answer>>> = Arc::new(
        USERS
            .iter()
            .map(|user| {
                queries.iter().map(|sql| service.session(*user).query(sql).unwrap()).collect()
            })
            .collect(),
    );
    let handle = serve(&service);
    let addr = handle.addr();

    // 4 threads × 16 sessions, all open at once, queried round-robin.
    let threads: Vec<_> = (0..4)
        .map(|thread| {
            let (queries, expected) = (Arc::clone(&queries), Arc::clone(&expected));
            std::thread::spawn(move || {
                let mut sessions: Vec<(usize, Client)> = (0..16)
                    .map(|i| {
                        let user = (thread * 16 + i) % USERS.len();
                        (user, Client::connect(addr, ClientConfig::new(USERS[user])).unwrap())
                    })
                    .collect();
                for round in 0..2 {
                    for (user, client) in &mut sessions {
                        for (q, sql) in queries.iter().enumerate() {
                            let answer = client.query(sql).unwrap();
                            let what = format!("{} / query {q} / round {round}", USERS[*user]);
                            assert_same(&answer, &expected[*user][q], &what);
                        }
                    }
                }
                for (_, client) in sessions {
                    client.close();
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    assert_eq!(handle.connections(), 64);
    for _ in 0..500 {
        if handle.active_sessions() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.active_sessions(), 0, "every session closed");
    assert_eq!(service.in_flight(), 0);
    handle.shutdown();
}

#[test]
fn show_metrics_answers_while_every_run_slot_is_held() {
    let service = service(ServiceConfig { max_in_flight: 0, ..ServiceConfig::default() });
    let handle = serve(&service);
    let slots = service.telemetry().snapshot().pool_workers as usize;
    assert!(slots >= 2, "at least two run slots, got {slots}");
    service.failpoints().configure("service.query", "delay(2000)").unwrap();

    // One slow read per slot holds them all.
    let addr = handle.addr();
    let finished = Arc::new(AtomicUsize::new(0));
    let held: Vec<_> = (0..slots)
        .map(|_| {
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, ClientConfig::new("julie")).unwrap();
                let answer = client.query("select MV.title from MOVIE MV");
                finished.fetch_add(1, Ordering::SeqCst);
                client.close();
                answer
            })
        })
        .collect();
    for _ in 0..1000 {
        if service.in_flight() == slots {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(service.in_flight(), slots, "every run slot is held");

    let mut operator = Client::connect(addr, ClientConfig::new("operator")).unwrap();
    let metrics = operator.show(ShowRequest::Metrics).unwrap();
    assert_eq!(finished.load(Ordering::SeqCst), 0, "SHOW answered before any held read ended");
    let workers = metrics.rows.rows.iter().find(|row| row[0] == Value::str("server.pool.workers"));
    assert_eq!(workers.map(|row| row[1].clone()), Some(Value::Int(slots as i64)));
    operator.close();

    for slow in held {
        assert!(slow.join().unwrap().is_ok(), "every held read completed");
    }
    service.failpoints().clear();
    handle.shutdown();
}
