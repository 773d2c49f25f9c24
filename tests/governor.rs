//! Query-governor integration tests through the public `pqp` API: budgets
//! trip with typed errors instead of hangs, cancellation works from another
//! thread mid-operator, personalization degrades along the paper's knobs,
//! and admission control bounds concurrency — all on the paper's running
//! example (Julie, the movies database). Each test arms failpoints on its
//! own service's registry, so the tests share no fault state.

mod common;

use pqp::core::{PersonalizeOptions, Rewrite};
use pqp::{Budget, BudgetReason, DegradeLevel, Error, QueryCtx, Service, ServiceConfig};
use std::time::Duration;

/// How often the armed `storage.scan` failpoint has fired on `service`'s
/// registry so far: shows that a query meant to be stretched by it did
/// reach a heap scan.
fn scan_stalls(service: &Service) -> u64 {
    service.failpoints().fired("storage.scan")
}

fn tonight_sql() -> String {
    format!(
        "select MV.title from MOVIE MV, PLAY PL \
         where MV.mid = PL.mid and PL.date = '{}'",
        common::TONIGHT
    )
}

/// The paper fixture behind a service with an unlimited default budget.
fn governed_service() -> Service {
    let service = Service::with_config(
        common::paper_db(),
        ServiceConfig {
            options: PersonalizeOptions::builder().k(3).l(1).build(),
            rewrite: Rewrite::Mq,
            ..ServiceConfig::default()
        },
    );
    service.install_profile(common::julie()).unwrap();
    service.install_profile(common::rob()).unwrap();
    service
}

#[test]
fn zero_deadline_returns_budget_exceeded_instead_of_hanging() {
    let service = governed_service();
    let sql = tonight_sql();
    let result =
        service.session("julie").with_budget(Budget::unlimited().deadline_ms(0)).query(&sql);
    match result {
        Err(Error::BudgetExceeded(b)) => assert_eq!(b.reason, BudgetReason::Deadline),
        other => panic!("expected BudgetExceeded(Deadline), got {other:?}"),
    }
    // The same session recovers immediately with a sane budget.
    let ok = service.session("julie").query(&sql).unwrap();
    assert!(!ok.rows.rows.is_empty());
}

#[test]
fn row_budget_trips_with_partial_progress_through_the_full_stack() {
    let service = governed_service();
    let budget = Budget::unlimited().max_rows(3);
    match service.session("julie").with_budget(budget).query(&tonight_sql()) {
        Err(Error::BudgetExceeded(b)) => {
            assert_eq!(b.reason, BudgetReason::RowsScanned);
            assert!(b.rows_scanned > 3, "partial progress reported: {b:?}");
        }
        other => panic!("expected BudgetExceeded(RowsScanned), got {other:?}"),
    }
}

#[test]
fn generous_budget_answers_match_the_unlimited_run() {
    let service = governed_service();
    for user in ["julie", "rob"] {
        for sql in [tonight_sql(), "select MV.title from MOVIE MV".to_string()] {
            let plain = service.session(user).query(&sql).unwrap();
            service.clear_caches();
            let governed = service
                .session(user)
                .with_budget(Budget::unlimited().deadline_ms(60_000).max_rows(1_000_000))
                .query(&sql)
                .unwrap();
            assert_eq!(plain.rows, governed.rows, "governed run diverged for {user}: `{sql}`");
            assert_eq!(governed.meta.degraded, DegradeLevel::None);
        }
    }
}

#[test]
fn cancellation_from_another_thread_aborts_a_join() {
    let service = governed_service();
    let sql = tonight_sql();
    // Stall every heap scan so the cancellation lands while the join's
    // inputs are genuinely in flight.
    service.failpoints().configure("storage.scan", "delay(40)").unwrap();
    let before = scan_stalls(&service);
    let ctx = QueryCtx::unlimited();
    let result = std::thread::scope(|s| {
        let handle = s.spawn(|| service.session("julie").query_ctx(&sql, &ctx));
        std::thread::sleep(Duration::from_millis(10));
        ctx.cancel();
        handle.join().expect("query thread must not panic")
    });
    match result {
        Err(Error::BudgetExceeded(b)) => assert_eq!(b.reason, BudgetReason::Cancelled),
        other => panic!("expected BudgetExceeded(Cancelled), got {other:?}"),
    }
    assert!(scan_stalls(&service) > before, "the cancelled query reached a heap scan");
    // The service keeps serving.
    service.failpoints().clear();
    assert_eq!(service.in_flight(), 0);
    assert!(service.session("julie").query(&sql).is_ok());
}

#[test]
fn injected_personalization_trip_degrades_and_reports_the_level() {
    let service = governed_service();
    let sql = tonight_sql();
    // Three injected trips walk the ladder past ReducedK and
    // NativeReducedK to MandatoryOnly.
    service.failpoints().configure("select.budget", "3*error").unwrap();
    let degraded = service.session("julie").query(&sql).unwrap();
    assert_eq!(degraded.meta.degraded, DegradeLevel::MandatoryOnly);
    assert!(!degraded.meta.cache.is_hit(), "degraded answers never come from the cache");
    service.failpoints().clear();
    // The degraded plan was not cached: full fidelity returns at once.
    let full = service.session("julie").query(&sql).unwrap();
    assert_eq!(full.meta.degraded, DegradeLevel::None);
    assert_eq!(full.meta.k, 3, "full personalization selects top-3 again");
}

#[test]
fn admission_control_rejects_at_capacity_under_real_concurrency() {
    let service = Service::with_config(
        common::paper_db(),
        ServiceConfig {
            options: PersonalizeOptions::builder().k(3).l(1).build(),
            rewrite: Rewrite::Mq,
            max_in_flight: 1,
            ..ServiceConfig::default()
        },
    );
    service.install_profile(common::julie()).unwrap();
    let sql = tonight_sql();
    // Stalled heap scans keep the first query inside the service long
    // enough for the second to hit the admission limit.
    service.failpoints().configure("storage.scan", "delay(60)").unwrap();
    let before = scan_stalls(&service);
    std::thread::scope(|s| {
        let slow = s.spawn(|| service.session("julie").query(&sql));
        std::thread::sleep(Duration::from_millis(15));
        match service.session("julie").query(&sql) {
            Err(Error::Overloaded { max, .. }) => assert_eq!(max, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(slow.join().unwrap().is_ok(), "the admitted query completes normally");
    });
    assert!(scan_stalls(&service) > before, "the admitted query reached a heap scan");
    service.failpoints().clear();
    // The slot was released: the service admits again.
    assert_eq!(service.in_flight(), 0);
    assert!(service.session("julie").query(&sql).is_ok());
}
