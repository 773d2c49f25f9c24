//! Environment-driven governor configuration (`PQP_DEADLINE_MS`,
//! `PQP_MAX_ROWS_SCANNED`, `PQP_MAX_MEMORY_BYTES`, `PQP_MAX_IN_FLIGHT`,
//! `PQP_FAILPOINTS`, `PQP_FAILPOINT_SEED`).
//!
//! `ServiceConfig::from_env` and `Failpoints::configure_from_env` are the
//! only readers; `ServiceConfig::default()` is a constant. Lives in its own
//! test binary — and in a single test function — because it mutates
//! process-global environment variables.

mod common;

use pqp::core::{PersonalizeOptions, Rewrite};
use pqp::{Budget, Error, Service, ServiceConfig};
use std::time::Duration;

#[test]
fn env_vars_shape_the_default_budget_admission_and_failpoints() {
    std::env::set_var("PQP_DEADLINE_MS", "1234");
    std::env::set_var("PQP_MAX_ROWS_SCANNED", "77");
    std::env::set_var("PQP_MAX_MEMORY_BYTES", "4096");
    std::env::set_var("PQP_MAX_IN_FLIGHT", "3");

    let budget = Budget::from_env();
    assert_eq!(budget.deadline, Some(Duration::from_millis(1234)));
    assert_eq!(budget.max_rows_scanned, Some(77));
    assert_eq!(budget.max_memory, Some(4096));

    let config = ServiceConfig::default();
    assert_eq!(config.budget, Budget::unlimited(), "Default must not read the environment");
    assert_eq!(config.max_in_flight, 0, "Default must not read the environment");
    let config = ServiceConfig::from_env();
    assert_eq!(config.budget, budget);
    assert_eq!(config.max_in_flight, 3);

    // Unparsable values must leave the field unlimited, never panic.
    std::env::set_var("PQP_DEADLINE_MS", "not-a-number");
    assert_eq!(Budget::from_env().deadline, None);

    // `PQP_FAILPOINTS` arms sites when the binary applies it to the
    // registry of the catalog it built (constructing a service does not).
    std::env::set_var("PQP_FAILPOINT_SEED", "42");
    let service = Service::with_config(
        common::paper_db(),
        ServiceConfig {
            options: PersonalizeOptions::builder().k(3).l(1).build(),
            rewrite: Rewrite::Mq,
            ..ServiceConfig::default()
        },
    );
    service.install_profile(common::julie()).unwrap();
    assert!(service.failpoints().active_sites().is_empty());
    // A typo anywhere in the spec is reported and arms nothing.
    std::env::set_var("PQP_FAILPOINTS", "service.query=1*error(armed from env); nope");
    assert!(service.failpoints().configure_from_env().is_err());
    assert!(service.failpoints().active_sites().is_empty());
    std::env::set_var("PQP_FAILPOINTS", "service.query=1*error(armed from env)");
    service.failpoints().configure_from_env().unwrap();
    let sql = "select MV.title from MOVIE MV";
    match service.session("julie").query(sql) {
        Err(Error::Internal(m)) => assert!(m.contains("armed from env"), "{m}"),
        other => panic!("expected the env-armed failpoint to fire, got {other:?}"),
    }
    // The count-limited failpoint is spent; the service serves normally.
    assert!(service.session("julie").query(sql).is_ok());

    for var in [
        "PQP_DEADLINE_MS",
        "PQP_MAX_ROWS_SCANNED",
        "PQP_MAX_MEMORY_BYTES",
        "PQP_MAX_IN_FLIGHT",
        "PQP_FAILPOINTS",
        "PQP_FAILPOINT_SEED",
    ] {
        std::env::remove_var(var);
    }
}
