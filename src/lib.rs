//! # pqp — Personalization of Queries in Database Systems
//!
//! An umbrella crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of Koutrika & Ioannidis, *Personalization of Queries in
//! Database Systems* (ICDE 2004).
//!
//! - [`storage`] — value model, schemas with join cardinalities, tables
//!   stored as typed column chunks, hash indexes, catalog;
//! - [`sql`] — lexer/parser/AST/printer for the SPJ dialect the framework
//!   produces and consumes;
//! - [`engine`] — binder, optimizer (predicate pushdown, greedy join order,
//!   OR-expansion under DISTINCT), executor, ranking aggregates;
//! - [`core`] — the paper's contribution: preference model, personalization
//!   graph, preference selection, SQ/MQ integration, ranking;
//! - [`datagen`] — synthetic movies database, profile and query generators
//!   (the experimental apparatus);
//! - [`service`] — the concurrent multi-user serving layer: a [`Service`]
//!   owning one database plus a sharded profile store, prepared-query and
//!   personalized-plan caches with epoch invalidation, [`Session::query`]
//!   as the one front door (returning [`Result<Answer, Error>`](Error));
//! - [`wire`] — the versioned, length-prefixed binary protocol and the
//!   blocking TCP [`Client`];
//! - [`server`] — the `pqp-server` TCP session runtime (one epoll
//!   readiness loop over every session, served by a fixed set of run-slot
//!   threads; typed error frames, admission control at the edge).
//!
//! The client-facing API is the [`QueryApi`] trait: both the in-process
//! [`Session`] and the TCP [`Client`] implement it, so application code is
//! written once and runs over either backend. Every answer carries
//! [`AnswerMeta`] — the rewrite, K/M, [`DegradeLevel`], [`CacheOutcome`]
//! and rows-scanned telemetry — in a stable wire-serializable shape.
//!
//! Every query runs under a **query governor**: a per-query [`Budget`]
//! (deadline, rows scanned, memory) checked cooperatively at operator loop
//! boundaries, with typed [`Error::BudgetExceeded`] aborts carrying
//! partial-progress counters, graceful degradation of personalization
//! ([`DegradeLevel`]), admission control, and panic isolation. A zero-dep
//! failpoint registry per catalog ([`obs::failpoint`], `PQP_FAILPOINTS`)
//! injects faults at named sites for chaos testing.
//!
//! See `examples/quickstart.rs` for the five-minute tour,
//! `examples/service.rs` for the serving layer, and DESIGN.md for the
//! architecture and per-experiment index.

pub mod analyze;

pub use pqp_core as core;
pub use pqp_datagen as datagen;
pub use pqp_engine as engine;
pub use pqp_obs as obs;
pub use pqp_server as server;
pub use pqp_service as service;
pub use pqp_sql as sql;
pub use pqp_storage as storage;
pub use pqp_wire as wire;

pub use analyze::{explain_analyze, Analysis, Rewrite};
pub use pqp_core::prelude;
pub use pqp_obs::{Budget, BudgetExceeded, BudgetReason, QueryCtx};
pub use pqp_server::{Server, ServerConfig, ServerHandle};
pub use pqp_service::{
    Answer, AnswerMeta, CacheOutcome, DegradeLevel, Error, ErrorCode, QueryApi, Service,
    ServiceConfig, Session, UserId,
};
pub use pqp_wire::{Client, ClientConfig};
