//! # pqp-wire — the framed wire protocol and its blocking client
//!
//! The serving layer becomes a database *server* here: this crate defines
//! the versioned, length-prefixed binary protocol that `pqp-server` speaks
//! over TCP, and ships the matching blocking [`Client`]. Everything that
//! crosses the wire — requests, answers, options, errors — is a stable,
//! versioned surface (see `DESIGN.md` §14 for the grammar and the
//! compatibility rules).
//!
//! ## Frame grammar
//!
//! ```text
//! frame   := len:u32be  tag:u8  payload:byte*     (len = 1 + |payload|)
//! ```
//!
//! A frame is at most [`MAX_FRAME_LEN`] bytes of `tag + payload`; peers
//! reject oversized frames with a typed protocol error and close (the
//! stream can no longer be trusted to be frame-aligned). All integers are
//! big-endian; strings are `u32be` length-prefixed UTF-8; floats are IEEE
//! bit patterns. The message vocabulary lives in [`proto`].
//!
//! ## Versioning rules
//!
//! - The handshake carries [`PROTOCOL_VERSION`]; a server that does not
//!   speak the client's version answers with a `protocol` error frame and
//!   closes. There is no negotiation — matching versions or nothing.
//! - Message tags, error codes ([`pqp_service::ErrorCode`]) and enum
//!   discriminants are append-only: once assigned, never reused.
//! - Fields are never removed or reordered within a version; additions
//!   require a version bump.
//!
//! ## One client API over both backends
//!
//! [`Client`] implements [`pqp_service::QueryApi`], the same trait the
//! in-process `Session` implements — code written against
//! `&mut impl QueryApi` runs unchanged over TCP or in-process.

pub mod codec;
pub mod frame;
pub mod proto;
pub mod repl;

mod client;

pub use client::{Client, ClientConfig};
pub use codec::{DecodeError, Reader, Writer};
pub use frame::{read_frame, write_frame, FrameError};
pub use proto::{ProfileOp, Request, Response, ShowRequest, WireError};
pub use repl::{LogEntry, MutationRecord, NodeStatus, ReplRequest, ReplResponse, Role};

/// The protocol version this build speaks. The handshake requires an exact
/// match; see the crate docs for the compatibility rules.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard ceiling on `tag + payload` length of a single frame (8 MiB). A
/// peer announcing a longer frame is desynchronized or hostile; the frame
/// is rejected without buffering it.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;
