//! What a session's requests run: the dispatch boundary every request
//! crosses, mutations, and the replication peer loop.
//!
//! The readiness loop ([`crate::event_loop`]) runs reads through [`answer`]
//! and hands mutations to its mutation thread, which runs [`mutate`]. A
//! connection whose first frame is a replication request is handed to a
//! blocking thread running [`serve_peer`].

use std::io::{self, ErrorKind, Read, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;

use pqp_service::{Error, Service, UserId};
use pqp_wire::frame::{read_frame, write_frame, FrameError};
use pqp_wire::proto::{ProfileOp, Request, Response, ShowRequest, WireError};
use pqp_wire::repl::{ReplRequest, ReplResponse};
use pqp_wire::MAX_FRAME_LEN;

use crate::repl::PeerLink;
use crate::session::Close;
use crate::Shared;

/// One encoded response: `(tag, payload)`.
pub(crate) type Encoded = (u8, Vec<u8>);

/// Run one read request (`Query`, `Prepare`, `Show`) to its encoded
/// response.
pub(crate) fn answer(service: &Service, user: &UserId, request: Request) -> Encoded {
    guarded(service, || dispatch(service, user, request))
}

/// The dispatch boundary, failpoint-instrumented and panic-isolated: an
/// injected (or real) panic costs one request, never the process (nor a
/// loop thread).
pub(crate) fn guarded(service: &Service, handle: impl FnOnce() -> Response) -> Encoded {
    let answered = catch_unwind(AssertUnwindSafe(|| {
        match service.failpoints().fire("server.frame") {
            Some(msg) => Response::Error(WireError::from_error(&Error::Internal(msg))),
            None => handle(),
        }
        .encode()
    }));
    answered.unwrap_or_else(|_| {
        pqp_obs::counter_add("server.panics_caught", 1);
        Response::Error(WireError::from_error(&Error::Internal(
            "request handler panicked".to_string(),
        )))
        .encode()
    })
}

fn dispatch(service: &Service, user: &UserId, request: Request) -> Response {
    match request {
        Request::Query { sql, options, rewrite } => {
            let options = options.unwrap_or_else(|| service.config().options);
            let rewrite = rewrite.unwrap_or(service.config().rewrite);
            match service.query(user, &sql, options, rewrite) {
                Ok(answer) => Response::Answer(answer),
                Err(e) => Response::Error(WireError::from_error(&e)),
            }
        }
        Request::Prepare { sql } => match service.prepare_sql(&sql) {
            Ok(canonical) => Response::PrepareOk { canonical },
            Err(e) => Response::Error(WireError::from_error(&e)),
        },
        Request::Show(show) => {
            let sql = match show {
                ShowRequest::Metrics => "SHOW METRICS".to_string(),
                ShowRequest::Queries { limit: Some(n) } => format!("SHOW QUERIES LIMIT {n}"),
                ShowRequest::Queries { limit: None } => "SHOW QUERIES".to_string(),
                ShowRequest::Caches => "SHOW CACHES".to_string(),
            };
            let options = service.config().options;
            let rewrite = service.config().rewrite;
            match service.query(user, &sql, options, rewrite) {
                Ok(answer) => Response::Answer(answer),
                Err(e) => Response::Error(WireError::from_error(&e)),
            }
        }
        // The session core and the mutation thread handle these; reaching
        // here is a logic bug, and even then it costs one error frame.
        Request::Hello { .. } | Request::Close | Request::Mutate(_) => {
            Response::Error(WireError::protocol("not a read request"))
        }
    }
}

/// Apply one profile mutation. With a replication engine it goes through
/// the WAL + log shipping (leader only); otherwise it applies directly.
pub(crate) fn mutate(shared: &Shared, user: &UserId, op: ProfileOp) -> Response {
    let service = &shared.service;
    if let Some(node) = &shared.repl {
        return match node.client_mutate(user, op) {
            Ok((epoch, removed)) => Response::MutateOk { epoch, removed },
            Err(e) => Response::Error(WireError::from_error(&e)),
        };
    }
    match apply_op(service, user, &op) {
        Ok(removed) => Response::MutateOk { epoch: service.epoch(user.clone()), removed },
        Err(e) => Response::Error(WireError::from_error(&e)),
    }
}

/// Apply one profile mutation to the service; `Ok(removed)` is the
/// `MutateOk` flag (true but for a `Remove` of an absent profile).
pub(crate) fn apply_op(
    service: &Service,
    user: &UserId,
    op: &ProfileOp,
) -> pqp_service::Result<bool> {
    match op {
        ProfileOp::AddSelection { table, column, value, doi } => {
            service.add_selection(user.clone(), table, column, value.clone(), *doi).map(|_| true)
        }
        ProfileOp::AddJoin { from_table, from_column, to_table, to_column, doi } => service
            .add_join(user.clone(), from_table, from_column, to_table, to_column, *doi)
            .map(|_| true),
        ProfileOp::Remove => Ok(service.remove_profile(user.clone())),
    }
}

/// Open a peer link with `timeout` on connect, reads and writes.
pub(crate) fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(ErrorKind::AddrNotAvailable, "address resolved to nothing");
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One framed replication request and its answer on a peer link.
pub(crate) fn exchange(stream: &mut TcpStream, request: &ReplRequest) -> io::Result<ReplResponse> {
    let (tag, payload) = request.encode();
    write_frame(stream, tag, &payload)
        .map_err(|e| io::Error::new(ErrorKind::BrokenPipe, e.to_string()))?;
    stream.flush()?;
    let (tag, payload) = read_frame(stream, MAX_FRAME_LEN)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    ReplResponse::decode(tag, &payload)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))
}

/// Serve a replication peer on a blocking thread of its own until it
/// leaves: `buffered` holds what the session read past the first frame,
/// `(tag, payload)`.
pub(crate) fn serve_peer(
    shared: &Shared,
    stream: TcpStream,
    buffered: Vec<u8>,
    tag: u8,
    payload: Vec<u8>,
) {
    let served = (|| {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(shared.config.read_timeout)?;
        stream.set_write_timeout(shared.config.write_timeout)?;
        let mut writer = stream.try_clone()?;
        let mut reader = io::Cursor::new(buffered).chain(stream);
        peer_session(shared, &mut reader, &mut writer, tag, payload)
    })();
    let close = served.unwrap_or(Close::Disconnected);
    pqp_obs::counter_add(&format!("server.close.{}", close.label()), 1);
    shared.active.fetch_sub(1, Ordering::Relaxed);
}

/// Serve a replication peer: a strict request/response loop over the
/// [`ReplRequest`] vocabulary, dispatched to the node's replication
/// engine. A node with no engine (single-node deployment) rejects every
/// peer frame with a typed reason.
fn peer_session(
    shared: &Shared,
    reader: &mut impl Read,
    writer: &mut TcpStream,
    mut tag: u8,
    mut payload: Vec<u8>,
) -> std::io::Result<Close> {
    pqp_obs::counter_add("server.peer_sessions", 1);
    // Auth state lives on the link: Hello must present the cluster
    // token before state-changing frames are honored on it.
    let mut link = PeerLink::new();
    loop {
        let response = match &shared.repl {
            None => ReplResponse::Reject {
                term: 0,
                last_seq: 0,
                reason: "replication not configured on this node".to_string(),
            },
            Some(node) => match ReplRequest::decode(tag, &payload) {
                Ok(request) => node.handle_peer(request, &mut link),
                Err(e) => {
                    // The frame was sound, so the stream is aligned:
                    // reject this request and keep serving the link.
                    pqp_obs::counter_add("server.malformed_peer_frames", 1);
                    let status = node.status();
                    ReplResponse::Reject {
                        term: status.term,
                        last_seq: status.last_seq,
                        reason: format!("bad repl frame: {e}"),
                    }
                }
            },
        };
        let (t, p) = response.encode();
        write_frame(writer, t, &p).inspect_err(|_| {
            pqp_obs::counter_add("server.write_failed", 1);
        })?;
        match read_raw(reader) {
            Ok((t, p)) => {
                tag = t;
                payload = p;
            }
            Err(close) => return Ok(close),
        }
    }
}

/// Read one raw frame, mapping transport failures to a [`Close`] reason.
fn read_raw(reader: &mut impl Read) -> Result<(u8, Vec<u8>), Close> {
    match read_frame(reader, MAX_FRAME_LEN) {
        Ok(frame) => Ok(frame),
        Err(FrameError::Closed) => Err(Close::Clean),
        Err(FrameError::Io(e))
            if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
        {
            pqp_obs::counter_add("server.idle_timeouts", 1);
            Err(Close::IdleTimeout)
        }
        Err(FrameError::Io(_)) => {
            pqp_obs::counter_add("server.client_disconnects", 1);
            Err(Close::Disconnected)
        }
        Err(FrameError::Oversized { .. } | FrameError::Empty) => {
            pqp_obs::counter_add("server.bad_frames", 1);
            Err(Close::Protocol)
        }
    }
}
