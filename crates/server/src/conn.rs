//! One connection = one session: handshake, then a strict
//! request/response loop until close, disconnect, timeout, or a
//! frame-level protocol violation. The session thread moves frames;
//! queries and prepares run on the server's worker pool ([`crate::pool`]),
//! mutations and `Show` here.
//!
//! The first frame routes the connection: a replication request tag
//! hands the stream to the peer loop ([`peer_session`]); anything else
//! must be a client `Hello`.

use std::io::{self, ErrorKind, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use pqp_service::{Error, Service, UserId};
use pqp_wire::frame::{read_frame, write_frame, FrameError};
use pqp_wire::proto::{ProfileOp, Request, Response, ShowRequest, WireError};
use pqp_wire::repl::{is_repl_request, ReplRequest, ReplResponse};
use pqp_wire::{MAX_FRAME_LEN, PROTOCOL_VERSION};

use crate::pool::{Encoded, Reply};
use crate::repl::PeerLink;
use crate::Shared;

/// Why a session ended (feeds the `server.close.*` counters).
enum Close {
    /// Orderly `Close` request or clean client EOF.
    Clean,
    /// The client vanished mid-exchange (reset, mid-frame EOF, failed
    /// response write).
    Disconnected,
    /// The read timeout fired on an idle session.
    IdleTimeout,
    /// The peer broke the framing; the stream is not trustworthy.
    Protocol,
}

impl Close {
    fn label(&self) -> &'static str {
        match self {
            Close::Clean => "clean",
            Close::Disconnected => "disconnected",
            Close::IdleTimeout => "idle_timeout",
            Close::Protocol => "protocol",
        }
    }
}

pub(crate) fn serve(shared: &Shared, stream: TcpStream) {
    shared.active.fetch_add(1, Ordering::Relaxed);
    let close = session(shared, stream).unwrap_or(Close::Disconnected);
    pqp_obs::counter_add(&format!("server.close.{}", close.label()), 1);
    shared.active.fetch_sub(1, Ordering::Relaxed);
}

/// Run one session to completion. Transport errors on writes surface as
/// `Err`, mapped to a disconnect by the caller.
fn session(shared: &Shared, stream: TcpStream) -> std::io::Result<Close> {
    stream.set_read_timeout(shared.config.read_timeout)?;
    stream.set_write_timeout(shared.config.write_timeout)?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;

    // The first frame routes the connection: replication tags go to the
    // peer loop, everything else must be a client Hello.
    let (first_tag, first_payload) = match read_raw(&mut reader) {
        Ok(frame) => frame,
        Err(close) => return Ok(close),
    };
    if is_repl_request(first_tag) {
        return peer_session(shared, &mut reader, &mut writer, first_tag, first_payload);
    }

    // Handshake: the first client frame must be a version-matched Hello.
    let user = match Request::decode(first_tag, &first_payload) {
        Ok(Request::Hello { version, user }) => {
            if version != PROTOCOL_VERSION {
                send(
                    &mut writer,
                    &Response::Error(WireError::protocol(format!(
                        "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                    ))),
                )?;
                return Ok(Close::Protocol);
            }
            if user.is_empty() {
                send(&mut writer, &Response::Error(WireError::protocol("empty user id")))?;
                return Ok(Close::Protocol);
            }
            user
        }
        Ok(_) => {
            send(
                &mut writer,
                &Response::Error(WireError::protocol("first message must be Hello")),
            )?;
            return Ok(Close::Protocol);
        }
        Err(e) => {
            send(&mut writer, &Response::Error(WireError::protocol(format!("bad hello: {e}"))))?;
            return Ok(Close::Protocol);
        }
    };
    let user = Arc::new(UserId::from(user.as_str()));
    let reply = Reply::new();
    send(
        &mut writer,
        &Response::HelloOk { version: PROTOCOL_VERSION, server: shared.config.name.clone() },
    )?;

    loop {
        let request = match read_request(&mut reader) {
            Ok(req) => req,
            Err(ReadError::Frame(close)) => {
                if matches!(close, Close::Protocol) {
                    // Oversized/zero-length frame: tell the peer why, then
                    // close — resynchronization is not possible.
                    send(
                        &mut writer,
                        &Response::Error(WireError::protocol("unreadable frame; closing")),
                    )?;
                }
                return Ok(close);
            }
            Err(ReadError::Malformed(e)) => {
                // The frame itself was sound, so the stream is still
                // aligned: answer with a typed error and keep serving.
                pqp_obs::counter_add("server.malformed_payloads", 1);
                send(&mut writer, &Response::Error(WireError::protocol(e.to_string())))?;
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            send(&mut writer, &Response::Bye)?;
            return Ok(Close::Clean);
        }
        if matches!(request, Request::Close) {
            send(&mut writer, &Response::Bye)?;
            return Ok(Close::Clean);
        }
        // A mutation waits on the WAL fsync and the follower ack, so it runs
        // here: a dead follower must not hold a worker that every read needs.
        // SHOW runs here too: it must answer while every worker is busy.
        let (tag, payload) = match request {
            Request::Mutate(op) => guarded(&shared.service, || mutate(shared, &user, op)),
            Request::Show(_) => answer(&shared.service, &user, request),
            _ => shared.pool.run(&user, request, &reply),
        };
        send_encoded(&mut writer, tag, &payload)?;
    }
}

/// Run one read request (`Query`, `Prepare`, `Show`) to its encoded
/// response.
pub(crate) fn answer(service: &Service, user: &UserId, request: Request) -> Encoded {
    guarded(service, || dispatch(service, user, request))
}

/// The dispatch boundary, failpoint-instrumented and panic-isolated: an
/// injected (or real) panic costs one request, never the process (nor a
/// pool worker).
fn guarded(service: &Service, handle: impl FnOnce() -> Response) -> Encoded {
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
        // The session thread handles these itself; reaching here is a logic
        // bug, and even then it costs one error frame, not the session.
        Request::Hello { .. } | Request::Close | Request::Mutate(_) => {
            Response::Error(WireError::protocol("not a read request"))
        }
    }
}

/// Apply one profile mutation. With a replication engine it goes through
/// the WAL + log shipping (leader only); otherwise it applies directly.
fn mutate(shared: &Shared, user: &UserId, op: ProfileOp) -> Response {
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

/// Serve a replication peer: a strict request/response loop over the
/// [`ReplRequest`] vocabulary, dispatched to the node's replication
/// engine. A node with no engine (single-node deployment) rejects every
/// peer frame with a typed reason.
fn peer_session(
    shared: &Shared,
    reader: &mut TcpStream,
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

enum ReadError {
    /// The transport ended the session (maps to a [`Close`] reason).
    Frame(Close),
    /// The frame was sound but the payload did not decode.
    Malformed(pqp_wire::DecodeError),
}

/// Read one raw frame, mapping transport failures to a [`Close`] reason.
fn read_raw(reader: &mut TcpStream) -> Result<(u8, Vec<u8>), Close> {
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

fn read_request(reader: &mut TcpStream) -> Result<Request, ReadError> {
    let (tag, payload) = read_raw(reader).map_err(ReadError::Frame)?;
    Request::decode(tag, &payload).map_err(ReadError::Malformed)
}

fn send(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let (tag, payload) = response.encode();
    send_encoded(writer, tag, &payload)
}

fn send_encoded(writer: &mut TcpStream, tag: u8, payload: &[u8]) -> std::io::Result<()> {
    write_frame(writer, tag, payload).inspect_err(|_| {
        // A failed response write is the mid-query-disconnect path: the
        // query already ran (and released its in-flight slot via RAII);
        // only the delivery failed.
        pqp_obs::counter_add("server.write_failed", 1);
    })
}
