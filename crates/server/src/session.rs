//! One client session as a socket-free state machine: the bytes a client
//! sent go in, framed responses and what to run come out.
//!
//! [`SessionCore`] owns the framing (frames reassemble across any split of
//! the byte stream), the handshake, the protocol errors and the reason the
//! session ends. It never touches a socket, a clock or a thread; the
//! readiness loop ([`crate::event_loop`]) feeds it what it reads, writes
//! what it buffers, and runs the requests it hands out.
//!
//! - A malformed *payload* answers with a `protocol` error frame and the
//!   session continues: the stream is still frame-aligned.
//! - A malformed *frame* (oversized, zero-length) answers with a `protocol`
//!   error frame and closes: the stream can no longer be trusted to be
//!   frame-aligned. Before the handshake it closes without a frame.
//! - A session ends exactly once: the first reason given sticks.

use std::sync::Arc;

use pqp_service::UserId;
use pqp_wire::proto::{Request, Response, WireError};
use pqp_wire::repl::is_repl_request;
use pqp_wire::{MAX_FRAME_LEN, PROTOCOL_VERSION};

use crate::conn::Encoded;

/// Why a session ended (feeds the `server.close.*` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// Orderly `Close` request or clean client EOF.
    Clean,
    /// The client vanished mid-exchange (reset, mid-frame EOF, failed or
    /// timed-out response write).
    Disconnected,
    /// The session sat idle past the read timeout.
    IdleTimeout,
    /// The peer broke the framing or the handshake.
    Protocol,
}

impl Close {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Close::Clean => "clean",
            Close::Disconnected => "disconnected",
            Close::IdleTimeout => "idle_timeout",
            Close::Protocol => "protocol",
        }
    }
}

/// What the session needs next.
#[derive(Debug)]
pub(crate) enum Action {
    /// Nothing to do until more bytes arrive.
    Wait,
    /// Run `Query`, `Prepare`, `Show` or `Mutate` for the user and pass the
    /// encoded response to [`SessionCore::answered`].
    Run(Arc<UserId>, Request),
    /// The first frame was a replication request: the connection belongs
    /// to the peer loop from here on, with [`SessionCore::take_input`]'s
    /// bytes still unread.
    Peer(u8, Vec<u8>),
    /// The session has ended; write out [`SessionCore::output`] and close.
    Close(Close),
}

pub(crate) struct SessionCore {
    /// Sent in `HelloOk`.
    server: Arc<str>,
    /// Received bytes; those before `consumed` were already framed.
    input: Vec<u8>,
    consumed: usize,
    /// The client half-closed: no more bytes will arrive.
    eof: bool,
    /// Framed responses; those before `sent` are written.
    output: Vec<u8>,
    sent: usize,
    /// Bound by the handshake.
    user: Option<Arc<UserId>>,
    closed: Option<Close>,
}

impl SessionCore {
    pub(crate) fn new(server: Arc<str>) -> SessionCore {
        SessionCore {
            server,
            input: Vec::new(),
            consumed: 0,
            eof: false,
            output: Vec::new(),
            sent: 0,
            user: None,
            closed: None,
        }
    }

    /// Append bytes read from the client.
    pub(crate) fn received(&mut self, bytes: &[u8]) {
        if self.consumed == self.input.len() {
            self.input.clear();
            self.consumed = 0;
        } else if self.consumed > self.input.len() / 2 {
            self.input.drain(..self.consumed);
            self.consumed = 0;
        }
        self.input.extend_from_slice(bytes);
    }

    /// The client closed its side of the stream.
    pub(crate) fn eof(&mut self) {
        self.eof = true;
    }

    /// Whether received bytes wait to be framed.
    pub(crate) fn has_input(&self) -> bool {
        self.consumed < self.input.len()
    }

    /// The received bytes not yet framed, handed over with the connection.
    pub(crate) fn take_input(&mut self) -> Vec<u8> {
        let mut input = std::mem::take(&mut self.input);
        input.drain(..self.consumed);
        self.consumed = 0;
        input
    }

    /// Framed responses not yet written.
    pub(crate) fn output(&self) -> &[u8] {
        &self.output[self.sent..]
    }

    /// `n` bytes of [`output`](Self::output) reached the socket.
    pub(crate) fn written(&mut self, n: usize) {
        self.sent += n;
        if self.sent >= self.output.len() {
            self.output.clear();
            self.sent = 0;
        }
    }

    /// Queue the response to the request last handed out by
    /// [`Action::Run`].
    pub(crate) fn answered(&mut self, (tag, payload): &Encoded) {
        self.frame(*tag, payload);
    }

    /// End the session for `reason` unless it has already ended; returns
    /// the reason it ends with.
    pub(crate) fn close(&mut self, reason: Close) -> Close {
        *self.closed.get_or_insert(reason)
    }

    /// Frame the next request and say what it needs. After the handshake a
    /// request that arrives once `shutdown` is set is answered `Bye`.
    pub(crate) fn next(&mut self, shutdown: bool) -> Action {
        loop {
            if let Some(reason) = self.closed {
                return Action::Close(reason);
            }
            let (tag, start, end) = match self.split_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) if !self.eof => return Action::Wait,
                Ok(None) => {
                    if self.has_input() {
                        pqp_obs::counter_add("server.client_disconnects", 1);
                        self.close(Close::Disconnected);
                    } else {
                        self.close(Close::Clean);
                    }
                    continue;
                }
                Err(()) => {
                    pqp_obs::counter_add("server.bad_frames", 1);
                    if self.user.is_some() {
                        self.reply(&Response::Error(WireError::protocol(
                            "unreadable frame; closing",
                        )));
                    }
                    self.close(Close::Protocol);
                    continue;
                }
            };
            self.consumed = end;
            let decoded = Request::decode(tag, &self.input[start..end]);
            let Some(user) = &self.user else {
                if is_repl_request(tag) {
                    let payload = self.input[start..end].to_vec();
                    return Action::Peer(tag, payload);
                }
                self.handshake(decoded);
                continue;
            };
            match decoded {
                Err(e) => {
                    // The frame itself was sound, so the stream is still
                    // aligned: answer with a typed error and keep serving.
                    pqp_obs::counter_add("server.malformed_payloads", 1);
                    self.reply(&Response::Error(WireError::protocol(e.to_string())));
                }
                Ok(Request::Close) => self.bye(),
                Ok(_) if shutdown => self.bye(),
                Ok(Request::Hello { .. }) => {
                    self.reply(&Response::Error(WireError::protocol("not a read request")));
                }
                Ok(request) => return Action::Run(Arc::clone(user), request),
            }
        }
    }

    /// The first client frame must be a version-matched `Hello` with a
    /// user; anything else is answered with a protocol error and closes.
    fn handshake(&mut self, decoded: Result<Request, pqp_wire::DecodeError>) {
        let refusal = match decoded {
            Ok(Request::Hello { version, .. }) if version != PROTOCOL_VERSION => {
                format!("unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})")
            }
            Ok(Request::Hello { user, .. }) if user.is_empty() => "empty user id".to_string(),
            Ok(Request::Hello { user, .. }) => {
                self.user = Some(Arc::new(UserId::from(user.as_str())));
                let server = self.server.to_string();
                self.reply(&Response::HelloOk { version: PROTOCOL_VERSION, server });
                return;
            }
            Ok(_) => "first message must be Hello".to_string(),
            Err(e) => format!("bad hello: {e}"),
        };
        self.reply(&Response::Error(WireError::protocol(refusal)));
        self.close(Close::Protocol);
    }

    fn bye(&mut self) {
        self.reply(&Response::Bye);
        self.close(Close::Clean);
    }

    fn reply(&mut self, response: &Response) {
        let (tag, payload) = response.encode();
        self.frame(tag, &payload);
    }

    /// `len:u32be tag:u8 payload`, as `pqp_wire::frame` writes it.
    fn frame(&mut self, tag: u8, payload: &[u8]) {
        let len = 1 + payload.len() as u32;
        self.output.extend_from_slice(&len.to_be_bytes());
        self.output.push(tag);
        self.output.extend_from_slice(payload);
    }

    /// The next whole frame in the input as `(tag, payload start, payload
    /// end)`; `Ok(None)` while it is incomplete, `Err` for a length that
    /// breaks the framing (checked before any payload is buffered).
    fn split_frame(&self) -> Result<Option<(u8, usize, usize)>, ()> {
        let rest = &self.input[self.consumed..];
        let Some(header) = rest.get(..4) else { return Ok(None) };
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(());
        }
        if rest.len() < 4 + len {
            return Ok(None);
        }
        let start = self.consumed + 5;
        Ok(Some((rest[4], start, self.consumed + 4 + len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqp_service::ErrorCode;
    use pqp_wire::repl::ReplRequest;
    use pqp_wire::{read_frame, write_frame, ShowRequest};

    fn core() -> SessionCore {
        SessionCore::new(Arc::from("pqp-test"))
    }

    fn bytes(request: &Request) -> Vec<u8> {
        let (tag, payload) = request.encode();
        let mut frame = Vec::new();
        write_frame(&mut frame, tag, &payload).unwrap();
        frame
    }

    fn hello(user: &str) -> Vec<u8> {
        bytes(&Request::Hello { version: PROTOCOL_VERSION, user: user.into() })
    }

    fn query() -> Request {
        Request::Query { sql: "select 1".into(), options: None, rewrite: None }
    }

    /// Every response frame buffered so far, marked written.
    fn responses(core: &mut SessionCore) -> Vec<Response> {
        let mut out = core.output();
        let mut frames = Vec::new();
        while !out.is_empty() {
            let (tag, payload) = read_frame(&mut out, MAX_FRAME_LEN).unwrap();
            frames.push(Response::decode(tag, &payload).unwrap());
        }
        let n = core.output().len();
        core.written(n);
        frames
    }

    fn protocol_error(response: &Response) -> &str {
        match response {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Protocol.as_u16(), "{}", e.message);
                &e.message
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// A core past its handshake, output drained.
    fn open(user: &str) -> SessionCore {
        let mut core = core();
        core.received(&hello(user));
        assert!(matches!(core.next(false), Action::Wait));
        assert!(matches!(responses(&mut core)[..], [Response::HelloOk { .. }]));
        core
    }

    #[test]
    fn frames_fed_one_byte_at_a_time_reassemble() {
        let mut core = core();
        let mut stream = hello("ana");
        stream.extend(bytes(&query()));
        let mut requests = Vec::new();
        for byte in stream {
            core.received(&[byte]);
            match core.next(false) {
                Action::Wait => {}
                Action::Run(user, request) => requests.push((user.to_string(), request)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(responses(&mut core)[..], [Response::HelloOk { .. }]));
        assert_eq!(requests.len(), 1, "exactly one whole request came out");
        assert_eq!(requests[0].0, "ana");
        assert!(matches!(&requests[0].1, Request::Query { sql, .. } if sql == "select 1"));
        assert!(!core.has_input());
    }

    #[test]
    fn oversized_and_zero_length_frames_answer_then_close_as_protocol() {
        for header in [(MAX_FRAME_LEN as u32 + 1).to_be_bytes(), 0u32.to_be_bytes()] {
            let mut core = open("ana");
            core.received(&header);
            assert!(matches!(core.next(false), Action::Close(Close::Protocol)));
            let frames = responses(&mut core);
            assert_eq!(frames.len(), 1);
            assert!(protocol_error(&frames[0]).contains("unreadable"));
            // Nothing after the close is framed.
            core.received(&bytes(&query()));
            assert!(matches!(core.next(false), Action::Close(Close::Protocol)));
            assert!(core.output().is_empty());
        }
        // Before the handshake a broken frame closes without an answer.
        let mut core = core();
        core.received(&0u32.to_be_bytes());
        assert!(matches!(core.next(false), Action::Close(Close::Protocol)));
        assert!(core.output().is_empty());
    }

    #[test]
    fn bad_handshakes_are_rejected_and_closed() {
        let cases = [
            (bytes(&Request::Hello { version: 99, user: "ana".into() }), "99"),
            (hello(""), "empty user"),
            (bytes(&query()), "must be Hello"),
            (bytes(&Request::Show(ShowRequest::Metrics)), "must be Hello"),
        ];
        for (frame, expected) in cases {
            let mut core = core();
            core.received(&frame);
            assert!(matches!(core.next(false), Action::Close(Close::Protocol)));
            let frames = responses(&mut core);
            assert_eq!(frames.len(), 1);
            let message = protocol_error(&frames[0]);
            assert!(message.contains(expected), "{message} names {expected}");
        }
    }

    #[test]
    fn a_malformed_payload_gets_a_typed_error_and_the_session_lives_on() {
        let mut core = open("ana");
        let mut garbage = Vec::new();
        write_frame(&mut garbage, 0x02, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        write_frame(&mut garbage, 0x7F, &[]).unwrap();
        core.received(&garbage);
        core.received(&bytes(&query()));
        assert!(matches!(core.next(false), Action::Run(_, Request::Query { .. })));
        let frames = responses(&mut core);
        assert_eq!(frames.len(), 2, "one error per malformed frame");
        for frame in &frames {
            protocol_error(frame);
        }

        core.answered(&Response::PrepareOk { canonical: "SELECT 1".into() }.encode());
        assert!(matches!(responses(&mut core)[..], [Response::PrepareOk { .. }]));
        assert!(matches!(core.next(false), Action::Wait));
    }

    #[test]
    fn close_is_answered_bye_and_ends_clean() {
        let mut core = open("ana");
        core.received(&bytes(&Request::Close));
        core.received(&bytes(&query()));
        assert!(matches!(core.next(false), Action::Close(Close::Clean)));
        assert!(matches!(responses(&mut core)[..], [Response::Bye]));
        assert!(
            matches!(core.next(false), Action::Close(Close::Clean)),
            "nothing runs after Close"
        );

        // After shutdown every request is answered Bye.
        let mut core = open("ana");
        core.received(&bytes(&query()));
        assert!(matches!(core.next(true), Action::Close(Close::Clean)));
        assert!(matches!(responses(&mut core)[..], [Response::Bye]));
    }

    #[test]
    fn eof_ends_clean_at_a_frame_boundary_and_disconnected_inside_one() {
        let mut core = open("ana");
        core.received(&bytes(&query()));
        core.eof();
        assert!(matches!(core.next(false), Action::Run(..)), "a whole frame before EOF still runs");
        assert!(matches!(core.next(false), Action::Close(Close::Clean)));

        let mut core = open("ana");
        core.received(&bytes(&query())[..6]);
        core.eof();
        assert!(matches!(core.next(false), Action::Close(Close::Disconnected)));
    }

    #[test]
    fn a_replication_first_frame_hands_the_stream_over() {
        let mut core = core();
        let (tag, payload) = ReplRequest::Status.encode();
        let mut frame = Vec::new();
        write_frame(&mut frame, tag, &payload).unwrap();
        core.received(&frame);
        core.received(&[1, 2, 3]);
        match core.next(false) {
            Action::Peer(t, p) => assert_eq!((t, p), (tag, payload)),
            other => panic!("expected a peer hand-off, got {other:?}"),
        }
        assert_eq!(core.take_input(), vec![1, 2, 3], "unread bytes go with the stream");
    }

    #[test]
    fn every_session_ends_with_exactly_one_close_reason() {
        // Whatever ends a session first is its reason, however many other
        // endings follow.
        let endings = [Close::Clean, Close::Disconnected, Close::IdleTimeout, Close::Protocol];
        for first in endings {
            for then in endings {
                let mut core = open("ana");
                assert_eq!(core.close(first), first);
                assert_eq!(core.close(then), first);
                core.eof();
                core.received(&bytes(&Request::Close));
                assert!(matches!(core.next(false), Action::Close(reason) if reason == first));
                assert!(core.output().is_empty(), "nothing is written after the end");
            }
        }
        // A protocol close is not overwritten by the EOF that follows it.
        let mut core = open("ana");
        core.received(&0u32.to_be_bytes());
        core.eof();
        assert!(matches!(core.next(false), Action::Close(Close::Protocol)));
        assert_eq!(core.close(Close::Disconnected), Close::Protocol);
    }
}
