//! The blocking TCP client: one socket, one session, the same
//! [`QueryApi`] the in-process `Session` implements. Every transport error
//! surfaces to the caller as it happens.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pqp_service::{Answer, Error, QueryApi, Result};
use pqp_storage::Value;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{ProfileOp, Request, Response, ShowRequest};
use crate::{MAX_FRAME_LEN, PROTOCOL_VERSION};

/// Client-side connection knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The user this session acts as.
    pub user: String,
    /// Read timeout on responses (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Write timeout on requests (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl ClientConfig {
    /// A config for `user` with 30-second read/write timeouts.
    pub fn new(user: impl Into<String>) -> ClientConfig {
        ClientConfig {
            user: user.into(),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A blocking connection to a `pqp-server`, bound to one user session.
///
/// Implements [`QueryApi`], so code written against `&mut impl QueryApi`
/// runs identically over TCP and in-process. Request/response is strictly
/// sequential — one outstanding request per connection.
#[derive(Debug)]
pub struct Client {
    reader: TcpStream,
    writer: TcpStream,
    config: ClientConfig,
    server: String,
}

impl Client {
    /// Connect, perform the protocol handshake, and bind the session to
    /// `config.user`. A router answers the handshake with a redirect to
    /// its current leader; the client follows one, and a second is an
    /// [`Error::Protocol`]. Fails with [`Error::Protocol`] on a version
    /// mismatch and [`Error::Io`] on transport failures.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client> {
        let hello = Request::Hello { version: PROTOCOL_VERSION, user: config.user.clone() };
        let (mut stream, mut answer) = handshake(addr, &config, &hello)?;
        if let Response::Redirect { addr: leader } = answer {
            (stream, answer) = handshake(leader.as_str(), &config, &hello)?;
            if let Response::Redirect { addr: again } = answer {
                return Err(Error::Protocol(format!(
                    "redirected to {leader}, which redirected again to {again}"
                )));
            }
        }
        match answer {
            Response::HelloOk { server, .. } => {
                let reader = stream.try_clone().map_err(io_err)?;
                Ok(Client { reader, writer: stream, config, server })
            }
            Response::Error(e) => Err(e.into_error()),
            other => Err(unexpected(&hello, &other)),
        }
    }

    /// The server identification string from the handshake.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// Run one introspection request (`SHOW …`) over live server telemetry.
    pub fn show(&mut self, show: ShowRequest) -> Result<Answer> {
        let req = Request::Show(show);
        match self.rpc(&req)? {
            Response::Answer(a) => Ok(a),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Run one query with explicit personalization/rewrite overrides
    /// (`None` = the server session's defaults).
    pub fn query_with(
        &mut self,
        sql: &str,
        options: Option<pqp_core::PersonalizeOptions>,
        rewrite: Option<pqp_core::Rewrite>,
    ) -> Result<Answer> {
        let req = Request::Query { sql: sql.to_string(), options, rewrite };
        match self.rpc(&req)? {
            Response::Answer(a) => Ok(a),
            other => Err(unexpected(&req, &other)),
        }
    }

    /// Send an orderly goodbye and consume the socket. Errors on the
    /// goodbye itself are ignored — the session is over either way.
    pub fn close(mut self) {
        if self.send(&Request::Close).is_ok() {
            let _ = self.recv();
        }
    }

    fn mutate(&mut self, op: ProfileOp) -> Result<(u64, bool)> {
        let req = Request::Mutate(op);
        match self.rpc(&req)? {
            Response::MutateOk { epoch, removed } => Ok((epoch, removed)),
            other => Err(unexpected(&req, &other)),
        }
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        let (tag, payload) = req.encode();
        write_frame(&mut self.writer, tag, &payload).map_err(io_err)
    }

    fn recv(&mut self) -> Result<Response> {
        recv_on(&mut self.reader)
    }

    /// One request/response exchange. A server `Error` frame becomes the
    /// decoded service [`Error`] (kind-preserving; `Overloaded` rebuilds
    /// structurally).
    fn rpc(&mut self, req: &Request) -> Result<Response> {
        self.send(req)?;
        match self.recv()? {
            Response::Error(e) => Err(e.into_error()),
            resp => Ok(resp),
        }
    }
}

impl QueryApi for Client {
    fn user_id(&self) -> &str {
        &self.config.user
    }

    fn query(&mut self, sql: &str) -> Result<Answer> {
        self.query_with(sql, None, None)
    }

    fn prepare(&mut self, sql: &str) -> Result<String> {
        let req = Request::Prepare { sql: sql.to_string() };
        match self.rpc(&req)? {
            Response::PrepareOk { canonical } => Ok(canonical),
            other => Err(unexpected(&req, &other)),
        }
    }

    fn add_selection(&mut self, table: &str, column: &str, value: Value, doi: f64) -> Result<()> {
        self.mutate(ProfileOp::AddSelection {
            table: table.to_string(),
            column: column.to_string(),
            value,
            doi,
        })
        .map(|_| ())
    }

    fn add_join(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
        doi: f64,
    ) -> Result<()> {
        self.mutate(ProfileOp::AddJoin {
            from_table: from_table.to_string(),
            from_column: from_column.to_string(),
            to_table: to_table.to_string(),
            to_column: to_column.to_string(),
            doi,
        })
        .map(|_| ())
    }

    fn remove_profile(&mut self) -> Result<bool> {
        self.mutate(ProfileOp::Remove).map(|(_, removed)| removed)
    }
}

/// Open a socket to `addr`, send `hello` and read the answer.
fn handshake(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
    hello: &Request,
) -> Result<(TcpStream, Response)> {
    let mut stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_read_timeout(config.read_timeout).map_err(io_err)?;
    stream.set_write_timeout(config.write_timeout).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    let (tag, payload) = hello.encode();
    write_frame(&mut stream, tag, &payload).map_err(io_err)?;
    let answer = recv_on(&mut stream)?;
    Ok((stream, answer))
}

fn recv_on(reader: &mut TcpStream) -> Result<Response> {
    let (tag, payload) = read_frame(reader, MAX_FRAME_LEN).map_err(frame_err)?;
    Response::decode(tag, &payload).map_err(|e| Error::Protocol(format!("bad response frame: {e}")))
}

fn io_err(e: std::io::Error) -> Error {
    Error::Io(e.to_string())
}

fn frame_err(e: FrameError) -> Error {
    match e {
        FrameError::Closed => Error::Io("server closed the connection".to_string()),
        FrameError::Io(e) => Error::Io(e.to_string()),
        e @ (FrameError::Oversized { .. } | FrameError::Empty) => Error::Protocol(e.to_string()),
    }
}

fn unexpected(req: &Request, resp: &Response) -> Error {
    let (req_tag, _) = req.encode();
    let (resp_tag, _) = resp.encode();
    Error::Protocol(format!(
        "unexpected response tag {resp_tag:#04x} to request tag {req_tag:#04x}"
    ))
}
