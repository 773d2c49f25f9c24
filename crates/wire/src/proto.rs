//! The protocol vocabulary: request/response messages and the encoding of
//! every type that crosses the wire (values, rows, personalization options,
//! answer metadata, errors).
//!
//! Tags and discriminants are **append-only** — a value, once assigned,
//! never changes meaning and is never reused (see the crate docs for the
//! versioning rules).

use crate::codec::{DecodeError, Reader, Result, Writer};
use pqp_core::{InterestCriterion, MandatorySpec, MatchSpec, PersonalizeOptions, Rewrite};
use pqp_engine::ResultSet;
use pqp_service::{Answer, AnswerMeta, CacheOutcome, DegradeLevel, Error, ErrorCode};
use pqp_storage::Value;

/// Message tags. Requests sit below `0x80`, responses above.
pub mod tag {
    /// Client → server: handshake (protocol version + user id).
    pub const HELLO: u8 = 0x01;
    /// Client → server: run one personalized query.
    pub const QUERY: u8 = 0x02;
    /// Client → server: parse + validate, warm the prepared cache.
    pub const PREPARE: u8 = 0x03;
    /// Client → server: mutate this session's profile.
    pub const MUTATE: u8 = 0x04;
    /// Client → server: introspection (`SHOW …`).
    pub const SHOW: u8 = 0x05;
    /// Client → server: orderly goodbye.
    pub const CLOSE: u8 = 0x06;
    /// Server → client: handshake accepted.
    pub const HELLO_OK: u8 = 0x81;
    /// Server → client: result frame (schema + rows + telemetry tail).
    pub const ANSWER: u8 = 0x82;
    /// Server → client: prepare succeeded (canonical SQL).
    pub const PREPARE_OK: u8 = 0x83;
    /// Server → client: profile mutation applied (new epoch).
    pub const MUTATE_OK: u8 = 0x84;
    /// Server → client: typed error (code + message + detail words).
    pub const ERROR: u8 = 0x85;
    /// Server → client: goodbye acknowledged; the server closes after it.
    pub const BYE: u8 = 0x86;
    /// Router → client: the handshake belongs at another address (the
    /// current leader); the router closes after it.
    pub const REDIRECT: u8 = 0x87;
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The handshake: must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        version: u16,
        /// The user this session acts as (non-empty).
        user: String,
    },
    /// Run one personalized query. `options`/`rewrite` override the
    /// server's session defaults when present.
    Query {
        /// The SQL text.
        sql: String,
        /// Personalization options override.
        options: Option<PersonalizeOptions>,
        /// Rewrite override.
        rewrite: Option<Rewrite>,
    },
    /// Parse + validate without executing; warms the prepared cache.
    Prepare {
        /// The SQL text.
        sql: String,
    },
    /// Mutate this session's profile.
    Mutate(ProfileOp),
    /// Introspection over live telemetry.
    Show(ShowRequest),
    /// Orderly shutdown of this session.
    Close,
}

/// A profile mutation carried by [`Request::Mutate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileOp {
    /// Add (or update) a selection preference.
    AddSelection {
        /// Table the preference selects on.
        table: String,
        /// Column within the table.
        column: String,
        /// The preferred value.
        value: Value,
        /// Degree of interest in `[0, 1]`.
        doi: f64,
    },
    /// Add (or update) a directed join preference.
    AddJoin {
        /// Join source table.
        from_table: String,
        /// Join source column.
        from_column: String,
        /// Join target table.
        to_table: String,
        /// Join target column.
        to_column: String,
        /// Degree of interest in `[0, 1]`.
        doi: f64,
    },
    /// Remove the profile entirely (queries run unpersonalized after).
    Remove,
}

/// Which introspection table a [`Request::Show`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowRequest {
    /// `SHOW METRICS`.
    Metrics,
    /// `SHOW QUERIES [LIMIT n]`.
    Queries {
        /// Bound on returned entries (server default when `None`).
        limit: Option<u64>,
    },
    /// `SHOW CACHES`.
    Caches,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The version the server speaks (equals the client's on success).
        version: u16,
        /// Human-readable server identification.
        server: String,
    },
    /// A result frame: schema + rows + the [`AnswerMeta`] telemetry tail.
    Answer(Answer),
    /// Prepare succeeded.
    PrepareOk {
        /// The canonical SQL text (the plan-cache key component).
        canonical: String,
    },
    /// Profile mutation applied.
    MutateOk {
        /// The user's invalidation epoch after the mutation (0 = no
        /// profile stored).
        epoch: u64,
        /// For [`ProfileOp::Remove`]: whether a profile was stored.
        /// Always `true` for adds.
        removed: bool,
    },
    /// A typed error. The request it answers failed; the session survives
    /// unless the error is a protocol violation.
    Error(WireError),
    /// Goodbye acknowledged.
    Bye,
    /// The answer to a `Hello` sent to a router: repeat the handshake at
    /// `addr`. The router closes after it.
    Redirect {
        /// The address to connect to (`host:port`).
        addr: String,
    },
}

/// The wire form of an [`Error`]: a stable numeric code, a rendered
/// message, and two code-specific detail words (for
/// [`ErrorCode::Overloaded`]: queries in flight, admission limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The [`ErrorCode`] as `u16` (kept raw so unknown codes from newer
    /// peers survive transit).
    pub code: u16,
    /// The rendered error message.
    pub message: String,
    /// Code-specific numeric details (zeroed when unused).
    pub detail: [u64; 2],
}

impl WireError {
    /// Encode a service error for the wire.
    pub fn from_error(e: &Error) -> WireError {
        let detail = match e {
            Error::Overloaded { in_flight, max } => [*in_flight as u64, *max as u64],
            Error::BudgetExceeded(b) => [b.rows_scanned, b.mem_bytes],
            _ => [0, 0],
        };
        WireError { code: e.code().as_u16(), message: e.to_string(), detail }
    }

    /// Build a protocol-violation error (handshake failures, malformed
    /// frames) without going through a service [`Error`] first.
    pub fn protocol(message: impl Into<String>) -> WireError {
        WireError { code: ErrorCode::Protocol.as_u16(), message: message.into(), detail: [0, 0] }
    }

    /// Decode back into a service [`Error`], preserving the code — and
    /// thus `kind()` — exactly. Codes with enough structure on the wire
    /// reconstruct the real variant ([`Error::Overloaded`]); everything
    /// else becomes [`Error::Remote`]. Codes this build does not know
    /// degrade to [`ErrorCode::Internal`] with the original code noted.
    pub fn into_error(self) -> Error {
        match ErrorCode::from_u16(self.code) {
            Some(ErrorCode::Overloaded) => Error::Overloaded {
                in_flight: self.detail[0] as usize,
                max: self.detail[1] as usize,
            },
            Some(code) => Error::Remote { code, message: self.message },
            None => Error::Remote {
                code: ErrorCode::Internal,
                message: format!("unknown wire error code {}: {}", self.code, self.message),
            },
        }
    }
}

// ---- scalar encodings ------------------------------------------------------

fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => {
            w.u8(0);
        }
        Value::Bool(b) => {
            w.u8(1).bool(*b);
        }
        Value::Int(i) => {
            w.u8(2).i64(*i);
        }
        Value::Float(f) => {
            w.u8(3).f64(*f);
        }
        Value::Str(s) => {
            w.u8(4).str(s);
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8("value tag")? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(r.bool("bool value")?)),
        2 => Ok(Value::Int(r.i64("int value")?)),
        3 => Ok(Value::Float(r.f64("float value")?)),
        4 => Ok(Value::str(r.str_ref("str value")?)),
        tag => Err(DecodeError::BadTag { what: "value", tag: tag as u64 }),
    }
}

pub(crate) fn encode_profile_op(w: &mut Writer, op: &ProfileOp) {
    match op {
        ProfileOp::AddSelection { table, column, value, doi } => {
            w.u8(0).str(table).str(column);
            encode_value(w, value);
            w.f64(*doi);
        }
        ProfileOp::AddJoin { from_table, from_column, to_table, to_column, doi } => {
            w.u8(1).str(from_table).str(from_column).str(to_table).str(to_column).f64(*doi);
        }
        ProfileOp::Remove => {
            w.u8(2);
        }
    }
}

pub(crate) fn decode_profile_op(r: &mut Reader<'_>) -> Result<ProfileOp> {
    Ok(match r.u8("profile op tag")? {
        0 => ProfileOp::AddSelection {
            table: r.str("table")?,
            column: r.str("column")?,
            value: decode_value(r)?,
            doi: r.f64("doi")?,
        },
        1 => ProfileOp::AddJoin {
            from_table: r.str("from table")?,
            from_column: r.str("from column")?,
            to_table: r.str("to table")?,
            to_column: r.str("to column")?,
            doi: r.f64("doi")?,
        },
        2 => ProfileOp::Remove,
        tag => return Err(DecodeError::BadTag { what: "profile op", tag: tag as u64 }),
    })
}

fn rewrite_to_u8(rw: Rewrite) -> u8 {
    match rw {
        Rewrite::Original => 0,
        Rewrite::Sq => 1,
        Rewrite::Mq => 2,
        Rewrite::NativeRank => 3,
        Rewrite::Auto => 4,
        // `Rewrite` is #[non_exhaustive]; a new variant must be assigned a
        // wire discriminant here before it can cross the wire.
        _ => unreachable!("Rewrite variant without a wire discriminant"),
    }
}

fn rewrite_from_u8(tag: u8) -> Result<Rewrite> {
    match tag {
        0 => Ok(Rewrite::Original),
        1 => Ok(Rewrite::Sq),
        2 => Ok(Rewrite::Mq),
        3 => Ok(Rewrite::NativeRank),
        4 => Ok(Rewrite::Auto),
        tag => Err(DecodeError::BadTag { what: "rewrite", tag: tag as u64 }),
    }
}

fn degrade_to_u8(d: DegradeLevel) -> u8 {
    match d {
        DegradeLevel::None => 0,
        DegradeLevel::ReducedK => 1,
        DegradeLevel::MandatoryOnly => 2,
        DegradeLevel::Unpersonalized => 3,
        // Appended after the original four: wire discriminants are
        // append-only, so the new rung cannot renumber its neighbours.
        DegradeLevel::NativeReducedK => 4,
    }
}

fn degrade_from_u8(tag: u8) -> Result<DegradeLevel> {
    match tag {
        0 => Ok(DegradeLevel::None),
        1 => Ok(DegradeLevel::ReducedK),
        2 => Ok(DegradeLevel::MandatoryOnly),
        3 => Ok(DegradeLevel::Unpersonalized),
        4 => Ok(DegradeLevel::NativeReducedK),
        tag => Err(DecodeError::BadTag { what: "degrade level", tag: tag as u64 }),
    }
}

fn cache_to_u8(c: CacheOutcome) -> u8 {
    match c {
        CacheOutcome::Hit => 0,
        CacheOutcome::Stale => 1,
        CacheOutcome::Miss => 2,
        CacheOutcome::Bypass => 3,
    }
}

fn cache_from_u8(tag: u8) -> Result<CacheOutcome> {
    match tag {
        0 => Ok(CacheOutcome::Hit),
        1 => Ok(CacheOutcome::Stale),
        2 => Ok(CacheOutcome::Miss),
        3 => Ok(CacheOutcome::Bypass),
        tag => Err(DecodeError::BadTag { what: "cache outcome", tag: tag as u64 }),
    }
}

fn encode_options(w: &mut Writer, o: &PersonalizeOptions) {
    match o.criterion {
        InterestCriterion::TopK(k) => {
            w.u8(0).u64(k as u64);
        }
        InterestCriterion::MinDegree(d) => {
            w.u8(1).f64(d);
        }
        InterestCriterion::DisjunctionAbove(d) => {
            w.u8(2).f64(d);
        }
        InterestCriterion::ConjunctionAbove(d) => {
            w.u8(3).f64(d);
        }
    }
    match o.mandatory {
        MandatorySpec::None => {
            w.u8(0);
        }
        MandatorySpec::Count(m) => {
            w.u8(1).u64(m as u64);
        }
        MandatorySpec::DegreeAtLeast(d) => {
            w.u8(2).f64(d);
        }
    }
    match o.matching {
        MatchSpec::AtLeast(l) => {
            w.u8(0).u64(l as u64);
        }
        MatchSpec::MinDegree(d) => {
            w.u8(1).f64(d);
        }
    }
    w.bool(o.rank);
}

fn decode_options(r: &mut Reader<'_>) -> Result<PersonalizeOptions> {
    let criterion = match r.u8("criterion tag")? {
        0 => InterestCriterion::TopK(r.u64("top-k")? as usize),
        1 => InterestCriterion::MinDegree(r.f64("min degree")?),
        2 => InterestCriterion::DisjunctionAbove(r.f64("disjunction threshold")?),
        3 => InterestCriterion::ConjunctionAbove(r.f64("conjunction threshold")?),
        tag => return Err(DecodeError::BadTag { what: "criterion", tag: tag as u64 }),
    };
    let mandatory = match r.u8("mandatory tag")? {
        0 => MandatorySpec::None,
        1 => MandatorySpec::Count(r.u64("mandatory count")? as usize),
        2 => MandatorySpec::DegreeAtLeast(r.f64("mandatory degree")?),
        tag => return Err(DecodeError::BadTag { what: "mandatory spec", tag: tag as u64 }),
    };
    let matching = match r.u8("matching tag")? {
        0 => MatchSpec::AtLeast(r.u64("at-least-L")? as usize),
        1 => MatchSpec::MinDegree(r.f64("matching degree")?),
        tag => return Err(DecodeError::BadTag { what: "match spec", tag: tag as u64 }),
    };
    let rank = r.bool("rank flag")?;
    let mut opts = PersonalizeOptions::builder()
        .criterion(criterion)
        .mandatory(mandatory)
        .matching(matching)
        .build();
    opts.rank = rank;
    Ok(opts)
}

/// Ceiling on result-set columns (sanity bound, not a protocol limit).
const MAX_COLUMNS: usize = 4096;

fn encode_answer(w: &mut Writer, a: &Answer) {
    w.u32(a.rows.columns.len() as u32);
    for col in &a.rows.columns {
        w.str(col);
    }
    w.u32(a.rows.rows.len() as u32);
    for row in &a.rows.rows {
        for v in row.iter() {
            encode_value(w, v);
        }
    }
    w.u8(rewrite_to_u8(a.meta.rewrite));
    w.u64(a.meta.k as u64);
    w.u64(a.meta.m as u64);
    w.u8(degrade_to_u8(a.meta.degraded));
    w.u8(cache_to_u8(a.meta.cache));
    w.u64(a.meta.rows_scanned);
}

fn decode_answer(r: &mut Reader<'_>) -> Result<Answer> {
    let ncols = r.u32("column count")? as usize;
    if ncols > MAX_COLUMNS {
        return Err(DecodeError::TooLong { what: "columns", len: ncols, max: MAX_COLUMNS });
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(r.str("column name")?);
    }
    let nrows = r.u32("row count")? as usize;
    // Each value is ≥ 1 byte on the wire, so `remaining` bounds the row
    // count a well-formed payload can carry — reject before allocating.
    if ncols > 0 && nrows > r.remaining() {
        return Err(DecodeError::TooLong { what: "rows", len: nrows, max: r.remaining() });
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(decode_value(r)?);
        }
        rows.push(row);
    }
    let rewrite = rewrite_from_u8(r.u8("rewrite")?)?;
    let k = r.u64("k")? as usize;
    let m = r.u64("m")? as usize;
    let degraded = degrade_from_u8(r.u8("degrade level")?)?;
    let cache = cache_from_u8(r.u8("cache outcome")?)?;
    let rows_scanned = r.u64("rows scanned")?;
    Ok(Answer::new(
        ResultSet { columns, rows },
        AnswerMeta { rewrite, k, m, degraded, cache, rows_scanned },
    ))
}

// ---- messages --------------------------------------------------------------

impl Request {
    /// Encode into `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let tag = match self {
            Request::Hello { version, user } => {
                w.u16(*version).str(user);
                tag::HELLO
            }
            Request::Query { sql, options, rewrite } => {
                w.str(sql);
                match options {
                    Some(o) => {
                        w.bool(true);
                        encode_options(&mut w, o);
                    }
                    None => {
                        w.bool(false);
                    }
                }
                match rewrite {
                    Some(rw) => {
                        w.bool(true).u8(rewrite_to_u8(*rw));
                    }
                    None => {
                        w.bool(false);
                    }
                }
                tag::QUERY
            }
            Request::Prepare { sql } => {
                w.str(sql);
                tag::PREPARE
            }
            Request::Mutate(op) => {
                encode_profile_op(&mut w, op);
                tag::MUTATE
            }
            Request::Show(show) => {
                match show {
                    ShowRequest::Metrics => {
                        w.u8(0);
                    }
                    ShowRequest::Queries { limit } => {
                        w.u8(1);
                        match limit {
                            Some(n) => w.bool(true).u64(*n),
                            None => w.bool(false),
                        };
                    }
                    ShowRequest::Caches => {
                        w.u8(2);
                    }
                }
                tag::SHOW
            }
            Request::Close => tag::CLOSE,
        };
        (tag, w.into_vec())
    }

    /// Decode from `(tag, payload)`. The whole payload must be consumed.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let req = match tag {
            tag::HELLO => {
                Request::Hello { version: r.u16("protocol version")?, user: r.str("user id")? }
            }
            tag::QUERY => {
                let sql = r.str("sql")?;
                let options =
                    if r.bool("options flag")? { Some(decode_options(&mut r)?) } else { None };
                let rewrite = if r.bool("rewrite flag")? {
                    Some(rewrite_from_u8(r.u8("rewrite")?)?)
                } else {
                    None
                };
                Request::Query { sql, options, rewrite }
            }
            tag::PREPARE => Request::Prepare { sql: r.str("sql")? },
            tag::MUTATE => Request::Mutate(decode_profile_op(&mut r)?),
            tag::SHOW => Request::Show(match r.u8("show tag")? {
                0 => ShowRequest::Metrics,
                1 => ShowRequest::Queries {
                    limit: if r.bool("limit flag")? { Some(r.u64("limit")?) } else { None },
                },
                2 => ShowRequest::Caches,
                tag => return Err(DecodeError::BadTag { what: "show request", tag: tag as u64 }),
            }),
            tag::CLOSE => Request::Close,
            tag => return Err(DecodeError::BadTag { what: "request", tag: tag as u64 }),
        };
        r.expect_end()?;
        Ok(req)
    }
}

impl Response {
    /// Encode into `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut w = Writer::new();
        let tag = match self {
            Response::HelloOk { version, server } => {
                w.u16(*version).str(server);
                tag::HELLO_OK
            }
            Response::Answer(answer) => {
                encode_answer(&mut w, answer);
                tag::ANSWER
            }
            Response::PrepareOk { canonical } => {
                w.str(canonical);
                tag::PREPARE_OK
            }
            Response::MutateOk { epoch, removed } => {
                w.u64(*epoch).bool(*removed);
                tag::MUTATE_OK
            }
            Response::Error(e) => {
                w.u16(e.code).str(&e.message).u64(e.detail[0]).u64(e.detail[1]);
                tag::ERROR
            }
            Response::Bye => tag::BYE,
            Response::Redirect { addr } => {
                w.str(addr);
                tag::REDIRECT
            }
        };
        (tag, w.into_vec())
    }

    /// Decode from `(tag, payload)`. The whole payload must be consumed.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match tag {
            tag::HELLO_OK => Response::HelloOk {
                version: r.u16("protocol version")?,
                server: r.str("server name")?,
            },
            tag::ANSWER => Response::Answer(decode_answer(&mut r)?),
            tag::PREPARE_OK => Response::PrepareOk { canonical: r.str("canonical sql")? },
            tag::MUTATE_OK => {
                Response::MutateOk { epoch: r.u64("epoch")?, removed: r.bool("removed flag")? }
            }
            tag::ERROR => Response::Error(WireError {
                code: r.u16("error code")?,
                message: r.str("error message")?,
                detail: [r.u64("error detail 0")?, r.u64("error detail 1")?],
            }),
            tag::BYE => Response::Bye,
            tag::REDIRECT => Response::Redirect { addr: r.str("redirect address")? },
            tag => return Err(DecodeError::BadTag { what: "response", tag: tag as u64 }),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let (tag, payload) = req.encode();
        assert_eq!(Request::decode(tag, &payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let (tag, payload) = resp.encode();
        assert_eq!(Response::decode(tag, &payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello { version: 1, user: "julie".into() });
        round_trip_request(Request::Query {
            sql: "select MV.title from MOVIE MV".into(),
            options: None,
            rewrite: None,
        });
        round_trip_request(Request::Query {
            sql: "select MV.title from MOVIE MV".into(),
            options: Some(PersonalizeOptions::builder().k(3).m(1).l(2).build()),
            rewrite: Some(Rewrite::Sq),
        });
        round_trip_request(Request::Query {
            sql: "q".into(),
            options: Some(
                PersonalizeOptions::builder()
                    .criterion(InterestCriterion::ConjunctionAbove(0.75))
                    .mandatory(MandatorySpec::DegreeAtLeast(0.9))
                    .matching(MatchSpec::MinDegree(0.5))
                    .build()
                    .ranked(),
            ),
            rewrite: Some(Rewrite::Original),
        });
        round_trip_request(Request::Query {
            sql: "q".into(),
            options: None,
            rewrite: Some(Rewrite::NativeRank),
        });
        round_trip_request(Request::Query {
            sql: "q".into(),
            options: None,
            rewrite: Some(Rewrite::Auto),
        });
        round_trip_request(Request::Prepare { sql: "select T.x from T".into() });
        round_trip_request(Request::Mutate(ProfileOp::AddSelection {
            table: "GENRE".into(),
            column: "genre".into(),
            value: Value::Str("comedy".into()),
            doi: 0.9,
        }));
        round_trip_request(Request::Mutate(ProfileOp::AddJoin {
            from_table: "MOVIE".into(),
            from_column: "mid".into(),
            to_table: "GENRE".into(),
            to_column: "mid".into(),
            doi: 0.8,
        }));
        round_trip_request(Request::Mutate(ProfileOp::Remove));
        round_trip_request(Request::Show(ShowRequest::Metrics));
        round_trip_request(Request::Show(ShowRequest::Queries { limit: Some(7) }));
        round_trip_request(Request::Show(ShowRequest::Queries { limit: None }));
        round_trip_request(Request::Show(ShowRequest::Caches));
        round_trip_request(Request::Close);
    }

    #[test]
    fn answers_round_trip_with_every_value_type() {
        let answer = Answer::new(
            ResultSet {
                columns: vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
                rows: vec![
                    vec![
                        Value::Null,
                        Value::Bool(true),
                        Value::Int(-7),
                        Value::Float(2.5),
                        Value::Str("x".into()),
                    ],
                    vec![
                        Value::Int(0),
                        Value::Bool(false),
                        Value::Null,
                        Value::Float(f64::MIN),
                        Value::str(""),
                    ],
                ],
            },
            AnswerMeta {
                rewrite: Rewrite::Mq,
                k: 3,
                m: 1,
                degraded: DegradeLevel::ReducedK,
                cache: CacheOutcome::Stale,
                rows_scanned: 12345,
            },
        );
        round_trip_response(Response::Answer(answer));
    }

    #[test]
    fn native_rank_meta_round_trips() {
        let answer = Answer::new(
            ResultSet { columns: vec!["t".into()], rows: vec![vec![Value::Str("x".into())]] },
            AnswerMeta {
                rewrite: Rewrite::NativeRank,
                k: 4,
                m: 1,
                degraded: DegradeLevel::NativeReducedK,
                cache: CacheOutcome::Miss,
                rows_scanned: 9,
            },
        );
        round_trip_response(Response::Answer(answer));
    }

    #[test]
    fn empty_answers_round_trip() {
        let answer = Answer::new(
            ResultSet { columns: vec![], rows: vec![] },
            AnswerMeta {
                rewrite: Rewrite::Original,
                k: 0,
                m: 0,
                degraded: DegradeLevel::None,
                cache: CacheOutcome::Bypass,
                rows_scanned: 0,
            },
        );
        round_trip_response(Response::Answer(answer));
    }

    #[test]
    fn control_responses_round_trip() {
        round_trip_response(Response::HelloOk { version: 1, server: "pqp-server/0.1".into() });
        round_trip_response(Response::PrepareOk { canonical: "SELECT x FROM T".into() });
        round_trip_response(Response::MutateOk { epoch: 42, removed: true });
        round_trip_response(Response::Bye);
        round_trip_response(Response::Redirect { addr: "127.0.0.1:5433".into() });
        round_trip_response(Response::Error(WireError {
            code: 6,
            message: "overloaded".into(),
            detail: [8, 8],
        }));
    }

    #[test]
    fn every_error_code_round_trips_to_the_same_kind() {
        // The satellite contract: encode → decode preserves kind() for
        // every assigned code, and Overloaded reconstructs structurally.
        let representatives = vec![
            pqp_sql::parse_query("select from").map(|_| ()).map_err(Error::from).unwrap_err(),
            Error::Personalize(pqp_core::PrefError::InvalidDegree(7.0)),
            Error::Engine(pqp_engine::EngineError::Exec("x".into())),
            Error::Storage(pqp_storage::StorageError::UnknownTable("T".into())),
            Error::BudgetExceeded(
                pqp_obs::QueryCtx::unlimited().exceeded(pqp_obs::BudgetReason::Deadline),
            ),
            Error::Overloaded { in_flight: 9, max: 4 },
            Error::Internal("boom".into()),
            Error::Io("reset".into()),
            Error::Protocol("bad frame".into()),
            Error::Unavailable("not the leader (term 4)".into()),
        ];
        let mut covered = std::collections::HashSet::new();
        for original in representatives {
            let wire = WireError::from_error(&original);
            let (tag, payload) = Response::Error(wire).encode();
            let Response::Error(decoded) = Response::decode(tag, &payload).unwrap() else {
                panic!("error frame decoded as non-error");
            };
            let back = decoded.into_error();
            assert_eq!(back.kind(), original.kind(), "kind survives the wire");
            assert_eq!(back.code(), original.code(), "code survives the wire");
            covered.insert(original.code().as_u16());
        }
        for code in ErrorCode::ALL {
            assert!(covered.contains(&code.as_u16()), "code {code} untested");
        }
    }

    #[test]
    fn overloaded_reconstructs_structurally() {
        let original = Error::Overloaded { in_flight: 31, max: 16 };
        let back = WireError::from_error(&original).into_error();
        assert_eq!(back, original);
    }

    #[test]
    fn unknown_error_codes_degrade_to_internal() {
        let wire = WireError { code: 60000, message: "from the future".into(), detail: [0, 0] };
        let e = wire.into_error();
        assert_eq!(e.kind(), "internal");
        assert!(e.to_string().contains("60000"));
    }

    #[test]
    fn malformed_payloads_decode_to_typed_errors() {
        // Unknown request tag.
        assert!(matches!(
            Request::decode(0x7F, &[]),
            Err(DecodeError::BadTag { what: "request", .. })
        ));
        // Truncated handshake.
        assert!(matches!(Request::decode(tag::HELLO, &[0x00]), Err(DecodeError::Truncated { .. })));
        // Trailing garbage after a well-formed message.
        let (tag, mut payload) = Request::Close.encode();
        payload.push(0xAA);
        assert!(matches!(Request::decode(tag, &payload), Err(DecodeError::Trailing { .. })));
        // Absurd row count (longer than the payload can carry).
        let mut w = Writer::new();
        w.u32(1).str("c").u32(u32::MAX);
        assert!(matches!(
            Response::decode(tag::ANSWER, &w.into_vec()),
            Err(DecodeError::TooLong { what: "rows", .. })
        ));
        // Bad value tag inside a row.
        let mut w = Writer::new();
        w.u32(1).str("c").u32(1).u8(99);
        assert!(matches!(
            Response::decode(tag::ANSWER, &w.into_vec()),
            Err(DecodeError::BadTag { what: "value", .. })
        ));
    }
}
