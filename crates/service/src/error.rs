//! The unified error type of the serving layer — one `Result<_, Error>` for
//! the whole parse → personalize → integrate → plan → execute pipeline —
//! plus its stable wire representation ([`ErrorCode`]).

use pqp_core::PrefError;
use pqp_engine::EngineError;
use pqp_obs::BudgetExceeded;
use pqp_sql::ParseError;
use pqp_storage::StorageError;
use std::fmt;

/// Any failure of the personalization pipeline, wrapping the per-crate
/// errors with [`From`] impls so `?` composes across layers.
///
/// The wrapped error is reachable through
/// [`source`](std::error::Error::source), so callers can walk the chain or
/// match on the layer that failed.
///
/// Every variant maps to a stable, numeric [`ErrorCode`] ([`Error::code`])
/// carried verbatim through the wire protocol; [`Error::kind`] is the
/// code's lowercase label. Errors received over the wire decode as
/// [`Error::Remote`] (or the real variant where the code carries enough
/// structure, e.g. [`Error::Overloaded`]), preserving the code — and thus
/// the `kind()` — exactly.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The SQL text did not parse.
    Parse(ParseError),
    /// Preference selection or integration failed.
    Personalize(PrefError),
    /// Planning or execution failed.
    Engine(EngineError),
    /// The storage layer failed.
    Storage(StorageError),
    /// The query governor's budget (deadline, rows scanned, memory) tripped
    /// and degradation could not bring the query under it. Carries the
    /// partial-progress counters at the moment of the trip.
    BudgetExceeded(BudgetExceeded),
    /// The service refused admission: too many queries already in flight.
    /// Retry later; nothing was executed.
    Overloaded {
        /// Queries in flight when admission was refused.
        in_flight: usize,
        /// The configured admission limit.
        max: usize,
    },
    /// An invariant was violated — the pipeline panicked, a failpoint fired,
    /// or an internal bug surfaced. The failure is isolated to this query; the
    /// service keeps serving.
    Internal(String),
    /// A transport failure: the connection to (or from) a remote peer broke
    /// mid-exchange. Whether the in-flight request took effect is unknown.
    Io(String),
    /// The peer violated the wire protocol: malformed or oversized frame,
    /// unsupported protocol version, or a message out of sequence.
    Protocol(String),
    /// The node cannot serve the request right now for replication
    /// reasons: it is not the leader, it has been fenced by a higher
    /// term, or a mutation could not reach the configured ack quorum.
    /// The message names the reason; retry against the current leader.
    Unavailable(String),
    /// An error reported by a remote server, reconstructed from its wire
    /// code and message. `kind()` matches what the server would have
    /// reported locally; the structured payload is not preserved.
    Remote {
        /// The wire code the server sent.
        code: ErrorCode,
        /// The server's rendered error message.
        message: String,
    },
}

/// The stable, numeric wire code of an [`Error`] — the unit of error
/// compatibility across protocol versions.
///
/// Codes are append-only: a code, once assigned, never changes meaning and
/// is never reused. Messages change freely; codes and labels do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u16)]
pub enum ErrorCode {
    /// The SQL text did not parse.
    Parse = 1,
    /// Preference selection or integration failed.
    Personalize = 2,
    /// Planning or execution failed.
    Engine = 3,
    /// The storage layer failed.
    Storage = 4,
    /// A query-governor budget tripped.
    Budget = 5,
    /// Admission refused: too many queries in flight.
    Overloaded = 6,
    /// An isolated internal failure (panic, failpoint, bug).
    Internal = 7,
    /// A transport (connection) failure.
    Io = 8,
    /// A wire-protocol violation.
    Protocol = 9,
    /// The node cannot serve this request: not the leader, fenced by a
    /// higher term, or replication quorum not reached.
    Unavailable = 10,
}

impl ErrorCode {
    /// Every assigned code, in numeric order.
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::Parse,
        ErrorCode::Personalize,
        ErrorCode::Engine,
        ErrorCode::Storage,
        ErrorCode::Budget,
        ErrorCode::Overloaded,
        ErrorCode::Internal,
        ErrorCode::Io,
        ErrorCode::Protocol,
        ErrorCode::Unavailable,
    ];

    /// The numeric code carried on the wire.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decode a wire code (`None` for codes this build does not know —
    /// a newer peer; callers should degrade to [`ErrorCode::Internal`]).
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        ErrorCode::ALL.iter().copied().find(|c| c.as_u16() == code)
    }

    /// The stable, lowercase label — what [`Error::kind`] reports and what
    /// the query log's `error_kind` column records.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Personalize => "personalize",
            ErrorCode::Engine => "engine",
            ErrorCode::Storage => "storage",
            ErrorCode::Budget => "budget",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::Io => "io",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Unavailable => "unavailable",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.label(), self.as_u16())
    }
}

impl Error {
    /// The stable wire code of this error (see [`ErrorCode`]).
    pub fn code(&self) -> ErrorCode {
        match self {
            Error::Parse(_) => ErrorCode::Parse,
            Error::Personalize(_) => ErrorCode::Personalize,
            Error::Engine(_) => ErrorCode::Engine,
            Error::Storage(_) => ErrorCode::Storage,
            Error::BudgetExceeded(_) => ErrorCode::Budget,
            Error::Overloaded { .. } => ErrorCode::Overloaded,
            Error::Internal(_) => ErrorCode::Internal,
            Error::Io(_) => ErrorCode::Io,
            Error::Protocol(_) => ErrorCode::Protocol,
            Error::Unavailable(_) => ErrorCode::Unavailable,
            Error::Remote { code, .. } => *code,
        }
    }

    /// A stable, lowercase label of the failing layer, used by the query
    /// log and its JSON sink (`error_kind`). Messages change; kinds do not.
    /// Always equal to `self.code().label()`.
    pub fn kind(&self) -> &'static str {
        self.code().label()
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse failed: {e}"),
            Error::Personalize(e) => write!(f, "personalization failed: {e}"),
            Error::Engine(e) => write!(f, "query engine failed: {e}"),
            Error::Storage(e) => write!(f, "storage failed: {e}"),
            Error::BudgetExceeded(b) => write!(f, "{b}"),
            Error::Overloaded { in_flight, max } => {
                write!(f, "service overloaded: {in_flight} queries in flight (limit {max})")
            }
            Error::Internal(m) => write!(f, "internal error: {m}"),
            Error::Io(m) => write!(f, "i/o failed: {m}"),
            Error::Protocol(m) => write!(f, "protocol violation: {m}"),
            Error::Unavailable(m) => write!(f, "service unavailable: {m}"),
            Error::Remote { code, message } => {
                write!(f, "remote error [{}]: {message}", code.label())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Personalize(e) => Some(e),
            Error::Engine(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::BudgetExceeded(b) => Some(b),
            Error::Overloaded { .. }
            | Error::Internal(_)
            | Error::Io(_)
            | Error::Protocol(_)
            | Error::Unavailable(_)
            | Error::Remote { .. } => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Error {
        Error::Parse(e)
    }
}

impl From<PrefError> for Error {
    fn from(e: PrefError) -> Error {
        match e {
            PrefError::Budget(b) => Error::BudgetExceeded(b),
            PrefError::Internal(m) => Error::Internal(m),
            other => Error::Personalize(other),
        }
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Error {
        match e {
            EngineError::Budget(b) => Error::BudgetExceeded(b),
            EngineError::Internal(m) => Error::Internal(m),
            other => Error::Engine(other),
        }
    }
}

impl From<BudgetExceeded> for Error {
    fn from(b: BudgetExceeded) -> Error {
        Error::BudgetExceeded(b)
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Error {
        Error::Storage(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e.to_string())
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    /// One representative error per variant this build knows about.
    fn representatives() -> Vec<Error> {
        vec![
            Error::from(pqp_sql::parse_query("select from").unwrap_err()),
            Error::Personalize(PrefError::InvalidDegree(2.0)),
            Error::Engine(EngineError::Exec("boom".into())),
            Error::Storage(StorageError::UnknownTable("T".into())),
            Error::BudgetExceeded(
                pqp_obs::QueryCtx::unlimited().exceeded(pqp_obs::BudgetReason::Deadline),
            ),
            Error::Overloaded { in_flight: 8, max: 8 },
            Error::Internal("invariant".into()),
            Error::Io("connection reset".into()),
            Error::Protocol("frame too short".into()),
            Error::Unavailable("not the leader (term 3)".into()),
        ]
    }

    #[test]
    fn wraps_every_layer_with_source_chains() {
        let parse = pqp_sql::parse_query("select from").unwrap_err();
        let e = Error::from(parse.clone());
        assert!(matches!(e, Error::Parse(_)));
        assert_eq!(e.source().unwrap().to_string(), parse.to_string());

        let pref = PrefError::InvalidDegree(2.0);
        let e = Error::from(pref.clone());
        assert!(e.to_string().contains("personalization failed"));
        assert_eq!(e.source().unwrap().to_string(), pref.to_string());

        let eng = EngineError::Exec("boom".into());
        assert!(matches!(Error::from(eng), Error::Engine(_)));

        let sto = StorageError::UnknownTable("T".into());
        let e = Error::from(sto);
        assert!(e.source().is_some());
    }

    #[test]
    fn budget_and_internal_variants_remap_across_layers() {
        let b = pqp_obs::QueryCtx::unlimited().exceeded(pqp_obs::BudgetReason::Deadline);
        assert!(matches!(Error::from(EngineError::Budget(b)), Error::BudgetExceeded(_)));
        assert!(matches!(Error::from(PrefError::Budget(b)), Error::BudgetExceeded(_)));
        assert!(matches!(Error::from(EngineError::Internal("x".into())), Error::Internal(_)));
        assert!(matches!(Error::from(PrefError::Internal("x".into())), Error::Internal(_)));
        let e = Error::from(b);
        assert!(e.source().is_some(), "budget errors keep their source chain");
        let overloaded = Error::Overloaded { in_flight: 8, max: 8 };
        assert!(overloaded.to_string().contains("overloaded"));
        assert!(overloaded.source().is_none());
    }

    #[test]
    fn question_mark_composes_across_layers() {
        fn run() -> Result<()> {
            let _q = pqp_sql::parse_query("select MV.title from")?;
            Ok(())
        }
        assert!(matches!(run(), Err(Error::Parse(_))));
    }

    #[test]
    fn every_code_round_trips_through_u16() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(u16::MAX), None, "unassigned codes stay unknown");
        // Codes are unique (append-only space, no reuse).
        let mut seen: Vec<u16> = ErrorCode::ALL.iter().map(|c| c.as_u16()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ErrorCode::ALL.len());
    }

    #[test]
    fn every_variant_maps_and_decodes_to_the_same_kind() {
        // The wire contract: encoding an error as (code, message) and
        // decoding it back as `Error::Remote` preserves `kind()` exactly.
        for original in representatives() {
            let code = original.code();
            assert_eq!(original.kind(), code.label(), "kind is derived from the code");
            let decoded = Error::Remote { code, message: original.to_string() };
            assert_eq!(decoded.kind(), original.kind(), "round-trip keeps the kind");
            assert_eq!(decoded.code(), code, "round-trip keeps the code");
        }
        // Every assigned code is reachable from some local variant above,
        // so the representative set and the code space stay in sync.
        let covered: std::collections::HashSet<u16> =
            representatives().iter().map(|e| e.code().as_u16()).collect();
        for code in ErrorCode::ALL {
            assert!(
                covered.contains(&code.as_u16()),
                "code {code} has no local representative in this test"
            );
        }
    }

    #[test]
    fn kind_labels_are_stable() {
        // Renaming a label is a wire-compatibility break: the query log's
        // `error_kind` column and remote decoders both key on it.
        let labels: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "parse",
                "personalize",
                "engine",
                "storage",
                "budget",
                "overloaded",
                "internal",
                "io",
                "protocol",
                "unavailable"
            ]
        );
    }
}
