//! Engine error type.

use pqp_obs::BudgetExceeded;
use pqp_sql::ParseError;
use pqp_storage::StorageError;
use std::fmt;

/// Errors raised while planning or executing a query.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// Lexer/parser failure.
    Parse(ParseError),
    /// Storage-layer failure.
    Storage(StorageError),
    /// Name resolution / semantic analysis failure.
    Bind(String),
    /// Runtime evaluation failure.
    Exec(String),
    /// The query's [`pqp_obs::Budget`] was exceeded (deadline, rows-scanned
    /// or memory cap, or cooperative cancellation) — carries
    /// partial-progress counters.
    Budget(BudgetExceeded),
    /// An invariant violation inside the engine, or an injected failpoint
    /// fault. The query fails; the process (and other queries) keep going.
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Storage(e) => write!(f, "{e}"),
            EngineError::Bind(m) => write!(f, "bind error: {m}"),
            EngineError::Exec(m) => write!(f, "execution error: {m}"),
            EngineError::Budget(e) => write!(f, "{e}"),
            EngineError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            EngineError::Budget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<BudgetExceeded> for EngineError {
    fn from(e: BudgetExceeded) -> Self {
        EngineError::Budget(e)
    }
}

/// Result alias for the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Shorthand constructor for bind errors.
pub fn bind_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(EngineError::Bind(msg.into()))
}

/// Shorthand constructor for execution errors.
pub fn exec_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(EngineError::Exec(msg.into()))
}
