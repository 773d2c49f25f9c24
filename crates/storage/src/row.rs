//! The materialized row: what operators pass between them.

use crate::value::Value;

/// A materialized row.
pub type Row = Vec<Value>;
