//! Error type shared by the storage layer.

use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// No table with this name exists in the catalog.
    UnknownTable(String),
    /// No column with this name exists in the referenced table.
    UnknownColumn { table: String, column: String },
    /// A row's arity does not match the table schema.
    ArityMismatch { table: String, expected: usize, got: usize },
    /// A value's type does not match the column type.
    TypeMismatch { table: String, column: String, expected: String, got: String },
    /// A NULL was inserted into a non-nullable column.
    NullViolation { table: String, column: String },
    /// A row violates a uniqueness constraint (primary key).
    DuplicateKey { table: String },
    /// A foreign-key declaration references a missing table or column.
    InvalidForeignKey(String),
    /// Stored data failed a consistency check (a WAL record or snapshot),
    /// or a table ran out of row ordinals, or a `storage.scan` fault was
    /// injected.
    Corrupt(String),
    /// A filesystem operation failed (WAL append/sync, snapshot install).
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(t) => write!(f, "table `{t}` already exists"),
            StorageError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            StorageError::ArityMismatch { table, expected, got } => {
                write!(f, "row arity mismatch in `{table}`: expected {expected} values, got {got}")
            }
            StorageError::TypeMismatch { table, column, expected, got } => {
                write!(f, "type mismatch for `{table}.{column}`: expected {expected}, got {got}")
            }
            StorageError::NullViolation { table, column } => {
                write!(f, "NULL in non-nullable column `{table}.{column}`")
            }
            StorageError::DuplicateKey { table } => {
                write!(f, "duplicate primary key in table `{table}`")
            }
            StorageError::InvalidForeignKey(msg) => write!(f, "invalid foreign key: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::Io(msg) => write!(f, "storage i/o failed: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias used across the storage layer.
pub type Result<T> = std::result::Result<T, StorageError>;
