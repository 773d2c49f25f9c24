//! # pqp-storage
//!
//! The storage substrate of the `pqp` workspace: an in-memory relational
//! store with a value model, table schemas carrying key/foreign-key metadata,
//! tables stored as typed column chunks, hash indexes, the executor's key
//! hasher ([`KeyState`]) and a catalog.
//!
//! The paper's prototype ran on Oracle 9i; this crate (together with
//! `pqp-engine`) is the from-scratch substitute. Base tables live in memory
//! only, so rows are never encoded: a table keeps the typed columns its
//! scan filters (only the profile WAL is persisted). Beyond plain storage it
//! exposes the one piece of metadata the personalization model needs from the
//! database: the **schema graph** with per-direction join *cardinalities*
//! ([`Catalog::schema_joins`]), which drive conflict detection and
//! tuple-variable allocation in `pqp-core`.
//!
//! ```
//! use pqp_storage::{Catalog, ColumnDef, DataType, TableSchema, Value};
//!
//! let mut catalog = Catalog::new();
//! catalog
//!     .create_table(
//!         TableSchema::new(
//!             "GENRE",
//!             vec![
//!                 ColumnDef::new("mid", DataType::Int),
//!                 ColumnDef::new("genre", DataType::Str),
//!             ],
//!         )
//!         .with_primary_key(&["mid", "genre"]),
//!     )
//!     .unwrap();
//!
//! let genre = catalog.table("GENRE").unwrap();
//! {
//!     let mut genre = genre.write();
//!     genre.insert(vec![1.into(), "comedy".into()]).unwrap();
//!     genre.insert(vec![1.into(), "drama".into()]).unwrap();
//!     // The primary key is enforced at insert time.
//!     assert!(genre.insert(vec![1.into(), "comedy".into()]).is_err());
//! }
//!
//! let genre = genre.read();
//! assert_eq!(genre.len(), 2);
//! assert_eq!(genre.scan()[0], vec![Value::Int(1), Value::str("comedy")]);
//! ```

pub mod batch;
pub mod catalog;
pub mod error;
pub mod hash;
pub mod index;
pub mod row;
pub mod schema;
pub mod shard;
pub mod stats;
pub mod sync;
pub mod table;
pub mod value;
pub mod wal;

pub use batch::{Batch, Column, BATCH_SIZE};
pub use catalog::{Catalog, SchemaJoin, TableRef};
pub use error::{Result, StorageError};
pub use hash::{KeyHasher, KeyState, PreHashed};
pub use index::HashIndex;
pub use row::Row;
pub use schema::{Cardinality, ColumnDef, ColumnSet, ForeignKey, TableSchema};
pub use shard::ShardedMap;
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::Table;
pub use value::{DataType, Value};
pub use wal::{Wal, WalRecord, WalRecovery, WalSnapshot};
