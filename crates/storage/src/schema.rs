//! Table schemas, key constraints and join-cardinality metadata.
//!
//! The personalization layer needs one piece of information beyond what a
//! plain schema graph offers: for every join edge, whether following it in a
//! given direction is *to-one* or *to-many* (paper §5/§6 use this both for
//! conflict detection and for tuple-variable allocation). That information is
//! derived here from primary keys, unique constraints and foreign keys.

use crate::error::{Result, StorageError};
use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Interned once here: every plan that names the column shares this
    /// allocation instead of copying the text.
    pub name: Arc<str>,
    pub ty: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    /// A non-nullable column.
    pub fn new(name: impl Into<Arc<str>>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into(), ty, nullable: false }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<Arc<str>>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into(), ty, nullable: true }
    }
}

/// A foreign-key constraint: `columns` of this table reference
/// `parent_columns` of `parent_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<String>,
    pub parent_table: String,
    pub parent_columns: Vec<String>,
}

/// Cardinality of following a join edge in a particular direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cardinality {
    /// Each row on the near side matches at most one row on the far side
    /// (the far-side join columns are a key).
    ToOne,
    /// Each row on the near side may match many rows on the far side.
    ToMany,
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cardinality::ToOne => write!(f, "to-one"),
            Cardinality::ToMany => write!(f, "to-many"),
        }
    }
}

/// A set of a table's column positions, held inline in one word: bit `c`
/// stands for column `c`, and the last bit for every column from 63 on, so
/// a set over a wider table names those columns all together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ColumnSet(u64);

impl ColumnSet {
    /// Every column of any table.
    pub const ALL: ColumnSet = ColumnSet(u64::MAX);
    /// No column.
    pub const EMPTY: ColumnSet = ColumnSet(0);

    fn bit(c: usize) -> u64 {
        1 << c.min(63)
    }

    /// Add column `c`.
    pub fn insert(&mut self, c: usize) {
        self.0 |= Self::bit(c);
    }

    /// Whether column `c` is in the set.
    pub fn contains(self, c: usize) -> bool {
        self.0 & Self::bit(c) != 0
    }

    /// The set's columns of a table of `arity` columns, ascending.
    pub fn iter(self, arity: usize) -> impl Iterator<Item = usize> {
        (0..arity).filter(move |&c| self.contains(c))
    }

    /// How many of a table's `arity` columns are in the set.
    pub fn len(self, arity: usize) -> usize {
        let low = arity.min(63);
        let below = (self.0 & ((1u64 << low) - 1)).count_ones() as usize;
        below + if self.contains(63) { arity - low } else { 0 }
    }

    /// Where column `c` sits in a row holding only the set's columns.
    pub fn position(self, c: usize) -> Option<usize> {
        let low = c.min(63);
        self.contains(c).then(|| (self.0 & ((1u64 << low) - 1)).count_ones() as usize + c - low)
    }
}

/// Schema of a single table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Interned like [`ColumnDef::name`].
    pub name: Arc<str>,
    pub columns: Vec<ColumnDef>,
    /// Column positions forming the primary key (may be empty).
    pub primary_key: Vec<usize>,
    /// Extra unique constraints, each a set of column positions.
    pub unique: Vec<Vec<usize>>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// Create a schema with the given columns and no keys.
    pub fn new(name: impl Into<Arc<str>>, columns: Vec<ColumnDef>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns,
            primary_key: Vec::new(),
            unique: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Builder-style: set the primary key by column name.
    pub fn with_primary_key(mut self, cols: &[&str]) -> TableSchema {
        self.primary_key = cols
            .iter()
            .map(|c| {
                self.column_index(c).unwrap_or_else(|| panic!("no column `{c}` in `{}`", self.name))
            })
            .collect();
        self
    }

    /// Builder-style: add a unique constraint by column name.
    pub fn with_unique(mut self, cols: &[&str]) -> TableSchema {
        let idx = cols
            .iter()
            .map(|c| {
                self.column_index(c).unwrap_or_else(|| panic!("no column `{c}` in `{}`", self.name))
            })
            .collect();
        self.unique.push(idx);
        self
    }

    /// Builder-style: add a foreign key.
    pub fn with_foreign_key(
        mut self,
        cols: &[&str],
        parent: &str,
        parent_cols: &[&str],
    ) -> TableSchema {
        self.foreign_keys.push(ForeignKey {
            columns: cols.iter().map(|s| s.to_string()).collect(),
            parent_table: parent.to_string(),
            parent_columns: parent_cols.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// The column definition by name, as a `Result` for caller convenience.
    pub fn column(&self, name: &str) -> Result<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i]).ok_or_else(|| {
            StorageError::UnknownColumn { table: self.name.to_string(), column: name.to_string() }
        })
    }

    /// Whether the given set of column positions contains a key (the primary
    /// key or a unique constraint): if yes, at most one row matches any
    /// assignment of those columns.
    pub fn is_key(&self, cols: &[usize]) -> bool {
        let covers = |key: &[usize]| !key.is_empty() && key.iter().all(|k| cols.contains(k));
        covers(&self.primary_key) || self.unique.iter().any(|u| covers(u))
    }

    /// Whether a single named column is a key by itself.
    pub fn is_key_column(&self, name: &str) -> bool {
        match self.column_index(name) {
            Some(i) => self.is_key(&[i]),
            None => false,
        }
    }

    /// Cardinality of joining **into** this table on the named column: to-one
    /// if the column is a key of this table, to-many otherwise.
    pub fn join_cardinality_into(&self, column: &str) -> Cardinality {
        if self.is_key_column(column) {
            Cardinality::ToOne
        } else {
            Cardinality::ToMany
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie() -> TableSchema {
        TableSchema::new(
            "MOVIE",
            vec![
                ColumnDef::new("mid", DataType::Int),
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("year", DataType::Int),
            ],
        )
        .with_primary_key(&["mid"])
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let m = movie();
        assert_eq!(m.column_index("MID"), Some(0));
        assert_eq!(m.column_index("Title"), Some(1));
        assert_eq!(m.column_index("nope"), None);
        assert!(m.column("nope").is_err());
    }

    #[test]
    fn key_detection() {
        let m = movie();
        assert!(m.is_key(&[0]));
        assert!(m.is_key(&[0, 1]));
        assert!(!m.is_key(&[1]));
        assert!(m.is_key_column("mid"));
        assert!(!m.is_key_column("title"));
    }

    #[test]
    fn unique_constraint_counts_as_key() {
        let s = TableSchema::new(
            "T",
            vec![ColumnDef::new("a", DataType::Int), ColumnDef::new("b", DataType::Int)],
        )
        .with_unique(&["b"]);
        assert!(s.is_key(&[1]));
        assert!(!s.is_key(&[0]));
    }

    #[test]
    fn join_cardinality() {
        let m = movie();
        assert_eq!(m.join_cardinality_into("mid"), Cardinality::ToOne);
        assert_eq!(m.join_cardinality_into("title"), Cardinality::ToMany);
    }

    #[test]
    fn empty_key_is_not_a_key() {
        let s = TableSchema::new("T", vec![ColumnDef::new("a", DataType::Int)]);
        assert!(!s.is_key(&[0]));
    }

    #[test]
    fn column_set_maps_positions_through_the_set() {
        let mut s = ColumnSet::EMPTY;
        s.insert(1);
        s.insert(3);
        assert_eq!(s.iter(5).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(s.len(5), 2);
        assert_eq!((s.position(3), s.position(2)), (Some(1), None));
        assert_eq!(ColumnSet::ALL.len(4), 4);
        assert_eq!(ColumnSet::EMPTY.iter(4).count(), 0);
        // From column 63 on, one bit stands for every column.
        let mut wide = ColumnSet::EMPTY;
        wide.insert(0);
        wide.insert(70);
        assert_eq!(wide.len(80), 1 + 17);
        assert!(wide.contains(63) && wide.contains(79) && !wide.contains(62));
        assert_eq!(wide.position(70), Some(1 + 7));
        assert_eq!(ColumnSet::ALL.position(79), Some(79));
    }

    #[test]
    fn foreign_key_builder() {
        let s = TableSchema::new("PLAY", vec![ColumnDef::new("mid", DataType::Int)])
            .with_foreign_key(&["mid"], "MOVIE", &["mid"]);
        assert_eq!(s.foreign_keys.len(), 1);
        assert_eq!(s.foreign_keys[0].parent_table, "MOVIE");
    }
}
