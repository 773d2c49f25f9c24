//! Schemas of intermediate results and the final result-set type.

use pqp_storage::{Row, Value};
use std::fmt;
use std::sync::Arc;

/// One column of an intermediate or final result.
///
/// Both strings are interned: a column of a base table shares its name with
/// the catalog's `ColumnDef` and its qualifier with every other column of
/// the same tuple variable, so cloning a column copies two pointers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OutputColumn {
    /// The tuple variable (or derived-table alias) the column belongs to;
    /// `None` for synthesized columns such as aggregates.
    pub qualifier: Option<Arc<str>>,
    pub name: Arc<str>,
}

impl OutputColumn {
    pub fn new(qualifier: Option<&str>, name: &str) -> OutputColumn {
        OutputColumn { qualifier: qualifier.map(Arc::from), name: Arc::from(name) }
    }

    /// Whether a reference `[qualifier.]name` resolves to this column.
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self.qualifier.as_deref().is_some_and(|mine| mine.eq_ignore_ascii_case(q)),
        }
    }
}

impl fmt::Display for OutputColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Schema of an intermediate result: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct OutputSchema {
    pub columns: Vec<OutputColumn>,
}

/// How a planning pass holds a schema: shared, so pass-through nodes and
/// the partial queries of one rewrite reference one allocation per distinct
/// schema (and the pass can tell equal schemas apart by address).
pub type SchemaRef = Arc<OutputSchema>;

impl OutputSchema {
    pub fn new(columns: Vec<OutputColumn>) -> OutputSchema {
        OutputSchema { columns }
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &OutputSchema) -> OutputSchema {
        let mut columns = Vec::with_capacity(self.arity() + other.arity());
        columns.extend(self.columns.iter().chain(&other.columns).cloned());
        OutputSchema { columns }
    }

    /// Position of the one column a reference `[qualifier.]name` resolves
    /// to; `None` when no column or more than one matches. For callers
    /// that only probe: unlike [`OutputSchema::resolve`] it builds no message.
    pub fn position(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        let mut hits = (0..self.arity()).filter(|&i| self.columns[i].matches(qualifier, name));
        match (hits.next(), hits.next()) {
            (Some(i), None) => Some(i),
            _ => None,
        }
    }

    /// Resolve a column reference to its position.
    ///
    /// Returns `Err` with a descriptive message on ambiguity or absence.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, String> {
        if let Some(i) = self.position(qualifier, name) {
            return Ok(i);
        }
        let ambiguous = self.columns.iter().any(|c| c.matches(qualifier, name));
        Err(unresolved(qualifier, name, ambiguous))
    }
}

/// The message for a reference `[qualifier.]name` that resolves to no
/// column, or (`ambiguous`) to more than one.
pub(crate) fn unresolved(qualifier: Option<&str>, name: &str, ambiguous: bool) -> String {
    let display = match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    };
    if ambiguous {
        format!("ambiguous column reference `{display}`")
    } else {
        format!("unknown column `{display}`")
    }
}

/// A materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names (display names, unqualified).
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The values of a single column, by name.
    pub fn column(&self, name: &str) -> Option<Vec<Value>> {
        let i = self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))?;
        Some(self.rows.iter().map(|r| r[i].clone()).collect())
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> OutputSchema {
        OutputSchema::new(vec![
            OutputColumn::new(Some("MV"), "mid"),
            OutputColumn::new(Some("MV"), "title"),
            OutputColumn::new(Some("PL"), "mid"),
            OutputColumn::new(None, "agg_0"),
        ])
    }

    #[test]
    fn resolve_qualified() {
        let s = schema();
        assert_eq!(s.resolve(Some("MV"), "mid"), Ok(0));
        assert_eq!(s.resolve(Some("pl"), "MID"), Ok(2));
    }

    #[test]
    fn resolve_unqualified_unique() {
        let s = schema();
        assert_eq!(s.resolve(None, "title"), Ok(1));
        assert_eq!(s.resolve(None, "agg_0"), Ok(3));
    }

    #[test]
    fn resolve_ambiguous() {
        let s = schema();
        let e = s.resolve(None, "mid").unwrap_err();
        assert!(e.contains("ambiguous"));
    }

    #[test]
    fn resolve_missing() {
        let s = schema();
        assert!(s.resolve(Some("MV"), "nope").unwrap_err().contains("unknown"));
        assert!(s.resolve(Some("XX"), "mid").unwrap_err().contains("unknown"));
    }

    #[test]
    fn join_concatenates() {
        let s = schema();
        let joined = s.join(&OutputSchema::new(vec![OutputColumn::new(Some("GN"), "genre")]));
        assert_eq!(joined.arity(), 5);
        assert_eq!(joined.resolve(Some("GN"), "genre"), Ok(4));
    }

    #[test]
    fn result_set_column() {
        let rs = ResultSet {
            columns: vec!["title".into(), "n".into()],
            rows: vec![vec![Value::str("a"), Value::Int(1)], vec![Value::str("b"), Value::Int(2)]],
        };
        assert_eq!(rs.column("N").unwrap(), vec![Value::Int(1), Value::Int(2)]);
        assert!(rs.column("x").is_none());
        assert_eq!(rs.len(), 2);
    }
}
