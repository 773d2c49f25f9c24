//! The runtime value model shared by the storage layer, the SQL engine and
//! the personalization layer.
//!
//! Values form a single dynamically-typed domain with a *total* order (needed
//! for sorting and grouping, including over `NULL` and mixed numeric types)
//! and a hash that is consistent with equality (needed for hash joins, hash
//! aggregation and hash indexes). Numeric comparison is cross-type: an `Int`
//! and a `Float` holding the same mathematical number compare (and hash)
//! equal, mirroring SQL numeric semantics.
//!
//! Strings are shared: [`Value::Str`] holds an `Arc<str>`, so copying a value
//! — into a join row, a projection, a group key, an index key — bumps a
//! reference count instead of copying bytes. Equality, order and hash are
//! by content, never by pointer.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string. Dates in the movies schema are stored as ISO strings;
    /// the paper's framework only ever compares them for equality.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "TEXT"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A dynamically-typed runtime value: 24 bytes, cheap to clone (a string is
/// a shared `Arc<str>`).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value; equal to itself for
    /// grouping purposes (three-valued logic lives in the expression
    /// evaluator, not here).
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
}

impl Value {
    /// A convenience constructor for string values: one allocation from a
    /// `&str`, none from an `Arc<str>`.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The runtime type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value may be stored in a column of type `ty`.
    ///
    /// An `Int` is accepted by a `Float` column (lossless widening handled at
    /// insert time); everything else must match exactly.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int | DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Str(_), DataType::Str)
                | (Value::Bool(_), DataType::Bool)
        )
    }

    /// Coerce the value to the given column type (widening `Int` → `Float`),
    /// storing `-0.0` as `0.0`: the two are equal, and a stored value should
    /// not print as `-0`. Callers must have checked [`Value::conforms_to`]
    /// first.
    pub fn coerce_to(self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            // A float pattern compares with `==`, so this matches -0.0 too.
            (Value::Float(0.0), _) => Value::Float(0.0),
            (v, _) => v,
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to order values of different types: NULL < BOOL < numeric < TEXT.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // Cross-type numeric comparison via total_cmp on f64. Exactness
            // is not a concern at the magnitudes this engine stores (ids fit
            // in 2^53), and total_cmp keeps the order total even with NaN.
            (Int(a), Float(b)) => fcmp(*a as f64, *b),
            (Float(a), Int(b)) => fcmp(*a, *b as f64),
            (Float(a), Float(b)) => fcmp(*a, *b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// Total float comparison with `-0.0 == 0.0` (total_cmp alone would order
/// them, breaking consistency with the hash).
fn fcmp(a: f64, b: f64) -> Ordering {
    let norm = |x: f64| if x == 0.0 { 0.0 } else { x };
    norm(a).total_cmp(&norm(b))
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Int and Float must hash identically when they compare equal, so
            // both hash through the f64 bit pattern (normalizing -0.0).
            Value::Int(i) => {
                state.write_u8(2);
                let f = *i as f64;
                state.write_u64(if f == 0.0 { 0 } else { f.to_bits() });
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(if *f == 0.0 { 0 } else { f.to_bits() });
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
    }

    #[test]
    fn zero_hashes_consistently() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn total_order_across_types() {
        let mut vs = vec![
            Value::str("abc"),
            Value::Int(5),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(5),
                Value::str("abc"),
            ]
        );
    }

    #[test]
    fn conformance_and_coercion() {
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(Value::Null.conforms_to(DataType::Str));
        assert_eq!(Value::Int(2).coerce_to(DataType::Float), Value::Float(2.0));
        assert_eq!(Value::Float(-0.0).coerce_to(DataType::Float).to_string(), "0");
    }

    #[test]
    fn display_round_trips_visibly() {
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }

    #[test]
    fn value_stays_24_bytes() {
        // The row currency: every operator copies these. A variant that
        // re-inflates it (an owned `String` is 24 bytes of payload alone)
        // should fail here, not in a benchmark.
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn shared_strings_compare_and_hash_by_content() {
        let shared: Arc<str> = Arc::from("comedy");
        let a = Value::Str(shared.clone());
        let b = Value::str("comedy");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a.clone().as_str().map(|s| s.as_ptr()), Some(shared.as_ptr()), "clone shares");
        assert!(Value::str("a") < Value::str("b"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Float(1.5).data_type(), Some(DataType::Float));
    }
}
