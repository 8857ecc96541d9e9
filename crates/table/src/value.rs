//! Scalar values and data types.

use crate::error::{TableError, TableResult};
use std::fmt;
use std::sync::Arc;

/// The type of a column or scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Str => write!(f, "str"),
        }
    }
}

/// A dynamically-typed scalar value.
///
/// `Null` propagates through arithmetic and comparisons the SQL way
/// (any operation with `Null` yields `Null`; predicates treat `Null`
/// as false).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value (cheaply cloneable).
    Str(Arc<str>),
}

impl Value {
    /// String value from anything string-like.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The value's data type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints coerce to floats).
    ///
    /// # Errors
    ///
    /// Returns a type mismatch for non-numeric values.
    pub fn as_f64(&self) -> TableResult<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(x) => Ok(*x),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(TableError::TypeMismatch {
                expected: "numeric",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Integer view (floats with integral value coerce).
    ///
    /// # Errors
    ///
    /// Returns a type mismatch for non-integral values.
    pub fn as_i64(&self) -> TableResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(x) if x.fract() == 0.0 && x.is_finite() => Ok(*x as i64),
            other => Err(TableError::TypeMismatch {
                expected: "integer",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Boolean view.
    ///
    /// # Errors
    ///
    /// Returns a type mismatch for non-boolean values.
    pub fn as_bool(&self) -> TableResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(TableError::TypeMismatch {
                expected: "bool",
                found: format!("{other:?}"),
            }),
        }
    }

    /// Boolean view where `Null` counts as `false` (SQL predicate
    /// semantics).
    ///
    /// # Errors
    ///
    /// Returns a type mismatch for non-boolean, non-null values.
    pub fn truthy(&self) -> TableResult<bool> {
        match self {
            Value::Null => Ok(false),
            other => other.as_bool(),
        }
    }

    /// SQL-style three-valued comparison: `None` if either side is
    /// `Null` or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => a.partial_cmp(b),
            (Int(a), Int(b)) => a.partial_cmp(b),
            (Str(a), Str(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            _ => None,
        }
    }

    /// A hashable grouping key: normalizes `Int`/`Float` so `1` and `1.0`
    /// group together, and normalizes NaN.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Int(i) => GroupKey::Float((*i as f64).to_bits()),
            Value::Float(x) => {
                let x = if x.is_nan() { f64::NAN } else { *x };
                GroupKey::Float(x.to_bits())
            }
            Value::Str(s) => GroupKey::Str(s.clone()),
        }
    }
}

/// Hashable normalization of a [`Value`] used for DISTINCT / GROUP BY.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// NULL key (all NULLs group together, as SQL GROUP BY does).
    Null,
    /// Boolean key.
    Bool(bool),
    /// Numeric key by bit pattern of the f64 normalization.
    Float(u64),
    /// String key.
    Str(Arc<str>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sql_cmp(other) == Some(std::cmp::Ordering::Equal)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::Float(2.5).as_f64().unwrap(), 2.5);
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert_eq!(Value::Float(4.0).as_i64().unwrap(), 4);
        assert!(Value::Float(4.5).as_i64().is_err());
        assert!(Value::str("x").as_f64().is_err());
        assert!(Value::Null.as_bool().is_err());
        assert!(!Value::Null.truthy().unwrap());
    }

    #[test]
    fn sql_comparison_mixes_numeric_types() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::str("a").sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::str("a").sql_cmp(&Value::str("b")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn equality_follows_sql_semantics() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Null, Value::Null); // NULL != NULL
        assert_eq!(Value::str("a"), Value::str("a"));
    }

    #[test]
    fn group_keys_normalize_numerics() {
        assert_eq!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Int(2).group_key());
        // NaNs group together.
        assert_eq!(
            Value::Float(f64::NAN).group_key(),
            Value::Float(f64::NAN).group_key()
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(DataType::Float.to_string(), "float");
    }
}
