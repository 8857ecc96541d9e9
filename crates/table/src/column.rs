//! Typed columnar storage.

use crate::error::{TableError, TableResult};
use crate::value::{DataType, Value};
use std::sync::Arc;

/// A single typed column of values.
///
/// Columns are dense (non-nullable): `Value::Null` only arises during
/// expression evaluation (e.g. division by zero), never in storage. This
/// matches the synthetic workloads of the paper and keeps scans branch-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean column.
    Bool(Vec<bool>),
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<Arc<str>>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(data_type: DataType) -> Self {
        match data_type {
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        match data_type {
            DataType::Bool => Column::Bool(Vec::with_capacity(capacity)),
            DataType::Int => Column::Int(Vec::with_capacity(capacity)),
            DataType::Float => Column::Float(Vec::with_capacity(capacity)),
            DataType::Str => Column::Str(Vec::with_capacity(capacity)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the column's buffer (a string column's `Arc`s, not
    /// the text they point at).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Column::Bool(v) => v.capacity(),
            Column::Int(v) => v.capacity() * 8,
            Column::Float(v) => v.capacity() * 8,
            Column::Str(v) => v.capacity() * std::mem::size_of::<Arc<str>>(),
        }
    }

    /// Value at `row`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::RowIndexOutOfRange`] when out of range.
    pub fn get(&self, row: usize) -> TableResult<Value> {
        let oob = || TableError::RowIndexOutOfRange {
            index: row,
            len: self.len(),
        };
        Ok(match self {
            Column::Bool(v) => Value::Bool(*v.get(row).ok_or_else(oob)?),
            Column::Int(v) => Value::Int(*v.get(row).ok_or_else(oob)?),
            Column::Float(v) => Value::Float(*v.get(row).ok_or_else(oob)?),
            Column::Str(v) => Value::Str(v.get(row).ok_or_else(oob)?.clone()),
        })
    }

    /// Append a value, coercing `Int` → `Float` where needed.
    ///
    /// # Errors
    ///
    /// Returns a type mismatch if the value does not fit the column.
    pub fn push(&mut self, value: Value) -> TableResult<()> {
        match (self, value) {
            (Column::Bool(v), Value::Bool(b)) => v.push(b),
            (Column::Int(v), Value::Int(i)) => v.push(i),
            (Column::Float(v), Value::Float(x)) => v.push(x),
            (Column::Float(v), Value::Int(i)) => v.push(i as f64),
            (Column::Str(v), Value::Str(s)) => v.push(s),
            (col, value) => {
                return Err(TableError::TypeMismatch {
                    expected: match col.data_type() {
                        DataType::Bool => "bool",
                        DataType::Int => "int",
                        DataType::Float => "float",
                        DataType::Str => "str",
                    },
                    found: format!("{value:?}"),
                })
            }
        }
        Ok(())
    }

    /// Borrow as a float slice.
    ///
    /// # Errors
    ///
    /// Returns a type mismatch if the column is not `Float`.
    pub fn as_floats(&self) -> TableResult<&[f64]> {
        match self {
            Column::Float(v) => Ok(v),
            other => Err(TableError::TypeMismatch {
                expected: "float column",
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Borrow as an int slice.
    ///
    /// # Errors
    ///
    /// Returns a type mismatch if the column is not `Int`.
    pub fn as_ints(&self) -> TableResult<&[i64]> {
        match self {
            Column::Int(v) => Ok(v),
            other => Err(TableError::TypeMismatch {
                expected: "int column",
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Materialize the column as `f64`s (ints and bools coerce).
    ///
    /// # Errors
    ///
    /// Returns a type mismatch for string columns.
    pub fn to_f64_vec(&self) -> TableResult<Vec<f64>> {
        Ok(match self {
            Column::Float(v) => v.clone(),
            Column::Int(v) => v.iter().map(|&i| i as f64).collect(),
            Column::Bool(v) => v.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
            Column::Str(_) => {
                return Err(TableError::TypeMismatch {
                    expected: "numeric column",
                    found: "str".into(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(5)).unwrap();
        c.push(Value::Int(-2)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).unwrap(), Value::Int(-2));
        assert!(c.get(2).is_err());
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Int(3)).unwrap();
        c.push(Value::Float(1.5)).unwrap();
        assert_eq!(c.as_floats().unwrap(), &[3.0, 1.5]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::empty(DataType::Bool);
        assert!(c.push(Value::Int(1)).is_err());
        let c = Column::empty(DataType::Str);
        assert!(c.as_floats().is_err());
        assert!(c.to_f64_vec().is_err());
    }

    #[test]
    fn to_f64_coerces() {
        let mut c = Column::empty(DataType::Bool);
        c.push(Value::Bool(true)).unwrap();
        c.push(Value::Bool(false)).unwrap();
        assert_eq!(c.to_f64_vec().unwrap(), vec![1.0, 0.0]);
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(7)).unwrap();
        assert_eq!(c.to_f64_vec().unwrap(), vec![7.0]);
    }

    #[test]
    fn with_capacity_reserves() {
        let c = Column::with_capacity(DataType::Float, 100);
        assert!(c.is_empty());
        if let Column::Float(v) = c {
            assert!(v.capacity() >= 100);
        } else {
            unreachable!();
        }
    }
}
