//! Table schemas: named, typed fields with O(1) name resolution.

use crate::error::{TableError, TableResult};
use crate::value::DataType;
use std::collections::HashMap;

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of fields with a name → index map.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<Field>,
    by_name: HashMap<String, usize>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}

impl Schema {
    /// Build a schema from fields.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::DuplicateColumn`] on duplicate names.
    pub fn new(fields: Vec<Field>) -> TableResult<Self> {
        let mut by_name = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if by_name.insert(f.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn {
                    name: f.name.clone(),
                });
            }
        }
        Ok(Self { fields, by_name })
    }

    /// Convenience constructor from `(name, type)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::DuplicateColumn`] on duplicate names.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> TableResult<Self> {
        Self::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        )
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Resolve a column name to its index.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::UnknownColumn`] if the name does not exist.
    pub fn index_of(&self, name: &str) -> TableResult<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| TableError::UnknownColumn { name: name.into() })
    }

    /// Field at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::ColumnIndexOutOfRange`] when out of range.
    pub fn field(&self, index: usize) -> TableResult<&Field> {
        self.fields
            .get(index)
            .ok_or(TableError::ColumnIndexOutOfRange {
                index,
                len: self.fields.len(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_names() {
        let s = Schema::from_pairs(&[("x", DataType::Float), ("y", DataType::Float)]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("x").unwrap(), 0);
        assert_eq!(s.index_of("y").unwrap(), 1);
        assert!(s.index_of("z").is_err());
        assert_eq!(s.field(1).unwrap().name, "y");
        assert!(s.field(2).is_err());
    }

    #[test]
    fn rejects_duplicates() {
        let err = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Float)]);
        assert!(matches!(err, Err(TableError::DuplicateColumn { .. })));
    }

    #[test]
    fn equality_ignores_index_map() {
        let a = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let b = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_schema() {
        let s = Schema::new(vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.fields().len(), 0);
    }
}
