//! The in-memory table: a schema plus typed columns.

use crate::column::Column;
use crate::error::{TableError, TableResult};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use crate::zones::{ZoneCell, ZoneIndex};
use serde::{Deserialize, Serialize};

/// An immutable-after-build, columnar, in-memory table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
    /// Derived from the columns on demand: shared by clones, skipped by
    /// equality and serde.
    #[serde(skip)]
    zones: ZoneCell,
}

impl Table {
    /// Build a table directly from a schema and matching columns.
    ///
    /// # Errors
    ///
    /// Returns an error if column count/types/lengths disagree with the
    /// schema.
    pub fn new(schema: Schema, columns: Vec<Column>) -> TableResult<Self> {
        if schema.len() != columns.len() {
            return Err(TableError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let len = columns.first().map_or(0, Column::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if field.data_type != col.data_type() {
                return Err(TableError::TypeMismatch {
                    expected: "column type matching schema",
                    found: format!("{} vs {}", field.data_type, col.data_type()),
                });
            }
            if col.len() != len {
                return Err(TableError::LengthMismatch {
                    expected: len,
                    found: col.len(),
                });
            }
        }
        Ok(Self {
            schema,
            columns,
            len,
            zones: ZoneCell::default(),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column by index.
    ///
    /// # Errors
    ///
    /// Returns an error when out of range.
    pub fn column(&self, index: usize) -> TableResult<&Column> {
        self.columns
            .get(index)
            .ok_or(TableError::ColumnIndexOutOfRange {
                index,
                len: self.columns.len(),
            })
    }

    /// Column by name.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names.
    pub fn column_by_name(&self, name: &str) -> TableResult<&Column> {
        self.column(self.schema.index_of(name)?)
    }

    /// Float slice of a named column (must be a `Float` column).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or non-float columns.
    pub fn floats(&self, name: &str) -> TableResult<&[f64]> {
        self.column_by_name(name)?.as_floats()
    }

    /// Int slice of a named column (must be an `Int` column).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or non-int columns.
    pub fn ints(&self, name: &str) -> TableResult<&[i64]> {
        self.column_by_name(name)?.as_ints()
    }

    /// Value at `(row, column)`.
    ///
    /// # Errors
    ///
    /// Returns an error when either index is out of range.
    pub fn get(&self, row: usize, column: usize) -> TableResult<Value> {
        self.column(column)?.get(row)
    }

    /// Value at `(row, column-name)`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or row out of range.
    pub fn get_by_name(&self, row: usize, name: &str) -> TableResult<Value> {
        self.column_by_name(name)?.get(row)
    }

    /// Materialize a full row as values (in schema order).
    ///
    /// # Errors
    ///
    /// Returns an error when `row` is out of range.
    pub fn row(&self, row: usize) -> TableResult<Vec<Value>> {
        if row >= self.len {
            return Err(TableError::RowIndexOutOfRange {
                index: row,
                len: self.len,
            });
        }
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// The table's zone index over the `Float` columns `names` (one or
    /// two, all finite), built now if the table has none yet; `None` when
    /// a name is not a `Float` column or the index is over other columns.
    pub(crate) fn zones(&self, names: &[&str]) -> Option<&ZoneIndex> {
        let columns: Vec<&[f64]> = names
            .iter()
            .map(|n| self.floats(n).ok())
            .collect::<Option<_>>()?;
        self.zones.get_or_build(names, &columns)
    }

    /// Heap bytes of the table's zone index (the oracle's count
    /// structure, built by the first subquery over this table that can
    /// use it): `8` per row and indexed column plus the kd nodes, or 0
    /// while none is built.
    pub fn zone_bytes(&self) -> usize {
        self.zones.bytes()
    }
}

/// Row-oriented builder for [`Table`].
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        Self { schema, columns }
    }

    /// Start building with reserved row capacity.
    pub fn with_capacity(schema: Schema, capacity: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, capacity))
            .collect();
        Self { schema, columns }
    }

    /// Append one row (values in schema order).
    ///
    /// # Errors
    ///
    /// Returns an error on arity or type mismatch. On error the builder
    /// may hold a partially-appended row and should be discarded.
    pub fn push_row(&mut self, values: Vec<Value>) -> TableResult<()> {
        if values.len() != self.columns.len() {
            return Err(TableError::LengthMismatch {
                expected: self.columns.len(),
                found: values.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v)?;
        }
        Ok(())
    }

    /// Number of complete rows appended so far.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Whether no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish and produce the table.
    ///
    /// # Errors
    ///
    /// Returns an error if internal column lengths diverged (only possible
    /// after a failed `push_row`).
    pub fn finish(self) -> TableResult<Table> {
        Table::new(self.schema, self.columns)
    }
}

/// Convenience: build a single-key table used in tests and examples.
///
/// Creates a table with float columns given `(name, data)` pairs.
///
/// # Errors
///
/// Returns an error on duplicate names or ragged data.
pub fn table_of_floats(pairs: &[(&str, &[f64])]) -> TableResult<Table> {
    let schema = Schema::new(
        pairs
            .iter()
            .map(|(n, _)| crate::schema::Field::new(*n, DataType::Float))
            .collect(),
    )?;
    let columns = pairs
        .iter()
        .map(|(_, d)| Column::Float(d.to_vec()))
        .collect();
    Table::new(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("x", DataType::Float),
            Field::new("tag", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::Int(1), Value::Float(0.5), Value::str("a")])
            .unwrap();
        b.push_row(vec![Value::Int(2), Value::Float(1.5), Value::str("b")])
            .unwrap();
        b.push_row(vec![Value::Int(3), Value::Float(2.5), Value::str("c")])
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn build_and_access() {
        let t = sample_table();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.get_by_name(1, "x").unwrap(), Value::Float(1.5));
        assert_eq!(t.get(2, 0).unwrap(), Value::Int(3));
        assert_eq!(t.floats("x").unwrap(), &[0.5, 1.5, 2.5]);
        assert_eq!(t.ints("id").unwrap(), &[1, 2, 3]);
        assert_eq!(
            t.row(0).unwrap(),
            vec![Value::Int(1), Value::Float(0.5), Value::str("a")]
        );
        assert!(t.row(3).is_err());
        assert!(t.get_by_name(0, "nope").is_err());
    }

    #[test]
    fn builder_rejects_ragged_rows() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new(schema);
        assert!(b.push_row(vec![]).is_err());
        assert!(b.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(b.push_row(vec![Value::Float(0.5)]).is_err());
    }

    #[test]
    fn new_validates_schema_column_agreement() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        // Wrong number of columns.
        assert!(Table::new(schema.clone(), vec![]).is_err());
        // Wrong type.
        assert!(Table::new(schema.clone(), vec![Column::Float(vec![1.0])]).is_err());
        // Ragged lengths.
        let schema2 = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap();
        assert!(Table::new(schema2, vec![Column::Int(vec![1]), Column::Int(vec![1, 2])]).is_err());
        // Valid.
        assert!(Table::new(schema, vec![Column::Int(vec![1, 2])]).is_ok());
    }

    #[test]
    fn table_of_floats_helper() {
        let t = table_of_floats(&[("x", &[1.0, 2.0]), ("y", &[3.0, 4.0])]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.floats("y").unwrap(), &[3.0, 4.0]);
    }
}
