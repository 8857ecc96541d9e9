//! The in-memory table: a schema plus typed columns.

use crate::column::Column;
use crate::error::{TableError, TableResult};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use crate::zones::{ZoneCell, ZoneIndex};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An immutable-after-build, columnar, in-memory table. A column is
/// stored, or belongs to the table's deferred block ([`Table::deferred`]):
/// made on its first read and kept from then on.
#[derive(Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Slot>,
    len: usize,
    /// The producer of the deferred columns and, once run, what it made:
    /// shared by clones.
    deferred: Option<Arc<Deferred>>,
    /// Derived from the columns on demand: shared by clones, skipped by
    /// equality.
    zones: ZoneCell,
}

/// One schema field's column: stored, or the `i`th of the deferred block.
#[derive(Clone)]
enum Slot {
    Ready(Column),
    Deferred(usize),
}

/// What makes a table's deferred columns, from the table.
type Producer = Box<dyn Fn(&Table) -> Vec<Column> + Send + Sync>;

/// A deferred block: run `producer` at most once, on the first read.
struct Deferred {
    producer: Producer,
    columns: OnceLock<TableResult<Vec<Column>>>,
}

/// Whether `column` can stand for `field` in a table of `len` rows.
fn check(field: &Field, column: &Column, len: usize) -> TableResult<()> {
    if field.data_type != column.data_type() {
        return Err(TableError::TypeMismatch {
            expected: "column type matching schema",
            found: format!("{} vs {}", field.data_type, column.data_type()),
        });
    }
    if column.len() != len {
        return Err(TableError::LengthMismatch {
            expected: len,
            found: column.len(),
        });
    }
    Ok(())
}

impl Table {
    /// Build a table directly from a schema and matching columns.
    ///
    /// # Errors
    ///
    /// Returns an error if column count/types/lengths disagree with the
    /// schema.
    pub fn new(schema: Schema, columns: Vec<Column>) -> TableResult<Self> {
        Self::with_slots(schema, columns.into_iter().map(Some).collect(), None)
    }

    /// Build a table whose `None` columns are made only when one of them
    /// is first read: then `producer` runs, once for this table and all
    /// its clones, and returns them in schema order. It is handed the
    /// table, and may read the stored columns (not the deferred ones).
    /// What it returns is checked against the schema as [`Table::new`]
    /// checks its columns; a mismatch is the error of every read of a
    /// deferred column.
    ///
    /// # Errors
    ///
    /// As [`Table::new`], for the stored columns; the row count is the
    /// first stored column's.
    pub fn deferred(
        schema: Schema,
        columns: Vec<Option<Column>>,
        producer: impl Fn(&Table) -> Vec<Column> + Send + Sync + 'static,
    ) -> TableResult<Self> {
        let block = Deferred {
            producer: Box::new(producer),
            columns: OnceLock::new(),
        };
        Self::with_slots(schema, columns, Some(Arc::new(block)))
    }

    fn with_slots(
        schema: Schema,
        columns: Vec<Option<Column>>,
        deferred: Option<Arc<Deferred>>,
    ) -> TableResult<Self> {
        if schema.len() != columns.len() {
            return Err(TableError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let len = columns.iter().flatten().next().map_or(0, Column::len);
        let mut made_later = 0;
        let columns = schema
            .fields()
            .iter()
            .zip(columns)
            .map(|(field, column)| match column {
                Some(column) => check(field, &column, len).map(|()| Slot::Ready(column)),
                None => {
                    made_later += 1;
                    Ok(Slot::Deferred(made_later - 1))
                }
            })
            .collect::<TableResult<_>>()?;
        Ok(Self {
            schema,
            columns,
            len,
            deferred,
            zones: ZoneCell::default(),
        })
    }

    /// The deferred block's columns, made now if none has been read yet.
    fn block(&self) -> TableResult<&[Column]> {
        let block = self.deferred.as_ref().expect("a deferred slot has a block");
        let made = block.columns.get_or_init(|| {
            let made = (block.producer)(self);
            let fields = (self.schema.fields().iter().zip(&self.columns))
                .filter_map(|(f, slot)| matches!(slot, Slot::Deferred(_)).then_some(f));
            if fields.clone().count() != made.len() {
                return Err(TableError::LengthMismatch {
                    expected: fields.count(),
                    found: made.len(),
                });
            }
            for (field, column) in fields.zip(&made) {
                check(field, column, self.len)?;
            }
            Ok(made)
        });
        made.as_deref().map_err(Clone::clone)
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
        match self.columns.get(index) {
            Some(Slot::Ready(column)) => Ok(column),
            Some(Slot::Deferred(at)) => Ok(&self.block()?[*at]),
            None => Err(TableError::ColumnIndexOutOfRange {
                index,
                len: self.columns.len(),
            }),
        }
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
        (0..self.columns.len())
            .map(|c| self.column(c)?.get(row))
            .collect()
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

    /// Heap bytes of the columns made so far: the stored ones, and the
    /// deferred block once any of it has been read.
    pub fn column_bytes(&self) -> usize {
        let made = (self.deferred.as_ref())
            .and_then(|block| block.columns.get())
            .and_then(|made| made.as_ref().ok());
        (self.columns.iter())
            .filter_map(|slot| match slot {
                Slot::Ready(column) => Some(column),
                Slot::Deferred(_) => None,
            })
            .chain(made.into_iter().flatten())
            .map(Column::heap_bytes)
            .sum()
    }
}

/// Every column, deferred ones made first.
fn all_columns(table: &Table) -> TableResult<Vec<&Column>> {
    (0..table.columns.len()).map(|i| table.column(i)).collect()
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len == other.len
            && all_columns(self) == all_columns(other)
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("Table");
        out.field("schema", &self.schema);
        match all_columns(self) {
            Ok(columns) => out.field("columns", &columns),
            Err(e) => out.field("columns", &e),
        };
        out.field("len", &self.len).finish()
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
            .map(|(n, _)| Field::new(*n, DataType::Float))
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
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

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

    /// `id`, `x`, `tag`, `k` with every value given: the eager twin of
    /// [`deferred_table`].
    fn eager_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("x", DataType::Float),
            ("tag", DataType::Str),
            ("k", DataType::Int),
        ])
        .unwrap();
        let tags = ["a", "b", "c"].map(Arc::<str>::from).to_vec();
        let columns = vec![
            Column::Int(vec![1, 2, 3]),
            Column::Float(vec![0.5, 1.5, 2.5]),
            Column::Str(tags),
            Column::Int(vec![10, 20, 30]),
        ];
        Table::new(schema, columns).unwrap()
    }

    /// [`eager_table`] with `x` and `k` deferred, made from `id` by a
    /// producer that counts its runs in `runs` (and takes its time, so
    /// that concurrent first reads overlap).
    fn deferred_table(runs: &Arc<AtomicUsize>) -> Table {
        let eager = eager_table();
        let runs = Arc::clone(runs);
        let columns = vec![
            Some(eager.column(0).unwrap().clone()),
            None,
            Some(eager.column(2).unwrap().clone()),
            None,
        ];
        Table::deferred(eager.schema().clone(), columns, move |t| {
            runs.fetch_add(1, SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            let ids = t.ints("id").unwrap();
            vec![
                Column::Float(ids.iter().map(|&i| i as f64 - 0.5).collect()),
                Column::Int(ids.iter().map(|&i| 10 * i).collect()),
            ]
        })
        .unwrap()
    }

    /// Bytes of the stored `id` and `tag` columns, and of all four.
    const STORED: usize = 3 * 8 + 3 * 16;
    const ALL: usize = STORED + 2 * 3 * 8;

    #[test]
    fn every_accessor_of_a_deferred_column_makes_the_block_once() {
        type Read = fn(&Table) -> bool;
        let reads: [(&str, Read); 8] = [
            ("column", |t| t.column(1).is_ok()),
            ("column_by_name", |t| t.column_by_name("k").is_ok()),
            ("floats", |t| t.floats("x") == Ok(&[0.5, 1.5, 2.5][..])),
            ("ints", |t| t.ints("k") == Ok(&[10, 20, 30][..])),
            ("get", |t| t.get(0, 3) == Ok(Value::Int(10))),
            ("get_by_name", |t| {
                t.get_by_name(2, "x") == Ok(Value::Float(2.5))
            }),
            ("row", |t| t.row(1).is_ok_and(|r| r[1] == Value::Float(1.5))),
            ("==", |t| *t == eager_table()),
        ];
        for (name, read) in reads {
            let runs = Arc::new(AtomicUsize::new(0));
            let t = deferred_table(&runs);
            // The stored columns, the shape and a miss need no block.
            assert!(t.ints("id").is_ok() && t.get_by_name(0, "tag").is_ok());
            assert!(t.column(4).is_err() && t.floats("nope").is_err());
            assert_eq!((t.len(), t.schema().len()), (3, 4));
            assert_eq!((runs.load(SeqCst), t.column_bytes()), (0, STORED), "{name}");
            assert!(read(&t), "{name}");
            assert_eq!((runs.load(SeqCst), t.column_bytes()), (1, ALL), "{name}");
            assert!(read(&t), "{name}");
            assert_eq!(runs.load(SeqCst), 1, "{name}");
        }
    }

    #[test]
    fn a_deferred_table_equals_its_eager_twin() {
        let runs = Arc::new(AtomicUsize::new(0));
        let (eager, deferred) = (eager_table(), deferred_table(&runs));
        assert_eq!(eager, deferred);
        assert_eq!(deferred, eager);
        assert!(
            format!("{deferred:?}").contains("columns: [Int([1, 2, 3]), Float([0.5, 1.5, 2.5])")
        );
        assert_eq!((eager.column_bytes(), deferred.column_bytes()), (ALL, ALL));
        let other = Table::deferred(eager.schema().clone(), vec![None; 4], {
            let eager = eager.clone();
            move |_| (0..4).map(|i| eager.column(i).unwrap().clone()).collect()
        })
        .unwrap();
        // No stored column gives no rows: the block's 3-row columns are
        // the wrong length, and that table equals neither.
        assert_ne!(other, eager);
        assert!(matches!(
            other.column(0),
            Err(TableError::LengthMismatch {
                expected: 0,
                found: 3
            })
        ));
    }

    #[test]
    fn clones_share_one_making_of_the_block() {
        let runs = Arc::new(AtomicUsize::new(0));
        let t = deferred_table(&runs);
        let copy = t.clone();
        assert_eq!(copy.floats("x").unwrap(), &[0.5, 1.5, 2.5]);
        assert_eq!((runs.load(SeqCst), t.column_bytes()), (1, ALL));
        assert!(std::ptr::eq(
            t.floats("x").unwrap(),
            copy.floats("x").unwrap()
        ));
        assert_eq!(t.clone().ints("k").unwrap(), &[10, 20, 30]);
        assert_eq!(runs.load(SeqCst), 1);
    }

    #[test]
    fn concurrent_first_reads_make_the_block_once() {
        let runs = Arc::new(AtomicUsize::new(0));
        let t = deferred_table(&runs);
        let start = std::sync::Barrier::new(4);
        let seen: Vec<_> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (t.floats("x").unwrap(), t.ints("k").unwrap())
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(runs.load(SeqCst), 1);
        // One set of columns, the same slices in every thread.
        for (x, k) in &seen {
            assert!(std::ptr::eq(*x, seen[0].0) && std::ptr::eq(*k, seen[0].1));
        }
        assert_eq!(seen[0], (&[0.5, 1.5, 2.5][..], &[10, 20, 30][..]));
    }

    #[test]
    fn a_producer_that_breaks_the_schema_is_caught() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]).unwrap();
        type Made = fn() -> Vec<Column>;
        let cases: [(Made, TableError); 3] = [
            (
                || vec![Column::Int(vec![1, 2])],
                TableError::TypeMismatch {
                    expected: "column type matching schema",
                    found: "float vs int".into(),
                },
            ),
            (
                || vec![Column::Float(vec![1.0])],
                TableError::LengthMismatch {
                    expected: 2,
                    found: 1,
                },
            ),
            (
                Vec::new,
                TableError::LengthMismatch {
                    expected: 1,
                    found: 0,
                },
            ),
        ];
        for (made, want) in cases {
            let stored = vec![Some(Column::Int(vec![1, 2])), None];
            let t = Table::deferred(schema.clone(), stored, move |_| made()).unwrap();
            assert_eq!(t.floats("b"), Err(want.clone()));
            assert_eq!(t.row(0), Err(want.clone()));
            // The stored column still reads, and nothing of the block counts.
            assert_eq!(t.ints("a").unwrap(), &[1, 2]);
            assert_eq!(t.column_bytes(), 16);
        }
        // Stored columns are checked at once, as by `Table::new`.
        let stored = vec![Some(Column::Float(vec![1.0])), None];
        assert!(Table::deferred(schema, stored, |_| Vec::new()).is_err());
    }

    #[test]
    fn table_of_floats_helper() {
        let t = table_of_floats(&[("x", &[1.0, 2.0]), ("y", &[3.0, 4.0])]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.floats("y").unwrap(), &[3.0, 4.0]);
    }
}
