//! The view a problem's readers see its feature rows through: the
//! table's own columns.
//!
//! The paper's heuristic (§3.2): "select the attributes of `o`
//! referenced in `q`" — i.e. the caller names the columns the predicate
//! touches, and each object's feature vector is those column values.

use lts_learn::Matrix;
use lts_table::{Column, Table};
use std::sync::Arc;

/// A problem's feature rows where they live: the named numeric columns
/// of its table, read directly for a whole-table problem, or through a
/// sub-population's `u32` id list (local row `i` is table row
/// `ids[i]`). Nothing is copied until a reader gathers a block; a
/// gather converts `Int` and `Bool` values on read (`i as f64`, `1.0` /
/// `0.0`) and copies `Float` ones bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct FeatureView<'a> {
    table: &'a Table,
    /// Schema indices of the feature columns, each checked numeric when
    /// the problem was built.
    columns: &'a [usize],
    ids: Option<&'a Arc<[u32]>>,
}

impl<'a> FeatureView<'a> {
    pub(crate) fn new(table: &'a Table, columns: &'a [usize], ids: Option<&'a Arc<[u32]>>) -> Self {
        Self {
            table,
            columns,
            ids,
        }
    }

    /// The table the rows are read from: the dataset's, shared.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The id list mapping local rows to table rows (`None` when they
    /// coincide).
    pub fn ids(&self) -> Option<&'a Arc<[u32]>> {
        self.ids
    }

    /// Number of rows (the problem's `N`).
    pub fn rows(&self) -> usize {
        self.ids.map_or(self.table.len(), |ids| ids.len())
    }

    /// Feature columns `d`.
    pub fn cols(&self) -> usize {
        self.columns.len()
    }

    fn global(&self, i: usize) -> usize {
        self.ids.map_or(i, |ids| ids[i] as usize)
    }

    /// Feature columns `first..first + d` at the table rows `globals`,
    /// row-major.
    fn read(
        &self,
        first: usize,
        d: usize,
        globals: impl Iterator<Item = usize> + Clone,
    ) -> Vec<f64> {
        let mut out = vec![0.0; globals.clone().count() * d];
        for j in 0..d {
            let column = (self.table.column(self.columns[first + j]))
                .expect("feature columns are checked when the problem is built");
            let slots = out.iter_mut().skip(j).step_by(d).zip(globals.clone());
            match column {
                Column::Float(v) => slots.for_each(|(o, r)| *o = v[r]),
                Column::Int(v) => slots.for_each(|(o, r)| *o = v[r] as f64),
                Column::Bool(v) => slots.for_each(|(o, r)| *o = if v[r] { 1.0 } else { 0.0 }),
                Column::Str(_) => unreachable!("feature columns are checked numeric"),
            }
        }
        out
    }

    /// Local row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        self.read(0, self.cols(), std::iter::once(self.global(i)))
    }

    /// Feature column `j` of every local row.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols()`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        self.read(j, 1, (0..self.rows()).map(|i| self.global(i)))
    }

    /// Gather the given local rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> Matrix {
        self.matrix(indices.iter().map(|&i| self.global(i)))
    }

    /// [`FeatureView::gather`] over `u32` local ids.
    pub(crate) fn gather_members(&self, members: &[u32]) -> Matrix {
        self.matrix(members.iter().map(|&i| self.global(i as usize)))
    }

    /// Every local row, as one matrix.
    pub(crate) fn gather_all(&self) -> Matrix {
        self.matrix((0..self.rows()).map(|i| self.global(i)))
    }

    fn matrix(&self, globals: impl ExactSizeIterator<Item = usize> + Clone) -> Matrix {
        let (n, d) = (globals.len(), self.cols());
        Matrix::from_flat(self.read(0, d, globals), n, d).expect("an n × d buffer")
    }
}

#[cfg(test)]
mod tests {
    use crate::problem::CountingProblem;
    use lts_table::table::table_of_floats;
    use lts_table::{Column, DataType, Field, FnPredicate, ObjectPredicate, Schema, Table};
    use std::sync::Arc;

    fn problem(table: Table, columns: &[&str]) -> crate::CoreResult<CountingProblem> {
        let p: Arc<dyn ObjectPredicate> =
            Arc::new(FnPredicate::new("any", |_: &Table, _| Ok(true)));
        CountingProblem::new(Arc::new(table), p, columns)
    }

    #[test]
    fn extracts_columns_in_order() {
        let t = table_of_floats(&[("x", &[1.0, 2.0]), ("y", &[3.0, 4.0])]).unwrap();
        let p = problem(t, &["y", "x"]).unwrap();
        let m = p.features();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[3.0, 1.0]);
        assert_eq!(m.row(1), &[4.0, 2.0]);
        assert_eq!(p.feature_view().row(1), [4.0, 2.0]);
        assert_eq!(p.feature_view().column(1), [1.0, 2.0]);
        // Int and Bool columns convert on read.
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        let columns = vec![Column::Int(vec![-3, 7]), Column::Bool(vec![true, false])];
        let p = problem(Table::new(schema, columns).unwrap(), &["b", "i"]).unwrap();
        assert_eq!(
            p.feature_view().gather(&[1, 0, 1]).as_slice(),
            &[0.0, 7.0, 1.0, -3.0, 0.0, 7.0]
        );
    }

    #[test]
    fn a_view_through_ids_reads_the_matrix_rows() {
        let t = table_of_floats(&[("x", &[1.0, 2.0, 3.0]), ("y", &[4.0, 5.0, 6.0])]).unwrap();
        let p = problem(t, &["x", "y"]).unwrap();
        let whole = p.features().clone();
        let sub = crate::plan::restrict_problem(&p, &[2, 0]).unwrap();
        let view = sub.feature_view();
        assert!(std::ptr::eq(view.table(), &**p.objects()));
        assert_eq!((view.rows(), view.cols()), (2, 2));
        assert_eq!(view.row(0), [3.0, 6.0]);
        assert_eq!(view.gather(&[1, 0, 1]), whole.gather(&[0, 2, 0]));
        assert_eq!(p.feature_view().rows(), 3);
    }

    #[test]
    fn rejects_bad_columns() {
        let t = || table_of_floats(&[("x", &[1.0])]).unwrap();
        assert!(problem(t(), &["nope"]).is_err());
        assert!(problem(t(), &[]).is_err());
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
        let strings = Table::new(schema, vec![Column::Str(vec!["a".into()])]).unwrap();
        let err = problem(strings, &["s"]).err().unwrap().to_string();
        assert!(err.contains("numeric column"), "{err}");
    }
}
