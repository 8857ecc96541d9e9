//! Feature extraction from object tables, and the view a problem's
//! readers see its feature rows through.
//!
//! The paper's heuristic (§3.2): "select the attributes of `o`
//! referenced in `q`" — i.e. the caller names the columns the predicate
//! touches, and each object's feature vector is those column values.

use crate::error::{CoreError, CoreResult};
use lts_learn::Matrix;
use lts_table::Table;
use std::sync::Arc;

/// A problem's feature rows where they live: the dataset's one matrix,
/// read directly for a whole-table problem, or through a
/// sub-population's `u32` id list (local row `i` is matrix row
/// `ids[i]`). Nothing is copied until a reader gathers a block, and a
/// gather yields the matrix's own rows, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct FeatureView<'a> {
    matrix: &'a Arc<Matrix>,
    ids: Option<&'a Arc<[u32]>>,
}

impl<'a> FeatureView<'a> {
    pub(crate) fn new(matrix: &'a Arc<Matrix>, ids: Option<&'a Arc<[u32]>>) -> Self {
        Self { matrix, ids }
    }

    /// The matrix the rows are read from: the dataset's, shared.
    pub fn matrix(&self) -> &'a Arc<Matrix> {
        self.matrix
    }

    /// The id list mapping local rows to matrix rows (`None` when they
    /// coincide).
    pub fn ids(&self) -> Option<&'a Arc<[u32]>> {
        self.ids
    }

    /// Number of rows (the problem's `N`).
    pub fn rows(&self) -> usize {
        self.ids.map_or(self.matrix.rows(), |ids| ids.len())
    }

    /// Feature columns `d`.
    pub fn cols(&self) -> usize {
        self.matrix.cols()
    }

    fn global(&self, i: usize) -> usize {
        self.ids.map_or(i, |ids| ids[i] as usize)
    }

    /// Borrow local row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &'a [f64] {
        self.matrix.row(self.global(i))
    }

    /// Gather the given local rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> Matrix {
        self.matrix
            .gather_iter(indices.iter().map(|&i| self.global(i)))
    }
}

/// Build an `N × d` feature matrix from the named numeric columns of an
/// object table (ints and bools coerce to floats).
///
/// The fill is columnar: each column materializes once
/// ([`lts_table::Column::to_f64_vec`]) and is scattered into the
/// row-major matrix buffer in a tight strided loop — no per-row
/// validation or `Value` boxing, matching the vectorized scan
/// philosophy of `lts_table::vector`.
///
/// # Errors
///
/// Returns an error for unknown or non-numeric columns, or an empty
/// column list.
pub fn features_from_columns(table: &Table, columns: &[&str]) -> CoreResult<Matrix> {
    if columns.is_empty() {
        return Err(CoreError::InvalidConfig {
            message: "feature column list is empty".into(),
        });
    }
    let cols: Vec<Vec<f64>> = columns
        .iter()
        .map(|c| Ok(table.column_by_name(c)?.to_f64_vec()?))
        .collect::<CoreResult<_>>()?;
    let n = table.len();
    let d = columns.len();
    let mut data = vec![0.0; n * d];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            data[i * d + j] = v;
        }
    }
    Matrix::from_flat(data, n, d).map_err(CoreError::Learn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::table::table_of_floats;

    #[test]
    fn extracts_columns_in_order() {
        let t = table_of_floats(&[("x", &[1.0, 2.0]), ("y", &[3.0, 4.0])]).unwrap();
        let m = features_from_columns(&t, &["y", "x"]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[3.0, 1.0]);
        assert_eq!(m.row(1), &[4.0, 2.0]);
    }

    #[test]
    fn a_view_through_ids_reads_the_matrix_rows() {
        let t = table_of_floats(&[("x", &[1.0, 2.0, 3.0]), ("y", &[4.0, 5.0, 6.0])]).unwrap();
        let m = Arc::new(features_from_columns(&t, &["x", "y"]).unwrap());
        let ids: Arc<[u32]> = Arc::from([2, 0]);
        let view = FeatureView::new(&m, Some(&ids));
        assert_eq!((view.rows(), view.cols()), (2, 2));
        assert_eq!(view.row(0), &[3.0, 6.0]);
        assert_eq!(view.gather(&[1, 0, 1]), m.gather(&[0, 2, 0]));
        assert_eq!(FeatureView::new(&m, None).rows(), 3);
    }

    #[test]
    fn rejects_bad_columns() {
        let t = table_of_floats(&[("x", &[1.0])]).unwrap();
        assert!(features_from_columns(&t, &["nope"]).is_err());
        assert!(features_from_columns(&t, &[]).is_err());
    }
}
