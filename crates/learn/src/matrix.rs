//! A minimal dense row-major matrix of `f64` features.

use crate::error::{LearnError, LearnResult};

/// Dense row-major matrix: `rows × cols` feature values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Create from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_flat(data: Vec<f64>, rows: usize, cols: usize) -> LearnResult<Self> {
        if data.len() != rows * cols {
            return Err(LearnError::DimensionMismatch {
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Self { data, rows, cols })
    }

    /// Create from row vectors (all must have equal length).
    ///
    /// # Errors
    ///
    /// Returns an error for ragged rows or an empty input.
    pub fn from_rows(rows: &[Vec<f64>]) -> LearnResult<Self> {
        let Some(first) = rows.first() else {
            return Err(LearnError::EmptyTrainingSet);
        };
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LearnError::DimensionMismatch {
                    expected: cols,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            data,
            rows: rows.len(),
            cols,
        })
    }

    /// An empty matrix with a fixed column count.
    pub fn empty(cols: usize) -> Self {
        Self {
            data: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Append one row.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn push_row(&mut self, row: &[f64]) -> LearnResult<()> {
        if row.len() != self.cols {
            return Err(LearnError::DimensionMismatch {
                expected: self.cols,
                found: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Gather the given rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> Matrix {
        self.gather_iter(indices.iter().copied())
    }

    /// [`Matrix::gather`] over any exact-size sequence of row indices —
    /// e.g. a local selection read through an id map.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_iter(&self, indices: impl ExactSizeIterator<Item = usize>) -> Matrix {
        let rows = indices.len();
        let mut data = Vec::with_capacity(rows * self.cols);
        for i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            data,
            rows,
            cols: self.cols,
        }
    }

    /// Verify every entry is finite.
    ///
    /// # Errors
    ///
    /// Returns the position of the first non-finite entry.
    pub fn check_finite(&self) -> LearnResult<()> {
        for (idx, &v) in self.data.iter().enumerate() {
            if !v.is_finite() {
                return Err(LearnError::NonFiniteFeature {
                    row: idx / self.cols.max(1),
                    col: idx % self.cols.max(1),
                });
            }
        }
        Ok(())
    }

    /// Iterate over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Copy out column `j` in one strided pass (column-at-a-time
    /// extraction for the scoring pipeline).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols()`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of range ({})", self.cols);
        self.data
            .get(j..)
            .unwrap_or(&[]) // no rows: data is shorter than j
            .iter()
            .step_by(self.cols)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_flat_validates() {
        assert!(Matrix::from_flat(vec![1.0, 2.0, 3.0], 2, 2).is_err());
        let m = Matrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn push_row_and_gather() {
        let mut m = Matrix::empty(3);
        assert!(m.is_empty());
        m.push_row(&[1.0, 2.0, 3.0]).unwrap();
        m.push_row(&[4.0, 5.0, 6.0]).unwrap();
        m.push_row(&[7.0, 8.0, 9.0]).unwrap();
        assert!(m.push_row(&[1.0]).is_err());
        let g = m.gather(&[2, 0]);
        assert_eq!(g.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.gather_iter([2, 0].into_iter()), g);
    }

    #[test]
    fn finite_check() {
        let m = Matrix::from_rows(&[vec![1.0, f64::NAN]]).unwrap();
        assert!(matches!(
            m.check_finite(),
            Err(LearnError::NonFiniteFeature { row: 0, col: 1 })
        ));
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(m.check_finite().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let m = Matrix::empty(2);
        let _ = m.row(0);
    }

    #[test]
    fn column_extracts_strided_values() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m.column(0), vec![1.0, 3.0, 5.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0, 6.0]);
        assert!(Matrix::empty(2).column(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_out_of_range_panics() {
        let m = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let _ = m.column(1);
    }

    #[test]
    fn iter_rows_visits_all() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let sums: Vec<f64> = m.iter_rows().map(|r| r[0]).collect();
        assert_eq!(sums, vec![1.0, 2.0, 3.0]);
    }
}
