//! Feature standardization (zero mean, unit variance).

use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;

/// Per-column standardizer: `x' = (x − μ) / σ` with `σ = 1` for constant
/// columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit on a feature matrix.
    ///
    /// # Errors
    ///
    /// Returns an error on empty input.
    pub fn fit(x: &Matrix) -> LearnResult<Self> {
        if x.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        let (rows, cols) = (x.rows(), x.cols());
        let mut means = vec![0.0; cols];
        for row in x.iter_rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= rows as f64;
        }
        let mut vars = vec![0.0; cols];
        for row in x.iter_rows() {
            for ((v, &m), &x) in vars.iter_mut().zip(&means).zip(row) {
                let d = x - m;
                *v += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / rows as f64).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Self { means, stds })
    }

    /// Standardize one row into a new vector.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn transform_row(&self, row: &[f64]) -> LearnResult<Vec<f64>> {
        if row.len() != self.means.len() {
            return Err(LearnError::DimensionMismatch {
                expected: self.means.len(),
                found: row.len(),
            });
        }
        Ok(row
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect())
    }

    /// Standardize a whole matrix.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatch.
    pub fn transform(&self, x: &Matrix) -> LearnResult<Matrix> {
        if x.cols() != self.means.len() {
            return Err(LearnError::DimensionMismatch {
                expected: self.means.len(),
                found: x.cols(),
            });
        }
        let mut out = Matrix::empty(x.cols());
        for row in x.iter_rows() {
            out.push_row(&self.transform_row(row)?)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_variance() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]).unwrap();
        let s = StandardScaler::fit(&x).unwrap();
        let t = s.transform(&x).unwrap();
        for c in 0..2 {
            let vals: Vec<f64> = t.iter_rows().map(|r| r[c]).collect();
            let mean: f64 = vals.iter().sum::<f64>() / 3.0;
            let var: f64 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_columns_do_not_blow_up() {
        let x = Matrix::from_rows(&[vec![7.0], vec![7.0]]).unwrap();
        let s = StandardScaler::fit(&x).unwrap();
        let t = s.transform_row(&[7.0]).unwrap();
        assert_eq!(t, vec![0.0]);
    }

    #[test]
    fn dimension_checks() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let s = StandardScaler::fit(&x).unwrap();
        assert!(s.transform_row(&[1.0]).is_err());
        let bad = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(s.transform(&bad).is_err());
        assert!(StandardScaler::fit(&Matrix::empty(3)).is_err());
    }
}
