//! The classifier trait: everything the paper needs from a model.

use crate::error::LearnResult;
use crate::matrix::Matrix;

/// A binary classifier with a confidence score `g : O → [0, 1]`.
///
/// `score == 1` means confidently positive, `0` confidently negative,
/// `0.5` a toss-up (§3.2). Implementations must return scores in
/// `[0, 1]`; they need not be calibrated probabilities.
pub trait Classifier: Send + Sync {
    /// Fit on feature rows `x` with boolean labels `y`.
    ///
    /// Implementations must handle single-class training sets (the score
    /// then collapses to a constant).
    ///
    /// # Errors
    ///
    /// Returns an error for empty/ragged/non-finite training data.
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()>;

    /// The confidence score `g(o)` for a feature row.
    ///
    /// # Errors
    ///
    /// Returns an error if unfitted or the dimension mismatches.
    fn score(&self, row: &[f64]) -> LearnResult<f64>;

    /// Hard prediction: `score >= 0.5`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::score`].
    fn predict(&self, row: &[f64]) -> LearnResult<bool> {
        Ok(self.score(row)? >= 0.5)
    }

    /// Scores for every row of a matrix: [`Classifier::score`] mapped
    /// over the rows in order. No model overrides it, so each model's
    /// `score` is its only scoring code, and the contract callers build
    /// on (checked by `tests/score_batch_agreement.rs`) follows:
    ///
    /// * **bit-identical** to the per-row path — same values (to the
    ///   bit, including NaN propagation) and same first error;
    /// * **per-row pure** — row `i`'s score depends only on row `i`, so
    ///   any partition of the rows scored independently and
    ///   concatenated in order equals the single batch (the property
    ///   the partition-parallel scoring pipeline in `lts-core` builds
    ///   on);
    /// * an **empty matrix yields an empty vector** without calling
    ///   `score`, even on an unfitted model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::score`].
    fn score_batch(&self, x: &Matrix) -> LearnResult<Vec<f64>> {
        let mut out = Vec::with_capacity(x.rows());
        for row in x.iter_rows() {
            out.push(self.score(row)?);
        }
        Ok(out)
    }

    /// Short display name ("knn", "rf", "nn", "random", …).
    fn name(&self) -> &'static str;
}

/// Validate a (features, labels) pair before fitting.
///
/// # Errors
///
/// Returns an error for empty or mismatched training data or non-finite
/// features.
pub fn validate_training(x: &Matrix, y: &[bool]) -> LearnResult<()> {
    if x.is_empty() {
        return Err(crate::error::LearnError::EmptyTrainingSet);
    }
    if x.rows() != y.len() {
        return Err(crate::error::LearnError::LengthMismatch {
            rows: x.rows(),
            labels: y.len(),
        });
    }
    x.check_finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dummy::ConstantScore;

    #[test]
    fn default_predict_thresholds_score() {
        let c = ConstantScore::new(0.7);
        assert!(c.predict(&[0.0]).unwrap());
        let c = ConstantScore::new(0.3);
        assert!(!c.predict(&[0.0]).unwrap());
    }

    #[test]
    fn score_batch_maps_rows() {
        let c = ConstantScore::new(0.25);
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(c.score_batch(&x).unwrap(), vec![0.25, 0.25]);
    }

    #[test]
    fn validation_catches_problems() {
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(validate_training(&x, &[true]).is_ok());
        assert!(validate_training(&x, &[true, false]).is_err());
        assert!(validate_training(&Matrix::empty(2), &[]).is_err());
        let bad = Matrix::from_rows(&[vec![f64::INFINITY]]).unwrap();
        assert!(validate_training(&bad, &[true]).is_err());
    }
}
