//! Error types for the learning substrate.

use std::fmt;

/// Errors produced by classifiers and learning utilities.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// Training data was empty.
    EmptyTrainingSet,
    /// Features and labels have different lengths.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A feature vector had the wrong dimensionality.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Found dimensionality.
        found: usize,
    },
    /// The model has not been fitted yet.
    NotFitted,
    /// An invalid hyperparameter.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Description of the violation.
        message: String,
    },
    /// Training data contained NaN or infinite features.
    NonFiniteFeature {
        /// Row of the offending value.
        row: usize,
        /// Column of the offending value.
        col: usize,
    },
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::EmptyTrainingSet => write!(f, "training set is empty"),
            LearnError::LengthMismatch { rows, labels } => {
                write!(f, "feature rows ({rows}) and labels ({labels}) differ")
            }
            LearnError::DimensionMismatch { expected, found } => {
                write!(f, "expected {expected}-dimensional input, got {found}")
            }
            LearnError::NotFitted => write!(f, "model has not been fitted"),
            LearnError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            LearnError::NonFiniteFeature { row, col } => {
                write!(f, "non-finite feature at row {row}, column {col}")
            }
        }
    }
}

impl std::error::Error for LearnError {}

/// Convenience result alias.
pub type LearnResult<T> = Result<T, LearnError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_contain_context() {
        assert!(LearnError::NotFitted.to_string().contains("fitted"));
        let e = LearnError::DimensionMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains('4'));
        let e = LearnError::NonFiniteFeature { row: 3, col: 1 };
        assert!(e.to_string().contains('3'));
    }
}
