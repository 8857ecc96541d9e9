//! Classification metrics: confusion matrix, rates, accuracy.
//!
//! The true/false-positive rates feed QLAC's adjusted count (Eq. 2);
//! accuracy quantifies "classifier quality" for Figures 6–7.

use crate::error::{LearnError, LearnResult};

/// A binary confusion matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Accumulate one (prediction, truth) pair.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / t as f64
        }
    }

    /// True-positive rate (recall); `None` when no actual positives.
    pub fn tpr(&self) -> Option<f64> {
        let pos = self.tp + self.fn_;
        if pos == 0 {
            None
        } else {
            Some(self.tp as f64 / pos as f64)
        }
    }

    /// False-positive rate; `None` when no actual negatives.
    pub fn fpr(&self) -> Option<f64> {
        let neg = self.fp + self.tn;
        if neg == 0 {
            None
        } else {
            Some(self.fp as f64 / neg as f64)
        }
    }
}

/// Build a confusion matrix from aligned prediction/truth slices.
///
/// # Errors
///
/// Returns an error on length mismatch.
pub fn confusion(predicted: &[bool], actual: &[bool]) -> LearnResult<ConfusionMatrix> {
    if predicted.len() != actual.len() {
        return Err(LearnError::LengthMismatch {
            rows: predicted.len(),
            labels: actual.len(),
        });
    }
    let mut m = ConfusionMatrix::default();
    for (&p, &a) in predicted.iter().zip(actual) {
        m.record(p, a);
    }
    Ok(m)
}

/// Plain accuracy.
///
/// # Errors
///
/// Returns an error on length mismatch or empty input.
pub fn accuracy(predicted: &[bool], actual: &[bool]) -> LearnResult<f64> {
    if predicted.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    Ok(confusion(predicted, actual)?.accuracy())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let pred = [true, true, false, false, true];
        let act = [true, false, false, true, true];
        let m = confusion(&pred, &act).unwrap();
        assert_eq!(m.tp, 2);
        assert_eq!(m.fp, 1);
        assert_eq!(m.tn, 1);
        assert_eq!(m.fn_, 1);
        assert_eq!(m.total(), 5);
        assert!((m.accuracy() - 0.6).abs() < 1e-12);
        assert!((m.tpr().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.fpr().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_undefined_without_class() {
        let m = confusion(&[true, false], &[false, false]).unwrap();
        assert!(m.tpr().is_none());
        assert!(m.fpr().is_some());
        let m = confusion(&[true, false], &[true, true]).unwrap();
        assert!(m.fpr().is_none());
    }

    #[test]
    fn accuracy_validation() {
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[true], &[true, false]).is_err());
        assert!((accuracy(&[true, false], &[true, true]).unwrap() - 0.5).abs() < 1e-12);
    }
}
