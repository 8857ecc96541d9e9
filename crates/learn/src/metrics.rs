//! Classification metrics: confusion matrix, rates, accuracy, AUC.
//!
//! The true/false-positive rates feed QLAC's adjusted count (Eq. 2);
//! accuracy and AUC quantify "classifier quality" for Figures 6–7.

use crate::error::{LearnError, LearnResult};
use serde::{Deserialize, Serialize};

/// A binary confusion matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
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

    /// Precision; `None` when nothing was predicted positive.
    pub fn precision(&self) -> Option<f64> {
        let pred_pos = self.tp + self.fp;
        if pred_pos == 0 {
            None
        } else {
            Some(self.tp as f64 / pred_pos as f64)
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

/// Area under the ROC curve from scores and labels (rank statistic /
/// Mann–Whitney with midrank tie handling).
///
/// # Errors
///
/// Returns an error on length mismatch or when one class is absent.
pub fn auc(scores: &[f64], actual: &[bool]) -> LearnResult<f64> {
    if scores.len() != actual.len() {
        return Err(LearnError::LengthMismatch {
            rows: scores.len(),
            labels: actual.len(),
        });
    }
    let pos = actual.iter().filter(|&&a| a).count();
    let neg = actual.len() - pos;
    if pos == 0 || neg == 0 {
        return Err(LearnError::InvalidParameter {
            name: "actual",
            message: "AUC needs both classes present".into(),
        });
    }
    // Midrank computation.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            if actual[idx] {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let pos_f = pos as f64;
    let neg_f = neg as f64;
    Ok((rank_sum_pos - pos_f * (pos_f + 1.0) / 2.0) / (pos_f * neg_f))
}

/// Brier score (mean squared error of scores against 0/1 labels).
///
/// # Errors
///
/// Returns an error on empty input or length mismatch.
pub fn brier(scores: &[f64], actual: &[bool]) -> LearnResult<f64> {
    if scores.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    if scores.len() != actual.len() {
        return Err(LearnError::LengthMismatch {
            rows: scores.len(),
            labels: actual.len(),
        });
    }
    Ok(scores
        .iter()
        .zip(actual)
        .map(|(&s, &a)| {
            let t = if a { 1.0 } else { 0.0 };
            (s - t) * (s - t)
        })
        .sum::<f64>()
        / scores.len() as f64)
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
        assert!((m.precision().unwrap() - 2.0 / 3.0).abs() < 1e-12);
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
    fn merge_adds() {
        let mut a = confusion(&[true], &[true]).unwrap();
        let b = confusion(&[false], &[true]).unwrap();
        a.merge(&b);
        assert_eq!(a.tp, 1);
        assert_eq!(a.fn_, 1);
    }

    #[test]
    fn auc_perfect_and_random() {
        let labels = [false, false, true, true];
        assert!((auc(&[0.1, 0.2, 0.8, 0.9], &labels).unwrap() - 1.0).abs() < 1e-12);
        assert!((auc(&[0.9, 0.8, 0.2, 0.1], &labels).unwrap() - 0.0).abs() < 1e-12);
        // Constant scores → AUC 0.5 via midranks.
        assert!((auc(&[0.5, 0.5, 0.5, 0.5], &labels).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_needs_both_classes() {
        assert!(auc(&[0.5, 0.6], &[true, true]).is_err());
        assert!(auc(&[0.5], &[true, false]).is_err());
    }

    #[test]
    fn brier_bounds() {
        let perfect = brier(&[0.0, 1.0], &[false, true]).unwrap();
        assert!(perfect.abs() < 1e-12);
        let worst = brier(&[1.0, 0.0], &[false, true]).unwrap();
        assert!((worst - 1.0).abs() < 1e-12);
        assert!(brier(&[], &[]).is_err());
    }

    #[test]
    fn accuracy_validation() {
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[true], &[true, false]).is_err());
        assert!((accuracy(&[true, false], &[true, true]).unwrap() - 0.5).abs() < 1e-12);
    }
}
