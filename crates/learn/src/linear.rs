//! Logistic regression (gradient descent, L2-regularized).
//!
//! Not in the paper's classifier lineup, but a useful calibrated
//! baseline for the classifier-quality experiments (Figures 6–7) —
//! it sits between the random forest and the dummy Random classifier in
//! expressive power.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;
use crate::scaler::StandardScaler;

/// Logistic-regression hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticConfig {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self {
            iterations: 400,
            learning_rate: 0.5,
            l2: 1e-4,
        }
    }
}

/// A fitted logistic-regression classifier.
#[derive(Debug, Clone, Default)]
pub struct Logistic {
    config: LogisticConfig,
    scaler: Option<StandardScaler>,
    weights: Vec<f64>,
    bias: f64,
    fitted: bool,
}

impl Logistic {
    /// Create an unfitted model.
    pub fn new(config: LogisticConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The fitted coefficient vector (standardized feature space).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Classifier for Logistic {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x)?;
        let (n, d) = (xs.rows(), xs.cols());
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let lr = self.config.learning_rate;
        for _ in 0..self.config.iterations {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (i, row) in xs.iter_rows().enumerate() {
                let z = b + w.iter().zip(row).map(|(&wv, &xv)| wv * xv).sum::<f64>();
                let err = sigmoid(z) - if y[i] { 1.0 } else { 0.0 };
                for (g, &xv) in gw.iter_mut().zip(row) {
                    *g += err * xv;
                }
                gb += err;
            }
            let scale = 1.0 / n as f64;
            for (wv, g) in w.iter_mut().zip(&gw) {
                *wv -= lr * (g * scale + self.config.l2 * *wv);
            }
            b -= lr * gb * scale;
        }
        self.weights = w;
        self.bias = b;
        self.scaler = Some(scaler);
        self.fitted = true;
        Ok(())
    }

    fn score(&self, row: &[f64]) -> LearnResult<f64> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        let scaler = self.scaler.as_ref().ok_or(LearnError::NotFitted)?;
        let xs = scaler.transform_row(row)?;
        let z = self.bias
            + self
                .weights
                .iter()
                .zip(&xs)
                .map(|(&w, &x)| w * x)
                .sum::<f64>();
        Ok(sigmoid(z))
    }

    fn name(&self) -> &'static str {
        "logit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Matrix, Vec<bool>) {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![f64::from(i) / 10.0, f64::from(i % 10)])
            .collect();
        let y: Vec<bool> = rows.iter().map(|r| r[0] > 5.0).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn fits_separable_data() {
        let (x, y) = separable();
        let mut m = Logistic::default();
        m.fit(&x, &y).unwrap();
        let mut correct = 0;
        for (i, row) in x.iter_rows().enumerate() {
            if m.predict(row).unwrap() == y[i] {
                correct += 1;
            }
        }
        assert!(correct as f64 / y.len() as f64 > 0.95);
        // The informative feature should carry the weight.
        assert!(m.weights()[0].abs() > m.weights()[1].abs());
    }

    #[test]
    fn scores_monotone_along_informative_axis() {
        let (x, y) = separable();
        let mut m = Logistic::default();
        m.fit(&x, &y).unwrap();
        let lo = m.score(&[1.0, 5.0]).unwrap();
        let hi = m.score(&[9.0, 5.0]).unwrap();
        assert!(hi > lo);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn errors() {
        let m = Logistic::default();
        assert!(matches!(m.score(&[0.0]), Err(LearnError::NotFitted)));
        let mut m = Logistic::default();
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        m.fit(&x, &[true]).unwrap();
        assert!(m.score(&[1.0]).is_err());
        assert_eq!(m.name(), "logit");
    }
}
