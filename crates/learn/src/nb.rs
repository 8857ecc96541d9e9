//! Gaussian Naive Bayes.
//!
//! Not in the paper's lineup, but §3.2 stresses that the methods "can
//! work with any" classifier exposing a confidence score; NB is the
//! cheapest fully probabilistic family and widens the classifier-quality
//! sweep of Figures 6–7. Each feature is modelled per class as an
//! independent Gaussian; the score is the posterior `P(q(o)=1 | x)`.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;

/// Gaussian-NB hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianNbConfig {
    /// Portion of the largest per-feature variance added to every
    /// variance for numerical stability (sklearn's `var_smoothing`).
    pub var_smoothing: f64,
}

impl Default for GaussianNbConfig {
    fn default() -> Self {
        Self {
            var_smoothing: 1e-9,
        }
    }
}

/// Per-class sufficient statistics: one Gaussian per feature.
#[derive(Debug, Clone, Default)]
struct ClassStats {
    log_prior: f64,
    means: Vec<f64>,
    vars: Vec<f64>,
}

impl ClassStats {
    /// Joint log-likelihood `log P(class) + Σ log N(x_j; μ_j, σ²_j)`.
    fn log_joint(&self, row: &[f64]) -> f64 {
        let mut ll = self.log_prior;
        for ((&x, &m), &v) in row.iter().zip(&self.means).zip(&self.vars) {
            let d = x - m;
            ll += -0.5 * ((2.0 * std::f64::consts::PI * v).ln() + d * d / v);
        }
        ll
    }
}

/// A fitted Gaussian Naive Bayes classifier.
#[derive(Debug, Clone, Default)]
pub struct GaussianNb {
    config: GaussianNbConfig,
    /// `None` for a class absent from training (single-class data).
    pos: Option<ClassStats>,
    neg: Option<ClassStats>,
    dims: usize,
    fitted: bool,
}

impl GaussianNb {
    /// Create an unfitted model.
    pub fn new(config: GaussianNbConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Fitted per-feature means of the positive class, if any positives
    /// were seen in training.
    pub fn positive_means(&self) -> Option<&[f64]> {
        self.pos.as_ref().map(|s| s.means.as_slice())
    }
}

/// Mean and (population) variance per column over the selected rows.
fn column_moments(x: &Matrix, idx: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let d = x.cols();
    let n = idx.len() as f64;
    let mut means = vec![0.0; d];
    for &i in idx {
        for (m, &v) in means.iter_mut().zip(x.row(i)) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut vars = vec![0.0; d];
    for &i in idx {
        for ((s, &v), &m) in vars.iter_mut().zip(x.row(i)).zip(&means) {
            let dlt = v - m;
            *s += dlt * dlt;
        }
    }
    for s in &mut vars {
        *s /= n;
    }
    (means, vars)
}

impl Classifier for GaussianNb {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        if !(self.config.var_smoothing > 0.0 && self.config.var_smoothing.is_finite()) {
            return Err(LearnError::InvalidParameter {
                name: "var_smoothing",
                message: format!(
                    "must be a positive finite number, got {}",
                    self.config.var_smoothing
                ),
            });
        }
        self.dims = x.cols();
        let n = x.rows();
        let pos_idx: Vec<usize> = (0..n).filter(|&i| y[i]).collect();
        let neg_idx: Vec<usize> = (0..n).filter(|&i| !y[i]).collect();

        // Global smoothing floor: a fraction of the largest overall
        // feature variance, so constant features don't divide by zero.
        let all: Vec<usize> = (0..n).collect();
        let (_, gvars) = column_moments(x, &all);
        let floor = self.config.var_smoothing * gvars.iter().cloned().fold(1.0, f64::max);

        let stats_for = |idx: &[usize]| -> Option<ClassStats> {
            if idx.is_empty() {
                return None;
            }
            let (means, mut vars) = column_moments(x, idx);
            for v in &mut vars {
                *v += floor;
            }
            Some(ClassStats {
                log_prior: (idx.len() as f64 / n as f64).ln(),
                means,
                vars,
            })
        };
        self.pos = stats_for(&pos_idx);
        self.neg = stats_for(&neg_idx);
        self.fitted = true;
        Ok(())
    }

    fn score(&self, row: &[f64]) -> LearnResult<f64> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        if row.len() != self.dims {
            return Err(LearnError::DimensionMismatch {
                expected: self.dims,
                found: row.len(),
            });
        }
        match (&self.pos, &self.neg) {
            (Some(p), Some(q)) => {
                let (lp, lq) = (p.log_joint(row), q.log_joint(row));
                // Posterior via the log-sum-exp trick.
                let m = lp.max(lq);
                let (ep, eq) = ((lp - m).exp(), (lq - m).exp());
                Ok(ep / (ep + eq))
            }
            // Single-class training data: the score collapses to the
            // prior (1 or 0), per the `Classifier::fit` contract.
            (Some(_), None) => Ok(1.0),
            (None, Some(_)) => Ok(0.0),
            (None, None) => Err(LearnError::NotFitted),
        }
    }

    fn name(&self) -> &'static str {
        "gnb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs along the first axis, exactly mirrored
    /// about 0 so the midpoint posterior is 0.5 by symmetry.
    fn blobs() -> (Matrix, Vec<bool>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let jitter = f64::from(i % 11) * 0.05 - 0.25;
            rows.push(vec![-2.0 + jitter, f64::from(i % 5)]);
            y.push(false);
            rows.push(vec![2.0 - jitter, f64::from(i % 5)]);
            y.push(true);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn separates_gaussian_blobs() {
        let (x, y) = blobs();
        let mut m = GaussianNb::default();
        m.fit(&x, &y).unwrap();
        let correct = x
            .iter_rows()
            .enumerate()
            .filter(|(i, row)| m.predict(row).unwrap() == y[*i])
            .count();
        assert_eq!(correct, y.len(), "blobs are linearly separable");
        assert!(m.score(&[2.0, 2.0]).unwrap() > 0.99);
        assert!(m.score(&[-2.0, 2.0]).unwrap() < 0.01);
    }

    #[test]
    fn score_is_calibrated_posterior_at_midpoint() {
        let (x, y) = blobs();
        let mut m = GaussianNb::default();
        m.fit(&x, &y).unwrap();
        // Equidistant from both symmetric blobs with balanced priors.
        let s = m.score(&[0.0, 2.0]).unwrap();
        assert!((s - 0.5).abs() < 0.05, "midpoint posterior {s}");
    }

    #[test]
    fn positive_means_recovered() {
        let (x, y) = blobs();
        let mut m = GaussianNb::default();
        m.fit(&x, &y).unwrap();
        let means = m.positive_means().unwrap();
        assert!((means[0] - 2.0).abs() < 0.3);
    }

    #[test]
    fn single_class_collapses_to_constant() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mut m = GaussianNb::default();
        m.fit(&x, &[true, true, true]).unwrap();
        assert_eq!(m.score(&[-100.0]).unwrap(), 1.0);
        m.fit(&x, &[false, false, false]).unwrap();
        assert_eq!(m.score(&[100.0]).unwrap(), 0.0);
    }

    #[test]
    fn constant_features_do_not_blow_up() {
        let x = Matrix::from_rows(&[
            vec![1.0, 5.0],
            vec![1.0, 5.0],
            vec![1.0, 5.0],
            vec![1.0, 5.0],
        ])
        .unwrap();
        let y = vec![true, false, true, false];
        let mut m = GaussianNb::default();
        m.fit(&x, &y).unwrap();
        let s = m.score(&[1.0, 5.0]).unwrap();
        assert!(s.is_finite());
        assert!((s - 0.5).abs() < 1e-9, "no signal → prior 0.5, got {s}");
    }

    #[test]
    fn unbalanced_priors_shift_the_boundary() {
        // 90% negatives: the midpoint should now lean negative.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let jitter = f64::from(i % 7) * 0.1;
            if i < 90 {
                rows.push(vec![-1.0 + jitter]);
                y.push(false);
            } else {
                rows.push(vec![1.0 + jitter]);
                y.push(true);
            }
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut m = GaussianNb::default();
        m.fit(&x, &y).unwrap();
        assert!(m.score(&[0.0]).unwrap() < 0.5);
    }

    #[test]
    fn errors() {
        let m = GaussianNb::default();
        assert!(matches!(m.score(&[0.0]), Err(LearnError::NotFitted)));
        let mut m = GaussianNb::default();
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        m.fit(&x, &[true, false]).unwrap();
        assert!(matches!(
            m.score(&[1.0]),
            Err(LearnError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
        let mut bad = GaussianNb::new(GaussianNbConfig { var_smoothing: 0.0 });
        assert!(bad.fit(&x, &[true, false]).is_err());
        assert_eq!(m.name(), "gnb");
    }
}
