//! Degenerate classifiers for robustness experiments.
//!
//! [`RandomScores`] reproduces the paper's "dummy classifier (Random)
//! that generated arbitrary random probabilities" (§5.4.4) — the worst
//! case for LSS, where the score-induced ordering carries no information.
//! Scores are a deterministic hash of the feature vector and seed so that
//! an object keeps the same (meaningless) score across calls, which is
//! what scoring an object pool requires.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;

/// Classifier returning uniform pseudo-random scores independent of the
/// training data.
#[derive(Debug, Clone)]
pub struct RandomScores {
    seed: u64,
    fitted: bool,
}

impl RandomScores {
    /// Create with a seed (scores are a pure function of seed + features).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            fitted: false,
        }
    }
}

impl Classifier for RandomScores {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        self.fitted = true;
        Ok(())
    }

    fn score(&self, row: &[f64]) -> LearnResult<f64> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        // SplitMix64-style hash over the feature bits.
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for &v in row {
            h ^= v.to_bits();
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
        }
        Ok((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Classifier returning one constant score (edge-case testing: all
/// objects tie in the LSS ordering; LWS weights become uniform).
#[derive(Debug, Clone)]
pub struct ConstantScore {
    value: f64,
}

impl ConstantScore {
    /// Create with the constant score `value` (clamped to `[0, 1]`).
    pub fn new(value: f64) -> Self {
        Self {
            value: value.clamp(0.0, 1.0),
        }
    }
}

impl Classifier for ConstantScore {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)
    }

    fn score(&self, _row: &[f64]) -> LearnResult<f64> {
        Ok(self.value)
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scores_are_deterministic_per_object() {
        let mut c = RandomScores::new(42);
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        c.fit(&x, &[true]).unwrap();
        let a = c.score(&[3.0, 4.0]).unwrap();
        let b = c.score(&[3.0, 4.0]).unwrap();
        assert_eq!(a, b);
        let other = c.score(&[3.0, 4.1]).unwrap();
        assert_ne!(a, other);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn random_scores_are_roughly_uniform() {
        let mut c = RandomScores::new(7);
        let x = Matrix::from_rows(&[vec![0.0]]).unwrap();
        c.fit(&x, &[true]).unwrap();
        let n = 10_000;
        let mut sum = 0.0;
        let mut below_half = 0usize;
        for i in 0..n {
            let s = c.score(&[f64::from(i)]).unwrap();
            sum += s;
            if s < 0.5 {
                below_half += 1;
            }
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let frac = below_half as f64 / f64::from(n);
        assert!((frac - 0.5).abs() < 0.02, "frac below 0.5: {frac}");
    }

    #[test]
    fn different_seeds_differ() {
        let x = Matrix::from_rows(&[vec![0.0]]).unwrap();
        let mut a = RandomScores::new(1);
        let mut b = RandomScores::new(2);
        a.fit(&x, &[true]).unwrap();
        b.fit(&x, &[true]).unwrap();
        assert_ne!(a.score(&[5.0]).unwrap(), b.score(&[5.0]).unwrap());
    }

    #[test]
    fn unfitted_errors() {
        let c = RandomScores::new(0);
        assert!(matches!(c.score(&[0.0]), Err(LearnError::NotFitted)));
        assert_eq!(c.name(), "random");
    }

    #[test]
    fn constant_clamps_and_returns() {
        let c = ConstantScore::new(1.7);
        assert_eq!(c.score(&[0.0]).unwrap(), 1.0);
        let c = ConstantScore::new(0.5);
        assert_eq!(c.score(&[1.0, 2.0, 3.0]).unwrap(), 0.5);
        assert_eq!(c.name(), "constant");
    }
}
