//! Order-statistic and moment summaries.
//!
//! The paper's evaluation reports estimator quality through the
//! interquartile range of the estimate distribution over repeated trials
//! (§5, "IQR ... is less sensitive to outliers"); this module provides
//! those summaries plus a streaming Welford accumulator used by the
//! estimators themselves.

use crate::error::{StatsError, StatsResult};

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; used wherever an estimator needs
/// running moments (e.g. the Des Raj ordered estimates).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`None` if fewer than 2 observations).
    pub fn sample_variance(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some(self.m2 / (self.n - 1) as f64)
        }
    }

    /// Population variance (`None` if empty).
    pub fn population_variance(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.m2 / self.n as f64)
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

/// Arithmetic mean of a slice.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] on an empty slice.
pub fn mean(xs: &[f64]) -> StatsResult<f64> {
    if xs.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance of a slice.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if fewer than two elements.
pub fn sample_variance(xs: &[f64]) -> StatsResult<f64> {
    if xs.len() < 2 {
        return Err(StatsError::EmptyInput);
    }
    let mut acc = RunningStats::new();
    for &x in xs {
        acc.push(x);
    }
    Ok(acc.sample_variance().expect("n >= 2"))
}

/// Linear-interpolation quantile (Hyndman–Fan type 7, the NumPy/Pandas
/// default) of **sorted** data.
///
/// # Errors
///
/// Returns an error for empty input or `q ∉ [0, 1]`.
pub fn quantile_type7(sorted: &[f64], q: f64) -> StatsResult<f64> {
    if sorted.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidProbability { value: q });
    }
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let h = (n - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Median of unsorted data.
///
/// # Errors
///
/// Returns an error on empty input.
pub fn median(xs: &[f64]) -> StatsResult<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_type7(&v, 0.5)
}

/// First, second (median), and third quartiles of unsorted data.
///
/// # Errors
///
/// Returns an error on empty input.
pub fn quartiles(xs: &[f64]) -> StatsResult<(f64, f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok((
        quantile_type7(&v, 0.25)?,
        quantile_type7(&v, 0.5)?,
        quantile_type7(&v, 0.75)?,
    ))
}

/// Interquartile range (Q3 − Q1), the paper's spread metric.
///
/// # Errors
///
/// Returns an error on empty input.
pub fn iqr(xs: &[f64]) -> StatsResult<f64> {
    let (q1, _, q3) = quartiles(xs)?;
    Ok(q3 - q1)
}

/// A five-number-plus summary of a sample: the per-cell statistic the
/// reproduction harness prints for every figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation (0 when n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample.
    ///
    /// # Errors
    ///
    /// Returns an error on empty input.
    pub fn from_slice(xs: &[f64]) -> StatsResult<Self> {
        if xs.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let mut acc = RunningStats::new();
        for &x in &v {
            acc.push(x);
        }
        Ok(Self {
            n: v.len(),
            mean: acc.mean(),
            std: acc.sample_std().unwrap_or(0.0),
            min: v[0],
            q1: quantile_type7(&v, 0.25)?,
            median: quantile_type7(&v, 0.5)?,
            q3: quantile_type7(&v, 0.75)?,
            max: *v.last().expect("non-empty"),
        })
    }

    /// Interquartile range (Q3 − Q1).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Count of Tukey outliers (beyond 1.5·IQR past the quartiles) in `xs`.
    pub fn tukey_outliers(&self, xs: &[f64]) -> usize {
        let lo = self.q1 - 1.5 * self.iqr();
        let hi = self.q3 + 1.5 * self.iqr();
        xs.iter().filter(|&&x| x < lo || x > hi).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64) {
        assert!(
            (got - want).abs() <= tol,
            "got {got}, want {want} (tol {tol})"
        );
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = RunningStats::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_close(acc.mean(), 5.0, 1e-12);
        assert_close(acc.population_variance().unwrap(), 4.0, 1e-12);
        assert_close(acc.sample_variance().unwrap(), 32.0 / 7.0, 1e-12);
        assert_eq!(acc.count(), 8);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_close(left.mean(), whole.mean(), 1e-10);
        assert_close(
            left.sample_variance().unwrap(),
            whole.sample_variance().unwrap(),
            1e-10,
        );
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantile_matches_numpy_type7() {
        // numpy.percentile([1,2,3,4], [25,50,75]) = [1.75, 2.5, 3.25]
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_close(quantile_type7(&v, 0.25).unwrap(), 1.75, 1e-12);
        assert_close(quantile_type7(&v, 0.5).unwrap(), 2.5, 1e-12);
        assert_close(quantile_type7(&v, 0.75).unwrap(), 3.25, 1e-12);
        assert_close(quantile_type7(&v, 0.0).unwrap(), 1.0, 1e-12);
        assert_close(quantile_type7(&v, 1.0).unwrap(), 4.0, 1e-12);
    }

    #[test]
    fn quartiles_and_iqr() {
        let xs = [7.0, 15.0, 36.0, 39.0, 40.0, 41.0];
        let (q1, med, q3) = quartiles(&xs).unwrap();
        assert_close(q1, 20.25, 1e-12);
        assert_close(med, 37.5, 1e-12);
        assert_close(q3, 39.75, 1e-12);
        assert_close(iqr(&xs).unwrap(), 19.5, 1e-12);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_close(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0, 1e-12);
        assert_close(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5, 1e-12);
        assert_close(median(&[5.0]).unwrap(), 5.0, 1e-12);
    }

    #[test]
    fn summary_from_slice() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        let s = Summary::from_slice(&xs).unwrap();
        assert_eq!(s.n, 5);
        assert_close(s.min, 1.0, 1e-12);
        assert_close(s.max, 100.0, 1e-12);
        assert_close(s.median, 3.0, 1e-12);
        assert_eq!(s.tukey_outliers(&xs), 1);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(median(&[]).is_err());
        assert!(iqr(&[]).is_err());
        assert!(Summary::from_slice(&[]).is_err());
        assert!(quantile_type7(&[], 0.5).is_err());
        assert!(sample_variance(&[1.0]).is_err());
    }

    #[test]
    fn quantile_rejects_bad_q() {
        assert!(quantile_type7(&[1.0, 2.0], -0.1).is_err());
        assert!(quantile_type7(&[1.0, 2.0], 1.1).is_err());
    }
}
