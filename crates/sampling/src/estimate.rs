//! The common estimate type returned by all samplers.

use lts_stats::ConfidenceInterval;

/// A count estimate with its uncertainty.
///
/// All estimators in this workspace ultimately produce one of these:
/// a point estimate of `C(O, q)`, a standard error in count units, and a
/// confidence interval (whose construction — Wald, Wilson, or t — depends
/// on the estimator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountEstimate {
    /// Point estimate of the count.
    pub count: f64,
    /// Standard error of the count estimate.
    pub std_error: f64,
    /// Two-sided confidence interval for the count.
    pub interval: ConfidenceInterval,
    /// Degrees of freedom behind `std_error` when `interval` is a
    /// t-interval (stratified, Des Raj); `None` for normal/Wald/Wilson
    /// constructions and exact counts.
    pub df: Option<f64>,
}

impl CountEstimate {
    /// A degenerate (exact) estimate with zero uncertainty.
    pub fn exact(count: f64, level: f64) -> Self {
        Self {
            count,
            std_error: 0.0,
            interval: ConfidenceInterval::new(count, count, level),
            df: None,
        }
    }

    /// Shift the estimate by a known constant (e.g. adding the exactly
    /// counted positives from a labeled subset).
    #[must_use]
    pub fn shifted(&self, offset: f64) -> Self {
        Self {
            count: self.count + offset,
            std_error: self.std_error,
            interval: ConfidenceInterval::new(
                self.interval.lo + offset,
                self.interval.hi + offset,
                self.interval.level,
            ),
            df: self.df,
        }
    }

    /// Relative error against a known ground truth.
    pub fn relative_error(&self, truth: f64) -> f64 {
        if truth == 0.0 {
            self.count.abs()
        } else {
            (self.count - truth).abs() / truth.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_has_zero_width() {
        let e = CountEstimate::exact(42.0, 0.95);
        assert_eq!(e.count, 42.0);
        assert_eq!(e.interval.width(), 0.0);
        assert!(e.interval.contains(42.0));
    }

    #[test]
    fn shifting_moves_everything() {
        let e = CountEstimate {
            count: 10.0,
            std_error: 2.0,
            interval: ConfidenceInterval::new(6.0, 14.0, 0.95),
            df: Some(7.0),
        };
        let s = e.shifted(5.0);
        assert_eq!(s.count, 15.0);
        assert_eq!(s.interval.lo, 11.0);
        assert_eq!(s.interval.hi, 19.0);
        assert_eq!(s.std_error, 2.0);
        assert_eq!(s.df, Some(7.0));
    }

    #[test]
    fn relative_error_handles_zero_truth() {
        let e = CountEstimate::exact(3.0, 0.95);
        assert_eq!(e.relative_error(0.0), 3.0);
        assert!((e.relative_error(4.0) - 0.25).abs() < 1e-12);
    }
}
