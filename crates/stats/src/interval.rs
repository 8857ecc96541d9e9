//! Confidence intervals for proportions and means.
//!
//! Implements the interval machinery of the paper's §3.1: the Wald
//! interval with finite-population correction for simple random sampling,
//! the Wilson interval recommended for extreme selectivities, and
//! normal/t intervals for general estimators (stratified, Des Raj).

use crate::error::{StatsError, StatsResult};
use crate::normal::z_critical;
use crate::student::t_critical;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Construct an interval, normalizing the bound order.
    pub fn new(lo: f64, hi: f64, level: f64) -> Self {
        if lo <= hi {
            Self { lo, hi, level }
        } else {
            Self {
                lo: hi,
                hi: lo,
                level,
            }
        }
    }

    /// Width (`hi - lo`) of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint of the interval.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }

    /// Scale both endpoints by a constant (e.g. proportion → count).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self::new(self.lo * factor, self.hi * factor, self.level)
    }

    /// Clamp the interval to `[lo_bound, hi_bound]`.
    #[must_use]
    pub fn clamped(&self, lo_bound: f64, hi_bound: f64) -> Self {
        Self::new(
            self.lo.clamp(lo_bound, hi_bound),
            self.hi.clamp(lo_bound, hi_bound),
            self.level,
        )
    }
}

/// Which proportion-interval construction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntervalKind {
    /// Wald (normal approximation) interval — the paper's default.
    #[default]
    Wald,
    /// Wilson score interval — more reliable for extreme selectivities.
    Wilson,
}

/// Finite-population correction factor `√((N − n) / (N − 1))`.
///
/// Returns 1.0 when no population size is given, and 0.0 for a census
/// (`n == N`).
pub fn fpc(n: usize, population: Option<usize>) -> f64 {
    match population {
        Some(pop) if pop > 1 => {
            let num = pop.saturating_sub(n) as f64;
            (num / (pop - 1) as f64).sqrt()
        }
        Some(_) => 0.0,
        None => 1.0,
    }
}

/// Wald confidence interval for a proportion estimated from an SRS of
/// size `n` (optionally without replacement from a population of
/// `population`, applying the finite-population correction).
///
/// The interval is `p̂ ± z_{α/2} √(p̂(1−p̂)/n) · √((N−n)/(N−1))`,
/// clamped to `[0, 1]`.
///
/// # Errors
///
/// Returns an error for `n == 0`, `p̂ ∉ [0, 1]`, or an invalid level.
pub fn wald_proportion(
    p_hat: f64,
    n: usize,
    population: Option<usize>,
    level: f64,
) -> StatsResult<ConfidenceInterval> {
    if n == 0 {
        return Err(StatsError::InvalidSampleSize { n, population });
    }
    if !(0.0..=1.0).contains(&p_hat) {
        return Err(StatsError::InvalidProbability { value: p_hat });
    }
    let z = z_critical(level)?;
    let se = (p_hat * (1.0 - p_hat) / n as f64).sqrt() * fpc(n, population);
    Ok(ConfidenceInterval::new(p_hat - z * se, p_hat + z * se, level).clamped(0.0, 1.0))
}

/// Wilson score interval for a proportion with `successes` out of `n`
/// trials.
///
/// More reliable than Wald when the proportion is close to 0 or 1 (the
/// caveat the paper raises for highly selective predicates). The
/// optional population triggers a finite-population shrinkage of the
/// half-width (the standard FPC heuristic for Wilson).
///
/// # Errors
///
/// Returns an error for `n == 0`, `successes > n`, or invalid level.
pub fn wilson_proportion(
    successes: usize,
    n: usize,
    population: Option<usize>,
    level: f64,
) -> StatsResult<ConfidenceInterval> {
    if n == 0 || successes > n {
        return Err(StatsError::InvalidSampleSize { n, population });
    }
    let z = z_critical(level)?;
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * nf)) / nf).sqrt() / denom;
    let half = half * fpc(n, population);
    Ok(ConfidenceInterval::new(center - half, center + half, level).clamped(0.0, 1.0))
}

/// Normal-approximation interval `x̄ ± z_{α/2} · se`.
///
/// # Errors
///
/// Returns an error for non-finite arguments or an invalid level.
pub fn normal_interval(mean: f64, se: f64, level: f64) -> StatsResult<ConfidenceInterval> {
    if !mean.is_finite() {
        return Err(StatsError::NonFinite {
            name: "mean",
            value: mean,
        });
    }
    if !se.is_finite() || se < 0.0 {
        return Err(StatsError::NonFinite {
            name: "se",
            value: se,
        });
    }
    let z = z_critical(level)?;
    Ok(ConfidenceInterval::new(mean - z * se, mean + z * se, level))
}

/// Student-t interval `x̄ ± t_{α/2, df} · se`.
///
/// Used by stratified estimators where the variance is itself estimated;
/// paper §3.1. If `df` is very large this converges to the normal
/// interval.
///
/// # Errors
///
/// Returns an error for non-finite arguments, invalid level, or `df <= 0`.
pub fn t_interval(mean: f64, se: f64, df: f64, level: f64) -> StatsResult<ConfidenceInterval> {
    if !mean.is_finite() {
        return Err(StatsError::NonFinite {
            name: "mean",
            value: mean,
        });
    }
    if !se.is_finite() || se < 0.0 {
        return Err(StatsError::NonFinite {
            name: "se",
            value: se,
        });
    }
    let t = t_critical(level, df)?;
    Ok(ConfidenceInterval::new(mean - t * se, mean + t * se, level))
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
    fn interval_basics() {
        let ci = ConfidenceInterval::new(3.0, 1.0, 0.95);
        assert_eq!(ci.lo, 1.0);
        assert_eq!(ci.hi, 3.0);
        assert_close(ci.width(), 2.0, 1e-12);
        assert_close(ci.midpoint(), 2.0, 1e-12);
        assert!(ci.contains(2.5));
        assert!(!ci.contains(0.5));
        let scaled = ci.scaled(10.0);
        assert_close(scaled.lo, 10.0, 1e-12);
        assert_close(scaled.hi, 30.0, 1e-12);
    }

    #[test]
    fn wald_textbook_example() {
        // p̂ = 0.5, n = 100, 95%: half-width = 1.96 * 0.05 ≈ 0.098.
        let ci = wald_proportion(0.5, 100, None, 0.95).unwrap();
        assert_close(ci.width(), 2.0 * 1.959_963_985 * 0.05, 1e-6);
        assert!(ci.contains(0.5));
    }

    #[test]
    fn wald_fpc_shrinks_interval() {
        let without = wald_proportion(0.3, 100, None, 0.95).unwrap();
        let with = wald_proportion(0.3, 100, Some(200), 0.95).unwrap();
        assert!(with.width() < without.width());
        // Census: width 0.
        let census = wald_proportion(0.3, 200, Some(200), 0.95).unwrap();
        assert_close(census.width(), 0.0, 1e-12);
    }

    #[test]
    fn wald_clamps_to_unit_interval() {
        let ci = wald_proportion(0.01, 20, None, 0.99).unwrap();
        assert!(ci.lo >= 0.0);
        let ci = wald_proportion(0.99, 20, None, 0.99).unwrap();
        assert!(ci.hi <= 1.0);
    }

    #[test]
    fn wilson_reference_value() {
        // Known Wilson interval: k=8, n=10, 95% -> approx (0.49, 0.943).
        let ci = wilson_proportion(8, 10, None, 0.95).unwrap();
        assert_close(ci.lo, 0.49, 0.01);
        assert_close(ci.hi, 0.943, 0.01);
    }

    #[test]
    fn wilson_never_degenerates_at_extremes() {
        // Unlike Wald, Wilson gives a nonzero-width interval at p̂ = 0.
        let wald = wald_proportion(0.0, 50, None, 0.95).unwrap();
        let wilson = wilson_proportion(0, 50, None, 0.95).unwrap();
        assert_close(wald.width(), 0.0, 1e-12);
        assert!(wilson.width() > 0.0);
        assert!(wilson.lo >= 0.0);
    }

    #[test]
    fn t_interval_wider_than_normal_for_small_df() {
        let norm = normal_interval(10.0, 2.0, 0.95).unwrap();
        let t5 = t_interval(10.0, 2.0, 5.0, 0.95).unwrap();
        assert!(t5.width() > norm.width());
        let t_big = t_interval(10.0, 2.0, 1e6, 0.95).unwrap();
        assert_close(t_big.width(), norm.width(), 1e-3);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(wald_proportion(0.5, 0, None, 0.95).is_err());
        assert!(wald_proportion(1.5, 10, None, 0.95).is_err());
        assert!(wilson_proportion(11, 10, None, 0.95).is_err());
        assert!(normal_interval(f64::NAN, 1.0, 0.95).is_err());
        assert!(normal_interval(0.0, -1.0, 0.95).is_err());
        assert!(t_interval(0.0, 1.0, 0.0, 0.95).is_err());
    }

    #[test]
    fn fpc_limits() {
        assert_close(fpc(10, None), 1.0, 1e-12);
        assert_close(fpc(10, Some(10)), 0.0, 1e-12);
        assert!(fpc(10, Some(1_000_000)) > 0.999);
    }

    #[test]
    fn higher_level_gives_wider_interval() {
        let ci90 = wald_proportion(0.4, 50, None, 0.90).unwrap();
        let ci99 = wald_proportion(0.4, 50, None, 0.99).unwrap();
        assert!(ci99.width() > ci90.width());
    }
}
