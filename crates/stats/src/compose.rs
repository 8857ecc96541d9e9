//! Variance composition for sums of independent estimators.
//!
//! A count assembled from parts — one estimator per disjoint
//! sub-population, each on its own seed stream — is their **sum**.
//! The parts being independent, the variance of the sum is exactly the
//! sum of the variances:
//!
//! ```text
//! X = Σ_k X_k        Var(X) = Σ_k Var(X_k)
//! ```
//!
//! In proportion units this is the familiar stratified form
//! `Var(p̂) = Σ_k w_k² Var(p̂_k)` with `w_k = N_k / N` — multiplying
//! through by `N²` turns each `w_k² Var(p̂_k)` term into the part's
//! count-unit variance, so summing count-unit variances **is** the
//! weighted composition (no separate weighting step, no post-hoc
//! widening).
//!
//! Degrees of freedom compose by Welch–Satterthwaite:
//!
//! ```text
//! df ≈ (Σ_k v_k)² / Σ_k v_k²/df_k        v_k = Var(X_k)
//! ```
//!
//! Components with unknown (treated as infinite) degrees of freedom
//! contribute variance but no denominator mass; when *every* component
//! is df-free, the composed interval falls back to the normal
//! approximation.

use crate::error::{StatsError, StatsResult};
use crate::interval::{normal_interval, t_interval, ConfidenceInterval};

/// One independent component of a composed estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Point estimate of this component (count units).
    pub value: f64,
    /// Variance of this component (count units squared).
    pub variance: f64,
    /// Degrees of freedom behind `variance`, if the component's own
    /// interval was a t-interval; `None` means "normal/unknown"
    /// (treated as infinite in the Welch–Satterthwaite composition).
    pub df: Option<f64>,
}

/// A composed estimate: the sum of independent components with exact
/// variance composition and Welch–Satterthwaite degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Composed {
    /// Sum of the component estimates.
    pub value: f64,
    /// Composed standard error `√(Σ Var_k)`.
    pub std_error: f64,
    /// Welch–Satterthwaite degrees of freedom (`None` when every
    /// component was df-free, or the composed variance is zero).
    pub df: Option<f64>,
    /// t-interval on the composed df (normal interval when `df` is
    /// `None`): exactly `value ± crit · std_error`, no widening.
    pub interval: ConfidenceInterval,
}

/// Welch–Satterthwaite effective degrees of freedom for a sum of
/// independent variance estimates.
///
/// `parts` are `(variance, df)` pairs; `df = None` means the variance
/// is treated as exactly known (infinite df, zero denominator mass).
/// Returns `None` when the denominator vanishes — all components
/// df-free or all variances zero — in which case the normal
/// approximation applies.
pub fn welch_satterthwaite(parts: &[(f64, Option<f64>)]) -> Option<f64> {
    let total: f64 = parts.iter().map(|&(v, _)| v).sum();
    let denom: f64 = parts
        .iter()
        .filter_map(|&(v, df)| df.map(|d| if d > 0.0 { v * v / d } else { 0.0 }))
        .sum();
    if denom > 0.0 && total > 0.0 {
        Some((total * total / denom).max(1.0))
    } else {
        None
    }
}

/// Compose independent component estimates into one estimate of their
/// sum.
///
/// The point estimate is `Σ value_k`, the variance is exactly
/// `Σ variance_k` (see the module docs for why this equals the
/// weighted stratified composition), and the interval is a t-interval
/// on the Welch–Satterthwaite df (normal when no component carries a
/// finite df). Components are summed in slice order, so the result is
/// bit-identical for a fixed component order regardless of how the
/// components were produced.
///
/// # Errors
///
/// Returns an error on an empty slice, non-finite values, negative
/// variances, non-positive df, or an invalid level.
pub fn compose_independent(parts: &[Component], level: f64) -> StatsResult<Composed> {
    if parts.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let mut value = 0.0;
    let mut variance = 0.0;
    for part in parts {
        if !part.value.is_finite() {
            return Err(StatsError::NonFinite {
                name: "value",
                value: part.value,
            });
        }
        if !part.variance.is_finite() || part.variance < 0.0 {
            return Err(StatsError::NonFinite {
                name: "variance",
                value: part.variance,
            });
        }
        if let Some(df) = part.df {
            if df.is_nan() || df <= 0.0 {
                return Err(StatsError::InvalidDegreesOfFreedom { value: df });
            }
        }
        value += part.value;
        variance += part.variance;
    }
    let std_error = variance.sqrt();
    let pairs: Vec<(f64, Option<f64>)> = parts.iter().map(|p| (p.variance, p.df)).collect();
    let df = welch_satterthwaite(&pairs);
    let interval = match df {
        Some(d) => t_interval(value, std_error, d, level)?,
        None => normal_interval(value, std_error, level)?,
    };
    Ok(Composed {
        value,
        std_error,
        df,
        interval,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::z_critical;
    use crate::student::t_critical;

    fn assert_close(got: f64, want: f64, tol: f64) {
        assert!(
            (got - want).abs() <= tol,
            "got {got}, want {want} (tol {tol})"
        );
    }

    #[test]
    fn single_component_round_trips() {
        let c = Component {
            value: 100.0,
            variance: 25.0,
            df: Some(12.0),
        };
        let out = compose_independent(&[c], 0.95).unwrap();
        assert_close(out.value, 100.0, 1e-12);
        assert_close(out.std_error, 5.0, 1e-12);
        // WS df of a single component is its own df.
        assert_close(out.df.unwrap(), 12.0, 1e-9);
        let t = t_critical(0.95, 12.0).unwrap();
        assert_close(out.interval.width(), 2.0 * t * 5.0, 1e-9);
    }

    #[test]
    fn variance_adds_exactly() {
        let parts = [
            Component {
                value: 10.0,
                variance: 4.0,
                df: Some(9.0),
            },
            Component {
                value: 20.0,
                variance: 9.0,
                df: Some(19.0),
            },
            Component {
                value: 5.0,
                variance: 0.0,
                df: Some(5.0),
            },
        ];
        let out = compose_independent(&parts, 0.95).unwrap();
        assert_close(out.value, 35.0, 1e-12);
        assert_close(out.std_error * out.std_error, 13.0, 1e-12);
        // Half-width is exactly crit · se — the "no silent widening"
        // contract.
        let crit = t_critical(0.95, out.df.unwrap()).unwrap();
        assert_close(out.interval.width(), 2.0 * crit * out.std_error, 1e-9);
    }

    #[test]
    fn welch_satterthwaite_textbook_case() {
        // Equal variances and df: WS df = 2·df... exactly
        // (v+v)²/(v²/d + v²/d) = 4v²·d/(2v²) = 2d.
        let df = welch_satterthwaite(&[(3.0, Some(7.0)), (3.0, Some(7.0))]).unwrap();
        assert_close(df, 14.0, 1e-9);
        // A dominant low-df component drags the composed df down
        // toward its own.
        let df = welch_satterthwaite(&[(100.0, Some(3.0)), (1.0, Some(1000.0))]).unwrap();
        assert!(df < 4.0, "dominant 3-df component, got {df}");
    }

    #[test]
    fn df_free_components_fall_back_to_normal() {
        let parts = [
            Component {
                value: 4.0,
                variance: 1.0,
                df: None,
            },
            Component {
                value: 6.0,
                variance: 3.0,
                df: None,
            },
        ];
        let out = compose_independent(&parts, 0.95).unwrap();
        assert!(out.df.is_none());
        let z = z_critical(0.95).unwrap();
        assert_close(out.interval.width(), 2.0 * z * 2.0, 1e-9);
    }

    #[test]
    fn mixed_df_uses_only_finite_components_in_denominator() {
        // One df-free component: its variance still widens the
        // interval, but contributes no denominator mass, raising the
        // composed df above the finite component's own.
        let parts = [
            Component {
                value: 1.0,
                variance: 2.0,
                df: Some(4.0),
            },
            Component {
                value: 1.0,
                variance: 2.0,
                df: None,
            },
        ];
        let out = compose_independent(&parts, 0.95).unwrap();
        let df = out.df.unwrap();
        assert_close(df, 16.0, 1e-9); // (4)²/(4/4) = 16
    }

    #[test]
    fn zero_total_variance_gives_degenerate_interval() {
        let parts = [
            Component {
                value: 7.0,
                variance: 0.0,
                df: None,
            },
            Component {
                value: 3.0,
                variance: 0.0,
                df: Some(2.0),
            },
        ];
        let out = compose_independent(&parts, 0.95).unwrap();
        assert!(out.df.is_none());
        assert_close(out.interval.width(), 0.0, 1e-12);
        assert_close(out.interval.midpoint(), 10.0, 1e-12);
    }

    #[test]
    fn rejects_invalid_components() {
        let good = Component {
            value: 1.0,
            variance: 1.0,
            df: Some(2.0),
        };
        assert!(compose_independent(&[], 0.95).is_err());
        for bad in [
            Component {
                value: f64::NAN,
                ..good
            },
            Component {
                variance: -1.0,
                ..good
            },
            Component {
                variance: f64::INFINITY,
                ..good
            },
            Component {
                df: Some(0.0),
                ..good
            },
        ] {
            assert!(compose_independent(&[bad], 0.95).is_err(), "{bad:?}");
        }
        assert!(compose_independent(&[good], 2.0).is_err());
    }

    #[test]
    fn composition_is_order_stable_for_fixed_order() {
        let parts: Vec<Component> = (0..16)
            .map(|i| Component {
                value: (i as f64).sin() * 100.0,
                variance: (i as f64).cos().abs() * 10.0,
                df: Some(5.0 + i as f64),
            })
            .collect();
        let a = compose_independent(&parts, 0.95).unwrap();
        let b = compose_independent(&parts, 0.95).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.interval.lo.to_bits(), b.interval.lo.to_bits());
    }
}
