//! Estimate reports and phase timings.

use lts_sampling::CountEstimate;
use std::time::Duration;

/// Wall-time breakdown of one estimation run, matching the paper's
/// Figure-3 phases.
///
/// `labeling` is the time spent inside the expensive predicate `q`
/// (the dominant cost the approach amortizes); the other fields are the
/// *overheads* the figure reports: `learn` (P1 learning: classifier
/// training, excluding the labeling of its training set), `design`
/// (P1 sample design: pilot indexing, variance estimates, strata
/// layout, allocation), and `phase2` (P2 overhead: scoring the
/// population, ordering, and the sampling machinery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// P1 Learning overhead (classifier fitting).
    pub learn: Duration,
    /// P1 Sample-design overhead (stratification + allocation).
    pub design: Duration,
    /// P2 overhead (scoring, ordering, draw machinery, estimation).
    pub phase2: Duration,
    /// Cumulative time inside `q`.
    pub labeling: Duration,
    /// Total wall time of the run.
    pub total: Duration,
}

impl PhaseTimings {
    /// Total overhead (everything except labeling).
    pub fn overhead(&self) -> Duration {
        self.learn + self.design + self.phase2
    }

    /// Overhead as a fraction of total runtime (the paper reports
    /// ≈ 0.2%).
    pub fn overhead_fraction(&self) -> f64 {
        let t = self.total.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.overhead().as_secs_f64() / t
        }
    }
}

/// A pre-sampling forecast of estimate quality (the paper's concluding
/// future-work sketch: "use the performance characteristics of the
/// underlying classifier during the second phase of sampling to produce
/// an estimate on the quality of the estimate").
///
/// LSS can evaluate its design objective — Eq. (4), the estimated
/// variance of the stratified estimator — with the pilot-estimated
/// within-stratum deviations and the chosen allocation *before any
/// stage-2 label is drawn*. A user can inspect the forecast and abort
/// or re-budget a run whose design cannot reach the accuracy they need.
#[derive(Debug, Clone, Copy)]
pub struct QualityForecast {
    /// Predicted standard error of the final count estimate.
    pub predicted_se: f64,
    /// Predicted confidence-interval halfwidth at the problem's level.
    pub predicted_halfwidth: f64,
    /// Stage-2 samples the forecast assumes.
    pub stage2_samples: usize,
}

/// The result of one estimation run.
#[derive(Debug, Clone)]
pub struct EstimateReport {
    /// The count estimate with its interval.
    pub estimate: CountEstimate,
    /// Whether the interval is statistically meaningful (quantification
    /// learning produces point estimates only).
    pub has_interval: bool,
    /// Unique `q` evaluations consumed.
    pub evals: usize,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Estimator name.
    pub estimator: String,
    /// Free-form notes (e.g. "QLAC fell back to QLCC: tpr ≈ fpr").
    pub notes: Vec<String>,
    /// Design-time quality forecast (estimators with a design stage:
    /// LSS; `None` elsewhere).
    pub forecast: Option<QualityForecast>,
}

impl EstimateReport {
    /// The point estimate.
    pub fn count(&self) -> f64 {
        self.estimate.count
    }
}

/// Incremental phase timer used by estimator implementations: tracks
/// wall time per phase and attributes in-predicate time to `labeling`.
#[derive(Debug)]
pub(crate) struct PhaseTimer {
    start: std::time::Instant,
    timings: PhaseTimings,
}

impl PhaseTimer {
    pub(crate) fn new() -> Self {
        Self {
            start: std::time::Instant::now(),
            timings: PhaseTimings::default(),
        }
    }

    /// Run `f` attributed to a phase; label time accumulated inside is
    /// subtracted from the phase and credited to `labeling`.
    ///
    /// Label time is measured with the **thread-local** in-predicate
    /// clock ([`lts_table::thread_labeling_nanos`]), not the problem's
    /// shared meter — so attribution stays exact per run even when
    /// other trials label concurrently on other threads (the parallel
    /// trial runner).
    pub(crate) fn phase<T>(&mut self, which: Phase, f: impl FnOnce() -> T) -> T {
        let label_before = lts_table::thread_labeling_nanos();
        let t0 = std::time::Instant::now();
        let out = f();
        let wall = t0.elapsed();
        let label_delta = std::time::Duration::from_nanos(
            lts_table::thread_labeling_nanos().saturating_sub(label_before),
        );
        let overhead = wall.saturating_sub(label_delta);
        self.timings.labeling += label_delta;
        match which {
            Phase::Learn => self.timings.learn += overhead,
            Phase::Design => self.timings.design += overhead,
            Phase::Phase2 => self.timings.phase2 += overhead,
        }
        out
    }

    pub(crate) fn finish(mut self) -> PhaseTimings {
        self.timings.total = self.start.elapsed();
        self.timings
    }
}

/// Phases for [`PhaseTimer::phase`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Learn,
    Design,
    Phase2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fraction() {
        let t = PhaseTimings {
            learn: Duration::from_millis(1),
            design: Duration::from_millis(2),
            phase2: Duration::from_millis(1),
            labeling: Duration::from_millis(996),
            total: Duration::from_millis(1000),
        };
        assert_eq!(t.overhead(), Duration::from_millis(4));
        assert!((t.overhead_fraction() - 0.004).abs() < 1e-9);
        let zero = PhaseTimings::default();
        assert_eq!(zero.overhead_fraction(), 0.0);
    }
}
