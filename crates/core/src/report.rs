//! Estimate reports and the phase clock that times them.
//!
//! Every estimator runs its phases through one `PhaseClock`: each
//! phase is tagged with an [`lts_obs::Phase`], which scopes the oracle
//! evaluations made inside it (the service's per-phase eval counters and
//! trace events) and picks the Figure-3 bucket its wall time lands in.
//! Labeling time is read off the calling thread's labeling clock
//! ([`lts_obs::phase::thread_label_nanos`]), so attribution stays exact
//! per run even while other trials label concurrently on other threads.

use lts_obs::{phase, trace, Phase, TraceEvent};
use lts_sampling::CountEstimate;
use std::time::{Duration, Instant};

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

/// The phase clock of one estimation run: wall time per Figure-3
/// bucket, with labeling time credited to `labeling`.
#[derive(Debug)]
pub(crate) struct PhaseClock {
    start: Instant,
    timings: PhaseTimings,
}

impl PhaseClock {
    pub(crate) fn new() -> Self {
        Self {
            start: Instant::now(),
            timings: PhaseTimings::default(),
        }
    }

    /// Run `f` as phase `p`: its oracle evaluations are charged to `p`,
    /// the labeling time the calling thread spent inside it to
    /// `labeling`, and the rest of its wall time to `p`'s Figure-3
    /// bucket (`Train` → learn; `Pilot`, `Design` → design; `Score`,
    /// `Stage2` → phase 2). When a trace collector is installed and `f`
    /// succeeds, the phase is reported as a `phase` event (`stage2`
    /// for [`Phase::Stage2`]) carrying its exact eval count — the
    /// labeler records once per batch on the calling thread — and its
    /// wall time, confined to `wall_nanos` per the determinism contract.
    pub(crate) fn phase<T, E>(
        &mut self,
        p: Phase,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let (evals_before, label_before) = (phase::thread_evals(), phase::thread_label_nanos());
        let t0 = Instant::now();
        let scope = phase::scope(p);
        let out = f();
        drop(scope);
        let wall = t0.elapsed();
        let labeling =
            Duration::from_nanos(phase::thread_label_nanos().saturating_sub(label_before));
        self.timings.labeling += labeling;
        let overhead = wall.saturating_sub(labeling);
        match p {
            Phase::Train => self.timings.learn += overhead,
            Phase::Pilot | Phase::Design => self.timings.design += overhead,
            _ => self.timings.phase2 += overhead,
        }
        if out.is_ok() && trace::collecting() {
            let evals = phase::delta(phase::thread_evals(), evals_before)[p as usize];
            let wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            trace::emit(match p {
                Phase::Stage2 => TraceEvent::Stage2 { evals, wall_nanos },
                _ => TraceEvent::Phase {
                    phase: p.name(),
                    evals,
                    wall_nanos,
                },
            });
        }
        out
    }

    pub(crate) fn finish(mut self) -> PhaseTimings {
        self.timings.total = self.start.elapsed();
        self.timings
    }
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
