//! Repeated-trial experiment runner.
//!
//! The paper evaluates estimators by their *estimate distributions* over
//! repeated runs (violin plots summarized by IQR, §5). This runner
//! executes `trials` independent runs with per-trial seeds and produces
//! the summary statistics every repro binary prints.
//!
//! Trials are independent by construction — trial `t` builds its own
//! `StdRng::seed_from_u64(base_seed + t)` and its own [`Labeler`] cache
//! — so [`run_trials`] fans them out across threads. Because each
//! trial's randomness is fully determined by its seed and results are
//! collected in trial order, the parallel path is **bit-identical** to
//! [`TrialExecution::Sequential`] (asserted by
//! `tests/scoring_thread_sweep.rs`). Each trial's [`PhaseTimings`] come
//! from its estimator's phase clock, which reads the eval and
//! labeling-time counters of the thread the trial runs on
//! ([`lts_obs::phase`]) — never the problem's shared meter — so trials
//! labeling side by side do not charge each other's time.
//!
//! [`Labeler`]: crate::problem::Labeler

use crate::error::CoreResult;
use crate::estimators::CountEstimator;
use crate::problem::CountingProblem;
use crate::report::{EstimateReport, PhaseTimings};
use lts_stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Duration;

/// How [`run_trials_with`] schedules its independent trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialExecution {
    /// One trial at a time on the calling thread: the reference the
    /// parallel path must match bit for bit, and the schedule for
    /// uncontended wall-time measurements, where concurrent trials
    /// competing for cores would stretch every duration. (Figure 3
    /// times its runs in a loop of its own, not through this runner.)
    Sequential,
    /// Trials fan out across threads (the default). Estimates, evals,
    /// coverage, and RMSE are bit-identical to `Sequential`. Per-phase
    /// attribution stays exact too (each trial's phase clock is its
    /// thread's), but the *magnitudes* of timings can stretch under
    /// core contention.
    #[default]
    Parallel,
}

/// Summary of repeated estimation trials.
#[derive(Debug, Clone)]
pub struct TrialStats {
    /// Per-trial point estimates.
    pub estimates: Vec<f64>,
    /// Five-number summary of the estimates.
    pub summary: Summary,
    /// Mean unique `q` evaluations per trial.
    pub mean_evals: f64,
    /// Mean per-phase timings.
    pub mean_timings: PhaseTimings,
    /// Fraction of trials whose interval covered the truth (`None`
    /// without ground truth or for interval-less estimators).
    pub coverage: Option<f64>,
    /// Root-mean-squared error against the truth (`None` without truth).
    pub rmse: Option<f64>,
    /// Tukey outliers (beyond 1.5·IQR) among the estimates.
    pub outliers: usize,
}

impl TrialStats {
    /// Interquartile range of the estimate distribution — the paper's
    /// headline spread metric.
    pub fn iqr(&self) -> f64 {
        self.summary.iqr()
    }

    /// Median estimate.
    pub fn median(&self) -> f64 {
        self.summary.median
    }
}

/// Run `trials` independent estimates in parallel. Each trial uses seed
/// `base_seed + trial`; the problem's predicate meter is reset once at
/// the start (it accumulates across all trials — read per-trial unique
/// evals from the reports, not the shared meter).
///
/// # Errors
///
/// Propagates the first (in trial order) estimator failure.
pub fn run_trials(
    problem: &CountingProblem,
    estimator: &dyn CountEstimator,
    budget: usize,
    trials: usize,
    base_seed: u64,
    truth: Option<f64>,
) -> CoreResult<TrialStats> {
    run_trials_with(
        problem,
        estimator,
        budget,
        trials,
        base_seed,
        truth,
        TrialExecution::default(),
    )
}

/// [`run_trials`] with an explicit execution mode.
///
/// # Errors
///
/// Propagates the first (in trial order) estimator failure.
pub fn run_trials_with(
    problem: &CountingProblem,
    estimator: &dyn CountEstimator,
    budget: usize,
    trials: usize,
    base_seed: u64,
    truth: Option<f64>,
    execution: TrialExecution,
) -> CoreResult<TrialStats> {
    problem.reset_meter();
    let one_trial = |t: usize| -> CoreResult<EstimateReport> {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(t as u64));
        estimator.estimate(problem, budget, &mut rng)
    };
    let reports: Vec<CoreResult<EstimateReport>> = match execution {
        TrialExecution::Sequential => (0..trials).map(one_trial).collect(),
        TrialExecution::Parallel => (0..trials).into_par_iter().map(one_trial).collect(),
    };
    summarize(reports, estimator.provides_interval(), truth)
}

/// Fold per-trial reports (in trial order) into [`TrialStats`].
fn summarize(
    reports: Vec<CoreResult<EstimateReport>>,
    interval_ok: bool,
    truth: Option<f64>,
) -> CoreResult<TrialStats> {
    let trials = reports.len();
    let mut estimates = Vec::with_capacity(trials);
    let mut covered = 0usize;
    let mut eval_sum = 0usize;
    let mut sse = 0.0f64;
    let mut t_learn = Duration::ZERO;
    let mut t_design = Duration::ZERO;
    let mut t_phase2 = Duration::ZERO;
    let mut t_label = Duration::ZERO;
    let mut t_total = Duration::ZERO;

    for report in reports {
        let report = report?;
        if let Some(truth) = truth {
            if interval_ok && report.estimate.interval.contains(truth) {
                covered += 1;
            }
            let d = report.count() - truth;
            sse += d * d;
        }
        eval_sum += report.evals;
        t_learn += report.timings.learn;
        t_design += report.timings.design;
        t_phase2 += report.timings.phase2;
        t_label += report.timings.labeling;
        t_total += report.timings.total;
        estimates.push(report.count());
    }

    let summary = Summary::from_slice(&estimates)?;
    let outliers = summary.tukey_outliers(&estimates);
    let tf = trials.max(1) as u32;
    Ok(TrialStats {
        outliers,
        mean_evals: eval_sum as f64 / f64::from(tf),
        mean_timings: PhaseTimings {
            learn: t_learn / tf,
            design: t_design / tf,
            phase2: t_phase2 / tf,
            labeling: t_label / tf,
            total: t_total / tf,
        },
        coverage: truth.map(|_| {
            if interval_ok {
                covered as f64 / f64::from(tf)
            } else {
                f64::NAN
            }
        }),
        rmse: truth.map(|_| (sse / f64::from(tf)).sqrt()),
        summary,
        estimates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::Srs;
    use crate::problem::tests_support::line_problem;

    #[test]
    fn runs_trials_and_summarizes() {
        let problem = line_problem(300, 0.3);
        let truth = problem.exact_count().unwrap() as f64;
        let stats = run_trials(&problem, &Srs::default(), 60, 50, 42, Some(truth)).unwrap();
        assert_eq!(stats.estimates.len(), 50);
        assert!((stats.median() - truth).abs() < 30.0);
        assert!(stats.iqr() >= 0.0);
        assert!((stats.mean_evals - 60.0).abs() < 1e-9);
        let coverage = stats.coverage.unwrap();
        assert!(coverage > 0.7, "coverage {coverage}");
        assert!(stats.rmse.unwrap() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = line_problem(200, 0.4);
        let a = run_trials(&problem, &Srs::default(), 40, 10, 7, None).unwrap();
        let b = run_trials(&problem, &Srs::default(), 40, 10, 7, None).unwrap();
        assert_eq!(a.estimates, b.estimates);
        let c = run_trials(&problem, &Srs::default(), 40, 10, 8, None).unwrap();
        assert_ne!(a.estimates, c.estimates);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let problem = line_problem(250, 0.35);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Srs::default();
        let seq = run_trials_with(
            &problem,
            &est,
            50,
            16,
            99,
            Some(truth),
            TrialExecution::Sequential,
        )
        .unwrap();
        let par = run_trials_with(
            &problem,
            &est,
            50,
            16,
            99,
            Some(truth),
            TrialExecution::Parallel,
        )
        .unwrap();
        // Bit-identical, not approximately equal.
        assert_eq!(seq.estimates, par.estimates);
        assert_eq!(seq.coverage, par.coverage);
        assert_eq!(seq.rmse, par.rmse);
        assert_eq!(seq.mean_evals, par.mean_evals);
        assert_eq!(seq.outliers, par.outliers);
    }

    #[test]
    fn meter_accumulates_across_trials() {
        let problem = line_problem(120, 0.5);
        problem.reset_meter();
        let stats = run_trials(&problem, &Srs::default(), 30, 4, 3, None).unwrap();
        assert!((stats.mean_evals - 30.0).abs() < 1e-9);
        // The shared meter holds the total across all trials.
        assert_eq!(problem.predicate_stats().evals, 4 * 30);
    }

    #[test]
    fn no_truth_no_metrics() {
        let problem = line_problem(100, 0.5);
        let stats = run_trials(&problem, &Srs::default(), 20, 5, 1, None).unwrap();
        assert!(stats.coverage.is_none());
        assert!(stats.rmse.is_none());
    }
}
