//! SRS: simple random sampling (paper §3.1).

use super::{check_budget, CountEstimator};
use crate::error::CoreResult;
use crate::problem::{CountingProblem, Labeler};
use crate::report::{EstimateReport, PhaseClock};
use lts_obs::Phase;
use lts_sampling::{sample_without_replacement, srs_count_estimate};
use lts_stats::IntervalKind;
use rand::rngs::StdRng;

/// Simple random sampling: draw `budget` objects without replacement,
/// evaluate `q`, report `pˆN` with a Wald (default) or Wilson interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Srs {
    /// Interval construction.
    pub interval: IntervalKind,
}

impl CountEstimator for Srs {
    fn name(&self) -> &'static str {
        "SRS"
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        check_budget(problem, budget)?;
        let mut clock = PhaseClock::new();
        let mut labeler = Labeler::new(problem);
        let estimate = clock.phase(Phase::Stage2, || -> CoreResult<_> {
            let draws = sample_without_replacement(rng, budget, problem.n())?;
            let labels = labeler.label_batch(&draws)?;
            Ok(srs_count_estimate(
                &labels,
                problem.n(),
                problem.level(),
                self.interval,
            )?)
        })?;
        Ok(EstimateReport {
            estimate,
            has_interval: true,
            evals: labeler.unique_evals(),
            timings: clock.finish(),
            estimator: self.name().into(),
            notes: Vec::new(),
            forecast: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests_support::line_problem;
    use rand::SeedableRng;

    #[test]
    fn estimates_near_truth_and_respects_budget() {
        let problem = line_problem(500, 0.3);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let est = Srs::default();
        let mut rng = StdRng::seed_from_u64(5);
        let r = est.estimate(&problem, 100, &mut rng).unwrap();
        assert_eq!(r.evals, 100);
        assert!(problem.predicate_stats().evals <= 100);
        assert!(
            (r.count() - truth).abs() < 100.0,
            "{} vs {truth}",
            r.count()
        );
        assert!(r.has_interval);
        assert!(r.estimate.interval.lo <= r.estimate.interval.hi);
    }

    #[test]
    fn census_budget_is_exact() {
        let problem = line_problem(80, 0.25);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let mut rng = StdRng::seed_from_u64(1);
        let r = Srs::default().estimate(&problem, 80, &mut rng).unwrap();
        assert!((r.count() - truth).abs() < 1e-9);
        assert!(r.estimate.std_error < 1e-9);
    }

    #[test]
    fn budget_validation() {
        let problem = line_problem(10, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Srs::default().estimate(&problem, 0, &mut rng).is_err());
        assert!(Srs::default().estimate(&problem, 11, &mut rng).is_err());
    }

    #[test]
    fn unbiased_over_trials() {
        let problem = line_problem(200, 0.4);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Srs::default();
        let mut sum = 0.0;
        let trials = 500;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(1000 + t);
            sum += est.estimate(&problem, 40, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials as u32);
        assert!((mean - truth).abs() < 4.0, "mean {mean} vs truth {truth}");
    }
}
