//! SSP: stratified sampling with proportional allocation over a
//! surrogate-attribute grid (paper §3.1).
//!
//! The paper stratifies on "attributes of o whose values are readily
//! available and likely correlated with the outcome of q(o)" — for 2-d
//! queries, a grid over the two feature dimensions.

use super::{check_budget, CountEstimator};
use crate::error::{CoreError, CoreResult};
use crate::problem::{CountingProblem, Labeler};
use crate::report::{EstimateReport, PhaseClock};
use crate::scoring::surrogate_grid_strata;
use lts_obs::Phase;
use lts_sampling::{
    draw_stratified, proportional_allocation, stratified_count_estimate, StratumSample,
};
use rand::rngs::StdRng;

/// Stratified sampling with proportional allocation over a
/// `grid.0 × grid.1` grid of the two feature dimensions
/// `feature_dims`.
#[derive(Debug, Clone, Copy)]
pub struct Ssp {
    /// Grid dimensions (strata count = product, before empty-cell
    /// removal).
    pub grid: (usize, usize),
    /// Which two feature columns to grid (indices into the problem's
    /// feature columns).
    pub feature_dims: (usize, usize),
    /// Minimum samples per (non-empty) stratum.
    pub min_per_stratum: usize,
}

impl Default for Ssp {
    /// 2×2 grid (4 strata, the paper's default) over features 0 and 1.
    fn default() -> Self {
        Self {
            grid: (2, 2),
            feature_dims: (0, 1),
            min_per_stratum: 1,
        }
    }
}

impl Ssp {
    /// A grid with roughly `h` strata (side = √h, e.g. 4 → 2×2,
    /// 9 → 3×3).
    pub fn with_strata(h: usize) -> Self {
        let side = (h as f64).sqrt().round().max(1.0) as usize;
        Self {
            grid: (side, side),
            ..Self::default()
        }
    }

    /// Build the surrogate strata: grid-cell member lists, empty cells
    /// dropped. Delegates to the shared scoring pipeline's
    /// column-at-a-time surrogate projection
    /// ([`crate::scoring::surrogate_grid_strata`]).
    pub(crate) fn build_strata(&self, problem: &CountingProblem) -> CoreResult<Vec<Vec<usize>>> {
        surrogate_grid_strata(problem, self.grid, self.feature_dims)
    }
}

impl CountEstimator for Ssp {
    fn name(&self) -> &'static str {
        "SSP"
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

        let strata = clock.phase(Phase::Design, || self.build_strata(problem))?;
        if budget < strata.len() * self.min_per_stratum.max(1) {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: strata.len() * self.min_per_stratum.max(1),
                reason: format!("{} non-empty strata need samples", strata.len()),
            });
        }
        let sizes: Vec<usize> = strata.iter().map(Vec::len).collect();
        let alloc = clock.phase(Phase::Design, || {
            proportional_allocation(&sizes, budget, self.min_per_stratum)
        })?;

        let estimate = clock.phase(Phase::Stage2, || -> CoreResult<_> {
            let draws = draw_stratified(rng, &strata, &alloc)?;
            let mut samples = Vec::with_capacity(strata.len());
            for (members, drawn) in strata.iter().zip(&draws) {
                let positives = labeler.count_positives(drawn)?;
                samples.push(StratumSample {
                    population: members.len(),
                    sampled: drawn.len(),
                    positives,
                });
            }
            Ok(stratified_count_estimate(&samples, problem.level())?)
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
    fn stratification_helps_on_correlated_feature() {
        // With x as both feature and predicate driver, grid strata are
        // nearly homogeneous → tighter than SRS on average.
        let problem = line_problem(400, 0.3);
        let truth = problem.exact_count().unwrap() as f64;
        // SSP needs 2 feature dims; line_problem has 1 → grid on (0, 0).
        let est = Ssp {
            grid: (8, 1),
            feature_dims: (0, 0),
            min_per_stratum: 1,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let r = est.estimate(&problem, 80, &mut rng).unwrap();
        assert!(r.evals <= 80);
        assert!((r.count() - truth).abs() < 60.0);
    }

    #[test]
    fn unbiased_over_trials() {
        let problem = line_problem(240, 0.25);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Ssp {
            grid: (4, 1),
            feature_dims: (0, 0),
            min_per_stratum: 1,
        };
        let mut sum = 0.0;
        let trials = 400u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(7000 + u64::from(t));
            sum += est.estimate(&problem, 48, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 4.0, "mean {mean} vs {truth}");
    }

    #[test]
    fn with_strata_builds_square_grids() {
        assert_eq!(Ssp::with_strata(4).grid, (2, 2));
        assert_eq!(Ssp::with_strata(9).grid, (3, 3));
        assert_eq!(Ssp::with_strata(100).grid, (10, 10));
    }

    #[test]
    fn budget_and_config_validation() {
        let problem = line_problem(100, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let est = Ssp {
            grid: (10, 1),
            feature_dims: (0, 0),
            min_per_stratum: 2,
        };
        // 10 strata × 2 minimum > budget 5.
        assert!(est.estimate(&problem, 5, &mut rng).is_err());
        let bad_dims = Ssp {
            feature_dims: (0, 3),
            ..Ssp::default()
        };
        assert!(bad_dims.estimate(&problem, 50, &mut rng).is_err());
    }
}
