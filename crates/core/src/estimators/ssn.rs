//! SSN: two-stage stratified sampling with Neyman allocation
//! (paper §3.1).
//!
//! Stage 1 draws a pilot SRS and estimates each stratum's standard
//! deviation; stage 2 allocates the remaining budget by Neyman
//! (`n_h ∝ N_h·S_h`) with the footnote-1 rebalancing. Pilot labels are
//! exact, so the final estimate counts them exactly and estimates only
//! the un-labeled remainder of each stratum (keeping the estimator
//! unbiased; see ARCHITECTURE.md decision 2).

use super::{check_budget, CountEstimator};
use crate::error::{CoreError, CoreResult};
use crate::problem::{CountingProblem, Labeler};
use crate::report::{EstimateReport, PhaseClock};
use lts_obs::Phase;
use lts_sampling::{
    draw_stratified, neyman_allocation, sample_without_replacement, stratified_count_estimate,
    StratumSample,
};
use rand::rngs::StdRng;

/// Two-stage stratified sampling with Neyman allocation over a
/// surrogate-attribute grid.
#[derive(Debug, Clone, Copy)]
pub struct Ssn {
    /// Grid dimensions.
    pub grid: (usize, usize),
    /// Which two feature columns to grid.
    pub feature_dims: (usize, usize),
    /// Fraction of the budget used for the stage-1 pilot.
    pub pilot_frac: f64,
    /// Minimum stage-2 samples per stratum with room.
    pub min_per_stratum: usize,
}

impl Default for Ssn {
    fn default() -> Self {
        Self {
            grid: (2, 2),
            feature_dims: (0, 1),
            pilot_frac: 0.3,
            min_per_stratum: 1,
        }
    }
}

impl CountEstimator for Ssn {
    fn name(&self) -> &'static str {
        "SSN"
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        check_budget(problem, budget)?;
        if !(0.0..1.0).contains(&self.pilot_frac) || self.pilot_frac <= 0.0 {
            return Err(CoreError::InvalidConfig {
                message: format!("pilot_frac must be in (0, 1), got {}", self.pilot_frac),
            });
        }
        let mut clock = PhaseClock::new();
        let mut labeler = Labeler::new(problem);

        // Reuse SSP's surrogate-grid construction (which itself runs
        // through the shared columnar pipeline in `crate::scoring`).
        let ssp = super::Ssp {
            grid: self.grid,
            feature_dims: self.feature_dims,
            min_per_stratum: self.min_per_stratum,
        };
        let strata = clock.phase(Phase::Design, || ssp.build_strata(problem))?;
        let h = strata.len();

        let pilot_n = ((budget as f64 * self.pilot_frac).round() as usize).max(h.min(budget / 2));
        let stage2_budget = budget.saturating_sub(pilot_n);
        if stage2_budget < h * self.min_per_stratum.max(1) {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: pilot_n + h * self.min_per_stratum.max(1),
                reason: format!("stage 2 needs ≥ {} samples over {h} strata", h),
            });
        }

        // Stage 1: overall SRS pilot; bucket pilots into strata.
        let mut stratum_of = vec![0usize; problem.n()];
        for (s, members) in strata.iter().enumerate() {
            for &i in members {
                stratum_of[i] = s;
            }
        }
        let (pilot_members, s_hats) = clock.phase(Phase::Pilot, || -> CoreResult<_> {
            let pilot = sample_without_replacement(rng, pilot_n, problem.n())?;
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); h];
            for &i in &pilot {
                members[stratum_of[i]].push(i);
            }
            let mut s_hats = Vec::with_capacity(h);
            for m in &members {
                let positives = labeler.count_positives(m)?;
                let sample = StratumSample {
                    population: m.len().max(1),
                    sampled: m.len(),
                    positives,
                };
                // Smoothed s: avoid starving strata whose pilot
                // happened to be homogeneous (footnote-1 rationale).
                s_hats.push(sample.s_for_allocation());
            }
            Ok((members, s_hats))
        })?;

        // Stage 2: Neyman allocation over the unlabeled remainder.
        let available: Vec<usize> = strata
            .iter()
            .zip(&pilot_members)
            .map(|(m, p)| m.len() - p.len())
            .collect();
        let alloc = clock.phase(Phase::Design, || {
            neyman_allocation(&available, &s_hats, stage2_budget, self.min_per_stratum)
        })?;

        let (estimate, pilot_positives) = clock.phase(Phase::Stage2, || -> CoreResult<_> {
            // Remaining members per stratum (excluding pilots).
            let mut remainder: Vec<Vec<usize>> = Vec::with_capacity(h);
            for (members, pilots) in strata.iter().zip(&pilot_members) {
                let pset: std::collections::HashSet<usize> = pilots.iter().copied().collect();
                remainder.push(
                    members
                        .iter()
                        .copied()
                        .filter(|i| !pset.contains(i))
                        .collect(),
                );
            }
            let draws = draw_stratified(rng, &remainder, &alloc)?;
            let mut samples = Vec::with_capacity(h);
            for (rem, drawn) in remainder.iter().zip(&draws) {
                let positives = labeler.count_positives(drawn)?;
                samples.push(StratumSample {
                    population: rem.len(),
                    sampled: drawn.len(),
                    positives,
                });
            }
            let mut pilot_pos = 0usize;
            for m in &pilot_members {
                pilot_pos += labeler.count_positives(m)?; // cached
            }
            Ok((
                stratified_count_estimate(&samples, problem.level())?,
                pilot_pos,
            ))
        })?;

        Ok(EstimateReport {
            estimate: estimate.shifted(pilot_positives as f64),
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

    fn ssn_1d(grid: usize) -> Ssn {
        Ssn {
            grid: (grid, 1),
            feature_dims: (0, 0),
            pilot_frac: 0.3,
            min_per_stratum: 1,
        }
    }

    #[test]
    fn estimates_and_respects_budget() {
        let problem = line_problem(400, 0.3);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let mut rng = StdRng::seed_from_u64(3);
        let r = ssn_1d(4).estimate(&problem, 80, &mut rng).unwrap();
        assert!(r.evals <= 80, "evals {}", r.evals);
        assert!((r.count() - truth).abs() < 80.0);
        assert!(r.has_interval);
    }

    #[test]
    fn unbiased_over_trials() {
        let problem = line_problem(300, 0.35);
        let truth = problem.exact_count().unwrap() as f64;
        let est = ssn_1d(3);
        let mut sum = 0.0;
        let trials = 400u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(9000 + u64::from(t));
            sum += est.estimate(&problem, 60, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 6.0, "mean {mean} vs {truth}");
    }

    #[test]
    fn validation() {
        let problem = line_problem(100, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let bad_frac = Ssn {
            pilot_frac: 0.0,
            ..ssn_1d(2)
        };
        assert!(bad_frac.estimate(&problem, 50, &mut rng).is_err());
        // Budget too small for stage 2.
        let est = ssn_1d(8);
        assert!(est.estimate(&problem, 9, &mut rng).is_err());
    }
}
