//! LWS: Learned Weighted Sampling (paper §4.1).
//!
//! Phase 1 trains a classifier on an SRS of the budget's `train_frac`.
//! Phase 2 draws the remaining budget from `O \ S_L` **without
//! replacement** with probability proportional to `max(g(o), ε)` — the
//! ε floor guards against an overconfident classifier starving negative
//! objects — and feeds the draws to the Des Raj ordered estimator
//! (Eq. 3), which stays unbiased no matter how wrong the weights are.

use super::{check_budget, CountEstimator};
use crate::error::{CoreError, CoreResult};
use crate::learnphase::{learn_then_score, LearnPhaseConfig};
use crate::problem::{CountingProblem, Labeler};
use crate::report::{EstimateReport, PhaseClock};
use crate::scoring::ScoredPopulation;
use lts_obs::Phase;
use lts_sampling::{weighted_sample_es, CountEstimate, DesRaj};
use rand::rngs::StdRng;

/// Learned weighted sampling.
#[derive(Debug, Clone, Copy)]
pub struct Lws {
    /// Learning-phase configuration.
    pub learn: LearnPhaseConfig,
    /// Fraction of the budget spent on classifier training (paper
    /// default 25%).
    pub train_frac: f64,
    /// Probability floor ε: sampling weight is `max(g(o), ε)`.
    pub epsilon: f64,
}

impl Default for Lws {
    fn default() -> Self {
        Self {
            learn: LearnPhaseConfig::default(),
            train_frac: 0.25,
            epsilon: 0.05,
        }
    }
}

impl Lws {
    fn validate(&self) -> CoreResult<()> {
        if !(0.0..1.0).contains(&self.train_frac) || self.train_frac <= 0.0 {
            return Err(CoreError::InvalidConfig {
                message: format!("train_frac must be in (0, 1), got {}", self.train_frac),
            });
        }
        if !(self.epsilon > 0.0 && self.epsilon <= 1.0) {
            return Err(CoreError::InvalidConfig {
                message: format!("epsilon must be in (0, 1], got {}", self.epsilon),
            });
        }
        Ok(())
    }

    /// Split a total labeling budget into (training, sampling) shares.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BudgetTooSmall`] when either phase would
    /// starve.
    pub fn budget_split(&self, budget: usize) -> CoreResult<(usize, usize)> {
        if budget < 4 {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: 4,
                reason: "LWS needs ≥ 2 training and ≥ 2 sampling-phase labels".into(),
            });
        }
        let train_budget = ((budget as f64 * self.train_frac).round() as usize).clamp(2, budget);
        let sample_budget = budget - train_budget;
        if sample_budget < 2 {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: train_budget + 2,
                reason: "LWS needs at least 2 sampling-phase labels".into(),
            });
        }
        Ok((train_budget, sample_budget))
    }

    /// The one-shot body LWS shares with [`super::LwsHt`] and
    /// [`super::LwsSequential`]: validate, split the budget, run the
    /// shared phase 1, then `phase2` — the variant's draw over the
    /// scored rest with the sampling budget — under
    /// [`lts_obs::Phase::Stage2`]. The report adds `S_L`'s exact
    /// positives to the phase-2 estimate and carries its notes.
    pub(crate) fn run(
        &self,
        name: &'static str,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
        phase2: impl FnOnce(
            &ScoredPopulation,
            usize,
            &mut Labeler<'_>,
            &mut StdRng,
        ) -> CoreResult<(CountEstimate, Vec<String>)>,
    ) -> CoreResult<EstimateReport> {
        check_budget(problem, budget)?;
        self.validate()?;
        let (train_budget, sample_budget) = self.budget_split(budget)?;
        let mut clock = PhaseClock::new();
        let mut labeler = Labeler::new(problem);
        let (lm, scored) = learn_then_score(
            problem,
            &mut labeler,
            train_budget,
            &self.learn,
            rng,
            &mut clock,
        )?;
        if scored.len() < sample_budget {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: lm.labeled.len() + sample_budget,
                reason: "sampling budget exceeds remaining objects".into(),
            });
        }
        let (estimate, notes) = clock.phase(Phase::Stage2, || {
            phase2(&scored, sample_budget, &mut labeler, rng)
        })?;
        Ok(EstimateReport {
            estimate: estimate.shifted(lm.positives() as f64),
            has_interval: true,
            evals: labeler.unique_evals(),
            timings: clock.finish(),
            estimator: name.into(),
            notes,
            forecast: None,
        })
    }
}

/// Train → score the rest → PPS phase 2, over one labeler and the
/// caller's RNG stream.
impl CountEstimator for Lws {
    fn name(&self) -> &'static str {
        "LWS"
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        // Weight the rest by `max(g, ε)`, draw PPS without replacement,
        // label the draws as one batched oracle call, and replay them
        // through Des Raj in draw order.
        self.run(self.name(), problem, budget, rng, |rest, n, oracle, rng| {
            let weights = rest.weights(self.epsilon);
            let draws = weighted_sample_es(rng, &weights, n)?;
            let objs: Vec<usize> = draws
                .iter()
                .map(|d| rest.members()[d.index] as usize)
                .collect();
            let labels = oracle.label_batch(&objs)?;
            let mut desraj = DesRaj::new(rest.len())?;
            for (d, label) in draws.iter().zip(labels) {
                desraj.push(label, d.initial_probability)?;
            }
            Ok((desraj.count_estimate(problem.level())?, Vec::new()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests_support::{line_problem, noisy_problem};
    use crate::spec::ClassifierSpec;
    use rand::SeedableRng;

    fn lws_knn() -> Lws {
        Lws {
            learn: LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 3 },
                ..LearnPhaseConfig::default()
            },
            ..Lws::default()
        }
    }

    #[test]
    fn respects_budget_and_lands_near_truth() {
        let problem = line_problem(500, 0.2);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let mut rng = StdRng::seed_from_u64(6);
        let r = lws_knn().estimate(&problem, 100, &mut rng).unwrap();
        assert!(r.evals <= 100, "evals {}", r.evals);
        assert!((r.count() - truth).abs() < 60.0, "{} vs {truth}", r.count());
        assert!(r.has_interval);
    }

    #[test]
    fn unbiased_over_trials_even_with_noise() {
        let problem = noisy_problem(300, 0.3, 0.2, 5);
        let truth = problem.exact_count().unwrap() as f64;
        let est = lws_knn();
        let mut sum = 0.0;
        let trials = 300u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(40_000 + u64::from(t));
            sum += est.estimate(&problem, 60, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 8.0, "mean {mean} vs {truth}");
    }

    #[test]
    fn good_classifier_tightens_the_estimate() {
        // Perfectly learnable predicate: LWS variance should be far
        // below SRS's at the same budget.
        let problem = line_problem(600, 0.15);
        let truth = problem.exact_count().unwrap() as f64;
        let lws = lws_knn();
        let srs = super::super::Srs::default();
        let trials = 60u32;
        let (mut sse_lws, mut sse_srs) = (0.0, 0.0);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(500 + u64::from(t));
            let e = lws.estimate(&problem, 120, &mut rng).unwrap().count();
            sse_lws += (e - truth) * (e - truth);
            let mut rng = StdRng::seed_from_u64(500 + u64::from(t));
            let e = srs.estimate(&problem, 120, &mut rng).unwrap().count();
            sse_srs += (e - truth) * (e - truth);
        }
        assert!(
            sse_lws < sse_srs,
            "LWS SSE {sse_lws} should beat SRS SSE {sse_srs}"
        );
    }

    #[test]
    fn validation() {
        let problem = line_problem(100, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let bad = Lws {
            epsilon: 0.0,
            ..lws_knn()
        };
        assert!(bad.estimate(&problem, 50, &mut rng).is_err());
        let bad = Lws {
            train_frac: 1.0,
            ..lws_knn()
        };
        assert!(bad.estimate(&problem, 50, &mut rng).is_err());
        // Budget so small the sampling phase starves.
        assert!(lws_knn().estimate(&problem, 3, &mut rng).is_err());
    }
}
