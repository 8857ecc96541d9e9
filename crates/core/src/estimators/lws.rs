//! LWS: Learned Weighted Sampling (paper §4.1).
//!
//! Phase 1 trains a classifier on an SRS of the budget's `train_frac`.
//! Phase 2 draws the remaining budget from `O \ S_L` **without
//! replacement** with probability proportional to `max(g(o), ε)` — the
//! ε floor guards against an overconfident classifier starving negative
//! objects — and feeds the draws to the Des Raj ordered estimator
//! (Eq. 3), which stays unbiased no matter how wrong the weights are.

use crate::error::{CoreError, CoreResult};
use crate::learnphase::LearnPhaseConfig;
use crate::problem::Labeler;
use crate::warm::LwsWarm;
use lts_sampling::{weighted_sample_es, DesRaj};
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
    pub(crate) fn validate(&self) -> CoreResult<()> {
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

    /// Split a total labeling budget into (training, sampling) shares —
    /// what the prepare and resume bodies of [`crate::warm`] spend.
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
}

/// LWS phase 2: weight the state's scored rest population by
/// `max(g, ε)`, draw its `sample_budget` objects PPS without
/// replacement, label them as one batch, run the Des Raj ordered
/// estimator, and add the exact positives of the training sample.
/// Prepare has already checked that the population holds at least
/// `sample_budget` objects.
pub(crate) fn lws_phase2(
    lws: &Lws,
    warm: &LwsWarm,
    level: f64,
    labeler: &mut Labeler<'_>,
    rng: &mut StdRng,
) -> CoreResult<lts_sampling::CountEstimate> {
    let scored = &warm.scored;
    let weights = scored.weights(lws.epsilon);
    let draws = weighted_sample_es(rng, &weights, warm.sample_budget)?;
    // One batched oracle call for the whole phase-2 sample; the
    // Des Raj pushes then replay the draw order exactly.
    let objs: Vec<usize> = draws.iter().map(|d| scored.members()[d.index]).collect();
    let labels = labeler.label_batch(&objs)?;
    let mut desraj = DesRaj::new(scored.len())?;
    for (d, label) in draws.iter().zip(labels) {
        desraj.push(label, d.initial_probability)?;
    }
    let base = desraj.count_estimate(level)?;
    Ok(base.shifted(warm.proxy.positives() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::CountEstimator;
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
