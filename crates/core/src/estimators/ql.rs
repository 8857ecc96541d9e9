//! Quantification learning: Classify-and-Count (QLCC) and Adjusted
//! Count (QLAC) — paper §3.2.
//!
//! Both spend the whole budget labeling a training sample `S`, fit a
//! classifier, and count predicted positives over the test set `O \ S`.
//! QLAC additionally estimates `t̂pr`/`f̂pr` by k-fold cross-validation
//! and applies Eq. (2):
//! `C_adj = (C_obs − f̂pr·|O\S|) / (t̂pr − f̂pr)`.
//!
//! Neither method provides a statistical confidence interval — the
//! reports carry a degenerate interval and `has_interval = false`.

use super::{check_budget, CountEstimator};
use crate::error::CoreResult;
use crate::learnphase::{learn_then_score, LearnPhaseConfig};
use crate::problem::{CountingProblem, Labeler};
use crate::report::{EstimateReport, PhaseClock};
use lts_learn::cross_validated_rates;
use lts_obs::Phase;
use lts_sampling::CountEstimate;
use rand::rngs::StdRng;
use rand::RngExt;

/// Classify-and-Count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Qlcc {
    /// Learning-phase configuration (classifier + optional
    /// augmentation).
    pub learn: LearnPhaseConfig,
}

/// Adjusted Count (Eq. 2), falling back to Classify-and-Count when the
/// estimated rates make the adjustment ill-conditioned.
#[derive(Debug, Clone, Copy)]
pub struct Qlac {
    /// Learning-phase configuration.
    pub learn: LearnPhaseConfig,
    /// Cross-validation folds for the rate estimates (paper: k-fold).
    pub folds: usize,
}

impl Default for Qlac {
    fn default() -> Self {
        Self {
            learn: LearnPhaseConfig::default(),
            folds: 5,
        }
    }
}

/// Shared: train on the full budget, count predicted positives over the
/// rest. Returns (model artifacts, observed count, rest size, report
/// scaffolding).
struct QlRun {
    labeled: Vec<usize>,
    labels: Vec<bool>,
    train_positives: usize,
    observed: usize,
    rest_len: usize,
    clock: PhaseClock,
    evals: usize,
}

fn run_ql(
    problem: &CountingProblem,
    budget: usize,
    learn: &LearnPhaseConfig,
    rng: &mut StdRng,
) -> CoreResult<QlRun> {
    check_budget(problem, budget)?;
    let mut clock = PhaseClock::new();
    let mut labeler = Labeler::new(problem);
    let (lm, scored) = learn_then_score(problem, &mut labeler, budget, learn, rng, &mut clock)?;
    Ok(QlRun {
        train_positives: lm.positives(),
        labeled: lm.labeled,
        labels: lm.labels,
        // "Predicted positive" over the test set O \ S is score ≥ 0.5,
        // exactly the per-row `predict`.
        observed: scored.count_at_least(0.5),
        rest_len: scored.len(),
        clock,
        evals: labeler.unique_evals(),
    })
}

impl CountEstimator for Qlcc {
    fn name(&self) -> &'static str {
        "QLCC"
    }

    fn provides_interval(&self) -> bool {
        false
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        let run = run_ql(problem, budget, &self.learn, rng)?;
        let count = (run.observed + run.train_positives) as f64;
        Ok(EstimateReport {
            estimate: CountEstimate::exact(count, problem.level()),
            has_interval: false,
            evals: run.evals,
            timings: run.clock.finish(),
            estimator: self.name().into(),
            notes: Vec::new(),
            forecast: None,
        })
    }
}

impl CountEstimator for Qlac {
    fn name(&self) -> &'static str {
        "QLAC"
    }

    fn provides_interval(&self) -> bool {
        false
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        let mut run = run_ql(problem, budget, &self.learn, rng)?;
        let mut notes = Vec::new();

        // k-fold CV on the training sample for t̂pr / f̂pr.
        let folds = self.folds.clamp(2, run.labeled.len().max(2));
        let spec = self.learn.spec;
        let cv_seed = rng.random::<u64>();
        let rates = run.clock.phase(Phase::Score, || {
            let x = problem.feature_view().gather(&run.labeled);
            cross_validated_rates(&x, &run.labels, folds, cv_seed, || spec.build(cv_seed))
        })?;

        let rest = run.rest_len as f64;
        let adjusted = match (rates.tpr, rates.fpr) {
            (Some(tpr), Some(fpr)) if (tpr - fpr).abs() > 1e-6 => {
                let adj = (run.observed as f64 - fpr * rest) / (tpr - fpr);
                adj.clamp(0.0, rest)
            }
            _ => {
                notes
                    .push("QLAC fell back to classify-and-count: t̂pr − f̂pr ill-conditioned".into());
                run.observed as f64
            }
        };
        let count = adjusted + run.train_positives as f64;
        Ok(EstimateReport {
            estimate: CountEstimate::exact(count, problem.level()),
            has_interval: false,
            evals: run.evals,
            timings: run.clock.finish(),
            estimator: self.name().into(),
            notes,
            forecast: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests_support::{line_problem, noisy_problem};
    use crate::spec::ClassifierSpec;
    use lts_learn::active::AugmentConfig;
    use rand::SeedableRng;

    #[test]
    fn qlcc_accurate_with_learnable_predicate() {
        let problem = line_problem(500, 0.4);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let est = Qlcc {
            learn: LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 3 },
                ..LearnPhaseConfig::default()
            },
        };
        let mut rng = StdRng::seed_from_u64(4);
        let r = est.estimate(&problem, 60, &mut rng).unwrap();
        assert!(r.evals <= 60);
        assert!(!r.has_interval);
        assert!((r.count() - truth).abs() < 30.0, "{} vs {truth}", r.count());
    }

    #[test]
    fn qlac_corrects_biased_classifier() {
        // Noisy labels make the classifier imperfect; QLAC's adjustment
        // should not be wildly worse than QLCC and often better.
        let problem = noisy_problem(600, 0.3, 0.15, 99);
        let truth = problem.exact_count().unwrap() as f64;
        let cc = Qlcc {
            learn: LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 5 },
                ..LearnPhaseConfig::default()
            },
        };
        let ac = Qlac {
            learn: cc.learn,
            folds: 4,
        };
        let trials = 40u32;
        let (mut err_cc, mut err_ac) = (0.0, 0.0);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(3000 + u64::from(t));
            err_cc += (cc.estimate(&problem, 90, &mut rng).unwrap().count() - truth).abs();
            let mut rng = StdRng::seed_from_u64(3000 + u64::from(t));
            err_ac += (ac.estimate(&problem, 90, &mut rng).unwrap().count() - truth).abs();
        }
        // AC should be in the same ballpark or better on average.
        assert!(
            err_ac <= err_cc * 1.5 + trials as f64,
            "AC total err {err_ac} vs CC {err_cc}"
        );
    }

    #[test]
    fn qlac_fallback_on_degenerate_rates() {
        // A single-class problem: CV finds no negatives → fpr undefined.
        let problem = line_problem(100, 1.0); // everything positive
        let est = Qlac::default();
        let mut rng = StdRng::seed_from_u64(8);
        let r = est.estimate(&problem, 30, &mut rng).unwrap();
        // Fallback notes present or adjustment handled; count close to N.
        assert!(r.count() >= 90.0, "count {}", r.count());
    }

    #[test]
    fn augmentation_does_not_overspend() {
        let problem = line_problem(400, 0.5);
        problem.reset_meter();
        let est = Qlcc {
            learn: LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 3 },
                augment: Some(AugmentConfig {
                    steps: 2,
                    per_step: 10,
                    pool_size: 100,
                }),
                model_seed: 0,
            },
        };
        let mut rng = StdRng::seed_from_u64(11);
        let r = est.estimate(&problem, 50, &mut rng).unwrap();
        assert!(r.evals <= 50, "evals {}", r.evals);
    }
}
