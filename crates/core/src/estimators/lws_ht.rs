//! LWS-HT: learned weighted sampling with the Horvitz–Thompson
//! estimator over a fixed-size systematic PPS design.
//!
//! The paper (§4.1) mentions Horvitz–Thompson as the popular estimator
//! for unequal-probability designs before opting for Des Raj (simpler
//! calculation, running "ordered" estimates). This variant completes
//! the comparison: the same learned weights `max(g, ε)`, but a Madow
//! systematic PPS draw whose **first-order inclusion probabilities are
//! exact**, making the HT point estimate exactly unbiased, with a hard
//! (non-random) sample size that respects the labeling budget.
//!
//! Trade-off vs [`super::Lws`]: HT has no running estimate (no early
//! stopping), and under systematic PPS its variance estimator is an
//! approximation (second-order inclusion probabilities are
//! design-dependent), so the interval is approximate where Des Raj's is
//! textbook. The point estimate, however, avoids Des Raj's
//! order-dependence entirely.

use super::{CountEstimator, Lws};
use crate::error::CoreResult;
use crate::problem::CountingProblem;
use crate::report::EstimateReport;
use lts_sampling::{horvitz_thompson_count, systematic_pps_sample};
use rand::rngs::StdRng;

/// Learned weighted sampling with a Horvitz–Thompson estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct LwsHt {
    /// LWS's learning phase, training fraction and ε floor; only the
    /// phase-2 design and estimator differ.
    pub lws: Lws,
}

impl CountEstimator for LwsHt {
    fn name(&self) -> &'static str {
        "LWS-HT"
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        let lws = &self.lws;
        lws.run(self.name(), problem, budget, rng, |rest, n, oracle, rng| {
            let weights = rest.weights(lws.epsilon);
            let draws = systematic_pps_sample(rng, &weights, n)?;
            // One batched oracle call for the whole systematic sample.
            let objs: Vec<usize> = draws
                .iter()
                .map(|d| rest.members()[d.index] as usize)
                .collect();
            let labels = oracle.label_batch(&objs)?;
            let pairs: Vec<(f64, bool)> = draws
                .iter()
                .zip(labels)
                .map(|(d, label)| (d.initial_probability, label))
                .collect();
            Ok((horvitz_thompson_count(&pairs, problem.level())?, Vec::new()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learnphase::LearnPhaseConfig;
    use crate::problem::tests_support::{line_problem, noisy_problem, ramp_problem};
    use crate::spec::ClassifierSpec;
    use rand::SeedableRng;

    fn ht_knn() -> LwsHt {
        LwsHt {
            lws: Lws {
                learn: LearnPhaseConfig {
                    spec: ClassifierSpec::Knn { k: 3 },
                    ..LearnPhaseConfig::default()
                },
                ..Lws::default()
            },
        }
    }

    #[test]
    fn respects_budget_exactly_and_lands_near_truth() {
        let problem = line_problem(600, 0.25);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let mut rng = StdRng::seed_from_u64(7);
        let r = ht_knn().estimate(&problem, 120, &mut rng).unwrap();
        // Systematic PPS is fixed-size: the budget is consumed exactly,
        // never exceeded (the HT advantage over Poisson sampling).
        assert_eq!(r.evals, 120, "fixed-size design must spend the budget");
        assert!((r.count() - truth).abs() < 70.0, "{} vs {truth}", r.count());
        assert!(r.has_interval);
    }

    #[test]
    fn unbiased_over_trials() {
        let problem = noisy_problem(400, 0.3, 0.15, 17);
        let truth = problem.exact_count().unwrap() as f64;
        let est = ht_knn();
        let mut sum = 0.0;
        let trials = 250u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(30_000 + u64::from(t));
            sum += est.estimate(&problem, 80, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 10.0, "mean {mean} vs {truth}");
    }

    #[test]
    fn good_classifier_tightens_the_estimate() {
        let problem = ramp_problem(800, 0.25, 0.65, 2024);
        let truth = problem.exact_count().unwrap() as f64;
        let est = ht_knn();
        let trials = 40u32;
        let mut sse = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(500 + u64::from(t));
            let e = est.estimate(&problem, 200, &mut rng).unwrap().count();
            sse += (e - truth) * (e - truth);
        }
        let rmse = (sse / f64::from(trials)).sqrt();
        // SRS at this budget has RMSE ≈ √(p(1−p)/n)·N·fpc ≈ 28;
        // informative weights should do at least comparably.
        assert!(rmse < 60.0, "LWS-HT RMSE {rmse}");
    }

    #[test]
    fn validation() {
        let problem = line_problem(100, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for lws in [
            Lws {
                train_frac: 0.0,
                ..ht_knn().lws
            },
            Lws {
                epsilon: 0.0,
                ..ht_knn().lws
            },
        ] {
            assert!(LwsHt { lws }.estimate(&problem, 50, &mut rng).is_err());
        }
        assert!(ht_knn().estimate(&problem, 3, &mut rng).is_err());
        assert!(ht_knn().estimate(&problem, 101, &mut rng).is_err());
    }
}
