//! Sequential LWS: learned weighted sampling with early stopping.
//!
//! The Des Raj estimator produces *ordered* estimates — a running mean
//! and variance after every draw (§4.1: "running estimates of mean and
//! variance as samples are being drawn"). The paper's conclusion points
//! at using them to stop early once the estimate is good enough; this
//! estimator implements that: it draws like LWS but stops as soon as
//! the running confidence interval is narrower than a target relative
//! half-width, spending less of the budget on easy instances.

use super::{check_budget, CountEstimator, Lws};
use crate::error::{CoreError, CoreResult};
use crate::problem::CountingProblem;
use crate::report::EstimateReport;
use lts_sampling::{weighted_sample_es, DesRaj};
use rand::rngs::StdRng;

/// LWS with early stopping on the running Des Raj interval.
#[derive(Debug, Clone, Copy)]
pub struct LwsSequential {
    /// LWS's learning phase, training fraction and ε floor; the
    /// sampling budget is the most the walk may draw.
    pub lws: Lws,
    /// Stop when the CI half-width falls below this fraction of the
    /// current count estimate (e.g. `0.1` = ±10%).
    pub target_relative_halfwidth: f64,
    /// Minimum sampling-phase draws before stopping is allowed (the
    /// running variance needs some support).
    pub min_draws: usize,
}

impl Default for LwsSequential {
    fn default() -> Self {
        Self {
            lws: Lws::default(),
            target_relative_halfwidth: 0.10,
            min_draws: 30,
        }
    }
}

impl CountEstimator for LwsSequential {
    fn name(&self) -> &'static str {
        "LWS-seq"
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        // The budget is checked before the target, as LWS checks it
        // before its own configuration.
        check_budget(problem, budget)?;
        if self.target_relative_halfwidth.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CoreError::InvalidConfig {
                message: "target_relative_halfwidth must be positive".into(),
            });
        }
        self.lws
            .run(self.name(), problem, budget, rng, |rest, n, oracle, rng| {
                let weights = rest.weights(self.lws.epsilon);
                // Draw the full plan of `n` up front (cheap); label lazily
                // until the stopping rule fires. The stopping rule cannot
                // fire before `min_draws`, so that prefix is labeled as one
                // batched oracle call; past it the walk stays one-at-a-time
                // because each label feeds the next stopping decision.
                let plan = weighted_sample_es(rng, &weights, n)?;
                let prefix = self.min_draws.max(2).min(plan.len());
                let prefix_objs: Vec<usize> = plan[..prefix]
                    .iter()
                    .map(|d| rest.members()[d.index] as usize)
                    .collect();
                oracle.label_batch(&prefix_objs)?;
                let mut desraj = DesRaj::new(rest.len())?;
                let mut notes = Vec::new();
                let mut used = 0usize;
                for d in &plan {
                    let label = oracle.label(rest.members()[d.index] as usize)?;
                    desraj.push(label, d.initial_probability)?;
                    used += 1;
                    if used >= self.min_draws.max(2) {
                        let est = desraj.count_estimate(problem.level())?;
                        let half = 0.5 * est.interval.width();
                        let denom = est.count.abs().max(1.0);
                        if half / denom <= self.target_relative_halfwidth {
                            notes.push(format!(
                                "stopped early after {used}/{n} draws (±{:.1}% reached)",
                                half / denom * 100.0
                            ));
                            break;
                        }
                    }
                }
                Ok((desraj.count_estimate(problem.level())?, notes))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learnphase::LearnPhaseConfig;
    use crate::problem::tests_support::{line_problem, noisy_problem};
    use crate::spec::ClassifierSpec;
    use rand::SeedableRng;

    fn seq_knn(target: f64) -> LwsSequential {
        LwsSequential {
            lws: Lws {
                learn: LearnPhaseConfig {
                    spec: ClassifierSpec::Knn { k: 3 },
                    ..LearnPhaseConfig::default()
                },
                ..Lws::default()
            },
            target_relative_halfwidth: target,
            min_draws: 10,
        }
    }

    #[test]
    fn stops_early_on_easy_instances() {
        // Perfectly learnable predicate: the running CI collapses fast.
        let problem = line_problem(800, 0.4);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let mut rng = StdRng::seed_from_u64(5);
        let r = seq_knn(0.15).estimate(&problem, 300, &mut rng).unwrap();
        assert!(r.evals < 300, "should stop early, spent {} of 300", r.evals);
        assert!((r.count() - truth).abs() / truth < 0.3);
        assert!(!r.notes.is_empty(), "early stop should be noted");
    }

    #[test]
    fn spends_more_on_hard_instances() {
        let easy = line_problem(600, 0.4);
        let hard = noisy_problem(600, 0.4, 0.35, 3);
        let est = seq_knn(0.12);
        let mut easy_evals = 0usize;
        let mut hard_evals = 0usize;
        for t in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(100 + t);
            easy_evals += est.estimate(&easy, 240, &mut rng).unwrap().evals;
            let mut rng = StdRng::seed_from_u64(100 + t);
            hard_evals += est.estimate(&hard, 240, &mut rng).unwrap().evals;
        }
        assert!(
            hard_evals > easy_evals,
            "hard {hard_evals} should exceed easy {easy_evals}"
        );
    }

    #[test]
    fn exhausts_budget_when_target_unreachable() {
        let problem = noisy_problem(400, 0.5, 0.4, 7);
        let mut rng = StdRng::seed_from_u64(9);
        // ±0.1% is unreachable with 100 labels on a noisy instance.
        let r = seq_knn(0.001).estimate(&problem, 100, &mut rng).unwrap();
        assert_eq!(r.evals, 100);
        assert!(r.notes.is_empty());
    }

    #[test]
    fn remains_unbiased() {
        let problem = noisy_problem(300, 0.3, 0.2, 11);
        let truth = problem.exact_count().unwrap() as f64;
        let est = seq_knn(0.10);
        let mut sum = 0.0;
        let trials = 200u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(50_000 + u64::from(t));
            sum += est.estimate(&problem, 80, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 10.0, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn validation() {
        let problem = line_problem(100, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let bad = LwsSequential {
            target_relative_halfwidth: 0.0,
            ..seq_knn(0.1)
        };
        assert!(bad.estimate(&problem, 50, &mut rng).is_err());
        assert!(seq_knn(0.1).estimate(&problem, 2, &mut rng).is_err());
    }
}
