//! The shared learning phase (paper §3.2): draw a training sample,
//! label it, fit a classifier — optionally augmented by
//! uncertainty sampling — and expose the scoring function `g`.

use crate::error::{CoreError, CoreResult};
use crate::problem::{CountingProblem, Labeler};
use crate::report::PhaseClock;
use crate::scoring::ScoredPopulation;
use crate::spec::ClassifierSpec;
use lts_learn::active::AugmentConfig;
use lts_learn::{select_uncertain, Classifier};
use lts_sampling::sample_without_replacement;
use rand::rngs::StdRng;
use rand::RngExt as _;

/// Configuration of the learning phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LearnPhaseConfig {
    /// Which classifier to train.
    pub spec: ClassifierSpec,
    /// Optional uncertainty-sampling augmentation (paper recommends a
    /// single step). The augmentation labels come out of the same
    /// training budget.
    pub augment: Option<AugmentConfig>,
    /// Seed offset for classifier internals (combined with the run rng).
    pub model_seed: u64,
}

/// The product of the learning phase.
pub struct LearnedModel {
    /// The fitted classifier.
    pub model: Box<dyn Classifier>,
    /// Object ids labeled during learning (`S_L`).
    pub labeled: Vec<usize>,
    /// Labels aligned with `labeled`.
    pub labels: Vec<bool>,
    /// The **effective** seed the classifier was built with
    /// (`config.model_seed` mixed with the run rng). Every model family
    /// re-seeds from its construction seed on each `fit`, so
    /// `spec.build(model_seed)` + one fit on (`labeled`, `labels`)
    /// rebuilds this classifier bit-identically — the property the
    /// serving layer's model snapshots rely on.
    pub model_seed: u64,
}

impl LearnedModel {
    /// Exact positive count within `S_L`.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&b| b).count()
    }
}

/// Run the learning phase with a labeling budget of `train_budget`
/// objects.
///
/// With augmentation configured, the initial SRS uses
/// `train_budget − steps·per_step` labels and each augmentation step
/// labels the most uncertain `per_step` objects from a random pool
/// (per-step sizes shrink if the budget is tight).
///
/// # Errors
///
/// Returns an error if the budget is below 2 or exceeds the population.
pub fn run_learn_phase(
    problem: &CountingProblem,
    labeler: &mut Labeler<'_>,
    train_budget: usize,
    config: &LearnPhaseConfig,
    rng: &mut StdRng,
) -> CoreResult<LearnedModel> {
    let n = problem.n();
    if train_budget < 2 {
        return Err(CoreError::BudgetTooSmall {
            budget: train_budget,
            required: 2,
            reason: "classifier training needs at least 2 labels".into(),
        });
    }
    if train_budget > n {
        return Err(CoreError::BudgetTooSmall {
            budget: train_budget,
            required: n,
            reason: format!("training budget exceeds population of {n}"),
        });
    }

    // Split the budget between the initial SRS and augmentation steps.
    // The initial SRS keeps at least 2 labels, and the two parts spend
    // exactly the training budget.
    let (initial, augment) = match config.augment {
        Some(a) if a.steps > 0 && a.per_step > 0 => {
            let want = a.steps * a.per_step;
            let reserved = want.min(train_budget / 2).min(train_budget - 2);
            (train_budget - reserved, Some((a, reserved)))
        }
        _ => (train_budget, None),
    };

    let mut labeled = sample_without_replacement(rng, initial, n)?;
    // One batched oracle call for the whole initial training sample.
    let mut labels = labeler.label_batch(&labeled)?;
    let model_seed = config.model_seed ^ rng.random::<u64>();
    let mut model = config.spec.build(model_seed);
    let features = problem.feature_view();
    model.fit(&features.gather(&labeled), &labels)?;

    if let Some((a, mut reserved)) = augment {
        let per_step = (reserved / a.steps.max(1)).max(1);
        for _ in 0..a.steps {
            if reserved == 0 {
                break;
            }
            let step_size = per_step.min(reserved);
            // Unlabeled pool.
            let mut in_labeled = vec![false; n];
            for &i in &labeled {
                in_labeled[i] = true;
            }
            let mut pool: Vec<usize> = (0..n).filter(|&i| !in_labeled[i]).collect();
            if pool.is_empty() {
                break;
            }
            if a.pool_size > 0 && pool.len() > a.pool_size {
                for i in 0..a.pool_size {
                    let j = rng.random_range(i..pool.len());
                    pool.swap(i, j);
                }
                pool.truncate(a.pool_size);
            }
            // `select_uncertain` breaks ties by candidate index. With the
            // pool ascending, positions in its gathered rows order as its
            // ids do, so the picks are those the ids themselves would get.
            pool.sort_unstable();
            let positions: Vec<usize> = (0..pool.len()).collect();
            let rows = features.gather(&pool);
            let picked = select_uncertain(model.as_ref(), &rows, &positions, step_size)?;
            let picks: Vec<usize> = picked.into_iter().map(|k| pool[k]).collect();
            if picks.is_empty() {
                break;
            }
            // Each augmentation step labels its picks as one batch.
            let pick_labels = labeler.label_batch(&picks)?;
            for (&i, l) in picks.iter().zip(pick_labels) {
                labeled.push(i);
                labels.push(l);
                reserved -= 1;
            }
            model.fit(&features.gather(&labeled), &labels)?;
        }
    }

    Ok(LearnedModel {
        model,
        labeled,
        labels,
        model_seed,
    })
}

/// Phase 1 of QLCC, QLAC, LWS, LWS-HT and LWS-seq: the learning phase
/// on `train_budget` labels under [`lts_obs::Phase::Train`], then the
/// shared scoring pipeline over `O \ S_L` under
/// [`lts_obs::Phase::Score`], both on `clock`.
pub(crate) fn learn_then_score(
    problem: &CountingProblem,
    labeler: &mut Labeler<'_>,
    train_budget: usize,
    config: &LearnPhaseConfig,
    rng: &mut StdRng,
    clock: &mut PhaseClock,
) -> CoreResult<(LearnedModel, ScoredPopulation)> {
    let lm = clock.phase(lts_obs::Phase::Train, || {
        run_learn_phase(problem, labeler, train_budget, config, rng)
    })?;
    let scored = clock.phase(lts_obs::Phase::Score, || {
        ScoredPopulation::score_rest(problem, lm.model.as_ref(), &lm.labeled)
    })?;
    Ok((lm, scored))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::table::table_of_floats;
    use lts_table::{FnPredicate, ObjectPredicate, Table};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn line_problem(n: usize) -> CountingProblem {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let half = n as f64 / 2.0;
        let p: Arc<dyn ObjectPredicate> =
            Arc::new(FnPredicate::new("gt-half", move |t: &Table, i| {
                Ok(t.floats("x")?[i] > half)
            }));
        CountingProblem::new(t, p, &["x"]).unwrap()
    }

    #[test]
    fn trains_within_budget() {
        let problem = line_problem(200);
        let mut labeler = Labeler::new(&problem);
        let mut rng = StdRng::seed_from_u64(1);
        let lm = run_learn_phase(
            &problem,
            &mut labeler,
            40,
            &LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 3 },
                ..LearnPhaseConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(lm.labeled.len(), 40);
        assert_eq!(labeler.unique_evals(), 40);
        // Model should score sensibly at the extremes.
        assert!(lm.model.score(&[0.0]).unwrap() < 0.5);
        assert!(lm.model.score(&[199.0]).unwrap() > 0.5);
    }

    #[test]
    fn augmentation_spends_exactly_the_budget() {
        let problem = line_problem(300);
        let mut labeler = Labeler::new(&problem);
        let mut rng = StdRng::seed_from_u64(3);
        let lm = run_learn_phase(
            &problem,
            &mut labeler,
            60,
            &LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 5 },
                augment: Some(AugmentConfig {
                    steps: 1,
                    per_step: 20,
                    pool_size: 100,
                }),
                model_seed: 0,
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(lm.labeled.len(), 60);
        assert!(labeler.unique_evals() <= 60);
        assert_eq!(lm.labels.len(), lm.labeled.len());
    }

    #[test]
    fn budget_validation() {
        let problem = line_problem(50);
        let mut labeler = Labeler::new(&problem);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(run_learn_phase(
            &problem,
            &mut labeler,
            1,
            &LearnPhaseConfig::default(),
            &mut rng
        )
        .is_err());
        assert!(run_learn_phase(
            &problem,
            &mut labeler,
            51,
            &LearnPhaseConfig::default(),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn positives_counted() {
        let problem = line_problem(100);
        let mut labeler = Labeler::new(&problem);
        let mut rng = StdRng::seed_from_u64(9);
        let lm = run_learn_phase(
            &problem,
            &mut labeler,
            100,
            &LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 1 },
                ..LearnPhaseConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        // Census: exactly the true positives (x > 50 → 49 objects).
        assert_eq!(lm.positives(), 49);
    }
}
