//! Contracts of the batched labeling pipeline (the budget currency of
//! every estimator):
//!
//! 1. `eval_batch` agrees with per-row `eval` for arbitrary predicates
//!    and index multisets;
//! 2. the meter advances by exactly the number of *unique* indices a
//!    `Labeler` sends to the oracle — duplicates, revisits, and
//!    interleaved single/batch calls cost nothing extra;
//! 3. parallel `run_trials` is bit-identical to the sequential runner
//!    for a fixed seed, for every estimator in the suite;
//! 4. no estimator exceeds its unique-label budget under batch
//!    evaluation, as observed by the shared `Metered` counters.

use learning_to_sample::prelude::*;
use lts_core::{run_trials_with, Labeler, TrialExecution};
use lts_table::table::table_of_floats;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// A 1-d problem whose labels are a deterministic hash of the index —
/// adversarially unlearnable, so estimators exercise their general
/// paths.
fn hash_problem(n: usize, seed: u64) -> CountingProblem {
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let t = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
    let p: Arc<dyn ObjectPredicate> = Arc::new(FnPredicate::new("hash", move |t: &Table, i| {
        let x = t.floats("x")?[i];
        let mut h = seed ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        Ok(h & 3 == 0)
    }));
    CountingProblem::new(t, p, &["x"]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch labels equal single-row labels, element by element.
    #[test]
    fn batch_labels_agree_with_single_row(
        n in 5usize..200,
        seed in any::<u64>(),
        picks in proptest::collection::vec(0usize..10_000, 1..80),
    ) {
        let problem = hash_problem(n, seed);
        let idxs: Vec<usize> = picks.iter().map(|&p| p % n).collect();
        let batch = problem.label_batch(&idxs).unwrap();
        for (k, &i) in idxs.iter().enumerate() {
            prop_assert_eq!(batch[k], problem.label(i).unwrap(), "index {}", i);
        }
    }

    /// The meter counts exactly the unique indices a labeler touched,
    /// no matter how requests are split between batches and single
    /// rows or how often indices repeat.
    #[test]
    fn meter_counts_exactly_unique_labels(
        n in 5usize..120,
        seed in any::<u64>(),
        requests in proptest::collection::vec(
            proptest::collection::vec(0usize..10_000, 0..20), 1..10),
    ) {
        let problem = hash_problem(n, seed);
        problem.reset_meter();
        let mut labeler = Labeler::new(&problem);
        let mut unique = HashSet::new();
        for (r, req) in requests.iter().enumerate() {
            let idxs: Vec<usize> = req.iter().map(|&p| p % n).collect();
            if r % 3 == 2 && !idxs.is_empty() {
                // Exercise the single-row path against the same cache.
                for &i in &idxs {
                    labeler.label(i).unwrap();
                    unique.insert(i);
                }
            } else {
                labeler.label_batch(&idxs).unwrap();
                unique.extend(idxs);
            }
            prop_assert_eq!(labeler.unique_evals(), unique.len());
            prop_assert_eq!(problem.predicate_stats().evals, unique.len() as u64);
        }
    }

    /// Parallel trials reproduce sequential trials bit for bit.
    #[test]
    fn parallel_trials_bit_identical(
        n in 60usize..150,
        seed in any::<u64>(),
        base_seed in any::<u64>(),
    ) {
        let problem = hash_problem(n, seed);
        let est = Srs::default();
        let budget = n / 3;
        let seq = run_trials_with(
            &problem, &est, budget, 8, base_seed, None, TrialExecution::Sequential,
        ).unwrap();
        let par = run_trials_with(
            &problem, &est, budget, 8, base_seed, None, TrialExecution::Parallel,
        ).unwrap();
        prop_assert_eq!(seq.estimates, par.estimates);
        prop_assert_eq!(seq.mean_evals, par.mean_evals);
    }
}

/// The oracle's internal partition-parallelism (an `ExprPredicate`
/// batch fans out across worker threads and chunks since PR 3) must
/// change neither the labels nor the meter's exact unique-evaluation
/// accounting — one oracle call per batch, `evals` advanced by the
/// deduped request size.
#[test]
fn partition_parallel_oracle_keeps_labels_and_meter_exact() {
    let n = 40_000; // large enough to cross the parallel chunking threshold
    let xs: Vec<f64> = (0..n).map(|i| (i % 1013) as f64 / 1013.0).collect();
    let t = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
    let p: Arc<dyn ObjectPredicate> = Arc::new(lts_table::ExprPredicate::new(
        "x>half",
        lts_table::Expr::col("x").gt(lts_table::Expr::lit(0.5)),
    ));
    let problem = CountingProblem::new(t, p, &["x"]).unwrap();
    let mut labeler = Labeler::new(&problem);
    // Duplicate-heavy request covering most of the population.
    let idxs: Vec<usize> = (0..60_000).map(|i| (i * 7) % n).collect();
    let labels = labeler.label_batch(&idxs).unwrap();
    assert_eq!(labels.len(), idxs.len());
    for (k, &i) in idxs.iter().enumerate() {
        assert_eq!(labels[k], xs[i] > 0.5, "row {i}");
    }
    let unique: HashSet<usize> = idxs.iter().copied().collect();
    assert_eq!(labeler.unique_evals(), unique.len());
    let stats = problem.predicate_stats();
    assert_eq!(stats.evals, unique.len() as u64, "meter must stay exact");
    assert_eq!(stats.calls, 1, "one oracle call per labeler batch");
}

/// Every estimator stays within its unique-label budget, verified via
/// the shared `Metered` counters across a parallel multi-trial run.
#[test]
fn no_estimator_exceeds_budget_under_batching() {
    let problem = hash_problem(400, 1234);
    let learn = LearnPhaseConfig {
        spec: ClassifierSpec::Knn { k: 3 },
        augment: None,
        model_seed: 3,
    };
    let one_dim = |grid| Ssp {
        grid: (grid, 1),
        feature_dims: (0, 0),
        min_per_stratum: 1,
    };
    let estimators: Vec<(&str, Box<dyn CountEstimator>)> = vec![
        ("SRS", Box::new(Srs::default())),
        ("SSP", Box::new(one_dim(4))),
        (
            "SSN",
            Box::new(Ssn {
                grid: (4, 1),
                feature_dims: (0, 0),
                ..Ssn::default()
            }),
        ),
        ("QLCC", Box::new(Qlcc { learn })),
        ("QLAC", Box::new(Qlac { learn, folds: 4 })),
        (
            "LWS",
            Box::new(Lws {
                learn,
                ..Lws::default()
            }),
        ),
        (
            "LWS-HT",
            Box::new(LwsHt {
                lws: Lws {
                    learn,
                    ..Lws::default()
                },
            }),
        ),
        (
            "LWS-SEQ",
            Box::new(LwsSequential {
                lws: Lws {
                    learn,
                    ..Lws::default()
                },
                ..LwsSequential::default()
            }),
        ),
        (
            "LSS",
            Box::new(Lss {
                learn,
                ..Lss::default()
            }),
        ),
    ];
    let budget = 80;
    let trials = 6;
    for (name, est) in &estimators {
        problem.reset_meter();
        let stats = run_trials_with(
            &problem,
            est.as_ref(),
            budget,
            trials,
            42,
            None,
            TrialExecution::Parallel,
        )
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(
            stats.mean_evals <= budget as f64 + 1e-9,
            "{name}: mean unique evals {} exceed budget {budget}",
            stats.mean_evals
        );
        // The shared meter saw every oracle call across all trials; it
        // must never exceed trials × budget unique-label spends.
        let metered = problem.predicate_stats().evals;
        assert!(
            metered <= (trials * budget) as u64,
            "{name}: metered evals {metered} exceed {trials}×{budget}"
        );
    }
}
