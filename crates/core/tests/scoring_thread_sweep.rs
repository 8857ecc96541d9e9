//! The golden thread-count sweep: each leg installs a rayon pool of 1,
//! 5 or the default number of workers (`ThreadPool::install`), which
//! holds on the leg's thread and on every worker of the maps it starts,
//! and checks that it does before it runs. The process-wide count is
//! read once, so a leg cannot be made by setting `RAYON_NUM_THREADS`.

mod common;

use common::band_problem;
use lts_core::estimators::{CountEstimator, Lss, Lws, Qlcc};
use lts_core::{run_trials_with, ClassifierSpec, LearnPhaseConfig, TrialExecution};
use rayon::prelude::*;

/// Panics unless the caller, and the workers of a parallel map it
/// starts, work in a pool of `threads` workers.
fn assert_in_pool(threads: usize) {
    let here = (
        rayon::current_num_threads(),
        rayon::current_thread_index().is_some(),
    );
    let workers: Vec<_> = (0..threads)
        .into_par_iter()
        .map(|_| {
            (
                rayon::current_num_threads(),
                rayon::current_thread_index().is_some(),
            )
        })
        .collect();
    for seen in std::iter::once(here).chain(workers) {
        assert_eq!(seen, (threads, true), "the leg does not run in its pool");
    }
}

/// Per-seed estimates from the learned estimators are bit-identical
/// under 1 thread, many threads, and the host default, in both
/// sequential and parallel trial execution. (No hardcoded golden
/// floats: the cross-configuration equality *is* the contract;
/// absolute values are pinned by the estimator test suites.)
#[test]
fn run_trials_estimates_identical_across_thread_counts() {
    let problem = band_problem(500, 7);
    let truth = problem.exact_count().unwrap() as f64;
    let learn = LearnPhaseConfig {
        spec: ClassifierSpec::Knn { k: 3 },
        ..LearnPhaseConfig::default()
    };
    let estimators: Vec<Box<dyn CountEstimator>> = vec![
        Box::new(Lss {
            learn,
            min_pilots_per_stratum: 2,
            ..Lss::default()
        }),
        Box::new(Lws {
            learn,
            ..Lws::default()
        }),
        Box::new(Qlcc { learn }),
    ];
    for est in &estimators {
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for threads in [1, 5, 0] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                assert_in_pool(pool.current_num_threads());
                for execution in [TrialExecution::Sequential, TrialExecution::Parallel] {
                    let stats =
                        run_trials_with(&problem, est.as_ref(), 90, 8, 42, Some(truth), execution)
                            .unwrap();
                    runs.push(stats.estimates.iter().map(|e| e.to_bits()).collect());
                }
            });
        }
        for run in &runs[1..] {
            assert_eq!(
                run,
                &runs[0],
                "{}: estimates diverged across thread counts / execution modes",
                est.name()
            );
        }
    }
}
