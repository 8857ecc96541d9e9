//! Criterion bench for end-to-end estimator runs — the machine-readable
//! companion to the Figure-3 overhead experiment. Compares full LSS
//! against the baselines at the same budget on the Neighbors scenario
//! (its SQL predicate runs through the subquery kernel, so at 2 % of
//! 8 000 rows the measured time is dominated by the estimator machinery
//! rather than `q`).

use criterion::{criterion_group, criterion_main, Criterion};
use lts_core::estimators::{CountEstimator, Lss, Lws, Srs, Ssp};
use lts_data::{neighbors_scenario, SelectivityLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator_end_to_end");
    group.sample_size(10);
    let scenario = neighbors_scenario(8_000, SelectivityLevel::S, 17).unwrap();
    let budget = 160; // 2% of 8 000
    let problem = &scenario.problem;

    let estimators: Vec<(&str, Box<dyn CountEstimator>)> = vec![
        ("srs", Box::new(Srs::default())),
        ("ssp", Box::new(Ssp::default())),
        ("lws", Box::new(Lws::default())),
        ("lss", Box::new(Lss::default())),
    ];
    for (name, est) in &estimators {
        group.bench_function(*name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                problem.reset_meter();
                seed += 1;
                let mut rng = StdRng::seed_from_u64(seed);
                est.estimate(black_box(problem), budget, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
