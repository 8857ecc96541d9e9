//! Criterion benches for the ML substrate: classifier training and
//! whole-population scoring (the dominant LSS phase-2 overhead), and
//! the service's own proxy (`forest_service`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lts_core::warm::train_proxy;
use lts_core::Labeler;
use lts_data::{neighbors_scenario, sports_scenario, SelectivityLevel};
use lts_learn::{Classifier, GaussianNb, Gbm, Knn, Logistic, Matrix, Mlp, RandomForest};
use std::hint::black_box;

fn blob_data(n: usize, seed: u64) -> (Matrix, Vec<bool>) {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let cls = next() < 0.4;
        let (cx, cy) = if cls { (2.0, 2.0) } else { (0.0, 0.0) };
        rows.push(vec![cx + next() * 1.6 - 0.8, cy + next() * 1.6 - 0.8]);
        labels.push(cls);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier_fit");
    group.sample_size(10);
    let (x, y) = blob_data(1_000, 5);
    group.bench_function("knn_k5_n1000", |b| {
        b.iter(|| {
            let mut m = Knn::new(5).unwrap();
            m.fit(black_box(&x), &y).unwrap();
            m
        })
    });
    group.bench_function("rf_100trees_n1000", |b| {
        b.iter(|| {
            let mut m = RandomForest::with_trees(100, 1);
            m.fit(black_box(&x), &y).unwrap();
            m
        })
    });
    group.bench_function("mlp_200epochs_n1000", |b| {
        b.iter(|| {
            let mut m = Mlp::with_seed(1);
            m.fit(black_box(&x), &y).unwrap();
            m
        })
    });
    group.bench_function("logistic_n1000", |b| {
        b.iter(|| {
            let mut m = Logistic::default();
            m.fit(black_box(&x), &y).unwrap();
            m
        })
    });
    group.bench_function("gnb_n1000", |b| {
        b.iter(|| {
            let mut m = GaussianNb::default();
            m.fit(black_box(&x), &y).unwrap();
            m
        })
    });
    group.bench_function("gbm_50rounds_n1000", |b| {
        b.iter(|| {
            let mut m = Gbm::default();
            m.fit(black_box(&x), &y).unwrap();
            m
        })
    });
    group.finish();
}

fn bench_score_population(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_population");
    group.sample_size(10);
    let (x_train, y) = blob_data(1_000, 5);
    let (x_pop, _) = blob_data(50_000, 9);

    let mut knn = Knn::new(5).unwrap();
    knn.fit(&x_train, &y).unwrap();
    let mut rf = RandomForest::with_trees(100, 1);
    rf.fit(&x_train, &y).unwrap();
    let mut nn = Mlp::with_seed(1);
    nn.fit(&x_train, &y).unwrap();
    let mut gnb = GaussianNb::default();
    gnb.fit(&x_train, &y).unwrap();
    let mut gbm = Gbm::default();
    gbm.fit(&x_train, &y).unwrap();

    for (name, model) in [
        ("knn", &knn as &dyn Classifier),
        ("rf100", &rf as &dyn Classifier),
        ("mlp", &nn as &dyn Classifier),
        ("gnb", &gnb as &dyn Classifier),
        ("gbm50", &gbm as &dyn Classifier),
    ] {
        group.bench_with_input(BenchmarkId::new(name, "50k_rows"), &x_pop, |b, x| {
            b.iter(|| model.score_batch(black_box(x)).unwrap())
        });
    }
    group.finish();
}

/// The proxy a cold prepare fits and scores with: 100 trees on 100 / 150
/// labelled rows of an 8 000-row scenario (seed 1), then the whole
/// population — `fit` (which ends in the table build), `score_batch`
/// over 8 000 rows, and the table build alone.
fn bench_forest_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest_service");
    group.sample_size(10);
    let scenarios = [
        ("sports", sports_scenario(8_000, SelectivityLevel::M, 1)),
        (
            "neighbors",
            neighbors_scenario(8_000, SelectivityLevel::M, 1),
        ),
    ];
    for (name, scenario) in scenarios {
        let problem = scenario.unwrap().problem;
        let population = problem.features();
        for train in [100, 150] {
            let mut labeler = Labeler::new(&problem);
            let proxy = train_proxy(&problem, &Default::default(), train, 1, &mut labeler).unwrap();
            let x = population.gather(&proxy.labeled);
            let y = proxy.labels;
            let tag = format!("{name}_train{train}");
            group.bench_function(format!("fit/{tag}"), |b| {
                b.iter(|| {
                    let mut m = RandomForest::with_trees(100, 1);
                    m.fit(black_box(&x), &y).unwrap();
                    m
                })
            });
            let mut forest = RandomForest::with_trees(100, 1);
            forest.fit(&x, &y).unwrap();
            group.bench_function(format!("score_batch_8000/{tag}"), |b| {
                b.iter(|| forest.score_batch(black_box(population)).unwrap())
            });
            group.bench_function(format!("table_build/{tag}"), |b| {
                b.iter(|| forest.rebuild_table())
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fit,
    bench_score_population,
    bench_forest_service
);
criterion_main!(benches);
