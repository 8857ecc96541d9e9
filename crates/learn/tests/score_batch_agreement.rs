//! Property tests of the contract of the trait's provided
//! `score_batch`, the per-row loop every classifier scores through:
//! **bit-identical** to mapping per-row `score` (values and first
//! error) over random matrices and NaN/extreme query features, equal
//! under arbitrary row splits (the per-row-purity property
//! partition-parallel scoring relies on), and empty on empty input.

use lts_learn::{
    Classifier, ConstantScore, GaussianNb, Gbm, GbmConfig, Knn, Logistic, Matrix, Mlp,
    RandomForest, RandomScores,
};
use proptest::prelude::*;

/// Every classifier family, fitted on the given training data.
fn fitted_models(x: &Matrix, y: &[bool]) -> Vec<Box<dyn Classifier>> {
    let mut models: Vec<Box<dyn Classifier>> = vec![
        Box::new(Knn::new(3).unwrap()),
        Box::new(RandomForest::with_trees(7, 13)),
        Box::new(Mlp::with_seed(5)),
        Box::new(Logistic::default()),
        Box::new(GaussianNb::default()),
        Box::new(Gbm::new(GbmConfig {
            n_rounds: 6,
            ..GbmConfig::default()
        })),
        Box::new(RandomScores::new(21)),
        Box::new(ConstantScore::new(0.4)),
    ];
    for m in &mut models {
        m.fit(x, y).unwrap();
    }
    models
}

/// Bitwise equality that also equates NaNs of identical payload.
fn assert_bits_eq(batch: &[f64], per_row: &[f64], tag: &str) {
    assert_eq!(batch.len(), per_row.len(), "{tag}: length");
    for (i, (b, r)) in batch.iter().zip(per_row).enumerate() {
        assert_eq!(
            b.to_bits(),
            r.to_bits(),
            "{tag}: row {i} diverged ({b} vs {r})"
        );
    }
}

fn check_agreement(models: &[Box<dyn Classifier>], queries: &Matrix, splits: &[usize]) {
    for m in models {
        let per_row: Vec<f64> = queries
            .iter_rows()
            .map(|row| m.score(row).unwrap())
            .collect();
        let batch = m.score_batch(queries).unwrap();
        assert_bits_eq(&batch, &per_row, m.name());

        // Per-row purity: scoring any contiguous split of the rows and
        // concatenating in order equals the single batch.
        let mut stitched = Vec::with_capacity(queries.rows());
        let mut prev = 0usize;
        for &cut in splits {
            let cut = cut.min(queries.rows()).max(prev);
            let part: Vec<usize> = (prev..cut).collect();
            stitched.extend(m.score_batch(&queries.gather(&part)).unwrap());
            prev = cut;
        }
        let part: Vec<usize> = (prev..queries.rows()).collect();
        stitched.extend(m.score_batch(&queries.gather(&part)).unwrap());
        assert_bits_eq(&stitched, &per_row, &format!("{} (split)", m.name()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_equals_per_row_on_random_matrices(
        train in proptest::collection::vec(
            proptest::collection::vec(-50.0f64..50.0, 2), 8..40),
        queries in proptest::collection::vec(
            proptest::collection::vec(-80.0f64..80.0, 2), 1..60),
        splits in proptest::collection::vec(0usize..60, 0..4),
    ) {
        let y: Vec<bool> = train.iter().map(|r| r[0] + r[1] > 0.0).collect();
        let x = Matrix::from_rows(&train).unwrap();
        let q = Matrix::from_rows(&queries).unwrap();
        let mut splits = splits;
        splits.sort_unstable();
        check_agreement(&fitted_models(&x, &y), &q, &splits);
    }

    #[test]
    fn batch_equals_per_row_on_single_class_training(
        train in proptest::collection::vec(
            proptest::collection::vec(-5.0f64..5.0, 2), 4..20),
        positive in any::<bool>(),
    ) {
        let y = vec![positive; train.len()];
        let x = Matrix::from_rows(&train).unwrap();
        let q = Matrix::from_rows(&train).unwrap();
        check_agreement(&fitted_models(&x, &y), &q, &[1, 3]);
    }
}

#[test]
fn batch_equals_per_row_on_nan_and_extreme_features() {
    let train: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![f64::from(i), f64::from(i % 7)])
        .collect();
    let y: Vec<bool> = (0..30).map(|i| i >= 15).collect();
    let x = Matrix::from_rows(&train).unwrap();
    let models = fitted_models(&x, &y);

    // Queries may be non-finite even though training must be finite:
    // scoring must propagate them identically in both paths.
    let queries = Matrix::from_rows(&[
        vec![f64::NAN, 1.0],
        vec![1.0, f64::NAN],
        vec![f64::INFINITY, f64::NEG_INFINITY],
        vec![f64::MAX, f64::MIN],
        vec![f64::MIN_POSITIVE, -0.0],
        vec![1e300, -1e300],
        vec![f64::NAN, f64::NAN],
    ])
    .unwrap();
    check_agreement(&models, &queries, &[2, 5]);
}

#[test]
fn empty_input_yields_empty_output_even_unfitted() {
    let unfitted: Vec<Box<dyn Classifier>> = vec![
        Box::new(Knn::new(3).unwrap()),
        Box::new(RandomForest::with_trees(3, 1)),
        Box::new(Mlp::with_seed(0)),
        Box::new(Logistic::default()),
        Box::new(GaussianNb::default()),
        Box::new(Gbm::default()),
        Box::new(RandomScores::new(0)),
        Box::new(ConstantScore::new(0.5)),
    ];
    let empty = Matrix::empty(2);
    for m in &unfitted {
        assert!(
            m.score_batch(&empty).unwrap().is_empty(),
            "{}: empty input must yield empty output without a fitted check",
            m.name()
        );
        // But a non-empty batch on an unfitted model errors, exactly
        // like the per-row path (ConstantScore never errors).
        let one = Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap();
        assert_eq!(
            m.score_batch(&one).is_err(),
            m.score(&[0.0, 0.0]).is_err(),
            "{}: unfitted error parity",
            m.name()
        );
    }
}

#[test]
fn dimension_mismatch_errors_match_per_row() {
    let train: Vec<Vec<f64>> = (0..12).map(|i| vec![f64::from(i), 1.0]).collect();
    let y: Vec<bool> = (0..12).map(|i| i % 2 == 0).collect();
    let x = Matrix::from_rows(&train).unwrap();
    let models = fitted_models(&x, &y);
    let wrong = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
    for m in &models {
        // ConstantScore and RandomScores accept any width, like their
        // per-row `score`; every real model rejects it in both paths.
        assert_eq!(
            m.score_batch(&wrong).is_err(),
            m.score(&[1.0, 2.0, 3.0]).is_err(),
            "{}: dimension error parity",
            m.name()
        );
    }
}
