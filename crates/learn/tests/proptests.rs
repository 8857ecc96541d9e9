//! Property-based tests for the ML substrate.

mod forest_oracle;

use lts_learn::forest::{ForestConfig, MAX_TABLE_CELLS};
use lts_learn::kdtree::KdTree;
use lts_learn::tree::Node;
use lts_learn::{
    accuracy, confusion, k_fold_indices, Classifier, DecisionTree, Knn, Matrix, RandomForest,
    StandardScaler, TreeConfig,
};
use proptest::prelude::*;

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kdtree_matches_linear_scan(
        points in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, 3), 1..120),
        k in 1usize..6,
    ) {
        let m = Matrix::from_rows(&points).unwrap();
        let tree = KdTree::build(m.clone());
        let query = points[0].clone();
        let got = tree.knn(&query, k);
        let mut want: Vec<f64> = points.iter().map(|p| dist2(p, &query)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for ((_, d_got), d_want) in got.iter().zip(&want) {
            prop_assert!((d_got - d_want).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_roundtrip_statistics(
        rows in proptest::collection::vec(
            proptest::collection::vec(-50.0f64..50.0, 2), 2..60),
    ) {
        let m = Matrix::from_rows(&rows).unwrap();
        let scaler = StandardScaler::fit(&m).unwrap();
        let t = scaler.transform(&m).unwrap();
        for c in 0..t.cols() {
            let vals: Vec<f64> = t.iter_rows().map(|r| r[c]).collect();
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            prop_assert!(mean.abs() < 1e-8, "column {c} mean {mean}");
        }
    }

    #[test]
    fn classifier_scores_always_unit_interval(
        labels in proptest::collection::vec(any::<bool>(), 8..40),
        seed in any::<u64>(),
    ) {
        let rows: Vec<Vec<f64>> = (0..labels.len())
            .map(|i| vec![i as f64, (i * i % 17) as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut knn = Knn::new(3).unwrap();
        knn.fit(&x, &labels).unwrap();
        let mut rf = RandomForest::with_trees(8, seed);
        rf.fit(&x, &labels).unwrap();
        for row in x.iter_rows() {
            for model in [&knn as &dyn Classifier, &rf as &dyn Classifier] {
                let s = model.score(row).unwrap();
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn folds_partition(n in 4usize..200, k in 2usize..5, seed in any::<u64>()) {
        prop_assume!(k <= n);
        let folds = k_fold_indices(n, k, seed).unwrap();
        let mut all: Vec<usize> = folds.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn confusion_identities(
        pairs in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..100),
    ) {
        let pred: Vec<bool> = pairs.iter().map(|&(p, _)| p).collect();
        let act: Vec<bool> = pairs.iter().map(|&(_, a)| a).collect();
        let m = confusion(&pred, &act).unwrap();
        prop_assert_eq!(m.total(), pairs.len());
        let acc = accuracy(&pred, &act).unwrap();
        prop_assert!((acc - m.accuracy()).abs() < 1e-12);
        // tpr·P + (1−fpr)·N = correct predictions count identity.
        if let (Some(tpr), Some(fpr)) = (m.tpr(), m.fpr()) {
            let p = (m.tp + m.fn_) as f64;
            let n = (m.fp + m.tn) as f64;
            let correct = tpr * p + (1.0 - fpr) * n;
            prop_assert!((correct - (m.tp + m.tn) as f64).abs() < 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// The forest's score table against the walk it replaces.
// ---------------------------------------------------------------------

/// The node walk summed in tree order: what the score table must equal
/// bit for bit.
fn walk(forest: &RandomForest, row: &[f64]) -> f64 {
    let mut sum = 0.0;
    for tree in forest.trees() {
        sum += tree.score(row).unwrap();
    }
    sum / forest.trees().len() as f64
}

/// Signed zeros and the smallest subnormals: both `−0.0` and `+0.0`
/// become thresholds (`0.5·(−5e-324 + −0.0) = −0.0`).
const TINY: [f64; 4] = [-5e-324, -0.0, 0.0, 5e-324];
/// Values whose sums overflow, so that midpoints become `±∞`.
const HUGE: [f64; 6] = [-1.7e308, -1.5e308, -1e308, 1e308, 1.5e308, 1.7e308];

/// Feature value of kind `kind` from one random draw: 0 integer-valued
/// (sports-like), 1 continuous, 2 [`TINY`], 3 [`HUGE`].
fn feature_value(kind: u8, draw: u64) -> f64 {
    match kind {
        0 => (draw % 6) as f64,
        1 => (draw >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0,
        2 => TINY[(draw % 4) as usize],
        _ => HUGE[(draw % 6) as usize],
    }
}

/// Query values for one feature: the non-finite and signed-zero edges,
/// subnormals, every training value, and every midpoint of two training
/// values (a superset of the trees' thresholds) with its neighbours.
fn query_values(train: &[f64]) -> Vec<f64> {
    let mut out = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
    ];
    for (i, &a) in train.iter().enumerate() {
        out.push(a);
        for &b in &train[i + 1..] {
            let t = 0.5 * (a + b);
            out.extend([t, t.next_up(), t.next_down()]);
        }
    }
    out
}

/// Fit a forest and hold `score` and `score_batch` to the walk on every
/// query row; returns the forest for path assertions.
fn check_table_against_walk(
    rows: &[Vec<f64>],
    labels: &[bool],
    n_trees: usize,
    seed: u64,
) -> Result<RandomForest, TestCaseError> {
    let d = rows[0].len();
    let x = Matrix::from_rows(rows).unwrap();
    let mut forest = RandomForest::with_trees(n_trees, seed);
    forest.fit(&x, labels).unwrap();
    // Per feature, vary one coordinate over its query values; the other
    // coordinates cycle through the training rows and the query values
    // of their own features.
    let values: Vec<Vec<f64>> = (0..d)
        .map(|f| query_values(&rows.iter().map(|r| r[f]).collect::<Vec<_>>()))
        .collect();
    let mut queries = Vec::new();
    for (f, vals) in values.iter().enumerate() {
        for (i, &v) in vals.iter().enumerate() {
            let mut row = rows[i % rows.len()].clone();
            if i % 3 == 0 {
                for (g, other) in values.iter().enumerate() {
                    row[g] = other[(i / 3 + g) % other.len()];
                }
            }
            row[f] = v;
            queries.push(row);
        }
    }
    let q = Matrix::from_rows(&queries).unwrap();
    let batch = forest.score_batch(&q).unwrap();
    for (row, b) in queries.iter().zip(&batch) {
        let want = walk(&forest, row).to_bits();
        prop_assert_eq!(b.to_bits(), want, "score_batch at {:?}", row);
        prop_assert_eq!(
            forest.score(row).unwrap().to_bits(),
            want,
            "score at {:?}",
            row
        );
    }
    Ok(forest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The table answers what the walk answers, bit for bit, including
    /// NaN / ±∞ / signed-zero / subnormal queries, `±∞` thresholds and
    /// `−0.0` ≡ `+0.0` thresholds — and it is the path taken whenever
    /// the grid provably fits under the cap.
    #[test]
    fn forest_table_matches_walk(
        d in 1usize..=4,
        kinds in proptest::collection::vec(0u8..4, 4),
        draws in proptest::collection::vec(any::<u64>(), 4 * 40),
        n_base in 2usize..30,
        dups in proptest::collection::vec(any::<u64>(), 0..10),
        labels in proptest::collection::vec(any::<bool>(), 40),
        n_trees in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rows: Vec<Vec<f64>> = (0..n_base)
            .map(|i| (0..d).map(|f| feature_value(kinds[f], draws[4 * i + f])).collect())
            .collect();
        for &k in &dups {
            rows.push(rows[(k % n_base as u64) as usize].clone());
        }
        let forest = check_table_against_walk(&rows, &labels[..rows.len()], n_trees, seed)?;
        // A tree of n rows has at most n − 1 splits, so the grid has at
        // most (S/d + 1)^d cells for S = n_trees·(n − 1) (AM–GM).
        let splits = (n_trees * (rows.len() - 1)) as f64;
        let bound = (splits / d as f64 + 1.0).powi(d as i32);
        if bound <= MAX_TABLE_CELLS as f64 {
            prop_assert!(forest.table_cells().is_some(), "bound {} but no table", bound);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A forest whose grid is above the cap keeps no table, walks, and
    /// still agrees.
    #[test]
    fn forest_table_over_the_cap_walks(
        draws in proptest::collection::vec(any::<u64>(), 6 * 60),
        seed in any::<u64>(),
    ) {
        let rows: Vec<Vec<f64>> = draws.chunks(6)
            .map(|c| c.iter().map(|&u| feature_value(1, u)).collect())
            .collect();
        let labels: Vec<bool> = draws.chunks(6).map(|c| c[0] & 1 == 0).collect();
        let forest = check_table_against_walk(&rows, &labels, 30, seed)?;
        prop_assert_eq!(forest.table_cells(), None);
    }
}

// ---------------------------------------------------------------------
// Trees grown over orders sorted once against the per-node-sort oracle.
// ---------------------------------------------------------------------

/// The same nodes in the same order: features, children, and the bits
/// of every threshold and leaf score.
fn assert_same_nodes(got: &[Node], want: &[forest_oracle::Node]) -> Result<(), TestCaseError> {
    use forest_oracle::Node as Want;
    prop_assert_eq!(got.len(), want.len(), "node counts");
    for (k, pair) in got.iter().zip(want).enumerate() {
        match pair {
            (Node::Leaf { p }, Want::Leaf { p: q }) => {
                prop_assert_eq!(p.to_bits(), q.to_bits(), "leaf {}", k);
            }
            (
                &Node::Split {
                    feat,
                    thr,
                    left,
                    right,
                },
                &Want::Split {
                    feat: f,
                    thr: t,
                    left: l,
                    right: r,
                },
            ) => prop_assert_eq!((feat, thr.to_bits(), left, right), (f, t.to_bits(), l, r)),
            (g, w) => prop_assert!(false, "node {}: {:?} vs oracle {:?}", k, g, w),
        }
    }
    Ok(())
}

/// `n` rows of `d` features, `distinct` of them drawn — each feature of
/// a kind: 0 integers in 0..6 (long runs of ties), 1 continuous, 2
/// signed zeros and subnormals, 3 overflowing midpoints, 4 constant,
/// 5 and 6 continuous — and the rest copies of earlier rows.
fn oracle_rows(n: usize, d: usize, kinds: &[u8], distinct: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state ^ (state >> 29)
    };
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let row = if i < distinct {
            (0..d)
                .map(|f| match kinds[f] {
                    4 => 7.0,
                    kind @ 0..=3 => feature_value(kind, next()),
                    _ => feature_value(1, next()),
                })
                .collect()
        } else {
            rows[(next() % i as u64) as usize].clone()
        };
        rows.push(row);
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A lone tree and a forest grown over presorted feature orders
    /// equal the oracle's per-node-sort trees node for node, and the
    /// forest scores what the oracle's walk scores, bit for bit — on
    /// duplicate rows, ties, `±0.0`, `±∞` thresholds and constant
    /// columns, at every stopping rule and feature subsample.
    #[test]
    fn forest_matches_per_node_sort_oracle(
        n in prop_oneof![Just(1usize), Just(2), Just(37), Just(150), Just(400)],
        d in prop_oneof![Just(1usize), Just(2), Just(5)],
        kinds in proptest::collection::vec(0u8..7, 5),
        distinct_share in 0.0f64..1.0,
        label_shape in 0u8..10,
        max_depth in prop_oneof![Just(0usize), Just(1), Just(12)],
        min_samples_leaf in prop_oneof![Just(1usize), 2usize..6],
        min_samples_split in prop_oneof![Just(2usize), 3usize..9],
        max_features in 0usize..3,
        n_trees in prop_oneof![Just(1usize), Just(100)],
        seed in any::<u64>(),
    ) {
        let distinct = (1 + (distinct_share * n as f64) as usize).min(n);
        let rows = oracle_rows(n, d, &kinds, distinct, seed);
        // One label throughout (0, 1), a random share (2…5), or a noisy
        // step in the first feature (6…9).
        let mut state = seed ^ 0x5DEE_CE66;
        let mut unit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mid = rows[n / 2][0];
        let labels: Vec<bool> = rows
            .iter()
            .map(|row| match label_shape {
                0 | 1 => label_shape == 1,
                2..=5 => unit() < f64::from(label_shape - 1) / 5.0,
                _ => (row[0] > mid) != (unit() < f64::from(label_shape - 5) / 10.0),
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree = TreeConfig {
            max_depth,
            min_samples_split,
            min_samples_leaf,
            max_features: [None, Some(1), Some(d)][max_features],
            seed: seed.rotate_left(17),
        };

        let mut lone = DecisionTree::new(tree);
        lone.fit(&x, &labels).unwrap();
        assert_same_nodes(lone.nodes(), &forest_oracle::fit_tree(tree, &x, &labels))?;

        let mut forest = RandomForest::new(ForestConfig { n_trees, tree, seed });
        forest.fit(&x, &labels).unwrap();
        let want = forest_oracle::fit_forest(n_trees, tree, seed, &x, &labels);
        prop_assert_eq!(forest.len(), want.len());
        for (got, want) in forest.trees().iter().zip(&want) {
            assert_same_nodes(got.nodes(), want)?;
        }
        // Every training row, and row 0 moved onto each threshold of
        // the first tree and just past it.
        let mut queries = rows.clone();
        for node in &want[0] {
            if let forest_oracle::Node::Split { feat, thr, .. } = *node {
                for v in [thr, thr.next_up()] {
                    let mut row = rows[0].clone();
                    row[feat] = v;
                    queries.push(row);
                }
            }
        }
        for row in &queries {
            prop_assert_eq!(
                forest.score(row).unwrap().to_bits(),
                forest_oracle::score(&want, row).to_bits(),
                "score at {:?}",
                row
            );
        }
    }
}

// ---------------------------------------------------------------------
// New classifier families: Gaussian NB and gradient-boosted trees.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GNB scores are finite posteriors in [0, 1] for any training set,
    /// and mirroring every feature mirrors the posterior (class
    /// symmetry).
    #[test]
    fn gnb_scores_are_valid_posteriors(
        rows in proptest::collection::vec(
            proptest::collection::vec(-20.0f64..20.0, 2), 4..50),
        flip in any::<u8>(),
    ) {
        use lts_learn::GaussianNb;
        let m = Matrix::from_rows(&rows).unwrap();
        // Labels from a hash of the row index — both classes usually
        // present, sometimes single-class (also a valid input).
        let y: Vec<bool> = (0..rows.len())
            .map(|i| (i as u8).wrapping_mul(97).wrapping_add(flip) % 3 == 0)
            .collect();
        let mut nb = GaussianNb::default();
        nb.fit(&m, &y).unwrap();
        for row in m.iter_rows() {
            let s = nb.score(row).unwrap();
            prop_assert!(s.is_finite() && (0.0..=1.0).contains(&s), "score {s}");
        }
    }

    /// GNB posterior is antisymmetric under label flip: swapping all
    /// labels maps the score g to 1 - g.
    #[test]
    fn gnb_label_flip_mirrors_posterior(
        rows in proptest::collection::vec(
            proptest::collection::vec(-20.0f64..20.0, 2), 6..40),
    ) {
        use lts_learn::GaussianNb;
        let m = Matrix::from_rows(&rows).unwrap();
        let y: Vec<bool> = (0..rows.len()).map(|i| i % 2 == 0).collect();
        let y_flip: Vec<bool> = y.iter().map(|&b| !b).collect();
        let mut a = GaussianNb::default();
        let mut b = GaussianNb::default();
        a.fit(&m, &y).unwrap();
        b.fit(&m, &y_flip).unwrap();
        for row in m.iter_rows() {
            let (sa, sb) = (a.score(row).unwrap(), b.score(row).unwrap());
            prop_assert!((sa - (1.0 - sb)).abs() < 1e-9, "{sa} vs 1-{sb}");
        }
    }

    /// GBM scores stay in (0, 1) and training reduces (or preserves)
    /// log-loss relative to the prior for any labeled set.
    #[test]
    fn gbm_training_never_hurts_fit(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 2), 8..40),
        salt in any::<u8>(),
    ) {
        use lts_learn::{Gbm, GbmConfig};
        let m = Matrix::from_rows(&rows).unwrap();
        // Learnable labels: sign of the first feature, salted.
        let y: Vec<bool> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| r[0] > f64::from(salt % 5) - 2.0 || i % 7 == 0)
            .collect();
        let positives = y.iter().filter(|&&b| b).count();
        let n = y.len();
        let p0 = ((positives as f64 + 0.5) / (n as f64 + 1.0)).clamp(1e-6, 1.0 - 1e-6);
        let log_loss = |scores: &[f64]| -> f64 {
            scores
                .iter()
                .zip(&y)
                .map(|(&s, &b)| {
                    let s = s.clamp(1e-9, 1.0 - 1e-9);
                    if b { -s.ln() } else { -(1.0 - s).ln() }
                })
                .sum::<f64>()
                / n as f64
        };
        let mut gbm = Gbm::new(GbmConfig { n_rounds: 20, ..GbmConfig::default() });
        gbm.fit(&m, &y).unwrap();
        let scores: Vec<f64> = m.iter_rows().map(|r| gbm.score(r).unwrap()).collect();
        for &s in &scores {
            prop_assert!(s.is_finite() && (0.0..=1.0).contains(&s));
        }
        let prior_scores = vec![p0; n];
        prop_assert!(
            log_loss(&scores) <= log_loss(&prior_scores) + 1e-6,
            "boosted log-loss {} worse than prior {}",
            log_loss(&scores),
            log_loss(&prior_scores)
        );
    }
}
