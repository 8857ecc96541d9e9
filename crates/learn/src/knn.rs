//! k-nearest-neighbour classifier.
//!
//! The classifier used for Figure 1's decision-boundary heat maps. The
//! score `g(o)` is the fraction of positive labels among the `k` nearest
//! training points (standardized features, Euclidean distance) — a value
//! in `{0, 1/k, …, 1}` that directly expresses confidence.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::kdtree::KdTree;
use crate::matrix::Matrix;
use crate::scaler::StandardScaler;

/// k-NN classifier over a kd-tree.
#[derive(Debug, Clone)]
pub struct Knn {
    k: usize,
    scaler: Option<StandardScaler>,
    tree: Option<KdTree>,
    labels: Vec<bool>,
}

impl Knn {
    /// Create an (unfitted) k-NN classifier.
    ///
    /// # Errors
    ///
    /// Returns an error if `k == 0`.
    pub fn new(k: usize) -> LearnResult<Self> {
        if k == 0 {
            return Err(LearnError::InvalidParameter {
                name: "k",
                message: "k must be at least 1".into(),
            });
        }
        Ok(Self {
            k,
            scaler: None,
            tree: None,
            labels: Vec::new(),
        })
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Default for Knn {
    /// `k = 5`, a common default.
    fn default() -> Self {
        Self::new(5).expect("5 > 0")
    }
}

impl Classifier for Knn {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        let scaler = StandardScaler::fit(x)?;
        let scaled = scaler.transform(x)?;
        self.tree = Some(KdTree::build(scaled));
        self.scaler = Some(scaler);
        self.labels = y.to_vec();
        Ok(())
    }

    fn score(&self, row: &[f64]) -> LearnResult<f64> {
        let (tree, scaler) = match (&self.tree, &self.scaler) {
            (Some(t), Some(s)) => (t, s),
            _ => return Err(LearnError::NotFitted),
        };
        let q = scaler.transform_row(row)?;
        let nn = tree.knn(&q, self.k.min(self.labels.len()));
        if nn.is_empty() {
            return Err(LearnError::NotFitted);
        }
        let pos = nn.iter().filter(|&&(i, _)| self.labels[i]).count();
        Ok(pos as f64 / nn.len() as f64)
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> (Matrix, Vec<bool>) {
        // Two well-separated clusters.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 5u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..60 {
            rows.push(vec![next() + 0.0, next() + 0.0]);
            labels.push(false);
            rows.push(vec![next() + 5.0, next() + 5.0]);
            labels.push(true);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separable_clusters_classified_confidently() {
        let (x, y) = blobs();
        let mut knn = Knn::new(5).unwrap();
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.score(&[0.1, -0.1]).unwrap(), 0.0);
        assert_eq!(knn.score(&[5.1, 4.9]).unwrap(), 1.0);
        assert!(knn.predict(&[4.8, 5.2]).unwrap());
        assert!(!knn.predict(&[0.0, 0.0]).unwrap());
        // Midpoint is uncertain-ish (score strictly between 0 and 1 not
        // guaranteed, but must be a valid probability).
        let s = knn.score(&[2.5, 2.5]).unwrap();
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn k_larger_than_training_set() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let y = vec![false, true, true];
        let mut knn = Knn::new(10).unwrap();
        knn.fit(&x, &y).unwrap();
        // Uses all 3 neighbours → score 2/3 everywhere.
        assert!((knn.score(&[0.5]).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_class_training() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let mut knn = Knn::default();
        knn.fit(&x, &[true, true]).unwrap();
        assert_eq!(knn.score(&[0.5]).unwrap(), 1.0);
    }

    #[test]
    fn unfitted_and_invalid() {
        assert!(Knn::new(0).is_err());
        let knn = Knn::default();
        assert!(matches!(knn.score(&[1.0]), Err(LearnError::NotFitted)));
        let mut knn = Knn::default();
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(knn.fit(&x, &[]).is_err());
        knn.fit(&x, &[true]).unwrap();
        assert!(knn.score(&[1.0, 2.0]).is_err()); // wrong dims
        assert_eq!(knn.name(), "knn");
        assert_eq!(knn.k(), 5);
    }

    #[test]
    fn scores_reflect_neighbourhood_mix() {
        // 1-d line: negatives at 0..5, positives at 10..15. Query at 7.5
        // with k=4 sees a mix.
        let rows: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![f64::from(i)])
            .chain((10..15).map(|i| vec![f64::from(i)]))
            .collect();
        let y: Vec<bool> = (0..10).map(|i| i >= 5).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut knn = Knn::new(4).unwrap();
        knn.fit(&x, &y).unwrap();
        let s = knn.score(&[7.4]).unwrap();
        assert!(s > 0.0 && s < 1.0, "mixed neighbourhood: {s}");
    }
}
