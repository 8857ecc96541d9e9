//! CART decision tree (Gini impurity).
//!
//! The base learner for [`crate::forest::RandomForest`]. Supports feature
//! subsampling at every split (the forest's decorrelation device) and the
//! usual depth/leaf-size stopping rules. Leaf scores are the positive
//! fraction of training labels reaching the leaf.
//!
//! **Split search** sorts a node's `(value, label)` pairs per candidate
//! feature (`sort_unstable_by(total_cmp)` into one buffer per node)
//! and prices every cut between unequal neighbours from a running positive
//! count. No cut falls inside a run of equal values, so tie order changes
//! no cut, gain or threshold. Thresholds are midpoints of finite training
//! values: finite, or `±∞` on overflow, never NaN — what the forest's
//! score table relies on.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Number of features considered per split (`None` = all).
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Leaf {
        p: f64,
    },
    Split {
        feat: usize,
        thr: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
    dims: usize,
    fitted: bool,
}

impl DecisionTree {
    /// Create an unfitted tree.
    pub fn new(config: TreeConfig) -> Self {
        Self {
            config,
            nodes: Vec::new(),
            dims: 0,
            fitted: false,
        }
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The fitted nodes; the root is the last one.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Leaf probability for a row without the fitted/dimension checks
    /// (the forest checks a row once for all its trees).
    pub(crate) fn score_unchecked(&self, row: &[f64]) -> f64 {
        let mut node = self.nodes.len() - 1; // root is last
        loop {
            match &self.nodes[node] {
                Node::Leaf { p } => return *p,
                Node::Split {
                    feat,
                    thr,
                    left,
                    right,
                } => {
                    node = if row[*feat] <= *thr { *left } else { *right };
                }
            }
        }
    }

    fn build(
        &mut self,
        x: &Matrix,
        y: &[bool],
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let positives = idx.iter().filter(|&&i| y[i]).count();
        let n = idx.len();
        let p = positives as f64 / n as f64;
        let pure = positives == 0 || positives == n;
        if pure || depth >= self.config.max_depth || n < self.config.min_samples_split {
            self.nodes.push(Node::Leaf { p });
            return self.nodes.len() - 1;
        }

        // Candidate features (subsampled for forests).
        let mut feats: Vec<usize> = (0..x.cols()).collect();
        if let Some(m) = self.config.max_features {
            feats.shuffle(rng);
            feats.truncate(m.max(1).min(x.cols()));
        }

        let parent_gini = gini(p);
        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, gain)
        let mut pairs: Vec<(f64, bool)> = Vec::with_capacity(n);
        for &feat in &feats {
            pairs.clear();
            pairs.extend(idx.iter().map(|&i| (x.row(i)[feat], y[i])));
            pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            // Prefix positives for O(1) impurity at every cut.
            let mut pos_left = 0usize;
            for cut in 1..n {
                let (a, positive) = pairs[cut - 1];
                if positive {
                    pos_left += 1;
                }
                let b = pairs[cut].0;
                if a == b {
                    continue; // can't cut between equal values
                }
                let n_l = cut;
                let n_r = n - cut;
                if n_l < self.config.min_samples_leaf || n_r < self.config.min_samples_leaf {
                    continue;
                }
                let p_l = pos_left as f64 / n_l as f64;
                let p_r = (positives - pos_left) as f64 / n_r as f64;
                let w_gini = (n_l as f64 * gini(p_l) + n_r as f64 * gini(p_r)) / n as f64;
                let gain = parent_gini - w_gini;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((feat, 0.5 * (a + b), gain));
                }
            }
        }

        let Some((feat, thr, _)) = best else {
            self.nodes.push(Node::Leaf { p });
            return self.nodes.len() - 1;
        };

        // Partition indices.
        let (mut l, mut r): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for &i in idx.iter() {
            if x.row(i)[feat] <= thr {
                l.push(i);
            } else {
                r.push(i);
            }
        }
        if l.is_empty() || r.is_empty() {
            self.nodes.push(Node::Leaf { p });
            return self.nodes.len() - 1;
        }
        let left = self.build(x, y, &mut l, depth + 1, rng);
        let right = self.build(x, y, &mut r, depth + 1, rng);
        self.nodes.push(Node::Split {
            feat,
            thr,
            left,
            right,
        });
        self.nodes.len() - 1
    }
}

#[inline]
fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        self.nodes.clear();
        self.dims = x.cols();
        let mut idx: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let root = self.build(x, y, &mut idx, 0, &mut rng);
        debug_assert_eq!(root, self.nodes.len() - 1, "root is last node");
        self.fitted = true;
        Ok(())
    }

    fn score(&self, row: &[f64]) -> LearnResult<f64> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        if row.len() != self.dims {
            return Err(LearnError::DimensionMismatch {
                expected: self.dims,
                found: row.len(),
            });
        }
        Ok(self.score_unchecked(row))
    }

    fn name(&self) -> &'static str {
        "tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<bool>) {
        // Noisy XOR: needs depth ≥ 2.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = f64::from(i % 2);
            let b = f64::from((i / 2) % 2);
            let jitter = f64::from(i % 7) * 0.01;
            rows.push(vec![a + jitter, b - jitter]);
            y.push((a > 0.5) != (b > 0.5));
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        assert!(!t.predict(&[0.0, 0.0]).unwrap());
        assert!(t.predict(&[1.0, 0.0]).unwrap());
        assert!(t.predict(&[0.0, 1.0]).unwrap());
        assert!(!t.predict(&[1.0, 1.0]).unwrap());
    }

    #[test]
    fn pure_training_set_is_a_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &[true, true, true]).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.score(&[9.9]).unwrap(), 1.0);
    }

    #[test]
    fn max_depth_zero_gives_prior() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        });
        t.fit(&x, &y).unwrap();
        let prior = y.iter().filter(|&&b| b).count() as f64 / y.len() as f64;
        assert!((t.score(&[0.0, 0.0]).unwrap() - prior).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_respected() {
        // With a huge min_samples_leaf no split is possible.
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig {
            min_samples_leaf: 1000,
            ..TreeConfig::default()
        });
        t.fit(&x, &y).unwrap();
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let y = vec![true, false, true, false];
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        assert_eq!(t.node_count(), 1);
        assert!((t.score(&[1.0]).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_and_errors() {
        let t = DecisionTree::new(TreeConfig::default());
        assert!(matches!(t.score(&[0.0]), Err(LearnError::NotFitted)));
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &y).unwrap();
        assert!(t.score(&[0.0]).is_err()); // wrong dims
        assert_eq!(t.name(), "tree");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_features: Some(1),
            seed: 42,
            ..TreeConfig::default()
        };
        let mut a = DecisionTree::new(cfg);
        let mut b = DecisionTree::new(cfg);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for pt in [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]] {
            assert_eq!(a.score(&pt).unwrap(), b.score(&pt).unwrap());
        }
    }
}
