//! CART decision tree (Gini impurity).
//!
//! The base learner for [`crate::forest::RandomForest`]. Supports feature
//! subsampling at every split (the forest's decorrelation device) and the
//! usual depth/leaf-size stopping rules. Leaf scores are the positive
//! fraction of training labels reaching the leaf.
//!
//! **Split search** prices every cut between unequal neighbours of a
//! node's rows in value order, from a running positive count. No cut
//! falls inside a run of equal values, so a node's search depends only on
//! the multiset of its rows, never on their order within a tie. That is
//! what lets the order be made once: each feature's training rows are
//! sorted once (`total_cmp`) per fit — once per forest — and a tree's
//! sample, as per-row counts, repeats each row in place. A node owns the
//! same range of every feature's list; its split marks each row's side
//! and partitions every list stably, so both children stay sorted and a
//! node costs `O(d·n)` — no gather, no sort. The nodes, the RNG calls and
//! their order are those of the per-node sort it replaced (kept as the
//! oracle of `forest_matches_per_node_sort_oracle`). Thresholds are
//! midpoints of finite training values: finite, or `±∞` on overflow,
//! never NaN — what the forest's score table relies on.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One node of a fitted tree; children are indices into the same list.
#[derive(Debug, Clone)]
pub enum Node {
    /// The positive fraction of the training labels reaching it.
    Leaf {
        /// Leaf score.
        p: f64,
    },
    /// Rows with `row[feat] <= thr` go `left`, the rest `right`.
    Split {
        /// Feature index.
        feat: usize,
        /// Threshold.
        thr: f64,
        /// Left child's index.
        left: usize,
        /// Right child's index.
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

    /// The fitted nodes in the order they were made (children before
    /// their parent); the root is the last one.
    pub fn nodes(&self) -> &[Node] {
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
}

/// Grows trees over one training set whose features are sorted once
/// (module doc, "Split search"): the forest's shared start for every
/// tree, and a lone tree's with unit counts.
pub(crate) struct Grower<'a> {
    x: &'a Matrix,
    y: &'a [bool],
    /// Feature `f`'s training rows in `total_cmp` order of their value,
    /// at `f·n..(f + 1)·n`.
    sorted: Vec<u32>,
    /// Per feature, at `f·len..(f + 1)·len`: `sorted` with each row
    /// repeated by its count. A node owns the same range of each.
    lists: Vec<u32>,
    len: usize,
    /// Per training row: whether the split being applied sends it left.
    goes_left: Vec<bool>,
    scratch: Vec<u32>,
    feats: Vec<usize>,
    /// The tree being grown.
    config: TreeConfig,
    nodes: Vec<Node>,
}

impl<'a> Grower<'a> {
    /// Sort every feature of a validated training set once.
    pub(crate) fn new(x: &'a Matrix, y: &'a [bool]) -> Self {
        let (n, d) = (x.rows(), x.cols());
        let rows = u32::try_from(n).expect("fewer than 2³² training rows");
        let xs = x.as_slice();
        let mut sorted = Vec::with_capacity(n * d);
        for f in 0..d {
            let start = sorted.len();
            sorted.extend(0..rows);
            sorted[start..].sort_unstable_by(|&a, &b| {
                xs[a as usize * d + f].total_cmp(&xs[b as usize * d + f])
            });
        }
        Self {
            x,
            y,
            sorted,
            lists: Vec::new(),
            len: 0,
            goes_left: vec![false; n],
            scratch: Vec::new(),
            feats: Vec::new(),
            config: TreeConfig::default(),
            nodes: Vec::new(),
        }
    }

    /// Fit a tree to the multiset holding training row `r` `counts[r]`
    /// times (a bootstrap sample, or every row once); `counts` sums to
    /// at least 1.
    pub(crate) fn grow(&mut self, config: TreeConfig, counts: &[u32]) -> DecisionTree {
        self.config = config;
        self.nodes.clear();
        let n = counts.iter().map(|&c| c as usize).sum();
        let positives = (counts.iter().zip(self.y))
            .filter(|&(_, &y)| y)
            .map(|(&c, _)| c as usize)
            .sum();
        // A leaf root reads no list (a one-label sample, say).
        if !self.stops(n, positives, 0) {
            self.lists.clear();
            for &row in &self.sorted {
                for _ in 0..counts[row as usize] {
                    self.lists.push(row);
                }
            }
        }
        self.len = n;
        self.node(0, n, positives, 0, &mut StdRng::seed_from_u64(config.seed));
        DecisionTree {
            config,
            nodes: self.nodes.clone(),
            dims: self.x.cols(),
            fitted: true,
        }
    }

    /// Push a node; returns its index.
    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Whether a node of `n` rows, `positives` of them positive, at
    /// `depth` is a leaf.
    fn stops(&self, n: usize, positives: usize, depth: usize) -> bool {
        let pure = positives == 0 || positives == n;
        pure || depth >= self.config.max_depth || n < self.config.min_samples_split
    }

    /// Grow the subtree over `lo..hi` of every list, `positives` of its
    /// rows positive; returns its root.
    fn node(
        &mut self,
        lo: usize,
        hi: usize,
        positives: usize,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let config = self.config;
        let (xs, y, d) = (self.x.as_slice(), self.y, self.x.cols());
        let n = hi - lo;
        let p = positives as f64 / n as f64;
        if self.stops(n, positives, depth) {
            return self.push(Node::Leaf { p });
        }

        // Candidate features (subsampled for forests).
        self.feats.clear();
        self.feats.extend(0..d);
        if let Some(m) = config.max_features {
            self.feats.shuffle(rng);
            self.feats.truncate(m.max(1).min(d));
        }

        let parent_gini = gini(p);
        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, gain)
        for &feat in &self.feats {
            let list = &self.lists[feat * self.len..][lo..hi];
            let value = |k: usize| xs[list[k] as usize * d + feat];
            // Prefix positives for O(1) impurity at every cut.
            let mut pos_left = 0usize;
            for cut in 1..n {
                if y[list[cut - 1] as usize] {
                    pos_left += 1;
                }
                let (a, b) = (value(cut - 1), value(cut));
                if a == b {
                    continue; // can't cut between equal values
                }
                let n_l = cut;
                let n_r = n - cut;
                if n_l < config.min_samples_leaf || n_r < config.min_samples_leaf {
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
            return self.push(Node::Leaf { p });
        };

        // Mark each row's side, then split every list stably.
        let (mut n_left, mut pos_left) = (0, 0);
        for &row in &self.lists[feat * self.len..][lo..hi] {
            let left = xs[row as usize * d + feat] <= thr;
            self.goes_left[row as usize] = left;
            n_left += usize::from(left);
            pos_left += usize::from(left && y[row as usize]);
        }
        if n_left == 0 || n_left == n {
            return self.push(Node::Leaf { p });
        }
        for list in self.lists.chunks_exact_mut(self.len) {
            let list = &mut list[lo..hi];
            self.scratch.clear();
            let mut kept = 0;
            for k in 0..n {
                let row = list[k];
                if self.goes_left[row as usize] {
                    list[kept] = row;
                    kept += 1;
                } else {
                    self.scratch.push(row);
                }
            }
            list[kept..].copy_from_slice(&self.scratch);
        }
        let left = self.node(lo, lo + n_left, pos_left, depth + 1, rng);
        let right = self.node(lo + n_left, hi, positives - pos_left, depth + 1, rng);
        self.push(Node::Split {
            feat,
            thr,
            left,
            right,
        })
    }
}

#[inline]
fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        *self = Grower::new(x, y).grow(self.config, &vec![1; x.rows()]);
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
