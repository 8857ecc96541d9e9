//! Gradient-boosted trees (logistic loss, Newton leaf values).
//!
//! Not in the paper's lineup, but the strongest off-the-shelf tabular
//! family today; §3.2 explicitly invites "a growing toolbox of
//! classification algorithms". Boosting shallow regression trees on the
//! logistic loss gives well-calibrated scores `g(o)` that slot straight
//! into LWS/LSS, and extends the classifier-quality sweep of Figures
//! 6–7 with a model stronger than the paper's random forest.
//!
//! Each round fits a depth-limited regression tree to the loss
//! gradient `y − σ(F)` (variance-reduction splits), then replaces each
//! leaf's mean with the Newton step `Σ r / Σ σ(F)(1−σ(F))` (Friedman's
//! TreeBoost for binomial deviance).

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;

/// Gradient-boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbmConfig {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to every leaf value.
    pub learning_rate: f64,
    /// Depth of each regression tree.
    pub max_depth: usize,
    /// Minimum training rows in each leaf.
    pub min_samples_leaf: usize,
}

impl Default for GbmConfig {
    fn default() -> Self {
        Self {
            n_rounds: 50,
            learning_rate: 0.2,
            max_depth: 3,
            min_samples_leaf: 4,
        }
    }
}

/// Nodes of one regression tree, root last (matching
/// [`crate::tree::DecisionTree`]'s layout).
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feat: usize,
        thr: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone, Default)]
struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    fn eval(&self, row: &[f64]) -> f64 {
        let mut node = self.nodes.len() - 1;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
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

/// Builder state shared across the recursive construction of one tree.
struct TreeBuilder<'a> {
    x: &'a Matrix,
    /// Loss gradients `y − σ(F)` (the regression targets).
    grad: &'a [f64],
    /// Hessians `σ(F)(1 − σ(F))` for Newton leaf values.
    hess: &'a [f64],
    config: GbmConfig,
    nodes: Vec<Node>,
}

impl TreeBuilder<'_> {
    /// Newton-step leaf value, clamped for numerical safety when a leaf
    /// is nearly pure (hessians → 0).
    fn leaf_value(&self, idx: &[usize]) -> f64 {
        let g: f64 = idx.iter().map(|&i| self.grad[i]).sum();
        let h: f64 = idx.iter().map(|&i| self.hess[i]).sum();
        (g / (h + 1e-12)).clamp(-4.0, 4.0)
    }

    fn build(&mut self, idx: &mut [usize], depth: usize) -> usize {
        let n = idx.len();
        if depth >= self.config.max_depth || n < 2 * self.config.min_samples_leaf {
            let value = self.leaf_value(idx);
            self.nodes.push(Node::Leaf { value });
            return self.nodes.len() - 1;
        }

        // Best variance-reduction split on the gradient targets.
        let total: f64 = idx.iter().map(|&i| self.grad[i]).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feat, thr, score)
        let mut sorted: Vec<usize> = Vec::with_capacity(n);
        for feat in 0..self.x.cols() {
            sorted.clear();
            sorted.extend_from_slice(idx);
            sorted.sort_by(|&a, &b| self.x.row(a)[feat].total_cmp(&self.x.row(b)[feat]));
            let mut left_sum = 0.0;
            for cut in 1..n {
                let prev = sorted[cut - 1];
                left_sum += self.grad[prev];
                let (a, b) = (self.x.row(prev)[feat], self.x.row(sorted[cut])[feat]);
                if a == b {
                    continue;
                }
                let (n_l, n_r) = (cut, n - cut);
                if n_l < self.config.min_samples_leaf || n_r < self.config.min_samples_leaf {
                    continue;
                }
                // Maximizing Σ²_L/n_L + Σ²_R/n_R is equivalent to
                // minimizing within-child variance of the targets.
                let right_sum = total - left_sum;
                let score = left_sum * left_sum / n_l as f64 + right_sum * right_sum / n_r as f64;
                if score > best.map_or(total * total / n as f64 + 1e-12, |(_, _, s)| s) {
                    best = Some((feat, 0.5 * (a + b), score));
                }
            }
        }

        let Some((feat, thr, _)) = best else {
            let value = self.leaf_value(idx);
            self.nodes.push(Node::Leaf { value });
            return self.nodes.len() - 1;
        };

        let (mut l, mut r): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        for &i in idx.iter() {
            if self.x.row(i)[feat] <= thr {
                l.push(i);
            } else {
                r.push(i);
            }
        }
        let left = self.build(&mut l, depth + 1);
        let right = self.build(&mut r, depth + 1);
        self.nodes.push(Node::Split {
            feat,
            thr,
            left,
            right,
        });
        self.nodes.len() - 1
    }
}

/// A fitted gradient-boosted-trees classifier.
#[derive(Debug, Clone, Default)]
pub struct Gbm {
    config: GbmConfig,
    base_score: f64,
    trees: Vec<RegressionTree>,
    dims: usize,
    fitted: bool,
}

impl Gbm {
    /// Create an unfitted model.
    pub fn new(config: GbmConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Number of fitted boosting rounds (trees).
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    fn raw(&self, row: &[f64]) -> f64 {
        self.base_score
            + self
                .trees
                .iter()
                .map(|t| self.config.learning_rate * t.eval(row))
                .sum::<f64>()
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Classifier for Gbm {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        if self.config.n_rounds == 0 {
            return Err(LearnError::InvalidParameter {
                name: "n_rounds",
                message: "must be at least 1".into(),
            });
        }
        if !(self.config.learning_rate > 0.0 && self.config.learning_rate <= 1.0) {
            return Err(LearnError::InvalidParameter {
                name: "learning_rate",
                message: format!("must be in (0, 1], got {}", self.config.learning_rate),
            });
        }
        if self.config.min_samples_leaf == 0 {
            return Err(LearnError::InvalidParameter {
                name: "min_samples_leaf",
                message: "must be at least 1".into(),
            });
        }
        self.trees.clear();
        self.dims = x.cols();
        let n = x.rows();
        let positives = y.iter().filter(|&&b| b).count();

        // Prior log-odds; single-class data trains no trees — the score
        // collapses to the (clamped) prior, per the trait contract.
        let p0 = ((positives as f64 + 0.5) / (n as f64 + 1.0)).clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (p0 / (1.0 - p0)).ln();
        self.fitted = true;
        if positives == 0 || positives == n {
            return Ok(());
        }

        let mut f: Vec<f64> = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for _ in 0..self.config.n_rounds {
            for i in 0..n {
                let p = sigmoid(f[i]);
                grad[i] = if y[i] { 1.0 } else { 0.0 } - p;
                hess[i] = (p * (1.0 - p)).max(1e-12);
            }
            let mut builder = TreeBuilder {
                x,
                grad: &grad,
                hess: &hess,
                config: self.config,
                nodes: Vec::new(),
            };
            let mut idx: Vec<usize> = (0..n).collect();
            builder.build(&mut idx, 0);
            let tree = RegressionTree {
                nodes: builder.nodes,
            };
            for (fi, row) in f.iter_mut().zip(x.iter_rows()) {
                *fi += self.config.learning_rate * tree.eval(row);
            }
            self.trees.push(tree);
        }
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
        Ok(sigmoid(self.raw(row)))
    }

    fn name(&self) -> &'static str {
        "gbm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Matrix, Vec<bool>) {
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
        let mut m = Gbm::default();
        m.fit(&x, &y).unwrap();
        assert!(!m.predict(&[0.0, 0.0]).unwrap());
        assert!(m.predict(&[1.0, 0.0]).unwrap());
        assert!(m.predict(&[0.0, 1.0]).unwrap());
        assert!(!m.predict(&[1.0, 1.0]).unwrap());
        assert_eq!(m.tree_count(), GbmConfig::default().n_rounds);
    }

    #[test]
    fn scores_sharpen_with_rounds() {
        let (x, y) = xor_data();
        let mut weak = Gbm::new(GbmConfig {
            n_rounds: 2,
            ..GbmConfig::default()
        });
        let mut strong = Gbm::new(GbmConfig {
            n_rounds: 80,
            ..GbmConfig::default()
        });
        weak.fit(&x, &y).unwrap();
        strong.fit(&x, &y).unwrap();
        let margin = |m: &Gbm| (m.score(&[1.0, 0.0]).unwrap() - 0.5).abs();
        assert!(margin(&strong) > margin(&weak));
    }

    #[test]
    fn single_class_returns_clamped_prior() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mut m = Gbm::default();
        m.fit(&x, &[true, true, true]).unwrap();
        assert_eq!(m.tree_count(), 0);
        assert!(m.score(&[0.0]).unwrap() > 0.8);
        m.fit(&x, &[false, false, false]).unwrap();
        assert!(m.score(&[0.0]).unwrap() < 0.2);
    }

    #[test]
    fn constant_features_fall_back_to_prior() {
        let x = Matrix::from_rows(&vec![vec![7.0]; 10]).unwrap();
        let y: Vec<bool> = (0..10).map(|i| i < 3).collect();
        let mut m = Gbm::default();
        m.fit(&x, &y).unwrap();
        let s = m.score(&[7.0]).unwrap();
        assert!((s - 0.3).abs() < 0.1, "≈30% positive prior, got {s}");
    }

    #[test]
    fn scores_stay_in_unit_interval() {
        let (x, y) = xor_data();
        let mut m = Gbm::new(GbmConfig {
            n_rounds: 200,
            learning_rate: 1.0,
            ..GbmConfig::default()
        });
        m.fit(&x, &y).unwrap();
        for row in x.iter_rows() {
            let s = m.score(row).unwrap();
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn deterministic() {
        let (x, y) = xor_data();
        let mut a = Gbm::default();
        let mut b = Gbm::default();
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for pt in [[0.1, 0.2], [0.9, 0.1], [0.5, 0.5]] {
            assert_eq!(a.score(&pt).unwrap(), b.score(&pt).unwrap());
        }
    }

    #[test]
    fn errors() {
        let m = Gbm::default();
        assert!(matches!(m.score(&[0.0]), Err(LearnError::NotFitted)));
        let (x, y) = xor_data();
        let mut m = Gbm::new(GbmConfig {
            n_rounds: 0,
            ..GbmConfig::default()
        });
        assert!(m.fit(&x, &y).is_err());
        let mut m = Gbm::new(GbmConfig {
            learning_rate: 0.0,
            ..GbmConfig::default()
        });
        assert!(m.fit(&x, &y).is_err());
        let mut m = Gbm::new(GbmConfig {
            min_samples_leaf: 0,
            ..GbmConfig::default()
        });
        assert!(m.fit(&x, &y).is_err());
        let mut m = Gbm::default();
        m.fit(&x, &y).unwrap();
        assert!(m.score(&[0.0]).is_err()); // wrong dims
        assert_eq!(m.name(), "gbm");
    }
}
