//! Test oracle: the CART tree and the random forest as first written,
//! kept verbatim — each tree fits a gathered copy of its bootstrap rows,
//! and every node re-sorts its `(value, label)` pairs per candidate
//! feature. `lts_learn`'s trees, grown over orders sorted once per
//! forest, must equal these node for node.

use lts_learn::{Matrix, TreeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A node of an oracle tree; the root is the last one.
#[derive(Debug, Clone)]
pub enum Node {
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

/// `DecisionTree::fit` as first written.
pub fn fit_tree(config: TreeConfig, x: &Matrix, y: &[bool]) -> Vec<Node> {
    let mut tree = Tree {
        config,
        nodes: Vec::new(),
    };
    let mut idx: Vec<usize> = (0..x.rows()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let root = tree.build(x, y, &mut idx, 0, &mut rng);
    assert_eq!(root, tree.nodes.len() - 1, "root is last node");
    tree.nodes
}

/// `RandomForest::fit` as first written: the trees in fit order.
pub fn fit_forest(
    n_trees: usize,
    tree: TreeConfig,
    seed: u64,
    x: &Matrix,
    y: &[bool],
) -> Vec<Vec<Node>> {
    let n = x.rows();
    let max_features = tree
        .max_features
        .unwrap_or_else(|| ((x.cols() as f64).sqrt().round() as usize).max(1));
    let mut trees = Vec::with_capacity(n_trees);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut boot_idx = Vec::with_capacity(n);
    let mut boot_y = Vec::with_capacity(n);
    for t in 0..n_trees {
        // Bootstrap resample.
        boot_idx.clear();
        boot_y.clear();
        for _ in 0..n {
            let i = rng.random_range(0..n);
            boot_idx.push(i);
            boot_y.push(y[i]);
        }
        let boot_x = x.gather(&boot_idx);
        let cfg = TreeConfig {
            max_features: Some(max_features),
            seed: seed
                .wrapping_add(t as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..tree
        };
        trees.push(fit_tree(cfg, &boot_x, &boot_y));
    }
    trees
}

/// The forest's score as first written: the walk summed in tree order.
pub fn score(trees: &[Vec<Node>], row: &[f64]) -> f64 {
    let walk = |nodes: &[Node]| {
        let mut node = nodes.len() - 1;
        loop {
            match &nodes[node] {
                Node::Leaf { p } => return *p,
                Node::Split {
                    feat,
                    thr,
                    left,
                    right,
                } => node = if row[*feat] <= *thr { *left } else { *right },
            }
        }
    };
    trees.iter().fold(0.0, |sum, t| sum + walk(t)) / trees.len() as f64
}

struct Tree {
    config: TreeConfig,
    nodes: Vec<Node>,
}

impl Tree {
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
