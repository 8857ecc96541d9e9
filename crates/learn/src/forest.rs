//! Random forest: bagged CART trees with feature subsampling.
//!
//! The paper's default classifier (`n = 100` estimators). The score
//! `g(o)` is the mean of the trees' leaf probabilities — naturally spread
//! over `[0, 1]`, which is exactly what LSS's score-ordering relies on.
//!
//! # Scoring by table
//!
//! A forest is constant on each cell of the grid its own split thresholds
//! cut, so `fit` ends by tabulating it and `score` / `score_batch` answer
//! by lookup, the same bits as the walk (ARCHITECTURE.md, "Proxy cost
//! model"). `T_f` are the distinct thresholds on feature `f`, sorted and
//! deduplicated by `==` (`−0.0` ≡ `+0.0`); finite or `±∞`, never NaN
//! ([`crate::tree`]). A row's code is `c_f(x) = #{t ∈ T_f : t < x}`, and
//! `|T_f|` for NaN: then `x ≤ T_f[k]` iff `c_f(x) ≤ k`, and NaN goes right
//! at every node under both. Tree by tree, in index order, a descent
//! narrows a box of codes per feature and adds each leaf's `p` to every
//! cell of its box (the inner run is one slice add); a tree's boxes
//! partition the grid, so each cell sums `0.0 + p₁ + … + p_n` in the walk's
//! order, and is divided once by `n`. A leaf with `p = 0` is not painted:
//! every `p` is ≥ 0, so every partial sum is ≥ +0.0, and `x + 0.0 == x`
//! bit for bit for such `x`. A row then costs `d` binary searches and one
//! load.
//!
//! **The cap**, [`MAX_TABLE_CELLS`] = 2¹⁸ cells (2 MiB): painting costs
//! ≈ 0.5 ns per (tree, cell under a positive leaf), at most 12–16 ms for
//! 100 trees at the cap, which a continuous 2-feature forest reaches at a
//! few hundred training rows (≈ 270 with 5 % label noise). Its trees grow
//! in 3–6 ms, so there a build costs up to 2–4× the trees — and a quarter
//! of one walked scoring pass over 8 000 objects (≈ 50 ms), which a cold
//! prepare makes. The served forests cut 75–350 cells (sports) and
//! 8 000–24 000 (neighbours), much of a neighbours grid under `p = 0`
//! leaves: its build costs 0.7–1.1 ms (one thread, 2 vCPUs), inside
//! what `bench_suite`'s `learn.fit_us` times.
//! Above the cap the forest walks its trees per row: the only other
//! kernel, chosen by the cell count alone, and the tests' oracle.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;
use crate::tree::{DecisionTree, Grower, Node, TreeConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees (paper default: 100).
    pub n_trees: usize,
    /// Per-tree configuration (max_features defaults to √d at fit time).
    pub tree: TreeConfig,
    /// Master seed; tree `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 100,
            tree: TreeConfig::default(),
            seed: 0,
        }
    }
}

/// Largest score table a forest builds: 2¹⁸ cells, 2 MiB of `f64`
/// (derivation in the module doc). A forest whose threshold grid has
/// more cells scores by walking its trees.
pub const MAX_TABLE_CELLS: usize = 1 << 18;

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: ForestConfig,
    trees: Vec<DecisionTree>,
    dims: usize,
    /// The trees tabulated over their threshold grid; `None` above
    /// [`MAX_TABLE_CELLS`] (and before `fit`).
    table: Option<ScoreTable>,
}

impl RandomForest {
    /// Create an unfitted forest.
    pub fn new(config: ForestConfig) -> Self {
        Self {
            config,
            trees: Vec::new(),
            dims: 0,
            table: None,
        }
    }

    /// Convenience: `n` trees with default tree settings and a seed.
    pub fn with_trees(n_trees: usize, seed: u64) -> Self {
        Self::new(ForestConfig {
            n_trees,
            seed,
            ..ForestConfig::default()
        })
    }

    /// Number of fitted trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether no trees have been fitted.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The fitted trees, in the order the score sums them.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Cells of the score table `score` and `score_batch` read, or
    /// `None` when they walk the trees (unfitted, or a threshold grid
    /// above [`MAX_TABLE_CELLS`]).
    pub fn table_cells(&self) -> Option<usize> {
        self.table.as_ref().map(|t| t.cells.len())
    }

    /// Tabulate the fitted trees again — the last step of `fit`, giving
    /// the same table — and return [`RandomForest::table_cells`]. Public
    /// so that the build can be timed on its own.
    pub fn rebuild_table(&mut self) -> Option<usize> {
        self.table = ScoreTable::build(&self.trees, self.dims);
        self.table_cells()
    }
}

/// A forest tabulated over its threshold grid (module doc): cells are
/// row-major over the features' codes, the last feature contiguous.
#[derive(Debug, Clone)]
struct ScoreTable {
    /// `T_f` per feature: the sorted distinct split thresholds.
    thresholds: Vec<Vec<f64>>,
    /// The forest's mean score per cell.
    cells: Vec<f64>,
}

impl ScoreTable {
    /// Tabulate `trees` over `dims` features; `None` without trees or
    /// when the grid has more than [`MAX_TABLE_CELLS`] cells.
    fn build(trees: &[DecisionTree], dims: usize) -> Option<Self> {
        let mut thresholds = vec![Vec::new(); dims];
        for node in trees.iter().flat_map(DecisionTree::nodes) {
            if let Node::Split { feat, thr, .. } = *node {
                thresholds[feat].push(thr);
            }
        }
        for t in &mut thresholds {
            t.sort_unstable_by(f64::total_cmp);
            t.dedup_by(|a, b| a == b);
        }
        let n_cells = thresholds
            .iter()
            .try_fold(1usize, |n, t| n.checked_mul(t.len() + 1))
            .filter(|&n| n <= MAX_TABLE_CELLS && !trees.is_empty())?;
        let mut table = Self {
            cells: vec![0.0; n_cells],
            thresholds,
        };
        let mut lo = vec![0; dims];
        let mut hi: Vec<usize> = table.thresholds.iter().map(Vec::len).collect();
        for tree in trees {
            table.paint(tree.nodes(), tree.nodes().len() - 1, &mut lo, &mut hi);
        }
        let n_trees = trees.len() as f64;
        table.cells.iter_mut().for_each(|c| *c /= n_trees);
        Some(table)
    }

    /// Add the leaves below `node` over their boxes of codes, `lo..=hi`
    /// being the box that reaches `node`.
    fn paint(&mut self, nodes: &[Node], node: usize, lo: &mut [usize], hi: &mut [usize]) {
        match nodes[node] {
            // A `p = 0` leaf adds nothing: every partial sum is ≥ +0.0.
            Node::Leaf { p: 0.0 } => {}
            Node::Leaf { p } => add_box(&mut self.cells, &self.thresholds, lo, hi, p),
            Node::Split {
                feat,
                thr,
                left,
                right,
            } => {
                let k = self.thresholds[feat].partition_point(|&t| t < thr);
                let (l, h) = (lo[feat], hi[feat]);
                if l <= k {
                    hi[feat] = h.min(k);
                    self.paint(nodes, left, lo, hi);
                    hi[feat] = h;
                }
                if k < h {
                    lo[feat] = l.max(k + 1);
                    self.paint(nodes, right, lo, hi);
                    lo[feat] = l;
                }
            }
        }
    }

    fn score(&self, row: &[f64]) -> f64 {
        let mut cell = 0;
        for (&x, t) in row.iter().zip(&self.thresholds) {
            let code = if x.is_nan() {
                t.len()
            } else {
                t.partition_point(|&t| t < x)
            };
            cell = cell * (t.len() + 1) + code;
        }
        self.cells[cell]
    }
}

/// Add `p` to every cell of the box `lo..=hi` of a block of cells over
/// the codes of `thresholds`' features.
fn add_box(cells: &mut [f64], thresholds: &[Vec<f64>], lo: &[usize], hi: &[usize], p: f64) {
    match thresholds {
        [] => cells[0] += p,
        [_] => cells[lo[0]..=hi[0]].iter_mut().for_each(|c| *c += p),
        [t, inner @ ..] => {
            let blocks = cells.chunks_exact_mut(cells.len() / (t.len() + 1));
            for block in blocks.take(hi[0] + 1).skip(lo[0]) {
                add_box(block, inner, &lo[1..], &hi[1..], p);
            }
        }
    }
}

impl Default for RandomForest {
    fn default() -> Self {
        Self::new(ForestConfig::default())
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        if self.config.n_trees == 0 {
            return Err(LearnError::InvalidParameter {
                name: "n_trees",
                message: "forest needs at least one tree".into(),
            });
        }
        self.dims = x.cols();
        let n = x.rows();
        let max_features = self
            .config
            .tree
            .max_features
            .unwrap_or_else(|| ((x.cols() as f64).sqrt().round() as usize).max(1));
        self.trees = Vec::with_capacity(self.config.n_trees);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut grower = Grower::new(x, y);
        let mut counts = vec![0u32; n];
        for t in 0..self.config.n_trees {
            // Bootstrap resample, as the count of each row.
            counts.fill(0);
            for _ in 0..n {
                counts[rng.random_range(0..n)] += 1;
            }
            let cfg = TreeConfig {
                max_features: Some(max_features),
                seed: self
                    .config
                    .seed
                    .wrapping_add(t as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..self.config.tree
            };
            self.trees.push(grower.grow(cfg, &counts));
        }
        self.rebuild_table();
        Ok(())
    }

    /// A table lookup, or under no table the walk summed in tree order.
    fn score(&self, row: &[f64]) -> LearnResult<f64> {
        if self.trees.is_empty() {
            return Err(LearnError::NotFitted);
        }
        if row.len() != self.dims {
            return Err(LearnError::DimensionMismatch {
                expected: self.dims,
                found: row.len(),
            });
        }
        Ok(match &self.table {
            Some(table) => table.score(row),
            None => {
                let walk = |sum, tree: &DecisionTree| sum + tree.score_unchecked(row);
                self.trees.iter().fold(0.0, walk) / self.trees.len() as f64
            }
        })
    }

    fn name(&self) -> &'static str {
        "rf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_moons_ish() -> (Matrix, Vec<bool>) {
        // Two offset noisy arcs (deterministic LCG noise).
        let mut state = 17u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..150 {
            let t = f64::from(i) / 150.0 * std::f64::consts::PI;
            rows.push(vec![t.cos() + 0.1 * next(), t.sin() + 0.1 * next()]);
            y.push(false);
            rows.push(vec![
                1.0 - t.cos() + 0.1 * next(),
                0.5 - t.sin() + 0.1 * next(),
            ]);
            y.push(true);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn forest_fits_nonlinear_boundary() {
        let (x, y) = two_moons_ish();
        let mut f = RandomForest::with_trees(30, 7);
        f.fit(&x, &y).unwrap();
        // Training accuracy should be high.
        let mut correct = 0;
        for (i, row) in x.iter_rows().enumerate() {
            if f.predict(row).unwrap() == y[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / y.len() as f64;
        assert!(acc > 0.9, "training accuracy {acc}");
        assert_eq!(f.len(), 30);
    }

    #[test]
    fn scores_are_probabilities_with_spread() {
        let (x, y) = two_moons_ish();
        let mut f = RandomForest::with_trees(25, 3);
        f.fit(&x, &y).unwrap();
        let scores = f.score_batch(&x).unwrap();
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
        // Forest scores must not be all 0/1 — the score ordering LSS uses
        // needs intermediate confidence values.
        let intermediate = scores.iter().filter(|&&s| s > 0.0 && s < 1.0).count();
        assert!(intermediate > 0, "no intermediate scores");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = two_moons_ish();
        let mut a = RandomForest::with_trees(10, 99);
        let mut b = RandomForest::with_trees(10, 99);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for row in x.iter_rows().take(20) {
            assert_eq!(a.score(row).unwrap(), b.score(row).unwrap());
        }
        let mut c = RandomForest::with_trees(10, 100);
        c.fit(&x, &y).unwrap();
        // A different seed should (almost surely) change some score.
        let diff = x
            .iter_rows()
            .any(|r| (a.score(r).unwrap() - c.score(r).unwrap()).abs() > 1e-12);
        assert!(diff);
    }

    #[test]
    fn single_class_collapses_to_constant() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut f = RandomForest::with_trees(5, 1);
        f.fit(&x, &[false, false, false]).unwrap();
        assert_eq!(f.score(&[1.5]).unwrap(), 0.0);
    }

    #[test]
    fn errors() {
        let f = RandomForest::default();
        assert!(matches!(f.score(&[1.0]), Err(LearnError::NotFitted)));
        assert!(f.is_empty());
        let mut zero = RandomForest::with_trees(0, 0);
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(zero.fit(&x, &[true]).is_err());
        let mut f = RandomForest::with_trees(3, 0);
        f.fit(&x, &[true]).unwrap();
        assert!(f.score(&[1.0, 2.0]).is_err());
        assert_eq!(f.name(), "rf");
    }
}
