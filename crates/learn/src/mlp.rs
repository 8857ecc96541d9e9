//! The paper's "simple two-layer neural network": hidden layers of
//! (5, 2) units, tanh activations, sigmoid output, Adam-optimized binary
//! cross-entropy, with internal feature standardization.
//!
//! The paper observes (§5.5.1) that this small network sometimes has
//! "poor predictive performance and produces extremely poor estimates"
//! for quantification learning, while LSS remains robust to it — so a
//! faithful reproduction needs an NN of exactly this modest capacity, not
//! a stronger one.

use crate::classifier::{validate_training, Classifier};
use crate::error::{LearnError, LearnResult};
use crate::matrix::Matrix;
use crate::scaler::StandardScaler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// First hidden layer width (paper: 5).
    pub hidden1: usize,
    /// Second hidden layer width (paper: 2).
    pub hidden2: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 regularization strength.
    pub l2: f64,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden1: 5,
            hidden2: 2,
            epochs: 200,
            learning_rate: 0.01,
            batch_size: 32,
            l2: 1e-4,
            seed: 0,
        }
    }
}

/// Dense layer parameters plus Adam state.
#[derive(Debug, Clone, Default)]
struct Layer {
    w: Vec<f64>, // out × in, row-major
    b: Vec<f64>,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // Xavier/Glorot uniform init.
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * limit)
            .collect();
        Self {
            w,
            b: vec![0.0; outputs],
            mw: vec![0.0; inputs * outputs],
            vw: vec![0.0; inputs * outputs],
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.outputs {
            let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
            let mut acc = self.b[o];
            for (w, &xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            out.push(acc);
        }
    }
}

/// The two-hidden-layer MLP classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    scaler: Option<StandardScaler>,
    l1: Layer,
    l2: Layer,
    l3: Layer,
    fitted: bool,
    dims: usize,
}

impl Mlp {
    /// Create an unfitted MLP.
    pub fn new(config: MlpConfig) -> Self {
        Self {
            config,
            scaler: None,
            l1: Layer::default(),
            l2: Layer::default(),
            l3: Layer::default(),
            fitted: false,
            dims: 0,
        }
    }

    /// Default (5, 2) network with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(MlpConfig {
            seed,
            ..MlpConfig::default()
        })
    }

    /// Forward pass on a standardized row; returns (h1, h2, output).
    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
        let mut a1 = Vec::new();
        self.l1.forward(x, &mut a1);
        for v in &mut a1 {
            *v = v.tanh();
        }
        let mut a2 = Vec::new();
        self.l2.forward(&a1, &mut a2);
        for v in &mut a2 {
            *v = v.tanh();
        }
        let mut z3 = Vec::new();
        self.l3.forward(&a2, &mut z3);
        (a1, a2, sigmoid(z3[0]))
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

/// One Adam update for a parameter.
#[inline]
#[allow(clippy::too_many_arguments)]
fn adam_step(w: &mut f64, m: &mut f64, v: &mut f64, g: f64, lr: f64, t: f64, b1: f64, b2: f64) {
    const EPS: f64 = 1e-8;
    *m = b1 * *m + (1.0 - b1) * g;
    *v = b2 * *v + (1.0 - b2) * g * g;
    let mhat = *m / (1.0 - b1.powf(t));
    let vhat = *v / (1.0 - b2.powf(t));
    *w -= lr * mhat / (vhat.sqrt() + EPS);
}

impl Classifier for Mlp {
    fn fit(&mut self, x: &Matrix, y: &[bool]) -> LearnResult<()> {
        validate_training(x, y)?;
        if self.config.hidden1 == 0 || self.config.hidden2 == 0 {
            return Err(LearnError::InvalidParameter {
                name: "hidden",
                message: "hidden layer widths must be positive".into(),
            });
        }
        let scaler = StandardScaler::fit(x)?;
        let xs = scaler.transform(x)?;
        self.dims = x.cols();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.l1 = Layer::new(self.dims, self.config.hidden1, &mut rng);
        self.l2 = Layer::new(self.config.hidden1, self.config.hidden2, &mut rng);
        self.l3 = Layer::new(self.config.hidden2, 1, &mut rng);
        self.scaler = Some(scaler);

        let n = xs.rows();
        let (b1, b2) = (0.9, 0.999);
        let lr = self.config.learning_rate;
        let lambda = self.config.l2;
        let mut order: Vec<usize> = (0..n).collect();
        let mut step = 0.0f64;
        for _epoch in 0..self.config.epochs {
            // Fisher–Yates shuffle with our seeded rng.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.config.batch_size.max(1)) {
                step += 1.0;
                // Accumulate gradients over the batch.
                let mut g1w = vec![0.0; self.l1.w.len()];
                let mut g1b = vec![0.0; self.l1.b.len()];
                let mut g2w = vec![0.0; self.l2.w.len()];
                let mut g2b = vec![0.0; self.l2.b.len()];
                let mut g3w = vec![0.0; self.l3.w.len()];
                let mut g3b = vec![0.0; self.l3.b.len()];
                for &i in batch {
                    let xi = xs.row(i);
                    let (a1, a2, p) = self.forward(xi);
                    let target = if y[i] { 1.0 } else { 0.0 };
                    // dL/dz3 for BCE + sigmoid.
                    let d3 = p - target;
                    for (j, &a) in a2.iter().enumerate() {
                        g3w[j] += d3 * a;
                    }
                    g3b[0] += d3;
                    // Backprop into layer 2.
                    let mut d2 = vec![0.0; a2.len()];
                    for (j, d) in d2.iter_mut().enumerate() {
                        *d = d3 * self.l3.w[j] * (1.0 - a2[j] * a2[j]);
                    }
                    for (o, &d) in d2.iter().enumerate() {
                        for (j, &a) in a1.iter().enumerate() {
                            g2w[o * self.l2.inputs + j] += d * a;
                        }
                        g2b[o] += d;
                    }
                    // Backprop into layer 1.
                    let mut d1 = vec![0.0; a1.len()];
                    for (j, d) in d1.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (o, &dd) in d2.iter().enumerate() {
                            acc += dd * self.l2.w[o * self.l2.inputs + j];
                        }
                        *d = acc * (1.0 - a1[j] * a1[j]);
                    }
                    for (o, &d) in d1.iter().enumerate() {
                        for (j, &xv) in xi.iter().enumerate() {
                            g1w[o * self.l1.inputs + j] += d * xv;
                        }
                        g1b[o] += d;
                    }
                }
                let scale = 1.0 / batch.len() as f64;
                // Apply Adam to all three layers.
                for (layer, gw, gb) in [
                    (&mut self.l1, &g1w, &g1b),
                    (&mut self.l2, &g2w, &g2b),
                    (&mut self.l3, &g3w, &g3b),
                ] {
                    let weights = layer
                        .w
                        .iter_mut()
                        .zip(layer.mw.iter_mut())
                        .zip(layer.vw.iter_mut());
                    for (((w, m), v), &g_raw) in weights.zip(gw.iter()) {
                        let g = g_raw * scale + lambda * *w;
                        adam_step(w, m, v, g, lr, step, b1, b2);
                    }
                    let biases = layer
                        .b
                        .iter_mut()
                        .zip(layer.mb.iter_mut())
                        .zip(layer.vb.iter_mut());
                    for (((w, m), v), &g_raw) in biases.zip(gb.iter()) {
                        adam_step(w, m, v, g_raw * scale, lr, step, b1, b2);
                    }
                }
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn score(&self, row: &[f64]) -> LearnResult<f64> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        let scaler = self.scaler.as_ref().ok_or(LearnError::NotFitted)?;
        let xs = scaler.transform_row(row)?;
        let (_, _, p) = self.forward(&xs);
        Ok(p)
    }

    fn name(&self) -> &'static str {
        "nn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Matrix, Vec<bool>) {
        // Linearly separable: y = x0 + x1 > 1.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut state = 3u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..300 {
            let a = next() * 2.0;
            let b = next() * 2.0;
            rows.push(vec![a, b]);
            y.push(a + b > 2.0);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_linear_boundary() {
        let (x, y) = linear_data();
        let mut nn = Mlp::with_seed(4);
        nn.fit(&x, &y).unwrap();
        let mut correct = 0;
        for (i, row) in x.iter_rows().enumerate() {
            if nn.predict(row).unwrap() == y[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / y.len() as f64;
        assert!(acc > 0.9, "training accuracy {acc}");
    }

    #[test]
    fn scores_in_unit_interval_and_ordered() {
        let (x, y) = linear_data();
        let mut nn = Mlp::with_seed(4);
        nn.fit(&x, &y).unwrap();
        let deep_neg = nn.score(&[0.0, 0.0]).unwrap();
        let deep_pos = nn.score(&[2.0, 2.0]).unwrap();
        assert!((0.0..=1.0).contains(&deep_neg));
        assert!((0.0..=1.0).contains(&deep_pos));
        assert!(deep_pos > deep_neg);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = linear_data();
        let mut a = Mlp::with_seed(11);
        let mut b = Mlp::with_seed(11);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.score(&[1.0, 1.0]).unwrap(), b.score(&[1.0, 1.0]).unwrap());
    }

    #[test]
    fn single_class_training_is_confident() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mut nn = Mlp::new(MlpConfig {
            epochs: 300,
            ..MlpConfig::default()
        });
        nn.fit(&x, &[true, true, true, true]).unwrap();
        assert!(nn.score(&[1.5]).unwrap() > 0.9);
    }

    #[test]
    fn errors() {
        let nn = Mlp::with_seed(0);
        assert!(matches!(nn.score(&[1.0]), Err(LearnError::NotFitted)));
        let mut bad = Mlp::new(MlpConfig {
            hidden1: 0,
            ..MlpConfig::default()
        });
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(bad.fit(&x, &[true]).is_err());
        let mut nn = Mlp::new(MlpConfig {
            epochs: 5,
            ..MlpConfig::default()
        });
        nn.fit(&x, &[true]).unwrap();
        assert!(nn.score(&[1.0, 2.0]).is_err());
        assert_eq!(nn.name(), "nn");
    }
}
