//! From-scratch machine-learning substrate for `learning-to-sample`.
//!
//! The paper treats classifiers as off-the-shelf black boxes whose only
//! required interface is a **scoring function** `g : O → [0, 1]`
//! reflecting prediction confidence (§3.2). The Rust ML ecosystem is thin,
//! so this crate implements the classifiers the paper evaluates, from
//! scratch, behind one trait:
//!
//! * [`knn::Knn`] — k-nearest-neighbours over a kd-tree (`g` = fraction
//!   of positive neighbours), the classifier of Figure 1;
//! * [`forest::RandomForest`] — bagged CART trees with feature
//!   subsampling (`n = 100` estimators, the paper's default);
//! * [`mlp::Mlp`] — the paper's "simple two-layer neural network"
//!   with (5, 2) intermediate layers;
//! * [`linear::Logistic`] — logistic regression (a useful extra);
//! * [`nb::GaussianNb`] — Gaussian Naive Bayes (cheap, calibrated);
//! * [`gbm::Gbm`] — gradient-boosted trees with logistic loss and
//!   Newton leaf values (stronger than the paper's forest);
//! * [`dummy::RandomScores`] — the adversarial "Random" classifier of
//!   §5.4.4 (arbitrary scores, the worst case for LSS);
//! * [`dummy::ConstantScore`] — degenerate edge-case classifier.
//!
//! Each model writes its scoring rule once, as the per-row
//! [`Classifier::score`]; [`Classifier::score_batch`] is the trait's
//! loop over it, which no model overrides.
//!
//! Supporting machinery: a minimal row-major [`matrix::Matrix`],
//! [`scaler::StandardScaler`], classification [`metrics`], k-fold
//! [`cv`] (the tpr/fpr estimation QLAC needs), and uncertainty-sampling
//! [`active`] learning (§3.2).

#![warn(missing_docs)]

pub mod active;
pub mod classifier;
pub mod cv;
pub mod dummy;
pub mod error;
pub mod forest;
pub mod gbm;
pub mod kdtree;
pub mod knn;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod nb;
pub mod scaler;
pub mod tree;

pub use active::{select_uncertain, AugmentConfig};
pub use classifier::Classifier;
pub use cv::{cross_validated_rates, k_fold_indices, CvRates};
pub use dummy::{ConstantScore, RandomScores};
pub use error::{LearnError, LearnResult};
pub use forest::RandomForest;
pub use gbm::{Gbm, GbmConfig};
pub use knn::Knn;
pub use linear::Logistic;
pub use matrix::Matrix;
pub use metrics::{accuracy, confusion, ConfusionMatrix};
pub use mlp::Mlp;
pub use nb::{GaussianNb, GaussianNbConfig};
pub use scaler::StandardScaler;
pub use tree::{DecisionTree, TreeConfig};
