//! `lts-core` — the learning-to-sample estimator suite.
//!
//! This crate implements the paper's primary contribution: a family of
//! estimators for `C(O, q)` — the count of objects satisfying an
//! expensive predicate — all sharing one labeling-budget currency
//! (number of `q` evaluations) and one [`CountEstimator`] interface:
//!
//! | Estimator | Paper | Idea |
//! |---|---|---|
//! | [`estimators::Srs`] | §3.1 | simple random sampling, Wald/Wilson CI |
//! | [`estimators::Ssp`] | §3.1 | stratified sampling, surrogate-attribute grid, proportional allocation |
//! | [`estimators::Ssn`] | §3.1 | two-stage stratified sampling with Neyman allocation |
//! | [`estimators::Qlcc`] | §3.2 | quantification learning, classify-and-count |
//! | [`estimators::Qlac`] | §3.2 | quantification learning, adjusted count (Eq. 2) |
//! | [`estimators::Lws`] | §4.1 | **learned weighted sampling**: PPS by `max(g, ε)`, Des Raj estimator |
//! | [`estimators::LwsHt`] | §4.1 (extension) | learned weights + systematic PPS + Horvitz–Thompson |
//! | [`estimators::Lss`] | §4.2 | **learned stratified sampling**: score-ordered strata designed by DirSol/LogBdr/DynPgm/DynPgmP |
//!
//! The learning phase (SRS + classifier training + optional
//! uncertainty-sampling augmentation, §3.2) is shared by QL/LWS/LSS and
//! lives in [`learnphase`], beside the one train-then-score phase 1
//! QLCC, QLAC, LWS, LWS-HT and LWS-seq run. The proxy-scoring hot path every learned
//! estimator then runs — features → batch score → stable
//! `(score, id)` order → design pilot — is the shared
//! [`scoring`] pipeline ([`scoring::ScoredPopulation`]), scored
//! partition-parallel and bit-identical at every partition and thread
//! count. Every estimator reports phase timings compatible with the
//! paper's Figure-3 overhead breakdown.

#![warn(missing_docs)]

pub mod error;
pub mod estimators;
pub mod feature;
pub mod learnphase;
pub mod plan;
pub mod problem;
pub mod report;
pub mod runner;
pub mod scoring;
pub mod spec;
pub mod warm;

pub use error::{CoreError, CoreResult};
pub use estimators::{
    CountEstimator, Lss, LssLayout, Lws, LwsHt, LwsSequential, PilotHandling, PilotSource, Qlac,
    Qlcc, Srs, Ssn, Ssp,
};
pub use feature::FeatureView;
pub use learnphase::{LearnPhaseConfig, LearnedModel};
pub use plan::{restrict_problem, select_prefilter, PhysicalPlan, PrefilterSelection};
pub use problem::{CountingProblem, Labeler};
pub use report::{EstimateReport, PhaseTimings, QualityForecast};
pub use runner::{run_trials, run_trials_with, TrialExecution, TrialStats};
pub use scoring::{feature_column, surrogate_grid_strata, OrderedPopulation, ScoredPopulation};
pub use spec::ClassifierSpec;
pub use warm::{fnv1a, fnv1a_extend, mix_seed, LssParts, LssWarm, ModelSnapshot, TrainedProxy};
