//! Statistical substrate for the `learning-to-sample` workspace.
//!
//! Everything here is implemented from scratch (no external numerics
//! dependencies): special functions (`lgamma`, `erf`, regularized
//! incomplete beta), the standard normal and Student-t distributions with
//! accurate quantile functions, proportion confidence intervals (Wald and
//! Wilson, with finite-population correction), streaming moment
//! accumulators, and order-statistic summaries (quartiles, IQR) matching
//! the evaluation metrics used in the paper.
//!
//! The paper relies on these pieces in §3.1 (Wald/Wilson intervals for
//! SRS, t-intervals for stratified estimates) and §5 (interquartile range
//! as the headline spread metric).

#![warn(missing_docs)]

pub mod error;
pub mod interval;
pub mod normal;
pub mod special;
pub mod student;
pub mod summary;

pub use error::{StatsError, StatsResult};
pub use interval::{
    normal_interval, t_interval, wald_proportion, wilson_proportion, ConfidenceInterval,
    IntervalKind,
};
pub use normal::{norm_cdf, norm_pdf, norm_quantile, z_critical};
pub use student::{t_cdf, t_critical, t_pdf, t_quantile};
pub use summary::{
    iqr, mean, median, quantile_type7, quartiles, sample_variance, RunningStats, Summary,
};
