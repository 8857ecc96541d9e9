//! Stratification-design algorithms from *Learning to Sample* (§4.2).
//!
//! Given a population of `N` objects **ordered by a classifier score**
//! and a first-stage (pilot) sample with known labels, these algorithms
//! choose stratum boundaries that minimize the estimated variance of a
//! second-stage stratified estimator:
//!
//! * [`mod@dirsol`] — **DirSol**: the (almost) exact `H = 3` algorithm that
//!   minimizes a bivariate quadratic over a constraint polygon
//!   (Theorem 1);
//! * [`mod@logbdr`] — **LogBdr**: any `H`, enumerating pilot partitions with
//!   power-of-`(1+ε)` candidate boundaries (Theorem 2);
//! * [`mod@dynpgm`] — **DynPgm**: the dynamic program with auxiliary-sum
//!   bounds `T` that makes the non-separable Neyman objective tractable
//!   (Theorem 3), and **DynPgmP**: the separable proportional-allocation
//!   DP with approximation ratio 2 (Theorem 4);
//! * [`fixed`] — the fixed-width / fixed-height baselines of §5.4.1;
//! * [`bruteforce`] — exact enumeration over all cut positions, the
//!   reference oracle the property tests compare against.
//!
//! The shared vocabulary lives in [`pilot`] (the prefix-sum index `Γ`
//! over the pilots' positions in the score order, §4.2.1) and
//! [`objective`] (equations (5) and (6)).

#![warn(missing_docs)]

pub mod bruteforce;
pub mod design;
pub mod dirsol;
pub mod dynpgm;
pub mod error;
pub mod fixed;
pub mod logbdr;
pub mod objective;
pub mod pilot;

pub use bruteforce::brute_force;
pub use design::{design, Allocation, DesignAlgorithm, DesignParams, Stratification};
pub use dirsol::dirsol;
pub use dynpgm::{dynpgm, dynpgmp, TSelection};
pub use error::{StrataError, StrataResult};
pub use fixed::{fixed_height_cuts, fixed_width_cuts};
pub use logbdr::logbdr;
pub use objective::{evaluate_cuts, neyman_variance, proportional_variance, StratumStat};
pub use pilot::PilotIndex;
