//! Datasets and queries for reproducing the paper's evaluation (§5).
//!
//! The paper uses two real datasets we cannot redistribute, so this
//! crate generates **synthetic equivalents** whose joint distributions
//! exercise the same code paths (see ARCHITECTURE.md "Synthetic datasets" for the substitution
//! rationale):
//!
//! * [`sports`] — MLB-pitching-like player-season statistics (~47k rows
//!   at paper scale). Query: **k-skyband size** over two performance
//!   attributes (Example 2).
//! * [`neighbors`] — KDD-Cup-99-like connection records (73k rows at
//!   paper scale, 41 features). Query: **few-neighbors count** — records
//!   with at most `k` records within distance `d` (Example 1).
//!
//! For each query we provide the expensive predicate once — the paper's
//! correlated `COUNT(*)` subquery as the SQL expression the service
//! parses, evaluated by the table engine's subquery kernel — plus
//! **exact ground-truth algorithms** ([`skyband`]: Fenwick dominance
//! sweep; [`neighborhood`]: kd-tree (k+1)-NN radii) used for
//! calibration and error measurement.
//!
//! [`scenario`] assembles everything into the paper's Table-1 grid:
//! selectivity levels XS…XXL with calibrated query parameters.

#![warn(missing_docs)]

pub mod gen;
pub mod neighborhood;
pub mod neighbors;
pub mod scaled;
pub mod scenario;
pub mod skyband;
pub mod sports;

pub use scaled::{scaled_scenario, ScaledTier, SCALED_BASE_ROWS};
pub use scenario::{
    neighbors_scenario, sports_scenario, DatasetKind, QueryParam, Scenario, SelectivityLevel,
};
