//! Design parameters, results, and the algorithm dispatcher.

use crate::error::{StrataError, StrataResult};
use crate::pilot::PilotIndex;

/// Second-stage allocation rule the design optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Allocation {
    /// Neyman allocation `n_h ∝ N_h s_h` (objective (5)).
    #[default]
    Neyman,
    /// Proportional allocation `n_h ∝ N_h` (objective (6)).
    Proportional,
}

/// Which design algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignAlgorithm {
    /// DirSol — (almost) exact, `H = 3` only.
    DirSol,
    /// LogBdr — any `H`, exponential in `H` over pilot partitions.
    LogBdr,
    /// DynPgm — the auxiliary-sum-bounded dynamic program (default).
    DynPgm,
    /// DynPgmP — the separable proportional-allocation DP.
    DynPgmP,
    /// Exact brute force over every cut combination (test-sized inputs).
    BruteForce,
}

/// Parameters shared by every design algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignParams {
    /// Number of strata `H`.
    pub n_strata: usize,
    /// Second-stage sample budget `n`.
    pub budget: usize,
    /// Minimum objects per stratum (`N⊔`). The paper assumes
    /// `N⊔ > n` for the approximation guarantees, but the code only
    /// requires `N⊔ ≥ 1`.
    pub min_stratum_size: usize,
    /// Minimum pilot samples per stratum (`m⊔`, paper uses ≈ 5; must be
    /// ≥ 2 so within-stratum variances are estimable).
    pub min_pilots_per_stratum: usize,
    /// Boundary granularity ε: candidate boundaries are powers of
    /// `(1 + ε)` away from pilot positions (`1.0` = powers of two, the
    /// paper's base construction).
    pub epsilon: f64,
}

impl Default for DesignParams {
    fn default() -> Self {
        Self {
            n_strata: 4,
            budget: 100,
            min_stratum_size: 1,
            min_pilots_per_stratum: 5,
            epsilon: 1.0,
        }
    }
}

impl DesignParams {
    /// Validate parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range parameters.
    pub fn validate(&self) -> StrataResult<()> {
        if self.n_strata < 2 {
            return Err(StrataError::InvalidParameter {
                name: "n_strata",
                message: "need at least 2 strata".into(),
            });
        }
        if self.budget == 0 {
            return Err(StrataError::InvalidParameter {
                name: "budget",
                message: "second-stage budget must be positive".into(),
            });
        }
        if self.min_pilots_per_stratum < 2 {
            return Err(StrataError::InvalidParameter {
                name: "min_pilots_per_stratum",
                message: "need at least 2 pilots per stratum to estimate variance".into(),
            });
        }
        if self.min_stratum_size == 0 {
            return Err(StrataError::InvalidParameter {
                name: "min_stratum_size",
                message: "strata must be non-empty".into(),
            });
        }
        if self.epsilon <= 0.0 || self.epsilon.is_nan() || !self.epsilon.is_finite() {
            return Err(StrataError::InvalidParameter {
                name: "epsilon",
                message: format!("epsilon must be positive and finite, got {}", self.epsilon),
            });
        }
        Ok(())
    }

    /// Check the pilot can support this design at all.
    ///
    /// # Errors
    ///
    /// Returns [`StrataError::Infeasible`] when `m < H·m⊔` or
    /// `N < H·N⊔`.
    pub fn check_feasible(&self, pilot: &PilotIndex) -> StrataResult<()> {
        self.validate()?;
        if pilot.m() < self.n_strata * self.min_pilots_per_stratum {
            return Err(StrataError::Infeasible {
                message: format!(
                    "{} pilots cannot fill {} strata with ≥ {} each",
                    pilot.m(),
                    self.n_strata,
                    self.min_pilots_per_stratum
                ),
            });
        }
        if pilot.n_objects() < self.n_strata * self.min_stratum_size {
            return Err(StrataError::Infeasible {
                message: format!(
                    "{} objects cannot fill {} strata with ≥ {} each",
                    pilot.n_objects(),
                    self.n_strata,
                    self.min_stratum_size
                ),
            });
        }
        Ok(())
    }
}

/// A stratification: `H − 1` strictly increasing cut points in `(0, N)`;
/// stratum `h` covers object positions `[cuts[h−1], cuts[h])` with
/// `cuts[−1] = 0` and `cuts[H−1] = N` implied.
#[derive(Debug, Clone, PartialEq)]
pub struct Stratification {
    /// Cut points (exclusive ends of strata 1..H−1).
    pub cuts: Vec<usize>,
    /// The design objective value at these cuts (estimated variance of
    /// the count estimator under the chosen allocation).
    pub estimated_variance: f64,
}

impl Stratification {
    /// Stratum sizes for a population of `n_objects`.
    pub fn stratum_sizes(&self, n_objects: usize) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.cuts.len() + 1);
        let mut prev = 0usize;
        for &c in &self.cuts {
            sizes.push(c - prev);
            prev = c;
        }
        sizes.push(n_objects - prev);
        sizes
    }

    /// Stratum id for an object at `position` in the ordering.
    pub fn stratum_of(&self, position: usize) -> usize {
        self.cuts.partition_point(|&c| c <= position)
    }

    /// Number of strata.
    pub fn n_strata(&self) -> usize {
        self.cuts.len() + 1
    }
}

/// Dispatch to the requested design algorithm.
///
/// # Errors
///
/// Propagates the algorithm's parameter/feasibility errors.
pub fn design(
    pilot: &PilotIndex,
    params: &DesignParams,
    allocation: Allocation,
    algorithm: DesignAlgorithm,
) -> StrataResult<Stratification> {
    match algorithm {
        DesignAlgorithm::DirSol => crate::dirsol::dirsol(pilot, params, allocation),
        DesignAlgorithm::LogBdr => crate::logbdr::logbdr(pilot, params, allocation),
        DesignAlgorithm::DynPgm => {
            crate::dynpgm::dynpgm(pilot, params, crate::dynpgm::TSelection::default())
        }
        DesignAlgorithm::DynPgmP => crate::dynpgm::dynpgmp(pilot, params),
        DesignAlgorithm::BruteForce => crate::bruteforce::brute_force(pilot, params, allocation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        let ok = DesignParams::default();
        assert!(ok.validate().is_ok());
        assert!(DesignParams { n_strata: 1, ..ok }.validate().is_err());
        assert!(DesignParams { budget: 0, ..ok }.validate().is_err());
        assert!(DesignParams {
            min_pilots_per_stratum: 1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(DesignParams {
            min_stratum_size: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(DesignParams { epsilon: 0.0, ..ok }.validate().is_err());
    }

    #[test]
    fn feasibility_checks() {
        let pilot = PilotIndex::new(100, (0..10).map(|i| (i * 10, i % 2 == 0)).collect()).unwrap();
        let params = DesignParams {
            n_strata: 2,
            min_pilots_per_stratum: 5,
            min_stratum_size: 10,
            ..DesignParams::default()
        };
        assert!(params.check_feasible(&pilot).is_ok());
        let too_many_strata = DesignParams {
            n_strata: 3,
            ..params
        };
        assert!(too_many_strata.check_feasible(&pilot).is_err());
        let too_big_strata = DesignParams {
            min_stratum_size: 60,
            ..params
        };
        assert!(too_big_strata.check_feasible(&pilot).is_err());
    }

    #[test]
    fn stratification_helpers() {
        let s = Stratification {
            cuts: vec![10, 25],
            estimated_variance: 1.0,
        };
        assert_eq!(s.n_strata(), 3);
        assert_eq!(s.stratum_sizes(40), vec![10, 15, 15]);
        assert_eq!(s.stratum_of(0), 0);
        assert_eq!(s.stratum_of(9), 0);
        assert_eq!(s.stratum_of(10), 1);
        assert_eq!(s.stratum_of(24), 1);
        assert_eq!(s.stratum_of(25), 2);
        assert_eq!(s.stratum_of(39), 2);
    }
}
