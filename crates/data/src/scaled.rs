//! The scaled synthetic tier: 10–100× the quick-test row counts.
//!
//! Scale experiments (`bench_suite`'s paged-scan probe) need
//! populations up to 100× the quick-test scale while staying
//! deterministic: the same `(dataset, tier, level, seed)` tuple must
//! generate the same table, the same calibrated query parameter, and
//! the same ground truth on every machine and thread count. Tier seeds
//! are salted by the tier's row count so different tiers are genuinely
//! different populations, not prefixes of one another.

use crate::scenario::{
    neighbors_scenario, sports_scenario, DatasetKind, Scenario, SelectivityLevel,
};
use lts_core::{mix_seed, CoreResult};

/// Base row count the tiers multiply (the repo's quick-test scale).
pub const SCALED_BASE_ROWS: usize = 800;

/// Domain-separation salt for tier seeds.
const SALT_SCALED: u64 = 0x5343_414C_4544; // "SCALED"

/// Row-count multipliers over [`SCALED_BASE_ROWS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaledTier {
    /// 10× the base (8 000 rows).
    X10,
    /// 30× the base (24 000 rows).
    X30,
    /// 100× the base (80 000 rows).
    X100,
}

impl ScaledTier {
    /// All tiers, smallest first.
    pub const ALL: [ScaledTier; 3] = [ScaledTier::X10, ScaledTier::X30, ScaledTier::X100];

    /// The multiplier over the base row count.
    pub fn multiplier(&self) -> usize {
        match self {
            ScaledTier::X10 => 10,
            ScaledTier::X30 => 30,
            ScaledTier::X100 => 100,
        }
    }

    /// Rows this tier generates.
    pub fn rows(&self) -> usize {
        SCALED_BASE_ROWS * self.multiplier()
    }

    /// Display label (`x10`, `x30`, `x100`).
    pub fn label(&self) -> &'static str {
        match self {
            ScaledTier::X10 => "x10",
            ScaledTier::X30 => "x30",
            ScaledTier::X100 => "x100",
        }
    }
}

/// Build a scenario at a scaled tier: same calibration machinery as the
/// quick-test scenarios, deterministic per `(dataset, tier, level,
/// seed)`.
///
/// # Errors
///
/// Propagates generation or problem-construction errors.
pub fn scaled_scenario(
    dataset: DatasetKind,
    tier: ScaledTier,
    level: SelectivityLevel,
    seed: u64,
) -> CoreResult<Scenario> {
    let rows = tier.rows();
    let tier_seed = mix_seed(seed, SALT_SCALED ^ rows as u64);
    match dataset {
        DatasetKind::Sports => sports_scenario(rows, level, tier_seed),
        DatasetKind::Neighbors => neighbors_scenario(rows, level, tier_seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_scale_the_base() {
        assert_eq!(ScaledTier::X10.rows(), 8_000);
        assert_eq!(ScaledTier::X30.rows(), 24_000);
        assert_eq!(ScaledTier::X100.rows(), 80_000);
        assert!(ScaledTier::ALL
            .windows(2)
            .all(|w| w[0].rows() < w[1].rows()));
    }

    #[test]
    fn scaled_scenarios_are_deterministic() {
        let a =
            scaled_scenario(DatasetKind::Sports, ScaledTier::X10, SelectivityLevel::M, 7).unwrap();
        let b =
            scaled_scenario(DatasetKind::Sports, ScaledTier::X10, SelectivityLevel::M, 7).unwrap();
        assert_eq!(a.table.as_ref(), b.table.as_ref());
        assert_eq!(a.param, b.param);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.table.len(), 8_000);
        // A different seed is a different population.
        let c =
            scaled_scenario(DatasetKind::Sports, ScaledTier::X10, SelectivityLevel::M, 8).unwrap();
        assert_ne!(a.table.as_ref(), c.table.as_ref());
    }

    #[test]
    fn tier_seeds_are_salted_apart_from_quick_scale() {
        // The x10 tier at seed 7 is not the plain 8 000-row scenario at
        // seed 7: tier populations are domain-separated.
        let tiered =
            scaled_scenario(DatasetKind::Sports, ScaledTier::X10, SelectivityLevel::M, 7).unwrap();
        let plain = sports_scenario(8_000, SelectivityLevel::M, 7).unwrap();
        assert_ne!(tiered.table.as_ref(), plain.table.as_ref());
    }
}
