//! Scenario assembly: the paper's Table-1 grid of dataset × selectivity.
//!
//! A [`Scenario`] bundles a generated dataset, a calibrated query
//! parameter (`k` for the skyband, `d` for few-neighbors), the exact
//! ground-truth count, and a ready-to-run [`CountingProblem`].
//! Calibration inverts the exact selectivity curves — dominator-count
//! quantiles for the skyband, (k+1)-NN-radius quantiles for
//! few-neighbors — so hitting a target like "XS ≈ 1%" is exact, not
//! search-based.

use crate::neighborhood::{knn_radii, neighbors_sql_predicate, qualifies};
use crate::neighbors::{neighbors_table, NeighborsConfig};
use crate::skyband::{dominator_counts, skyband_sql_predicate};
use crate::sports::{sports_table, SportsConfig};
use lts_core::{CoreError, CoreResult, CountingProblem};
use lts_table::Table;
use std::sync::Arc;

/// The two evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// MLB-pitching-like; k-skyband query (paper "Type 1 - Sports").
    Sports,
    /// KDD-99-like; few-neighbors query (paper "Type 2 - Neighbors").
    Neighbors,
}

impl DatasetKind {
    /// Display name matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Sports => "Sports",
            DatasetKind::Neighbors => "Neighbors",
        }
    }
}

/// The paper's six selectivity settings (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectivityLevel {
    /// ≈ 1–2% of objects qualify.
    XS,
    /// ≈ 10%.
    S,
    /// ≈ 25–29%.
    M,
    /// ≈ 40–50%.
    L,
    /// ≈ 70–75%.
    XL,
    /// ≈ 87–90%.
    XXL,
}

impl SelectivityLevel {
    /// All levels in Table-1 order.
    pub const ALL: [SelectivityLevel; 6] = [
        SelectivityLevel::XS,
        SelectivityLevel::S,
        SelectivityLevel::M,
        SelectivityLevel::L,
        SelectivityLevel::XL,
        SelectivityLevel::XXL,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SelectivityLevel::XS => "XS",
            SelectivityLevel::S => "S",
            SelectivityLevel::M => "M",
            SelectivityLevel::L => "L",
            SelectivityLevel::XL => "XL",
            SelectivityLevel::XXL => "XXL",
        }
    }

    /// Target selectivity for a dataset (Table 1's percentages).
    pub fn target(&self, dataset: DatasetKind) -> f64 {
        match (dataset, self) {
            (DatasetKind::Sports, SelectivityLevel::XS) => 0.01,
            (DatasetKind::Sports, SelectivityLevel::S) => 0.10,
            (DatasetKind::Sports, SelectivityLevel::M) => 0.29,
            (DatasetKind::Sports, SelectivityLevel::L) => 0.50,
            (DatasetKind::Sports, SelectivityLevel::XL) => 0.70,
            (DatasetKind::Sports, SelectivityLevel::XXL) => 0.90,
            (DatasetKind::Neighbors, SelectivityLevel::XS) => 0.02,
            (DatasetKind::Neighbors, SelectivityLevel::S) => 0.10,
            (DatasetKind::Neighbors, SelectivityLevel::M) => 0.25,
            (DatasetKind::Neighbors, SelectivityLevel::L) => 0.40,
            (DatasetKind::Neighbors, SelectivityLevel::XL) => 0.75,
            (DatasetKind::Neighbors, SelectivityLevel::XXL) => 0.87,
        }
    }
}

/// The calibrated query parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryParam {
    /// Skyband threshold `k` ("dominated by fewer than k").
    K(usize),
    /// Neighbor radius `d` (with the fixed neighbour cap below).
    D(f64),
}

/// Fixed neighbour cap `k` for the few-neighbors query (the paper tunes
/// `d` to control selectivity; the cap stays constant).
pub const NEIGHBORS_K: usize = 10;

/// A fully assembled experimental scenario.
pub struct Scenario {
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Selectivity level.
    pub level: SelectivityLevel,
    /// The calibrated query parameter.
    pub param: QueryParam,
    /// Exact ground-truth count.
    pub truth: usize,
    /// Achieved selectivity (`truth / N`).
    pub selectivity: f64,
    /// Ready-to-run problem whose oracle is the paper's SQL predicate
    /// ([`skyband_sql_predicate`] / [`neighbors_sql_predicate`]): the
    /// condition the service parses and runs, through the same subquery
    /// kernel.
    pub problem: CountingProblem,
    /// The shared object table.
    pub table: Arc<Table>,
}

impl Scenario {
    /// Scenario descriptor like `Sports/M (k=87, truth=13744, 29.2%)`.
    pub fn describe(&self) -> String {
        let param = match self.param {
            QueryParam::K(k) => format!("k={k}"),
            QueryParam::D(d) => format!("d={d:.4}"),
        };
        format!(
            "{}/{} ({param}, truth={}, {:.1}%)",
            self.dataset.label(),
            self.level.label(),
            self.truth,
            self.selectivity * 100.0
        )
    }
}

/// Calibration takes an order statistic of the population, so a scenario
/// needs at least one row.
fn require_rows(rows: usize) -> CoreResult<()> {
    if rows == 0 {
        return Err(CoreError::InvalidConfig {
            message: "a scenario needs at least one row".into(),
        });
    }
    Ok(())
}

/// Build the Sports scenario: generate the table, calibrate `k` to the
/// level's target selectivity via the exact dominator-count
/// distribution, and assemble the problem.
///
/// # Errors
///
/// Returns an error for `rows == 0`; propagates generation or
/// problem-construction errors.
pub fn sports_scenario(rows: usize, level: SelectivityLevel, seed: u64) -> CoreResult<Scenario> {
    require_rows(rows)?;
    let table = Arc::new(sports_table(&SportsConfig { rows, seed })?);
    let xs = table.floats("strikeouts")?;
    let ys = table.floats("wins")?;

    // Selectivity(k) = #{dom(i) < k} / N — calibrate k by quantile.
    // Both uses of `dom` below are order-insensitive (an order statistic
    // and a permutation-invariant count), so sort in place — no copy.
    let mut dom = dominator_counts(xs, ys);
    let target = level.target(DatasetKind::Sports);
    dom.sort_unstable();
    let want = ((rows as f64 * target).round() as usize).clamp(1, rows);
    // Smallest k with at least `want` qualifying points: k = dom value at
    // the want-th order statistic + 1.
    let k = dom[want - 1] + 1;
    let truth = dom.iter().filter(|&&c| c < k).count();

    let predicate = Arc::new(skyband_sql_predicate(
        Arc::clone(&table),
        "strikeouts",
        "wins",
        k as i64,
    ));
    let problem = CountingProblem::new(Arc::clone(&table), predicate, &["strikeouts", "wins"])?;
    Ok(Scenario {
        dataset: DatasetKind::Sports,
        level,
        param: QueryParam::K(k),
        truth,
        selectivity: truth as f64 / rows as f64,
        problem,
        table,
    })
}

/// Build the Neighbors scenario: generate the table, calibrate the
/// radius `d` to the level's target selectivity via the exact
/// (k+1)-NN-radius distribution, and assemble the problem.
///
/// # Errors
///
/// Returns an error for `rows == 0`; propagates generation or
/// problem-construction errors.
pub fn neighbors_scenario(rows: usize, level: SelectivityLevel, seed: u64) -> CoreResult<Scenario> {
    require_rows(rows)?;
    let table = Arc::new(neighbors_table(&NeighborsConfig {
        rows,
        features: 41,
        seed,
    })?);
    let xs = table.floats("src_rate")?;
    let ys = table.floats("dst_rate")?;

    // Selectivity(d) = #{radius_i > d} / N (decreasing in d): pick d as
    // the (1 − target) quantile of the radii.
    let mut radii = knn_radii(xs, ys, NEIGHBORS_K);
    let target = level.target(DatasetKind::Neighbors);
    radii.sort_by(f64::total_cmp);
    let idx = (((1.0 - target) * rows as f64).round() as usize).min(rows - 1);
    // Nudge just below the boundary radius so the boundary point counts.
    let d = radii[idx] * (1.0 - 1e-12);
    let truth = radii.iter().filter(|&&r| qualifies(r, d)).count();

    let predicate = Arc::new(neighbors_sql_predicate(
        Arc::clone(&table),
        "src_rate",
        "dst_rate",
        d,
        NEIGHBORS_K as i64,
    ));
    let problem = CountingProblem::new(Arc::clone(&table), predicate, &["src_rate", "dst_rate"])?;
    Ok(Scenario {
        dataset: DatasetKind::Neighbors,
        level,
        param: QueryParam::D(d),
        truth,
        selectivity: truth as f64 / rows as f64,
        problem,
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sports_calibration_hits_targets() {
        for level in SelectivityLevel::ALL {
            let sc = sports_scenario(4000, level, 5).unwrap();
            let target = level.target(DatasetKind::Sports);
            // Dominator counts are discrete: allow slack, tighter for
            // mid-range levels.
            let slack = (target * 0.5).max(0.04);
            assert!(
                (sc.selectivity - target).abs() <= slack,
                "{}: got {:.3}, want {target}",
                sc.describe(),
                sc.selectivity
            );
            assert_eq!(sc.truth, sc.problem.exact_count().unwrap());
        }
    }

    #[test]
    fn neighbors_calibration_hits_targets() {
        for level in SelectivityLevel::ALL {
            let sc = neighbors_scenario(3000, level, 5).unwrap();
            let target = level.target(DatasetKind::Neighbors);
            assert!(
                (sc.selectivity - target).abs() <= 0.02,
                "{}: got {:.3}, want {target}",
                sc.describe(),
                sc.selectivity
            );
            assert_eq!(sc.truth, sc.problem.exact_count().unwrap());
        }
    }

    #[test]
    fn an_empty_scenario_is_an_error_and_a_single_row_is_not() {
        for level in [SelectivityLevel::XS, SelectivityLevel::XXL] {
            assert!(sports_scenario(0, level, 3).is_err());
            assert!(neighbors_scenario(0, level, 3).is_err());
            assert_eq!(sports_scenario(1, level, 3).unwrap().table.len(), 1);
            assert_eq!(neighbors_scenario(1, level, 3).unwrap().table.len(), 1);
        }
        // Up to NEIGHBORS_K rows every k-NN radius is infinite and every
        // row qualifies; the truth is what the predicate counts there
        // and one row past it.
        for rows in [1, 5, NEIGHBORS_K, NEIGHBORS_K + 1] {
            for level in SelectivityLevel::ALL {
                for sc in [
                    sports_scenario(rows, level, 3).unwrap(),
                    neighbors_scenario(rows, level, 3).unwrap(),
                ] {
                    let census = sc.problem.exact_count().unwrap();
                    assert_eq!(sc.truth, census, "{} over {rows} rows", sc.describe());
                }
            }
        }
    }

    #[test]
    fn describe_is_informative() {
        let sc = sports_scenario(500, SelectivityLevel::XS, 1).unwrap();
        let d = sc.describe();
        assert!(d.contains("Sports/XS"));
        assert!(d.contains("k="));
        assert!(d.contains("truth="));
    }
}
