//! Figure 7: quantification learning (QLCC / QLAC) across classifiers.
//!
//! Expected shape (paper §5.5.1): quantification estimates track the
//! classifier quality directly — the small NN sometimes produces
//! extremely poor estimates, where the equivalent LSS stays reasonable
//! (compare with Figure 6's rows).

use super::{build_scenario, try_cell, FIGURE_LEVELS};
use crate::cli::RunConfig;
use crate::harness::{cell_row, TextTable, CELL_HEADER};
use lts_core::estimators::{Qlac, Qlcc};
use lts_core::{CoreResult, LearnPhaseConfig};
use lts_data::DatasetKind;

/// Regenerate Figure 7.
///
/// # Errors
///
/// Propagates scenario-construction errors.
pub fn run(cfg: &RunConfig) -> CoreResult<()> {
    println!("== Figure 7: quantification learning across classifiers ==");
    let mut table = TextTable::new(&CELL_HEADER);
    for dataset in [DatasetKind::Neighbors, DatasetKind::Sports] {
        for level in FIGURE_LEVELS {
            let scenario = build_scenario(cfg, dataset, level)?;
            println!("   {}", scenario.describe());
            let budget = ((scenario.problem.n() as f64 * 0.02) as usize).max(60);
            let column = format!("{}/{} @2%", dataset.label(), level.label());
            for spec in cfg.classifier_lineup() {
                let learn = LearnPhaseConfig {
                    spec,
                    augment: None,
                    model_seed: cfg.seed,
                };
                let cc = Qlcc { learn };
                let label = format!("QLCC/{}", spec.label());
                if let Some(cell) = try_cell(&scenario, &cc, &label, &column, budget, cfg) {
                    table.row(cell_row(&cell));
                }
                let ac = Qlac { learn, folds: 5 };
                let label = format!("QLAC/{}", spec.label());
                if let Some(cell) = try_cell(&scenario, &ac, &label, &column, budget, cfg) {
                    table.row(cell_row(&cell));
                }
            }
        }
    }
    print!("{}", table.render());
    println!("   expect: estimate quality tied to classifier; Random rows skew badly.");
    table
        .write_csv(&cfg.out_dir, "fig7")
        .map_err(|e| lts_core::CoreError::InvalidConfig {
            message: format!("csv write failed: {e}"),
        })?;
    Ok(())
}
