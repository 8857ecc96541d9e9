//! Figure 6: LSS robustness to classifier quality — KNN, the small NN,
//! RF, and the adversarial Random scorer.
//!
//! Expected shape (paper §5.4.4): better classifiers give tighter
//! estimates, but even Random-driven LSS stays unbiased with quality
//! comparable to plain stratified sampling.

use super::{build_scenario, try_cell, FIGURE_LEVELS};
use crate::cli::RunConfig;
use crate::harness::{cell_row, TextTable, CELL_HEADER};
use lts_core::estimators::Lss;
use lts_core::{CoreResult, LearnPhaseConfig};
use lts_data::DatasetKind;

/// Regenerate Figure 6.
///
/// # Errors
///
/// Propagates scenario-construction errors.
pub fn run(cfg: &RunConfig) -> CoreResult<()> {
    println!("== Figure 6: LSS across classifiers ==");
    let mut table = TextTable::new(&CELL_HEADER);
    for dataset in [DatasetKind::Neighbors, DatasetKind::Sports] {
        for level in FIGURE_LEVELS {
            let scenario = build_scenario(cfg, dataset, level)?;
            println!("   {}", scenario.describe());
            let budget = ((scenario.problem.n() as f64 * 0.02) as usize).max(60);
            let column = format!("{}/{} @2%", dataset.label(), level.label());
            for spec in cfg.classifier_lineup() {
                let est = Lss {
                    learn: LearnPhaseConfig {
                        spec,
                        augment: None,
                        model_seed: cfg.seed,
                    },
                    ..Lss::default()
                };
                if let Some(cell) = try_cell(&scenario, &est, spec.label(), &column, budget, cfg) {
                    table.row(cell_row(&cell));
                }
            }
        }
    }
    print!("{}", table.render());
    println!("   expect: RF/KNN tightest; Random widest but unbiased (median ≈ truth).");
    table
        .write_csv(&cfg.out_dir, "fig6")
        .map_err(|e| lts_core::CoreError::InvalidConfig {
            message: format!("csv write failed: {e}"),
        })?;
    Ok(())
}
