//! Figure 3: LSS execution-time overhead versus sample size, broken
//! into the paper's three phases — P1 Learning, P1 Sample Design, and
//! P2 Overhead — against total runtime.
//!
//! Labels cost what the service pays for them: the scenario's oracle
//! is the paper's SQL predicate, a correlated `COUNT(*)` subquery run
//! by the table engine's subquery kernel, so the paper's headline
//! observation — overhead is a tiny fraction (≈0.2%) of total runtime —
//! can be checked directly.

use super::build_scenario;
use crate::cli::RunConfig;
use crate::harness::TextTable;
use lts_core::estimators::{CountEstimator, Lss};
use lts_core::{CoreResult, LearnPhaseConfig};
use lts_data::{DatasetKind, SelectivityLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Regenerate Figure 3.
///
/// # Errors
///
/// Propagates scenario/estimator errors.
pub fn run(cfg: &RunConfig) -> CoreResult<()> {
    println!("== Figure 3: LSS overhead by phase vs sample size ==");
    // Every label is a subquery over the whole table, so this figure
    // runs on a reduced dataset and few trials by design.
    let fig_cfg = RunConfig {
        scale: cfg.scale.min(0.1),
        trials: cfg.trials.min(3),
        ..cfg.clone()
    };
    let sc = build_scenario(&fig_cfg, DatasetKind::Sports, SelectivityLevel::M)?;
    let problem = &sc.problem;
    println!(
        "   scenario: {} with SQL predicate (subquery kernel), {} trials",
        sc.describe(),
        fig_cfg.trials
    );

    let mut table = TextTable::new(&[
        "sample",
        "budget",
        "P1 learn (ms)",
        "P1 design (ms)",
        "P2 overhead (ms)",
        "labeling (ms)",
        "total (ms)",
        "overhead %",
    ]);
    let lss = Lss {
        learn: LearnPhaseConfig::default(),
        ..Lss::default()
    };
    for frac in [0.005f64, 0.01, 0.02, 0.04] {
        let budget = ((problem.n() as f64 * frac) as usize).max(60);
        // Average over trials.
        let mut learn = 0.0;
        let mut design = 0.0;
        let mut phase2 = 0.0;
        let mut labeling = 0.0;
        let mut total = 0.0;
        for t in 0..fig_cfg.trials {
            problem.reset_meter();
            let mut rng = StdRng::seed_from_u64(fig_cfg.seed + t as u64);
            let report = lss.estimate(problem, budget, &mut rng)?;
            learn += report.timings.learn.as_secs_f64();
            design += report.timings.design.as_secs_f64();
            phase2 += report.timings.phase2.as_secs_f64();
            labeling += report.timings.labeling.as_secs_f64();
            total += report.timings.total.as_secs_f64();
        }
        let ms = |secs_sum: f64| secs_sum / fig_cfg.trials as f64 * 1000.0;
        let overhead_pct = (learn + design + phase2) / total * 100.0;
        table.row(vec![
            format!("{:.1}%", frac * 100.0),
            budget.to_string(),
            format!("{:.2}", ms(learn)),
            format!("{:.2}", ms(design)),
            format!("{:.2}", ms(phase2)),
            format!("{:.2}", ms(labeling)),
            format!("{:.2}", ms(total)),
            format!("{overhead_pct:.2}"),
        ]);
    }
    print!("{}", table.render());
    println!("   expect: overhead % small and shrinking as sample size grows.");
    table
        .write_csv(&cfg.out_dir, "fig3")
        .map_err(|e| lts_core::CoreError::InvalidConfig {
            message: format!("csv write failed: {e}"),
        })?;
    Ok(())
}
