//! Figure 1: uncertainty-sampling augmentation sharpens a k-NN
//! classifier's decision boundary.
//!
//! The paper shows three heat maps of the scoring function `g` over the
//! feature space as the training set grows 2500 → 2600 → 2700 via two
//! uncertainty-sampling steps. We print, per step: training size, test
//! accuracy, and the size of the uncertain band (objects with
//! `|g − 0.5| < 0.25`), and dump a score grid per step as CSV
//! (`fig1_step{0,1,2}.csv`) for plotting.

use super::build_scenario;
use crate::cli::RunConfig;
use crate::harness::TextTable;
use lts_core::{CoreResult, Labeler};
use lts_data::{DatasetKind, SelectivityLevel};
use lts_learn::{select_uncertain, Classifier, Knn};
use lts_sampling::sample_without_replacement;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Regenerate Figure 1.
///
/// # Errors
///
/// Propagates scenario/classifier errors.
pub fn run(cfg: &RunConfig) -> CoreResult<()> {
    println!("== Figure 1: active learning sharpens the kNN boundary ==");
    let sc = build_scenario(cfg, DatasetKind::Neighbors, SelectivityLevel::M)?;
    println!("   scenario: {}", sc.describe());
    let problem = &sc.problem;
    let n = problem.n();
    let features = problem.features();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut labeler = Labeler::new(problem);

    // Initial training set: 5% of O (paper: 2500 of 50k) and two
    // augmentation steps of 100 (scaled).
    let initial = ((n as f64) * 0.05) as usize;
    let step = ((100.0 * cfg.scale).round() as usize).max(20);

    let mut labeled = sample_without_replacement(&mut rng, initial, n)?;
    let mut labels = labeler.label_batch(&labeled)?;
    labels.reserve(2 * step);
    let mut model = Knn::new(5)?;
    model.fit(&features.gather(&labeled), &labels)?;

    // Held-out evaluation sample (diagnostic only; not budgeted).
    let eval_ids = sample_without_replacement(&mut rng, 2000.min(n / 2), n)?;
    let eval_truth = labeler.label_batch(&eval_ids)?;

    let mut table = TextTable::new(&[
        "step",
        "train size",
        "accuracy%",
        "uncertain band%",
        "boundary err%",
    ]);
    for step_no in 0..=2 {
        // Evaluate — one batch score over the gathered evaluation rows.
        let mut correct = 0usize;
        let mut uncertain = 0usize;
        let mut band_err = 0usize;
        let mut band_total = 0usize;
        let eval_scores = model.score_batch(&features.gather(&eval_ids))?;
        for (&g, &truth) in eval_scores.iter().zip(&eval_truth) {
            if (g >= 0.5) == truth {
                correct += 1;
            }
            if (g - 0.5).abs() < 0.25 {
                uncertain += 1;
                band_total += 1;
                if (g >= 0.5) != truth {
                    band_err += 1;
                }
            }
        }
        table.row(vec![
            step_no.to_string(),
            labeled.len().to_string(),
            format!("{:.2}", correct as f64 / eval_ids.len() as f64 * 100.0),
            format!("{:.2}", uncertain as f64 / eval_ids.len() as f64 * 100.0),
            if band_total == 0 {
                "-".into()
            } else {
                format!("{:.1}", band_err as f64 / band_total as f64 * 100.0)
            },
        ]);
        dump_heatmap(cfg, &model, &sc, step_no)?;

        if step_no == 2 {
            break;
        }
        // Uncertainty-sampling augmentation (paper: pool then pick the
        // smallest |g − 0.5|).
        let mut in_labeled = vec![false; n];
        for &i in &labeled {
            in_labeled[i] = true;
        }
        let mut pool: Vec<usize> = (0..n).filter(|&i| !in_labeled[i]).collect();
        let pool_size = 4000.min(pool.len());
        for i in 0..pool_size {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(pool_size);
        let picks = select_uncertain(&model, features, &pool, step)?;
        let pick_labels = labeler.label_batch(&picks)?;
        for (&i, l) in picks.iter().zip(pick_labels) {
            labeled.push(i);
            labels.push(l);
        }
        model.fit(&features.gather(&labeled), &labels)?;
    }
    print!("{}", table.render());
    println!(
        "   heat maps written to {}/fig1_step[0-2].csv (x, y, g)",
        cfg.out_dir
    );
    table
        .write_csv(&cfg.out_dir, "fig1")
        .map_err(|e| lts_core::CoreError::InvalidConfig {
            message: format!("csv write failed: {e}"),
        })?;
    Ok(())
}

/// Write a `grid × grid` score heat map over the 2-d feature bounding
/// box.
fn dump_heatmap(
    cfg: &RunConfig,
    model: &Knn,
    sc: &lts_data::Scenario,
    step: usize,
) -> CoreResult<()> {
    const GRID: usize = 40;
    let features = sc.problem.features();
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for row in features.iter_rows() {
        min_x = min_x.min(row[0]);
        max_x = max_x.max(row[0]);
        min_y = min_y.min(row[1]);
        max_y = max_y.max(row[1]);
    }
    // Score the whole grid as one batch.
    let mut grid_rows = Vec::with_capacity(GRID * GRID);
    for iy in 0..GRID {
        for ix in 0..GRID {
            let x = min_x + (max_x - min_x) * (ix as f64 + 0.5) / GRID as f64;
            let y = min_y + (max_y - min_y) * (iy as f64 + 0.5) / GRID as f64;
            grid_rows.push(vec![x, y]);
        }
    }
    let grid_matrix = lts_learn::Matrix::from_rows(&grid_rows)?;
    let scores = model.score_batch(&grid_matrix)?;
    let mut table = TextTable::new(&["x", "y", "g"]);
    for (row, &g) in grid_rows.iter().zip(&scores) {
        table.row(vec![
            format!("{:.4}", row[0]),
            format!("{:.4}", row[1]),
            format!("{g:.4}"),
        ]);
    }
    table
        .write_csv(&cfg.out_dir, &format!("fig1_step{step}"))
        .map_err(|e| lts_core::CoreError::InvalidConfig {
            message: format!("csv write failed: {e}"),
        })
}
