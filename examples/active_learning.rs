//! Figure 1, as a runnable demo: uncertainty-sampling active learning
//! sharpens a kNN decision boundary for the few-neighbors predicate.
//!
//! Reproduces the paper's §3.2 walkthrough — train a kNN classifier on
//! a 5% random sample, then repeatedly label only the objects the
//! classifier is most uncertain about (`|g − 0.5|` minimal) and
//! retrain. Accuracy over the full population and the width of the
//! uncertain band both improve monotonically, while each step labels a
//! tiny fraction of the data.
//!
//! ```sh
//! cargo run --release --example active_learning
//! ```

use learning_to_sample::prelude::*;
use lts_learn::{select_uncertain, Classifier, Knn, Matrix};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure-1 population: 2-d points, q = "≤ k neighbors within d".
    // Clustered data makes the density level-set — the decision
    // boundary — geometrically irregular, like the paper's heat maps.
    let n = 4_000usize;
    let mut state = 5u64;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centers = [(20.0, 25.0), (70.0, 30.0), (45.0, 75.0), (85.0, 80.0)];
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        if uniform() < 0.25 {
            // Sparse uniform background.
            xs.push(uniform() * 100.0);
            ys.push(uniform() * 100.0);
        } else {
            // Gaussian blob around a random center (Box–Muller).
            let (cx, cy) = centers[(uniform() * 4.0) as usize % 4];
            let r = (-2.0 * uniform().max(1e-12).ln()).sqrt() * 8.0;
            let theta = 2.0 * std::f64::consts::PI * uniform();
            xs.push((cx + r * theta.cos()).clamp(0.0, 100.0));
            ys.push((cy + r * theta.sin()).clamp(0.0, 100.0));
        }
    }
    let table = Arc::new(lts_table::table::table_of_floats(&[
        ("x", &xs),
        ("y", &ys),
    ])?);

    // Calibrate k to the 40th percentile of neighbor counts so q
    // splits the population ~40/60 along the density level-set.
    let d = 5.0;
    let mut counts: Vec<usize> = (0..n)
        .map(|i| {
            xs.iter()
                .zip(&ys)
                .filter(|&(&x, &y)| {
                    let (dx, dy) = (x - xs[i], y - ys[i]);
                    dx * dx + dy * dy <= d * d
                })
                .count()
        })
        .collect();
    counts.sort_unstable();
    let k = counts[(0.4 * n as f64) as usize] as i64;
    let q = lts_data::neighborhood::neighbors_sql_predicate(Arc::clone(&table), "x", "y", d, k);
    let problem = CountingProblem::new(Arc::clone(&table), Arc::new(q), &["x", "y"])?;
    let truth = problem.label_batch(&(0..n).collect::<Vec<_>>())?;

    // Initial training set: 5% SRS (the paper starts from 2 500 of 50k).
    let features: &Matrix = problem.features();
    let mut rng = StdRng::seed_from_u64(17);
    let mut labeled = lts_sampling::sample_without_replacement(&mut rng, n / 20, n)?;
    let mut model = Knn::new(5)?;

    println!("step | labeled | accuracy | uncertain band (|g-0.5| < 0.4)");
    for step in 0..3 {
        // (Re)train on everything labeled so far.
        let x = features.gather(&labeled);
        let y: Vec<bool> = labeled.iter().map(|&i| truth[i]).collect();
        model.fit(&x, &y)?;

        // Population-wide accuracy and the size of the uncertain band —
        // the quantities Figure 1's heat maps visualize. Scored through
        // the shared partition-parallel pipeline.
        let scores = ScoredPopulation::score_all(&problem, &model)?;
        let mut correct = 0usize;
        let mut uncertain = 0usize;
        for (&g, &label) in scores.scores().iter().zip(&truth) {
            if (g >= 0.5) == label {
                correct += 1;
            }
            if (g - 0.5).abs() < 0.4 {
                uncertain += 1;
            }
        }
        println!(
            "   {step} | {:>7} | {:>7.2}% | {:>5.1}% of population",
            labeled.len(),
            100.0 * correct as f64 / n as f64,
            100.0 * uncertain as f64 / n as f64,
        );

        // Augment: label the 100 objects the classifier is least sure
        // about (exactly the paper's selection rule).
        if step < 2 {
            let in_set: std::collections::HashSet<usize> = labeled.iter().copied().collect();
            let candidates: Vec<usize> = (0..n).filter(|i| !in_set.contains(i)).collect();
            let picked = select_uncertain(&model, features, &candidates, 100)?;
            labeled.extend(picked);
        }
    }

    println!(
        "\nEach step labels 100 uncertain objects (~2.5% of the population) and \
         sharpens the boundary —\nthe effect the paper's Figure-1 heat maps show."
    );
    Ok(())
}
