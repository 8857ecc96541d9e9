//! Quickstart: estimate an expensive count with LSS in ~40 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use learning_to_sample::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A population of 5 000 2-d points with cluster structure.
    let n = 5_000usize;
    let mut state = 42u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
    let ys: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
    let table = Arc::new(lts_table::table::table_of_floats(&[
        ("x", &xs),
        ("y", &ys),
    ])?);

    // The expensive predicate: "at most 12 points within distance 0.3"
    // (the paper's Example 1), as its correlated COUNT(*) subquery.
    // Evaluating it honestly scans neighbours.
    let q = lts_data::neighborhood::neighbors_sql_predicate(Arc::clone(&table), "x", "y", 0.3, 12);
    let problem = CountingProblem::new(Arc::clone(&table), Arc::new(q), &["x", "y"])?;

    // Ground truth for reference (normally you would not compute this —
    // it costs an evaluation per object).
    let truth = lts_data::neighborhood::exact_neighbors_count(&xs, &ys, 0.3, 12);
    problem.reset_meter();

    // LSS with a 100-tree random forest, 2% labeling budget.
    let budget = n / 50;
    let lss = Lss::default();
    let mut rng = StdRng::seed_from_u64(7);
    let report = lss.estimate(&problem, budget, &mut rng)?;

    println!("population        : {n}");
    println!("labeling budget   : {budget} predicate evaluations");
    println!("evaluations spent : {}", report.evals);
    println!("true count        : {truth}");
    println!(
        "LSS estimate      : {:.0}  (95% CI [{:.0}, {:.0}])",
        report.count(),
        report.estimate.interval.lo,
        report.estimate.interval.hi
    );
    println!(
        "overhead          : {:.2}% of wall time (the subquery kernel makes q cheap here; \
the paper's regime has q dominating)",
        report.timings.overhead_fraction() * 100.0
    );
    Ok(())
}
