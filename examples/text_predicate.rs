//! Counting with a predicate written as *text* — a miniature CLI over
//! the whole pipeline: parse a SQL-ish condition, wrap it as the
//! expensive predicate `q`, and estimate `C(O, q)` with every estimator
//! the paper compares.
//!
//! ```sh
//! cargo run --release --example text_predicate
//! cargo run --release --example text_predicate -- \
//!     "(SELECT COUNT(*) FROM D WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < 25" 0.05
//! ```
//!
//! The first argument is the condition (`o.` marks the object row;
//! subqueries scan the registered table `D`), the second the budget as
//! a fraction of the population — 3 000 synthetic clustered points whose
//! float columns are the classifier features.

use learning_to_sample::prelude::*;
use lts_table::ExprPredicate;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let condition = args.get(1).map(String::as_str).unwrap_or(
        "(SELECT COUNT(*) FROM D \
         WHERE SQRT(POWER(o.x - x, 2) + POWER(o.y - y, 2)) <= 6.0) <= 40",
    );
    let budget_frac: f64 = args.get(2).map(|s| s.parse()).transpose()?.unwrap_or(0.05);

    // Population: 3 000 clustered 2-d points.
    let d = {
        let n = 3_000usize;
        let mut state = 77u64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let (cx, cy) = if uniform() < 0.5 {
                (30.0, 30.0)
            } else {
                (70.0, 65.0)
            };
            xs.push((cx + (uniform() - 0.5) * 55.0).clamp(0.0, 100.0));
            ys.push((cy + (uniform() - 0.5) * 55.0).clamp(0.0, 100.0));
        }
        Arc::new(lts_table::table::table_of_floats(&[
            ("x", &xs),
            ("y", &ys),
        ])?)
    };
    let n = d.len();

    // Classifier features: every float column of the population.
    let feature_cols: Vec<String> = d
        .schema()
        .fields()
        .iter()
        .filter(|f| f.data_type == lts_table::DataType::Float)
        .map(|f| f.name.clone())
        .collect();
    let feature_refs: Vec<&str> = feature_cols.iter().map(String::as_str).collect();

    // Parse the condition against a registry exposing the table as `D`.
    let registry = TableRegistry::new().register("D", Arc::clone(&d));
    let expr = parse_condition(condition, &registry)?;
    println!("condition: {condition}");
    let q = ExprPredicate::new("text-q", expr);
    let problem = CountingProblem::new(Arc::clone(&d), Arc::new(q), &feature_refs)?;

    let budget = ((n as f64 * budget_frac) as usize).max(40);
    println!("population N = {n}, budget = {budget} q-evaluations\n");

    let learn = LearnPhaseConfig::default();
    let estimators: Vec<(&str, Box<dyn CountEstimator>)> = vec![
        ("SRS", Box::new(Srs::default())),
        ("SSP", Box::new(Ssp::default())),
        ("QLCC", Box::new(Qlcc { learn })),
        (
            "LWS",
            Box::new(Lws {
                learn,
                ..Lws::default()
            }),
        ),
        (
            "LSS",
            Box::new(Lss {
                learn,
                min_pilots_per_stratum: 3,
                ..Lss::default()
            }),
        ),
    ];

    println!(
        "{:>5} | {:>9} | {:>22} | evals",
        "est", "count", "95% interval"
    );
    for (name, est) in estimators {
        let mut rng = StdRng::seed_from_u64(2_024);
        problem.reset_meter();
        match est.estimate(&problem, budget, &mut rng) {
            Ok(r) => {
                let interval = if r.has_interval {
                    format!(
                        "[{:>8.0}, {:>8.0}]",
                        r.estimate.interval.lo, r.estimate.interval.hi
                    )
                } else {
                    "(point estimate only)".to_string()
                };
                println!(
                    "{name:>5} | {:>9.0} | {interval:>22} | {:>5}",
                    r.count(),
                    r.evals
                );
            }
            Err(e) => println!("{name:>5} | failed: {e}"),
        }
    }

    let exact = problem.exact_count()?;
    println!("{:>5} | {exact:>9} | {:>22} | {n:>5}", "exact", "—");
    Ok(())
}
