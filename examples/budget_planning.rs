//! Budget planning with the serving layer's planner + the design-time
//! quality forecast.
//!
//! The user states an accuracy target; `lts_serve::BudgetPlanner` —
//! the one planner implementation, shared with the service's admission
//! control — turns it into the cheapest sufficient labeling budget (or
//! routes to the exact census when sampling cannot win). LSS then
//! *forecasts* its interval halfwidth from the stage-1 design before
//! any stage-2 label is drawn (Eq. 4, the paper's concluding sketch),
//! and the realized interval is printed next to it. The sequential LWS
//! variant closes with the complementary trick: stop early once the
//! running interval is tight.
//!
//! ```sh
//! cargo run --release --example budget_planning
//! ```

use learning_to_sample::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Sports workload at M selectivity.
    let scenario = lts_data::sports_scenario(8_000, lts_data::SelectivityLevel::M, 11)?;
    let problem = &scenario.problem;
    let n = problem.n();
    let truth = scenario.truth as f64;
    println!("{} (truth = {truth})\n", scenario.describe());

    // One planner and one LSS configuration for the library and the
    // service alike.
    let planner = BudgetPlanner::default();
    let lss = Lss::default();

    println!(
        "{:>8} | {:>6} | {:>17} | {:>9} | {:>18}",
        "target ±", "budget", "forecast ±halfwid", "estimate", "realized 95% CI"
    );
    for rel in [0.10f64, 0.05, 0.025, 0.0125] {
        let target_counts = rel * n as f64;
        match planner.plan(n, Target::AbsWidth(target_counts))? {
            Route::Exact => {
                println!(
                    "{target_counts:>8.0} | {:>6} | census is cheaper at this accuracy",
                    n
                );
            }
            Route::Estimate { budget } => {
                let mut rng = StdRng::seed_from_u64(99);
                let r = lss.estimate(problem, budget, &mut rng)?;
                let f = r.forecast.expect("LSS always forecasts");
                println!(
                    "{target_counts:>8.0} | {budget:>6} | {:>17.0} | {:>9.0} | [{:>7.0}, {:>7.0}]",
                    f.predicted_halfwidth,
                    r.count(),
                    r.estimate.interval.lo,
                    r.estimate.interval.hi,
                );
            }
        }
    }

    // A peek inside the planner's estimator: the shared scoring
    // pipeline every learned estimator runs. Train the proxy on a
    // small labeled sample, batch-score the whole population
    // partition-parallel, and order it by (score, id) — the ordering
    // LSS designs its strata over. The score deciles show how much of
    // the population the proxy already separates confidently (cheap
    // strata) versus leaves uncertain (where the design concentrates
    // budget).
    println!("\nscoring pipeline: population ordered by the learned proxy g");
    let train_ids: Vec<usize> = (0..n).step_by(n / 200).collect();
    let train_labels: Vec<bool> = train_ids
        .iter()
        .map(|&i| problem.label(i))
        .collect::<Result<_, _>>()?;
    let mut proxy = ClassifierSpec::default().build(3);
    proxy.fit(&problem.features().gather(&train_ids), &train_labels)?;
    let ordered = ScoredPopulation::score_all(problem, proxy.as_ref())?.into_ordered();
    let deciles: Vec<String> = (0..=10)
        .map(|d| {
            let pos = (d * (ordered.n() - 1)) / 10;
            format!("{:.2}", ordered.sorted_scores()[pos])
        })
        .collect();
    println!("  g deciles over the ordering: {}", deciles.join(" "));

    // Sequential LWS: give it a generous budget and a ±10% target; it
    // stops as soon as the Des Raj running interval is tight enough.
    println!("\nsequential LWS, target halfwidth 10% of the estimate:");
    let seq = LwsSequential {
        target_relative_halfwidth: 0.10,
        ..LwsSequential::default()
    };
    let budget = 800;
    let mut rng = StdRng::seed_from_u64(7);
    let r = seq.estimate(problem, budget, &mut rng)?;
    println!(
        "  spent {} of {budget} labels → estimate {:.0} ∈ [{:.0}, {:.0}] (truth {truth})",
        r.evals,
        r.count(),
        r.estimate.interval.lo,
        r.estimate.interval.hi,
    );
    for note in &r.notes {
        println!("  note: {note}");
    }
    Ok(())
}
