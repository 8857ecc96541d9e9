//! Coverage audit, first cut: how often each serving route's one-shot
//! interval covers the exact count, against its binomial band.
//!
//! Cells: the sports skyband and the few-neighbours query at level M
//! over 8 000 rows, labeling budgets 200 and 1 000, R = 400 seeds, the
//! oracle being the SQL-form correlated subquery (the bound kernel).
//! Routes: `Lss::default()` — the `lss` row, which is also the route
//! the service runs (`ServiceConfig::default().lss`) — and SRS, each
//! run one-shot. Per cell it
//! prints the coverage with its band (nominal ± 3σ of a binomial over
//! R replicates), the share of zero-width intervals, and the misses:
//! `lo-miss` when the truth lies below the interval, `hi-miss` above.
//!
//! It asserts two things only: SRS covers inside its band, and the table
//! is deterministic — the same computed across workers and on one
//! thread. The LSS route's deficit is what it measures, not what it
//! fails on.
//!
//! Slow (≈ 10⁴ estimates): `cargo test --release --test coverage_audit
//! -- --ignored --nocapture`.

use learning_to_sample::prelude::*;
use lts_data::{neighbors_scenario, sports_scenario, SelectivityLevel};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

const ROWS: usize = 8_000;
const REPLICATES: u64 = 400;
const BUDGETS: [usize; 2] = [200, 1_000];
const LEVEL: f64 = 0.95;

/// One replicate's interval against the truth.
#[derive(Clone, Copy)]
struct Outcome {
    covered: bool,
    zero_width: bool,
    /// The truth lies below the interval.
    lo_miss: bool,
    /// The truth lies above the interval.
    hi_miss: bool,
}

fn outcome(report: &EstimateReport, truth: f64) -> Outcome {
    let ConfidenceInterval { lo, hi, .. } = report.estimate.interval;
    Outcome {
        covered: lo <= truth && truth <= hi,
        zero_width: hi == lo,
        lo_miss: truth < lo,
        hi_miss: truth > hi,
    }
}

fn share(outcomes: &[Outcome], pick: impl Fn(&Outcome) -> bool) -> f64 {
    outcomes.iter().filter(|o| pick(o)).count() as f64 / outcomes.len() as f64
}

/// The audit table, replicates fanned across workers or on this thread;
/// and whether SRS covered inside its band in every cell.
fn audit(parallel: bool) -> (String, bool) {
    let band = 3.0 * (LEVEL * (1.0 - LEVEL) / REPLICATES as f64).sqrt();
    let (lo_band, hi_band) = (LEVEL - band, LEVEL + band);
    let routes: [(&str, Box<dyn CountEstimator>); 2] = [
        ("lss", Box::new(Lss::default())),
        ("srs", Box::new(Srs::default())),
    ];
    let mut table = format!(
        "{:<10} {:<10} {:>6} {:>6} {:>15} {:>6} {:>7} {:>7}\n",
        "scenario", "route", "budget", "cover", "band", "zero", "lo-miss", "hi-miss"
    );
    let mut srs_inside = true;
    for scenario in [
        sports_scenario(ROWS, SelectivityLevel::M, 1).unwrap(),
        neighbors_scenario(ROWS, SelectivityLevel::M, 1).unwrap(),
    ] {
        let problem = &scenario.problem;
        let truth = scenario.truth as f64;
        for budget in BUDGETS {
            for (route, estimator) in &routes {
                let replicate = |seed: u64| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let report = estimator.estimate(problem, budget, &mut rng).unwrap();
                    outcome(&report, truth)
                };
                let outcomes: Vec<Outcome> = if parallel {
                    (1..=REPLICATES)
                        .collect::<Vec<_>>()
                        .into_par_iter()
                        .map(replicate)
                        .collect()
                } else {
                    (1..=REPLICATES).map(replicate).collect()
                };
                let cover = share(&outcomes, |o| o.covered);
                if *route == "srs" {
                    srs_inside &= (lo_band..=hi_band).contains(&cover);
                }
                writeln!(
                    table,
                    "{:<10} {:<10} {budget:>6} {cover:>6.3} [{lo_band:.3}, {hi_band:.3}] {:>6.3} {:>7.3} {:>7.3}",
                    scenario.dataset.label(),
                    route,
                    share(&outcomes, |o| o.zero_width),
                    share(&outcomes, |o| o.lo_miss),
                    share(&outcomes, |o| o.hi_miss),
                )
                .unwrap();
            }
        }
    }
    (table, srs_inside)
}

#[test]
#[ignore = "slow: R = 400 replicates per cell; run with --ignored"]
fn coverage_audit() {
    let start = Instant::now();
    let (table, srs_inside) = audit(true);
    let parallel = start.elapsed();
    println!("{table}");
    let (again, _) = audit(false);
    println!(
        "wall: {:.1} s across workers, {:.1} s on one thread",
        parallel.as_secs_f64(),
        (start.elapsed() - parallel).as_secs_f64()
    );
    assert_eq!(table, again, "the audit is not deterministic");
    assert!(srs_inside, "SRS covers outside its binomial band:\n{table}");
}
