//! End-to-end integration: every estimator on real scenarios, checking
//! the contracts the paper promises — budget respected, estimates near
//! truth, intervals that cover.

use learning_to_sample::prelude::*;
use lts_data::{neighbors_scenario, sports_scenario, SelectivityLevel};

fn estimators() -> Vec<(&'static str, Box<dyn CountEstimator>)> {
    // Smaller forests keep test time sane; semantics identical.
    let learn = LearnPhaseConfig {
        spec: ClassifierSpec::RandomForest { n_trees: 25 },
        augment: None,
        model_seed: 3,
    };
    vec![
        ("SRS", Box::new(Srs::default())),
        ("SSP", Box::new(Ssp::default())),
        ("SSN", Box::new(Ssn::default())),
        ("QLCC", Box::new(Qlcc { learn })),
        ("QLAC", Box::new(Qlac { learn, folds: 4 })),
        (
            "LWS",
            Box::new(Lws {
                learn,
                ..Lws::default()
            }),
        ),
        (
            "LWS-HT",
            Box::new(LwsHt {
                lws: Lws {
                    learn,
                    ..Lws::default()
                },
            }),
        ),
        (
            "LSS",
            Box::new(Lss {
                learn,
                min_pilots_per_stratum: 2,
                ..Lss::default()
            }),
        ),
    ]
}

#[test]
fn all_estimators_respect_budget_and_land_near_truth_sports() {
    let scenario = sports_scenario(3_000, SelectivityLevel::M, 5).unwrap();
    let truth = scenario.truth as f64;
    let budget = 150; // 5%
    for (name, est) in estimators() {
        scenario.problem.reset_meter();
        let mut rng = StdRng::seed_from_u64(11);
        let report = est.estimate(&scenario.problem, budget, &mut rng).unwrap();
        assert!(
            report.evals <= budget,
            "{name}: spent {} > budget {budget}",
            report.evals
        );
        assert!(
            scenario.problem.predicate_stats().evals as usize <= budget,
            "{name}: meter shows over-budget"
        );
        let rel = (report.count() - truth).abs() / truth;
        assert!(
            rel < 0.6,
            "{name}: estimate {} too far from truth {truth}",
            report.count()
        );
    }
}

#[test]
fn all_estimators_work_on_neighbors() {
    let scenario = neighbors_scenario(3_000, SelectivityLevel::L, 6).unwrap();
    let truth = scenario.truth as f64;
    let budget = 150;
    for (name, est) in estimators() {
        let mut rng = StdRng::seed_from_u64(21);
        let report = est.estimate(&scenario.problem, budget, &mut rng).unwrap();
        let rel = (report.count() - truth).abs() / truth;
        assert!(
            rel < 0.6,
            "{name}: estimate {} too far from truth {truth}",
            report.count()
        );
    }
}

#[test]
fn interval_estimators_cover_the_truth() {
    // Over repeated trials, 95% intervals should cover the truth far
    // more often than not (loose bound 70% for small trials).
    let scenario = sports_scenario(2_500, SelectivityLevel::S, 7).unwrap();
    let truth = scenario.truth as f64;
    for (name, est) in estimators() {
        if !est.provides_interval() {
            continue;
        }
        let stats = run_trials(&scenario.problem, est.as_ref(), 150, 20, 77, Some(truth)).unwrap();
        let coverage = stats.coverage.unwrap();
        assert!(
            coverage >= 0.7,
            "{name}: coverage {coverage} too low (median {} vs truth {truth})",
            stats.median()
        );
    }
}

#[test]
fn lss_beats_srs_iqr_on_the_paper_workload() {
    // The paper's headline: LSS produces consistently smaller IQRs.
    let scenario = neighbors_scenario(4_000, SelectivityLevel::S, 9).unwrap();
    let truth = scenario.truth as f64;
    let budget = 200; // 5%
    let trials = 20;
    let lss = Lss {
        learn: LearnPhaseConfig {
            spec: ClassifierSpec::RandomForest { n_trees: 25 },
            augment: None,
            model_seed: 0,
        },
        ..Lss::default()
    };
    let srs = Srs::default();
    let lss_stats = run_trials(&scenario.problem, &lss, budget, trials, 123, Some(truth)).unwrap();
    let srs_stats = run_trials(&scenario.problem, &srs, budget, trials, 123, Some(truth)).unwrap();
    assert!(
        lss_stats.iqr() < srs_stats.iqr(),
        "LSS IQR {} should beat SRS IQR {}",
        lss_stats.iqr(),
        srs_stats.iqr()
    );
}

#[test]
fn estimates_are_deterministic_given_seed() {
    let scenario = sports_scenario(2_000, SelectivityLevel::M, 3).unwrap();
    for (name, est) in estimators() {
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let a = est.estimate(&scenario.problem, 100, &mut rng_a).unwrap();
        let b = est.estimate(&scenario.problem, 100, &mut rng_b).unwrap();
        assert_eq!(a.count(), b.count(), "{name} not deterministic");
    }
}
