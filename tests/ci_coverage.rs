//! Empirical confidence-interval coverage: the statistical substrate's
//! intervals must cover the truth at (close to) their nominal rate over
//! many seeded trials. These are the guarantees the paper's abstract
//! sells ("unbiased estimates with confidence intervals") — a silent
//! coverage bug would invalidate every experiment, so we measure
//! coverage directly rather than trusting the formulas.
//!
//! All trials are seeded; bounds allow ≈4σ of Monte-Carlo noise around
//! the nominal rate.

use learning_to_sample::prelude::*;
use lts_sampling::{
    sample_without_replacement, srs_count_estimate, stratified_count_estimate,
    weighted_sample_fenwick, DesRaj, StratumSample,
};
use lts_table::table::table_of_floats;
use std::sync::Arc;

const LEVEL: f64 = 0.95;

/// A fixed synthetic population: labels correlated with index so both
/// uniform and stratified schemes have something to estimate.
fn population(n: usize, p: f64, seed: u64) -> Vec<bool> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(|_| next() < p).collect()
}

fn count_true(labels: &[bool]) -> f64 {
    labels.iter().filter(|&&b| b).count() as f64
}

#[test]
fn wald_interval_covers_at_nominal_rate() {
    let labels = population(2_000, 0.3, 42);
    let truth = count_true(&labels);
    let trials = 1_500u64;
    let n = 150;
    let mut covered = 0u64;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(1_000 + t);
        let idx = sample_without_replacement(&mut rng, n, labels.len()).unwrap();
        let sample: Vec<bool> = idx.iter().map(|&i| labels[i]).collect();
        let est = srs_count_estimate(&sample, labels.len(), LEVEL, IntervalKind::Wald).unwrap();
        if est.interval.contains(truth) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / trials as f64;
    assert!(
        (0.92..=0.98).contains(&coverage),
        "Wald coverage {coverage} strays from nominal 0.95"
    );
}

#[test]
fn wilson_interval_covers_at_extreme_selectivity() {
    // The paper's §3.1 caveat: at XS-like selectivity Wald is unreliable
    // and Wilson is the fix. Verify Wilson holds its rate at p = 2%.
    let labels = population(4_000, 0.02, 7);
    let truth = count_true(&labels);
    let trials = 1_200u64;
    let n = 200;
    let (mut wilson_cov, mut wald_cov) = (0u64, 0u64);
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(9_000 + t);
        let idx = sample_without_replacement(&mut rng, n, labels.len()).unwrap();
        let sample: Vec<bool> = idx.iter().map(|&i| labels[i]).collect();
        let wilson =
            srs_count_estimate(&sample, labels.len(), LEVEL, IntervalKind::Wilson).unwrap();
        let wald = srs_count_estimate(&sample, labels.len(), LEVEL, IntervalKind::Wald).unwrap();
        wilson_cov += u64::from(wilson.interval.contains(truth));
        wald_cov += u64::from(wald.interval.contains(truth));
    }
    let wilson_rate = wilson_cov as f64 / trials as f64;
    let wald_rate = wald_cov as f64 / trials as f64;
    assert!(
        wilson_rate >= 0.90,
        "Wilson coverage {wilson_rate} too low at p = 0.02"
    );
    assert!(
        wilson_rate >= wald_rate - 0.02,
        "Wilson ({wilson_rate}) should not be materially worse than Wald ({wald_rate}) \
         at extreme selectivity"
    );
}

#[test]
fn stratified_t_interval_covers() {
    // Two strata with very different proportions: the textbook case
    // where stratification shines, and where a broken per-stratum
    // variance formula would mis-cover instantly.
    let a = population(1_000, 0.1, 11);
    let b = population(1_000, 0.7, 13);
    let truth = count_true(&a) + count_true(&b);
    let trials = 1_000u64;
    let (n_a, n_b) = (60, 60);
    let mut covered = 0u64;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(20_000 + t);
        let draw = |rng: &mut StdRng, labels: &[bool], n: usize| -> StratumSample {
            let idx = sample_without_replacement(rng, n, labels.len()).unwrap();
            StratumSample {
                population: labels.len(),
                sampled: n,
                positives: idx.iter().filter(|&&i| labels[i]).count(),
            }
        };
        let samples = [draw(&mut rng, &a, n_a), draw(&mut rng, &b, n_b)];
        let est = stratified_count_estimate(&samples, LEVEL).unwrap();
        covered += u64::from(est.interval.contains(truth));
    }
    let coverage = covered as f64 / trials as f64;
    assert!(
        (0.92..=0.99).contains(&coverage),
        "stratified coverage {coverage} strays from nominal 0.95"
    );
}

/// Run `trials` Des Raj estimations with the given weights; return
/// (mean estimate, empirical coverage).
fn des_raj_trials(labels: &[bool], weights: &[f64], trials: u64, seed: u64) -> (f64, f64) {
    let truth = count_true(labels);
    let draws = 80;
    let (mut covered, mut sum) = (0u64, 0.0);
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed + t);
        let mut dr = DesRaj::new(labels.len()).unwrap();
        for d in weighted_sample_fenwick(&mut rng, weights, draws).unwrap() {
            dr.push(labels[d.index], d.initial_probability).unwrap();
        }
        let est = dr.count_estimate(LEVEL).unwrap();
        sum += est.count;
        covered += u64::from(est.interval.contains(truth));
    }
    (sum / trials as f64, covered as f64 / trials as f64)
}

#[test]
fn des_raj_unbiased_even_with_adversarial_weights() {
    // §4.1's claim: Des Raj is unbiased for *any* weighting, good or
    // bad. Use deliberately label-uncorrelated lumpy weights (61×
    // spread) — the mean must still land on the truth.
    let labels = population(800, 0.35, 17);
    let truth = count_true(&labels);
    let lumpy: Vec<f64> = (0..labels.len())
        .map(|i| 0.1 + f64::from((i % 7) as u32))
        .collect();
    let (mean, _) = des_raj_trials(&labels, &lumpy, 800, 40_000);
    assert!(
        (mean - truth).abs() < 0.05 * truth,
        "Des Raj mean {mean} vs truth {truth}"
    );
}

#[test]
fn des_raj_covers_with_mild_weights_and_degrades_with_lumpy_ones() {
    // Coverage side: with mildly varying weights the t-interval holds
    // its rate; with badly miscalibrated weights the p_i distribution
    // grows a heavy tail, the sample variance understates, and coverage
    // drops — exactly the paper's observation that "LWS is more
    // susceptible to producing outliers" (§5.2). LWS guards against
    // this in practice via the ε floor on sampling probabilities.
    let labels = population(800, 0.35, 17);
    let mild: Vec<f64> = (0..labels.len())
        .map(|i| 1.0 + 0.1 * f64::from((i % 7) as u32))
        .collect();
    let lumpy: Vec<f64> = (0..labels.len())
        .map(|i| 0.1 + f64::from((i % 7) as u32))
        .collect();
    let (_, mild_cov) = des_raj_trials(&labels, &mild, 800, 50_000);
    let (_, lumpy_cov) = des_raj_trials(&labels, &lumpy, 800, 40_000);
    assert!(
        mild_cov >= 0.90,
        "Des Raj coverage {mild_cov} too low with mild weights"
    );
    assert!(
        mild_cov > lumpy_cov,
        "lumpy uncorrelated weights should degrade coverage \
         (mild {mild_cov} vs lumpy {lumpy_cov})"
    );
}

/// A cheap end-to-end problem with genuine label noise: the positive
/// probability ramps smoothly with `x` (sigmoid around the
/// `(1-p)`-quantile), so every score stratum holds a real 0/1 mixture
/// and within-stratum variances stay positive. A perfectly separable
/// population would let pure stage-2 draws estimate `s_h = 0` and
/// produce degenerate zero-width intervals — a small-sample pathology
/// of stratified t-intervals, not what we want to measure here.
fn noisy_line_problem(n: usize, p: f64) -> (CountingProblem, f64) {
    let xs: Vec<f64> = (0..n).map(|i| f64::from((i * 37 % n) as u32)).collect();
    let cut = (1.0 - p) * n as f64;
    let width = n as f64 / 12.0;
    let mut state = 99u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let labels: Vec<bool> = xs
        .iter()
        .map(|&x| {
            let prob = 1.0 / (1.0 + (-(x - cut) / width).exp());
            next() < prob
        })
        .collect();
    let table = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
    let q = FnPredicate::new("noisy-ramp", move |_t: &Table, i: usize| Ok(labels[i]));
    let problem = CountingProblem::new(table, Arc::new(q), &["x"]).unwrap();
    let truth = problem.exact_count().unwrap() as f64;
    (problem, truth)
}

#[test]
fn lss_interval_covers_end_to_end() {
    // Full pipeline coverage: learning, design, and stage-2 estimation
    // all feed the final t-interval. 120 trials with a kNN classifier.
    let (problem, truth) = noisy_line_problem(600, 0.3);
    let lss = Lss {
        learn: LearnPhaseConfig {
            spec: ClassifierSpec::Knn { k: 3 },
            augment: None,
            model_seed: 5,
        },
        min_pilots_per_stratum: 2,
        ..Lss::default()
    };
    let trials = 120u64;
    let mut covered = 0u64;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(70_000 + t);
        let r = lss.estimate(&problem, 120, &mut rng).unwrap();
        covered += u64::from(r.estimate.interval.contains(truth));
    }
    let coverage = covered as f64 / trials as f64;
    // Pilot-design adaptivity and the exactly-counted labels make the
    // interval mildly conservative/anticonservative depending on the
    // draw; demand ≥ 88% at nominal 95% over 120 trials.
    assert!(
        coverage >= 0.88,
        "end-to-end LSS coverage {coverage} too low"
    );
}

#[test]
fn lws_interval_covers_end_to_end() {
    let (problem, truth) = noisy_line_problem(600, 0.3);
    let lws = Lws {
        learn: LearnPhaseConfig {
            spec: ClassifierSpec::Knn { k: 3 },
            augment: None,
            model_seed: 5,
        },
        ..Lws::default()
    };
    let trials = 120u64;
    let mut covered = 0u64;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(80_000 + t);
        let r = lws.estimate(&problem, 120, &mut rng).unwrap();
        covered += u64::from(r.estimate.interval.contains(truth));
    }
    let coverage = covered as f64 / trials as f64;
    assert!(
        coverage >= 0.85,
        "end-to-end LWS coverage {coverage} too low"
    );
}

/// A separable count through the service: the ten objects with the
/// largest `f05` are exactly the ones with fewer than ten rows above
/// them, so a proxy on `f05` separates the classes and the served
/// strata come back unanimous. Unanimous draws must still
/// leave a variance: no reply may be a zero-width interval, and at
/// least 18 of 20 fresh ids must cover.
#[test]
fn served_intervals_cover_a_separable_count() {
    let mut service = Service::new(ServiceConfig::default());
    let spec = learning_to_sample::serve::DatasetSpec {
        kind: "neighbors".into(),
        rows: 2_000,
        level: "M".into(),
        seed: 3,
    };
    service.register_generated("n", &spec).unwrap();
    let truth = {
        let f05 = service.dataset_table("n").unwrap().floats("f05").unwrap();
        let above = |o: f64| f05.iter().filter(|&&x| x > o).count();
        f05.iter().filter(|&&o| above(o) < 10).count() as f64
    };
    assert_eq!(truth, 10.0);
    for budget in [200, 500] {
        let (mut covered, mut zero_width) = (0, 0);
        for id in 0..20 {
            let r = service.run(Request {
                id,
                dataset: "n".into(),
                condition: "(SELECT COUNT(*) FROM n WHERE f05 > o.f05) < 10".into(),
                target: Target::Budget(budget),
                fresh: true,
            });
            assert!(r.ok, "{:?}", r.error);
            covered += usize::from(r.lo <= truth && truth <= r.hi);
            zero_width += usize::from(r.lo == r.hi);
        }
        assert!(
            covered >= 18 && zero_width == 0,
            "budget {budget}: {covered} of 20 intervals cover {truth}, {zero_width} have zero width"
        );
    }
}
