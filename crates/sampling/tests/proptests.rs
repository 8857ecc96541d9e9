//! Property-based tests for the sampling substrate.

use lts_sampling::{
    allocate, proportional_allocation, sample_without_replacement, stratified_count_estimate,
    weighted_sample_es, weighted_sample_fenwick, DesRaj, Fenwick, StratumSample,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

proptest! {
    #[test]
    fn srs_draws_valid_subsets(seed in any::<u64>(), n in 0usize..50, extra in 0usize..100) {
        let pop = n + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_without_replacement(&mut rng, n, pop).unwrap();
        prop_assert_eq!(s.len(), n);
        let set: HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len(), n);
        prop_assert!(s.iter().all(|&i| i < pop));
    }

    #[test]
    fn fenwick_prefix_matches_naive(
        weights in proptest::collection::vec(0.0f64..10.0, 1..80),
    ) {
        let f = Fenwick::new(&weights);
        let mut acc = 0.0;
        for i in 0..=weights.len() {
            prop_assert!((f.prefix_sum(i) - acc).abs() < 1e-9);
            if i < weights.len() {
                acc += weights[i];
            }
        }
    }

    /// Adds and zeros in random order ⇒ `total()` equals `Σ weights`
    /// exactly, and `search` never returns a zeroed leaf. Weights are
    /// dyadic (multiples of 1/64, bounded) so every partial sum is
    /// exactly representable and "exactly" means bitwise — the old
    /// delta-propagated removal accumulated residue and failed both
    /// clauses.
    #[test]
    fn fenwick_adds_zeros_total_exact_and_search_skips_zeroed(
        init in proptest::collection::vec(0u32..512, 1..60),
        ops in proptest::collection::vec((any::<u32>(), 0u32..512, any::<bool>()), 0..120),
        probes in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let mut weights: Vec<f64> = init.iter().map(|&k| f64::from(k) / 64.0).collect();
        let n = weights.len();
        let mut f = Fenwick::new(&weights);
        for &(slot, val, is_zero) in &ops {
            let i = slot as usize % n;
            if is_zero {
                f.zero(i);
                weights[i] = 0.0;
            } else {
                // Random-order add of an exactly-representable delta.
                let delta = f64::from(val) / 64.0 - weights[i];
                f.add(i, delta);
                weights[i] = f64::from(val) / 64.0;
            }
            let naive: f64 = weights.iter().sum();
            prop_assert_eq!(f.total().to_bits(), naive.to_bits(), "total drifted");
        }
        let total: f64 = weights.iter().sum();
        for &p in &probes {
            let t = p * total;
            if t < total {
                let got = f.search(t).expect("in-range target must hit");
                prop_assert!(f.weight(got) > 0.0, "search landed on a zeroed leaf");
                // And it is the leaf a naive cumulative scan finds.
                let mut acc = 0.0;
                let want = weights.iter().position(|&w| { acc += w; acc > t });
                prop_assert_eq!(Some(got), want);
            } else {
                prop_assert_eq!(f.search(t), None);
            }
        }
    }

    #[test]
    fn weighted_draws_are_distinct_positive_weight_objects(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0.0f64..5.0, 2..60),
    ) {
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        prop_assume!(positive >= 2);
        let n = 2.min(positive);
        let mut rng = StdRng::seed_from_u64(seed);
        for draws in [
            weighted_sample_es(&mut rng, &weights, n).unwrap(),
            weighted_sample_fenwick(&mut rng, &weights, n).unwrap(),
        ] {
            let idx: HashSet<_> = draws.iter().map(|d| d.index).collect();
            prop_assert_eq!(idx.len(), n);
            for d in &draws {
                prop_assert!(weights[d.index] > 0.0);
                let total: f64 = weights.iter().sum();
                prop_assert!((d.initial_probability - weights[d.index] / total).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn allocation_always_sums_and_respects_bounds(
        sizes in proptest::collection::vec(1usize..60, 2..8),
        weights_seed in any::<u64>(),
        frac in 0.05f64..0.9,
    ) {
        let total_pop: usize = sizes.iter().sum();
        let total = ((total_pop as f64 * frac) as usize).max(sizes.len());
        prop_assume!(total <= total_pop);
        // Pseudo-random weights from the seed.
        let mut state = weights_seed | 1;
        let weights: Vec<f64> = sizes
            .iter()
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let alloc = allocate(&weights, &sizes, total, 1).unwrap();
        prop_assert_eq!(alloc.iter().sum::<usize>(), total);
        for (a, s) in alloc.iter().zip(&sizes) {
            prop_assert!(*a >= 1.min(*s));
            prop_assert!(a <= s);
        }
    }

    #[test]
    fn proportional_allocation_is_order_preserving(
        sizes in proptest::collection::vec(5usize..100, 2..6),
    ) {
        let total: usize = sizes.iter().sum::<usize>() / 4;
        prop_assume!(total >= sizes.len());
        let alloc = proportional_allocation(&sizes, total, 0).unwrap();
        // Bigger strata never get fewer samples (monotone up to rounding ±1).
        for i in 0..sizes.len() {
            for j in 0..sizes.len() {
                if sizes[i] > sizes[j] {
                    prop_assert!(alloc[i] + 1 >= alloc[j]);
                }
            }
        }
    }

    #[test]
    fn stratified_estimate_within_population_bounds(
        samples in proptest::collection::vec((2usize..40, 1usize..10), 1..6),
    ) {
        // population >= sampled >= positives.
        let strata: Vec<StratumSample> = samples
            .iter()
            .map(|&(pop, pos_mod)| StratumSample {
                population: pop * 3,
                sampled: pop,
                positives: pop % (pos_mod + 1),
            })
            .collect();
        let e = stratified_count_estimate(&strata, 0.95).unwrap();
        let total_pop: usize = strata.iter().map(|s| s.population).sum();
        prop_assert!(e.count >= -1e-9);
        prop_assert!(e.count <= total_pop as f64 + 1e-9);
        prop_assert!(e.interval.lo >= 0.0);
        prop_assert!(e.interval.hi <= total_pop as f64);
    }

    #[test]
    fn desraj_estimates_are_finite_and_bounded(
        seed in any::<u64>(),
        labels in proptest::collection::vec(any::<bool>(), 4..30),
    ) {
        let n = labels.len();
        let weights: Vec<f64> = (0..n).map(|i| 0.2 + (i % 7) as f64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = weighted_sample_fenwick(&mut rng, &weights, n / 2).unwrap();
        let mut dr = DesRaj::new(n).unwrap();
        for d in draws {
            dr.push(labels[d.index], d.initial_probability).unwrap();
        }
        let est = dr.count_estimate(0.95).unwrap();
        prop_assert!(est.count.is_finite());
        prop_assert!(est.std_error.is_finite());
        prop_assert!(est.interval.lo <= est.interval.hi);
    }

    /// **Grouped-strata agreement.** Split the strata of one stratified
    /// design into contiguous groups and estimate each group with the
    /// same stratified estimator: the group counts and count variances
    /// sum to the global stratified estimator's over all strata (float
    /// summation order aside). Count variance decomposes additively
    /// across strata, so grouping them changes nothing.
    #[test]
    fn grouped_strata_compose_to_the_global_estimate(
        raw in proptest::collection::vec((1usize..150, any::<u32>(), any::<u32>()), 2..16),
        k in 1usize..8,
    ) {
        let strata: Vec<StratumSample> = raw
            .iter()
            .map(|&(pop, s_seed, p_seed)| {
                let sampled = 1 + s_seed as usize % pop;
                StratumSample {
                    population: pop,
                    sampled,
                    positives: p_seed as usize % (sampled + 1),
                }
            })
            .collect();
        let global = stratified_count_estimate(&strata, 0.95).unwrap();

        // Contiguous groups (strata are score-ordered in LSS; a group
        // takes a whole run of them).
        let k = k.min(strata.len());
        let per = strata.len().div_ceil(k);
        let (count, variance) = strata
            .chunks(per)
            .map(|chunk| stratified_count_estimate(chunk, 0.95).unwrap())
            .fold((0.0, 0.0), |(c, v), e| (c + e.count, v + e.std_error * e.std_error));

        let scale = global.count.abs().max(1.0);
        prop_assert!(
            (count - global.count).abs() <= 1e-9 * scale,
            "count: summed {} vs global {}", count, global.count
        );
        let global_variance = global.std_error * global.std_error;
        prop_assert!(
            (variance - global_variance).abs() <= 1e-9 * global_variance.max(1.0),
            "variance: summed {} vs global {}", variance, global_variance
        );
    }
}
