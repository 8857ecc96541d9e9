//! Stratified sampling: allocation, drawing, and estimation.
//!
//! Implements the paper's §3.1 machinery:
//!
//! * **Proportional allocation** (`n_h ∝ N_h`) — the SSP baseline;
//! * **Neyman allocation** (`n_h ∝ N_h·S_h`) — used by SSN and by the
//!   second stage of LSS;
//! * the **footnote-1 rebalancing**: no stratum is allotted more samples
//!   than it contains, and no stratum fewer than a prescribed minimum,
//!   with the allocation rebalanced after meeting those constraints;
//! * the **stratified proportion estimator** of Eq. (1) with its
//!   unbiased variance estimate and t-interval.

use crate::error::{SamplingError, SamplingResult};
use crate::estimate::CountEstimate;
use crate::srs::sample_without_replacement;
use lts_stats::t_interval;
use rand::Rng;

/// Per-stratum tallies used by the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratumSample {
    /// Stratum size `N_h` (number of objects in the stratum).
    pub population: usize,
    /// Samples drawn from the stratum, `n_h`.
    pub sampled: usize,
    /// Positive labels among the samples.
    pub positives: usize,
}

impl StratumSample {
    /// Sample proportion `pˆ_h` (0 when nothing was sampled).
    pub fn p_hat(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.positives as f64 / self.sampled as f64
        }
    }

    /// Unbiased within-stratum variance estimate
    /// `s²_h = n_h/(n_h−1) · pˆ_h(1−pˆ_h)` (0 when `n_h < 2`).
    pub fn s2(&self) -> f64 {
        if self.sampled < 2 {
            0.0
        } else {
            let n = self.sampled as f64;
            let p = self.p_hat();
            n / (n - 1.0) * p * (1.0 - p)
        }
    }

    /// Laplace-smoothed standard deviation for **allocation** purposes:
    /// `√(p₊(1−p₊))` with `p₊ = (k+1)/(n+2)`.
    ///
    /// A pilot that happens to be label-homogeneous yields `s_h = 0`,
    /// and plugging that into Neyman allocation starves the stratum even
    /// though its true variance may be nonzero — the failure mode the
    /// paper's footnote-1 minimum guards against. The smoothed value is
    /// positive but shrinks as `1/√n` with growing pilot evidence of
    /// purity, so allocation degrades gracefully instead of falling off
    /// a cliff. Estimation always uses the unbiased [`Self::s2`].
    pub fn s_for_allocation(&self) -> f64 {
        let n = self.sampled as f64;
        let p = (self.positives as f64 + 1.0) / (n + 2.0);
        (p * (1.0 - p)).sqrt()
    }
}

/// Distribute `total` samples over strata proportionally to `weights`,
/// subject to `lo_h ≤ n_h ≤ N_h` where
/// `lo_h = min(min_per_stratum, N_h)`.
///
/// This is the paper's footnote-1 rebalancing: strata clamped at a bound
/// are fixed and the remainder is re-distributed among the rest;
/// fractional shares are resolved by largest remainder. Deterministic.
///
/// # Errors
///
/// Returns an error if lengths mismatch, weights are invalid, or the
/// total is infeasible (`total < Σ lo_h` or `total > Σ N_h`).
pub fn allocate(
    weights: &[f64],
    sizes: &[usize],
    total: usize,
    min_per_stratum: usize,
) -> SamplingResult<Vec<usize>> {
    if weights.len() != sizes.len() {
        return Err(SamplingError::LengthMismatch {
            expected: sizes.len(),
            found: weights.len(),
        });
    }
    if sizes.is_empty() {
        return Err(SamplingError::EmptyPopulation);
    }
    for &w in weights {
        if !w.is_finite() || w < 0.0 {
            return Err(SamplingError::InvalidWeights {
                message: format!("weight {w} is negative or non-finite"),
            });
        }
    }
    let lower: Vec<usize> = sizes.iter().map(|&n| min_per_stratum.min(n)).collect();
    let lower_sum: usize = lower.iter().sum();
    let upper_sum: usize = sizes.iter().sum();
    if total < lower_sum || total > upper_sum {
        return Err(SamplingError::InfeasibleAllocation {
            total,
            lower: lower_sum,
            upper: upper_sum,
        });
    }

    let h = sizes.len();
    let mut alloc = lower.clone();
    let mut remaining = total - lower_sum;
    // `open[h]` = stratum can still take more samples.
    let mut open: Vec<bool> = (0..h).map(|i| alloc[i] < sizes[i]).collect();

    while remaining > 0 {
        // Effective weights of open strata; if all zero, fall back to
        // remaining room so the budget can always be placed.
        let mut wsum: f64 = (0..h).filter(|&i| open[i]).map(|i| weights[i]).sum();
        let use_room_fallback = wsum <= 0.0;
        if use_room_fallback {
            wsum = (0..h)
                .filter(|&i| open[i])
                .map(|i| (sizes[i] - alloc[i]) as f64)
                .sum();
        }
        debug_assert!(wsum > 0.0, "feasibility guarantees open capacity");

        // Ideal fractional shares for open strata.
        let mut shares: Vec<(usize, f64)> = Vec::new();
        for i in 0..h {
            if open[i] {
                let w = if use_room_fallback {
                    (sizes[i] - alloc[i]) as f64
                } else {
                    weights[i]
                };
                shares.push((i, remaining as f64 * w / wsum));
            }
        }

        // Clamp any share exceeding the stratum's remaining room; those
        // strata are filled and closed, then we redistribute.
        let mut clamped_any = false;
        for &(i, share) in &shares {
            let room = sizes[i] - alloc[i];
            if share > room as f64 {
                alloc[i] = sizes[i];
                open[i] = false;
                remaining -= room;
                clamped_any = true;
            }
        }
        if clamped_any {
            continue;
        }

        // No clamping: round by largest remainder so the sum is exact.
        let mut floors = 0usize;
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(shares.len());
        for &(i, share) in &shares {
            let fl = share.floor() as usize;
            alloc[i] += fl;
            floors += fl;
            fracs.push((i, share - fl as f64));
        }
        let mut leftover = remaining - floors;
        fracs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (i, _) in fracs {
            if leftover == 0 {
                break;
            }
            if alloc[i] < sizes[i] {
                alloc[i] += 1;
                leftover -= 1;
            }
        }
        remaining = leftover;
        if remaining > 0 {
            // Rounding pushed some strata to capacity; loop to place the
            // remainder among still-open strata.
            for i in 0..h {
                open[i] = alloc[i] < sizes[i];
            }
        } else {
            break;
        }
    }
    debug_assert_eq!(alloc.iter().sum::<usize>(), total);
    Ok(alloc)
}

/// Proportional allocation: `n_h ∝ N_h` with rebalancing.
///
/// # Errors
///
/// Same feasibility conditions as [`allocate`].
pub fn proportional_allocation(
    sizes: &[usize],
    total: usize,
    min_per_stratum: usize,
) -> SamplingResult<Vec<usize>> {
    let weights: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    allocate(&weights, sizes, total, min_per_stratum)
}

/// Neyman allocation: `n_h ∝ N_h·s_h` with rebalancing. `s` holds the
/// (estimated) within-stratum standard deviations.
///
/// # Errors
///
/// Same feasibility conditions as [`allocate`].
pub fn neyman_allocation(
    sizes: &[usize],
    s: &[f64],
    total: usize,
    min_per_stratum: usize,
) -> SamplingResult<Vec<usize>> {
    if s.len() != sizes.len() {
        return Err(SamplingError::LengthMismatch {
            expected: sizes.len(),
            found: s.len(),
        });
    }
    let weights: Vec<f64> = sizes
        .iter()
        .zip(s)
        .map(|(&n, &sd)| n as f64 * sd.max(0.0))
        .collect();
    allocate(&weights, sizes, total, min_per_stratum)
}

/// Group object indices `0..assignments.len()` by stratum id.
///
/// `num_strata` must exceed every assignment id.
pub fn group_by_stratum(assignments: &[usize], num_strata: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); num_strata];
    for (i, &s) in assignments.iter().enumerate() {
        groups[s].push(i);
    }
    groups
}

/// Draw `alloc[h]` objects from each stratum (SRS within stratum) and
/// return the drawn indices per stratum.
///
/// # Errors
///
/// Returns an error if an allocation exceeds its stratum size.
pub fn draw_stratified<R: Rng + ?Sized>(
    rng: &mut R,
    strata: &[Vec<usize>],
    alloc: &[usize],
) -> SamplingResult<Vec<Vec<usize>>> {
    if strata.len() != alloc.len() {
        return Err(SamplingError::LengthMismatch {
            expected: strata.len(),
            found: alloc.len(),
        });
    }
    let mut out = Vec::with_capacity(strata.len());
    for (members, &n_h) in strata.iter().zip(alloc) {
        let picks = sample_without_replacement(rng, n_h, members.len())?;
        out.push(picks.into_iter().map(|i| members[i]).collect());
    }
    Ok(out)
}

/// The stratified count estimate of Eq. (1):
/// `pˆ = Σ W_h pˆ_h`, `V̂(pˆ) = Σ W²_h s²_h/n_h − (1/N) Σ W_h s²_h`,
/// count `pˆ·N`, with a t-interval on `Σ(n_h−1)` degrees of freedom.
///
/// Strata with `n_h = 0` contribute their weight with `pˆ_h = 0` — the
/// caller is responsible for allocating at least one sample to strata
/// that may contain positives (the `min_per_stratum` constraint exists
/// for exactly this reason).
///
/// A stratum whose draws are unanimous (every `n_h = 1` stratum is) has
/// `s²_h = 0`, which would claim its count exactly from a sample; its
/// variance term uses the Jeffreys-smoothed `p̃_h = (x_h + ½)/(n_h + 1)`
/// in place of `pˆ_h`, as `s²_h = p̃_h(1 − p̃_h)`. The point estimate
/// keeps `pˆ_h`.
///
/// # Errors
///
/// Returns an error if no stratum was sampled or the level is invalid.
pub fn stratified_count_estimate(
    strata: &[StratumSample],
    level: f64,
) -> SamplingResult<CountEstimate> {
    let population: usize = strata.iter().map(|s| s.population).sum();
    if population == 0 {
        return Err(SamplingError::EmptyPopulation);
    }
    let total_sampled: usize = strata.iter().map(|s| s.sampled).sum();
    if total_sampled == 0 {
        return Err(SamplingError::EmptyPopulation);
    }
    let nf = population as f64;
    let mut p_hat = 0.0;
    let mut var = 0.0;
    let mut df = 0.0;
    for s in strata {
        if s.sampled > s.population {
            return Err(SamplingError::SampleTooLarge {
                requested: s.sampled,
                population: s.population,
            });
        }
        let w = s.population as f64 / nf;
        p_hat += w * s.p_hat();
        if s.sampled == 0 {
            continue;
        }
        let s2 = if s.positives == 0 || s.positives == s.sampled {
            let p = (s.positives as f64 + 0.5) / (s.sampled as f64 + 1.0);
            p * (1.0 - p)
        } else {
            s.s2()
        };
        var += w * w * s2 / s.sampled as f64 - w * s2 / nf;
        df += (s.sampled - 1) as f64;
    }
    let var = var.max(0.0);
    let se = var.sqrt();
    let df = df.max(1.0);
    let interval = t_interval(p_hat, se, df, level)?;
    Ok(CountEstimate {
        count: p_hat * nf,
        std_error: se * nf,
        interval: interval.scaled(nf).clamped(0.0, nf),
        df: Some(df),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn proportional_allocation_basic() {
        let sizes = [100, 200, 700];
        // With no minimum the split is exactly proportional.
        let a = proportional_allocation(&sizes, 100, 0).unwrap();
        assert_eq!(a, vec![10, 20, 70]);
        // With a minimum the split stays near-proportional and exact-sum.
        let a = proportional_allocation(&sizes, 100, 1).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 100);
        assert!(a[2] >= 68 && a[1] >= 19 && a[0] >= 9, "{a:?}");
    }

    #[test]
    fn allocation_respects_minimum() {
        let sizes = [5, 1000, 1000];
        let a = proportional_allocation(&sizes, 50, 5).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 50);
        assert!(a[0] >= 5);
        assert!(a[1] >= 5 && a[2] >= 5);
    }

    #[test]
    fn allocation_caps_at_stratum_size() {
        // Middle stratum is tiny but heavy; its allocation must cap at 3.
        let sizes = [100, 3, 100];
        let weights = [1.0, 1000.0, 1.0];
        let a = allocate(&weights, &sizes, 23, 1).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 23);
        assert_eq!(a[1], 3);
        assert!(a[0] >= 1 && a[2] >= 1);
    }

    #[test]
    fn zero_weights_fall_back_to_room() {
        let sizes = [10, 10];
        let a = allocate(&[0.0, 0.0], &sizes, 10, 0).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 10);
        // Equal room → even split.
        assert_eq!(a, vec![5, 5]);
    }

    #[test]
    fn neyman_prefers_high_variance_strata() {
        let sizes = [500, 500];
        let a = neyman_allocation(&sizes, &[0.5, 0.05], 100, 2).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 100);
        assert!(a[0] > a[1], "Neyman should favor the noisy stratum: {a:?}");
    }

    #[test]
    fn neyman_with_zero_sd_still_meets_minimums() {
        let sizes = [100, 100, 100];
        let a = neyman_allocation(&sizes, &[0.0, 0.0, 0.5], 30, 5).unwrap();
        assert_eq!(a.iter().sum::<usize>(), 30);
        assert!(a[0] >= 5 && a[1] >= 5);
        assert!(a[2] >= 15, "weighted stratum should dominate: {a:?}");
    }

    #[test]
    fn infeasible_allocations_error() {
        assert!(proportional_allocation(&[10, 10], 21, 0).is_err());
        assert!(proportional_allocation(&[10, 10], 3, 5).is_err()); // lower bound 10 > 3
        assert!(allocate(&[1.0], &[1, 2], 1, 0).is_err()); // length mismatch
        assert!(allocate(&[-1.0], &[5], 1, 0).is_err());
        assert!(allocate(&[], &[], 0, 0).is_err());
    }

    #[test]
    fn census_allocation_is_exact() {
        let sizes = [3, 4, 5];
        let a = proportional_allocation(&sizes, 12, 1).unwrap();
        assert_eq!(a, vec![3, 4, 5]);
    }

    #[test]
    fn allocation_sums_exactly_for_awkward_totals() {
        // Weights that produce nasty fractions.
        let sizes = [17, 23, 31, 11];
        for total in [4usize, 7, 19, 40, 82] {
            let a = proportional_allocation(&sizes, total, 1).unwrap();
            assert_eq!(a.iter().sum::<usize>(), total, "total={total}");
            for (i, &n) in a.iter().enumerate() {
                assert!(n <= sizes[i]);
                assert!(n >= 1.min(sizes[i]));
            }
        }
    }

    #[test]
    fn group_by_stratum_partitions() {
        let assign = [0usize, 2, 1, 0, 2, 2];
        let groups = group_by_stratum(&assign, 3);
        assert_eq!(groups[0], vec![0, 3]);
        assert_eq!(groups[1], vec![2]);
        assert_eq!(groups[2], vec![1, 4, 5]);
    }

    #[test]
    fn draw_stratified_respects_allocation() {
        let strata = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7, 8, 9]];
        let mut rng = StdRng::seed_from_u64(3);
        let draws = draw_stratified(&mut rng, &strata, &[2, 3]).unwrap();
        assert_eq!(draws[0].len(), 2);
        assert_eq!(draws[1].len(), 3);
        assert!(draws[0].iter().all(|i| strata[0].contains(i)));
        assert!(draws[1].iter().all(|i| strata[1].contains(i)));
        assert!(draw_stratified(&mut rng, &strata, &[5, 0]).is_err());
    }

    #[test]
    fn estimator_hand_computation() {
        // Two strata: (N=60, n=6, k=3), (N=40, n=4, k=4).
        let strata = [
            StratumSample {
                population: 60,
                sampled: 6,
                positives: 3,
            },
            StratumSample {
                population: 40,
                sampled: 4,
                positives: 4,
            },
        ];
        let e = stratified_count_estimate(&strata, 0.95).unwrap();
        // p̂ = 0.6*0.5 + 0.4*1.0 = 0.7 → count 70.
        assert!((e.count - 70.0).abs() < 1e-9);
        // Second stratum has zero variance; only the first contributes.
        assert!(e.std_error > 0.0);
        assert!(e.interval.contains(70.0));
    }

    #[test]
    fn unanimous_strata_keep_a_jeffreys_variance() {
        let stratum = |sampled, positives| StratumSample {
            population: 50,
            sampled,
            positives,
        };
        let e = stratified_count_estimate(&[stratum(5, 0), stratum(5, 5)], 0.95).unwrap();
        assert!((e.count - 50.0).abs() < 1e-9);
        // p̃ = ½/6 and 5½/6 give the same p̃(1 − p̃) = 11/144; each
        // stratum adds w²·s²/n_h − w·s²/N with w = ½, n_h = 5, N = 100.
        let s2: f64 = 11.0 / 144.0;
        let var = 2.0 * (0.25 * s2 / 5.0 - 0.5 * s2 / 100.0);
        assert!((e.std_error - var.sqrt() * 100.0).abs() < 1e-9, "{e:?}");
        assert_eq!(e.df, Some(8.0));
        assert!(e.interval.lo < 50.0 && e.interval.hi > 50.0);

        // One draw per stratum: still a variance, and df = 0 → 1.
        let e = stratified_count_estimate(&[stratum(1, 0), stratum(1, 1)], 0.95).unwrap();
        assert!(e.std_error > 0.0);
        assert_eq!(e.df, Some(1.0));
        // A census of a unanimous stratum is exact.
        let e = stratified_count_estimate(&[stratum(50, 0), stratum(50, 50)], 0.95).unwrap();
        assert!(e.std_error < 1e-9, "{e:?}");
    }

    #[test]
    fn estimator_is_unbiased_monte_carlo() {
        // Ground truth: stratum A 20% positive, stratum B 80% positive.
        let stratum_a: Vec<bool> = (0..50).map(|i| i % 5 == 0).collect();
        let stratum_b: Vec<bool> = (0..30).map(|i| i % 5 != 0).collect();
        let truth = (stratum_a.iter().filter(|&&b| b).count()
            + stratum_b.iter().filter(|&&b| b).count()) as f64;
        let mut rng = StdRng::seed_from_u64(404);
        let trials = 5000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let ia = sample_without_replacement(&mut rng, 8, 50).unwrap();
            let ib = sample_without_replacement(&mut rng, 6, 30).unwrap();
            let strata = [
                StratumSample {
                    population: 50,
                    sampled: 8,
                    positives: ia.iter().filter(|&&i| stratum_a[i]).count(),
                },
                StratumSample {
                    population: 30,
                    sampled: 6,
                    positives: ib.iter().filter(|&&i| stratum_b[i]).count(),
                },
            ];
            sum += stratified_count_estimate(&strata, 0.95).unwrap().count;
        }
        let mean = sum / trials as f64;
        assert!((mean - truth).abs() < 0.4, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn smoothed_allocation_sd_never_zero_and_shrinks() {
        let pure_small = StratumSample {
            population: 100,
            sampled: 5,
            positives: 5,
        };
        let pure_large = StratumSample {
            population: 100,
            sampled: 50,
            positives: 50,
        };
        let mixed = StratumSample {
            population: 100,
            sampled: 10,
            positives: 5,
        };
        assert!(pure_small.s_for_allocation() > 0.0);
        assert!(pure_large.s_for_allocation() > 0.0);
        // More evidence of purity → smaller allocation weight.
        assert!(pure_large.s_for_allocation() < pure_small.s_for_allocation());
        // Mixed strata still dominate.
        assert!(mixed.s_for_allocation() > pure_small.s_for_allocation());
        // Raw estimator is unchanged: zero for pure strata.
        assert_eq!(pure_small.s2(), 0.0);
    }

    #[test]
    fn estimator_validation() {
        assert!(stratified_count_estimate(&[], 0.95).is_err());
        let bad = [StratumSample {
            population: 3,
            sampled: 5,
            positives: 1,
        }];
        assert!(stratified_count_estimate(&bad, 0.95).is_err());
        let none_sampled = [StratumSample {
            population: 10,
            sampled: 0,
            positives: 0,
        }];
        assert!(stratified_count_estimate(&none_sampled, 0.95).is_err());
    }
}
