//! Criterion benches for the stratification-design algorithms:
//! DirSol, LogBdr, DynPgm (per T-selection), DynPgmP, and the
//! brute-force oracle, plus the ε-granularity ablation.
//!
//! These anchor the paper's complexity claims (§4.2.1): DirSol ~ m²
//! pairs, DynPgm ~ |B|²·H per surviving bound, DynPgmP a single
//! separable pass. `strata_service` times the shapes the service
//! actually designs over, which the regular-grid shapes above it do
//! not resemble.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lts_strata::{
    brute_force, dirsol, dynpgm, dynpgmp, logbdr, Allocation, DesignParams, PilotIndex, TSelection,
};
use std::hint::black_box;

/// Uniform draws from `[0, 1)`, fixed by `seed`.
fn unit_rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn pilot(n_objects: usize, m: usize, seed: u64) -> PilotIndex {
    let mut next = unit_rng(seed);
    let entries: Vec<(usize, bool)> = (0..m)
        .map(|k| {
            let pos = k * n_objects / m;
            let frac = pos as f64 / n_objects as f64;
            (pos, next() < frac)
        })
        .collect();
    PilotIndex::new(n_objects, entries).unwrap()
}

fn params(h: usize, n_objects: usize) -> DesignParams {
    DesignParams {
        n_strata: h,
        budget: n_objects / 20,
        min_stratum_size: n_objects / 10,
        min_pilots_per_stratum: 3,
        epsilon: 1.0,
    }
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("strata_design");
    group.sample_size(10);

    for &(n, m) in &[(2_000usize, 40usize), (20_000, 120), (60_000, 300)] {
        let p = pilot(n, m, 7);
        group.bench_with_input(
            BenchmarkId::new("dirsol_h3", format!("N{n}_m{m}")),
            &p,
            |b, p| b.iter(|| dirsol(black_box(p), &params(3, n), Allocation::Neyman).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("dynpgm_h4_pruned", format!("N{n}_m{m}")),
            &p,
            |b, p| b.iter(|| dynpgm(black_box(p), &params(4, n), TSelection::Pruned(6)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("dynpgm_h4_unconstrained", format!("N{n}_m{m}")),
            &p,
            |b, p| {
                b.iter(|| dynpgm(black_box(p), &params(4, n), TSelection::Unconstrained).unwrap())
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dynpgmp_h4", format!("N{n}_m{m}")),
            &p,
            |b, p| b.iter(|| dynpgmp(black_box(p), &params(4, n)).unwrap()),
        );
    }

    // Full T-grid on a mid-size input (the Theorem-3 configuration).
    let p = pilot(20_000, 120, 7);
    group.bench_function("dynpgm_h4_full_T", |b| {
        b.iter(|| dynpgm(black_box(&p), &params(4, 20_000), TSelection::Full).unwrap())
    });

    // LogBdr is exponential in H: bench the small-m regime it is meant for.
    let p_small = pilot(2_000, 18, 7);
    group.bench_function("logbdr_h3_m18", |b| {
        b.iter(|| logbdr(black_box(&p_small), &params(3, 2_000), Allocation::Neyman).unwrap())
    });

    // Brute force: only tiny inputs are tractable.
    let p_tiny = pilot(80, 12, 7);
    let tiny_params = DesignParams {
        n_strata: 3,
        budget: 4,
        min_stratum_size: 8,
        min_pilots_per_stratum: 2,
        epsilon: 1.0,
    };
    group.bench_function("bruteforce_h3_N80", |b| {
        b.iter(|| brute_force(black_box(&p_tiny), &tiny_params, Allocation::Neyman).unwrap())
    });

    group.finish();
}

/// What the service's LSS hands the design on an 8 000-row dataset:
/// pilots at random positions of the score order, `H = 4`, `m⊔ = 5`,
/// and `N⊔` one above the stage-2 budget. `(m, stage 2)` = (45, 105)
/// and (68, 157) are `Lss::default()`'s split of a 200- and a 300-label
/// budget (`bench_suite`'s requests); (450, 1 050) is the same split of
/// 2 000 labels. Two label shapes, because the DP's cost is the share of
/// class pairs that are *not* unanimous: `sigmoid` (midpoint 0.6, slope
/// 12 — a weak proxy, the neighbours queries) and `sharp` (a step at
/// 0.85 of the pilots behind a 3-pilot mixed band — what the sports
/// proxy hands over).
fn bench_service_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("strata_service");
    group.sample_size(10);
    let n = 8_000usize;
    for &(m, stage2) in &[(45usize, 105usize), (68, 157), (450, 1_050)] {
        let mut unit = unit_rng(11);
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < m {
            positions.insert((unit() * n as f64) as usize);
        }
        let sigmoid: Vec<(usize, bool)> = positions
            .iter()
            .map(|&pos| {
                let p_true = 1.0 / (1.0 + (-(pos as f64 / n as f64 - 0.6) * 12.0).exp());
                (pos, unit() < p_true)
            })
            .collect();
        let step = m * 17 / 20;
        let sharp: Vec<(usize, bool)> = positions
            .iter()
            .enumerate()
            .map(|(k, &pos)| (pos, k >= step && k != step + 1))
            .collect();
        let params = DesignParams {
            n_strata: 4,
            budget: stage2,
            min_stratum_size: stage2 + 1,
            min_pilots_per_stratum: 5,
            epsilon: 1.0,
        };
        for (shape, entries) in [("sigmoid", sigmoid), ("sharp", sharp)] {
            let p = PilotIndex::new(n, entries).unwrap();
            group.bench_with_input(
                BenchmarkId::new("dynpgm_pruned6", format!("{shape}_m{m}")),
                &p,
                |b, p| b.iter(|| dynpgm(black_box(p), &params, TSelection::Pruned(6)).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new("dynpgmp", format!("{shape}_m{m}")),
                &p,
                |b, p| b.iter(|| dynpgmp(black_box(p), &params).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_epsilon_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("strata_epsilon");
    group.sample_size(10);
    let p = pilot(20_000, 120, 9);
    for &eps in &[0.25f64, 0.5, 1.0, 3.0] {
        let params = DesignParams {
            epsilon: eps,
            ..params(4, 20_000)
        };
        group.bench_with_input(
            BenchmarkId::new("dynpgmp", format!("eps{eps}")),
            &p,
            |b, p| b.iter(|| dynpgmp(black_box(p), &params).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_service_shapes,
    bench_epsilon_ablation
);
criterion_main!(benches);
