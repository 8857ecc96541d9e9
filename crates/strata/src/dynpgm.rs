//! DynPgm and DynPgmP: dynamic-programming stratification
//! (paper §4.2.1–§4.2.2, Theorems 3–4).
//!
//! The Neyman objective (Eq. 5) is **not separable**: the marginal cost
//! of stratum `h` depends on the *auxiliary sum* `Σ_{h'<h} N_h' s_h'` of
//! the prefix. DynPgm restores a DP guarantee by running the program
//! once per bound `t ∈ T` on every stratum's `N_h·s_h` term and tracking
//! the auxiliary sum `X` of the chosen prefix. Every DP cell stores the
//! **exact** objective value of a concrete stratification, so whichever
//! `t` produces the best final cell is returned with a truthful variance
//! — pruning `T` can only affect which candidate is found, never the
//! correctness of its reported value.
//!
//! Candidate boundaries are taken at power-of-`(1+ε)` offsets on *both
//! sides* of every pilot position (the paper's two-sided construction),
//! giving `|B| = O(m log N)`.
//!
//! DynPgmP (proportional allocation, Eq. 6) is separable, needs no `T`
//! loop, and is a plain optimal DP over the same boundary set
//! (approximation ratio 2, Theorem 4).
//!
//! **Cost.** `O(H·|B|²)` per *surviving* bound and `O(|B|·H + m)` memory.
//! Both programs share one loop (`run_dp`) that differs only in the
//! per-stratum term (`StratumCost`), and every shortcut in it is exact
//! — cuts and variance bits equal the plain triple loop's, which the
//! tests keep as an oracle:
//!
//! * rows of `B` with the same pilot prefix form `m + 1` contiguous
//!   *classes*; `s²` and `√s²` depend only on the class pair, so they are
//!   computed once per pair, and the size / pilot minima become the end
//!   of the predecessor range instead of a test per pair;
//! * a DP cell is computed only if it can be finite and can reach the
//!   final cell (in particular, level `H` only at `b = N`);
//! * a finite bound `t ≥ ns_max` — an upper bound on every stratum's
//!   `N_h·s_h` — repeats the unconstrained pass cell for cell and is
//!   skipped; under a small `t`, a class pair whose *smallest* admissible
//!   stratum already exceeds `t` is skipped whole.

use crate::design::{DesignParams, Stratification};
use crate::error::{StrataError, StrataResult};
use crate::pilot::PilotIndex;
use serde::{Deserialize, Serialize};

/// How many auxiliary-sum bounds `t` DynPgm tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TSelection {
    /// The paper's full grid `T = {2^i : 0 ≤ i ≤ ⌈log₂(mHN)⌉}` plus an
    /// unconstrained pass — required for the Theorem 3 guarantee.
    Full,
    /// An unconstrained pass plus `k` log-spaced bounds — the practical
    /// default. Proven: for any selection, a finite bound at or above
    /// the largest possible `N_h·s_h` repeats the unconstrained pass and
    /// is skipped, so the upper part of either grid costs nothing and
    /// changes nothing. Empirical only: that the `k` bounds below it
    /// find the design [`TSelection::Full`]'s denser grid finds (A2 in
    /// `repro_ablations` shows no quality difference on our scenarios;
    /// Theorem 3 is stated for `Full`).
    Pruned(usize),
    /// A single unconstrained pass (fastest, no guarantee).
    Unconstrained,
}

impl Default for TSelection {
    fn default() -> Self {
        TSelection::Pruned(6)
    }
}

/// The global candidate boundary set `B`: for every pilot position
/// `ı_k`, offsets `±⌈(1+ε)^t⌉` (capped by the neighbouring pilots), the
/// pilot-adjacent cuts themselves, and the terminal cut `N`.
pub(crate) fn candidate_boundaries(pilot: &PilotIndex, epsilon: f64) -> Vec<usize> {
    let n = pilot.n_objects();
    let m = pilot.m();
    let mut out: Vec<usize> = Vec::new();
    for k in 1..=m {
        let here = pilot.position(k - 1) + 1; // ı_k (exclusive-end cut at pilot k)
        let next_limit = if k < m { pilot.position(k) } else { n };
        let prev_limit = if k >= 2 { pilot.position(k - 2) + 1 } else { 1 };
        out.push(here);
        // Forward offsets: ı_k + (1+ε)^t, strictly before ı_{k+1}.
        let mut step = 1.0f64;
        loop {
            let c = here + step.ceil() as usize;
            if c > next_limit {
                break;
            }
            out.push(c);
            step *= 1.0 + epsilon;
            if !step.is_finite() {
                break;
            }
        }
        // Backward offsets: ı_k − (1+ε)^t, strictly after ı_{k−1}.
        let mut step = 1.0f64;
        loop {
            let delta = step.ceil() as usize;
            if delta >= here || here - delta < prev_limit {
                break;
            }
            out.push(here - delta);
            step *= 1.0 + epsilon;
            if !step.is_finite() {
                break;
            }
        }
    }
    out.retain(|&c| c >= 1 && c <= n);
    out.push(n);
    out.sort_unstable();
    out.dedup();
    out
}

/// Shared DP state across boundary rows.
struct Rows {
    /// Candidate cuts, ascending; last element is `N`.
    b: Vec<usize>,
    /// `class_start[c]` = first row whose cut has at least `c` pilots
    /// below it, for `c ∈ 0..=m+1`. Rows `class_start[c]..class_start[c+1]`
    /// share the pilot prefix `c` — they form *class* `c` — so every
    /// pilot-derived statistic of a stratum `(b_j, b_i]` depends only on
    /// the class pair of `(j, i)`. Classes `1..=m` are never empty (class
    /// `k` holds the cut just past pilot `k`); class 0 may be.
    class_start: Vec<usize>,
}

impl Rows {
    fn new(pilot: &PilotIndex, epsilon: f64) -> Self {
        let b = candidate_boundaries(pilot, epsilon);
        let class_start = (0..=pilot.m() + 1)
            .map(|c| b.partition_point(|&cut| pilot.pilots_below(cut) < c))
            .collect();
        Self { b, class_start }
    }
}

/// `s²` of the class pair `(l_j, l_i)`; callers keep `l_i − l_j ≥ m⊔ ≥ 2`.
fn class_pair_s2(pilot: &PilotIndex, l_j: usize, l_i: usize) -> f64 {
    pilot
        .s2_for_pilot_range(l_j, l_i)
        .expect("class pairs span at least two pilots")
}

/// `s` from `s²` — one definition, so that `ns_max` bounds exactly the
/// products the passes form.
fn std_dev(s2: f64) -> f64 {
    s2.max(0.0).sqrt()
}

/// The per-stratum term of a DP objective: all that DynPgm and DynPgmP
/// do not share. Both methods return `(objective, N_h·s_h)` of the
/// extended solution's last stratum, or `None` when it is inadmissible.
trait StratumCost {
    /// What one class pair contributes, derived once from its `s²`.
    type Pair: Copy;
    /// `None` when no stratum of at least `N⊔` objects with this `s²`
    /// is admissible.
    fn pair(&self, s2: f64) -> Option<Self::Pair>;
    /// The single stratum `(0, size]`. Not `extend` from a zero prefix:
    /// `0.0 + v` would turn a `−0.0` term into `+0.0`.
    fn first(&self, pair: Self::Pair, size: f64) -> Option<(f64, f64)>;
    /// A stratum of `size` objects appended to a prefix with objective
    /// `a` and auxiliary sum `x`.
    fn extend(&self, pair: Self::Pair, size: f64, a: f64, x: f64) -> Option<(f64, f64)>;
}

/// Eq. 5 under the auxiliary-sum bound `N_h·s_h ≤ t`.
struct Neyman {
    budget: f64,
    min_size: f64,
    t: f64,
}

impl StratumCost for Neyman {
    /// `(s², s)`.
    type Pair = (f64, f64);

    fn pair(&self, s2: f64) -> Option<Self::Pair> {
        let s = std_dev(s2);
        // fl(size·s) is monotone in size, so if the smallest admissible
        // stratum already breaks the bound, all of this pair's do.
        (self.min_size * s <= self.t).then_some((s2, s))
    }

    fn first(&self, (s2, s): Self::Pair, size: f64) -> Option<(f64, f64)> {
        let ns = size * s;
        (ns <= self.t).then(|| (size * size * s2 / self.budget - size * s2, ns))
    }

    fn extend(&self, (s2, s): Self::Pair, size: f64, a: f64, x: f64) -> Option<(f64, f64)> {
        let ns = size * s;
        (ns <= self.t).then(|| {
            let cand = a + size * size * s2 / self.budget - size * s2 + 2.0 / self.budget * ns * x;
            (cand, ns)
        })
    }
}

/// Eq. 6: separable, no auxiliary sum.
struct Proportional {
    /// `(N − n) / n`.
    factor: f64,
}

impl StratumCost for Proportional {
    /// `s²`.
    type Pair = f64;

    fn pair(&self, s2: f64) -> Option<f64> {
        Some(s2)
    }

    fn first(&self, s2: f64, size: f64) -> Option<(f64, f64)> {
        Some((self.factor * size * s2, 0.0))
    }

    fn extend(&self, s2: f64, size: f64, a: f64, _x: f64) -> Option<(f64, f64)> {
        Some((a + self.factor * size * s2, 0.0))
    }
}

/// One DP over the boundary rows: the best `H`-stratum solution ending
/// at `N`, its first minimum in ascending predecessor order.
///
/// Rows are visited class by class. For a target row `i` of class `l_i`
/// the admissible predecessors are a prefix of the rows — classes
/// `0..=l_i − m⊔` (pilot minimum), cut off at `b_j ≤ b_i − N⊔` (size
/// minimum) — so neither minimum is tested per pair, and the class-pair
/// statistics come from `O(m)` scratch refilled once per target class.
fn run_dp<C: StratumCost>(
    pilot: &PilotIndex,
    params: &DesignParams,
    rows: &Rows,
    cost: &C,
) -> Option<Stratification> {
    let nb = rows.b.len();
    let h_max = params.n_strata;
    let nu = params.min_stratum_size;
    let mu = params.min_pilots_per_stratum;
    let n_objects = pilot.n_objects();
    let last = nb - 1; // b = N

    // a[h][i]: best exact partial objective for h strata over [0, b_i).
    // x[h][i]: auxiliary sum Σ N s of that solution.
    // parent[h][i]: predecessor row.
    let mut a = vec![vec![f64::INFINITY; nb]; h_max + 1];
    let mut x = vec![vec![0.0f64; nb]; h_max + 1];
    let mut parent = vec![vec![usize::MAX; nb]; h_max + 1];
    // pairs[l_j] for the current target class.
    let mut pairs: Vec<Option<C::Pair>> = Vec::new();

    for l_i in mu..=pilot.m() {
        pairs.clear();
        pairs.extend((0..=l_i - mu).map(|l_j| cost.pair(class_pair_s2(pilot, l_j, l_i))));
        let pilots_end = rows.class_start[l_i - mu + 1];

        for i in rows.class_start[l_i]..rows.class_start[l_i + 1] {
            let b_i = rows.b[i];
            if b_i < nu {
                continue;
            }
            // The origin shares pilot prefix 0 with class 0.
            if let Some((obj, ns)) = pairs[0].and_then(|pair| cost.first(pair, b_i as f64)) {
                a[1][i] = obj;
                x[1][i] = ns;
            }
            let j_end = pilots_end.min(rows.b.partition_point(|&b_j| b_j <= b_i - nu));

            // Row i's cells need only rows j < i, all levels of which
            // are final, so the levels can run innermost. A level-h cell
            // can be finite only if h strata fit up to b_i, and can reach
            // the answer — level H at b = N — only if H − h more fit
            // behind it; the rest are never read along that chain.
            let fit_before = (l_i / mu).min(b_i / nu);
            let fit_behind = ((pilot.m() - l_i) / mu).min((n_objects - b_i) / nu);
            let top = if i == last { h_max } else { h_max - 1 };
            for h in h_max.saturating_sub(fit_behind).max(2)..=top.min(fit_before) {
                let (mut best_a, mut best_x, mut best_j) = (f64::INFINITY, 0.0f64, usize::MAX);
                for (l_j, pair) in pairs.iter().enumerate() {
                    let lo = rows.class_start[l_j];
                    if lo >= j_end {
                        break;
                    }
                    let Some(pair) = *pair else { continue };
                    let hi = rows.class_start[l_j + 1].min(j_end);
                    for j in lo..hi {
                        let (a_j, x_j) = (a[h - 1][j], x[h - 1][j]);
                        if a_j.is_infinite() {
                            continue;
                        }
                        let size = (b_i - rows.b[j]) as f64;
                        let Some((cand, ns)) = cost.extend(pair, size, a_j, x_j) else {
                            continue;
                        };
                        if cand < best_a {
                            best_a = cand;
                            best_x = x_j + ns;
                            best_j = j;
                        }
                    }
                }
                a[h][i] = best_a;
                x[h][i] = best_x;
                parent[h][i] = best_j;
            }
        }
    }

    if a[h_max][last].is_infinite() {
        return None;
    }
    let mut cuts = Vec::with_capacity(h_max - 1);
    let mut i = last;
    for level in parent[2..].iter().rev() {
        i = level[i];
        debug_assert_ne!(i, usize::MAX);
        cuts.push(rows.b[i]);
    }
    cuts.reverse();
    Some(Stratification {
        estimated_variance: a[h_max][last],
        cuts,
    })
}

/// The auxiliary-sum bounds `t_selection` asks for, unconstrained pass
/// first.
fn bound_grid(t_selection: TSelection, pilot: &PilotIndex, params: &DesignParams) -> Vec<f64> {
    let m = pilot.m() as f64;
    let h = params.n_strata as f64;
    let nn = pilot.n_objects() as f64;
    let mut v = vec![f64::INFINITY];
    match t_selection {
        TSelection::Unconstrained => {}
        TSelection::Pruned(k) => {
            let max_exp = (m * h * nn).log2().ceil().max(1.0);
            let k = k.max(1);
            for i in 0..k {
                let exp = max_exp * (i as f64 + 1.0) / (k as f64 + 1.0);
                v.push(exp.exp2());
            }
        }
        TSelection::Full => {
            let max_exp = (m * h * nn).log2().ceil() as i32;
            for i in 0..=max_exp {
                v.push(f64::from(i).exp2());
            }
        }
    }
    v
}

/// An upper bound on `fl(N_h·s_h)` over every stratum the DP can form:
/// per class pair, the widest stratum (origin or first row of the left
/// class, to the last row of the right class) times the pair's `s` —
/// multiplication by `s ≥ 0` rounds monotonically in the size.
fn ns_max(pilot: &PilotIndex, params: &DesignParams, rows: &Rows) -> f64 {
    let mu = params.min_pilots_per_stratum;
    let mut max = 0.0f64;
    for l_i in mu..=pilot.m() {
        let b_hi = rows.b[rows.class_start[l_i + 1] - 1];
        for l_j in 0..=l_i - mu {
            // The origin (b = 0) shares pilot prefix 0 with class 0.
            let b_lo = if l_j == 0 {
                0
            } else {
                rows.b[rows.class_start[l_j]]
            };
            let s = std_dev(class_pair_s2(pilot, l_j, l_i));
            max = max.max((b_hi - b_lo) as f64 * s);
        }
    }
    max
}

/// Drop the finite bounds that cannot bind: a pass under `t ≥ ns_max`
/// never rejects a stratum, so it repeats the unconstrained pass cell
/// for cell and the strict `<` of the best-of loop cannot select it.
fn skip_repeated_passes(t_values: &mut Vec<f64>, ns_max: f64) {
    t_values.retain(|&t| t.is_infinite() || t < ns_max);
}

/// Run DynPgm (Neyman-allocation objective, Eq. 5).
///
/// # Errors
///
/// Returns feasibility errors, or [`StrataError::Infeasible`] if no
/// feasible stratification exists over the candidate boundaries.
pub fn dynpgm(
    pilot: &PilotIndex,
    params: &DesignParams,
    t_selection: TSelection,
) -> StrataResult<Stratification> {
    params.check_feasible(pilot)?;
    let rows = Rows::new(pilot, params.epsilon);
    let mut t_values = bound_grid(t_selection, pilot, params);
    if t_values.len() > 1 {
        skip_repeated_passes(&mut t_values, ns_max(pilot, params, &rows));
    }

    let mut best: Option<Stratification> = None;
    for &t in &t_values {
        let cost = Neyman {
            budget: params.budget as f64,
            min_size: params.min_stratum_size as f64,
            t,
        };
        if let Some(s) = run_dp(pilot, params, &rows, &cost) {
            if best
                .as_ref()
                .is_none_or(|b| s.estimated_variance < b.estimated_variance)
            {
                best = Some(s);
            }
        }
    }
    best.ok_or_else(|| StrataError::Infeasible {
        message: "DynPgm found no feasible stratification over candidate boundaries".into(),
    })
}

/// Run DynPgmP (proportional-allocation objective, Eq. 6): a separable,
/// single-pass optimal DP over the candidate boundaries.
///
/// # Errors
///
/// Returns feasibility errors, or [`StrataError::Infeasible`] if no
/// feasible stratification exists over the candidate boundaries.
pub fn dynpgmp(pilot: &PilotIndex, params: &DesignParams) -> StrataResult<Stratification> {
    params.check_feasible(pilot)?;
    let rows = Rows::new(pilot, params.epsilon);
    let nn = pilot.n_objects() as f64;
    let n_budget = params.budget as f64;
    let cost = Proportional {
        factor: (nn - n_budget) / n_budget,
    };
    run_dp(pilot, params, &rows, &cost).ok_or_else(|| StrataError::Infeasible {
        message: "DynPgmP found no feasible stratification over candidate boundaries".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force;
    use crate::design::Allocation;
    use crate::objective::evaluate_cuts;

    fn pilot_random(n_objects: usize, m: usize, seed: u64) -> PilotIndex {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let entries: Vec<(usize, bool)> = (0..m)
            .map(|k| {
                let pos = k * n_objects / m;
                let frac = pos as f64 / n_objects as f64;
                (pos, next() < frac * frac) // skewed positive tail
            })
            .collect();
        PilotIndex::new(n_objects, entries).unwrap()
    }

    fn params(h: usize) -> DesignParams {
        DesignParams {
            n_strata: h,
            budget: 6,
            min_stratum_size: 2,
            min_pilots_per_stratum: 2,
            epsilon: 1.0,
        }
    }

    #[test]
    fn boundary_set_contains_pilot_cuts_and_terminal() {
        let pilot = pilot_random(100, 10, 1);
        let b = candidate_boundaries(&pilot, 1.0);
        assert_eq!(*b.last().unwrap(), 100);
        for k in 1..=10 {
            let cut = pilot.position(k - 1) + 1;
            assert!(b.binary_search(&cut).is_ok(), "missing pilot cut {cut}");
        }
        // Sorted and deduped.
        for w in b.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn boundary_set_size_is_m_log_n() {
        let pilot = pilot_random(10_000, 20, 3);
        let b = candidate_boundaries(&pilot, 1.0);
        // |B| = O(m log N): with m=20, log2(500-gap) ≈ 9, two-sided →
        // loosely under 20 * 2 * 10 + m + 1.
        assert!(b.len() <= 20 * 2 * 12 + 21, "|B| = {}", b.len());
    }

    #[test]
    fn reported_variance_matches_reevaluation() {
        // The DP's A value must equal the exact objective of its cuts.
        let pilot = pilot_random(200, 20, 7);
        let p = params(3);
        let s = dynpgm(&pilot, &p, TSelection::default()).unwrap();
        let v = evaluate_cuts(&pilot, &s.cuts, &p, Allocation::Neyman).unwrap();
        assert!(
            (v - s.estimated_variance).abs() <= 1e-6 * (1.0 + v.abs()),
            "DP reported {} but cuts evaluate to {v}",
            s.estimated_variance
        );
    }

    #[test]
    fn dynpgmp_reported_variance_matches_reevaluation() {
        let pilot = pilot_random(200, 20, 9);
        let p = params(3);
        let s = dynpgmp(&pilot, &p).unwrap();
        let v = evaluate_cuts(&pilot, &s.cuts, &p, Allocation::Proportional).unwrap();
        assert!((v - s.estimated_variance).abs() <= 1e-6 * (1.0 + v.abs()));
    }

    #[test]
    fn within_theorem3_factor_of_brute_force() {
        for seed in [2u64, 5, 8] {
            let pilot = pilot_random(40, 10, seed);
            let p = params(3);
            let exact = brute_force(&pilot, &p, Allocation::Neyman).unwrap();
            let dp = dynpgm(&pilot, &p, TSelection::Full).unwrap();
            // Theorem 3 factor: (14/3)(10H − 9) = 98 for H = 3. In
            // practice the DP is near-optimal; we assert a much tighter
            // bound plus absolute slack for near-zero optima.
            assert!(
                dp.estimated_variance <= 6.0 * exact.estimated_variance.abs() + 1e-6,
                "seed {seed}: dynpgm {} vs exact {}",
                dp.estimated_variance,
                exact.estimated_variance
            );
        }
    }

    #[test]
    fn dynpgmp_within_factor_two_of_brute_force() {
        for seed in [2u64, 5, 8, 13] {
            let pilot = pilot_random(40, 10, seed);
            let p = params(3);
            let exact = brute_force(&pilot, &p, Allocation::Proportional).unwrap();
            let dp = dynpgmp(&pilot, &p).unwrap();
            // Theorem 4: factor 2.
            assert!(
                dp.estimated_variance <= 2.0 * exact.estimated_variance.abs() + 1e-6,
                "seed {seed}: dynpgmp {} vs exact {}",
                dp.estimated_variance,
                exact.estimated_variance
            );
        }
    }

    #[test]
    fn pruned_t_is_no_worse_than_unconstrained() {
        let pilot = pilot_random(300, 24, 21);
        let p = params(4);
        let pruned = dynpgm(&pilot, &p, TSelection::Pruned(6)).unwrap();
        let uncon = dynpgm(&pilot, &p, TSelection::Unconstrained).unwrap();
        // Pruned includes the unconstrained pass, so it can only match
        // or improve.
        assert!(pruned.estimated_variance <= uncon.estimated_variance + 1e-9);
    }

    #[test]
    fn bounds_at_or_above_ns_max_are_skipped_and_only_those() {
        let pilot = pilot_random(300, 24, 21);
        let p = params(4);
        let rows = Rows::new(&pilot, p.epsilon);
        let cap = ns_max(&pilot, &p, &rows);
        assert!(cap > 0.0 && cap.is_finite());
        let below = f64::from_bits(cap.to_bits() - 1);

        let mut t_values = vec![f64::INFINITY, below, cap, 2.0 * cap];
        skip_repeated_passes(&mut t_values, cap);
        assert_eq!(t_values, [f64::INFINITY, below]);

        // The skip is exact: a pass under t = ns_max is the
        // unconstrained pass.
        let pass = |t: f64| {
            let cost = Neyman {
                budget: p.budget as f64,
                min_size: p.min_stratum_size as f64,
                t,
            };
            run_dp(&pilot, &p, &rows, &cost)
        };
        assert!(pass(cap).is_some());
        assert_eq!(pass(cap), pass(f64::INFINITY));

        // Every grid survives as its sub-ns_max prefix plus ∞.
        let mut grid = bound_grid(TSelection::Full, &pilot, &p);
        let full = grid.len();
        skip_repeated_passes(&mut grid, cap);
        assert!(grid.len() < full);
        assert!(grid[0].is_infinite() && grid[1..].iter().all(|&t| t < cap));
    }

    #[test]
    fn handles_many_strata() {
        let pilot = pilot_random(500, 60, 31);
        let p = DesignParams {
            n_strata: 8,
            ..params(8)
        };
        let dp = dynpgm(&pilot, &p, TSelection::default()).unwrap();
        assert_eq!(dp.cuts.len(), 7);
        let sizes = dp.stratum_sizes(500);
        assert_eq!(sizes.iter().sum::<usize>(), 500);
        assert!(sizes.iter().all(|&s| s >= 2));
        let dpp = dynpgmp(&pilot, &p).unwrap();
        assert_eq!(dpp.cuts.len(), 7);
    }

    #[test]
    fn infeasible_errors() {
        let pilot = pilot_random(10, 4, 1);
        assert!(dynpgm(&pilot, &params(3), TSelection::default()).is_err());
        assert!(dynpgmp(&pilot, &params(3)).is_err());
    }
}
