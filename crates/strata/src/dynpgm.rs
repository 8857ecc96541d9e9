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
//! **Cost.** Both programs share one loop (`run_dp`) that differs only
//! in the per-stratum term (`StratumCost`); every shortcut in it is exact
//! — cuts and variance bits equal the plain triple loop's, which the
//! tests keep as an oracle (`tests/dynpgm_oracle`):
//!
//! * rows of `B` with the same pilot prefix form `m + 1` contiguous
//!   *classes*; `s²` and `√s²` depend only on the class pair, so they are
//!   computed once per pair, and the size / pilot minima become the end
//!   of the predecessor range instead of a test per pair;
//! * a DP cell is computed only if it can be finite and can reach the
//!   final cell (in particular, level `H` only at `b = N`);
//! * a finite bound `t ≥ ns_max` — an upper bound on every stratum's
//!   `N_h·s_h` — repeats the unconstrained pass cell for cell and is
//!   dropped. So is a finite `t < ns_min`, the least `N_h·s_h` of any
//!   stratum over a **non-unanimous** class pair: such a pass admits
//!   only unanimous strata, whose terms are zeros, so it is infeasible
//!   or ends at exactly `+0.0`; when it is feasible the unconstrained
//!   pass can take the same all-unanimous chain (each cell on it is at
//!   most its predecessor's), so it ends at `≤ 0` and, coming first,
//!   wins the strict `<` of the best-of loop. Neither drop changes the
//!   cuts, the variance bits or infeasibility. The surviving bounds
//!   `T'` advance **in lockstep**, row by
//!   row, each over its own `A` / `X` / parent arrays, so what a
//!   candidate takes from its stratum alone (`size²·s²/n`, `size·s²`,
//!   `(2/n)·size·s`) is computed once per pair `(j, i)` and read by every
//!   level and every bound;
//! * **bound pointers**: `fl(size·s)` is monotone in the size, so under a
//!   finite `t` the rows of a walked class whose stratum breaks `t` are a
//!   prefix of the class, and a row that breaks it for target `i` breaks
//!   it for every later target. One start row per (bound, class) moves
//!   forward over a target class and is never re-tested;
//! * a class pair whose pilots are **unanimous** (`s² = 0`) is not
//!   walked: each of its candidates is its predecessor's `A[h−1][j]`, so
//!   the class offers its first minimum of `A[h−1]`, kept as a running
//!   argmin. A unanimous pair's `s²` is `+0` exactly, so its terms are
//!   the same zeros at every size and are computed **once per DP**; and
//!   as the unanimous classes of a target class are a suffix, their
//!   minima are folded a class at a time, as `j_end` passes a class, into
//!   one running first minimum per (bound, level): one offer per cell,
//!   `O(1)` amortised. With a sharp proxy, the paper's good case, most
//!   pairs are unanimous;
//! * **class floors and a warm start**: a walked class's candidates are
//!   `((a + quad) − lin) + cross·x` with `a ≥ a_min` (the class's
//!   `ClassMin`), `x ≥ x_min` (the least `X` of its finite rows),
//!   `quad` and `cross` least at its smallest stratum and `lin` greatest
//!   at its largest; every floating-point step is monotone in its
//!   operands, so the same expression over those extremes bounds every
//!   candidate from below. A class whose floor cannot win is skipped,
//!   and its terms are computed only when a class is first walked for a
//!   target row. Each cell starts from the previous row's choice at the
//!   same (bound, level) — still admissible, its stratum only grew — and
//!   a candidate wins on `(value, row)`: a lesser value, or an equal one
//!   from an earlier row, so the result is the first minimum in row
//!   order whatever order the candidates come in. (Not the
//!   divide-and-conquer argmin, which cannot keep that tie-break.)
//!
//! Time is, per target row, `O(m)` term evaluations for the classes'
//! extremes and the terms of the classes walked, and per surviving bound
//! and level `O(m)` class floors and the candidates of the classes whose
//! floor can win; memory is `O(|T'|·H·(|B| + m))`.

use crate::design::{DesignParams, Stratification};
use crate::error::{StrataError, StrataResult};
use crate::pilot::PilotIndex;

/// How many auxiliary-sum bounds `t` DynPgm tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// products the loop forms.
fn std_dev(s2: f64) -> f64 {
    s2.max(0.0).sqrt()
}

/// The per-stratum term of a DP objective: all that DynPgm and DynPgmP
/// do not share.
trait StratumCost {
    /// What a candidate takes from its last stratum alone — the pair
    /// `(j, i)` — whatever the level and the bound.
    type Terms: Copy;
    /// Of a stratum of `size` objects over a class pair with `s²`, `s`.
    fn terms(&self, s2: f64, s: f64, size: f64) -> Self::Terms;
    /// `N_h·s_h`: what a bound `t` caps and `X` sums.
    fn ns(terms: &Self::Terms) -> f64;
    /// The same `N_h·s_h` from `s` and the size alone, as `terms` forms it.
    fn ns_of(s: f64, size: f64) -> f64;
    /// The objective of the single stratum `(0, size]`. Not `extend`
    /// from a zero prefix: `0.0 + v` would turn a `−0.0` term into `+0.0`.
    fn first(terms: &Self::Terms) -> f64;
    /// The objective of a prefix `(a, x)` extended by the stratum.
    fn extend(terms: &Self::Terms, a: f64, x: f64) -> f64;
    /// A lower bound on `extend(terms, a, x)` over `a ≥ a_min`,
    /// `x ≥ x_min ≥ 0` and the strata of one class pair with sizes
    /// between those of `small` and `large`: each term is monotone in the
    /// size, and each floating-point step in its operands.
    fn floor(small: &Self::Terms, large: &Self::Terms, a_min: f64, x_min: f64) -> f64;
}

/// Eq. 5.
struct Neyman {
    budget: f64,
}

/// `size²·s²/n`, `size·s²`, `(2/n)·size·s` and `size·s`.
#[derive(Clone, Copy)]
struct NeymanTerms {
    quad: f64,
    lin: f64,
    cross: f64,
    ns: f64,
}

impl StratumCost for Neyman {
    type Terms = NeymanTerms;

    fn terms(&self, s2: f64, s: f64, size: f64) -> NeymanTerms {
        let ns = Self::ns_of(s, size);
        NeymanTerms {
            quad: size * size * s2 / self.budget,
            lin: size * s2,
            cross: 2.0 / self.budget * ns,
            ns,
        }
    }

    fn ns(terms: &NeymanTerms) -> f64 {
        terms.ns
    }

    fn ns_of(s: f64, size: f64) -> f64 {
        size * s
    }

    fn first(terms: &NeymanTerms) -> f64 {
        terms.quad - terms.lin
    }

    /// `a + size*size*s2/budget - size*s2 + 2.0/budget*ns*x`, operation
    /// for operation: the three sub-terms are the operands that
    /// expression forms before it touches `a` or `x`.
    fn extend(terms: &NeymanTerms, a: f64, x: f64) -> f64 {
        a + terms.quad - terms.lin + terms.cross * x
    }

    fn floor(small: &NeymanTerms, large: &NeymanTerms, a_min: f64, x_min: f64) -> f64 {
        let cross = small.cross.min(large.cross);
        a_min + small.quad.min(large.quad) - small.lin.max(large.lin) + cross * x_min
    }
}

/// Eq. 6: separable, no auxiliary sum. Its one term keeps its own
/// expression — through Eq. 5's `quad − lin` a `−0.0` (a unanimous
/// stratum when the budget exceeds `N`) would come out `+0.0`.
struct Proportional {
    /// `(N − n) / n`.
    factor: f64,
}

impl StratumCost for Proportional {
    /// `factor·size·s²`.
    type Terms = f64;

    fn terms(&self, s2: f64, _s: f64, size: f64) -> f64 {
        self.factor * size * s2
    }

    fn ns(_terms: &f64) -> f64 {
        0.0
    }

    fn ns_of(_s: f64, _size: f64) -> f64 {
        0.0
    }

    fn first(terms: &f64) -> f64 {
        *terms
    }

    fn extend(terms: &f64, a: f64, _x: f64) -> f64 {
        a + terms
    }

    /// The factor may be negative (a budget above `N`), so the least
    /// term sits at either end.
    fn floor(small: &f64, large: &f64, a_min: f64, _x_min: f64) -> f64 {
        a_min + small.min(*large)
    }
}

/// The first minimum of one level of `A` over rows `class_start..upto`
/// of one class. Target rows ask for it over ranges that only grow
/// (`j_end` is monotone in `i`), so it advances and never restarts.
#[derive(Clone, Copy)]
struct ClassMin {
    upto: u32,
    arg: u32,
    /// The least `X` over the rows with a finite `A`.
    x_min: f64,
}

impl ClassMin {
    /// Extend over rows up to `hi` of the level `(a, x)`; the first
    /// minimum.
    fn advance(&mut self, a: &[f64], x: &[f64], hi: usize) -> usize {
        for j in self.upto as usize..hi {
            if a[j] < a[self.arg as usize] {
                self.arg = j as u32;
            }
            if a[j] < f64::INFINITY {
                self.x_min = self.x_min.min(x[j]);
            }
        }
        self.upto = self.upto.max(hi as u32);
        self.arg as usize
    }
}

/// Whether the candidate `(v, j)` displaces the best so far `(best,
/// best_j)`: a lesser value, or an equal finite one from an earlier row.
/// Offered in any order, the candidates leave their first minimum in row
/// order — what a strict `<` over ascending rows keeps.
fn precedes(v: f64, j: u32, best: f64, best_j: u32) -> bool {
    v < best || (v == best && j < best_j && v < f64::INFINITY)
}

/// One DP over the boundary rows, every bound of `bounds` in lockstep:
/// per bound the best `H`-stratum solution ending at `N`, its first
/// minimum in ascending predecessor order; of those, the first minimum
/// in `bounds` order.
///
/// Rows are visited class by class. For a target row `i` of class `l_i`
/// the admissible predecessors are a prefix of the rows — classes
/// `0..=l_i − m⊔` (pilot minimum), cut off at `b_j ≤ b_i − N⊔` (size
/// minimum) — so neither minimum is tested per pair. A suffix of those
/// classes is *unanimous* with `l_i` (`s² = 0`; a sub-range of same-label
/// pilots is same-label): there a candidate is its predecessor's `A`
/// (up to the sign of a zero, which `<` does not see), so the class's
/// first minimum of `A[h−1]` — a [`ClassMin`] — is its one contender,
/// priced by the same expression as any other. The classes before it are
/// walked, from a per-bound start row and only when their floor can win,
/// over [`StratumCost::Terms`] computed for a target row when a class is
/// first walked (module doc, "Cost").
fn run_dp<C: StratumCost>(
    pilot: &PilotIndex,
    params: &DesignParams,
    rows: &Rows,
    cost: &C,
    bounds: &[f64],
) -> Option<Stratification> {
    let nb = rows.b.len();
    let h_max = params.n_strata;
    let nu = params.min_stratum_size;
    let mu = params.min_pilots_per_stratum;
    let n_objects = pilot.n_objects();
    let n_classes = pilot.m() + 1;
    let last = nb - 1; // b = N

    // Per bound `t` and level `h ∈ 1..=H` (no level 0), at `cell(t, h) + i`:
    // a: best exact partial objective for h strata over [0, b_i).
    // x: auxiliary sum Σ N s of that solution.
    // parent: predecessor row.
    let cell = |t: usize, h: usize| (t * h_max + h - 1) * nb;
    let mut a = vec![f64::INFINITY; bounds.len() * h_max * nb];
    let mut x = vec![0.0f64; a.len()];
    let mut parent = vec![u32::MAX; a.len()];
    // The same layout over classes.
    let mut mins: Vec<ClassMin> = (0..bounds.len() * h_max * n_classes)
        .map(|k| rows.class_start[k % n_classes] as u32)
        .map(|start| ClassMin {
            upto: start,
            arg: start,
            x_min: f64::INFINITY,
        })
        .collect();
    // Per bound and class: the first row whose stratum keeps `N_h·s_h`
    // within the bound, for the current target class.
    let mut starts = vec![0usize; bounds.len() * n_classes];
    // Per bound and level: the first minimum of `A[h−1]` over the
    // unanimous classes wholly below `j_end` (`u32::MAX`: none yet), and
    // the next class to fold in, for the current target class.
    let mut unanimous_min = vec![(0usize, u32::MAX); bounds.len() * h_max];
    // Per target class: `(s², s)` of the pair with each class `l_j`.
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    // Per target row: the terms of the stratum `(b_j, b_i]` over the
    // walked rows, filled a class at a time when first walked (`filled`),
    // and per walked class those of its smallest and its largest stratum.
    let mut terms: Vec<C::Terms> = Vec::new();
    let mut filled: Vec<bool> = Vec::new();
    let mut edges: Vec<(C::Terms, C::Terms)> = Vec::new();
    // A unanimous pair's `s²` is `+0` exactly, and its terms are the same
    // zeros at every size.
    let unanimous = cost.terms(0.0, 0.0, 1.0);
    terms.resize(nb, unanimous);

    for l_i in mu..=pilot.m() {
        pairs.clear();
        pairs.extend((0..=l_i - mu).map(|l_j| {
            let s2 = class_pair_s2(pilot, l_j, l_i);
            (s2, std_dev(s2))
        }));
        // Classes `walked..=l_i − m⊔` are unanimous with `l_i`.
        let walked = pairs
            .iter()
            .rposition(|&(s2, _)| s2 != 0.0)
            .map_or(0, |l_j| l_j + 1);
        let pilots_end = rows.class_start[l_i - mu + 1];
        for (k, start) in starts.iter_mut().enumerate() {
            *start = rows.class_start[k % n_classes];
        }
        unanimous_min.fill((walked, u32::MAX));

        for i in rows.class_start[l_i]..rows.class_start[l_i + 1] {
            let b_i = rows.b[i];
            if b_i < nu {
                continue;
            }
            // The origin shares pilot prefix 0 with class 0.
            let first = cost.terms(pairs[0].0, pairs[0].1, b_i as f64);
            for (t, &bound) in bounds.iter().enumerate() {
                if C::ns(&first) <= bound {
                    a[cell(t, 1) + i] = C::first(&first);
                    x[cell(t, 1) + i] = C::ns(&first);
                }
            }
            let j_end = pilots_end.min(rows.b.partition_point(|&b_j| b_j <= b_i - nu));
            let walked_end = rows.class_start[walked].min(j_end);
            let size = |j: usize| (b_i - rows.b[j]) as f64;
            filled.clear();
            filled.resize(walked, false);
            edges.clear();
            edges.extend(
                pairs[..walked]
                    .iter()
                    .enumerate()
                    .take_while(|&(l_j, _)| rows.class_start[l_j] < j_end)
                    .map(|(l_j, &(s2, s))| {
                        // (An empty class 0 gets a stand-in; it is never walked.)
                        let lo = rows.class_start[l_j];
                        let hi = rows.class_start[l_j + 1].min(walked_end).max(lo + 1);
                        (cost.terms(s2, s, size(hi - 1)), cost.terms(s2, s, size(lo)))
                    }),
            );

            // Row i's cells need only rows j < i, all levels of which
            // are final, so the levels can run innermost. A level-h cell
            // can be finite only if h strata fit up to b_i, and can reach
            // the answer — level H at b = N — only if H − h more fit
            // behind it; the rest are never read along that chain.
            let fit_before = (l_i / mu).min(b_i / nu);
            let fit_behind = ((pilot.m() - l_i) / mu).min((n_objects - b_i) / nu);
            let top = if i == last { h_max } else { h_max - 1 };
            for (t, &bound) in bounds.iter().enumerate() {
                // fl(size·s) is monotone in size: the rows of a walked
                // class whose stratum breaks the bound are a prefix of
                // it, and a longer one for every later target row.
                let starts = &mut starts[t * n_classes..][..n_classes];
                for (l_j, start) in starts[..walked].iter_mut().enumerate() {
                    let hi = rows.class_start[l_j + 1].min(walked_end);
                    while *start < hi && C::ns_of(pairs[l_j].1, size(*start)) > bound {
                        *start += 1;
                    }
                }
                for h in h_max.saturating_sub(fit_behind).max(2)..=top.min(fit_before) {
                    let below = cell(t, h - 1);
                    let (a_below, x_below) = (&a[below..below + nb], &x[below..below + nb]);
                    let mins = &mut mins[(t * h_max + h - 2) * n_classes..][..n_classes];
                    // (A, X, parent) of the best candidate so far.
                    let mut best = (f64::INFINITY, 0.0f64, u32::MAX);
                    let offer = |best: &mut (f64, f64, u32), j: usize, terms: &C::Terms| {
                        let a_j = a_below[j];
                        if a_j.is_infinite() {
                            return;
                        }
                        let cand = C::extend(terms, a_j, x_below[j]);
                        if precedes(cand, j as u32, best.0, best.2) {
                            *best = (cand, x_below[j] + C::ns(terms), j as u32);
                        }
                    };
                    // Warm start: the previous row's choice at this cell,
                    // still admissible here (its stratum only grew; `i ≥ 1`
                    // as class 1 is never empty).
                    let j = parent[cell(t, h) + i - 1] as usize;
                    if j != u32::MAX as usize {
                        let l_j = rows.class_start.partition_point(|&c| c <= j) - 1;
                        let terms_j = if l_j < walked {
                            cost.terms(pairs[l_j].0, pairs[l_j].1, size(j))
                        } else {
                            unanimous
                        };
                        if C::ns(&terms_j) <= bound {
                            offer(&mut best, j, &terms_j);
                        }
                    }
                    for (l_j, &start) in starts[..walked].iter().enumerate() {
                        let lo = rows.class_start[l_j];
                        if lo >= j_end {
                            break;
                        }
                        let hi = rows.class_start[l_j + 1].min(j_end);
                        if start >= hi {
                            continue; // every stratum breaks the bound
                        }
                        let min = &mut mins[l_j];
                        let a_min = a_below[min.advance(a_below, x_below, hi)];
                        let (small, large) = &edges[l_j];
                        let floor = C::floor(small, large, a_min, min.x_min);
                        if !precedes(floor, start as u32, best.0, best.2) {
                            continue; // no candidate of the class can win
                        }
                        if !filled[l_j] {
                            let (s2, s) = pairs[l_j];
                            for (j, terms) in (lo..hi).zip(&mut terms[lo..hi]) {
                                *terms = cost.terms(s2, s, size(j));
                            }
                            filled[l_j] = true;
                        }
                        (start..hi).for_each(|j| offer(&mut best, j, &terms[j]));
                    }
                    // The unanimous classes offer one row: the first
                    // minimum of A[h−1] over all of them, folded a whole
                    // class at a time, the one `j_end` cuts read last.
                    let (next, arg) = &mut unanimous_min[t * h_max + h - 2];
                    let first_min = |j: usize, arg: u32| {
                        if arg == u32::MAX || a_below[j] < a_below[arg as usize] {
                            j as u32
                        } else {
                            arg
                        }
                    };
                    while *next < pairs.len() && rows.class_start[*next + 1] <= j_end {
                        let (lo, hi) = (rows.class_start[*next], rows.class_start[*next + 1]);
                        if lo < hi {
                            // (Class 0 is empty when a pilot sits at 0.)
                            *arg = first_min(mins[*next].advance(a_below, x_below, hi), *arg);
                        }
                        *next += 1;
                    }
                    let mut j = *arg;
                    if *next < pairs.len() && rows.class_start[*next] < j_end {
                        j = first_min(mins[*next].advance(a_below, x_below, j_end), j);
                    }
                    if j != u32::MAX {
                        offer(&mut best, j as usize, &unanimous);
                    }
                    (a[cell(t, h) + i], x[cell(t, h) + i], parent[cell(t, h) + i]) = best;
                }
            }
        }
    }

    // Strict `<` from +∞: the first bound with the least variance, and
    // none when every bound is infeasible.
    let top = |t: usize| a[cell(t, h_max) + last];
    let t = (0..bounds.len()).fold(None, |best: Option<usize>, t| {
        if top(t) < best.map_or(f64::INFINITY, top) {
            Some(t)
        } else {
            best
        }
    })?;
    let mut cuts = Vec::with_capacity(h_max - 1);
    let mut i = last;
    for h in (2..=h_max).rev() {
        i = parent[cell(t, h) + i] as usize;
        debug_assert_ne!(i, u32::MAX as usize);
        cuts.push(rows.b[i]);
    }
    cuts.reverse();
    Some(Stratification {
        estimated_variance: top(t),
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

/// `(ns_min, ns_max)`: bounds on `fl(N_h·s_h)` over the strata the DP
/// can form. Per class pair, the widest stratum runs from the origin or
/// the first row of the left class to the last row of the right class;
/// the narrowest from the last row (or the origin) of the left class to
/// the first row of the right one, and never below `N⊔` — multiplication
/// by `s ≥ 0` rounds monotonically in the size. `ns_max` bounds every
/// pair from above; `ns_min` bounds the non-unanimous pairs (`s² ≠ 0`,
/// as the DP tells them apart) from below, `+∞` when there are none.
fn ns_range(pilot: &PilotIndex, params: &DesignParams, rows: &Rows) -> (f64, f64) {
    let (mu, nu) = (params.min_pilots_per_stratum, params.min_stratum_size);
    let (mut min, mut max) = (f64::INFINITY, 0.0f64);
    for l_i in mu..=pilot.m() {
        let (first_i, end_i) = (rows.class_start[l_i], rows.class_start[l_i + 1]);
        for l_j in 0..=l_i - mu {
            let (first_j, end_j) = (rows.class_start[l_j], rows.class_start[l_j + 1]);
            // The origin (b = 0) shares pilot prefix 0 with class 0.
            let b_lo = if l_j == 0 { 0 } else { rows.b[first_j] };
            let b_last = if first_j < end_j {
                rows.b[end_j - 1]
            } else {
                0
            };
            let s2 = class_pair_s2(pilot, l_j, l_i);
            let s = std_dev(s2);
            max = max.max((rows.b[end_i - 1] - b_lo) as f64 * s);
            if s2 != 0.0 {
                let narrowest = (rows.b[first_i] - b_last).max(nu);
                min = min.min(narrowest as f64 * s);
            }
        }
    }
    (min, max)
}

/// Drop the finite bounds whose pass cannot be selected: under
/// `t ≥ ns_max` no stratum is rejected, so the pass repeats the
/// unconstrained one cell for cell; under `t < ns_min` only unanimous
/// strata pass, so it is infeasible or ends at `+0.0`, never below the
/// unconstrained pass (module doc, "Cost"). Either way the strict `<`
/// of the best-of loop, which sees the unconstrained pass first, cannot
/// select it.
fn skip_unselectable_passes(t_values: &mut Vec<f64>, (ns_min, ns_max): (f64, f64)) {
    t_values.retain(|&t| t.is_infinite() || (ns_min <= t && t < ns_max));
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
        skip_unselectable_passes(&mut t_values, ns_range(pilot, params, &rows));
    }

    let cost = Neyman {
        budget: params.budget as f64,
    };
    run_dp(pilot, params, &rows, &cost, &t_values).ok_or_else(|| StrataError::Infeasible {
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
    run_dp(pilot, params, &rows, &cost, &[f64::INFINITY]).ok_or_else(|| StrataError::Infeasible {
        message: "DynPgmP found no feasible stratification over candidate boundaries".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force;
    use crate::design::Allocation;
    use crate::objective::evaluate_cuts;
    use proptest::prelude::*;

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
        let (_, cap) = ns_range(&pilot, &p, &rows);
        assert!(cap > 0.0 && cap.is_finite());
        let below = f64::from_bits(cap.to_bits() - 1);

        let mut t_values = vec![f64::INFINITY, below, cap, 2.0 * cap];
        skip_unselectable_passes(&mut t_values, (0.0, cap));
        assert_eq!(t_values, [f64::INFINITY, below]);

        // The skip is exact: a pass under t = ns_max is the
        // unconstrained pass.
        let cost = Neyman {
            budget: p.budget as f64,
        };
        let pass = |t: f64| run_dp(&pilot, &p, &rows, &cost, &[t]);
        assert!(pass(cap).is_some());
        assert_eq!(pass(cap), pass(f64::INFINITY));

        // Every grid survives as its sub-ns_max prefix plus ∞.
        let mut grid = bound_grid(TSelection::Full, &pilot, &p);
        let full = grid.len();
        skip_unselectable_passes(&mut grid, (0.0, cap));
        assert!(grid.len() < full);
        assert!(grid[0].is_infinite() && grid[1..].iter().all(|&t| t < cap));
    }

    /// The least `N_h·s_h` of a stratum the DP can form over a
    /// non-unanimous pair — at least `N⊔` objects and `m⊔` pilots, from
    /// the origin or a row to a row — by brute force over row pairs.
    fn least_mixed_ns(pilot: &PilotIndex, p: &DesignParams, rows: &Rows) -> f64 {
        let mut least = f64::INFINITY;
        for b_j in std::iter::once(0).chain(rows.b.iter().copied()) {
            for &b_i in rows
                .b
                .iter()
                .filter(|&&b_i| b_i >= b_j + p.min_stratum_size)
            {
                let (l_j, l_i) = (pilot.pilots_below(b_j), pilot.pilots_below(b_i));
                if l_i >= l_j + p.min_pilots_per_stratum {
                    let s2 = class_pair_s2(pilot, l_j, l_i);
                    if s2 != 0.0 {
                        least = least.min((b_i - b_j) as f64 * std_dev(s2));
                    }
                }
            }
        }
        least
    }

    #[test]
    fn bounds_below_ns_min_are_skipped_and_only_those() {
        // One step in the labels: four unanimous strata fit, so a pass
        // that admits only those is feasible.
        let (n, m) = (400, 24);
        let entries = (0..m).map(|k| (k * n / m + 3, k >= m / 2)).collect();
        let pilot = PilotIndex::new(n, entries).unwrap();
        let p = params(4);
        let rows = Rows::new(&pilot, p.epsilon);
        let (floor, cap) = ns_range(&pilot, &p, &rows);
        assert!(0.0 < floor && floor < cap, "{floor} {cap}");
        let below = f64::from_bits(floor.to_bits() - 1);
        let least = least_mixed_ns(&pilot, &p, &rows);
        assert!(
            floor <= least,
            "ns_min {floor} above a formable stratum's {least}"
        );

        let mut t_values = vec![f64::INFINITY, 1.0, below, floor, cap];
        skip_unselectable_passes(&mut t_values, (floor, cap));
        assert_eq!(t_values, [f64::INFINITY, floor]);

        // A pass under t < ns_min ends at exactly +0.0, and the
        // unconstrained pass at or below it; at ns_min a non-unanimous
        // stratum is admitted.
        let cost = Neyman {
            budget: p.budget as f64,
        };
        let pass = |t: f64| run_dp(&pilot, &p, &rows, &cost, &[t]);
        let dropped = pass(below).expect("the unanimous chain is feasible");
        assert_eq!(dropped.estimated_variance.to_bits(), 0.0f64.to_bits());
        assert!(pass(f64::INFINITY).unwrap().estimated_variance <= 0.0);
        assert_eq!(
            run_dp(&pilot, &p, &rows, &cost, &[f64::INFINITY, below]),
            pass(f64::INFINITY)
        );

        // All-unanimous labels: no finite bound survives.
        let entries = (0..m).map(|k| (k * n / m, true)).collect();
        let pilot = PilotIndex::new(n, entries).unwrap();
        let rows = Rows::new(&pilot, p.epsilon);
        assert_eq!(ns_range(&pilot, &p, &rows), (f64::INFINITY, 0.0));
        let mut grid = bound_grid(TSelection::Full, &pilot, &p);
        skip_unselectable_passes(&mut grid, ns_range(&pilot, &p, &rows));
        assert_eq!(grid, [f64::INFINITY]);
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

    /// A step at pilot `step` (none past `m`), blurred by flipping each
    /// label with probability `noise`.
    fn pilot_shaped(n: usize, m: usize, step: usize, noise: f64, seed: u64) -> PilotIndex {
        let mut state = seed;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < m {
            positions.insert((unit() * n as f64) as usize);
        }
        let entries = (positions.into_iter().enumerate())
            .map(|(k, p)| (p, (k >= step) != (unit() < noise)))
            .collect();
        PilotIndex::new(n, entries).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Skipping the bounds that cannot be selected is exact: `dynpgm`
        /// returns what one lockstep run over the whole grid returns —
        /// cuts, variance bits, infeasibility — on all-unanimous, sharp
        /// (a step) and noisy pilots, with `N⊔` above the stage-2 budget
        /// (small budgets) and below it (large ones), under `Pruned(k)`
        /// and `Full`. Budgets up to `1.2·N` with noisy pilots make a
        /// bounded pass win in some cases, so a skip that drops a winner
        /// fails here.
        #[test]
        fn dynpgm_pruned_matches_full_grid(
            seed in any::<u64>(),
            n in 100usize..8_000,
            m in 8usize..70,
            shape in 0usize..3,
            noise in 0.0f64..0.5,
            h in 2usize..8,
            min_pilots in 2usize..5,
            size_share in 0.0f64..0.5,
            budget_share in 0.005f64..1.2,
            epsilon in prop_oneof![Just(0.25f64), Just(0.5), Just(1.0), Just(2.0)],
            selection in prop_oneof![
                Just(TSelection::Full),
                (1usize..10).prop_map(TSelection::Pruned),
            ],
        ) {
            let step = match shape {
                0 => m + 1,
                _ => (seed % m as u64) as usize,
            };
            let noise = if shape == 2 { noise } else { 0.0 };
            let pilot = pilot_shaped(n, m.min(n / 2), step, noise, seed);
            let budget = 1 + (budget_share * n as f64) as usize;
            let params = DesignParams {
                n_strata: h,
                budget,
                min_stratum_size: 1 + (size_share * (n / h) as f64) as usize,
                min_pilots_per_stratum: min_pilots,
                epsilon,
            };
            let pruned = dynpgm(&pilot, &params, selection).ok();
            let full = params.check_feasible(&pilot).ok().and_then(|()| {
                let rows = Rows::new(&pilot, params.epsilon);
                let (ns_min, _) = ns_range(&pilot, &params, &rows);
                assert!(ns_min <= least_mixed_ns(&pilot, &params, &rows));
                let cost = Neyman { budget: budget as f64 };
                run_dp(&pilot, &params, &rows, &cost, &bound_grid(selection, &pilot, &params))
            });
            prop_assert_eq!(
                pruned.as_ref().map(|s| (&s.cuts, s.estimated_variance.to_bits())),
                full.as_ref().map(|s| (&s.cuts, s.estimated_variance.to_bits()))
            );
        }
    }
}
