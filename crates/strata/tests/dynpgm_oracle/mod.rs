//! Test oracle: the original triple-loop DynPgm / DynPgmP, kept verbatim
//! (every `(j, i)` pair tested for the size and pilot minima, `s²` and
//! `√s²` recomputed per pair, one full pass per bound of the grid). The
//! production code in `lts_strata::dynpgm` must return the same cuts and
//! the same `estimated_variance` bits for every input.

use lts_strata::{DesignParams, PilotIndex, StrataError, StrataResult, Stratification, TSelection};

/// The global candidate boundary set `B`: for every pilot position
/// `ı_k`, offsets `±⌈(1+ε)^t⌉` (capped by the neighbouring pilots), the
/// pilot-adjacent cuts themselves, and the terminal cut `N`.
fn candidate_boundaries(pilot: &PilotIndex, epsilon: f64) -> Vec<usize> {
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
    /// `l[i]` = number of pilots with position `< b[i]`.
    l: Vec<usize>,
}

impl Rows {
    fn new(pilot: &PilotIndex, epsilon: f64) -> Self {
        let b = candidate_boundaries(pilot, epsilon);
        let l = b.iter().map(|&c| pilot.pilots_below(c)).collect();
        Self { b, l }
    }

    /// `(N_{j,i}, pilots, s²)` for the stratum `(b_j, b_i]`; `j = None`
    /// denotes the virtual origin `b = 0`.
    fn stratum(
        &self,
        pilot: &PilotIndex,
        j: Option<usize>,
        i: usize,
    ) -> (usize, usize, Option<f64>) {
        let (b_j, l_j) = match j {
            Some(j) => (self.b[j], self.l[j]),
            None => (0, 0),
        };
        let size = self.b[i] - b_j;
        let pilots = self.l[i] - l_j;
        let s2 = pilot.s2_for_pilot_range(l_j, self.l[i]);
        (size, pilots, s2)
    }
}

/// DynPgm as first written: every bound of the grid gets a full pass.
pub fn dynpgm(
    pilot: &PilotIndex,
    params: &DesignParams,
    t_selection: TSelection,
) -> StrataResult<Stratification> {
    params.check_feasible(pilot)?;
    let rows = Rows::new(pilot, params.epsilon);
    let m = pilot.m() as f64;
    let h = params.n_strata as f64;
    let nn = pilot.n_objects() as f64;

    let t_values: Vec<f64> = match t_selection {
        TSelection::Unconstrained => vec![f64::INFINITY],
        TSelection::Pruned(k) => {
            let mut v = vec![f64::INFINITY];
            let max_exp = (m * h * nn).log2().ceil().max(1.0);
            let k = k.max(1);
            for i in 0..k {
                let exp = max_exp * (i as f64 + 1.0) / (k as f64 + 1.0);
                v.push(exp.exp2());
            }
            v
        }
        TSelection::Full => {
            let mut v = vec![f64::INFINITY];
            let max_exp = (m * h * nn).log2().ceil() as i32;
            for i in 0..=max_exp {
                v.push(f64::from(i).exp2());
            }
            v
        }
    };

    let mut best: Option<Stratification> = None;
    for &t in &t_values {
        if let Some(s) = dynpgm_single(pilot, params, &rows, t) {
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

/// One DP pass under the auxiliary-sum bound `N_h·s_h ≤ t`.
fn dynpgm_single(
    pilot: &PilotIndex,
    params: &DesignParams,
    rows: &Rows,
    t: f64,
) -> Option<Stratification> {
    let nb = rows.b.len();
    let h_max = params.n_strata;
    let n_budget = params.budget as f64;
    let nu = params.min_stratum_size;
    let mu = params.min_pilots_per_stratum;

    // a[h][i]: best exact partial objective for h strata over [0, b_i).
    // x[h][i]: auxiliary sum Σ N s of that solution.
    // parent[h][i]: predecessor row (usize::MAX = origin).
    let mut a = vec![vec![f64::INFINITY; nb]; h_max + 1];
    let mut x = vec![vec![0.0f64; nb]; h_max + 1];
    let mut parent = vec![vec![usize::MAX; nb]; h_max + 1];

    // Base case: one stratum covering (0, b_i].
    for i in 0..nb {
        let (size, pilots, s2) = rows.stratum(pilot, None, i);
        if size < nu || pilots < mu {
            continue;
        }
        let Some(s2) = s2 else { continue };
        let s = s2.max(0.0).sqrt();
        let ns = size as f64 * s;
        if ns > t {
            continue;
        }
        a[1][i] = size as f64 * size as f64 * s2 / n_budget - size as f64 * s2;
        x[1][i] = ns;
    }

    for h in 2..=h_max {
        for i in 0..nb {
            // The stratum (b_j, b_i] must satisfy the size/pilot minima;
            // j must itself be reachable with h−1 strata.
            for j in 0..i {
                if a[h - 1][j].is_infinite() {
                    continue;
                }
                let (size, pilots, s2) = rows.stratum(pilot, Some(j), i);
                if size < nu || pilots < mu {
                    continue;
                }
                let Some(s2) = s2 else { continue };
                let s = s2.max(0.0).sqrt();
                let ns = size as f64 * s;
                if ns > t {
                    continue;
                }
                let size_f = size as f64;
                let cand = a[h - 1][j] + size_f * size_f * s2 / n_budget - size_f * s2
                    + 2.0 / n_budget * ns * x[h - 1][j];
                if cand < a[h][i] {
                    a[h][i] = cand;
                    x[h][i] = x[h - 1][j] + ns;
                    parent[h][i] = j;
                }
            }
        }
    }

    let last = nb - 1; // b = N
    if a[h_max][last].is_infinite() {
        return None;
    }
    // Reconstruct cuts.
    let mut cuts = Vec::with_capacity(h_max - 1);
    let mut i = last;
    for h in (2..=h_max).rev() {
        let j = parent[h][i];
        debug_assert_ne!(j, usize::MAX);
        cuts.push(rows.b[j]);
        i = j;
    }
    cuts.reverse();
    Some(Stratification {
        estimated_variance: a[h_max][last],
        cuts,
    })
}

/// DynPgmP as first written.
pub fn dynpgmp(pilot: &PilotIndex, params: &DesignParams) -> StrataResult<Stratification> {
    params.check_feasible(pilot)?;
    let rows = Rows::new(pilot, params.epsilon);
    let nb = rows.b.len();
    let h_max = params.n_strata;
    let nn = pilot.n_objects() as f64;
    let n_budget = params.budget as f64;
    let factor = (nn - n_budget) / n_budget;
    let nu = params.min_stratum_size;
    let mu = params.min_pilots_per_stratum;

    let mut a = vec![vec![f64::INFINITY; nb]; h_max + 1];
    let mut parent = vec![vec![usize::MAX; nb]; h_max + 1];

    for (i, cell) in a[1].iter_mut().enumerate() {
        let (size, pilots, s2) = rows.stratum(pilot, None, i);
        if size < nu || pilots < mu {
            continue;
        }
        let Some(s2) = s2 else { continue };
        *cell = factor * size as f64 * s2;
    }
    for h in 2..=h_max {
        for i in 0..nb {
            for j in 0..i {
                if a[h - 1][j].is_infinite() {
                    continue;
                }
                let (size, pilots, s2) = rows.stratum(pilot, Some(j), i);
                if size < nu || pilots < mu {
                    continue;
                }
                let Some(s2) = s2 else { continue };
                let cand = a[h - 1][j] + factor * size as f64 * s2;
                if cand < a[h][i] {
                    a[h][i] = cand;
                    parent[h][i] = j;
                }
            }
        }
    }

    let last = nb - 1;
    if a[h_max][last].is_infinite() {
        return Err(StrataError::Infeasible {
            message: "DynPgmP found no feasible stratification over candidate boundaries".into(),
        });
    }
    let mut cuts = Vec::with_capacity(h_max - 1);
    let mut i = last;
    for h in (2..=h_max).rev() {
        let j = parent[h][i];
        cuts.push(rows.b[j]);
        i = j;
    }
    cuts.reverse();
    Ok(Stratification {
        estimated_variance: a[h_max][last],
        cuts,
    })
}
