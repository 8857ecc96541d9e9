//! The pilot-sample index: positions within the score-ordered population
//! plus the prefix-sum index `Γ` of §4.2.1.

use crate::error::{StrataError, StrataResult};

/// A first-stage (pilot) sample over a score-ordered population.
///
/// Holds the sorted 0-based positions of the `m` pilot objects within the
/// ordered population of `N` objects, their labels, and the prefix-sum
/// index `Γ(k)` = number of positives among the first `k` pilots.
#[derive(Debug, Clone, PartialEq)]
pub struct PilotIndex {
    n_objects: usize,
    positions: Vec<usize>,
    labels: Vec<bool>,
    gamma: Vec<usize>,
}

impl PilotIndex {
    /// Build from `(position, label)` pairs (any order; positions must be
    /// distinct and `< n_objects`).
    ///
    /// # Errors
    ///
    /// Returns an error for empty input, out-of-range or duplicate
    /// positions.
    pub fn new(n_objects: usize, mut entries: Vec<(usize, bool)>) -> StrataResult<Self> {
        if entries.is_empty() {
            return Err(StrataError::InvalidPilot {
                message: "pilot sample is empty".into(),
            });
        }
        entries.sort_by_key(|&(p, _)| p);
        let mut positions = Vec::with_capacity(entries.len());
        let mut labels = Vec::with_capacity(entries.len());
        let mut gamma = Vec::with_capacity(entries.len() + 1);
        gamma.push(0usize);
        for (i, &(p, l)) in entries.iter().enumerate() {
            if p >= n_objects {
                return Err(StrataError::InvalidPilot {
                    message: format!("position {p} out of range (N = {n_objects})"),
                });
            }
            if i > 0 && entries[i - 1].0 == p {
                return Err(StrataError::InvalidPilot {
                    message: format!("duplicate pilot position {p}"),
                });
            }
            positions.push(p);
            labels.push(l);
            gamma.push(gamma[i] + usize::from(l));
        }
        Ok(Self {
            n_objects,
            positions,
            labels,
            gamma,
        })
    }

    /// Population size `N`.
    pub fn n_objects(&self) -> usize {
        self.n_objects
    }

    /// Pilot count `m`.
    pub fn m(&self) -> usize {
        self.positions.len()
    }

    /// 0-based position of the `k`-th pilot (`k < m`).
    pub fn position(&self, k: usize) -> usize {
        self.positions[k]
    }

    /// Sorted pilot positions.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Label of the `k`-th pilot.
    pub fn label(&self, k: usize) -> bool {
        self.labels[k]
    }

    /// `Γ(k)`: positives among the first `k` pilots (`k <= m`).
    pub fn gamma(&self, k: usize) -> usize {
        self.gamma[k]
    }

    /// Number of pilots with position `< cut` (i.e. inside the first
    /// `cut` objects). `O(log m)`.
    pub fn pilots_below(&self, cut: usize) -> usize {
        self.positions.partition_point(|&p| p < cut)
    }

    /// Positives among pilots `k_lo..k_hi` (pilot-index range).
    pub fn positives_in(&self, k_lo: usize, k_hi: usize) -> usize {
        self.gamma[k_hi] - self.gamma[k_lo]
    }

    /// Unbiased within-stratum variance estimate from pilots
    /// `k_lo..k_hi`: `s² = (pos/(cnt−1)) (1 − pos/cnt)` — the paper's
    /// estimator (equivalently the Bernoulli sample variance).
    ///
    /// Returns `None` when fewer than 2 pilots are in range.
    pub fn s2_for_pilot_range(&self, k_lo: usize, k_hi: usize) -> Option<f64> {
        let cnt = k_hi.checked_sub(k_lo)?;
        if cnt < 2 {
            return None;
        }
        let pos = self.positives_in(k_lo, k_hi) as f64;
        let c = cnt as f64;
        Some((pos / (c - 1.0)) * (1.0 - pos / c))
    }

    /// `(pilot_count, s²)` for the object-range stratum `[cut_lo, cut_hi)`.
    ///
    /// `s²` is `None` when fewer than 2 pilots fall in the range.
    pub fn s2_for_cut_range(&self, cut_lo: usize, cut_hi: usize) -> (usize, Option<f64>) {
        let k_lo = self.pilots_below(cut_lo);
        let k_hi = self.pilots_below(cut_hi);
        (k_hi - k_lo, self.s2_for_pilot_range(k_lo, k_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_and_positions() {
        let p =
            PilotIndex::new(100, vec![(10, true), (5, false), (50, true), (80, false)]).unwrap();
        assert_eq!(p.m(), 4);
        assert_eq!(p.positions(), &[5, 10, 50, 80]);
        assert_eq!(p.gamma(0), 0);
        assert_eq!(p.gamma(2), 1); // positions 5 (false), 10 (true)
        assert_eq!(p.gamma(4), 2);
        assert!(!p.label(0));
        assert!(p.label(1));
        assert_eq!(p.pilots_below(0), 0);
        assert_eq!(p.pilots_below(6), 1);
        assert_eq!(p.pilots_below(100), 4);
        assert_eq!(p.positives_in(1, 3), 2);
    }

    #[test]
    fn s2_matches_bernoulli_sample_variance() {
        // Pilots: labels T,F,T,T → s² over all 4 = sample variance of
        // {1,0,1,1} = 0.25 (unbiased: Σ(x-x̄)²/(n-1) = (3·(0.25)²+(0.75)²)/3 = 0.25).
        let p = PilotIndex::new(10, vec![(0, true), (1, false), (2, true), (3, true)]).unwrap();
        let s2 = p.s2_for_pilot_range(0, 4).unwrap();
        assert!((s2 - 0.25).abs() < 1e-12);
        // Homogeneous range → 0.
        let s2 = p.s2_for_pilot_range(2, 4).unwrap();
        assert!(s2.abs() < 1e-12);
        // Too few pilots → None.
        assert!(p.s2_for_pilot_range(1, 2).is_none());
    }

    #[test]
    fn s2_for_cut_range_uses_positions() {
        let p =
            PilotIndex::new(100, vec![(10, true), (20, false), (30, true), (90, false)]).unwrap();
        let (cnt, s2) = p.s2_for_cut_range(0, 35);
        assert_eq!(cnt, 3);
        let expect = (2.0f64 / 2.0) * (1.0 - 2.0 / 3.0);
        assert!((s2.unwrap() - expect).abs() < 1e-12);
        let (cnt, s2) = p.s2_for_cut_range(35, 100);
        assert_eq!(cnt, 1);
        assert!(s2.is_none());
    }

    #[test]
    fn validation() {
        assert!(PilotIndex::new(10, vec![]).is_err());
        assert!(PilotIndex::new(10, vec![(10, true)]).is_err()); // out of range
        assert!(PilotIndex::new(10, vec![(3, true), (3, false)]).is_err()); // dup
    }
}
