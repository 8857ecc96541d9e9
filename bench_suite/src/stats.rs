//! The suite's statistics: order statistics with a sample-count
//! guard, and the median-of-passes summary every timing metric uses.
//!
//! A run is `P` timed passes over one fixed op list. Each timing
//! metric is computed **per pass** and the run reports the **median
//! pass**: a host hiccup moves one pass, not the reported number.
//! Minimum-of-N and "quiet round" selection are deliberately absent —
//! they chase rare fast windows and repeat worse (README, "Why
//! medians of passes").

/// A percentile needs at least this many samples beyond it to mean
/// anything for a single pass; below that the per-pass value is the
/// maximum and says so through [`percentile`]'s `None`.
pub const MIN_BEYOND: usize = 2;

/// Sort a sample ascending (total order; NaN sorts last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Linear-interpolated percentile (`p` in `[0, 1]`) of an ascending
/// sample — the same rule as `lts_stats::quantile_type7`. Returns
/// `None` for an empty sample, a `p` outside `[0, 1]`, or a tail with
/// fewer than [`MIN_BEYOND`] samples at or beyond the percentile (the
/// guard: a p90 of 12 samples is the maximum, not a percentile).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    // Expected samples beyond the percentile; the epsilon absorbs
    // `(1 − 0.9)·20 = 1.9999999999999996`.
    let beyond = (1.0 - p) * sorted.len() as f64 + 1e-9;
    if p > 0.5 && beyond < MIN_BEYOND as f64 {
        return None;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of a sample (any order). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// First and third quartile of a sample, by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method:
/// positions `(n + 1)·k/4`, clamped to the sample) — the rule the
/// agreement check of the benchmark contract is stated in.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Spread of a sample as the agreement check takes it: distance
/// between the quartiles as a share of the median. `None` for fewer
/// than two samples or a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// `max ÷ min − 1` of a positive sample (0 when it is empty).
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(0.0, f64::max);
    if lo.is_finite() && lo > 0.0 {
        hi / lo - 1.0
    } else {
        0.0
    }
}

/// One timed pass over the op list.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-op latency, milliseconds, in op order.
    pub latency_ms: Vec<f64>,
    /// Wall time of the whole pass, seconds.
    pub wall_s: f64,
    /// Process user+system CPU spent during the pass, seconds.
    pub cpu_s: f64,
}

impl Pass {
    /// Ops in the pass.
    pub fn ops(&self) -> usize {
        self.latency_ms.len()
    }
}

/// The timing summary of a run: each field is the median over passes
/// of the per-pass statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassSummary {
    /// Median over passes of the per-pass median op latency.
    pub latency_p50_ms: f64,
    /// Median over passes of the per-pass p90 op latency.
    pub latency_p90_ms: f64,
    /// Median over passes of ops ÷ pass wall.
    pub throughput_ops_s: f64,
    /// Median over passes of CPU ÷ ops, milliseconds.
    pub cpu_ms_per_op: f64,
    /// `max ÷ min − 1` of the per-pass p50 — how far apart the passes
    /// of this one run were (diagnostic).
    pub pass_spread_p50: f64,
}

/// Median-of-passes summary. `None` when there is no pass, a pass is
/// empty, or a pass is too short for a guarded p90.
pub fn summarize_passes(passes: &[Pass]) -> Option<PassSummary> {
    let mut p50 = Vec::with_capacity(passes.len());
    let mut p90 = Vec::with_capacity(passes.len());
    let mut tput = Vec::with_capacity(passes.len());
    let mut cpu = Vec::with_capacity(passes.len());
    for pass in passes {
        let lat = sorted(pass.latency_ms.clone());
        p50.push(percentile(&lat, 0.5)?);
        p90.push(percentile(&lat, 0.9)?);
        tput.push(pass.ops() as f64 / pass.wall_s);
        cpu.push(pass.cpu_s * 1e3 / pass.ops() as f64);
    }
    Some(PassSummary {
        latency_p50_ms: median(&p50)?,
        latency_p90_ms: median(&p90)?,
        throughput_ops_s: median(&tput)?,
        cpu_ms_per_op: median(&cpu)?,
        pass_spread_p50: spread(&p50),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_guards_the_tail() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.5));
        assert!((percentile(&s, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        // 12 samples leave one sample beyond p90: refused.
        let short: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.9), None);
        assert_eq!(percentile(&short, 0.5), Some(6.5));
        // 20 samples leave two: accepted.
        let ok: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(percentile(&ok, 0.9).is_some());
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&s, 1.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles_exclusive(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[1.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn summary_is_the_median_pass_not_the_pool() {
        let pass = |base: f64| Pass {
            latency_ms: (0..40).map(|i| base + f64::from(i) * 0.01).collect(),
            wall_s: base * 40.0 / 1e3,
            cpu_s: base * 80.0 / 1e3,
        };
        // One pass hit a host hiccup (10× slower): the median pass
        // does not move, where a pooled p90 would.
        let passes = vec![pass(1.0), pass(1.1), pass(10.0), pass(0.9), pass(1.05)];
        let s = summarize_passes(&passes).unwrap();
        assert!((s.latency_p50_ms - (1.05 + 0.195)).abs() < 1e-9);
        assert!(s.latency_p90_ms < 1.5);
        assert!((s.cpu_ms_per_op - 2.1).abs() < 1e-9);
        assert!((s.pass_spread_p50 - ((10.0 + 0.195) / (0.9 + 0.195) - 1.0)).abs() < 1e-9);
        assert!(summarize_passes(&[]).is_none());
        // A pass too short for a guarded p90 refuses the summary.
        let short = Pass {
            latency_ms: vec![1.0; 5],
            wall_s: 1.0,
            cpu_s: 1.0,
        };
        assert!(summarize_passes(&[short]).is_none());
    }
}
