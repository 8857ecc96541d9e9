//! `compare <dirA> <dirB>`: per-metric medians of two sets of run
//! files, judged by the benchmark's own bounds.
//!
//! For every end-to-end metric of every workload present in both
//! sets, B's median may be worse than A's by at most the metric's
//! bound (`BENCHMARK.json`'s, which a unit test keeps equal to the
//! compiled-in table this module reads). Metrics that are pure functions of the
//! seed must repeat exactly: at a seed both sets ran, every run of
//! both sets must report the same value to the last digit.

use crate::metrics::{self, Better};
use crate::runfile::RunFile;
use crate::stats::{iqr_share, median, quartiles_exclusive};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Values of set A, in file order.
    pub a: Vec<f64>,
    /// Values of set B, in file order.
    pub b: Vec<f64>,
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    /// The bound applied (`None`: a diagnostic row, never judged).
    pub bound: Option<f64>,
    /// Judged and over the bound.
    pub over: bool,
}

/// The whole comparison.
#[derive(Debug, Default)]
pub struct Report {
    /// Judged rows, then diagnostic rows, per workload.
    pub rows: Vec<Row>,
    /// Everything that makes the comparison fail.
    pub failures: Vec<String>,
}

fn values_of(runs: &[&RunFile], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).or_else(|| r.diagnostics.get(metric)))
        .copied()
        .collect()
}

/// The untraced runs of one workload.
fn pick<'a>(set: &'a [RunFile], workload: &str) -> Vec<&'a RunFile> {
    set.iter()
        .filter(|r| !r.trace && r.workload == workload)
        .collect()
}

fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// Diagnostics printed beside the judged rows.
const DIAGNOSTIC_ROWS: [&str; 7] = [
    "bench.latency_p50_ms",
    "bench.cpu_ms_per_op",
    "bench.latency_p90_ms",
    "bench.throughput_ops_s",
    "bench.steal_share",
    "bench.host_spin_spread",
    "bench.pass_spread_p50",
];

/// Compare two sets of untraced runs.
pub fn compare(a: &[RunFile], b: &[RunFile]) -> Report {
    let mut report = Report::default();
    for (label, set) in [("A", a), ("B", b)] {
        for run in set.iter().filter(|r| !r.correct) {
            report.failures.push(format!(
                "set {label}: a {} run at seed {} failed its output checks ({} of {} ops)",
                run.workload, run.seed, run.failed, run.attempted
            ));
        }
    }
    let workloads: BTreeSet<&str> = a
        .iter()
        .chain(b)
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    for workload in workloads {
        let (ra, rb) = (pick(a, workload), pick(b, workload));
        if ra.is_empty() || rb.is_empty() {
            report
                .failures
                .push(format!("{workload}: present in only one set"));
            continue;
        }
        for def in metrics::END_TO_END {
            let (va, vb) = (values_of(&ra, def.name), values_of(&rb, def.name));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                report
                    .failures
                    .push(format!("{workload}/{}: missing from a set", def.name));
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = worse_by(ma, mb, def.better);
            let over = worse > bound;
            if over {
                report.failures.push(format!(
                    "{workload}/{}: B is worse by {:.2} % (bound {:.0} %): {ma} -> {mb}",
                    def.name,
                    worse * 100.0,
                    bound * 100.0
                ));
            }
            report.rows.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by: worse,
                bound: Some(bound),
                over,
            });
        }
        for name in DIAGNOSTIC_ROWS {
            let def = metrics::find(name).expect("diagnostic rows are table metrics");
            let (va, vb) = (values_of(&ra, name), values_of(&rb, name));
            if let (Some(ma), Some(mb)) = (median(&va), median(&vb)) {
                report.rows.push(Row {
                    workload: workload.to_string(),
                    metric: def.name,
                    a: va,
                    b: vb,
                    worse_by: worse_by(ma, mb, def.better),
                    bound: None,
                    over: false,
                });
            }
        }
        // Exact metrics: one value per (workload, seed) across both sets.
        for def in metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .filter(|d| d.exact)
        {
            let by_seed = |runs: &[&RunFile]| {
                let mut m: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for r in runs {
                    m.entry(r.seed)
                        .or_default()
                        .extend(values_of(&[r], def.name));
                }
                m
            };
            let (sa, sb) = (by_seed(&ra), by_seed(&rb));
            for (seed, va) in &sa {
                let all: Vec<f64> = va
                    .iter()
                    .chain(sb.get(seed).into_iter().flatten())
                    .copied()
                    .collect();
                if let Some(first) = all.first() {
                    if all.iter().any(|v| v.to_bits() != first.to_bits()) {
                        report.failures.push(format!(
                            "{workload}/{} at seed {seed} must repeat exactly, got {all:?}",
                            def.name
                        ));
                    }
                }
            }
        }
    }
    report
}

/// `median [q1, q3] spread %` of one set — the spread as the
/// agreement check takes it (quartile distance ÷ median).
fn cell(values: &[f64]) -> String {
    match (median(values), quartiles_exclusive(values)) {
        (Some(m), Some((q1, q3))) => format!(
            "{m:.6} [{q1:.6}, {q3:.6}] {:.1} %",
            iqr_share(values).unwrap_or(0.0) * 100.0
        ),
        (Some(m), None) => format!("{m:.6}"),
        _ => "-".to_string(),
    }
}

impl Report {
    /// Render as a Markdown table followed by the failures.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "| workload | metric | n A | median A [q1, q3] spread | n B | median B [q1, q3] spread | B worse by | bound | verdict |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {:+.2} % | {} | {} |",
                r.workload,
                r.metric,
                r.a.len(),
                cell(&r.a),
                r.b.len(),
                cell(&r.b),
                r.worse_by * 100.0,
                r.bound
                    .map_or_else(|| "-".to_string(), |b| format!("{:.0} %", b * 100.0)),
                match (r.bound, r.over) {
                    (None, _) => "diagnostic",
                    (Some(_), false) => "ok",
                    (Some(_), true) => "OVER",
                },
            );
        }
        if self.failures.is_empty() {
            out.push_str("\nverdict: B is within every bound of A; exact metrics repeat.\n");
        } else {
            out.push_str("\nverdict: FAIL\n");
            for f in &self.failures {
                let _ = writeln!(out, "- {f}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, setup: f64, rss: f64, ok: f64) -> RunFile {
        let mut metrics: BTreeMap<String, f64> = metrics::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 1.0))
            .collect();
        metrics.insert("setup_s".into(), setup);
        metrics.insert("peak_rss_mb".into(), rss);
        metrics.insert("ok_share".into(), ok);
        RunFile {
            workload: workload.into(),
            seed,
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            diagnostics: [
                ("bench.steal_share".to_string(), 0.02),
                ("core.evals_per_op".to_string(), 175.0),
            ]
            .into(),
        }
    }

    fn bound_of(name: &str) -> f64 {
        metrics::find(name).unwrap().bound.unwrap()
    }

    #[test]
    fn just_inside_the_bound_passes_just_outside_fails_in_the_worse_direction_only() {
        let (setup, rss) = (bound_of("setup_s"), bound_of("peak_rss_mb"));
        let set = |setup_s: f64, rss_mb: f64| -> Vec<RunFile> {
            (0..5)
                .map(|_| run("cold_mono", 1, setup_s, rss_mb, 1.0))
                .collect()
        };
        let a = set(100.0, 50.0);
        // Nine tenths of the bound on both: inside.
        let b = set(100.0 * (1.0 + 0.9 * setup), 50.0 * (1.0 + 0.9 * rss));
        let r = compare(&a, &b);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let row = r.rows.iter().find(|r| r.metric == "setup_s").unwrap();
        assert!((row.worse_by - 0.9 * setup).abs() < 1e-12 && !row.over);
        // Eleven tenths slower: over, and only that row.
        let r = compare(&a, &set(100.0 * (1.0 + 1.1 * setup), 50.0));
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("cold_mono/setup_s"));
        assert!(r.render().contains("OVER"));
        // Much faster is not a failure.
        let r = compare(&a, &set(50.0, 20.0));
        assert!(r.failures.is_empty());
        assert!(r.render().contains("within every bound"));
        // "Worse" follows the metric's direction.
        assert!((worse_by(100.0, 111.0, Better::Lower) - 0.11).abs() < 1e-12);
        assert!((worse_by(100.0, 89.0, Better::Higher) - 0.11).abs() < 1e-12);
        assert!(worse_by(100.0, 120.0, Better::Higher) < 0.0);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    }

    #[test]
    fn the_median_decides_not_one_outlier() {
        let a: Vec<RunFile> = (0..5).map(|_| run("tcp_hot", 1, 1.0, 9.0, 1.0)).collect();
        let mut b = a.clone();
        b[2].metrics.insert("setup_s".into(), 5.0);
        assert!(compare(&a, &b).failures.is_empty());
    }

    #[test]
    fn exact_metrics_must_match_to_the_last_digit_at_a_shared_seed() {
        let a = vec![
            run("warm_restored", 1, 1.0, 1.0, 1.0),
            run("warm_restored", 2, 1.0, 1.0, 1.0),
        ];
        let mut b = a.clone();
        assert!(compare(&a, &b).failures.is_empty());
        // A per-layer exact metric drifting in the last digit.
        b[0].diagnostics
            .insert("core.evals_per_op".into(), 175.000_000_000_000_03);
        let r = compare(&a, &b);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("core.evals_per_op at seed 1"));
        // Different seeds may differ.
        let mut b = a.clone();
        b[1].seed = 3;
        b[1].diagnostics.insert("core.evals_per_op".into(), 180.0);
        assert!(compare(&a, &b).failures.is_empty());
        // ok_share is exact too (and bounded).
        let mut b = a.clone();
        b[0].metrics.insert("ok_share".into(), 0.999);
        assert!(!compare(&a, &b).failures.is_empty());
    }

    #[test]
    fn incorrect_runs_and_missing_workloads_fail() {
        let a = vec![
            run("cold_mono", 1, 1.0, 1.0, 1.0),
            run("tcp_hot", 1, 1.0, 1.0, 1.0),
        ];
        let mut b = vec![run("cold_mono", 1, 1.0, 1.0, 1.0)];
        b[0].correct = false;
        b[0].failed = 3;
        let r = compare(&a, &b);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("failed its output checks")));
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("tcp_hot: present in only one set")));
    }
}
