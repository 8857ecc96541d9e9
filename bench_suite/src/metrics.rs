//! The metric tables: every name the suite reports, with its unit,
//! better direction and — for end-to-end metrics — the bound by which
//! the median may worsen before it is a regression. `BENCHMARK.json`
//! carries the same tables; a unit test keeps the two identical.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// End-to-end only: allowed worsening as a share of the baseline
    /// median (also the agreement bound between two sets of runs).
    pub bound: Option<f64>,
    /// The value is a pure function of `--seed`: two runs at one seed
    /// must report it identically, to the last digit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(def: MetricDef) -> MetricDef {
    MetricDef { exact: true, ..def }
}

use Better::{Higher, Lower};

/// End-to-end metrics (`--trace 0`): what a user of the service sees.
/// Every workload reports every one, and none is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    exact(e2e("ok_share", "share", Higher, 0.01)),
];

/// Per-layer metrics (`--trace 1`), layer = crate. Timers sit in the
/// benchmark around the named public call; a metric of a layer the
/// workload never enters reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // table
    layer("table.parse_us", "us", Lower),
    layer("table.decompose_us", "us", Lower),
    layer("table.oracle_eval_us", "us", Lower),
    exact(layer("table.oracle_batch_n", "evals", Higher)),
    layer("table.prefilter_scan_rows_per_s", "1/s", Higher),
    layer("table.paged_scan_rows_per_s", "1/s", Higher),
    exact(layer("table.paged_pages_read_share", "share", Lower)),
    layer("table.buffer_hit_share", "share", Higher),
    // learn
    layer("learn.fit_us", "us", Lower),
    layer("learn.score_rows_per_s", "1/s", Higher),
    // core
    layer("core.prepare_us", "us", Lower),
    layer("core.train_us", "us", Lower),
    layer("core.score_order_us", "us", Lower),
    layer("core.pilot_us", "us", Lower),
    layer("core.pilot_index_us", "us", Lower),
    layer("core.stage2_us", "us", Lower),
    layer("core.prepare_known_us", "us", Lower),
    layer("core.select_prefilter_us", "us", Lower),
    layer("core.restrict_us", "us", Lower),
    exact(layer("core.evals_per_op", "evals", Lower)),
    // strata
    layer("strata.design_us", "us", Lower),
    layer("strata.design_share", "share", Lower),
    exact(layer("strata.pilots_n", "count", Lower)),
    exact(layer("strata.strata_n", "count", Higher)),
    // sampling
    layer("sampling.draw_us", "us", Lower),
    layer("sampling.estimate_us", "us", Lower),
    // stats
    layer("stats.interval_us", "us", Lower),
    exact(layer("stats.ci_halfwidth_rel_p50", "share", Lower)),
    exact(layer("stats.est_err_rel_p90", "share", Lower)),
    exact(layer("stats.ci_cover_share", "share", Higher)),
    // serve
    layer("serve.fingerprint_us", "us", Lower),
    layer("serve.plan_us", "us", Lower),
    layer("serve.run_cold_us", "us", Lower),
    layer("serve.run_warm_us", "us", Lower),
    layer("serve.run_cached_us", "us", Lower),
    layer("serve.render_us", "us", Lower),
    layer("serve.handle_line_us", "us", Lower),
    layer("serve.net_rtt_us", "us", Lower),
    layer("serve.net_echo_rtt_us", "us", Lower),
    layer("serve.net_hop_us", "us", Lower),
    exact(layer("serve.cache_hit_share", "share", Higher)),
    exact(layer("serve.store_hit_share", "share", Higher)),
    layer("serve.snapshot_save_us", "us", Lower),
    layer("serve.snapshot_load_us", "us", Lower),
    exact(layer("serve.snapshot_bytes", "bytes", Lower)),
    exact(layer("serve.restore_evals_n", "evals", Lower)),
    // rayon (vendor shim)
    layer("rayon.par_call_us", "us", Lower),
    layer("rayon.threads_n", "count", Higher),
    // obs
    layer("obs.overhead_share", "share", Lower),
    // data
    layer("data.generate_us", "us", Lower),
    // bench: diagnostics that explain a noisy verdict, never gate
    layer("bench.closure_share", "share", Higher),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.pass_spread_p50", "share", Lower),
    layer("bench.steal_share", "share", Lower),
    layer("bench.host_spin_spread", "share", Lower),
    // The op timings of the median pass. They are what a user of the
    // service sees, but not end-to-end metrics of this benchmark: on
    // the sizing host their run-to-run spread exceeds the largest
    // bound the contract allows (AGREEMENT.md).
    layer("bench.latency_p50_ms", "ms", Lower),
    layer("bench.latency_p90_ms", "ms", Lower),
    layer("bench.throughput_ops_s", "1/s", Higher),
    layer("bench.cpu_ms_per_op", "ms", Lower),
    layer("bench.latency_p99_ms", "ms", Lower),
    layer("bench.reset_s", "s", Lower),
    layer("bench.truth_s", "s", Lower),
    exact(layer("bench.samples_n", "count", Higher)),
];

/// Look a metric up in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        // Set-up time carries the largest bound.
        let setup = find("setup_s").unwrap().bound.unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= setup));
    }

    /// `BENCHMARK.json` as these tables spell it.
    fn manifest() -> String {
        let quote = |v: &str| Json::Str(v.to_string()).render();
        let mut out = String::from("{\n");
        out.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"bench_suite/Cargo.toml\", \"--\", \"run\"],\n",
        );
        out.push_str("  \"paths\": [\"bench_suite\"],\n");
        out.push_str(&format!(
            "  \"run_seconds\": {},\n",
            crate::workloads::RUN_SECONDS
        ));
        let section = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
            out.push_str(&format!(
                "  \"{key}\": [\n    {}\n  ]",
                rows.join(",\n    ")
            ));
            out.push_str(if last { "\n" } else { ",\n" });
        };
        let workloads = Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    quote(w.name()),
                    quote(w.why())
                )
            })
            .collect();
        section(&mut out, "workloads", workloads, false);
        let metric = |m: &MetricDef| {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        };
        section(
            &mut out,
            "end_to_end",
            END_TO_END.iter().map(metric).collect(),
            false,
        );
        section(
            &mut out,
            "per_layer",
            PER_LAYER.iter().map(metric).collect(),
            true,
        );
        out.push_str("}\n");
        out
    }

    /// `BENCHMARK.json` is data for the driver; these tables are what
    /// the binary prints and `compare` judges by. They must say the
    /// same thing. After editing a table, run the tests once with
    /// `BENCH_SUITE_BLESS=1` to rewrite the file.
    #[test]
    fn benchmark_json_is_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let want = manifest();
        if std::env::var_os("BENCH_SUITE_BLESS").is_some() {
            std::fs::write(path, &want).unwrap();
        }
        assert_eq!(std::fs::read_to_string(path).unwrap(), want);
        // What the contract asks of the file, whatever the tables say.
        let doc = Json::parse(&want).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(want.len() <= 64 * 1024);
        assert!((1..=60).contains(&crate::workloads::RUN_SECONDS));
        for key in ["workloads", "end_to_end", "per_layer"] {
            assert!(!doc.get(key).and_then(Json::as_arr).unwrap().is_empty());
        }
    }
}
