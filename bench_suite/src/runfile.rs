//! Run files: one JSON document per run, written under `--out` and
//! read back by `compare`.

use crate::host::HostInfo;
use crate::json::{obj, Json};
use crate::metrics;
use crate::workloads::{RunConfig, RunOutput};
use std::collections::BTreeMap;
use std::path::Path;

/// One run, as stored.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced run.
    pub trace: bool,
    /// Every output check held.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed a check.
    pub failed: u64,
    /// Reported metrics (end-to-end or per-layer, by `trace`).
    pub metrics: BTreeMap<String, f64>,
    /// Untraced runs: free per-layer diagnostics.
    pub diagnostics: BTreeMap<String, f64>,
}

/// `{"name": {"value": v, "unit": u}, …}` for every table metric
/// `get` knows, in table order.
pub fn metrics_json(get: impl Fn(&str) -> Option<f64>) -> Json {
    Json::Obj(
        metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .filter_map(|m| {
                get(m.name).map(|value| {
                    (
                        m.name.to_string(),
                        obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &RunOutput) -> Json {
    obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(|n| out.metrics.get(n).copied())),
    ])
}

impl RunFile {
    /// Assemble from a finished run.
    pub fn from_run(cfg: &RunConfig, out: &RunOutput) -> RunFile {
        let own =
            |m: &BTreeMap<&'static str, f64>| m.iter().map(|(&k, &v)| (k.to_string(), v)).collect();
        RunFile {
            workload: cfg.workload.name().to_string(),
            seed: cfg.seed,
            trace: cfg.trace,
            correct: out.correct,
            attempted: out.attempted,
            failed: out.failed,
            metrics: own(&out.metrics),
            diagnostics: own(&out.diagnostics),
        }
    }

    /// Render with host metadata.
    pub fn to_json(&self, host: &HostInfo) -> Json {
        let values = |m: &BTreeMap<String, f64>| metrics_json(|n| m.get(n).copied());
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(self.trace)))),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", values(&self.metrics)),
            ("diagnostics", values(&self.diagnostics)),
            (
                "host",
                obj([
                    ("nproc", Json::Num(host.nproc as f64)),
                    ("cpu_model", Json::Str(host.cpu_model.clone())),
                    ("kernel", Json::Str(host.kernel.clone())),
                    ("rustc", Json::Str(host.rustc.clone())),
                    ("rayon_threads", Json::Num(host.rayon_threads as f64)),
                ]),
            ),
        ])
    }

    /// Read one run back.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped member.
    pub fn from_json(doc: &Json) -> Result<RunFile, String> {
        let need = |k: &str| doc.get(k).ok_or_else(|| format!("run file lacks `{k}`"));
        let num = |k: &str| {
            need(k)?
                .as_f64()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let values = |k: &str| -> Result<BTreeMap<String, f64>, String> {
            need(k)?
                .as_obj()
                .ok_or_else(|| format!("`{k}` is not an object"))?
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Json::as_f64)
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("`{k}.{name}` has no numeric value"))
                })
                .collect()
        };
        Ok(RunFile {
            workload: need("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: num("seed")? as u64,
            trace: num("trace")? != 0.0,
            correct: need("correct")?
                .as_bool()
                .ok_or("`correct` is not a boolean")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics: values("metrics")?,
            diagnostics: values("diagnostics")?,
        })
    }
}

/// Every `*.json` run file directly inside `dir`, in name order.
///
/// # Errors
///
/// Returns a message for an unreadable directory or a file that is
/// not a run file.
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json") && p.is_file())
        .collect();
    paths.sort();
    paths
        .iter()
        .filter(|p| p.file_name().is_some_and(|n| n != "host.json"))
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            RunFile::from_json(&doc).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_file_round_trips_through_json() {
        let run = RunFile {
            workload: "tcp_hot".into(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 120_000,
            failed: 0,
            metrics: [
                ("setup_s".to_string(), 0.123_456_789_012_5),
                ("ok_share".to_string(), 1.0),
            ]
            .into(),
            diagnostics: [("bench.steal_share".to_string(), 0.031)].into(),
        };
        let host = HostInfo {
            nproc: 2,
            cpu_model: "model \"x\"".into(),
            kernel: "6.1".into(),
            rustc: "rustc 1.95.0".into(),
            rayon_threads: 2,
        };
        let text = run.to_json(&host).render();
        let back = RunFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, run);
        // Units come from the tables; values keep every digit.
        assert!(text.contains("\"setup_s\": {\"value\": 0.1234567890125, \"unit\": \"s\"}"));
        assert!(text.contains("\"nproc\": 2"));
        assert!(RunFile::from_json(&Json::parse("{\"workload\": \"x\"}").unwrap()).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_in_table_order() {
        let out = RunOutput {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: [
                ("ok_share", 1.0),
                ("setup_s", 0.8127),
                ("peak_rss_mb", 23.5),
            ]
            .into(),
            diagnostics: [("bench.steal_share", 0.5)].into(),
            spans: Vec::new(),
            problems: Vec::new(),
            pass_lines: Vec::new(),
            pass_matrix: String::new(),
        };
        assert_eq!(
            result_line(&out).render(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 23.5, \"unit\": \"MB\"}, \
             \"ok_share\": {\"value\": 1, \"unit\": \"share\"}}}"
        );
    }
}
