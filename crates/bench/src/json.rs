//! Machine-readable benchmark artifacts.
//!
//! `repro_fig2` drops `BENCH_fig2.json` into the output directory: one
//! record per estimator/cell with the median, IQR, mean unique evals,
//! and mean wall time, so the estimator trajectory can be diffed
//! without re-parsing stdout tables. The full schema (fields, units,
//! execution-mode caveats) is documented in `docs/benchmarks.md` at
//! the repository root.
//!
//! The JSON is hand-formatted through `lts_obs::json_{escape,num}`: the
//! schema here is flat enough that formatting beats a dependency.

use crate::harness::Cell;
use lts_obs::{json_escape as esc, json_num as num};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One benchmark measurement: an estimator on a cell.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Estimator (row) label.
    pub label: String,
    /// Cell (column) label; empty when not cell-structured.
    pub cell: String,
    /// Median point estimate (or the metric being tracked).
    pub median: f64,
    /// Interquartile range of the per-trial values.
    pub iqr: f64,
    /// Mean unique `q` evaluations per trial (NaN when not applicable).
    pub mean_evals: f64,
    /// Mean wall time per trial, in seconds. Measured under the
    /// execution mode named by the document's `trial_execution` field:
    /// parallel-mode times include core contention, so compare
    /// trajectories only between runs with matching mode, trial count,
    /// and host. The estimate statistics (`median`, `iqr`,
    /// `mean_evals`) are deterministic and mode-independent.
    pub wall_seconds: f64,
}

impl BenchRecord {
    /// Extract the benchmark-relevant numbers from a harness cell.
    pub fn from_cell(cell: &Cell) -> Self {
        BenchRecord {
            label: cell.label.clone(),
            cell: cell.column.clone(),
            median: cell.stats.median(),
            iqr: cell.stats.iqr(),
            mean_evals: cell.stats.mean_evals,
            wall_seconds: cell.stats.mean_timings.total.as_secs_f64(),
        }
    }
}

/// Render records as a `BENCH_<name>.json` document. `trial_execution`
/// names the mode wall times were measured under (`"parallel"` /
/// `"sequential"`), so trajectory diffs compare like with like.
pub fn render_bench_json(name: &str, trial_execution: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{}\",", esc(name));
    let _ = writeln!(out, "  \"schema_version\": 1,");
    let _ = writeln!(out, "  \"trial_execution\": \"{}\",", esc(trial_execution));
    let _ = writeln!(out, "  \"records\": [");
    for (k, r) in records.iter().enumerate() {
        let comma = if k + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"label\": \"{}\", \"cell\": \"{}\", \"median\": {}, \"iqr\": {}, \
             \"mean_evals\": {}, \"wall_seconds\": {}}}{comma}",
            esc(&r.label),
            esc(&r.cell),
            num(r.median),
            num(r.iqr),
            num(r.mean_evals),
            num(r.wall_seconds),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// Write `BENCH_<name>.json` into `dir` (creating it), returning the
/// path.
///
/// # Errors
///
/// Returns IO errors.
pub fn write_bench_json(
    dir: &str,
    name: &str,
    trial_execution: &str,
    records: &[BenchRecord],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("BENCH_{name}.json"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{}", render_bench_json(name, trial_execution, records))?;
    f.flush()?;
    Ok(path)
}

/// Write cells as `BENCH_<name>.json` and log the outcome, never
/// failing the experiment (benchmark artifacts are best-effort by
/// design). Harness cells are measured by `run_trials`, whose default
/// is parallel execution.
pub fn emit_cells_json(dir: &str, name: &str, cells: &[Cell]) {
    let records: Vec<BenchRecord> = cells.iter().map(BenchRecord::from_cell).collect();
    match write_bench_json(dir, name, "parallel", &records) {
        Ok(path) => println!("   perf artifact: {}", path.display()),
        Err(e) => eprintln!("   [warn] could not write BENCH_{name}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, median: f64) -> BenchRecord {
        BenchRecord {
            label: label.into(),
            cell: "Sports/XS @1%".into(),
            median,
            iqr: 1.5,
            mean_evals: 60.0,
            wall_seconds: 0.25,
        }
    }

    #[test]
    fn renders_valid_flat_json() {
        let doc = render_bench_json(
            "fig2",
            "parallel",
            &[record("SRS", 10.0), record("LSS", 9.5)],
        );
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"bench\": \"fig2\""));
        assert!(doc.contains("\"trial_execution\": \"parallel\""));
        assert!(doc.contains("\"label\": \"SRS\""));
        assert!(doc.contains("\"wall_seconds\": 0.25"));
        // Exactly one separating comma between the two records.
        assert_eq!(doc.matches("}},").count() + doc.matches("},\n").count(), 1);
    }

    #[test]
    fn escapes_and_nonfinite() {
        let mut r = record("quo\"te", f64::NAN);
        r.cell = "a\\b".into();
        let doc = render_bench_json("x", "sequential", &[r]);
        assert!(doc.contains("quo\\\"te"));
        assert!(doc.contains("a\\\\b"));
        assert!(doc.contains("\"median\": null"));
    }

    #[test]
    fn writes_file() {
        let dir = std::env::temp_dir().join("lts_bench_json_test");
        let dir = dir.to_str().unwrap();
        let path = write_bench_json(dir, "fig2", "parallel", &[record("SRS", 1.0)]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap() == "BENCH_fig2.json");
        assert!(content.contains("\"schema_version\": 1"));
    }
}
