//! Durable warm state: snapshot the service's reusable assets to disk
//! and decode them at startup, so a restarted `lts-served` is warm from
//! its first request.
//!
//! # What is persisted
//!
//! **Recipes for rows, data for states, weights nowhere:**
//!
//! * **dataset lines** — the generator recipe ([`DatasetSpec`]) and the
//!   table version of every re-generatable dataset. Restore re-runs the
//!   generator (same rows/seed ⇒ same bytes) and sets the version to
//!   the recorded lineage in one step.
//! * **store lines** — the warm states' portable export (see
//!   [`crate::store`]): per warm state, the ordering, the labelled
//!   pilot, the cuts and the training labels a resume reads. Restore
//!   resolves each entry's problem and **decodes** — no fit, no scoring
//!   pass, no sort, no design run, zero oracle evaluations — and checks
//!   what it decoded against the problem (`LssWarm::from_parts`).
//! * **cache lines** — finished estimates with every `f64` spelled as
//!   its IEEE-754 bit pattern in hex, so a restored cached response is
//!   byte-identical to the one served before the restart.
//!
//! # Durability contract
//!
//! * **Atomic save**: the snapshot is written to `state.lts.tmp` and
//!   renamed over `state.lts`; a crash mid-save leaves the previous
//!   snapshot (or nothing) — never a half file under the final name.
//! * **Verified load**: the file ends in a `checksum` trailer (FNV-1a
//!   over everything before it — a torn-write detector, not a MAC). A
//!   torn tail, flipped byte, or version-mismatched header (a
//!   `lts-state/v1`, `v2` or `v3` file of an earlier build included)
//!   yields a structured [`StateError`], and so does a well-sealed file
//!   whose numbers do not describe a state of the problem they name; the
//!   caller ([`crate::net`]'s dispatcher) logs it and starts cold —
//!   never a panic, never silently wrong counts.
//! * **Missing file is not an error**: first boot returns `Ok(None)`.

use crate::error::ServeError;
use crate::service::{Answer, DatasetSpec, ResultKey, Service};
use crate::store::{dec_text, enc_text};
use lts_core::fnv1a;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Snapshot file name inside the `--state-dir` directory.
pub const STATE_FILE: &str = "state.lts";
const HEADER: &str = "lts-state/v4";

/// Errors loading or saving a state snapshot.
#[derive(Debug)]
pub enum StateError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// OS error description.
        message: String,
    },
    /// The snapshot header names a format this build does not speak.
    BadVersion {
        /// The header actually found.
        found: String,
    },
    /// The checksum trailer does not match the snapshot body (torn or
    /// corrupted write).
    ChecksumMismatch,
    /// The snapshot is structurally malformed.
    Corrupt {
        /// Description of the first malformed element.
        message: String,
    },
    /// The snapshot parsed but the service refused what it describes.
    Restore {
        /// The underlying service error.
        message: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io { path, message } => write!(f, "state i/o error at {path}: {message}"),
            StateError::BadVersion { found } => {
                write!(
                    f,
                    "state snapshot version mismatch: found `{found}`, expected `{HEADER}`"
                )
            }
            StateError::ChecksumMismatch => {
                write!(
                    f,
                    "state snapshot checksum mismatch (torn or corrupted write)"
                )
            }
            StateError::Corrupt { message } => write!(f, "corrupt state snapshot: {message}"),
            StateError::Restore { message } => write!(f, "state restore failed: {message}"),
        }
    }
}

impl std::error::Error for StateError {}

/// What a successful restore brought back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Datasets re-generated.
    pub datasets: usize,
    /// Warm model states decoded (zero oracle evaluations).
    pub models: usize,
    /// Cached answers re-inserted: those for a registered dataset at
    /// its restored version (any other line is dropped).
    pub cached: usize,
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> StateError + '_ {
    move |e| StateError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

fn corrupt(message: impl Into<String>) -> StateError {
    StateError::Corrupt {
        message: message.into(),
    }
}

/// Map a route string back to the `&'static str` set the cache uses.
fn route_static(s: &str) -> Option<&'static str> {
    match s {
        "exact" => Some("exact"),
        "lss" => Some("lss"),
        "srs" => Some("srs"),
        _ => None,
    }
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Render the snapshot body (header through the last data line; the
/// checksum trailer is appended by [`save`]).
pub fn render_snapshot(service: &Service) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for (name, spec, version) in service.dataset_specs() {
        let _ = writeln!(
            out,
            "dataset\t{}\t{}\t{}\t{}\t{}\t{version}",
            enc_text(&name),
            enc_text(&spec.kind),
            spec.rows,
            enc_text(&spec.level),
            spec.seed,
        );
    }
    for line in service.export_store().lines() {
        out.push_str("store\t");
        out.push_str(line);
        out.push('\n');
    }
    for (key, table_version, a) in service.cache_entries() {
        let _ = writeln!(
            out,
            "cache\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            enc_text(&key.dataset),
            enc_text(&key.canonical),
            key.budget,
            table_version,
            f64_hex(a.estimate),
            f64_hex(a.std_error),
            f64_hex(a.lo),
            f64_hex(a.hi),
            f64_hex(a.level),
            a.evals,
            a.model_version,
            a.route,
        );
    }
    out
}

/// Write the snapshot atomically: temp file first, then rename over
/// [`STATE_FILE`]. Returns the final snapshot path.
///
/// # Errors
///
/// Returns [`StateError::Io`] on filesystem failure; the previous
/// snapshot (if any) is left intact in that case.
pub fn save(service: &Service, dir: &Path) -> Result<PathBuf, StateError> {
    let body = render_snapshot(service);
    let text = format!("{body}checksum\t{:016x}\n", fnv1a(body.as_bytes()));
    fs::create_dir_all(dir).map_err(io_err(dir))?;
    let tmp = dir.join(format!("{STATE_FILE}.tmp"));
    let path = dir.join(STATE_FILE);
    fs::write(&tmp, text).map_err(io_err(&tmp))?;
    fs::rename(&tmp, &path).map_err(io_err(&path))?;
    Ok(path)
}

struct DatasetLine {
    name: String,
    spec: DatasetSpec,
    version: u64,
}

struct Parsed {
    datasets: Vec<DatasetLine>,
    store_text: String,
    /// `(key, answer, table version)`, as [`Service::restore_cached`]
    /// takes them.
    caches: Vec<(ResultKey, Answer, u64)>,
}

/// Verify the checksum trailer and parse the snapshot body, touching
/// nothing in the service yet — a corrupt file is rejected before any
/// state mutates.
fn parse_snapshot(text: &str) -> Result<Parsed, StateError> {
    let stripped = text
        .strip_suffix('\n')
        .ok_or_else(|| corrupt("torn snapshot: missing final newline"))?;
    let split = stripped
        .rfind('\n')
        .ok_or_else(|| corrupt("torn snapshot: missing checksum trailer"))?;
    let (body, trailer) = stripped.split_at(split + 1);
    let sum_hex = trailer
        .strip_prefix("checksum\t")
        .ok_or_else(|| corrupt("torn snapshot: last line is not a checksum trailer"))?;
    let expected = u64::from_str_radix(sum_hex, 16)
        .map_err(|_| corrupt("torn snapshot: malformed checksum trailer"))?;
    if fnv1a(body.as_bytes()) != expected {
        return Err(StateError::ChecksumMismatch);
    }

    let mut lines = body.lines();
    match lines.next() {
        Some(HEADER) => {}
        other => {
            return Err(StateError::BadVersion {
                found: other.unwrap_or("<empty>").to_string(),
            })
        }
    }
    let mut parsed = Parsed {
        datasets: Vec::new(),
        store_text: String::new(),
        caches: Vec::new(),
    };
    for (no, line) in lines.enumerate() {
        let bad = |what: &str| corrupt(format!("line {}: {what}", no + 2));
        let (tag, rest) = line
            .split_once('\t')
            .ok_or_else(|| bad("expected a tab-separated tagged line"))?;
        match tag {
            "dataset" => {
                let f: Vec<&str> = rest.split('\t').collect();
                if f.len() != 6 {
                    return Err(bad("dataset line needs 6 fields"));
                }
                parsed.datasets.push(DatasetLine {
                    name: dec_text(f[0]).ok_or_else(|| bad("bad dataset name encoding"))?,
                    spec: DatasetSpec {
                        kind: dec_text(f[1]).ok_or_else(|| bad("bad kind encoding"))?,
                        rows: f[2].parse().map_err(|_| bad("bad rows"))?,
                        level: dec_text(f[3]).ok_or_else(|| bad("bad level encoding"))?,
                        seed: f[4].parse().map_err(|_| bad("bad seed"))?,
                    },
                    // `u64::MAX` has no successor for the next invalidation.
                    version: (f[5].parse().ok().filter(|&v| v != u64::MAX))
                        .ok_or_else(|| bad("bad version"))?,
                });
            }
            "store" => {
                parsed.store_text.push_str(rest);
                parsed.store_text.push('\n');
            }
            "cache" => {
                let f: Vec<&str> = rest.split('\t').collect();
                if f.len() != 12 {
                    return Err(bad("cache line needs 12 fields"));
                }
                let fx = |s: &str, what: &'static str| f64_from_hex(s).ok_or_else(|| bad(what));
                let key = ResultKey {
                    dataset: dec_text(f[0]).ok_or_else(|| bad("bad dataset encoding"))?,
                    canonical: dec_text(f[1]).ok_or_else(|| bad("bad canonical encoding"))?,
                    budget: f[2].parse().map_err(|_| bad("bad budget"))?,
                };
                let table_version = f[3].parse().map_err(|_| bad("bad table version"))?;
                let answer = Answer {
                    estimate: fx(f[4], "bad count bits")?,
                    std_error: fx(f[5], "bad std_error bits")?,
                    lo: fx(f[6], "bad lo bits")?,
                    hi: fx(f[7], "bad hi bits")?,
                    level: fx(f[8], "bad level bits")?,
                    evals: f[9].parse().map_err(|_| bad("bad evals"))?,
                    model_version: f[10].parse().map_err(|_| bad("bad model version"))?,
                    route: route_static(f[11]).ok_or_else(|| bad("unknown route"))?,
                };
                parsed.caches.push((key, answer, table_version));
            }
            other => return Err(bad(&format!("unknown line tag `{other}`"))),
        }
    }
    Ok(parsed)
}

/// Load the snapshot under `dir` into `service`: re-generate datasets
/// (restoring their version lineage), decode the warm states (zero
/// oracle evaluations, nothing re-trained), and re-insert cached
/// answers bit-exactly — each only for a registered dataset at its
/// restored version, as the store import does. `Ok(None)` when no
/// snapshot exists (first boot).
///
/// On `Err` the service may hold partial restored state; the caller
/// should discard it and start from a fresh `Service` (the dispatcher
/// does exactly that).
///
/// # Errors
///
/// [`StateError::Io`] on read failure, [`StateError::BadVersion`] /
/// [`StateError::ChecksumMismatch`] / [`StateError::Corrupt`] for a
/// version-mismatched, torn, or malformed snapshot, and
/// [`StateError::Restore`] when the service refuses what was decoded.
pub fn load(service: &mut Service, dir: &Path) -> Result<Option<RestoreSummary>, StateError> {
    let path = dir.join(STATE_FILE);
    let bytes = match fs::read(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        r => r.map_err(io_err(&path))?,
    };
    let text = String::from_utf8(bytes).map_err(|_| corrupt("snapshot is not valid UTF-8"))?;
    let parsed = parse_snapshot(&text)?;

    let restore_err = |e: ServeError| StateError::Restore {
        message: e.to_string(),
    };
    // Datasets first: registering resets derived state, and the version
    // must match the recorded lineage before store/cache lines (which
    // carry table versions) are replayed.
    for d in &parsed.datasets {
        service
            .register_generated(&d.name, &d.spec)
            .map_err(restore_err)?;
        service
            .advance_version(&d.name, d.version)
            .map_err(restore_err)?;
    }
    let models = if parsed.store_text.is_empty() {
        0
    } else {
        service
            .import_store(&parsed.store_text)
            .map_err(restore_err)?
    };
    let mut cached = 0;
    for (key, answer, table_version) in parsed.caches {
        cached += usize::from(service.restore_cached(key, answer, table_version));
    }
    Ok(Some(RestoreSummary {
        datasets: parsed.datasets.len(),
        models,
        cached,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_bits_roundtrip_exactly() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            let back = f64_from_hex(&f64_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan = f64_from_hex(&f64_hex(f64::NAN)).unwrap();
        assert!(nan.is_nan());
        assert!(f64_from_hex("xyz").is_none());
    }

    #[test]
    fn empty_service_snapshot_parses() {
        let svc = Service::new(crate::service::ServiceConfig::default());
        let body = render_snapshot(&svc);
        assert!(body.starts_with("lts-state/v4\n"));
        let text = format!("{body}checksum\t{:016x}\n", fnv1a(body.as_bytes()));
        let parsed = parse_snapshot(&text).unwrap();
        assert!(parsed.datasets.is_empty());
        assert!(parsed.caches.is_empty());
    }

    #[test]
    fn structural_corruption_is_structured() {
        // No trailing newline.
        assert!(matches!(
            parse_snapshot("lts-state/v4"),
            Err(StateError::Corrupt { .. })
        ));
        // Missing checksum trailer.
        assert!(matches!(
            parse_snapshot("lts-state/v4\ndataset\tx\n"),
            Err(StateError::Corrupt { .. })
        ));
        // Version-mismatched header (checksum valid for the body).
        let body = "lts-state/v9\n";
        let text = format!("{body}checksum\t{:016x}\n", fnv1a(body.as_bytes()));
        assert!(matches!(
            parse_snapshot(&text),
            Err(StateError::BadVersion { found }) if found == "lts-state/v9"
        ));
        // Flipped byte under a stale checksum.
        let body = "lts-state/v4\n";
        let mut text = format!("{body}checksum\t{:016x}\n", fnv1a(body.as_bytes()));
        text = text.replacen("v4", "v5", 1);
        assert!(matches!(
            parse_snapshot(&text),
            Err(StateError::ChecksumMismatch)
        ));
    }

    #[test]
    fn unknown_route_is_rejected() {
        // `lws`: no served route since the service prepares LSS only.
        for route in ["bogus", "lws"] {
            let body = format!(
                "lts-state/v4\ncache\td\tq\t10\t0\t{z}\t{z}\t{z}\t{z}\t{z}\t5\t0\t{route}\n",
                z = f64_hex(0.0)
            );
            let text = format!("{body}checksum\t{:016x}\n", fnv1a(body.as_bytes()));
            assert!(matches!(
                parse_snapshot(&text),
                Err(StateError::Corrupt { message }) if message.contains("unknown route")
            ));
        }
    }
}
