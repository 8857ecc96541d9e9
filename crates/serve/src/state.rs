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
//! * **store lines** — the warm states as plain data: per state a
//!   `store entry` line naming its query (dataset, budget, table
//!   version, tag `lss` or `lss+pf` — prepared over prefilter survivors
//!   — raw condition) and, right after it, a `store state` line: an
//!   [`LssParts`]. Restore resolves each entry's problem and **decodes**
//!   — no fit, no scoring pass, no sort, no design run, zero oracle
//!   evaluations — and checks the state against the problem
//!   (`LssWarm::from_parts`).
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
use lts_core::{fnv1a, fnv1a_extend, LssParts, LssWarm};
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Snapshot file name inside the `--state-dir` directory.
pub const STATE_FILE: &str = "state.lts";
const HEADER: &str = "lts-state/v4";
/// A fixed line before the warm states that load skips: the header of
/// the format they were once embedded in, kept so v4 bytes do not move.
const WARM_HEADER: &str = "lts-store/v2";

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

/// Percent-encode the characters that would break the line format.
fn enc_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            c => out.push(c),
        }
    }
    out
}

fn dec_text(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let (a, b) = (chars.next()?, chars.next()?);
        let byte = u8::from_str_radix(&format!("{a}{b}"), 16).ok()?;
        out.push(char::from(byte));
    }
    Some(out)
}

/// `\t3,1,4` — an id list of a `state` line, appended with its tab.
fn push_ids(out: &mut String, ids: impl IntoIterator<Item = impl std::fmt::Display>) {
    out.push('\t');
    for (i, id) in ids.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{id}");
    }
}

fn dec_ids<T: std::str::FromStr>(s: &str) -> Option<Vec<T>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|id| id.parse().ok()).collect()
}

/// `\t0110` — a label list of a `state` line, appended with its tab.
fn push_labels(out: &mut String, labels: &[bool]) {
    out.push('\t');
    out.extend(labels.iter().map(|&l| if l { '1' } else { '0' }));
}

fn dec_labels(s: &str) -> Option<Vec<bool>> {
    s.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

/// One warm state as the snapshot writes it down: a `store entry` line
/// and the `store state` line after it. `S` is the state: borrowed from
/// its query entry when saved, its plain data ([`LssParts`]) when
/// parsed.
pub(crate) struct WarmLine<S> {
    /// Dataset name.
    pub(crate) dataset: String,
    /// Raw condition text (parser input).
    pub(crate) condition: String,
    /// Budget the state was prepared under.
    pub(crate) budget: usize,
    /// Table version the state was prepared against.
    pub(crate) table_version: u64,
    /// Prepared over prefilter survivors (tag `lss+pf`, else `lss`):
    /// restore re-decomposes the condition to rebuild that population.
    pub(crate) prefiltered: bool,
    /// The state.
    pub(crate) state: S,
}

/// A warm state's `store entry` line.
fn entry_line<S>(w: &WarmLine<S>) -> String {
    format!(
        "store\tentry\t{}\t{}\t{}\t{}\t{}\n",
        enc_text(&w.dataset),
        w.budget,
        w.table_version,
        if w.prefiltered { "lss+pf" } else { "lss" },
        enc_text(&w.condition),
    )
}

/// A warm state's `store state` line, appended to `block`, rendered
/// from the state itself: nothing of it is copied first.
fn render_state(w: &WarmLine<&LssWarm>, block: &mut String) {
    let s = w.state;
    let _ = write!(
        block,
        "store\tstate\t{:016x}\t{}\t{}\t{:016x}",
        s.profile(),
        s.proxy.model_seed,
        s.prepare_evals,
        s.estimated_variance().to_bits(),
    );
    push_ids(block, &s.proxy.labeled);
    push_labels(block, &s.proxy.labels);
    push_ids(block, s.order());
    push_ids(block, s.pilot_positions());
    push_labels(block, s.pilot_labels());
    push_ids(block, s.cuts());
    for note in &s.design_notes {
        block.push('\t');
        block.push_str(&enc_text(note));
    }
    block.push('\n');
}

/// Write the snapshot body (header through the last data line; the
/// checksum trailer follows it in [`save`]). Warm states are sorted by
/// their entry lines, which are unique and so order the two-line blocks
/// as the blocks themselves would sort, for stable diffs; each block is
/// rendered into one reused buffer and written out before the next.
fn write_snapshot(service: &Service, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{HEADER}")?;
    for (name, spec, version) in service.dataset_specs() {
        writeln!(
            out,
            "dataset\t{}\t{}\t{}\t{}\t{}\t{version}",
            enc_text(&name),
            enc_text(&spec.kind),
            spec.rows,
            enc_text(&spec.level),
            spec.seed,
        )?;
    }
    writeln!(out, "store\t{WARM_HEADER}")?;
    let mut warm: Vec<_> = (service.warm_lines().into_iter())
        .map(|w| (entry_line(&w), w))
        .collect();
    warm.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    let mut block = String::new();
    for (entry, w) in &warm {
        block.clear();
        block.push_str(entry);
        render_state(w, &mut block);
        out.write_all(block.as_bytes())?;
    }
    for (key, table_version, a) in service.cache_entries() {
        writeln!(
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
        )?;
    }
    Ok(())
}

/// A writer that folds FNV-1a over every byte it passes on.
struct Digesting<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> Write for Digesting<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash = fnv1a_extend(self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Write the snapshot atomically: temp file first, then rename over
/// [`STATE_FILE`]. The body streams to the file through a digest, and
/// the checksum trailer follows it. Returns the final snapshot path.
///
/// # Errors
///
/// Returns [`StateError::Io`] on filesystem failure; the previous
/// snapshot (if any) is left intact in that case.
pub fn save(service: &Service, dir: &Path) -> Result<PathBuf, StateError> {
    fs::create_dir_all(dir).map_err(io_err(dir))?;
    let tmp = dir.join(format!("{STATE_FILE}.tmp"));
    let path = dir.join(STATE_FILE);
    let write = || -> io::Result<()> {
        let file = BufWriter::new(fs::File::create(&tmp)?);
        let mut out = Digesting {
            inner: file,
            hash: fnv1a(&[]),
        };
        write_snapshot(service, &mut out)?;
        let Digesting { mut inner, hash } = out;
        writeln!(inner, "checksum\t{hash:016x}")?;
        inner.into_inner().map_err(io::IntoInnerError::into_error)?;
        Ok(())
    };
    write().map_err(io_err(&tmp))?;
    fs::rename(&tmp, &path).map_err(io_err(&path))?;
    Ok(path)
}

struct Parsed {
    /// `(name, recipe, table version)`.
    datasets: Vec<(String, DatasetSpec, u64)>,
    warm: Vec<WarmLine<LssParts>>,
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
        warm: Vec::new(),
        caches: Vec::new(),
    };
    let mut lines = lines.enumerate();
    while let Some((no, line)) = lines.next() {
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
                parsed.datasets.push((
                    dec_text(f[0]).ok_or_else(|| bad("bad dataset name encoding"))?,
                    DatasetSpec {
                        kind: dec_text(f[1]).ok_or_else(|| bad("bad kind encoding"))?,
                        rows: f[2].parse().map_err(|_| bad("bad rows"))?,
                        level: dec_text(f[3]).ok_or_else(|| bad("bad level encoding"))?,
                        seed: f[4].parse().map_err(|_| bad("bad seed"))?,
                    },
                    // `u64::MAX` has no successor for the next invalidation.
                    (f[5].parse().ok().filter(|&v| v != u64::MAX))
                        .ok_or_else(|| bad("bad version"))?,
                ));
            }
            "store" if rest == WARM_HEADER => {}
            "store" if rest.starts_with("entry\t") => {
                // A warm state is an entry line and the state line after it.
                let e: Vec<&str> = rest.split('\t').collect();
                let state = lines
                    .next()
                    .and_then(|(_, l)| l.strip_prefix("store\tstate\t"));
                let state = state.ok_or_else(|| bad("store entry with no state line after it"))?;
                let f: Vec<&str> = state.split('\t').collect();
                if e.len() != 6 || f.len() < 10 {
                    return Err(bad("a store entry needs 6 fields and its state ≥ 11"));
                }
                let bad_state = |what: &str| corrupt(format!("line {}: {what}", no + 3));
                let hex =
                    |s: &str, what: &str| u64::from_str_radix(s, 16).map_err(|_| bad_state(what));
                let ids = |s: &str, what: &str| dec_ids(s).ok_or_else(|| bad_state(what));
                let labels = |s: &str, what: &str| dec_labels(s).ok_or_else(|| bad_state(what));
                parsed.warm.push(WarmLine {
                    dataset: dec_text(e[1]).ok_or_else(|| bad("bad dataset encoding"))?,
                    budget: e[2].parse().map_err(|_| bad("bad budget"))?,
                    table_version: e[3].parse().map_err(|_| bad("bad version"))?,
                    prefiltered: match e[4] {
                        "lss" => false,
                        "lss+pf" => true,
                        tag => return Err(bad(&format!("unknown estimator tag `{tag}`"))),
                    },
                    condition: dec_text(e[5]).ok_or_else(|| bad("bad condition encoding"))?,
                    state: LssParts {
                        profile: hex(f[0], "bad profile digest")?,
                        model_seed: f[1].parse().map_err(|_| bad_state("bad model seed"))?,
                        prepare_evals: f[2].parse().map_err(|_| bad_state("bad prepare evals"))?,
                        estimated_variance: f64::from_bits(hex(f[3], "bad variance bits")?),
                        labeled: ids(f[4], "bad training ids")?,
                        labels: labels(f[5], "bad training labels")?,
                        // Straight to `u32`: a restore never holds a
                        // wider copy of every ordering.
                        order: dec_ids(f[6]).ok_or_else(|| bad_state("bad ordering"))?,
                        pilot_positions: ids(f[7], "bad pilot positions")?,
                        pilot_labels: labels(f[8], "bad pilot labels")?,
                        cuts: ids(f[9], "bad cuts")?,
                        design_notes: (f[10..].iter())
                            .map(|n| dec_text(n).ok_or_else(|| bad_state("bad note encoding")))
                            .collect::<Result<_, _>>()?,
                    },
                });
            }
            "store" if rest.starts_with("state\t") => {
                return Err(bad("store state with no entry line right before it"))
            }
            "store" => return Err(bad("unknown store line")),
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
/// restored version. `Ok(None)` when no
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
    for (name, spec, version) in &parsed.datasets {
        service
            .register_generated(name, spec)
            .map_err(restore_err)?;
        service
            .advance_version(name, *version)
            .map_err(restore_err)?;
    }
    let mut models = 0;
    for warm in parsed.warm {
        models += usize::from(service.restore_warm(warm).map_err(restore_err)?);
    }
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

    /// The warm states of a sealed `lts-state/v4` file holding `lines`.
    fn warm(lines: &str) -> Result<Vec<WarmLine<LssParts>>, StateError> {
        let body = format!("{HEADER}\nstore\t{WARM_HEADER}\n{lines}");
        let text = format!("{body}checksum\t{:016x}\n", fnv1a(body.as_bytes()));
        parse_snapshot(&text).map(|parsed| parsed.warm)
    }

    /// Assert `warm(lines)` is [`StateError::Corrupt`] and says `says`.
    fn refusal(lines: &str, says: &str) {
        match warm(lines) {
            Err(StateError::Corrupt { message }) => assert!(message.contains(says), "{message}"),
            other => panic!("{lines:?}: {:?}", other.map(|w| w.len())),
        }
    }

    /// The snapshot body as [`save`] writes it, in memory.
    fn render_snapshot(service: &Service) -> String {
        let mut body = Vec::new();
        write_snapshot(service, &mut body).unwrap();
        String::from_utf8(body).unwrap()
    }

    #[test]
    fn text_encoding_roundtrips() {
        for s in ["plain", "with\ttab", "pct % and\nnewline", ""] {
            assert_eq!(dec_text(&enc_text(s)).as_deref(), Some(s));
        }
        assert!(dec_text("%zz").is_none());
    }

    #[test]
    fn warm_lines_parse_every_field() {
        let lines = warm(
            "store\tentry\tds\t200\t0\tlss+pf\t(x%20%3c%201)\n\
             store\tstate\t00000000000000ff\t7\t12\t7ff8000000000000\t3,9\t10\t9,3,4\t0,2\t01\t1\tsome%09note\n\
             store\tentry\tds\t100\t2\tlss\tx\n\
             store\tstate\t00000000000000ff\t8\t0\t0000000000000000\t\t\t\t\t\t\n",
        );
        let [w, empty] = <[WarmLine<LssParts>; 2]>::try_from(lines.unwrap())
            .ok()
            .unwrap();
        assert_eq!(
            (w.dataset.as_str(), w.budget, w.table_version),
            ("ds", 200, 0)
        );
        // %20/%3c decode as space and '<'.
        assert_eq!((w.condition.as_str(), w.prefiltered), ("(x < 1)", true));
        let p = &w.state;
        assert_eq!((p.profile, p.model_seed, p.prepare_evals), (0xff, 7, 12));
        assert!(p.estimated_variance.is_nan());
        assert_eq!((&p.labeled, &p.labels), (&vec![3, 9], &vec![true, false]));
        assert_eq!((&p.order, &p.cuts), (&vec![9, 3, 4], &vec![1]));
        assert_eq!(p.pilot_positions, vec![0, 2]);
        assert_eq!(p.pilot_labels, vec![false, true]);
        assert_eq!(p.design_notes, vec!["some\tnote".to_string()]);
        assert_eq!(
            (empty.budget, empty.table_version, empty.prefiltered),
            (100, 2, false)
        );
        assert!(empty.state.labeled.is_empty() && empty.state.order.is_empty());
        assert!(empty.state.cuts.is_empty() && empty.state.design_notes.is_empty());
    }

    const ENTRY: &str = "store\tentry\td\t1\t3\tlss\tc\n";
    const STATE: &str = "store\tstate\t0\t1\t2\t0\t3\t1\t4,5\t0\t1\t1\n";

    /// Assert `ENTRY` re-tagged `tag` is refused as an unknown tag.
    fn tag_refusal(tag: &str) {
        let retagged = ENTRY.replace("\tlss\t", &format!("\t{tag}\t"));
        refusal(
            &format!("{retagged}{STATE}"),
            &format!("unknown estimator tag `{tag}`"),
        );
    }

    #[test]
    fn malformed_warm_lines_are_corrupt() {
        assert_eq!(warm(&format!("{ENTRY}{STATE}")).unwrap().len(), 1);
        assert!(warm("").unwrap().is_empty());
        // The fixed line carries nothing; the previous format's header
        // is not it.
        let again = format!("{ENTRY}{STATE}store\t{WARM_HEADER}\n");
        assert_eq!(warm(&again).unwrap().len(), 1);
        refusal("store\tlts-store/v1\n", "unknown store line");
        refusal(
            &format!("store\tentry\tonly-two\n{STATE}"),
            "needs 6 fields",
        );
        // One state line right after each entry: none before the first,
        // none missing, no second.
        refusal(STATE, "no entry line right before it");
        refusal(
            &format!("{ENTRY}{STATE}{STATE}"),
            "no entry line right before it",
        );
        refusal(ENTRY, "no state line after it");
        refusal(&format!("{ENTRY}{ENTRY}{STATE}"), "no state line after it");
        for (good, broken, says) in [
            ("4,5", "4,x", "bad ordering"),
            ("\t1\t4", "\t2\t4", "bad training labels"),
            ("state\t0", "state\tg", "bad profile digest"),
        ] {
            refusal(&format!("{ENTRY}{}", STATE.replacen(good, broken, 1)), says);
        }
    }

    #[test]
    fn estimator_tags_parse_exactly_lss_and_lss_pf() {
        for (tag, prefiltered) in [("lss", false), ("lss+pf", true)] {
            let retagged = ENTRY.replace("\tlss\t", &format!("\t{tag}\t"));
            let [w] =
                <[WarmLine<LssParts>; 1]>::try_from(warm(&format!("{retagged}{STATE}")).unwrap())
                    .ok()
                    .unwrap();
            assert_eq!(w.prefiltered, prefiltered, "`{tag}`");
            // Rendering writes the tag it read.
            assert_eq!(entry_line(&w), retagged, "`{tag}`");
        }
        for tag in ["lss@4+pf", "lss@", "lss4", "LSS", ""] {
            tag_refusal(tag);
        }
    }

    #[test]
    fn malformed_tags_refuse_the_whole_snapshot() {
        // `lws` tags parse nowhere: the service prepares LSS only. Nor
        // does a shard count (`lss@k`): this build reads no sharded state.
        for tag in [
            "lss@4", "lss@0", "lss@x", "nope@4", "lss+pf@4", "lws", "lws@4",
        ] {
            tag_refusal(tag);
        }
        // A real service's snapshot with its warm state re-tagged
        // `lss@4` is refused whole; the snapshot as rendered parses.
        let xs: Vec<f64> = (0..2_000).map(f64::from).collect();
        let table = lts_table::table_of_floats(&[("x", &xs)]).unwrap();
        let mut svc = Service::new(crate::service::ServiceConfig::default());
        svc.register_dataset("d", std::sync::Arc::new(table), &["x"])
            .unwrap();
        let cold = svc.run(crate::Request {
            id: 1,
            dataset: "d".into(),
            condition: "x < 800".into(),
            target: crate::Target::Budget(300),
            fresh: false,
        });
        assert_eq!((cold.served, cold.route), ("cold", "lss"));
        let seal = |body: &str| format!("{body}checksum\t{:016x}\n", fnv1a(body.as_bytes()));
        let body = render_snapshot(&svc);
        let retagged = body.replacen("\tlss\t", "\tlss@4\t", 1);
        assert_ne!(retagged, body);
        match parse_snapshot(&seal(&retagged)) {
            Err(StateError::Corrupt { message }) => {
                assert!(
                    message.contains("unknown estimator tag `lss@4`"),
                    "{message}"
                );
            }
            other => panic!("{:?}", other.map(|p| p.warm.len())),
        }
        assert_eq!(parse_snapshot(&seal(&body)).unwrap().warm.len(), 1);
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
