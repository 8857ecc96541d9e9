//! The `lts-store/v2` codec: warm estimator states written down as
//! plain data.
//!
//! A **cold** request pays for the reusable assets — proxy training,
//! population scoring/ordering, pilot labeling, stratification design
//! (`lts_core::warm`). A query's entry (`crate::catalog`) keeps what a
//! resume reads of them — the ordering, the labelled pilot, the cuts,
//! the training labels; never the classifier — and every later request
//! for the same canonical query **warm-starts**: it resumes the state
//! with a fresh per-request seed and spends only the stage-2 share of
//! the budget.
//!
//! Persistence: a warm state is plain data, so the export writes it
//! down — **data for states, weights nowhere**. One `entry` line names
//! the query (dataset, budget, table version, estimator tag, raw
//! condition); the one `state` line after it carries an [`LssParts`]:
//! profile digest, effective model seed,
//! prepare evals, the design objective's bits, training ids + labels,
//! the ordering, pilot positions + labels, cuts, design notes. The
//! budget split, the pilot source, `N` and the classifier spec are
//! re-derived from the service's profile, the entry's budget and the
//! resolved problem; importing decodes and **checks**
//! (`LssWarm::from_parts`) — no fit, no scoring pass, no sort, no
//! design run, no oracle call.
//!
//! The service prepares LSS only, so every state is an `LssWarm`;
//! which population it was prepared over travels in the export as a
//! typed [`EstimatorTag`] (`lss`, `lss+pf`), whose grammar lives here
//! and nowhere else.

use lts_core::LssParts;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// The estimator tag of one store-export line: `lss`, with a `+pf`
/// suffix marking a state prepared over a prefiltered (restricted)
/// population — the importer re-decomposes the raw condition to rebuild
/// that population, so the scope string itself needs no field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorTag {
    /// Whether the state was prepared over prefilter survivors.
    pub prefiltered: bool,
}

impl fmt::Display for EstimatorTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.prefiltered { "lss+pf" } else { "lss" })
    }
}

impl FromStr for EstimatorTag {
    type Err = String;

    fn from_str(tag: &str) -> Result<Self, String> {
        match tag {
            "lss" => Ok(Self { prefiltered: false }),
            "lss+pf" => Ok(Self { prefiltered: true }),
            _ => Err(format!("unknown estimator tag `{tag}` in store export")),
        }
    }
}

/// Percent-encode the characters that would break the line format.
pub(crate) fn enc_text(s: &str) -> String {
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

pub(crate) fn dec_text(s: &str) -> Option<String> {
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

/// One entry of the portable store export, parsed.
#[derive(Debug, Clone)]
pub struct StoreExportEntry {
    /// Dataset name.
    pub dataset: String,
    /// Raw condition text (parser input).
    pub condition: String,
    /// Budget the state was prepared under.
    pub budget: usize,
    /// Table version the state was prepared against.
    pub table_version: u64,
    /// Which population the state was prepared over.
    pub estimator: EstimatorTag,
    /// The state's plain data, one per `state` line (an importable
    /// entry has exactly one).
    pub states: Vec<LssParts>,
}

/// `3,1,4` — the id lists of a `state` line.
fn enc_ids(ids: &[usize]) -> String {
    let mut out = String::with_capacity(6 * ids.len());
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out
}

fn dec_ids(s: &str) -> Option<Vec<usize>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|id| id.parse().ok()).collect()
}

/// `0110` — the label lists of a `state` line.
fn enc_labels(labels: &[bool]) -> String {
    labels.iter().map(|&l| if l { '1' } else { '0' }).collect()
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

/// Render the portable export (format in the module doc): per entry
/// its `entry` line followed by its `state` lines, entries sorted for
/// stable diffs.
pub fn export(entries: &[StoreExportEntry]) -> String {
    let mut blocks: Vec<String> = (entries.iter())
        .map(|e| {
            let mut block = format!(
                "entry\t{}\t{}\t{}\t{}\t{}\n",
                enc_text(&e.dataset),
                e.budget,
                e.table_version,
                e.estimator,
                enc_text(&e.condition),
            );
            for p in &e.states {
                let _ = write!(
                    block,
                    "state\t{:016x}\t{}\t{}\t{:016x}\t{}\t{}\t{}\t{}\t{}\t{}",
                    p.profile,
                    p.model_seed,
                    p.prepare_evals,
                    p.estimated_variance.to_bits(),
                    enc_ids(&p.labeled),
                    enc_labels(&p.labels),
                    enc_ids(&p.order),
                    enc_ids(&p.pilot_positions),
                    enc_labels(&p.pilot_labels),
                    enc_ids(&p.cuts),
                );
                for note in &p.design_notes {
                    block.push('\t');
                    block.push_str(&enc_text(note));
                }
                block.push('\n');
            }
            block
        })
        .collect();
    blocks.sort();
    let mut out = String::from("lts-store/v2\n");
    out.extend(blocks);
    out
}

/// Parse a store export into its entries. Only the line grammar is
/// checked here; what the numbers must satisfy is checked where a
/// state is rebuilt from them (`LssWarm::from_parts`).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_export(text: &str) -> Result<Vec<StoreExportEntry>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some("lts-store/v2") => {}
        other => return Err(format!("expected lts-store/v2 header, found {other:?}")),
    }
    let mut out: Vec<StoreExportEntry> = Vec::new();
    for (no, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let bad = |what: &str| format!("line {}: {what}", no + 2);
        match f[0] {
            "entry" if f.len() == 6 => out.push(StoreExportEntry {
                dataset: dec_text(f[1]).ok_or_else(|| bad("bad dataset encoding"))?,
                budget: f[2].parse().map_err(|_| bad("bad budget"))?,
                table_version: f[3].parse().map_err(|_| bad("bad version"))?,
                estimator: f[4].parse().map_err(|e: String| bad(&e))?,
                condition: dec_text(f[5]).ok_or_else(|| bad("bad condition encoding"))?,
                states: Vec::new(),
            }),
            "state" if f.len() >= 11 => {
                let entry = out
                    .last_mut()
                    .ok_or_else(|| bad("state before any entry"))?;
                let hex = |s: &str, what: &str| u64::from_str_radix(s, 16).map_err(|_| bad(what));
                let ids = |s: &str, what: &str| dec_ids(s).ok_or_else(|| bad(what));
                let labels = |s: &str, what: &str| dec_labels(s).ok_or_else(|| bad(what));
                entry.states.push(LssParts {
                    profile: hex(f[1], "bad profile digest")?,
                    model_seed: f[2].parse().map_err(|_| bad("bad model seed"))?,
                    prepare_evals: f[3].parse().map_err(|_| bad("bad prepare evals"))?,
                    estimated_variance: f64::from_bits(hex(f[4], "bad variance bits")?),
                    labeled: ids(f[5], "bad training ids")?,
                    labels: labels(f[6], "bad training labels")?,
                    order: ids(f[7], "bad ordering")?,
                    pilot_positions: ids(f[8], "bad pilot positions")?,
                    pilot_labels: labels(f[9], "bad pilot labels")?,
                    cuts: ids(f[10], "bad cuts")?,
                    design_notes: (f[11..].iter())
                        .map(|n| dec_text(n).ok_or_else(|| bad("bad note encoding")))
                        .collect::<Result<_, _>>()?,
                });
            }
            _ => return Err(bad("expected an `entry` of 6 fields or a `state` of ≥ 11")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_encoding_roundtrips() {
        for s in ["plain", "with\ttab", "pct % and\nnewline", ""] {
            assert_eq!(dec_text(&enc_text(s)).as_deref(), Some(s));
        }
        assert!(dec_text("%zz").is_none());
    }

    #[test]
    fn export_header_and_parse_errors() {
        let text = export(&[]);
        assert!(text.starts_with("lts-store/v2\n"));
        assert!(parse_export(&text).unwrap().is_empty());
        assert!(parse_export("garbage").is_err());
        // The previous format is not read.
        assert!(parse_export("lts-store/v1\n").is_err());
        assert!(parse_export("lts-store/v2\nentry\tonly-two").is_err());
        let state = "state\t0\t1\t2\t0\t3\t1\t4,5\t0\t1\t1";
        let orphan = format!("lts-store/v2\n{state}");
        assert!(parse_export(&orphan)
            .unwrap_err()
            .contains("before any entry"));
        let entry = "lts-store/v2\nentry\td\t1\t3\tlss\tc\n";
        assert!(parse_export(&format!("{entry}{state}")).is_ok());
        for (good, broken) in [
            ("4,5", "4,x"),
            ("\t1\t4", "\t2\t4"),
            ("state\t0", "state\tg"),
        ] {
            let text = format!("{entry}{}", state.replacen(good, broken, 1));
            assert!(parse_export(&text).is_err(), "{broken}");
        }
    }

    #[test]
    fn parse_export_reads_labels() {
        let text = "lts-store/v2\nentry\tds\t200\t0\tlss+pf\t(x%20%3c%201)\n\
                    state\t00000000000000ff\t7\t12\t7ff8000000000000\t3,9\t10\t9,3,4\t0,2\t01\t1\tsome%09note\n\
                    state\t00000000000000ff\t8\t0\t0000000000000000\t\t\t\t\t\t\n";
        // %20/%3c decode as space and '<'.
        let entries = parse_export(text).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(
            (e.dataset.as_str(), e.budget, e.table_version),
            ("ds", 200, 0)
        );
        assert_eq!(e.estimator.to_string(), "lss+pf");
        assert_eq!(e.condition, "(x < 1)");
        let p = &e.states[0];
        assert_eq!((p.profile, p.model_seed, p.prepare_evals), (0xff, 7, 12));
        assert!(p.estimated_variance.is_nan());
        assert_eq!((&p.labeled, &p.labels), (&vec![3, 9], &vec![true, false]));
        assert_eq!((&p.order, &p.cuts), (&vec![9, 3, 4], &vec![1]));
        assert_eq!(
            (&p.pilot_positions, &p.pilot_labels),
            (&vec![0, 2], &vec![false, true])
        );
        assert_eq!(p.design_notes, vec!["some\tnote".to_string()]);
        assert!(e.states[1].order.is_empty() && e.states[1].design_notes.is_empty());
    }

    #[test]
    fn estimator_tags_roundtrip_through_their_text_form() {
        for (text, prefiltered) in [("lss", false), ("lss+pf", true)] {
            let tag: EstimatorTag = text.parse().unwrap();
            assert_eq!(tag, EstimatorTag { prefiltered });
            assert_eq!(tag.to_string(), text);
        }
        for bad in ["lss@4", "lss@4+pf", "lss@", "lss4", "LSS", ""] {
            assert!(bad.parse::<EstimatorTag>().is_err(), "`{bad}`");
        }
    }

    #[test]
    fn malformed_tags_are_rejected_on_import() {
        use crate::{Request, Service, ServiceConfig, Target};
        let service = || {
            let xs: Vec<f64> = (0..2_000).map(f64::from).collect();
            let table = lts_table::table_of_floats(&[("x", &xs)]).unwrap();
            let mut s = Service::new(ServiceConfig::default());
            s.register_dataset("d", std::sync::Arc::new(table), &["x"])
                .unwrap();
            s
        };
        let mut s = service();
        // `lws` tags parse nowhere: the service prepares LSS only. Nor
        // does a shard count (`lss@k`): this build reads no sharded state.
        for tag in [
            "lss@4", "lss@0", "lss@x", "nope@4", "lss+pf@4", "lws", "lws@4",
        ] {
            let text = format!("lts-store/v2\nentry\td\t200\t0\t{tag}\tx %3c 100\n");
            let err = s.import_store(&text).expect_err(tag).to_string();
            assert!(err.contains("unknown estimator tag"), "tag `{tag}`: {err}");
        }
        assert_eq!(s.store_len(), 0);

        // A real export with its entry re-tagged `lss@4` is refused
        // whole; the export as written imports.
        let cold = s.run(Request {
            id: 1,
            dataset: "d".into(),
            condition: "x < 800".into(),
            target: Target::Budget(300),
            fresh: false,
        });
        assert_eq!((cold.served, cold.route), ("cold", "lss"));
        let export = s.export_store();
        let retagged = export.replacen("\tlss\t", "\tlss@4\t", 1);
        assert_ne!(retagged, export);
        let mut restored = service();
        let err = restored.import_store(&retagged).unwrap_err().to_string();
        assert!(err.contains("unknown estimator tag `lss@4`"), "{err}");
        assert_eq!(restored.store_len(), 0);
        assert_eq!(restored.import_store(&export).unwrap(), 1);
    }
}
