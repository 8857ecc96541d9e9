//! The model store: warm estimator states keyed by canonical query.
//!
//! A **cold** request pays for the reusable assets — proxy training,
//! population scoring/ordering, pilot labeling, stratification design
//! (`lts_core::warm`). The store keeps those assets; every later
//! request for the same canonical query **warm-starts**: it resumes the
//! stored state with a fresh per-request seed and spends only the
//! stage-2 share of the budget. Entries record the table version they
//! were prepared against and are dropped when it bumps.
//!
//! Persistence: a warm state is a deterministic function of
//! `(estimator profile, prepare seed, known labels)` — every `fit` and
//! every design pass replays bit-identically from the same seed once
//! the labels are free. The export format therefore carries *labels
//! and seeds, not weights*: restoring re-runs `prepare` with the labels
//! preloaded, which touches the oracle zero times and reproduces the
//! exact state. (Weight-level classifier persistence exists separately
//! in `lts_learn::persist` for the families with flat parameter sets.)
//!
//! The service prepares LSS only, unsharded or sharded, so a
//! [`WarmState`] has those two shapes; how a state was laid out travels
//! in the export as a typed [`EstimatorTag`] (`lss`, `lss@4`, `lss+pf`,
//! `lss@4+pf`), whose grammar lives here and nowhere else.

use lts_core::{
    CoreResult, CountingProblem, EstimateReport, Lss, LssWarm, ShardPlan, Shardable, Sharded,
};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::num::NonZeroUsize;
use std::str::FromStr;

/// Identity of one stored warm state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Dataset name.
    pub dataset: String,
    /// Canonical predicate string the state estimates: the full query
    /// for monolithic plans, the **residual** for prefiltered plans —
    /// so every decomposed spelling of a query shares one warm lineage.
    pub canonical: String,
    /// Plan scope: empty for monolithic states; the canonical
    /// **prefilter** string for states prepared over a prefiltered
    /// (restricted) population. The same residual estimated under
    /// different prefilters samples different populations — the states
    /// are not interchangeable.
    pub scope: String,
    /// Budget the state was prepared under (requests planned at a
    /// different budget prepare their own state).
    pub budget: usize,
}

/// A warm estimator state: learned stratified sampling, prepared over
/// the whole population or per shard.
// The large variant is the default one and a state is built once and
// then only borrowed, so boxing it would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum WarmState {
    /// Unsharded LSS (the service default).
    Lss(LssWarm),
    /// Sharded LSS: one [`LssWarm`] per shard (the cold path when the
    /// service is configured with more than one shard).
    LssSharded(Sharded<LssWarm>),
}

impl WarmState {
    /// Prepare a state over `problem`: per shard of a
    /// [`ShardPlan::uniform`] layout when `shards` is given, over the
    /// whole population otherwise. `known` preloads labels — a restore
    /// passes the exported ones and touches the oracle zero times; a
    /// live prepare passes none.
    ///
    /// # Errors
    ///
    /// Returns an error for an infeasible budget or layout, or any
    /// prepare failure.
    pub fn prepare(
        lss: Lss,
        problem: &CountingProblem,
        shards: Option<NonZeroUsize>,
        budget: usize,
        seed: u64,
        known: &[(usize, bool)],
    ) -> CoreResult<Self> {
        Ok(match shards {
            None => WarmState::Lss(lss.prepare_with_known(problem, budget, seed, known)?),
            Some(k) => {
                let plan = ShardPlan::uniform(problem.n(), k.get())?;
                WarmState::LssSharded(
                    lss.prepare_sharded_with_known(problem, &plan, budget, seed, known)?,
                )
            }
        })
    }

    /// Resume the state: a fresh stage-2 draw under `seed`, in whatever
    /// layout the state was prepared under.
    ///
    /// # Errors
    ///
    /// Returns an error when the state does not match the problem, or
    /// on sampling/labeling failures.
    pub fn resume(
        &self,
        lss: Lss,
        problem: &CountingProblem,
        seed: u64,
    ) -> CoreResult<EstimateReport> {
        match self {
            WarmState::Lss(w) => lss.estimate_prepared(problem, w, seed),
            WarmState::LssSharded(w) => lss.estimate_prepared_sharded(problem, w, seed),
        }
    }

    /// Content digest — the "model version" stamp carried by results
    /// computed from this state.
    pub fn digest(&self) -> u64 {
        match self {
            WarmState::Lss(w) => w.digest(),
            WarmState::LssSharded(w) => w.digest(),
        }
    }

    /// Oracle evaluations the prepare phase spent (the cold-start
    /// premium this state amortizes).
    pub fn prepare_evals(&self) -> usize {
        match self {
            WarmState::Lss(w) => w.prepare_evals,
            WarmState::LssSharded(w) => w.prepare_evals,
        }
    }

    /// All exactly-known `(object id, label)` pairs — the persistence
    /// payload. Sharded states report **global** object ids, so export
    /// and restore are shard-layout-transparent.
    pub fn known_labels(&self) -> Vec<(usize, bool)> {
        match self {
            WarmState::Lss(w) => w.known_labels(),
            WarmState::LssSharded(w) => w.known_labels(),
        }
    }

    /// Shard count of a sharded state (`None` when unsharded), so
    /// restore rebuilds the same plan.
    pub fn shards(&self) -> Option<NonZeroUsize> {
        match self {
            WarmState::Lss(_) => None,
            WarmState::LssSharded(w) => NonZeroUsize::new(w.plan().k()),
        }
    }
}

/// The estimator tag of one store-export line: `lss`, an optional
/// shard suffix (`lss@4`), and an optional `+pf` suffix marking a state
/// prepared over a prefiltered (restricted) population — the importer
/// re-decomposes the raw condition to rebuild that population, so the
/// scope string itself needs no field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorTag {
    /// Shard count of a sharded state.
    pub shards: Option<NonZeroUsize>,
    /// Whether the state was prepared over prefilter survivors.
    pub prefiltered: bool,
}

impl fmt::Display for EstimatorTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("lss")?;
        if let Some(k) = self.shards {
            write!(f, "@{k}")?;
        }
        if self.prefiltered {
            f.write_str("+pf")?;
        }
        Ok(())
    }
}

impl FromStr for EstimatorTag {
    type Err = String;

    fn from_str(tag: &str) -> Result<Self, String> {
        let (body, prefiltered) = match tag.strip_suffix("+pf") {
            Some(body) => (body, true),
            None => (tag, false),
        };
        let unknown = || format!("unknown estimator tag `{tag}` in store export");
        let rest = body.strip_prefix("lss").ok_or_else(unknown)?;
        let shards = match rest.strip_prefix('@') {
            Some(k) => Some(k.parse().map_err(|_| unknown())?),
            None if rest.is_empty() => None,
            None => return Err(unknown()),
        };
        Ok(Self {
            shards,
            prefiltered,
        })
    }
}

/// One store entry.
pub struct StoredModel {
    /// The resumable state.
    pub state: WarmState,
    /// Table version it was prepared against.
    pub table_version: u64,
    /// The seed `prepare` ran under (restoring replays it).
    pub prepare_seed: u64,
    /// The raw condition text that first created the entry (restores
    /// re-parse this; the canonical string is not a parser input).
    pub raw_condition: String,
}

/// The service's model store.
#[derive(Default)]
pub struct ModelStore {
    entries: HashMap<StoreKey, StoredModel>,
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

/// One line of the portable store export, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreExportEntry {
    /// Dataset name.
    pub dataset: String,
    /// Raw condition text (parser input).
    pub condition: String,
    /// Budget the state was prepared under.
    pub budget: usize,
    /// Prepare seed to replay.
    pub prepare_seed: u64,
    /// Table version the state was prepared against.
    pub table_version: u64,
    /// How the state was laid out.
    pub estimator: EstimatorTag,
    /// The known `(object id, label)` pairs.
    pub labels: Vec<(usize, bool)>,
}

impl ModelStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored states.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a state servable at `table_version` (a stale entry is
    /// evicted and `None` returned).
    pub fn lookup(&mut self, key: &StoreKey, table_version: u64) -> Option<&mut StoredModel> {
        if self
            .entries
            .get(key)
            .is_some_and(|e| e.table_version != table_version)
        {
            self.entries.remove(key);
            return None;
        }
        self.entries.get_mut(key)
    }

    /// Read-only access to an entry (the parallel execution wave reads
    /// through this; staleness eviction happens in the sequential
    /// planning pass via [`ModelStore::lookup`]).
    pub fn get(&self, key: &StoreKey) -> Option<&StoredModel> {
        self.entries.get(key)
    }

    /// Whether a current entry exists (no eviction, no counting).
    pub fn contains(&self, key: &StoreKey, table_version: u64) -> bool {
        self.entries
            .get(key)
            .is_some_and(|e| e.table_version == table_version)
    }

    /// Insert a freshly prepared state.
    pub fn insert(&mut self, key: StoreKey, stored: StoredModel) {
        self.entries.insert(key, stored);
    }

    /// Drop every state of a dataset (version bump / explicit flush).
    pub fn invalidate_dataset(&mut self, dataset: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.dataset != dataset);
        before - self.entries.len()
    }

    /// Render the portable export: one `entry` line per state —
    /// dataset, budget, seeds, versions, estimator tag, raw condition,
    /// and the known labels. Lines are sorted for stable diffs.
    pub fn export(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|(k, e)| {
                let mut labels = String::new();
                for (i, (id, l)) in e.state.known_labels().iter().enumerate() {
                    if i > 0 {
                        labels.push(',');
                    }
                    let _ = write!(labels, "{id}:{}", u8::from(*l));
                }
                let tag = EstimatorTag {
                    shards: e.state.shards(),
                    prefiltered: !k.scope.is_empty(),
                };
                format!(
                    "entry\t{}\t{}\t{}\t{}\t{tag}\t{}\t{labels}",
                    enc_text(&k.dataset),
                    k.budget,
                    e.prepare_seed,
                    e.table_version,
                    enc_text(&e.raw_condition),
                )
            })
            .collect();
        lines.sort();
        let mut out = String::from("lts-store/v1\n");
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Parse a store export into its entries (the service replays each
    /// through `prepare_with_known` to rebuild live states).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse_export(text: &str) -> Result<Vec<StoreExportEntry>, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("lts-store/v1") => {}
            other => return Err(format!("expected lts-store/v1 header, found {other:?}")),
        }
        let mut out = Vec::new();
        for (no, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = |what: &str| format!("line {}: {what}", no + 2);
            if fields.len() != 8 || fields[0] != "entry" {
                return Err(bad("expected 8 tab-separated fields starting with `entry`"));
            }
            let labels = if fields[7].is_empty() {
                Vec::new()
            } else {
                fields[7]
                    .split(',')
                    .map(|kv| {
                        let (id, l) = kv.split_once(':')?;
                        Some((id.parse().ok()?, l == "1"))
                    })
                    .collect::<Option<Vec<(usize, bool)>>>()
                    .ok_or_else(|| bad("malformed label pair"))?
            };
            out.push(StoreExportEntry {
                dataset: dec_text(fields[1]).ok_or_else(|| bad("bad dataset encoding"))?,
                budget: fields[2].parse().map_err(|_| bad("bad budget"))?,
                prepare_seed: fields[3].parse().map_err(|_| bad("bad seed"))?,
                table_version: fields[4].parse().map_err(|_| bad("bad version"))?,
                estimator: fields[5].parse().map_err(|e: String| bad(&e))?,
                condition: dec_text(fields[6]).ok_or_else(|| bad("bad condition encoding"))?,
                labels,
            });
        }
        Ok(out)
    }
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
        let store = ModelStore::new();
        let text = store.export();
        assert!(text.starts_with("lts-store/v1\n"));
        assert!(ModelStore::parse_export(&text).unwrap().is_empty());
        assert!(ModelStore::parse_export("garbage").is_err());
        assert!(ModelStore::parse_export("lts-store/v1\nentry\tonly-two").is_err());
        assert!(ModelStore::parse_export("lts-store/v1\nentry\td\t1\t2\t3\tlss\tc\tx:y").is_err());
    }

    #[test]
    fn parse_export_reads_labels() {
        let text = "lts-store/v1\nentry\tds\t200\t7\t0\tlss\t(x%20%3c%201)\t3:1,9:0\n";
        // %20/%3c decode as space and '<'.
        let entries = ModelStore::parse_export(text).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.dataset, "ds");
        assert_eq!(e.budget, 200);
        assert_eq!(e.prepare_seed, 7);
        assert_eq!(e.estimator.to_string(), "lss");
        assert_eq!(e.condition, "(x < 1)");
        assert_eq!(e.labels, vec![(3, true), (9, false)]);
    }
}
