//! In-memory spans around the calls the traced run makes into each
//! layer, and what is computed from them: self time, per-name
//! medians, and the closure share.
//!
//! Spans are recorded from the benchmark's side of every public call;
//! nothing is added inside the program. They stay in memory until the
//! run ends and are then written as `spans.jsonl`.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`strata.design`, `serve.run`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The op this span belongs to (spans of one op share it).
    pub op: usize,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its creation is time zero.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// An empty recorder sharing another's time zero — one per client
    /// thread, merged back with [`Recorder::absorb`].
    pub fn with_epoch(epoch: Instant) -> Self {
        Recorder {
            epoch,
            ..Self::new()
        }
    }

    /// This recorder's time zero.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Append another recorder's closed spans, re-basing their parent
    /// links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Tag subsequent spans with this op identifier.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span (child of the innermost open one).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the
    /// benchmark, not a condition of the measured program.
    pub fn exit(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = end_ns;
    }

    /// Record `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Record `f` as one span and also return its duration in
    /// microseconds.
    pub fn time_us<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        (out, self.spans[idx].duration_ns() as f64 / 1e3)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval its direct children cover. Children may overlap each
/// other (parallel parts) or spill past the parent; coverage is the
/// union of the child intervals clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median duration (µs) and call count per span name.
pub fn medians_us(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, v)| {
            let n = v.len();
            (name, (crate::stats::median(&v).unwrap_or(0.0), n))
        })
        .collect()
}

/// Closure share: over the ops that have both a `root` span (the
/// stage-by-stage replay) and a `reference` span (the program's own
/// end-to-end call), the self time of every span *under* the roots
/// divided by the reference time. Near 1 means the replayed layers
/// account for the end-to-end call; well below means the replay has a
/// hole. The root's own self time is benchmark glue and is left out.
/// `None` when no op has both.
pub fn closure_share(spans: &[Span], root: &str, reference: &str) -> Option<f64> {
    let self_ns = self_times_ns(spans);
    let under_root = |mut idx: usize| loop {
        match spans[idx].parent {
            Some(p) if spans[p].name == root => return true,
            Some(p) => idx = p,
            None => return false,
        }
    };
    let mut layers: BTreeMap<usize, u64> = BTreeMap::new();
    let mut wall: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == reference {
            *wall.entry(s.op).or_default() += s.duration_ns();
        } else if s.name != root && under_root(i) {
            *layers.entry(s.op).or_default() += self_ns[i];
        }
    }
    let (mut num, mut den) = (0u64, 0u64);
    for (op, layer_ns) in &layers {
        if let Some(w) = wall.get(op) {
            num += layer_ns;
            den += w;
        }
    }
    (den > 0).then(|| num as f64 / den as f64)
}

/// Render spans as JSON lines (`name`, `start_ns`, `end_ns`,
/// `parent`, `op`), one span per line, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = obj([
            ("name", Json::Str(s.name.to_string())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("op", Json::Num(s.op as f64)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: usize) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("parent", 0, 100, None, 0),
            // Two children overlapping on [30, 40): union covers [10, 60).
            span("a", 10, 40, Some(0), 0),
            span("b", 30, 60, Some(0), 0),
            // A child spilling past the parent is clipped to [90, 100).
            span("c", 90, 130, Some(0), 0),
            // A grandchild does not reduce the grandparent.
            span("a1", 12, 20, Some(1), 0),
            // A child wholly inside another child's interval adds nothing.
            span("d", 35, 38, Some(0), 0),
        ];
        let s = self_times_ns(&spans);
        assert_eq!(s[0], 100 - 50 - 10);
        assert_eq!(s[1], 30 - 8);
        assert_eq!(s[2], 30);
        assert_eq!(s[3], 40);
        assert_eq!(s[4], 8);
    }

    #[test]
    fn closure_share_counts_layers_under_the_root_per_op() {
        let spans = vec![
            // op 0: run takes 100; replay stages have 60 + 30 of self time.
            span("serve.run", 0, 100, None, 0),
            span("replay", 100, 200, None, 0),
            span("core.prepare", 100, 170, Some(1), 0),
            span("strata.design", 120, 130, Some(2), 0),
            span("core.stage2", 170, 200, Some(1), 0),
            // op 1: a reference without a replay does not enter.
            span("serve.run", 200, 1_000, None, 1),
            // op 2: a probe outside any root does not enter either.
            span("learn.fit", 1_000, 1_500, None, 2),
        ];
        let share = closure_share(&spans, "replay", "serve.run").unwrap();
        assert!((share - 1.0).abs() < 1e-12, "{share}");
        assert_eq!(closure_share(&spans, "absent", "serve.run"), None);
        let m = medians_us(&spans);
        let (us, calls) = m["serve.run"];
        assert!((us - 0.45).abs() < 1e-12 && calls == 2);
    }

    #[test]
    fn recorder_nests_merges_and_writes_jsonl() {
        let mut rec = Recorder::new();
        rec.set_op(7);
        let outer = rec.enter("outer");
        let v = rec.time("inner", || 41 + 1);
        rec.exit(outer);
        assert_eq!(v, 42);
        let (_, us) = rec.time_us("third", || ());
        assert_eq!(us, rec.spans()[2].duration_ns() as f64 / 1e3);
        // A second thread's recorder shares the epoch and merges in.
        let mut other = Recorder::with_epoch(rec.epoch());
        let o = other.enter("o");
        other.time("o.child", || ());
        other.exit(o);
        rec.absorb(other);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!((spans[3].parent, spans[4].parent), (None, Some(3)));
        let text = to_jsonl(&spans[..2]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(first.get("op").and_then(Json::as_f64), Some(7.0));
    }
}
