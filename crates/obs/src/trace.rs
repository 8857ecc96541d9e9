//! Deterministic per-request trace spans.
//!
//! A [`Trace`] is the ordered list of typed [`TraceEvent`]s one
//! request generated on its way through the service: the route the
//! planner chose, the prefilter its plan applies, each preparation
//! phase (train / score / pilot / design), the stage-2 draw, cache and
//! store outcomes. The service builds the route, prefilter, cache,
//! store and served events itself; the phase and stage-2 events are
//! gathered by a **thread-local collector** ([`collect`]) that the
//! service installs around each unit of estimation work (a request's
//! prepare, its execution), so the estimators'
//! phase clock ([`emit`]) needs no plumbed-through handle and costs a
//! thread-local branch when nothing is collecting.
//!
//! **Determinism contract.** Asserted fields are of two kinds.
//! *Pure* fields — `route`, `plan`, the `prefilter` event, `estimate`,
//! `lo`, `hi` — are pure functions of (seed, dataset version, canonical
//! query, budget, request id), whatever ran before. *History* fields —
//! `cache`, `store`, `served`, the `phase` / `stage2` events' evals and
//! the response `evals` — depend on what ran before, by design (a
//! repeat is a cache hit, a resume of another request's state skips
//! its prepare), and are deterministic for a given request sequence.
//! Wall-clock time lives only in fields named `wall_*`, which
//! [`Trace::to_json`] zeroes under `mask_wall`.
//!
//! Completed traces land in a bounded [`TraceRing`] (replayed by the
//! `trace <id>` protocol command) and feed a deterministic top-K
//! [`SlowLog`] keyed by oracle evaluations spent.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;

use crate::json_escape;

/// One typed event inside a request's trace span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The route / plan kind the planner chose for this request.
    Route {
        /// Serving route (`lss`, `lws`, `srs`, `exact`, …).
        route: &'static str,
        /// Plan kind (`monolithic`, `prefilter+estimate`, `census`, …).
        kind: &'static str,
    },
    /// An exact prefilter scan: how many conjuncts were split off and
    /// how far they narrowed the population.
    Prefilter {
        /// Number of exact conjuncts in the prefilter.
        conjuncts: u64,
        /// Population size before the scan.
        population: u64,
        /// Rows surviving the prefilter.
        survivors: u64,
    },
    /// Result-cache outcome for this request.
    Cache {
        /// `hit`, `miss`, or `bypass-fresh`.
        outcome: &'static str,
    },
    /// Model-store outcome for this request.
    Store {
        /// `cold-prepare`, `warm-resume`, or `unpreparable`.
        outcome: &'static str,
        /// The store key hash (deterministic; rendered as 16 hex
        /// digits), or `None` when the request had no store key
        /// (`unpreparable`, rendered empty).
        key: Option<u64>,
    },
    /// One preparation phase (train / score / pilot / design) with its
    /// exact oracle-eval attribution.
    Phase {
        /// Phase name (see [`crate::Phase::name`]).
        phase: &'static str,
        /// Oracle evaluations charged to this phase.
        evals: u64,
        /// Wall time of the phase (masked in goldens).
        wall_nanos: u64,
    },
    /// The stage-2 estimation draw.
    Stage2 {
        /// Oracle evaluations spent by the draw.
        evals: u64,
        /// Wall time of the draw (masked in goldens).
        wall_nanos: u64,
    },
    /// Terminal event: how the request was served.
    Served {
        /// `cold`, `warm`, `cached`, `exact`, or `error`.
        served: &'static str,
        /// Total oracle evaluations billed to the response.
        evals: u64,
        /// Wall time of the request (masked in goldens).
        wall_micros: u64,
    },
}

impl TraceEvent {
    /// Stable event-kind name used as the `"event"` JSON field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Route { .. } => "route",
            TraceEvent::Prefilter { .. } => "prefilter",
            TraceEvent::Cache { .. } => "cache",
            TraceEvent::Store { .. } => "store",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::Stage2 { .. } => "stage2",
            TraceEvent::Served { .. } => "served",
        }
    }

    /// Render as one JSON object. `mask_wall` zeroes `wall_*` fields.
    pub fn to_json(&self, mask_wall: bool) -> String {
        let wall = |v: u64| if mask_wall { 0 } else { v };
        match self {
            TraceEvent::Route { route, kind } => format!(
                "{{\"event\": \"route\", \"route\": \"{}\", \"kind\": \"{}\"}}",
                json_escape(route),
                json_escape(kind)
            ),
            TraceEvent::Prefilter {
                conjuncts,
                population,
                survivors,
            } => format!(
                "{{\"event\": \"prefilter\", \"conjuncts\": {conjuncts}, \
                 \"population\": {population}, \"survivors\": {survivors}}}"
            ),
            TraceEvent::Cache { outcome } => format!(
                "{{\"event\": \"cache\", \"outcome\": \"{}\"}}",
                json_escape(outcome)
            ),
            TraceEvent::Store { outcome, key } => format!(
                "{{\"event\": \"store\", \"outcome\": \"{}\", \"key\": \"{}\"}}",
                json_escape(outcome),
                key.map_or_else(String::new, |key| format!("{key:016x}"))
            ),
            TraceEvent::Phase {
                phase,
                evals,
                wall_nanos,
            } => format!(
                "{{\"event\": \"phase\", \"phase\": \"{}\", \"evals\": {}, \"wall_nanos\": {}}}",
                json_escape(phase),
                evals,
                wall(*wall_nanos)
            ),
            TraceEvent::Stage2 { evals, wall_nanos } => format!(
                "{{\"event\": \"stage2\", \"evals\": {}, \"wall_nanos\": {}}}",
                evals,
                wall(*wall_nanos)
            ),
            TraceEvent::Served {
                served,
                evals,
                wall_micros,
            } => format!(
                "{{\"event\": \"served\", \"served\": \"{}\", \"evals\": {}, \"wall_micros\": {}}}",
                json_escape(served),
                evals,
                wall(*wall_micros)
            ),
        }
    }
}

/// The complete span of one request: its id and ordered events, kept
/// at their length (a ring of spans holds no spare slots).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The request id the span belongs to.
    pub id: u64,
    /// Ordered events, admission first, `served` last.
    pub events: Box<[TraceEvent]>,
}

impl Trace {
    /// One-line JSON rendering of the span. See
    /// [`TraceEvent::to_json`] for the `mask_wall` contract.
    pub fn to_json(&self, mask_wall: bool) -> String {
        let events: Vec<String> = self.events.iter().map(|e| e.to_json(mask_wall)).collect();
        format!(
            "{{\"id\": {}, \"events\": [{}]}}",
            self.id,
            events.join(", ")
        )
    }
}

thread_local! {
    static SINK: RefCell<Option<Vec<TraceEvent>>> = const { RefCell::new(None) };
}

/// True when a collector is installed on the calling thread. Emission
/// sites that must build owned event payloads should check this first
/// so the uninstrumented path pays only a thread-local branch.
#[inline]
pub fn collecting() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Append an event to the calling thread's collector; dropped silently
/// when none is installed.
pub fn emit(ev: TraceEvent) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            sink.push(ev);
        }
    });
}

/// Run `f` with a fresh collector installed on the calling thread and
/// return its result together with the events emitted during the
/// call. Any previously installed collector is suspended and restored
/// afterwards (its events are unaffected). The thread's phase state is
/// isolated for the duration (see [`crate::phase::isolated`]), so a
/// stolen unit of work cannot pollute an enclosing span's eval delta.
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    let prev = SINK.with(|s| s.borrow_mut().replace(Vec::new()));
    let out = crate::phase::isolated(f);
    let events = SINK.with(|s| {
        let mut slot = s.borrow_mut();
        let events = slot.take().unwrap_or_default();
        *slot = prev;
        events
    });
    (out, events)
}

/// A bounded ring of recently completed traces, oldest evicted first.
/// Capacity 0 disables it entirely (pushes are dropped).
pub struct TraceRing {
    cap: usize,
    inner: Mutex<VecDeque<Trace>>,
}

impl TraceRing {
    /// A ring holding at most `cap` traces.
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap,
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retain `trace`, evicting the oldest entry if full. No-op at
    /// capacity 0.
    pub fn push(&self, trace: Trace) {
        if self.cap == 0 {
            return;
        }
        let mut ring = self.inner.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The most recently retained trace for `id`, if any.
    pub fn get(&self, id: u64) -> Option<Trace> {
        let ring = self.inner.lock().unwrap();
        ring.iter().rev().find(|t| t.id == id).cloned()
    }
}

/// One entry in the slow-query log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowEntry {
    /// Oracle evaluations the request spent (the expense axis).
    pub evals: u64,
    /// Request id.
    pub id: u64,
    /// Canonical query fingerprint (rendered as 16 hex digits).
    pub fingerprint: u64,
    /// Serving route.
    pub route: &'static str,
}

impl SlowEntry {
    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"evals\": {}, \"id\": {}, \"fingerprint\": \"{:016x}\", \"route\": \"{}\"}}",
            self.evals,
            self.id,
            self.fingerprint,
            json_escape(self.route)
        )
    }
}

impl Ord for SlowEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Most expensive first; ties broken by id then fingerprint so
        // the ordering — and therefore the retained top-K — is a pure
        // function of the entry *set*, independent of insertion order.
        other
            .evals
            .cmp(&self.evals)
            .then(self.id.cmp(&other.id))
            .then(self.fingerprint.cmp(&other.fingerprint))
            .then(self.route.cmp(other.route))
    }
}

impl PartialOrd for SlowEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded top-K log of the most oracle-expensive requests.
///
/// Backed by an ordered set keyed (evals desc, id asc, fingerprint),
/// so the retained contents and their iteration order depend only on
/// the multiset of inserted entries — never on arrival order or
/// thread interleaving. Capacity 0 disables it.
pub struct SlowLog {
    k: usize,
    inner: Mutex<BTreeSet<SlowEntry>>,
}

impl SlowLog {
    /// A log retaining the top `k` entries.
    pub fn new(k: usize) -> Self {
        SlowLog {
            k,
            inner: Mutex::new(BTreeSet::new()),
        }
    }

    /// The configured K.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Offer an entry; it is retained iff it ranks in the current
    /// top-K. Duplicate entries collapse (set semantics).
    pub fn offer(&self, entry: SlowEntry) {
        if self.k == 0 {
            return;
        }
        let mut set = self.inner.lock().unwrap();
        set.insert(entry);
        while set.len() > self.k {
            let last = set.iter().next_back().cloned();
            if let Some(last) = last {
                set.remove(&last);
            }
        }
    }

    /// The top `limit` entries (most expensive first); `limit` is
    /// clamped to K.
    pub fn top(&self, limit: usize) -> Vec<SlowEntry> {
        let set = self.inner.lock().unwrap();
        set.iter().take(limit.min(self.k)).cloned().collect()
    }

    /// One-line JSON: `{"slow": [entry, ...]}` with at most `limit`
    /// entries.
    pub fn to_json(&self, limit: usize) -> String {
        let entries: Vec<String> = self.top(limit).iter().map(|e| e.to_json()).collect();
        format!("{{\"slow\": [{}]}}", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(evals: u64) -> TraceEvent {
        TraceEvent::Stage2 {
            evals,
            wall_nanos: 99,
        }
    }

    #[test]
    fn collect_captures_and_restores_outer_collector() {
        let ((inner_out, inner_events), outer_events) = collect(|| {
            emit(ev(1));
            let nested = collect(|| {
                emit(ev(2));
                "inner"
            });
            emit(ev(3));
            nested
        });
        assert_eq!(inner_out, "inner");
        assert_eq!(inner_events, vec![ev(2)]);
        assert_eq!(outer_events, vec![ev(1), ev(3)]);
        assert!(!collecting());
        emit(ev(4)); // dropped silently
    }

    #[test]
    fn trace_json_masks_wall_fields_only() {
        let t = Trace {
            id: 7,
            events: vec![
                TraceEvent::Route {
                    route: "lss",
                    kind: "monolithic",
                },
                ev(42),
                TraceEvent::Phase {
                    phase: "train",
                    evals: 5,
                    wall_nanos: 3,
                },
            ]
            .into(),
        };
        let masked = t.to_json(true);
        assert_eq!(
            masked,
            "{\"id\": 7, \"events\": [\
             {\"event\": \"route\", \"route\": \"lss\", \"kind\": \"monolithic\"}, \
             {\"event\": \"stage2\", \"evals\": 42, \"wall_nanos\": 0}, \
             {\"event\": \"phase\", \"phase\": \"train\", \"evals\": 5, \"wall_nanos\": 0}]}"
        );
        let unmasked = t.to_json(false);
        assert!(unmasked.contains("\"wall_nanos\": 99"));
        assert!(unmasked.contains("\"wall_nanos\": 3"));
    }

    #[test]
    fn ring_bounds_and_finds_latest_by_id() {
        let ring = TraceRing::new(2);
        ring.push(Trace {
            id: 1,
            events: [ev(1)].into(),
        });
        ring.push(Trace {
            id: 2,
            events: [].into(),
        });
        ring.push(Trace {
            id: 1,
            events: [ev(9)].into(),
        });
        assert_eq!(ring.len(), 2); // id=1's first span evicted
        assert_eq!(*ring.get(1).unwrap().events, [ev(9)]);
        assert!(ring.get(2).unwrap().events.is_empty());
        assert!(ring.get(3).is_none());
        let off = TraceRing::new(0);
        off.push(Trace {
            id: 1,
            events: [].into(),
        });
        assert!(off.is_empty());
    }

    #[test]
    fn slow_log_is_insertion_order_independent() {
        let mk = |evals: u64, id: u64| SlowEntry {
            evals,
            id,
            fingerprint: id,
            route: "lss",
        };
        let entries = vec![mk(10, 0), mk(500, 1), mk(50, 2), mk(500, 3), mk(7, 4)];
        let forward = SlowLog::new(3);
        let backward = SlowLog::new(3);
        for e in &entries {
            forward.offer(e.clone());
        }
        for e in entries.iter().rev() {
            backward.offer(e.clone());
        }
        assert_eq!(forward.top(3), backward.top(3));
        assert_eq!(forward.top(3), vec![mk(500, 1), mk(500, 3), mk(50, 2)]);
        assert_eq!(
            forward.to_json(2),
            "{\"slow\": [\
             {\"evals\": 500, \"id\": 1, \"fingerprint\": \"0000000000000001\", \"route\": \"lss\"}, \
             {\"evals\": 500, \"id\": 3, \"fingerprint\": \"0000000000000003\", \"route\": \"lss\"}]}"
        );
    }
}
