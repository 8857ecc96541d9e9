//! `lts-obs` — the workspace observability layer.
//!
//! The paper's whole argument is an accounting identity: oracle
//! evaluations spent versus confidence-interval width bought. This
//! crate is where that accounting becomes observable without breaking
//! the repo's bit-identity contract. It is **std-only** (no
//! dependencies at all) and sits below every other workspace crate, so
//! any layer — the metered labeler, the warm-prepare pipeline, the
//! serving front-end — can report through it.
//!
//! Three pillars:
//!
//! | Pillar | Module | Job |
//! |---|---|---|
//! | metrics registry | [`registry`] | named counters / gauges / fixed-bound histograms with atomic recording, a point-in-time [`MetricsSnapshot`], JSON + Prometheus text exposition |
//! | phase attribution | [`phase`] | a scoped thread-local phase tag and labeling clock, so the metered oracle can attribute every evaluation — and the time it took — to train / score / pilot / design / stage-2 / exact |
//! | trace spans | [`trace`] | typed per-request [`TraceEvent`]s gathered by a thread-local collector, a bounded [`TraceRing`] for `trace <id>` replay, and a deterministic top-K [`SlowLog`] |
//!
//! **Determinism contract.** Every *asserted* field of a trace or
//! metric — event kinds, eval counts, routes, outcomes — must be a
//! deterministic function of the request sequence; the pure ones
//! ([`trace`] lists them) of the request alone: (seed, dataset version,
//! canonical query, budget, request id). Wall-clock time is
//! allowed, but only inside fields whose name contains `wall`
//! (`wall_nanos`, `wall_micros`, …); every exposition function takes a
//! `mask_wall` flag that zeroes exactly those fields, which is what CI
//! diffs across `RAYON_NUM_THREADS` settings.

#![warn(missing_docs)]

pub mod phase;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use phase::{Phase, PhaseScope, NUM_PHASES};
pub use registry::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use snapshot::Snapshot;
pub use trace::{SlowEntry, SlowLog, Trace, TraceEvent, TraceRing};

/// Everything a service front-end needs to observe itself: a registry,
/// a trace ring, and a slow-query log. Bundled so it can be handed
/// across thread boundaries (dispatcher, scrape listener, REPL) as one
/// shared unit.
#[derive(Clone)]
pub struct Observability {
    /// The process-wide metrics registry.
    pub registry: MetricsRegistry,
    /// Recent per-request traces, replayable via `trace <id>`.
    pub ring: std::sync::Arc<TraceRing>,
    /// Top-K most oracle-expensive requests, deterministic ordering.
    pub slow: std::sync::Arc<SlowLog>,
}

impl Observability {
    /// Fully enabled observability with the given ring capacity and
    /// slow-log K.
    pub fn enabled(ring_capacity: usize, slow_k: usize) -> Self {
        Observability {
            registry: MetricsRegistry::new(),
            ring: std::sync::Arc::new(TraceRing::new(ring_capacity)),
            slow: std::sync::Arc::new(SlowLog::new(slow_k)),
        }
    }

    /// Everything off: no-op registry handles, zero-capacity ring and
    /// slow log. This is the baseline `bench_suite`'s
    /// `obs.overhead_share` measures telemetry against.
    pub fn disabled() -> Self {
        Observability {
            registry: MetricsRegistry::disabled(),
            ring: std::sync::Arc::new(TraceRing::new(0)),
            slow: std::sync::Arc::new(SlowLog::new(0)),
        }
    }

    /// True when any recording would be kept (registry enabled or ring
    /// capacity nonzero).
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled() || self.ring.capacity() > 0 || self.slow.capacity() > 0
    }
}

impl Default for Observability {
    /// The service default: enabled registry, 256-trace ring, top-16
    /// slow log.
    fn default() -> Self {
        Observability::enabled(256, 16)
    }
}

/// Escape a string for inclusion in a JSON string literal.
///
/// Shared by every exposition path in this crate (and usable by
/// downstream crates that hand-format JSON the same way the rest of
/// the workspace does).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a number as a JSON value: a finite `v` as `format!("{v}")`
/// (the shortest text that parses back to the same bits), anything else
/// as `null` — JSON has no NaN or infinity.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::json_num;

    #[test]
    fn json_num_prints_finite_values_exactly_and_the_rest_as_null() {
        // Display never switches to exponent notation: a subnormal and
        // 1e300 print every digit up to the shortest round-trip form.
        let subnormal = format!("0.{}11125369292536007", "0".repeat(307));
        let huge = format!("1{}", "0".repeat(300));
        for (v, text) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (f64::MIN_POSITIVE / 2.0, subnormal.as_str()),
            (0.1, "0.1"),
            (1e300, huge.as_str()),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(json_num(v), text, "{v:?}");
            if v.is_finite() {
                let back: f64 = text.parse().unwrap();
                assert_eq!(back.to_bits(), v.to_bits(), "{v:?} reads back");
            }
        }
    }
}
