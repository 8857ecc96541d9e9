//! The service's one book of counters.
//!
//! Every number the service reports about itself lives in the
//! [`lts_obs::MetricsRegistry`] behind [`ServeMetrics`]; nothing else
//! counts. [`ServeMetrics::book`] is the only writer of the
//! per-response counters — `seal` calls it once per sealed response —
//! and [`ServeMetrics::stats`] projects the public [`ServiceStats`]
//! out of the same handles, so the `stats` protocol line and the
//! `metrics` exposition cannot drift. Two consequences of keeping one
//! book: a service built on `Observability::disabled()` reports
//! all-zero `stats` (every handle is detached), and services sharing a
//! registry share their `stats`.

use super::{Response, ServiceStats};
use lts_obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceEvent};

/// `request_evals` histogram bucket bounds (inclusive upper edges).
const EVALS_BOUNDS: &[u64] = &[0, 10, 100, 1_000, 10_000, 100_000];

/// `wall_request_micros` histogram bounds. A `wall_*` metric: zeroed
/// in masked expositions.
const WALL_BOUNDS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000];

/// Declares [`ServeMetrics`] and its constructor from one list, so each
/// fixed-name metric is written once: the field is named as its
/// registry key.
macro_rules! serve_metrics {
    (counters: $($counter:ident)*; gauges: $($gauge:ident)*;) => {
        /// Pre-resolved metric handles. [`lts_obs::MetricsRegistry`]
        /// lookups take a map lock and allocate the key on every call;
        /// the request hot path instead resolves every fixed-name handle
        /// once, here, at service construction. A side effect that the
        /// metrics surface relies on: every fixed-name metric exists (at
        /// zero) from the first snapshot, so expositions have a stable
        /// key set.
        pub(super) struct ServeMetrics {
            registry: MetricsRegistry,
            $($counter: Counter,)*
            $($gauge: Gauge,)*
            request_evals: Histogram,
            wall_request_micros: Histogram,
        }

        impl ServeMetrics {
            pub(super) fn new(registry: &MetricsRegistry) -> Self {
                // No request is refused or coalesced: these keys stay
                // in the exposition at 0 (work-priced admission's
                // refusals are `requests_rejected`'s next writer).
                registry.counter("requests_rejected");
                registry.counter("served_followers");
                Self {
                    registry: registry.clone(),
                    $($counter: registry.counter(stringify!($counter)),)*
                    $($gauge: registry.gauge(stringify!($gauge)),)*
                    request_evals: registry.histogram("request_evals", EVALS_BOUNDS),
                    wall_request_micros: registry.histogram("wall_request_micros", WALL_BOUNDS),
                }
            }
        }
    };
}

serve_metrics! {
    counters:
        requests_total requests_errors
        served_cached served_warm served_cold served_exact served_fallback
        oracle_evals_total oracle_evals_cold oracle_evals_warm oracle_evals_exact
        oracle_evals_saved_cache oracle_evals_saved_warm
        evals_train evals_score evals_pilot evals_design evals_stage2 evals_exact evals_srs
        store_prepares store_resumes cache_hits cache_misses;
    gauges: store_entries cache_entries datasets;
}

impl ServeMetrics {
    /// Attribute phase evals to the matching partition counter.
    /// Unknown phase names (none today) pay the registry lookup.
    fn add_phase_evals(&self, phase: &str, evals: u64) {
        match phase {
            "train" => self.evals_train.add(evals),
            "score" => self.evals_score.add(evals),
            "pilot" => self.evals_pilot.add(evals),
            "design" => self.evals_design.add(evals),
            "stage2" => self.evals_stage2.add(evals),
            "exact" => self.evals_exact.add(evals),
            other => self.registry.counter(&format!("evals_{other}")).add(evals),
        }
    }

    /// Book one sealed response — the only writer of the per-response
    /// counters. `cache` and `store` are the request's cache and store
    /// outcomes (the strings its span's `cache` / `store` events carry;
    /// empty when it never got that far) and `saved` the oracle
    /// evaluations the answer did not have to spend: the cached
    /// computation's cost for a hit, the skipped prepare for a warm
    /// resume.
    pub(super) fn book(&self, r: &Response, cache: &str, store: &str, saved: u64) {
        self.requests_total.inc();
        let evals = r.evals as u64;
        match r.served {
            "cached" => {
                self.served_cached.inc();
                self.oracle_evals_saved_cache.add(saved);
            }
            "exact" => {
                self.served_exact.inc();
                self.oracle_evals_exact.add(evals);
            }
            "cold" => {
                self.served_cold.inc();
                self.oracle_evals_cold.add(evals);
                if r.route == "srs" {
                    self.served_fallback.inc();
                }
            }
            "warm" => {
                self.served_warm.inc();
                self.oracle_evals_warm.add(evals);
                self.store_resumes.inc();
                self.oracle_evals_saved_warm.add(saved);
            }
            _ => self.requests_errors.inc(),
        }
        match cache {
            "hit" => self.cache_hits.inc(),
            "miss" => self.cache_misses.inc(),
            _ => {}
        }
        if store == "cold-prepare" {
            self.store_prepares.inc();
        }
        // Everything past the cache probe was executed; the histograms
        // observe those requests only.
        if matches!(cache, "miss" | "bypass-fresh") {
            self.oracle_evals_total.add(evals);
            self.request_evals.observe(evals);
            self.wall_request_micros.observe(r.wall_micros);
        }
    }

    /// Feed the per-phase partition of `oracle_evals_total` from a
    /// sealed request's span. An SRS fallback's draw is its `stage2`
    /// event, booked as `srs`.
    pub(super) fn attribute(&self, r: &Response, events: &[TraceEvent]) {
        for ev in events {
            match ev {
                TraceEvent::Phase { phase, evals, .. } => self.add_phase_evals(phase, *evals),
                TraceEvent::Stage2 { evals, .. } if r.route == "srs" => self.evals_srs.add(*evals),
                TraceEvent::Stage2 { evals, .. } => self.evals_stage2.add(*evals),
                _ => {}
            }
        }
        // An exact scan has no instrumented interior: its evals are
        // attributed from the sealed response.
        if r.served == "exact" {
            self.evals_exact.add(r.evals as u64);
        }
    }

    /// Point-in-time levels of the stateful stores.
    pub(super) fn set_levels(&self, store: usize, cache: usize, datasets: usize) {
        self.store_entries.set(store as i64);
        self.cache_entries.set(cache as i64);
        self.datasets.set(datasets as i64);
    }

    /// The public [`ServiceStats`], read off the registry handles.
    pub(super) fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests_total.get(),
            errors: self.requests_errors.get(),
            exact: self.served_exact.get(),
            cold: self.served_cold.get(),
            warm: self.served_warm.get(),
            cached: self.served_cached.get(),
            oracle_evals: self.oracle_evals_total.get(),
            oracle_evals_cold: self.oracle_evals_cold.get(),
            oracle_evals_warm: self.oracle_evals_warm.get(),
            oracle_evals_exact: self.oracle_evals_exact.get(),
            oracle_evals_saved: self.oracle_evals_saved_cache.get(),
        }
    }
}
