//! The process-wide metrics registry: named counters, gauges, and
//! fixed-bound histograms with atomic recording.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones; recording through one is a single atomic RMW with no lock.
//! A registry created with [`MetricsRegistry::disabled`] hands out
//! no-op handles whose recording compiles down to a branch on a
//! `None` — that is the baseline `bench_suite`'s `obs.overhead_share`
//! measures instrumentation overhead against.
//!
//! [`MetricsRegistry::snapshot`] takes a point-in-time
//! [`MetricsSnapshot`] sorted by metric name; the snapshot renders as
//! one-line JSON or Prometheus text. Both expositions take a
//! `mask_wall` flag that zeroes every metric whose name contains
//! `wall` — the only place wall-clock time is allowed to live — so CI
//! can diff outputs across thread counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle. No-op when detached.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a value that can go up and down. No-op when
/// detached.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Shared storage for one histogram: fixed inclusive upper bounds plus
/// an implicit `+Inf` bucket, a total count, and a sum of observed
/// values. Buckets are stored non-cumulative internally; the
/// Prometheus exposition cumulates them.
struct HistogramInner {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1 (last = +Inf)
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramInner {
    fn new(bounds: &[u64]) -> Self {
        let mut b: Vec<u64> = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        let buckets = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramInner {
            bounds: b,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// A fixed-bound histogram handle. No-op when detached.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// Record one observation. Lock-free: one bucket RMW plus count
    /// and sum.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Total number of observations (0 for a detached handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Non-cumulative per-bucket counts, last slot being `+Inf`
    /// (empty for a detached handle).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.as_ref().map_or_else(Vec::new, |h| {
            h.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect()
        })
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
}

/// The registry: a name → metric map handing out atomic handles.
/// Clones share the same underlying storage.
#[derive(Clone, Default)]
pub struct MetricsRegistry(Option<Arc<RegistryInner>>);

impl MetricsRegistry {
    /// A live registry.
    pub fn new() -> Self {
        MetricsRegistry(Some(Arc::new(RegistryInner::default())))
    }

    /// A registry whose every handle is a no-op (the overhead
    /// baseline).
    pub fn disabled() -> Self {
        MetricsRegistry(None)
    }

    /// True unless constructed with [`MetricsRegistry::disabled`].
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.0 {
            None => Counter(None),
            Some(inner) => {
                let mut map = inner.counters.lock().unwrap();
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter(Some(Arc::clone(cell)))
            }
        }
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.0 {
            None => Gauge(None),
            Some(inner) => {
                let mut map = inner.gauges.lock().unwrap();
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicI64::new(0)));
                Gauge(Some(Arc::clone(cell)))
            }
        }
    }

    /// Get or create the histogram named `name` with the given
    /// inclusive upper bounds (an implicit `+Inf` bucket is always
    /// appended). If the name already exists, the *existing* bounds
    /// win and `bounds` is ignored.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        match &self.0 {
            None => Histogram(None),
            Some(inner) => {
                let mut map = inner.histograms.lock().unwrap();
                let cell = map
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramInner::new(bounds)));
                Histogram(Some(Arc::clone(cell)))
            }
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name. A disabled registry snapshots as empty.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, MetricValue)> = Vec::new();
        if let Some(inner) = &self.0 {
            for (name, c) in inner.counters.lock().unwrap().iter() {
                entries.push((
                    name.clone(),
                    MetricValue::Counter(c.load(Ordering::Relaxed)),
                ));
            }
            for (name, g) in inner.gauges.lock().unwrap().iter() {
                entries.push((name.clone(), MetricValue::Gauge(g.load(Ordering::Relaxed))));
            }
            for (name, h) in inner.histograms.lock().unwrap().iter() {
                entries.push((
                    name.clone(),
                    MetricValue::Histogram {
                        bounds: h.bounds.clone(),
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                    },
                ));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }
}

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter value.
    Counter(u64),
    /// A gauge value.
    Gauge(i64),
    /// A histogram: sorted inclusive upper bounds, non-cumulative
    /// bucket counts (one more than `bounds`, last = `+Inf`), total
    /// count, and sum of observations.
    Histogram {
        /// Sorted inclusive upper bounds.
        bounds: Vec<u64>,
        /// Non-cumulative per-bucket counts; last slot is `+Inf`.
        buckets: Vec<u64>,
        /// Total observation count.
        count: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

/// A point-in-time, name-sorted view of the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

fn is_wall(name: &str) -> bool {
    name.contains("wall")
}

impl MetricsSnapshot {
    /// One-line JSON: a single flat object sorted by key. Histograms
    /// flatten to `name_le_<bound>`, `name_le_inf`, `name_count`, and
    /// `name_sum` keys. With `mask_wall`, every metric whose name
    /// contains `wall` renders as 0 — the wall mask CI relies on.
    pub fn to_json(&self, mask_wall: bool) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.entries.len());
        for (name, value) in &self.entries {
            let masked = mask_wall && is_wall(name);
            match value {
                MetricValue::Counter(v) => {
                    let v = if masked { 0 } else { *v };
                    parts.push(format!("\"{}\": {}", crate::json_escape(name), v));
                }
                MetricValue::Gauge(v) => {
                    let v = if masked { 0 } else { *v };
                    parts.push(format!("\"{}\": {}", crate::json_escape(name), v));
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                } => {
                    let esc = crate::json_escape(name);
                    for (i, b) in bounds.iter().enumerate() {
                        let v = if masked { 0 } else { buckets[i] };
                        parts.push(format!("\"{}_le_{}\": {}", esc, b, v));
                    }
                    let inf = if masked { 0 } else { buckets[bounds.len()] };
                    parts.push(format!("\"{}_le_inf\": {}", esc, inf));
                    parts.push(format!(
                        "\"{}_count\": {}",
                        esc,
                        if masked { 0 } else { *count }
                    ));
                    parts.push(format!(
                        "\"{}_sum\": {}",
                        esc,
                        if masked { 0 } else { *sum }
                    ));
                }
            }
        }
        format!("{{{}}}", parts.join(", "))
    }

    /// Prometheus text exposition (version 0.0.4): `# TYPE` lines,
    /// cumulative `_bucket{le=...}` series, `_sum`/`_count`. The same
    /// `mask_wall` contract as [`MetricsSnapshot::to_json`].
    pub fn to_prometheus(&self, mask_wall: bool) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let masked = mask_wall && is_wall(name);
            match value {
                MetricValue::Counter(v) => {
                    let v = if masked { 0 } else { *v };
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    let v = if masked { 0 } else { *v };
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum,
                } => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (i, b) in bounds.iter().enumerate() {
                        cum += if masked { 0 } else { buckets[i] };
                        out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cum}\n"));
                    }
                    cum += if masked { 0 } else { buckets[bounds.len()] };
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
                    out.push_str(&format!("{name}_sum {}\n", if masked { 0 } else { *sum }));
                    out.push_str(&format!(
                        "{name}_count {}\n",
                        if masked { 0 } else { *count }
                    ));
                }
            }
        }
        out
    }

    /// Look up a counter/gauge value by name (counters as `u64`,
    /// gauges cast). Histograms return their `count`. `None` if the
    /// name is absent.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                MetricValue::Gauge(g) => *g as u64,
                MetricValue::Histogram { count, .. } => *count,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_atomically() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total");
        let c2 = reg.counter("requests_total");
        c.add(3);
        c2.inc();
        assert_eq!(c.get(), 4);
        let g = reg.gauge("store_entries");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn disabled_registry_hands_out_noop_handles() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = reg.histogram("h", &[1, 2]);
        h.observe(1);
        assert_eq!(h.count(), 0);
        assert!(reg.snapshot().entries.is_empty());
        assert_eq!(reg.snapshot().to_json(false), "{}");
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("evals", &[10, 100, 1000]);
        for v in [0, 10, 11, 100, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn snapshot_is_name_sorted_and_json_is_flat() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(2);
        reg.counter("a_total").inc();
        reg.histogram("evals", &[10]).observe(7);
        let json = reg.snapshot().to_json(false);
        assert_eq!(
            json,
            "{\"a_total\": 1, \"b_total\": 2, \"evals_le_10\": 1, \"evals_le_inf\": 0, \
             \"evals_count\": 1, \"evals_sum\": 7}"
        );
    }

    #[test]
    fn wall_metrics_are_masked_on_demand() {
        let reg = MetricsRegistry::new();
        reg.counter("wall_request_micros_total").add(123);
        reg.counter("requests_total").add(4);
        reg.histogram("wall_request_micros", &[100]).observe(50);
        let masked = reg.snapshot().to_json(true);
        assert!(masked.contains("\"wall_request_micros_total\": 0"));
        assert!(masked.contains("\"requests_total\": 4"));
        assert!(masked.contains("\"wall_request_micros_count\": 0"));
        let prom = reg.snapshot().to_prometheus(true);
        assert!(prom.contains("wall_request_micros_total 0"));
        assert!(prom.contains("requests_total 4"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("evals", &[10, 100]);
        for v in [1, 2, 50, 5000] {
            h.observe(v);
        }
        let prom = reg.snapshot().to_prometheus(false);
        assert!(prom.contains("evals_bucket{le=\"10\"} 2\n"));
        assert!(prom.contains("evals_bucket{le=\"100\"} 3\n"));
        assert!(prom.contains("evals_bucket{le=\"+Inf\"} 4\n"));
        assert!(prom.contains("evals_sum 5053\n"));
        assert!(prom.contains("evals_count 4\n"));
    }

    #[test]
    fn histogram_reregistration_keeps_existing_bounds() {
        let reg = MetricsRegistry::new();
        let h1 = reg.histogram("h", &[10]);
        let h2 = reg.histogram("h", &[1, 2, 3]);
        h1.observe(5);
        h2.observe(50);
        assert_eq!(h1.bucket_counts(), vec![1, 1]);
        assert_eq!(h2.bucket_counts(), vec![1, 1]);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = MetricsRegistry::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = reg.counter("n");
                let h = reg.histogram("h", &[64]);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(if i % 2 == 0 { 1 } else { 100 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("n").get(), 8000);
        assert_eq!(reg.histogram("h", &[]).count(), 8000);
        assert_eq!(
            reg.histogram("h", &[]).bucket_counts(),
            vec![8 * 500, 8 * 500]
        );
    }
}
