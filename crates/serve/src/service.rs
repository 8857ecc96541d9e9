//! The in-process counting service.
//!
//! # Request lifecycle
//!
//! ```text
//! condition ──parse──► Expr ──normalize──► canonical ──► fingerprint
//!     │                                         │
//!     │                              QueryCatalog (problem, meter,
//!     │                                 decomposition, physical plan)
//!     │                                         │
//!     ├── decomposed? exact prefilter scan ─► restricted residual plan
//!     ├── ResultCache hit? ──────────────► respond (0 evals, "cached")
//!     ├── planner: N small / target tight ─► exact census ("exact")
//!     ├── ModelStore hit? ────────────────► resume stage 2 ("warm")
//!     └── else: prepare (train+order+pilot+design), store, resume ("cold")
//! ```
//!
//! # Query planning
//!
//! A conjunctive query that splits into a subquery-free prefilter and
//! an oracle-bearing residual (`lts_table::decompose`) is planned in
//! two stages: the prefilter runs as a vectorized exact scan and the
//! survivors become a restricted problem (one memoized
//! `lts_core::PhysicalPlan` per catalog entry), and the planner then
//! chooses — census, exact residual census over the survivors, restricted
//! estimate, or fall back to the monolithic plan when the prefilter is
//! unselective ([`BudgetPlanner::choose`]). Scan outcomes feed a
//! [`SelectivityFeedback`] ledger keyed by canonical prefilter, so a
//! prefilter already known to be unselective routes monolithically
//! without re-scanning. Restricted warm states are stored under the
//! **residual** canonical scoped by the **prefilter** canonical
//! ([`StoreKey::scope`]); the result cache keys on the full canonical,
//! so decomposed spellings alias their monolithic twin.
//!
//! # Determinism
//!
//! Every response is a pure function of `(service seed, dataset
//! content + version, canonical query, planned budget, request id)` —
//! *never* of worker interleaving or arrival order:
//!
//! * model/design states are prepared under a seed derived from the
//!   **canonical query** (not the request that happened to arrive
//!   first), so whichever request triggers preparation, the state is
//!   bit-identical;
//! * cacheable (non-`fresh`) estimates run under a seed derived from
//!   the **cache key**, so the computed result is the same no matter
//!   which request computes it;
//! * `fresh` requests run under a seed derived from the **request id**
//!   — re-submitting the same id replays bit-identically;
//! * batches are admitted sequentially (the bounded queue) and heavy
//!   work fans out over the rayon worker pool in two barriers
//!   (prepare, then estimate), each a parallel map whose outputs are
//!   position-stable.
//!
//! The CI thread sweep (1 worker vs default) diffs whole response
//! streams with wall times masked.

use crate::cache::{CachedResult, ResultCache, ResultKey, StalenessPolicy};
use crate::catalog::{QueryCatalog, QueryDecomposition, QueryKey};
use crate::error::{ServeError, ServeResult};
use crate::fingerprint;
use crate::planner::{BudgetPlanner, QueryRoute, Route, SelectivityFeedback, Target};
use crate::store::{ModelStore, StoreKey, StoredModel, WarmState};
use lts_core::{
    fnv1a, mix_seed, CountEstimator, CountingProblem, LogicalPlan, Lss, PhysicalPlan, ShardPlan,
    Shardable, Srs,
};
use lts_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, Observability, SlowEntry, Trace, TraceEvent,
};
use lts_table::{
    decompose, parse_condition, DecomposedQuery, ExprPredicate, ObjectPredicate, PartitionedTable,
    Table, TableRegistry,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// The serve-tuned LSS profile: budget deliberately shifted into the
/// *reusable* phases (training 50%, pilot 65% of the sampling half), so
/// a warm start — which replays only stage 2 — spends ≥ 5× fewer
/// oracle evaluations than its cold start at the same designed CI
/// width. One-shot library use keeps `Lss::default()`; a service
/// amortizes the reusable phases across every repeat, which is the
/// paper's economic argument for learning to sample at all.
pub fn serve_lss_profile() -> Lss {
    Lss {
        train_frac: 0.5,
        pilot_frac: 0.65,
        min_pilots_per_stratum: 3,
        ..Lss::default()
    }
}

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Root seed of every derived seed stream.
    pub seed: u64,
    /// Bounded request queue: requests beyond this many per batch are
    /// rejected at admission.
    pub queue_capacity: usize,
    /// The admission planner.
    pub planner: BudgetPlanner,
    /// Result-cache staleness policy.
    pub staleness: StalenessPolicy,
    /// LSS profile for learned estimates (see [`serve_lss_profile`]).
    pub lss: Lss,
    /// Shards for cold estimates (1 = unsharded). With more than one
    /// shard, cold prepares run the full pipeline independently per
    /// shard of a [`ShardPlan::uniform`] layout — pure arithmetic over
    /// `N`, never thread- or partition-dependent — and merge the shard
    /// estimators with composed variance. Warm resumes replay whatever
    /// layout their state was prepared under.
    pub shards: usize,
    /// Echo each response's trace span as a `"trace"` field on the
    /// response JSON. Off by default, so existing response lines stay
    /// byte-identical; the span is still collected into the trace ring
    /// either way (when observability is enabled).
    pub trace: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            seed: 0x5345_5256_4531,
            queue_capacity: 64,
            planner: BudgetPlanner::default(),
            staleness: StalenessPolicy::default(),
            lss: serve_lss_profile(),
            shards: 1,
            trace: false,
        }
    }
}

/// One count request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen id; the replay key of `fresh` requests.
    pub id: u64,
    /// Registered dataset name.
    pub dataset: String,
    /// SQL-ish predicate text (the `lts_table::parser` grammar;
    /// subqueries may reference the dataset by its registered name).
    pub condition: String,
    /// Accuracy target or explicit budget.
    pub target: Target,
    /// `true` forces a fresh estimate (bypasses the result cache but
    /// still warm-starts from the model store).
    pub fresh: bool,
}

/// How a decomposed query was physically planned, echoed on its
/// responses. Absent for queries that do not decompose (and under the
/// forced-monolithic planner), so undecomposed response lines are
/// byte-identical to the pre-planning format.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// Route kind: `census`, `monolithic`, `exact_prefilter`, or
    /// `prefilter_estimate`.
    pub kind: &'static str,
    /// Canonical prefilter conjunction.
    pub prefilter: String,
    /// Canonical residual conjunction.
    pub residual: String,
    /// Full population size `N`.
    pub population: usize,
    /// Prefilter survivor count `M` — reported only on prefilter
    /// routes. Monolithic routes report `None` whether or not a scan
    /// ran, so the response never depends on which request arrived
    /// first (a selectivity-feedback hit skips the scan).
    pub survivors: Option<usize>,
    /// Observed selectivity `M/N`, under the same rule as `survivors`.
    pub selectivity: Option<f64>,
}

/// One response. All fields except `wall_micros` are deterministic for
/// a fixed service seed and request stream.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Whether the request produced an estimate.
    pub ok: bool,
    /// Error description when `ok` is false.
    pub error: Option<String>,
    /// Compact query id (hash of dataset, table version, canonical).
    pub fingerprint: u64,
    /// Execution route: `exact`, `lss`, or `srs` (empty on errors).
    pub route: &'static str,
    /// What served it: `cold`, `warm`, `cached`, `exact`, `error`, or
    /// `rejected`.
    pub served: &'static str,
    /// Point estimate of the count.
    pub estimate: f64,
    /// Standard error (0 for exact/cached-exact).
    pub std_error: f64,
    /// Confidence-interval bounds.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level of the interval.
    pub level: f64,
    /// Fresh oracle evaluations this request spent.
    pub evals: usize,
    /// Planned labeling budget (0 on the exact route).
    pub budget: usize,
    /// Digest of the warm state that produced the estimate (0 for
    /// exact/srs).
    pub model_version: u64,
    /// Table version answered against.
    pub table_version: u64,
    /// Wall time of this request's execution, in microseconds
    /// (non-deterministic; maskable in replay diffs).
    pub wall_micros: u64,
    /// Physical plan of a decomposed query (`None` for queries that do
    /// not decompose).
    pub plan: Option<PlanSummary>,
    /// The request's trace span, present only when
    /// [`ServiceConfig::trace`] is on and observability is enabled.
    /// Rendered under the same `mask_wall` flag as the rest of the
    /// response, so deterministic replays diff clean.
    pub trace: Option<Trace>,
}

impl Response {
    fn empty(id: u64) -> Self {
        Response {
            id,
            ok: false,
            error: None,
            fingerprint: 0,
            route: "",
            served: "error",
            estimate: 0.0,
            std_error: 0.0,
            lo: 0.0,
            hi: 0.0,
            level: 0.0,
            evals: 0,
            budget: 0,
            model_version: 0,
            table_version: 0,
            wall_micros: 0,
            plan: None,
            trace: None,
        }
    }

    fn failed(id: u64, err: &ServeError) -> Self {
        Response {
            error: Some(err.to_string()),
            served: if matches!(err, ServeError::Overloaded { .. }) {
                "rejected"
            } else {
                "error"
            },
            ..Response::empty(id)
        }
    }

    /// Render as one JSON object (stable key order). `mask_wall`
    /// zeroes the wall-time field so deterministic replays diff clean.
    pub fn to_json(&self, mask_wall: bool) -> String {
        let esc = json_escape;
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let plan = match &self.plan {
            Some(p) => format!(
                ", \"plan\": {{\"kind\": \"{}\", \"prefilter\": \"{}\", \
                 \"residual\": \"{}\", \"population\": {}, \"survivors\": {}, \
                 \"selectivity\": {}}}",
                p.kind,
                esc(&p.prefilter),
                esc(&p.residual),
                p.population,
                p.survivors
                    .map_or_else(|| "null".to_string(), |s| s.to_string()),
                p.selectivity.map_or_else(|| "null".to_string(), num),
            ),
            None => String::new(),
        };
        format!(
            "{{\"id\": {}, \"ok\": {}, \"served\": \"{}\", \"route\": \"{}\", \
             \"fingerprint\": \"{:016x}\", \"estimate\": {}, \"std_error\": {}, \
             \"lo\": {}, \"hi\": {}, \"level\": {}, \"evals\": {}, \"budget\": {}, \
             \"model_version\": \"{:016x}\", \"table_version\": {}, \
             \"wall_micros\": {}{}{}{}}}",
            self.id,
            self.ok,
            self.served,
            self.route,
            self.fingerprint,
            num(self.estimate),
            num(self.std_error),
            num(self.lo),
            num(self.hi),
            num(self.level),
            self.evals,
            self.budget,
            self.model_version,
            self.table_version,
            if mask_wall { 0 } else { self.wall_micros },
            plan,
            match &self.trace {
                Some(t) => format!(", \"trace\": {}", t.to_json(mask_wall)),
                None => String::new(),
            },
            match &self.error {
                Some(e) => format!(", \"error\": \"{}\"", esc(e)),
                None => String::new(),
            },
        )
    }
}

/// Escape a string for embedding in a JSON string literal: quotes,
/// backslashes, and **every** control character (parse errors can echo
/// arbitrary request bytes; a raw control byte would make the response
/// line invalid JSON).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Aggregate service counters (all deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests admitted (including errors).
    pub requests: u64,
    /// Requests rejected at the queue bound.
    pub rejected: u64,
    /// Requests that failed (parse/plan/execution).
    pub errors: u64,
    /// Responses served by the exact census.
    pub exact: u64,
    /// Cold starts (prepared a model/design).
    pub cold: u64,
    /// Warm starts (resumed a stored state).
    pub warm: u64,
    /// Result-cache hits (including in-batch coalescing).
    pub cached: u64,
    /// Fresh oracle evaluations spent, total.
    pub oracle_evals: u64,
    /// … spent by cold starts (prepare + stage 2).
    pub oracle_evals_cold: u64,
    /// … spent by warm starts (stage 2 only).
    pub oracle_evals_warm: u64,
    /// … spent by exact censuses.
    pub oracle_evals_exact: u64,
    /// Oracle evaluations cache hits would have cost (the savings).
    pub oracle_evals_saved: u64,
}

/// Recipe of a generated dataset (the `register` protocol command):
/// enough to re-generate the identical table on restart, which is what
/// the durable-state snapshot persists instead of raw rows.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DatasetSpec {
    /// Generator kind: `sports` or `neighbors`.
    pub kind: String,
    /// Row count.
    pub rows: usize,
    /// Selectivity level name (`XS` … `XXL`).
    pub level: String,
    /// Generator seed.
    pub seed: u64,
}

struct DatasetState {
    table: PartitionedTable,
    feature_cols: Vec<String>,
    registry: TableRegistry,
    /// Present for datasets registered through a generator recipe;
    /// `None` for tables handed in directly (those cannot be
    /// re-generated and are not persisted by the state snapshot).
    spec: Option<DatasetSpec>,
}

/// The in-process concurrent counting service.
pub struct Service {
    config: ServiceConfig,
    datasets: HashMap<String, DatasetState>,
    catalog: QueryCatalog,
    store: ModelStore,
    cache: ResultCache,
    stats: ServiceStats,
    feedback: SelectivityFeedback,
    obs: Observability,
    metrics: Arc<ServeMetrics>,
}

/// Pre-resolved metric handles. [`lts_obs::MetricsRegistry`] lookups
/// take a map lock and allocate the key on every call; the request hot
/// path instead resolves every fixed-name handle once, here, at
/// service construction. A side effect that the metrics surface
/// relies on: every fixed-name metric exists (at zero) from the first
/// snapshot, so expositions have a stable key set.
struct ServeMetrics {
    registry: MetricsRegistry,
    requests_total: Counter,
    requests_rejected: Counter,
    requests_errors: Counter,
    served_cached: Counter,
    served_warm: Counter,
    served_cold: Counter,
    served_exact: Counter,
    served_fallback: Counter,
    served_followers: Counter,
    oracle_evals_total: Counter,
    oracle_evals_saved_cache: Counter,
    oracle_evals_saved_warm: Counter,
    evals_train: Counter,
    evals_score: Counter,
    evals_pilot: Counter,
    evals_design: Counter,
    evals_stage2: Counter,
    evals_exact: Counter,
    evals_srs: Counter,
    evals_sharded: Counter,
    pages_evaluated: Counter,
    pages_skipped: Counter,
    store_prepares: Counter,
    store_resumes: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    store_entries: Gauge,
    cache_entries: Gauge,
    datasets: Gauge,
    request_evals: Histogram,
    wall_request_micros: Histogram,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            registry: registry.clone(),
            requests_total: registry.counter("requests_total"),
            requests_rejected: registry.counter("requests_rejected"),
            requests_errors: registry.counter("requests_errors"),
            served_cached: registry.counter("served_cached"),
            served_warm: registry.counter("served_warm"),
            served_cold: registry.counter("served_cold"),
            served_exact: registry.counter("served_exact"),
            served_fallback: registry.counter("served_fallback"),
            served_followers: registry.counter("served_followers"),
            oracle_evals_total: registry.counter("oracle_evals_total"),
            oracle_evals_saved_cache: registry.counter("oracle_evals_saved_cache"),
            oracle_evals_saved_warm: registry.counter("oracle_evals_saved_warm"),
            evals_train: registry.counter("evals_train"),
            evals_score: registry.counter("evals_score"),
            evals_pilot: registry.counter("evals_pilot"),
            evals_design: registry.counter("evals_design"),
            evals_stage2: registry.counter("evals_stage2"),
            evals_exact: registry.counter("evals_exact"),
            evals_srs: registry.counter("evals_srs"),
            evals_sharded: registry.counter("evals_sharded"),
            pages_evaluated: registry.counter("pages_evaluated"),
            pages_skipped: registry.counter("pages_skipped"),
            store_prepares: registry.counter("store_prepares"),
            store_resumes: registry.counter("store_resumes"),
            cache_hits: registry.counter("cache_hits"),
            cache_misses: registry.counter("cache_misses"),
            store_entries: registry.gauge("store_entries"),
            cache_entries: registry.gauge("cache_entries"),
            datasets: registry.gauge("datasets"),
            request_evals: registry.histogram("request_evals", EVALS_BOUNDS),
            wall_request_micros: registry.histogram("wall_request_micros", WALL_BOUNDS),
        }
    }

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
}

// ------------------------------------------------------------ internals

/// A resolved query: the catalog entry's artifacts, cloned out so the
/// borrow on the catalog ends before planning mutates other state.
struct ResolvedQuery {
    canonical: String,
    fingerprint: u64,
    table_version: u64,
    problem: Arc<CountingProblem>,
    decomposition: Option<Arc<QueryDecomposition>>,
}

/// Execution route after planning (the physical analogue of
/// [`Route`]): which problem to run, under what store identity.
enum PlannedRoute {
    /// Exact count: through `plan` when the prefilter route chose it
    /// (residual census over the survivors; zero oracle evaluations
    /// when none survived), else a census over `exec_problem`.
    Exact { plan: Option<Arc<PhysicalPlan>> },
    /// Estimate over `exec_problem` under this budget.
    Estimate { budget: usize },
}

/// The physical plan of one admitted request.
struct PlannedQuery {
    route: PlannedRoute,
    /// The problem execution runs against: the catalog problem for
    /// monolithic plans, the restricted residual problem for prefilter
    /// plans.
    exec_problem: Arc<CountingProblem>,
    /// Canonical string the model store keys on (full query for
    /// monolithic, residual for prefiltered).
    store_canonical: String,
    /// Store scope (empty for monolithic, canonical prefilter for
    /// prefiltered — see [`StoreKey::scope`]).
    store_scope: String,
    /// Plan echo for the response (`None` for undecomposed queries).
    summary: Option<PlanSummary>,
}

struct Admitted {
    pos: usize,
    id: u64,
    dataset: String,
    canonical: String,
    raw: String,
    fingerprint: u64,
    table_version: u64,
    planned: PlannedQuery,
    fresh: bool,
}

enum ComputeKind {
    Exact { plan: Option<Arc<PhysicalPlan>> },
    Resume { store_key: StoreKey },
    SrsFallback,
}

struct ComputeItem {
    pos: usize,
    kind: ComputeKind,
    problem: Arc<CountingProblem>,
    seed: u64,
    budget: usize,
    is_cold: bool,
    cache_key: Option<ResultKey>,
}

struct Computed {
    pos: usize,
    result: ServeResult<ComputedOk>,
    wall_micros: u64,
}

struct ComputedOk {
    estimate: f64,
    std_error: f64,
    lo: f64,
    hi: f64,
    level: f64,
    evals: usize,
    route: &'static str,
    model_version: u64,
}

impl Service {
    /// Create a service with default observability (metrics registry
    /// on, 256-trace ring, top-16 slow log).
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_observability(config, Observability::default())
    }

    /// Create a service with an explicit observability bundle — share
    /// one registry across services, or pass
    /// [`Observability::disabled`] to make every telemetry touchpoint
    /// a no-op (the overhead baseline `bench_obs` measures against).
    pub fn with_observability(config: ServiceConfig, obs: Observability) -> Self {
        let metrics = Arc::new(ServeMetrics::new(&obs.registry));
        Self {
            config,
            datasets: HashMap::new(),
            catalog: QueryCatalog::new(),
            store: ModelStore::new(),
            cache: ResultCache::new(config.staleness),
            stats: ServiceStats::default(),
            feedback: SelectivityFeedback::new(),
            obs,
            metrics,
        }
    }

    /// The service's observability bundle (registry, trace ring, slow
    /// log) — the surface behind the `metrics` / `trace` / `slow`
    /// protocol commands and the Prometheus scrape endpoint.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Register (or replace) a dataset. Replacing bumps the version and
    /// invalidates every derived artifact.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown/non-numeric feature columns.
    pub fn register_dataset(
        &mut self,
        name: &str,
        table: Arc<Table>,
        feature_cols: &[&str],
    ) -> ServeResult<()> {
        for c in feature_cols {
            table.floats(c)?;
        }
        // A replacement keeps the version lineage and bumps it once
        // (via the shared invalidation path below).
        let existing = self.datasets.get(name).map(|ds| ds.table.version());
        let registry = TableRegistry::new().register(name, Arc::clone(&table));
        let state = DatasetState {
            table: PartitionedTable::auto(table).with_version(existing.unwrap_or(0)),
            feature_cols: feature_cols.iter().map(|s| s.to_string()).collect(),
            registry,
            spec: None,
        };
        self.datasets.insert(name.to_string(), state);
        if existing.is_some() {
            self.invalidate(name)?;
        }
        Ok(())
    }

    /// Register (or replace) a dataset from a generator recipe — the
    /// path behind the protocol's `register` command. The recipe is
    /// recorded so the durable-state snapshot can re-generate the
    /// identical table on restart.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] for an unknown kind or level, or
    /// a generator/registration failure.
    pub fn register_generated(&mut self, name: &str, spec: &DatasetSpec) -> ServeResult<()> {
        let invalid = |message: String| ServeError::Invalid { message };
        let level = match spec.level.as_str() {
            "XS" => lts_data::SelectivityLevel::XS,
            "S" => lts_data::SelectivityLevel::S,
            "M" => lts_data::SelectivityLevel::M,
            "L" => lts_data::SelectivityLevel::L,
            "XL" => lts_data::SelectivityLevel::XL,
            "XXL" => lts_data::SelectivityLevel::XXL,
            other => return Err(invalid(format!("unknown selectivity level `{other}`"))),
        };
        let (table, cols) = match spec.kind.as_str() {
            "sports" => (
                lts_data::sports_scenario(spec.rows, level, spec.seed)
                    .map_err(|e| invalid(e.to_string()))?
                    .table,
                ["strikeouts", "wins"],
            ),
            "neighbors" => (
                lts_data::neighbors_scenario(spec.rows, level, spec.seed)
                    .map_err(|e| invalid(e.to_string()))?
                    .table,
                ["src_rate", "dst_rate"],
            ),
            other => return Err(invalid(format!("unknown dataset kind `{other}`"))),
        };
        self.register_dataset(name, table, &cols)?;
        if let Some(ds) = self.datasets.get_mut(name) {
            ds.spec = Some(spec.clone());
        }
        Ok(())
    }

    /// The generator recipes of every re-generatable dataset, with the
    /// current table version — the dataset section of a state snapshot.
    /// Sorted by name for stable output.
    pub fn dataset_specs(&self) -> Vec<(String, DatasetSpec, u64)> {
        let mut out: Vec<(String, DatasetSpec, u64)> = self
            .datasets
            .iter()
            .filter_map(|(name, ds)| {
                ds.spec
                    .as_ref()
                    .map(|spec| (name.clone(), spec.clone(), ds.table.version()))
            })
            .collect();
        out.sort();
        out
    }

    /// Every live result-cache entry, sorted by key — the cache section
    /// of a state snapshot.
    pub fn cache_entries(&self) -> Vec<(ResultKey, CachedResult)> {
        let mut out: Vec<(ResultKey, CachedResult)> = self
            .cache
            .entries()
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        out.sort_by(|a, b| {
            (&a.0.dataset, &a.0.canonical, a.0.budget).cmp(&(
                &b.0.dataset,
                &b.0.canonical,
                b.0.budget,
            ))
        });
        out
    }

    /// Re-insert a cached result restored from a state snapshot (the
    /// serve counter restarts at zero; the staleness clock restarts
    /// now).
    #[allow(clippy::too_many_arguments)]
    pub fn restore_cached(
        &mut self,
        key: ResultKey,
        count: f64,
        std_error: f64,
        lo: f64,
        hi: f64,
        level: f64,
        evals_spent: usize,
        model_version: u64,
        table_version: u64,
        route: &'static str,
    ) {
        self.cache.insert(
            key,
            count,
            std_error,
            lo,
            hi,
            level,
            evals_spent,
            model_version,
            table_version,
            route,
        );
    }

    /// Bump a dataset's version and drop every artifact derived from it
    /// (catalog problems, warm states, cached results). Use after
    /// mutating the backing data out-of-band.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown dataset.
    pub fn invalidate(&mut self, name: &str) -> ServeResult<()> {
        let ds = self
            .datasets
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownDataset { name: name.into() })?;
        ds.table.bump_version();
        self.catalog.invalidate_dataset(name);
        self.store.invalidate_dataset(name);
        self.cache.invalidate_dataset(name);
        self.feedback.invalidate_dataset(name);
        Ok(())
    }

    /// Current version stamp of a dataset.
    pub fn dataset_version(&self, name: &str) -> Option<u64> {
        self.datasets.get(name).map(|d| d.table.version())
    }

    /// Population size of a dataset.
    pub fn dataset_len(&self, name: &str) -> Option<usize> {
        self.datasets.get(name).map(|d| d.table.len())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Distinct queries seen.
    pub fn catalog_len(&self) -> usize {
        self.catalog.len()
    }

    /// Warm states held.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Cached results held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Serve one request (a batch of one).
    pub fn run(&mut self, request: Request) -> Response {
        self.run_batch(vec![request]).pop().expect("one response")
    }

    /// Serve a batch: sequential admission (bounded queue, planning,
    /// cache consultation), then two parallel waves over the rayon
    /// worker pool — prepare missing warm states, then execute the
    /// per-request work. Responses align with the input order.
    pub fn run_batch(&mut self, requests: Vec<Request>) -> Vec<Response> {
        let n_req = requests.len();
        let mut responses: Vec<Option<Response>> = (0..n_req).map(|_| None).collect();
        let tracing = self.obs.is_enabled();
        let metrics = Arc::clone(&self.metrics);
        // Trace events gathered so far, per request position. Admission
        // runs under a collector so planning-time emissions (the
        // prefilter scan) land in the right request's span.
        let mut spans: HashMap<usize, Vec<TraceEvent>> = HashMap::new();

        // ---------------------------------------------- admission (seq)
        let mut admitted: Vec<Admitted> = Vec::new();
        for (pos, req) in requests.into_iter().enumerate() {
            if pos >= self.config.queue_capacity {
                self.stats.rejected += 1;
                metrics.requests_rejected.inc();
                responses[pos] = Some(Response::failed(
                    req.id,
                    &ServeError::Overloaded {
                        capacity: self.config.queue_capacity,
                    },
                ));
                continue;
            }
            self.stats.requests += 1;
            metrics.requests_total.inc();
            let (outcome, events) = if tracing {
                lts_obs::trace::collect(|| self.admit(pos, req))
            } else {
                (self.admit(pos, req), Vec::new())
            };
            match outcome {
                Ok(adm) => {
                    if tracing {
                        spans.insert(pos, events);
                    }
                    admitted.push(adm);
                }
                Err((id, e)) => {
                    self.stats.errors += 1;
                    metrics.requests_errors.inc();
                    responses[pos] = Some(Response::failed(id, &e));
                }
            }
        }

        // Deterministic flag/seed assignment processes admitted requests
        // in request-id order (ties broken by arrival position).
        admitted.sort_by_key(|a| (a.id, a.pos));

        // ------------------------- cache consult + work planning (seq)
        let mut compute: Vec<ComputeItem> = Vec::new();
        // Cacheable computations already claimed in this batch:
        // cache key → position of the computing request.
        let mut in_flight: HashMap<ResultKey, usize> = HashMap::new();
        // Followers to fill from a computing request's response.
        let mut followers: Vec<(usize, usize, u64)> = Vec::new(); // (pos, leader_pos, id)
                                                                  // Store keys needing preparation this batch.
        let mut needed: Vec<(StoreKey, Arc<CountingProblem>, u64, String)> = Vec::new();
        let mut needed_seen: HashSet<StoreKey> = HashSet::new();
        // Which store keys were missing (their first resumer is "cold").
        let mut cold_claimed: HashSet<StoreKey> = HashSet::new();

        for adm in &admitted {
            let budget = match adm.planned.route {
                PlannedRoute::Exact { .. } => 0,
                PlannedRoute::Estimate { budget } => budget,
            };
            // The result cache keys on the FULL canonical query, so a
            // decomposed spelling aliases its monolithic twin.
            let cache_key = ResultKey {
                dataset: adm.dataset.clone(),
                canonical: adm.canonical.clone(),
                budget,
            };
            if !adm.fresh {
                if let Some(hit) = self.cache.lookup(&cache_key, adm.table_version) {
                    self.stats.cached += 1;
                    self.stats.oracle_evals_saved += hit.evals_spent as u64;
                    metrics.served_cached.inc();
                    metrics.cache_hits.inc();
                    metrics.oracle_evals_saved_cache.add(hit.evals_spent as u64);
                    let mut response = Response {
                        id: adm.id,
                        ok: true,
                        error: None,
                        fingerprint: adm.fingerprint,
                        route: hit.route,
                        served: "cached",
                        estimate: hit.count,
                        std_error: hit.std_error,
                        lo: hit.lo,
                        hi: hit.hi,
                        level: hit.level,
                        evals: 0,
                        budget,
                        model_version: hit.model_version,
                        table_version: adm.table_version,
                        wall_micros: 0,
                        plan: adm.planned.summary.clone(),
                        trace: None,
                    };
                    if tracing {
                        let mut events = vec![TraceEvent::Route {
                            route: response.route,
                            kind: plan_kind(&adm.planned).to_string(),
                        }];
                        events.extend(spans.remove(&adm.pos).unwrap_or_default());
                        events.push(TraceEvent::Cache { outcome: "hit" });
                        events.push(TraceEvent::Served {
                            served: "cached",
                            evals: 0,
                            wall_micros: 0,
                        });
                        self.finish_span(adm.id, adm.fingerprint, &mut response, events);
                    }
                    responses[adm.pos] = Some(response);
                    continue;
                }
                metrics.cache_misses.inc();
                // In-batch coalescing: identical cacheable requests are
                // computed once (single-flight); the rest are "cached".
                if let Some(&leader_pos) = in_flight.get(&cache_key) {
                    followers.push((adm.pos, leader_pos, adm.id));
                    continue;
                }
                in_flight.insert(cache_key.clone(), adm.pos);
                if tracing {
                    spans
                        .entry(adm.pos)
                        .or_default()
                        .push(TraceEvent::Cache { outcome: "miss" });
                }
            } else if tracing {
                spans.entry(adm.pos).or_default().push(TraceEvent::Cache {
                    outcome: "bypass-fresh",
                });
            }

            let (kind, is_cold) = match &adm.planned.route {
                PlannedRoute::Exact { plan } => (ComputeKind::Exact { plan: plan.clone() }, false),
                &PlannedRoute::Estimate { budget } => {
                    let store_key = StoreKey {
                        dataset: adm.dataset.clone(),
                        canonical: adm.planned.store_canonical.clone(),
                        scope: adm.planned.store_scope.clone(),
                        budget,
                    };
                    // Evict any stale state now (sequential), so the
                    // parallel wave reads immutably.
                    let present = self.store.lookup(&store_key, adm.table_version).is_some();
                    let is_cold = if present {
                        false
                    } else {
                        if needed_seen.insert(store_key.clone()) {
                            needed.push((
                                store_key.clone(),
                                Arc::clone(&adm.planned.exec_problem),
                                adm.table_version,
                                adm.raw.clone(),
                            ));
                        }
                        // First (lowest-id) resumer of a freshly
                        // prepared state reports the cold start.
                        cold_claimed.insert(store_key.clone())
                    };
                    (ComputeKind::Resume { store_key }, is_cold)
                }
            };
            let seed = if adm.fresh {
                mix_seed(self.config.seed, mix_seed(adm.id, 0x0046_5245_5348))
            } else {
                mix_seed(self.config.seed, result_key_hash(&cache_key))
            };
            compute.push(ComputeItem {
                pos: adm.pos,
                kind,
                problem: Arc::clone(&adm.planned.exec_problem),
                seed,
                budget,
                is_cold,
                cache_key: (!adm.fresh).then_some(cache_key),
            });
        }

        // ------------------------------- wave 1: prepare states (par)
        let lss = self.config.lss;
        let service_seed = self.config.seed;
        let shards = self.config.shards.max(1);
        let prepared: Vec<Prepared> = needed
            .into_par_iter()
            .map(|(key, problem, table_version, raw)| {
                let work = || {
                    let prepare_seed = mix_seed(service_seed, store_key_hash(&key, table_version));
                    let state = if shards > 1 {
                        ShardPlan::uniform(problem.n(), shards).and_then(|plan| {
                            lss.prepare_sharded(&problem, &plan, key.budget, prepare_seed)
                                .map(WarmState::LssSharded)
                        })
                    } else {
                        lss.prepare(&problem, key.budget, prepare_seed)
                            .map(WarmState::Lss)
                    };
                    state
                        .map(|state| StoredModel {
                            state,
                            table_version,
                            prepare_seed,
                            raw_condition: raw.clone(),
                            resumes: 0,
                        })
                        .map_err(ServeError::from)
                };
                // A collector per closure: events emitted by the
                // prepare pipeline are keyed by store key here and
                // attached to the cold claimant at settle.
                let (result, events) = if tracing {
                    lts_obs::trace::collect(work)
                } else {
                    (work(), Vec::new())
                };
                (key, table_version, raw, result, events)
            })
            .collect();
        // States that failed to prepare fall back to per-request SRS.
        let mut unpreparable: HashSet<StoreKey> = HashSet::new();
        let mut prepare_events: HashMap<StoreKey, Vec<TraceEvent>> = HashMap::new();
        for (key, _version, _raw, result, events) in prepared {
            match result {
                Ok(stored) => {
                    metrics.store_prepares.inc();
                    if tracing {
                        prepare_events.insert(key.clone(), events);
                    }
                    self.store.insert(key, stored);
                }
                Err(_) => {
                    unpreparable.insert(key);
                }
            }
        }
        for item in &mut compute {
            if let ComputeKind::Resume { store_key } = &item.kind {
                if unpreparable.contains(store_key) {
                    item.kind = ComputeKind::SrsFallback;
                    item.is_cold = true;
                }
            }
        }

        // ------------------------------------ wave 2: execute (par)
        let store = &self.store;
        let mut computed: Vec<(Computed, Vec<TraceEvent>)> = compute
            .iter()
            .map(|item| ExecItem {
                pos: item.pos,
                kind: match &item.kind {
                    ComputeKind::Exact { plan } => ExecKind::Exact {
                        plan: plan.as_deref(),
                    },
                    ComputeKind::SrsFallback => ExecKind::Srs,
                    ComputeKind::Resume { store_key } => ExecKind::Resume {
                        stored: store.get(store_key),
                    },
                },
                problem: Arc::clone(&item.problem),
                seed: item.seed,
                budget: item.budget,
                is_cold: item.is_cold,
            })
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|item| {
                if tracing {
                    lts_obs::trace::collect(|| execute(item, lss))
                } else {
                    (execute(item, lss), Vec::new())
                }
            })
            .collect();

        // ------------------------------------------- settle (seq)
        let mut by_pos: HashMap<usize, usize> = HashMap::new();
        for (k, (c, _)) in computed.iter().enumerate() {
            by_pos.insert(c.pos, k);
        }
        for item in &compute {
            let (c, exec_events) = &mut computed[by_pos[&item.pos]];
            let exec_events = std::mem::take(exec_events);
            let c = &*c;
            let adm = admitted
                .iter()
                .find(|a| a.pos == item.pos)
                .expect("computed implies admitted");
            let response = match &c.result {
                Err(e) => {
                    self.stats.errors += 1;
                    metrics.requests_errors.inc();
                    Response {
                        fingerprint: adm.fingerprint,
                        table_version: adm.table_version,
                        budget: item.budget,
                        wall_micros: c.wall_micros,
                        ..Response::failed(adm.id, e)
                    }
                }
                Ok(ok) => {
                    let served = match (&item.kind, item.is_cold) {
                        (ComputeKind::Exact { .. }, _) => "exact",
                        (_, true) => "cold",
                        (_, false) => "warm",
                    };
                    match served {
                        "exact" => {
                            self.stats.exact += 1;
                            self.stats.oracle_evals_exact += ok.evals as u64;
                            metrics.served_exact.inc();
                        }
                        "cold" => {
                            self.stats.cold += 1;
                            self.stats.oracle_evals_cold += ok.evals as u64;
                            metrics.served_cold.inc();
                        }
                        _ => {
                            self.stats.warm += 1;
                            self.stats.oracle_evals_warm += ok.evals as u64;
                            metrics.served_warm.inc();
                        }
                    }
                    if ok.route == "srs" {
                        metrics.served_fallback.inc();
                    }
                    self.stats.oracle_evals += ok.evals as u64;
                    if let ComputeKind::Resume { store_key } = &item.kind {
                        if let Some(stored) = self.store.lookup(store_key, adm.table_version) {
                            stored.resumes += 1;
                            if !item.is_cold {
                                metrics.store_resumes.inc();
                                // A warm resume re-uses the prepared
                                // phases a cold start would have paid
                                // for: that prepare cost is the saving.
                                metrics
                                    .oracle_evals_saved_warm
                                    .add(stored.state.prepare_evals() as u64);
                            }
                        }
                    }
                    if let Some(cache_key) = &item.cache_key {
                        self.cache.insert(
                            cache_key.clone(),
                            ok.estimate,
                            ok.std_error,
                            ok.lo,
                            ok.hi,
                            ok.level,
                            ok.evals,
                            ok.model_version,
                            adm.table_version,
                            ok.route,
                        );
                    }
                    Response {
                        id: adm.id,
                        ok: true,
                        error: None,
                        fingerprint: adm.fingerprint,
                        route: ok.route,
                        served,
                        estimate: ok.estimate,
                        std_error: ok.std_error,
                        lo: ok.lo,
                        hi: ok.hi,
                        level: ok.level,
                        evals: ok.evals,
                        budget: item.budget,
                        model_version: ok.model_version,
                        table_version: adm.table_version,
                        wall_micros: c.wall_micros,
                        plan: adm.planned.summary.clone(),
                        trace: None,
                    }
                }
            };
            let mut response = response;
            metrics.oracle_evals_total.add(response.evals as u64);
            metrics.request_evals.observe(response.evals as u64);
            metrics.wall_request_micros.observe(response.wall_micros);
            if tracing {
                let mut events = vec![TraceEvent::Route {
                    route: response.route,
                    kind: plan_kind(&adm.planned).to_string(),
                }];
                events.extend(spans.remove(&item.pos).unwrap_or_default());
                match &item.kind {
                    ComputeKind::Resume { store_key } => {
                        events.push(TraceEvent::Store {
                            outcome: if item.is_cold {
                                "cold-prepare"
                            } else {
                                "warm-resume"
                            },
                            key: format!("{:016x}", store_key_hash(store_key, adm.table_version)),
                        });
                        if item.is_cold {
                            events.extend(prepare_events.remove(store_key).unwrap_or_default());
                        }
                    }
                    ComputeKind::SrsFallback => events.push(TraceEvent::Store {
                        outcome: "unpreparable",
                        key: String::new(),
                    }),
                    ComputeKind::Exact { .. } => {}
                }
                events.extend(exec_events);
                events.push(TraceEvent::Served {
                    served: response.served,
                    evals: response.evals as u64,
                    wall_micros: response.wall_micros,
                });
                self.finish_span(adm.id, adm.fingerprint, &mut response, events);
            }
            responses[item.pos] = Some(response);
        }
        // Followers copy their leader's response (0 evals, "cached").
        for (pos, leader_pos, id) in followers {
            let leader = responses[leader_pos]
                .clone()
                .expect("leader position settled");
            if leader.ok {
                self.stats.cached += 1;
                self.stats.oracle_evals_saved += leader.evals as u64;
                metrics.served_cached.inc();
                metrics.served_followers.inc();
                metrics.oracle_evals_saved_cache.add(leader.evals as u64);
            } else {
                self.stats.errors += 1;
                metrics.requests_errors.inc();
            }
            let mut response = Response {
                id,
                served: if leader.ok { "cached" } else { leader.served },
                evals: 0,
                wall_micros: 0,
                trace: None,
                ..leader
            };
            if tracing {
                let mut events = Vec::new();
                if let Some(adm) = admitted.iter().find(|a| a.pos == pos) {
                    events.push(TraceEvent::Route {
                        route: response.route,
                        kind: plan_kind(&adm.planned).to_string(),
                    });
                }
                events.extend(spans.remove(&pos).unwrap_or_default());
                events.push(TraceEvent::Cache {
                    outcome: "follower",
                });
                events.push(TraceEvent::Served {
                    served: response.served,
                    evals: 0,
                    wall_micros: 0,
                });
                self.finish_span(id, response.fingerprint, &mut response, events);
            }
            responses[pos] = Some(response);
        }

        // Point-in-time levels of the stateful stores.
        metrics.store_entries.set(self.store.len() as i64);
        metrics.cache_entries.set(self.cache.len() as i64);
        metrics.datasets.set(self.datasets.len() as i64);

        responses
            .into_iter()
            .map(|r| r.expect("every position settled"))
            .collect()
    }

    /// Parse a condition against a dataset, canonicalize it, and
    /// resolve the catalog entry (building the `CountingProblem` — and
    /// the query's conjunctive decomposition — on first sight or
    /// version change). The single problem-assembly path shared by
    /// live admission, store import, and `explain`.
    fn resolve_query(&mut self, dataset: &str, condition: &str) -> ServeResult<ResolvedQuery> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| ServeError::UnknownDataset {
                name: dataset.to_string(),
            })?;
        let table_version = ds.table.version();
        let expr = parse_condition(condition, &ds.registry).map_err(|e| ServeError::Parse {
            message: e.to_string(),
        })?;
        let canonical = fingerprint::canonical(&expr);
        let fp = fingerprint::fingerprint(dataset, table_version, &canonical);
        let table = Arc::clone(ds.table.table());
        let feature_cols: Vec<String> = ds.feature_cols.clone();
        let level = self.config.planner.level;
        let key = QueryKey {
            dataset: dataset.to_string(),
            canonical: canonical.clone(),
        };
        let entry = self
            .catalog
            .resolve(key, fp, table_version, || -> ServeResult<_> {
                let cols: Vec<&str> = feature_cols.iter().map(String::as_str).collect();
                let predicate: Arc<dyn ObjectPredicate> =
                    Arc::new(ExprPredicate::new("q", expr.clone()));
                let problem =
                    Arc::new(CountingProblem::new(table, predicate, &cols)?.with_level(level));
                // Decompose the NORMALIZED expression, so commuted
                // spellings of one query share one decomposition and
                // the part canonicals are stable keys.
                let normalized = fingerprint::normalize(&expr);
                let DecomposedQuery {
                    exact_prefilter,
                    residual,
                } = decompose(&normalized);
                let decomposition = exact_prefilter.map(|prefilter| {
                    Arc::new(QueryDecomposition {
                        prefilter_canonical: fingerprint::canonical(&prefilter),
                        residual_canonical: fingerprint::canonical(&residual),
                        prefilter,
                        residual,
                    })
                });
                Ok((problem, decomposition))
            })?;
        Ok(ResolvedQuery {
            canonical,
            fingerprint: fp,
            table_version,
            problem: Arc::clone(&entry.problem),
            decomposition: entry.decomposition.clone(),
        })
    }

    /// Run (or reuse) the exact prefilter scan of a decomposed query:
    /// survivors, the restricted residual problem, and the feedback
    /// record all come from one memoized [`PhysicalPlan`] per catalog
    /// entry, so repeat requests never re-scan.
    fn ensure_plan_state(
        &mut self,
        dataset: &str,
        canonical: &str,
        table_version: u64,
        problem: &Arc<CountingProblem>,
        decomp: &QueryDecomposition,
    ) -> ServeResult<Arc<PhysicalPlan>> {
        let key = QueryKey {
            dataset: dataset.to_string(),
            canonical: canonical.to_string(),
        };
        if let Some(entry) = self.catalog.get(&key) {
            if entry.table_version == table_version {
                if let Some(plan) = &entry.plan {
                    return Ok(Arc::clone(plan));
                }
            }
        }
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| ServeError::UnknownDataset {
                name: dataset.to_string(),
            })?;
        let logical = LogicalPlan {
            prefilter: Some(decomp.prefilter.clone()),
            residual: decomp.residual.clone(),
        };
        let plan = Arc::new(PhysicalPlan::build(
            Arc::clone(problem),
            &ds.table,
            logical,
        )?);
        self.catalog.set_plan(&key, Arc::clone(&plan));
        self.feedback.record(
            dataset,
            &decomp.prefilter_canonical,
            table_version,
            plan.survivors().expect("the plan ran its prefilter"),
            plan.population(),
        );
        Ok(plan)
    }

    /// Turn a resolved query and its target into a physical plan:
    /// monolithic for queries that do not decompose (or when the
    /// planner disables decomposition), otherwise the route chosen by
    /// [`BudgetPlanner::choose`] over the observed survivor count. A
    /// prefilter whose recorded selectivity already exceeds the
    /// monolithic threshold skips the scan — provably the same route
    /// the scan would pick, since feedback replays the exact `M/N`
    /// observed at this table version.
    fn plan_query(
        &mut self,
        dataset: &str,
        canonical: &str,
        table_version: u64,
        problem: &Arc<CountingProblem>,
        decomposition: Option<&Arc<QueryDecomposition>>,
        target: Target,
    ) -> ServeResult<PlannedQuery> {
        let planner = self.config.planner;
        let monolithic = |route: Route, summary: Option<PlanSummary>| PlannedQuery {
            route: match route {
                Route::Exact => PlannedRoute::Exact { plan: None },
                Route::Estimate { budget } => PlannedRoute::Estimate { budget },
            },
            exec_problem: Arc::clone(problem),
            store_canonical: canonical.to_string(),
            store_scope: String::new(),
            summary,
        };
        let decomp = match decomposition {
            Some(d) if planner.monolithic_selectivity > 0.0 => d,
            _ => return Ok(monolithic(planner.plan(problem.n(), target)?, None)),
        };
        let n = problem.n();
        // Monolithic routes report no survivors whether or not a scan
        // ran (see [`PlanSummary::survivors`]).
        let summary = |kind: &'static str, plan: Option<&PhysicalPlan>| {
            Some(PlanSummary {
                kind,
                prefilter: decomp.prefilter_canonical.clone(),
                residual: decomp.residual_canonical.clone(),
                population: n,
                survivors: plan.and_then(PhysicalPlan::survivors),
                selectivity: plan.and_then(PhysicalPlan::selectivity),
            })
        };
        let mono = |route: Route| {
            let kind = match route {
                Route::Exact => "census",
                Route::Estimate { .. } => "monolithic",
            };
            monolithic(route, summary(kind, None))
        };
        if let Some(predicted) =
            self.feedback
                .predict(dataset, &decomp.prefilter_canonical, table_version)
        {
            if predicted >= planner.monolithic_selectivity {
                return Ok(mono(planner.plan(n, target)?));
            }
        }
        let plan = self.ensure_plan_state(dataset, canonical, table_version, problem, decomp)?;
        Ok(match planner.choose(n, plan.survivors(), target)? {
            QueryRoute::Monolithic(route) => mono(route),
            QueryRoute::PrefilterExact => PlannedQuery {
                route: PlannedRoute::Exact {
                    plan: Some(Arc::clone(&plan)),
                },
                summary: summary("exact_prefilter", Some(&plan)),
                ..monolithic(Route::Exact, None)
            },
            QueryRoute::PrefilterEstimate { budget } => PlannedQuery {
                route: PlannedRoute::Estimate { budget },
                exec_problem: Arc::clone(
                    plan.restricted()
                        .expect("an estimate plan implies survivors"),
                ),
                store_canonical: decomp.residual_canonical.clone(),
                store_scope: decomp.prefilter_canonical.clone(),
                summary: summary("prefilter_estimate", Some(&plan)),
            },
        })
    }

    fn admit(&mut self, pos: usize, req: Request) -> Result<Admitted, (u64, ServeError)> {
        let id = req.id;
        let resolved = self
            .resolve_query(&req.dataset, &req.condition)
            .map_err(|e| (id, e))?;
        let planned = self
            .plan_query(
                &req.dataset,
                &resolved.canonical,
                resolved.table_version,
                &resolved.problem,
                resolved.decomposition.as_ref(),
                req.target,
            )
            .map_err(|e| (id, e))?;
        Ok(Admitted {
            pos,
            id,
            dataset: req.dataset,
            canonical: resolved.canonical,
            raw: req.condition,
            fingerprint: resolved.fingerprint,
            table_version: resolved.table_version,
            planned,
            fresh: req.fresh,
        })
    }

    /// Resolve and plan a query **without executing it**: one JSON
    /// line describing the chosen physical plan — route kind, planned
    /// budget, decomposition parts with their own fingerprints, and
    /// predicted (pre-plan feedback) vs observed (post-scan)
    /// selectivity. Planning side effects are real (the prefilter scan
    /// runs and is memoized; feedback is recorded) but no oracle
    /// evaluation is spent and the service counters do not move.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown datasets, parse failures, or
    /// malformed targets.
    pub fn explain(
        &mut self,
        dataset: &str,
        condition: &str,
        target: Target,
    ) -> ServeResult<String> {
        let resolved = self.resolve_query(dataset, condition)?;
        let predicted = resolved.decomposition.as_ref().and_then(|d| {
            self.feedback
                .predict(dataset, &d.prefilter_canonical, resolved.table_version)
        });
        let planned = self.plan_query(
            dataset,
            &resolved.canonical,
            resolved.table_version,
            &resolved.problem,
            resolved.decomposition.as_ref(),
            target,
        )?;
        let observed = self
            .catalog
            .get(&QueryKey {
                dataset: dataset.to_string(),
                canonical: resolved.canonical.clone(),
            })
            .and_then(|e| e.plan.as_deref())
            .and_then(|p| p.survivors().zip(p.selectivity()));
        let kind = plan_kind(&planned);
        let budget = match planned.route {
            PlannedRoute::Exact { .. } => 0,
            PlannedRoute::Estimate { budget } => budget,
        };
        let esc = json_escape;
        let opt_num = |v: Option<f64>| match v {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_string(),
        };
        let opt_str = |v: Option<String>| match v {
            Some(s) => format!("\"{}\"", esc(&s)),
            None => "null".to_string(),
        };
        let d = resolved.decomposition.as_ref();
        Ok(format!(
            "{{\"explain\": true, \"dataset\": \"{}\", \"fingerprint\": \"{:016x}\", \
             \"table_version\": {}, \"canonical\": \"{}\", \"decomposed\": {}, \
             \"route\": \"{}\", \"budget\": {}, \"population\": {}, \
             \"prefilter\": {}, \"residual\": {}, \
             \"prefilter_fingerprint\": {}, \"residual_fingerprint\": {}, \
             \"survivors\": {}, \"predicted_selectivity\": {}, \
             \"observed_selectivity\": {}}}",
            esc(dataset),
            resolved.fingerprint,
            resolved.table_version,
            esc(&resolved.canonical),
            d.is_some(),
            kind,
            budget,
            resolved.problem.n(),
            opt_str(d.map(|d| d.prefilter_canonical.clone())),
            opt_str(d.map(|d| d.residual_canonical.clone())),
            opt_str(d.map(|d| {
                format!(
                    "{:016x}",
                    fingerprint::fingerprint(
                        dataset,
                        resolved.table_version,
                        &d.prefilter_canonical
                    )
                )
            })),
            opt_str(d.map(|d| {
                format!(
                    "{:016x}",
                    fingerprint::fingerprint(
                        dataset,
                        resolved.table_version,
                        &d.residual_canonical
                    )
                )
            })),
            observed.map_or_else(|| "null".to_string(), |(m, _)| m.to_string()),
            opt_num(predicted),
            opt_num(observed.map(|(_, s)| s)),
        ))
    }

    /// Render the model store as a portable export (labels + seeds; see
    /// [`ModelStore::export`]).
    pub fn export_store(&self) -> String {
        self.store.export()
    }

    /// Rebuild warm states from a store export: each entry re-runs
    /// `prepare` with its original seed and its labels preloaded —
    /// zero oracle evaluations, bit-identical states. A `+pf` entry is
    /// re-decomposed and its restricted residual problem rebuilt (the
    /// prefilter scan is deterministic, so the restored state sees the
    /// same population it was prepared over). Entries for unknown
    /// datasets or mismatched table versions are skipped. Returns the
    /// number of states restored.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed export, a failed prepare, or a
    /// `+pf` entry whose query does not decompose.
    pub fn import_store(&mut self, text: &str) -> ServeResult<usize> {
        let entries =
            ModelStore::parse_export(text).map_err(|message| ServeError::Invalid { message })?;
        let mut restored = 0usize;
        for entry in entries {
            match self.datasets.get(&entry.dataset) {
                Some(ds) if ds.table.version() == entry.table_version => {}
                _ => continue,
            }
            let resolved = self.resolve_query(&entry.dataset, &entry.condition)?;
            let (problem, store_canonical, store_scope) = if entry.estimator.prefiltered {
                let decomp = resolved
                    .decomposition
                    .clone()
                    .ok_or_else(|| ServeError::Invalid {
                        message: format!(
                            "prefiltered store entry for `{}` but the query does not decompose",
                            entry.condition
                        ),
                    })?;
                let plan = self.ensure_plan_state(
                    &entry.dataset,
                    &resolved.canonical,
                    resolved.table_version,
                    &resolved.problem,
                    &decomp,
                )?;
                let restricted = plan
                    .restricted()
                    .cloned()
                    .ok_or_else(|| ServeError::Invalid {
                        message: format!(
                            "prefiltered store entry for `{}` but the prefilter keeps no rows",
                            entry.condition
                        ),
                    })?;
                (
                    restricted,
                    decomp.residual_canonical.clone(),
                    decomp.prefilter_canonical.clone(),
                )
            } else {
                (
                    Arc::clone(&resolved.problem),
                    resolved.canonical.clone(),
                    String::new(),
                )
            };
            let lss = self.config.lss;
            let state = match entry.estimator.shards {
                None => WarmState::Lss(lss.prepare_with_known(
                    &problem,
                    entry.budget,
                    entry.prepare_seed,
                    &entry.labels,
                )?),
                Some(k) => {
                    let plan = ShardPlan::uniform(problem.n(), k.get())?;
                    WarmState::LssSharded(lss.prepare_sharded_with_known(
                        &problem,
                        &plan,
                        entry.budget,
                        entry.prepare_seed,
                        &entry.labels,
                    )?)
                }
            };
            self.store.insert(
                StoreKey {
                    dataset: entry.dataset.clone(),
                    canonical: store_canonical,
                    scope: store_scope,
                    budget: entry.budget,
                },
                StoredModel {
                    state,
                    table_version: entry.table_version,
                    prepare_seed: entry.prepare_seed,
                    raw_condition: entry.condition.clone(),
                    resumes: 0,
                },
            );
            restored += 1;
        }
        Ok(restored)
    }

    /// Seal a request's trace span: feed the per-phase registry
    /// counters from the span's events, attach the span to the
    /// response when [`ServiceConfig::trace`] is on, offer the request
    /// to the slow log, and retain the span in the trace ring.
    fn finish_span(
        &self,
        id: u64,
        fingerprint: u64,
        response: &mut Response,
        events: Vec<TraceEvent>,
    ) {
        let metrics = &self.metrics;
        for ev in &events {
            match ev {
                TraceEvent::Phase { phase, evals, .. } => {
                    metrics.add_phase_evals(phase, *evals);
                }
                TraceEvent::Stage2 { evals, .. } => {
                    metrics.evals_stage2.add(*evals);
                }
                TraceEvent::Shard { evals, .. } => {
                    metrics.evals_sharded.add(*evals);
                }
                TraceEvent::Pages { evaluated, skipped } => {
                    metrics.pages_evaluated.add(*evaluated);
                    metrics.pages_skipped.add(*skipped);
                }
                _ => {}
            }
        }
        // Exact scans and SRS fallbacks have no instrumented interior;
        // their evals are attributed from the settled response.
        if response.served == "exact" {
            metrics.evals_exact.add(response.evals as u64);
        } else if response.route == "srs" {
            metrics.evals_srs.add(response.evals as u64);
        }
        let trace = Trace { id, events };
        if response.ok && response.evals > 0 {
            self.obs.slow.offer(SlowEntry {
                evals: response.evals as u64,
                id,
                fingerprint,
                route: response.route,
            });
        }
        if self.config.trace {
            response.trace = Some(trace.clone());
        }
        self.obs.ring.push(trace);
    }
}

/// Plan kind echoed in a [`TraceEvent::Route`] and by `explain`: the
/// summary's kind when the query decomposed, otherwise inferred from
/// the route.
fn plan_kind(planned: &PlannedQuery) -> &'static str {
    planned.summary.as_ref().map_or(
        match planned.route {
            PlannedRoute::Exact { .. } => "census",
            PlannedRoute::Estimate { .. } => "monolithic",
        },
        |s| s.kind,
    )
}

/// One wave-1 prepare outcome: `(store key, table version, raw
/// condition, result, trace events collected while preparing)`.
type Prepared = (
    StoreKey,
    u64,
    String,
    ServeResult<StoredModel>,
    Vec<TraceEvent>,
);

/// `request_evals` histogram bucket bounds (inclusive upper edges).
const EVALS_BOUNDS: &[u64] = &[0, 10, 100, 1_000, 10_000, 100_000];

/// `wall_request_micros` histogram bounds. A `wall_*` metric: zeroed
/// in masked expositions.
const WALL_BOUNDS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000];

struct ExecItem<'a> {
    pos: usize,
    kind: ExecKind<'a>,
    problem: Arc<CountingProblem>,
    seed: u64,
    budget: usize,
    is_cold: bool,
}

enum ExecKind<'a> {
    Exact { plan: Option<&'a PhysicalPlan> },
    Srs,
    Resume { stored: Option<&'a StoredModel> },
}

fn execute(item: ExecItem<'_>, lss: Lss) -> Computed {
    let start = Instant::now();
    let result = execute_inner(&item, lss);
    Computed {
        pos: item.pos,
        result,
        wall_micros: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
    }
}

fn execute_inner(item: &ExecItem<'_>, lss: Lss) -> ServeResult<ComputedOk> {
    match &item.kind {
        ExecKind::Exact { plan } => {
            // Through the physical plan, the census runs over the
            // prefilter survivors only — and costs nothing when none
            // survived (a zero-width interval at zero oracle cost).
            let (count, evals) = match plan {
                Some(p) => (
                    p.exact_count()?,
                    p.survivors().unwrap_or_else(|| p.population()),
                ),
                None => (item.problem.exact_count()?, item.problem.n()),
            };
            let count = count as f64;
            Ok(ComputedOk {
                estimate: count,
                std_error: 0.0,
                lo: count,
                hi: count,
                level: item.problem.level(),
                evals,
                route: "exact",
                model_version: 0,
            })
        }
        ExecKind::Srs => {
            let mut rng = StdRng::seed_from_u64(item.seed);
            let report = Srs::default().estimate(&item.problem, item.budget, &mut rng)?;
            Ok(ComputedOk {
                estimate: report.count(),
                std_error: report.estimate.std_error,
                lo: report.estimate.interval.lo,
                hi: report.estimate.interval.hi,
                level: item.problem.level(),
                evals: report.evals,
                route: "srs",
                model_version: 0,
            })
        }
        ExecKind::Resume { stored } => {
            let stored = stored.ok_or_else(|| ServeError::Invalid {
                message: "warm state vanished between waves".into(),
            })?;
            let report = match &stored.state {
                WarmState::Lss(w) => lss.estimate_prepared(&item.problem, w, item.seed)?,
                WarmState::LssSharded(w) => {
                    lss.estimate_prepared_sharded(&item.problem, w, item.seed)?
                }
            };
            let prepare_evals = if item.is_cold {
                stored.state.prepare_evals()
            } else {
                0
            };
            Ok(ComputedOk {
                estimate: report.count(),
                std_error: report.estimate.std_error,
                lo: report.estimate.interval.lo,
                hi: report.estimate.interval.hi,
                level: item.problem.level(),
                evals: report.evals + prepare_evals,
                route: "lss",
                model_version: stored.state.digest(),
            })
        }
    }
}

fn result_key_hash(key: &ResultKey) -> u64 {
    let mut bytes = Vec::with_capacity(key.dataset.len() + key.canonical.len() + 10);
    bytes.extend_from_slice(key.dataset.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(key.canonical.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&(key.budget as u64).to_le_bytes());
    fnv1a(&bytes)
}

fn store_key_hash(key: &StoreKey, table_version: u64) -> u64 {
    let mut bytes =
        Vec::with_capacity(key.dataset.len() + key.canonical.len() + key.scope.len() + 19);
    bytes.extend_from_slice(key.dataset.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(key.canonical.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&(key.budget as u64).to_le_bytes());
    bytes.extend_from_slice(&table_version.to_le_bytes());
    // Scoped (prefiltered) keys extend the layout; the empty scope
    // keeps the legacy byte stream exactly, so monolithic prepare
    // seeds — and every existing golden — are unchanged.
    if !key.scope.is_empty() {
        bytes.push(0);
        bytes.extend_from_slice(key.scope.as_bytes());
    }
    fnv1a(&bytes)
}
