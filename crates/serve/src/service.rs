//! The in-process counting service.
//!
//! # Request path
//!
//! [`Service::run`] serves one request through a pipeline of typed
//! stages (functions and hand-off types in `service/stages.rs`,
//! rendering in `service/render.rs`, counters in `service/metrics.rs`).
//! Each `▼` names the value handed on; `←` cites, by title, the ROADMAP
//! item that hangs at that boundary next:
//!
//! ```text
//! Request
//!   │ resolve   parse, canonical, fingerprint, the query's entry
//!   ▼ Resolved
//!   │ plan      shared prefilter selection, memoized PhysicalPlan, BudgetPlanner; owns the state identity
//!   ▼ Planned   Task::Exact { plan } | Resume { key: StateKey }
//!   │ admit     resolve ∘ plan under catch_unwind; cached-answer probe,
//!   │           warm-state probe, seed  ← "Perf leads": hits answered on the reader thread
//!   ├─► Outcome::Refused | Hit ─────────────────────────┐
//!   ▼ WorkItem                                          │
//!   │ prepare   an absent state into its entry;         │
//!   │           unpreparable ⇒ Task::Srs; panic ⇒ error │
//!   │ execute   run the Task ─► Answer (under           │
//!   │           catch_unwind)                           │
//!   ▼ Outcome::Executed                                 │
//!   │ seal  ◄───────────────────────────────────────────┘
//!   │           the one place a Response is built, booked (one book:
//!   │           the registry), cached, its span closed  ← "One source of per-stage truth": a timed span per stage
//!   ▼ Response
//!   │ render    Response::to_json
//!   ▼ JSON line
//! ```
//!
//! Requests are served one at a time, in the order they are asked; the
//! parallelism is inside one request (scoring, oracle batches, census
//! splits over the rayon worker pool).
//!
//! `explain` is resolve ∘ plan ∘ render, and a snapshot's warm state is
//! restored as resolve ∘ (plan state) ∘ decode (`LssWarm::from_parts`,
//! in `Service::restore_warm`), over the same functions.
//!
//! # What a dataset owns
//!
//! Everything derived from a dataset version lives in that dataset's
//! state (`crate::catalog`): one entry per canonical query — problem,
//! decomposition, memoized plan, warm states by (prefiltered, budget),
//! cached answers by budget — one survivor-id selection per canonical
//! prefilter, which every plan with that prefilter shares, and one tree
//! per distinct subquery, which every predicate spelling it shares.
//! [`Service::advance_version`] replaces all of it in one assignment,
//! so no entry stores or checks a table version, and a cached answer
//! stays servable until its dataset's version moves.
//!
//! # Query planning
//!
//! A conjunctive query that splits into a subquery-free prefilter and
//! an oracle-bearing residual (`lts_table::decompose`) is planned in
//! two stages: the prefilter runs as a vectorized exact scan — once per
//! canonical prefilter and dataset version, its survivor ids kept as
//! one shared list — and the survivors become a restricted problem
//! (one memoized `lts_core::PhysicalPlan` per query entry, reading the
//! shared list), and the planner then chooses — census, exact residual
//! census over the survivors, restricted estimate, or fall back to the
//! monolithic plan when the prefilter is unselective
//! ([`BudgetPlanner::choose`]). The selection's `M/N` is the recorded
//! selectivity, so a prefilter already known to be unselective routes
//! monolithically without planning.
//! A restricted warm state sits in the full query's entry but takes its
//! seed from the **residual** canonical scoped by the **prefilter**
//! canonical; answers are cached under the full canonical, so
//! decomposed spellings alias their monolithic twin.
//!
//! # Determinism
//!
//! A response carries two kinds of field (docs/observability.md, "The
//! determinism contract"):
//!
//! * **pure fields** — `route`, `plan`, the span's `prefilter` event,
//!   `estimate`, `lo` and `hi` — are a pure function of `(service seed,
//!   dataset content + version, canonical query, planned budget,
//!   request id)`, never of worker count or of which requests ran
//!   before:
//!   * model/design states are prepared under a seed derived from the
//!     **canonical query** (not the request that happened to arrive
//!     first), so whichever request triggers preparation, the state is
//!     bit-identical;
//!   * cacheable (non-`fresh`) estimates run under a seed derived from
//!     the **cache key**, so the computed result is the same no matter
//!     which request computes it;
//!   * `fresh` requests run under a seed derived from the **request
//!     id** — re-submitting the same id replays bit-identically;
//!   * a decomposed query's `prefilter` event is read off its memoized
//!     plan by every request that plans it;
//! * **history fields** — `served`, `evals`, the span's `cache` /
//!   `store` events and its phase evals — depend on what ran before, by
//!   design (a repeat is `cached`, a resume of another request's state
//!   `warm`), and are deterministic for a given request sequence.
//!
//! The CI thread sweep (1 worker vs default) diffs whole response
//! streams with wall times masked.

mod metrics;
mod render;
mod stages;

use crate::catalog::{Derived, QueryEntry, WarmState};
use crate::error::{ServeError, ServeResult};
use crate::planner::{BudgetPlanner, Target};
use crate::state::WarmLine;
use lts_core::{restrict_problem, select_prefilter, CoreError, Lss, LssParts, LssWarm};
use lts_data::{neighbors::NeighborsConfig, sports::SportsConfig};
use lts_obs::{Observability, Trace};
use lts_table::{PartitionedTable, Table, TableRegistry};
use metrics::ServeMetrics;
use stages::StateKey;
use std::collections::HashMap;
use std::sync::Arc;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Root seed of every derived seed stream.
    pub seed: u64,
    /// The admission planner.
    pub planner: BudgetPlanner,
    /// LSS configuration for learned estimates: `Lss::default()`, the
    /// one the library, the repro figures and the coverage audit run.
    pub lss: Lss,
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
            planner: BudgetPlanner::default(),
            lss: Lss::default(),
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
    /// `true` forces a fresh estimate (bypasses the cached answer but
    /// still warm-starts from the query's warm state).
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
    /// first (a later one plans over the recorded selection).
    pub survivors: Option<usize>,
    /// Observed selectivity `M/N`, under the same rule as `survivors`.
    pub selectivity: Option<f64>,
}

/// One response. All fields except `wall_micros` are deterministic for
/// a fixed service seed and request stream.
#[derive(Debug, Clone, Default)]
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
    /// What served it: `cold`, `warm`, `cached`, `exact`, or `error`.
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
    /// A failure: no estimate, every number zero.
    fn failed(id: u64, err: &ServeError) -> Self {
        Response {
            id,
            error: Some(err.to_string()),
            served: "error",
            ..Response::default()
        }
    }
}

/// The eight values of a finished estimate: what executing a request
/// returns, what a query entry caches and a state snapshot persists,
/// and what fills a [`Response`].
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Point estimate of the count.
    pub estimate: f64,
    /// Standard error (0 for an exact count).
    pub std_error: f64,
    /// Lower confidence-interval bound.
    pub lo: f64,
    /// Upper confidence-interval bound.
    pub hi: f64,
    /// Confidence level of the interval.
    pub level: f64,
    /// Oracle evaluations the computation spent.
    pub evals: usize,
    /// Route that produced it (`"exact"`, `"lss"`, `"srs"`).
    pub route: &'static str,
    /// Digest of the warm state (model + design) that produced it (0
    /// for exact/srs).
    pub model_version: u64,
}

/// Key of one cacheable computation (ordered dataset, canonical,
/// budget: the order a state snapshot lists them in).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResultKey {
    /// Dataset name.
    pub dataset: String,
    /// Canonical predicate string.
    pub canonical: String,
    /// Planned budget (0 for the exact route).
    pub budget: usize,
}

/// Aggregate service counters (all deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests admitted (including errors).
    pub requests: u64,
    /// Requests that failed (parse/plan/execution).
    pub errors: u64,
    /// Responses served by the exact census.
    pub exact: u64,
    /// Cold starts (prepared a model/design).
    pub cold: u64,
    /// Warm starts (resumed a stored state).
    pub warm: u64,
    /// Result-cache hits.
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

/// Largest population [`Service::register_generated`] (the protocol's
/// `register … rows=<n>`) will generate: the request is refused before
/// anything is allocated. The paper's largest dataset has 73 000 rows
/// (a generated `neighbors` row is 41 feature columns wide).
pub const MAX_REGISTER_ROWS: usize = 100_000;

// Warm states and sub-populations hold row ids as `u32`.
const _: () = assert!(MAX_REGISTER_ROWS <= u32::MAX as usize);

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
    /// The feature columns every query problem over the dataset reads
    /// in place.
    features: Vec<String>,
    registry: TableRegistry,
    /// Present for datasets registered through a generator recipe;
    /// `None` for tables handed in directly (those cannot be
    /// re-generated and are not persisted by the state snapshot).
    spec: Option<DatasetSpec>,
    /// Everything derived from the current version: replaced whole when
    /// the version moves.
    derived: Derived,
}

/// The in-process concurrent counting service.
pub struct Service {
    config: ServiceConfig,
    datasets: HashMap<String, DatasetState>,
    obs: Observability,
    metrics: ServeMetrics,
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
    /// a no-op (the baseline of `bench_suite`'s `obs.overhead_share`).
    pub fn with_observability(config: ServiceConfig, obs: Observability) -> Self {
        let metrics = ServeMetrics::new(&obs.registry);
        Self {
            config,
            datasets: HashMap::new(),
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
    /// invalidates every derived artifact. Every query over the dataset
    /// reads its features from the table's `feature_cols`, in place.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown/non-numeric feature columns or an
    /// empty feature list; nothing is registered.
    pub fn register_dataset(
        &mut self,
        name: &str,
        table: Arc<Table>,
        feature_cols: &[&str],
    ) -> ServeResult<()> {
        if feature_cols.is_empty() {
            let message = "feature column list is empty".into();
            return Err(CoreError::InvalidConfig { message }.into());
        }
        for c in feature_cols {
            table.floats(c)?;
        }
        let features = feature_cols.iter().map(|&c| c.to_string()).collect();
        // A replacement keeps the version lineage and bumps it once
        // (via the shared invalidation path below).
        let existing = self.datasets.get(name).map(|ds| ds.table.version());
        let registry = TableRegistry::new().register(name, Arc::clone(&table));
        let state = DatasetState {
            table: PartitionedTable::auto(table).with_version(existing.unwrap_or(0)),
            features,
            registry,
            spec: None,
            derived: Derived::default(),
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
    /// Returns [`ServeError::Invalid`] for `rows` outside
    /// `1..=`[`MAX_REGISTER_ROWS`], an unknown kind or level, or a
    /// generator/registration failure.
    pub fn register_generated(&mut self, name: &str, spec: &DatasetSpec) -> ServeResult<()> {
        let invalid = |message: String| ServeError::Invalid { message };
        if !(1..=MAX_REGISTER_ROWS).contains(&spec.rows) {
            return Err(invalid(format!(
                "rows must be between 1 and {MAX_REGISTER_ROWS}, got {}",
                spec.rows
            )));
        }
        // The level calibrates a scenario's query parameter, never its
        // rows: it is checked and recorded, and only the table generated.
        if !(lts_data::SelectivityLevel::ALL.iter()).any(|l| l.label() == spec.level) {
            return Err(invalid(format!(
                "unknown selectivity level `{}`",
                spec.level
            )));
        }
        let (rows, seed) = (spec.rows, spec.seed);
        let (table, cols) = match spec.kind.as_str() {
            "sports" => (
                lts_data::sports::sports_table(&SportsConfig { rows, seed }),
                ["strikeouts", "wins"],
            ),
            "neighbors" => (
                lts_data::neighbors::neighbors_table(&NeighborsConfig {
                    rows,
                    seed,
                    ..NeighborsConfig::default()
                }),
                ["src_rate", "dst_rate"],
            ),
            other => return Err(invalid(format!("unknown dataset kind `{other}`"))),
        };
        let table = Arc::new(table.map_err(|e| invalid(e.to_string()))?);
        self.register_dataset(name, table, &cols)?;
        if let Some(ds) = self.datasets.get_mut(name) {
            ds.spec = Some(spec.clone());
        }
        Ok(())
    }

    /// The generator recipes of every re-generatable dataset, with the
    /// current table version — the dataset section of a state snapshot.
    /// Sorted by name for stable output.
    pub(crate) fn dataset_specs(&self) -> Vec<(String, DatasetSpec, u64)> {
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

    /// Every cached answer with the table version it answers for,
    /// sorted by key — the cache section of a state snapshot.
    pub(crate) fn cache_entries(&self) -> Vec<(ResultKey, u64, Answer)> {
        let mut out = Vec::new();
        for (dataset, ds) in &self.datasets {
            for (canonical, entry) in &ds.derived.queries {
                for (&budget, &answer) in entry.answers.iter() {
                    let key = ResultKey {
                        dataset: dataset.clone(),
                        canonical: canonical.clone(),
                        budget,
                    };
                    out.push((key, ds.table.version(), answer));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Re-insert a cached answer restored from a state snapshot. An
    /// answer for an unregistered dataset, or for a version other than
    /// the dataset's current one, answers nothing this service can be
    /// asked: it is dropped. Returns whether the answer was kept.
    pub(crate) fn restore_cached(
        &mut self,
        key: ResultKey,
        answer: Answer,
        table_version: u64,
    ) -> bool {
        match self.datasets.get_mut(&key.dataset) {
            Some(ds) if ds.table.version() == table_version => {
                let entry = ds.derived.queries.entry(key.canonical).or_default();
                entry.answers.insert(key.budget, answer);
                true
            }
            _ => false,
        }
    }

    /// Bump a dataset's version and drop every artifact derived from it
    /// (query problems and plans, warm states, cached answers, prefilter
    /// selections). Use after mutating the backing data out-of-band.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown dataset, or one whose version
    /// lineage is exhausted (`u64::MAX`).
    pub fn invalidate(&mut self, name: &str) -> ServeResult<()> {
        let version = self
            .dataset_version(name)
            .ok_or_else(|| ServeError::UnknownDataset { name: name.into() })?;
        let next = version.checked_add(1).ok_or_else(|| ServeError::Invalid {
            message: format!("dataset `{name}` has exhausted its version lineage"),
        })?;
        self.advance_version(name, next)
    }

    /// Move a dataset's version stamp forward to `version` **in one
    /// step** and drop every artifact derived from it — what a restore
    /// does to re-create a recorded lineage, whatever its length. A
    /// dataset already at or past `version` is left as it is.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown dataset.
    pub fn advance_version(&mut self, name: &str, version: u64) -> ServeResult<()> {
        let ds = self
            .datasets
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownDataset { name: name.into() })?;
        if ds.table.version() >= version {
            return Ok(());
        }
        ds.table = ds.table.clone().with_version(version);
        ds.derived = Derived::default();
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

    /// The table behind a dataset's current version.
    pub fn dataset_table(&self, name: &str) -> Option<&Arc<Table>> {
        self.datasets.get(name).map(|d| d.table.table())
    }

    /// Aggregate counters: a projection of the metrics registry (see
    /// [`ServiceStats`]).
    pub fn stats(&self) -> ServiceStats {
        self.metrics.stats()
    }

    /// Distinct queries resolved at the datasets' current versions.
    pub fn catalog_len(&self) -> usize {
        self.entries().filter(|e| e.problem.is_some()).count()
    }

    /// Warm states held.
    pub fn store_len(&self) -> usize {
        self.entries().map(|e| e.states.len()).sum()
    }

    /// Cached answers held.
    pub fn cache_len(&self) -> usize {
        self.entries().map(|e| e.answers.len()).sum()
    }

    /// Every query entry of every dataset.
    fn entries(&self) -> impl Iterator<Item = &QueryEntry> {
        self.datasets
            .values()
            .flat_map(|ds| ds.derived.queries.values())
    }

    /// The entry of a canonical query over a dataset's current version.
    fn query(&self, dataset: &str, canonical: &str) -> Option<&QueryEntry> {
        self.datasets.get(dataset)?.derived.queries.get(canonical)
    }

    /// [`Service::query`], mutably.
    fn query_mut(&mut self, dataset: &str, canonical: &str) -> Option<&mut QueryEntry> {
        (self.datasets.get_mut(dataset)?.derived.queries).get_mut(canonical)
    }

    /// The warm state at `key`, once prepared or decoded.
    fn warm(&self, key: &StateKey) -> Option<&WarmState> {
        let entry = self.query(&key.dataset, &key.canonical)?;
        entry.states.get(&(key.prefiltered, key.budget))
    }

    /// Keep a prepared or decoded warm state in its query's entry.
    fn insert_warm(&mut self, key: &StateKey, warm: WarmState) {
        if let Some(entry) = self.query_mut(&key.dataset, &key.canonical) {
            entry.states.insert((key.prefiltered, key.budget), warm);
        }
    }

    /// The observed selectivity of a canonical prefilter over a
    /// dataset's current version: its selection's `M/N`, the same `f64`
    /// as a plan's [`lts_core::PhysicalPlan::selectivity`]. Only
    /// `explain` reads it, as the selectivity predicted before planning.
    fn selectivity(&self, dataset: &str, prefilter: &str) -> Option<f64> {
        let ds = self.datasets.get(dataset)?;
        let selection = ds.derived.selections.get(prefilter)?;
        Some(selection.survivors() as f64 / ds.table.len() as f64)
    }

    /// Serve one request through the stages of the module doc: admit
    /// (resolve ∘ plan, then the cached-answer probe), prepare an absent
    /// warm state, execute, seal.
    pub fn run(&mut self, request: Request) -> Response {
        let outcome = self.admit(request);
        let response = self.seal(outcome);
        self.metrics
            .set_levels(self.store_len(), self.cache_len(), self.datasets.len());
        response
    }

    /// Resolve and plan a query **without executing it**: one JSON
    /// line describing the chosen physical plan — route kind, planned
    /// budget, decomposition parts with their own fingerprints, and
    /// predicted (recorded before planning) vs observed (post-scan)
    /// selectivity. Planning side effects are real (the plan is memoized,
    /// over the prefilter's selection, scanned first if no query has
    /// planned that prefilter yet) but no oracle
    /// evaluation is spent and the service counters do not move.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown datasets, parse failures, malformed
    /// targets, or a panic while planning ([`ServeError::Panicked`]: the
    /// prefilter scan reads columns a dataset may make on first read).
    pub fn explain(
        &mut self,
        dataset: &str,
        condition: &str,
        target: Target,
    ) -> ServeResult<String> {
        let resolved = self.resolve(dataset.to_string(), condition)?;
        let predicted = (resolved.decomposition.as_ref())
            .and_then(|d| self.selectivity(dataset, &d.prefilter_canonical));
        let planned = stages::guarded(|| self.plan(&resolved, target))?;
        let observed = (self.query(dataset, &resolved.canonical))
            .and_then(|e| e.plan.as_deref())
            .map(|p| (p.survivors(), p.selectivity()));
        Ok(render::explain_line(
            &resolved, &planned, predicted, observed,
        ))
    }

    /// Every warm state as the snapshot writes it down (see
    /// `crate::state`), in no particular order.
    pub(crate) fn warm_lines(&self) -> Vec<WarmLine<&LssWarm>> {
        let mut out = Vec::new();
        for (dataset, ds) in &self.datasets {
            for entry in ds.derived.queries.values() {
                for (&(prefiltered, budget), warm) in entry.states.iter() {
                    out.push(WarmLine {
                        dataset: dataset.clone(),
                        condition: warm.raw_condition.clone(),
                        budget,
                        table_version: ds.table.version(),
                        prefiltered,
                        state: &warm.state,
                    });
                }
            }
        }
        out
    }

    /// Rebuild one warm state a snapshot wrote down: its problem is
    /// resolved — a `+pf` state's query is re-decomposed and its
    /// restricted residual problem rebuilt by the zero-oracle prefilter
    /// scan, which is deterministic, so the state meets the population
    /// it was prepared over — and the state is **decoded and checked**
    /// ([`LssWarm::from_parts`]): nothing is fitted, scored, sorted or
    /// designed, and the oracle is not called. A state for an unknown
    /// dataset or another table version is skipped. Returns whether the
    /// state was restored.
    ///
    /// # Errors
    ///
    /// Returns an error for a state that fails a check against its
    /// problem or this service's LSS profile, or a `+pf` state whose
    /// query does not decompose.
    pub(crate) fn restore_warm(&mut self, line: WarmLine<LssParts>) -> ServeResult<bool> {
        if self.dataset_version(&line.dataset) != Some(line.table_version) {
            return Ok(false);
        }
        let resolved = self.resolve(line.dataset.clone(), &line.condition)?;
        let invalid = |why: &str| ServeError::Invalid {
            message: format!("prefiltered store entry for `{}` but {why}", line.condition),
        };
        let restricted = if line.prefiltered {
            let decomp = resolved
                .decomposition
                .clone()
                .ok_or_else(|| invalid("the query does not decompose"))?;
            let plan = self.plan_state(&resolved, &decomp)?;
            Some(match plan.restricted() {
                Some(restricted) => Arc::clone(restricted),
                None if plan.survivors() == 0 => {
                    return Err(invalid("the prefilter keeps no rows"))
                }
                // Unselective to this service's planner, so no ids were
                // kept: the state's own scan, dropped with the check.
                None => {
                    let table = &self.datasets[&line.dataset].table;
                    let survivors = select_prefilter(table, &decomp.prefilter)?.survivors;
                    Arc::new(restrict_problem(&resolved.problem, &survivors)?)
                }
            })
        } else {
            None
        };
        let (problem, key) = resolved.warm_identity(restricted.as_ref(), line.budget);
        let state = LssWarm::from_parts(line.state, line.budget, &problem, &self.config.lss)?;
        self.insert_warm(
            &key,
            WarmState {
                state,
                raw_condition: line.condition,
            },
        );
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::AggSubquery;

    fn sports(rows: usize) -> Arc<Table> {
        let level = lts_data::SelectivityLevel::M;
        lts_data::sports_scenario(rows, level, 3).unwrap().table
    }

    #[test]
    fn the_service_runs_the_librarys_lss() {
        assert_eq!(
            ServiceConfig::default().lss.profile_digest(),
            Lss::default().profile_digest()
        );
    }

    #[test]
    fn an_empty_feature_list_is_refused_at_registration() {
        let mut s = Service::new(ServiceConfig::default());
        assert!(s.register_dataset("s", sports(80), &[]).is_err());
        assert_eq!(s.dataset_len("s"), None, "nothing was registered");
    }

    #[test]
    fn a_registered_table_is_the_scenarios_table_bit_for_bit() {
        use lts_table::Column;
        let level = lts_data::SelectivityLevel::S;
        let mut s = Service::new(ServiceConfig::default());
        for (kind, seed) in [
            ("sports", 3),
            ("sports", 11),
            ("neighbors", 3),
            ("neighbors", 11),
        ] {
            let spec = DatasetSpec {
                kind: kind.into(),
                rows: 120,
                level: "S".into(),
                seed,
            };
            s.register_generated("d", &spec).unwrap();
            let want = match kind {
                "sports" => lts_data::sports_scenario(120, level, seed),
                _ => lts_data::neighbors_scenario(120, level, seed),
            };
            let (got, want) = (s.datasets["d"].table.table(), want.unwrap().table);
            assert_eq!(got.schema(), want.schema(), "{kind} {seed}");
            for c in 0..want.schema().len() {
                match (got.column(c).unwrap(), want.column(c).unwrap()) {
                    (Column::Float(a), Column::Float(b)) => {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(a), bits(b), "{kind} {seed} column {c}");
                    }
                    (a, b) => assert_eq!(a, b, "{kind} {seed} column {c}"),
                }
            }
            // The level never reaches the generator, but is still checked.
            let unknown = DatasetSpec {
                level: "XXS".into(),
                ..spec
            };
            let err = s.register_generated("e", &unknown).unwrap_err().to_string();
            assert!(err.contains("unknown selectivity level `XXS`"), "{err}");
        }
    }

    #[test]
    fn catalog_problems_read_the_datasets_columns() {
        let mut s = Service::new(ServiceConfig::default());
        let table = sports(600);
        let cols = ["strikeouts", "wins"];
        s.register_dataset("s", Arc::clone(&table), &cols).unwrap();
        let skyband = "(SELECT COUNT(*) FROM s WHERE strikeouts >= o.strikeouts \
                       AND wins >= o.wins) < 9";
        let a = s.resolve("s".into(), skyband).unwrap().problem;
        let b = s.resolve("s".into(), "wins > 4").unwrap().problem;
        let row = |name| table.floats(name).unwrap()[7];
        for problem in [&a, &b] {
            let view = problem.feature_view();
            assert!(std::ptr::eq(view.table(), &*table));
            assert_eq!(view.row(7), [row("strikeouts"), row("wins")]);
        }
        // The served path reads the view: answering leaves no gathered
        // matrix behind in the problem.
        let answered = s.run(crate::Request {
            id: 1,
            dataset: "s".into(),
            condition: skyband.into(),
            target: crate::Target::Budget(60),
            fresh: false,
        });
        assert_eq!((answered.served, answered.route), ("cold", "lss"));
        assert!(!a.has_gathered_features());
        // Re-registering swaps the table; new entries read the new one.
        let fresh = sports(600);
        s.register_dataset("s", Arc::clone(&fresh), &cols).unwrap();
        let c = s.resolve("s".into(), "wins > 4").unwrap().problem;
        assert!(std::ptr::eq(c.feature_view().table(), &*fresh));
    }

    /// The subquery trees a dataset's current version shares.
    fn subquery_trees<'a>(s: &'a Service, dataset: &str) -> Vec<&'a Arc<AggSubquery>> {
        s.datasets[dataset].derived.subqueries.iter().collect()
    }

    const DOMINATORS: &str = "strikeouts >= o.strikeouts AND wins >= o.wins";

    fn count_below(filter: &str, k: usize) -> String {
        format!("(SELECT COUNT(*) FROM s WHERE {filter}) < {k}")
    }

    #[test]
    fn queries_over_one_subquery_share_its_tree() {
        use lts_table::{parse_condition, Expr};
        let mut s = Service::new(ServiceConfig::default());
        s.register_dataset("s", sports(600), &["strikeouts", "wins"])
            .unwrap();
        for k in 0..20 {
            s.resolve("s".into(), &count_below(DOMINATORS, 5 + k))
                .unwrap();
        }
        let trees = subquery_trees(&s, "s");
        assert_eq!(trees.len(), 1);
        // The version's set and each of the 20 entries' predicates.
        assert_eq!(Arc::strong_count(trees[0]), 21);
        // A new parse of the shape is pointed at that tree.
        let tree = Arc::clone(trees[0]);
        let ds = s.datasets.get_mut("s").unwrap();
        let mut expr = parse_condition(&count_below(DOMINATORS, 99), &ds.registry).unwrap();
        ds.derived.intern(&mut expr);
        let Expr::Binary(_, subquery, _) = &expr else {
            panic!("a comparison")
        };
        let Expr::Subquery(parsed) = &**subquery else {
            panic!("a subquery")
        };
        assert!(Arc::ptr_eq(parsed, &tree));
        drop(expr);

        // A commuted filter at a `k` already asked aliases that entry and
        // interns nothing; at a new `k` its query keeps a tree of its own,
        // spelled as it was sent.
        let commuted = "wins >= o.wins AND strikeouts >= o.strikeouts";
        s.resolve("s".into(), &count_below(commuted, 5)).unwrap();
        assert_eq!(subquery_trees(&s, "s").len(), 1);
        s.resolve("s".into(), &count_below(commuted, 40)).unwrap();
        let trees = subquery_trees(&s, "s");
        assert_eq!(trees.len(), 2);
        assert!(trees.iter().any(|t| Arc::ptr_eq(t, &tree)));
        assert!(!Arc::ptr_eq(trees[0], trees[1]));
        // A new version starts its own set.
        s.invalidate("s").unwrap();
        assert!(subquery_trees(&s, "s").is_empty());
        assert_eq!(Arc::strong_count(&tree), 1);
    }

    #[test]
    fn a_residual_is_a_span_of_the_key_unless_the_prefilter_sorts_inside_it() {
        let mut s = Service::new(ServiceConfig::default());
        s.register_dataset("s", sports(600), &["strikeouts", "wins"])
            .unwrap();
        let sq = format!("(SELECT COUNT(*) FROM s WHERE {DOMINATORS})");
        // The canonical chain sorts `((SELECT …` < `(60.0 < …` < `(7.0 < …`.
        for (condition, owned) in [
            (format!("strikeouts > 60 AND {sq} < 40"), false),
            (format!("strikeouts > 60 AND {sq} < 40 AND 3 < {sq}"), false),
            (format!("strikeouts > 60 AND {sq} < 40 AND 7 < {sq}"), true),
        ] {
            let resolved = s.resolve("s".into(), &condition).unwrap();
            let d = resolved.decomposition.expect("it decomposes");
            assert_eq!(d.residual_is_owned(), owned, "{condition}");
            let residual = d.residual_canonical(&resolved.canonical);
            assert!(residual.contains("< 40.0)"), "{residual}");
            assert!(!residual.contains("(60.0 < strikeouts)"), "{residual}");
        }
    }
}
