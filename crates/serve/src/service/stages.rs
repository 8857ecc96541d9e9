//! The stages of the request path and the typed values handed between
//! them (diagram in the [`super`] module doc). Trace events travel *in*
//! these values and each value owns the one before it, so `seal` looks
//! nothing up.

use super::{Answer, PlanSummary, Request, Response, ResultKey, Service};
use crate::catalog::{QueryDecomposition, Selection, WarmState};
use crate::error::{ServeError, ServeResult};
use crate::fingerprint;
use crate::planner::{QueryRoute, Route, Target};
use lts_core::{
    fnv1a, mix_seed, select_prefilter, CountEstimator, CountingProblem, Lss, PhysicalPlan, Srs,
};
use lts_obs::{SlowEntry, Trace, TraceEvent};
use lts_stats::IntervalKind;
use lts_table::{decompose, parse_condition, DecomposedQuery, ExprPredicate, ObjectPredicate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// A resolved query: its entry's artifacts, cloned out so the borrow on
/// the dataset ends before planning mutates other state.
pub(super) struct Resolved {
    pub(super) dataset: String,
    pub(super) canonical: String,
    pub(super) fingerprint: u64,
    pub(super) table_version: u64,
    pub(super) problem: Arc<CountingProblem>,
    pub(super) decomposition: Option<Arc<QueryDecomposition>>,
}

/// Where a warm state lives — its query's entry and its slot there —
/// and its 64-bit identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct StateKey {
    pub(super) dataset: String,
    /// The full canonical query: the entry holding the state.
    pub(super) canonical: String,
    /// Whether the state covers the prefilter's survivors (`+pf`)
    /// rather than the whole population.
    pub(super) prefiltered: bool,
    /// Budget the state is prepared under (requests planned at a
    /// different budget prepare their own state).
    pub(super) budget: usize,
    /// [`state_id`]: the prepare seed's input and the trace's `Store`
    /// key.
    pub(super) id: u64,
}

impl Resolved {
    /// The population a warm state of this query is prepared over and
    /// where it lives — decided here for live plans and store imports
    /// alike. Monolithic states cover the query's problem; a state over
    /// `restricted` (the prefilter's survivors) takes its identity from
    /// the **residual** canonical scoped by the **prefilter** canonical.
    pub(super) fn warm_identity(
        &self,
        restricted: Option<&Arc<CountingProblem>>,
        budget: usize,
    ) -> (Arc<CountingProblem>, StateKey) {
        let (problem, estimated, scope) = match restricted {
            None => (&self.problem, self.canonical.as_str(), ""),
            Some(restricted) => {
                let d = self
                    .decomposition
                    .as_ref()
                    .expect("a restricted population implies a decomposition");
                let residual = d.residual_canonical(&self.canonical);
                (restricted, residual, d.prefilter_canonical.as_str())
            }
        };
        let key = StateKey {
            id: state_id(&self.dataset, estimated, scope, budget, self.table_version),
            dataset: self.dataset.clone(),
            canonical: self.canonical.clone(),
            prefiltered: restricted.is_some(),
            budget,
        };
        (Arc::clone(problem), key)
    }
}

/// What execute runs for one request.
pub(super) enum Task {
    /// Exact count: through `plan` when the prefilter route chose it
    /// (residual census over the survivors; zero oracle evaluations
    /// when none survived), else a census over the problem.
    Exact { plan: Option<Arc<PhysicalPlan>> },
    /// Resume the warm state at `key`, preparing it first when the
    /// query's entry does not hold it.
    Resume { key: StateKey },
    /// Plain SRS under the planned budget: what a `Resume` is demoted
    /// to when its state cannot be prepared.
    Srs,
}

/// The physical plan of one query under one target.
pub(super) struct Planned {
    pub(super) task: Task,
    /// The problem execution runs against: the query's problem for
    /// monolithic plans, the restricted residual problem for prefilter
    /// plans.
    pub(super) problem: Arc<CountingProblem>,
    /// Planned labeling budget (0 on the exact route).
    pub(super) budget: usize,
    /// Plan echo for the response (`None` for undecomposed queries).
    pub(super) summary: Option<PlanSummary>,
    /// The span's `prefilter` event: what the query's memoized
    /// [`PhysicalPlan`] reports, for every request that plans a
    /// decomposed query (`None` otherwise).
    pub(super) prefilter: Option<TraceEvent>,
}

impl Planned {
    fn monolithic(resolved: &Resolved, route: Route, summary: Option<PlanSummary>) -> Self {
        match route {
            Route::Exact => Planned {
                task: Task::Exact { plan: None },
                problem: Arc::clone(&resolved.problem),
                budget: 0,
                summary,
                prefilter: None,
            },
            Route::Estimate { budget } => {
                let (problem, key) = resolved.warm_identity(None, budget);
                Planned {
                    task: Task::Resume { key },
                    problem,
                    budget,
                    summary,
                    prefilter: None,
                }
            }
        }
    }

    /// Plan kind echoed in a [`TraceEvent::Route`] and by `explain`:
    /// the summary's kind when the query decomposed, otherwise inferred
    /// from the task.
    pub(super) fn kind(&self) -> &'static str {
        match (&self.summary, &self.task) {
            (Some(s), _) => s.kind,
            (None, Task::Exact { .. }) => "census",
            (None, _) => "monolithic",
        }
    }
}

/// One request, resolved and planned.
pub(super) struct Admitted {
    id: u64,
    fresh: bool,
    /// The condition text as sent (a prepared state records it, so a
    /// state snapshot can be re-parsed).
    raw: String,
    fingerprint: u64,
    table_version: u64,
    /// Result-cache identity. It keys on the FULL canonical query, so a
    /// decomposed spelling aliases its monolithic twin.
    key: ResultKey,
    planned: Planned,
}

/// A request the cache could not answer: what prepare and execute run.
pub(super) struct WorkItem {
    adm: Admitted,
    seed: u64,
    /// This request pays for the state it resumes: it prepared it, or
    /// fell back to SRS.
    cold: bool,
    /// Wall micros and trace events of a prepare that succeeded, then
    /// of the execution.
    wall_micros: u64,
    events: Vec<TraceEvent>,
}

/// What became of one request: everything `seal` needs to answer it.
pub(super) enum Outcome {
    /// Failed to resolve or plan.
    Refused { id: u64, error: ServeError },
    /// Answered from the query's cached answer; `answer.evals` is the
    /// saving.
    Hit { adm: Admitted, answer: Answer },
    /// Prepared if need be, and executed — or failed in its prepare.
    Executed {
        item: WorkItem,
        result: ServeResult<Answer>,
    },
}

/// Run `f`, under a trace collector when `tracing`: emissions deep in
/// the pipeline land in the events of the unit of work that ran them.
fn traced<T>(tracing: bool, f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    if tracing {
        lts_obs::trace::collect(f)
    } else {
        (f(), Vec::new())
    }
}

/// Run `f`, containing a panic: its message comes back as the error, so
/// one request's panicking work (a user-defined predicate, say) fails
/// that request ([`ServeError::Panicked`]) and the service goes on.
/// Whatever `f` was building is dropped in the unwind.
fn contained<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        (payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a panic without a message".into())
    })
}

/// [`contained`] for a fallible step: a panic is its
/// [`ServeError::Panicked`].
pub(super) fn guarded<T>(f: impl FnOnce() -> ServeResult<T>) -> ServeResult<T> {
    contained(f).unwrap_or_else(|message| Err(ServeError::Panicked { message }))
}

fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl Service {
    /// **resolve** — parse a condition against a dataset, canonicalize
    /// it, and resolve its query entry (building the `CountingProblem`
    /// — and the query's conjunctive decomposition — on first sight).
    /// The single problem-assembly path shared by live admission, store
    /// import, and `explain`.
    pub(super) fn resolve(&mut self, dataset: String, condition: &str) -> ServeResult<Resolved> {
        let level = self.config.planner.level;
        let Some(ds) = self.datasets.get_mut(&dataset) else {
            return Err(ServeError::UnknownDataset { name: dataset });
        };
        let table_version = ds.table.version();
        let mut expr = parse_condition(condition, &ds.registry).map_err(|e| ServeError::Parse {
            message: e.to_string(),
        })?;
        let canonical = fingerprint::canonical(&expr);
        let fp = fingerprint::fingerprint(&dataset, table_version, &canonical);
        let built = (ds.derived.queries.get(&canonical)).and_then(|e| e.problem.clone());
        let (problem, decomposition) = match built {
            Some(built) => built,
            None => {
                // Decompose the NORMALIZED expression, so commuted
                // spellings of one query share one decomposition and
                // the part canonicals are stable keys.
                let normalized = fingerprint::normalize(&expr);
                let DecomposedQuery {
                    exact_prefilter,
                    residual,
                } = decompose(&normalized);
                let decomposition = exact_prefilter.map(|prefilter| {
                    let prefilter_canonical = fingerprint::canonical(&prefilter);
                    let residual_canonical = fingerprint::canonical(&residual);
                    Arc::new(QueryDecomposition::new(
                        prefilter,
                        prefilter_canonical,
                        residual_canonical,
                        &canonical,
                    ))
                });
                // The predicate evaluates the query as spelled, over the
                // version's shared subquery trees.
                ds.derived.intern(&mut expr);
                let table = Arc::clone(ds.table.table());
                let predicate: Arc<dyn ObjectPredicate> = Arc::new(ExprPredicate::new("q", expr));
                let features: Vec<&str> = ds.features.iter().map(String::as_str).collect();
                let problem =
                    Arc::new(CountingProblem::new(table, predicate, &features)?.with_level(level));
                let built = (problem, decomposition);
                let entry = ds.derived.queries.entry(canonical.clone()).or_default();
                entry.problem = Some(built.clone());
                built
            }
        };
        Ok(Resolved {
            fingerprint: fp,
            table_version,
            problem,
            decomposition,
            dataset,
            canonical,
        })
    }

    /// The memoized physical plan of a decomposed query, built on its
    /// first call over the prefilter's selection: the dataset version
    /// keeps one per canonical prefilter, so the exact scan runs only
    /// for a prefilter no query has planned yet, and each plan's
    /// restricted problem shares the survivor ids instead of copying
    /// them. An unselective prefilter keeps its survivor count alone,
    /// and its plans are count-only: its queries route monolithically.
    pub(super) fn plan_state(
        &mut self,
        resolved: &Resolved,
        decomp: &QueryDecomposition,
    ) -> ServeResult<Arc<PhysicalPlan>> {
        let planner = self.config.planner;
        let ds = (self.datasets.get_mut(&resolved.dataset)).ok_or_else(|| {
            ServeError::UnknownDataset {
                name: resolved.dataset.clone(),
            }
        })?;
        let memo = ds.derived.queries.get(&resolved.canonical);
        if let Some(plan) = memo.and_then(|e| e.plan.clone()) {
            return Ok(plan);
        }
        let selections = &mut ds.derived.selections;
        let selection = match selections.get(&decomp.prefilter_canonical) {
            Some(selection) => selection.clone(),
            None => {
                let scanned = select_prefilter(&ds.table, &decomp.prefilter)?;
                let m = scanned.survivors.len();
                let selection = if planner.unselective(m, scanned.population) {
                    Selection::Count(m)
                } else {
                    Selection::Ids(scanned.ids()?)
                };
                let key = decomp.prefilter_canonical.clone();
                selections.insert(key, selection.clone());
                selection
            }
        };
        let (problem, prefilter) = (&resolved.problem, &decomp.prefilter);
        let plan = Arc::new(match selection {
            Selection::Ids(ids) => PhysicalPlan::over_survivors(problem, prefilter, ids)?,
            Selection::Count(m) => PhysicalPlan::count_only(problem, prefilter, m),
        });
        if let Some(entry) = ds.derived.queries.get_mut(&resolved.canonical) {
            entry.plan = Some(Arc::clone(&plan));
        }
        Ok(plan)
    }

    /// **plan** — turn a resolved query and its target into a physical
    /// plan: monolithic for queries that do not decompose (or when the
    /// planner disables decomposition), otherwise the route chosen by
    /// [`crate::BudgetPlanner::choose`] over the survivor count of the
    /// query's memoized plan ([`Service::plan_state`]). Every request
    /// whose query decomposes plans there and carries that plan's
    /// `prefilter` event, whichever request built the plan or scanned
    /// the prefilter first: the event is a function of the request.
    pub(super) fn plan(&mut self, resolved: &Resolved, target: Target) -> ServeResult<Planned> {
        let planner = self.config.planner;
        let n = resolved.problem.n();
        let decomp = match &resolved.decomposition {
            Some(d) if planner.monolithic_selectivity > 0.0 => d,
            _ => {
                return Ok(Planned::monolithic(
                    resolved,
                    planner.plan(n, target)?,
                    None,
                ))
            }
        };
        // Monolithic routes report no survivors whether or not a scan
        // ran (see [`PlanSummary::survivors`]).
        let summary = |kind: &'static str, plan: Option<&PhysicalPlan>| {
            Some(PlanSummary {
                kind,
                prefilter: decomp.prefilter_canonical.clone(),
                residual: decomp.residual_canonical(&resolved.canonical).to_string(),
                population: n,
                survivors: plan.map(PhysicalPlan::survivors),
                selectivity: plan.map(PhysicalPlan::selectivity),
            })
        };
        let mono = |route: Route| {
            let kind = match route {
                Route::Exact => "census",
                Route::Estimate { .. } => "monolithic",
            };
            Planned::monolithic(resolved, route, summary(kind, None))
        };
        let plan = self.plan_state(resolved, decomp)?;
        let prefilter = Some(TraceEvent::Prefilter {
            conjuncts: plan.conjuncts() as u64,
            population: plan.population() as u64,
            survivors: plan.survivors() as u64,
        });
        Ok(match planner.choose(n, Some(plan.survivors()), target)? {
            QueryRoute::Monolithic(route) => Planned {
                prefilter,
                ..mono(route)
            },
            QueryRoute::PrefilterExact => Planned {
                task: Task::Exact {
                    plan: Some(Arc::clone(&plan)),
                },
                summary: summary("exact_prefilter", Some(&plan)),
                prefilter,
                ..Planned::monolithic(resolved, Route::Exact, None)
            },
            QueryRoute::PrefilterEstimate { budget } => {
                let restricted = plan
                    .restricted()
                    .expect("an estimate plan implies survivors");
                let (problem, key) = resolved.warm_identity(Some(restricted), budget);
                Planned {
                    task: Task::Resume { key },
                    problem,
                    budget,
                    summary: summary("prefilter_estimate", Some(&plan)),
                    prefilter,
                }
            }
        })
    }

    /// **admit** — resolve ∘ plan, contained, since the prefilter scan
    /// reads columns a dataset may make on first read; then the
    /// cached-answer probe. A request the cache cannot answer becomes a
    /// work item with its seed, cold when its state is absent, and is
    /// prepared and executed.
    pub(super) fn admit(&mut self, req: Request) -> Outcome {
        let id = req.id;
        let planned = guarded(|| {
            let resolved = self.resolve(req.dataset, &req.condition)?;
            let planned = self.plan(&resolved, req.target)?;
            Ok((resolved, planned))
        });
        let (resolved, planned) = match planned {
            Ok(planned) => planned,
            Err(error) => return Outcome::Refused { id, error },
        };
        let adm = Admitted {
            id,
            fresh: req.fresh,
            raw: req.condition,
            fingerprint: resolved.fingerprint,
            table_version: resolved.table_version,
            key: ResultKey {
                dataset: resolved.dataset,
                canonical: resolved.canonical,
                budget: planned.budget,
            },
            planned,
        };
        let seed = if adm.fresh {
            mix_seed(self.config.seed, mix_seed(adm.id, 0x0046_5245_5348))
        } else {
            let key = &adm.key;
            let cached = self.query(&key.dataset, &key.canonical);
            if let Some(&answer) = cached.and_then(|e| e.answers.get(&key.budget)) {
                return Outcome::Hit { adm, answer };
            }
            mix_seed(self.config.seed, result_key_hash(key))
        };
        let cold = match &adm.planned.task {
            Task::Resume { key } => self.warm(key).is_none(),
            _ => false,
        };
        let mut item = WorkItem {
            adm,
            seed,
            cold,
            wall_micros: 0,
            events: Vec::new(),
        };
        match self.prepare(&mut item) {
            Ok(()) => self.execute(item),
            Err(error) => Outcome::Executed {
                item,
                result: Err(error),
            },
        }
    }

    /// **prepare** — an absent state is prepared under a seed derived
    /// from its identity and kept in its query's entry; the request
    /// keeps the prepare's wall time and events. A state that cannot be
    /// prepared demotes the request to SRS; a prepare that panics is
    /// dropped, and its error is the request's answer.
    fn prepare(&mut self, item: &mut WorkItem) -> ServeResult<()> {
        let (Task::Resume { key }, true) = (&item.adm.planned.task, item.cold) else {
            return Ok(());
        };
        let (lss, tracing) = (self.config.lss, self.obs.is_enabled());
        let prepare_seed = mix_seed(self.config.seed, key.id);
        let start = Instant::now();
        let (warm, events) = traced(tracing, || {
            contained(|| lss.prepare(&item.adm.planned.problem, key.budget, prepare_seed))
        });
        match warm {
            Ok(Ok(state)) => {
                let raw_condition = item.adm.raw.clone();
                self.insert_warm(
                    key,
                    WarmState {
                        state,
                        raw_condition,
                    },
                );
                (item.wall_micros, item.events) = (micros_since(start), events);
                Ok(())
            }
            // Unpreparable (`Ok(Err)`: SRS answers) or panicked (`Err`).
            failed => {
                item.adm.planned.task = Task::Srs;
                failed
                    .map(drop)
                    .map_err(|message| ServeError::Panicked { message })
            }
        }
    }

    /// **execute** — run the item's task against its warm state. A task
    /// that panics is answered with the panic's error.
    fn execute(&self, mut item: WorkItem) -> Outcome {
        let (lss, tracing) = (self.config.lss, self.obs.is_enabled());
        let ((result, wall_micros), events) = traced(tracing, || {
            let start = Instant::now();
            let result = guarded(|| item.run(self, lss));
            (result, micros_since(start))
        });
        // The request charged a prepare's evals is charged its wall time
        // too.
        item.wall_micros = item.wall_micros.saturating_add(wall_micros);
        item.events.extend(events);
        Outcome::Executed { item, result }
    }

    /// **seal** — the one place a response is built: turn an outcome
    /// into its [`Response`], book it, cache a fresh computation, and
    /// close the request's trace span.
    pub(super) fn seal(&mut self, outcome: Outcome) -> Response {
        let tracing = self.obs.is_enabled();
        // The span's events between the cache probe and `served`.
        let mut tail = Vec::new();
        let (adm, mut response, cache, store, saved) = match outcome {
            Outcome::Refused { id, error } => {
                let mut response = Response::failed(id, &error);
                self.metrics.book(&response, "", "", 0);
                if tracing {
                    // Refused before the cache probe: no plan, no cache.
                    let mut events = Vec::with_capacity(2);
                    events.push(TraceEvent::Route {
                        route: response.route,
                        kind: "",
                    });
                    self.finish_span(&mut response, events);
                }
                return response;
            }
            Outcome::Hit { adm, answer } => {
                let free = Answer { evals: 0, ..answer };
                let response = Response::answered(&adm, "cached", &free, 0);
                (adm, response, "hit", "", answer.evals as u64)
            }
            Outcome::Executed { item, result } => {
                let WorkItem {
                    adm,
                    cold,
                    wall_micros,
                    events,
                    ..
                } = item;
                let (served, store, store_key) = match (&adm.planned.task, cold) {
                    (Task::Exact { .. }, _) => ("exact", "", None),
                    (Task::Srs, _) => ("cold", "unpreparable", None),
                    (Task::Resume { key }, true) => ("cold", "cold-prepare", Some(key)),
                    (Task::Resume { key }, false) => ("warm", "warm-resume", Some(key)),
                };
                if tracing && !store.is_empty() {
                    tail.push(TraceEvent::Store {
                        outcome: store,
                        key: store_key.map(|key| key.id),
                    });
                }
                tail.extend(events);
                let mut saved = 0;
                let response = match result {
                    Err(e) => Response {
                        fingerprint: adm.fingerprint,
                        table_version: adm.table_version,
                        budget: adm.planned.budget,
                        wall_micros,
                        ..Response::failed(adm.id, &e)
                    },
                    Ok(answer) => {
                        // A warm resume re-uses the prepared phases a
                        // cold start would have paid for: that prepare
                        // cost is the saving.
                        if let Some(warm) = store_key.and_then(|k| self.warm(k)) {
                            if !cold {
                                saved = warm.state.prepare_evals as u64;
                            }
                        }
                        if !adm.fresh {
                            let key = &adm.key;
                            if let Some(entry) = self.query_mut(&key.dataset, &key.canonical) {
                                entry.answers.insert(key.budget, answer);
                            }
                        }
                        Response::answered(&adm, served, &answer, wall_micros)
                    }
                };
                let cache = if adm.fresh { "bypass-fresh" } else { "miss" };
                (adm, response, cache, store, saved)
            }
        };
        self.metrics.book(&response, cache, store, saved);
        if tracing {
            // Sized up front, the `served` event `finish_span` appends
            // included: the span is kept at its length.
            let route = TraceEvent::Route {
                route: response.route,
                kind: adm.planned.kind(),
            };
            let prefilter = adm.planned.prefilter;
            let mut events = Vec::with_capacity(usize::from(prefilter.is_some()) + tail.len() + 3);
            events.push(route);
            events.extend(prefilter);
            events.push(TraceEvent::Cache { outcome: cache });
            events.extend(tail);
            self.finish_span(&mut response, events);
        }
        response
    }

    /// Close a request's trace span: end it with the `Served` event,
    /// feed the per-phase registry counters from its events, attach it
    /// to the response when [`super::ServiceConfig::trace`] is on,
    /// offer the request to the slow log, and retain the span in the
    /// trace ring.
    fn finish_span(&self, response: &mut Response, mut events: Vec<TraceEvent>) {
        events.push(TraceEvent::Served {
            served: response.served,
            evals: response.evals as u64,
            wall_micros: response.wall_micros,
        });
        self.metrics.attribute(response, &events);
        let trace = Trace {
            id: response.id,
            events: events.into_boxed_slice(),
        };
        if response.ok && response.evals > 0 {
            self.obs.slow.offer(SlowEntry {
                evals: response.evals as u64,
                id: response.id,
                fingerprint: response.fingerprint,
                route: response.route,
            });
        }
        if self.config.trace {
            response.trace = Some(trace.clone());
        }
        self.obs.ring.push(trace);
    }
}

impl Response {
    /// The one place an answered response is built.
    fn answered(adm: &Admitted, served: &'static str, answer: &Answer, wall_micros: u64) -> Self {
        Response {
            id: adm.id,
            ok: true,
            error: None,
            fingerprint: adm.fingerprint,
            route: answer.route,
            served,
            estimate: answer.estimate,
            std_error: answer.std_error,
            lo: answer.lo,
            hi: answer.hi,
            level: answer.level,
            evals: answer.evals,
            budget: adm.planned.budget,
            model_version: answer.model_version,
            table_version: adm.table_version,
            wall_micros,
            plan: adm.planned.summary.clone(),
            trace: None,
        }
    }
}

impl WorkItem {
    /// Run this item's task.
    fn run(&self, service: &Service, lss: Lss) -> ServeResult<Answer> {
        let problem = &self.adm.planned.problem;
        let sampled =
            |report: lts_core::EstimateReport, route, extra_evals, model_version| Answer {
                estimate: report.count(),
                std_error: report.estimate.std_error,
                lo: report.estimate.interval.lo,
                hi: report.estimate.interval.hi,
                level: problem.level(),
                evals: report.evals + extra_evals,
                route,
                model_version,
            };
        match &self.adm.planned.task {
            Task::Exact { plan } => {
                // Through the physical plan, the census runs over the
                // prefilter survivors only — and costs nothing when none
                // survived (a zero-width interval at zero oracle cost).
                let (count, evals) = match plan {
                    Some(p) => (p.exact_count()?, p.survivors()),
                    None => (problem.exact_count()?, problem.n()),
                };
                let count = count as f64;
                Ok(Answer {
                    estimate: count,
                    std_error: 0.0,
                    lo: count,
                    hi: count,
                    level: problem.level(),
                    evals,
                    route: "exact",
                    model_version: 0,
                })
            }
            Task::Srs => {
                // Wilson, not the paper's Wald: a sample with no (or
                // only) positives still gets a nonzero width.
                let srs = Srs {
                    interval: IntervalKind::Wilson,
                };
                let mut rng = StdRng::seed_from_u64(self.seed);
                let report = srs.estimate(problem, self.adm.planned.budget, &mut rng)?;
                Ok(sampled(report, "srs", 0, 0))
            }
            Task::Resume { key } => {
                let warm = service.warm(key).ok_or_else(|| ServeError::Invalid {
                    message: "warm state vanished before execution".into(),
                })?;
                let report = lss.estimate_prepared(problem, &warm.state, self.seed)?;
                // The claimant of a fresh state is charged its prepare.
                let prepare_evals = if self.cold {
                    warm.state.prepare_evals
                } else {
                    0
                };
                Ok(sampled(report, "lss", prepare_evals, warm.state.digest()))
            }
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

/// The identity of a warm state estimating `canonical` (the full query,
/// or a prefiltered state's residual) under `scope` (empty, or the
/// prefilter canonical) at `budget` and `table_version`.
fn state_id(dataset: &str, canonical: &str, scope: &str, budget: usize, table_version: u64) -> u64 {
    let mut bytes = Vec::with_capacity(dataset.len() + canonical.len() + scope.len() + 19);
    bytes.extend_from_slice(dataset.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(canonical.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&(budget as u64).to_le_bytes());
    bytes.extend_from_slice(&table_version.to_le_bytes());
    // Scoped (prefiltered) identities extend the layout; the empty
    // scope keeps the legacy byte stream exactly, so monolithic prepare
    // seeds — and every existing golden — are unchanged.
    if !scope.is_empty() {
        bytes.push(0);
        bytes.extend_from_slice(scope.as_bytes());
    }
    fnv1a(&bytes)
}
