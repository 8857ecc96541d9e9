//! The traced run's view into the layers: for one op, replay its
//! pipeline stage by stage through each crate's public functions,
//! with a span around every call.
//!
//! The replay mirrors what `Service::run` does for the op's serving
//! mode — parse → fingerprint → decompose → plan → (prefilter scan →
//! restrict) → prepare → stage 2 → render — on the benchmark's own
//! copies of the tables, so the spans under one `replay` root should
//! add up to the `serve.run_*` span of the same op (the closure
//! share). `Lss::prepare` is a single public call; its interior
//! (train / score+order / pilot / pilot index / design) is attributed
//! by running the same public building blocks once more under a
//! `prepare_staged` root. Extra single-call probes (`learn.fit`,
//! `table.oracle_batch`, `sampling.*`, …) time one layer function on
//! the op's own inputs; they sit outside both roots.

use crate::ops::{Inputs, Op};
use crate::spans::Recorder;
use lts_core::warm::train_proxy;
use lts_core::{
    mix_seed, restrict_problem, select_prefilter, CountingProblem, Labeler, Lss, LssLayout,
    LssWarm, PilotSource, ScoredPopulation,
};
use lts_sampling::{
    allocate, draw_stratified, sample_without_replacement, stratified_count_estimate, StratumSample,
};
use lts_serve::{BudgetPlanner, QueryRoute, Response, Route, ServiceConfig};
use lts_strata::{DesignAlgorithm, DesignParams, PilotIndex, StrataError, Stratification};
use lts_table::{
    decompose, parse_condition, Expr, ExprPredicate, ObjectPredicate, PartitionedTable, Table,
    TableRegistry,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Result type of the replay: any failure is a defect of the
/// benchmark (the same call succeeded inside the service) and aborts
/// the run with its message.
pub type Res<T> = Result<T, String>;

fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Seed-stream salts of the replay (the service's own salts are
/// private; the work done does not depend on which stream is drawn).
const SALT_PREPARE: u64 = 0x5245_504C_4159;
const SALT_STAGE2: u64 = 0x5354_4147_4532;

struct DatasetParts {
    table: Arc<Table>,
    partitioned: PartitionedTable,
    registry: TableRegistry,
    cols: [&'static str; 2],
}

/// The benchmark's own copies of what the service holds per dataset,
/// plus the service configuration the replay must follow.
pub struct LayerCtx {
    parts: HashMap<&'static str, DatasetParts>,
    planner: BudgetPlanner,
    lss: Lss,
    seed: u64,
}

/// How the service serves the op being replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full cold pipeline.
    Cold,
    /// Store hit: stage 2 over a warm state.
    Warm,
    /// Result-cache hit: front half and render only.
    Cached,
}

/// A query's prepared state on the benchmark's side (what the model
/// store holds inside the service).
pub struct WarmEntry {
    problem: Arc<CountingProblem>,
    warm: LssWarm,
}

/// Per-op values the replays derive from their spans and counters;
/// each reported per-layer metric is the median of one of these.
#[derive(Debug, Default)]
pub struct Derived {
    /// Design-pilot size `m`.
    pub pilots: Vec<f64>,
    /// Strata of the chosen design.
    pub strata: Vec<f64>,
    /// Oracle evaluations per `label_batch` call over prepare + stage 2.
    pub oracle_batch: Vec<f64>,
    /// Microseconds per evaluation of one uncached oracle batch.
    pub oracle_eval_us: Vec<f64>,
    /// Rows scored per second by `Classifier::score_batch`.
    pub score_rows_per_s: Vec<f64>,
    /// Rows scanned per second by the prefilter's `par_eval_bool`.
    pub prefilter_rows_per_s: Vec<f64>,
    /// `strata.design` ÷ `core.prepare` of the same op.
    pub design_share: Vec<f64>,
}

struct Front {
    expr: Expr,
    prefilter: Option<Expr>,
}

impl LayerCtx {
    /// Mirror the service: one auto-partitioned table and one registry
    /// per dataset, the given configuration's planner and LSS profile.
    pub fn new(inputs: &Inputs, config: &ServiceConfig) -> LayerCtx {
        let parts = inputs
            .populations()
            .into_iter()
            .map(|pop| {
                (
                    pop.name,
                    DatasetParts {
                        table: Arc::clone(&pop.table),
                        partitioned: PartitionedTable::auto(Arc::clone(&pop.table)),
                        registry: TableRegistry::new().register(pop.name, Arc::clone(&pop.table)),
                        cols: pop.cols,
                    },
                )
            })
            .collect();
        LayerCtx {
            parts,
            planner: config.planner,
            lss: config.lss,
            seed: config.seed,
        }
    }

    fn parts(&self, op: &Op) -> Res<&DatasetParts> {
        self.parts
            .get(op.dataset)
            .ok_or_else(|| format!("no dataset `{}`", op.dataset))
    }

    /// parse → fingerprint → decompose, each under its span.
    fn front(&self, rec: &mut Recorder, op: &Op) -> Res<Front> {
        let parts = self.parts(op)?;
        let expr = rec
            .time("table.parse", || {
                parse_condition(&op.condition, &parts.registry)
            })
            .map_err(s)?;
        let normalized = rec.time("serve.fingerprint", || {
            let normalized = lts_serve::normalize(&expr);
            let canonical = lts_serve::canonical(&expr);
            std::hint::black_box(lts_serve::fingerprint(op.dataset, 0, &canonical));
            normalized
        });
        let decomposed = rec.time("table.decompose", || decompose(&normalized));
        Ok(Front {
            expr,
            prefilter: decomposed.exact_prefilter,
        })
    }

    fn problem(&self, rec: &mut Recorder, op: &Op, expr: Expr) -> Res<Arc<CountingProblem>> {
        let parts = self.parts(op)?;
        let level = self.planner.level;
        rec.time("core.problem", || {
            let predicate: Arc<dyn ObjectPredicate> = Arc::new(ExprPredicate::new("q", expr));
            CountingProblem::new(Arc::clone(&parts.table), predicate, &parts.cols)
                .map(|p| Arc::new(p.with_level(level)))
        })
        .map_err(s)
    }

    /// plan (and, for a decomposing query, prefilter scan + restrict):
    /// the problem the estimator runs on and its budget.
    fn plan(
        &self,
        rec: &mut Recorder,
        op: &Op,
        problem: &Arc<CountingProblem>,
        prefilter: Option<&Expr>,
    ) -> Res<(Arc<CountingProblem>, usize)> {
        let n = problem.n();
        let planner = self.planner;
        let survivors = match prefilter {
            Some(pf) if planner.monolithic_selectivity > 0.0 => {
                let parts = self.parts(op)?;
                let sel = rec
                    .time("core.select_prefilter", || {
                        select_prefilter(&parts.partitioned, pf)
                    })
                    .map_err(s)?;
                Some(sel.survivors)
            }
            _ => None,
        };
        let route = rec
            .time("serve.plan", || {
                planner.choose(n, survivors.as_ref().map(Vec::len), op.target)
            })
            .map_err(s)?;
        match (route, survivors) {
            (QueryRoute::PrefilterEstimate { budget }, Some(ids)) => {
                let restricted = rec
                    .time("core.restrict", || restrict_problem(problem, &ids))
                    .map_err(s)?;
                Ok((Arc::new(restricted), budget))
            }
            (QueryRoute::Monolithic(Route::Estimate { budget }), _) => {
                Ok((Arc::clone(problem), budget))
            }
            (other, _) => Err(format!("op {} routes to {other:?}: not an estimate", op.id)),
        }
    }

    /// Replay one op under a `replay` root, then run the probes its
    /// mode calls for. `response` is what the service answered for
    /// this op (rendered again under `serve.render`).
    pub fn replay(
        &self,
        rec: &mut Recorder,
        op: &Op,
        mode: Mode,
        response: &Response,
        warm: Option<&WarmEntry>,
        derived: &mut Derived,
    ) -> Res<()> {
        let prepare_seed = mix_seed(self.seed, mix_seed(op.id, SALT_PREPARE));
        let stage2_seed = mix_seed(self.seed, mix_seed(op.id, SALT_STAGE2));
        let root = rec.enter("replay");
        let front = self.front(rec, op)?;
        let mut cold: Option<(Arc<CountingProblem>, usize, f64)> = None;
        match mode {
            Mode::Cold => {
                let problem = self.problem(rec, op, front.expr.clone())?;
                let (exec, budget) = self.plan(rec, op, &problem, front.prefilter.as_ref())?;
                let (state, prepare_us) = rec.time_us("core.prepare", || {
                    self.lss.prepare(&exec, budget, prepare_seed)
                });
                let state = state.map_err(s)?;
                rec.time("core.stage2", || {
                    self.lss.estimate_prepared(&exec, &state, stage2_seed)
                })
                .map_err(s)?;
                cold = Some((exec, budget, prepare_us));
            }
            Mode::Warm => {
                let entry = warm.ok_or("warm replay needs a prepared entry")?;
                rec.time("serve.plan", || {
                    self.planner.choose(entry.problem.n(), None, op.target)
                })
                .map_err(s)?;
                rec.time("core.stage2", || {
                    self.lss
                        .estimate_prepared(&entry.problem, &entry.warm, stage2_seed)
                })
                .map_err(s)?;
            }
            Mode::Cached => {
                let n = self.parts(op)?.table.len();
                rec.time("serve.plan", || self.planner.choose(n, None, op.target))
                    .map_err(s)?;
            }
        }
        std::hint::black_box(rec.time("serve.render", || response.to_json(false)));
        rec.exit(root);

        if let (Mode::Cold, Some(pf)) = (mode, &front.prefilter) {
            // The prefilter scan alone, for rows/s.
            let parts = self.parts(op)?;
            let (mask, us) = rec.time_us("table.prefilter_scan", || {
                parts.partitioned.par_eval_bool(pf)
            });
            derived
                .prefilter_rows_per_s
                .push(mask.map_err(s)?.len() as f64 / (us * 1e-6));
        }
        if let Some((exec, budget, prepare_us)) = cold {
            let stats = exec.predicate_stats();
            derived
                .oracle_batch
                .push(stats.evals as f64 / stats.calls.max(1) as f64);
            let design_us = self.prepare_staged(rec, &exec, budget, prepare_seed, derived)?;
            derived.design_share.push(design_us / prepare_us);
        }
        Ok(())
    }

    /// `Lss::prepare`, taken apart: the same public building blocks in
    /// the same order as `lts_core::warm`'s `prepare_with_known`, each
    /// under its span, followed by the single-call probes that use the
    /// stages' products.
    fn prepare_staged(
        &self,
        rec: &mut Recorder,
        problem: &CountingProblem,
        budget: usize,
        seed: u64,
        derived: &mut Derived,
    ) -> Res<f64> {
        let lss = &self.lss;
        let split = lss.budget_split(budget).map_err(s)?;
        let root = rec.enter("prepare_staged");
        let mut labeler = Labeler::new(problem);
        let proxy = rec
            .time("core.train", || {
                train_proxy(
                    problem,
                    &lss.learn,
                    split.train,
                    mix_seed(seed, 1),
                    &mut labeler,
                )
            })
            .map_err(s)?;
        let reuse = lss.pilot_source == PilotSource::ReuseLearning;
        let ordered = rec
            .time("core.score_order", || {
                if reuse {
                    ScoredPopulation::score_all(problem, proxy.model.as_ref())
                } else {
                    ScoredPopulation::score_rest(problem, proxy.model.as_ref(), &proxy.labeled)
                }
                .map(ScoredPopulation::into_ordered)
            })
            .map_err(s)?;
        let n_rest = ordered.n();
        let entries: Vec<(usize, bool)> = rec.time("core.pilot", || -> Res<_> {
            let mut in_train = vec![false; problem.n()];
            for &i in &proxy.labeled {
                in_train[i] = true;
            }
            // Empty unless the pilot reuses the training sample.
            let train_positions = ordered.positions_marked(&in_train);
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, 2));
            let mut positions = if reuse {
                let mut is_train = vec![false; n_rest];
                for &p in &train_positions {
                    is_train[p] = true;
                }
                let candidates: Vec<usize> = (0..n_rest).filter(|&p| !is_train[p]).collect();
                sample_without_replacement(&mut rng, split.pilot, candidates.len())
                    .map_err(s)?
                    .into_iter()
                    .map(|i| candidates[i])
                    .collect()
            } else {
                sample_without_replacement(&mut rng, split.pilot, n_rest).map_err(s)?
            };
            positions.extend_from_slice(&train_positions);
            let labels = labeler
                .label_batch(&ordered.objects_at(&positions))
                .map_err(s)?;
            Ok(positions.into_iter().zip(labels).collect())
        })?;
        let pilot = rec
            .time("core.pilot_index", || ordered.pilot_index(&entries))
            .map_err(s)?;
        let (design, design_us) = rec.time_us("strata.design", || {
            design_cuts(lss, &pilot, n_rest, split.stage2)
        });
        let design = design?;
        rec.exit(root);

        // --- probes on the stages' products -------------------------
        let x = problem.features().gather(&proxy.labeled);
        let mut model = lss.learn.spec.build(proxy.model_seed);
        rec.time("learn.fit", || model.fit(&x, &proxy.labels))
            .map_err(s)?;
        let (scores, us) = rec.time_us("learn.score", || model.score_batch(problem.features()));
        derived
            .score_rows_per_s
            .push(scores.map_err(s)?.len() as f64 / (us * 1e-6));
        // One uncached oracle batch over the training ids.
        let (labels, us) =
            rec.time_us("table.oracle_batch", || problem.label_batch(&proxy.labeled));
        derived
            .oracle_eval_us
            .push(us / labels.map_err(s)?.len().max(1) as f64);
        derived.pilots.push(pilot.m() as f64);
        if let Some(strat) = &design {
            derived.strata.push(strat.n_strata() as f64);
            self.sampling_probes(rec, strat, n_rest, split.stage2, problem.level(), seed)?;
        }
        Ok(design_us)
    }

    /// `draw_stratified`, `stratified_count_estimate` and `t_interval`
    /// on a stage-2 draw shaped like the op's: the design's strata,
    /// the stage-2 budget allocated proportionally.
    fn sampling_probes(
        &self,
        rec: &mut Recorder,
        strat: &Stratification,
        n_rest: usize,
        stage2: usize,
        level: f64,
        seed: u64,
    ) -> Res<()> {
        let sizes = strat.stratum_sizes(n_rest);
        let weights: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
        let alloc = allocate(&weights, &sizes, stage2.min(n_rest), 1).map_err(s)?;
        let mut start = 0usize;
        let members: Vec<Vec<usize>> = sizes
            .iter()
            .map(|&n| {
                let v: Vec<usize> = (start..start + n).collect();
                start += n;
                v
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 3));
        let draws = rec
            .time("sampling.draw", || {
                draw_stratified(&mut rng, &members, &alloc)
            })
            .map_err(s)?;
        let samples: Vec<StratumSample> = draws
            .iter()
            .zip(&sizes)
            .map(|(d, &population)| StratumSample {
                population,
                sampled: d.len(),
                // Every third drawn position counts as a positive:
                // arbitrary but fixed, so the estimator does real work.
                positives: d.iter().filter(|&&p| p % 3 == 0).count(),
            })
            .collect();
        let est = rec
            .time("sampling.estimate", || {
                stratified_count_estimate(&samples, level)
            })
            .map_err(s)?;
        let df = est.df.unwrap_or(stage2 as f64).max(1.0);
        rec.time("stats.interval", || {
            lts_stats::t_interval(est.count, est.std_error, df, level)
        })
        .map_err(s)?;
        Ok(())
    }

    /// Prepare a query the way the model store holds it, and time one
    /// restore of it from its known labels (`core.prepare_known`).
    pub fn warm_entry(&self, rec: &mut Recorder, op: &Op) -> Res<WarmEntry> {
        let front = self.front(rec, op)?;
        let problem = self.problem(rec, op, front.expr)?;
        let (exec, budget) = self.plan(rec, op, &problem, front.prefilter.as_ref())?;
        let seed = mix_seed(self.seed, mix_seed(op.id, SALT_PREPARE));
        let warm = self.lss.prepare(&exec, budget, seed).map_err(s)?;
        let known = warm.known_labels();
        let restored = rec
            .time("core.prepare_known", || {
                self.lss.prepare_with_known(&exec, budget, seed, &known)
            })
            .map_err(s)?;
        if restored.prepare_evals != 0 || restored.digest() != warm.digest() {
            return Err("restore from known labels touched the oracle or diverged".into());
        }
        Ok(WarmEntry {
            problem: exec,
            warm,
        })
    }
}

/// The design call of `Lss::layout_cuts` for an optimized layout:
/// same parameters, same relax-once fallback. `None` when even the
/// relaxed design is infeasible (the service then falls back to
/// fixed-height cuts, which cost nothing worth timing).
fn design_cuts(
    lss: &Lss,
    pilot: &PilotIndex,
    n_rest: usize,
    stage2: usize,
) -> Res<Option<Stratification>> {
    let LssLayout::Optimized(algo) = lss.layout else {
        return Err("the serve LSS profile is expected to use an optimized layout".into());
    };
    let h = lss.n_strata;
    let auto_min = ((stage2 + 1).min(n_rest / h)).max(1);
    let params = DesignParams {
        n_strata: h,
        budget: stage2,
        min_stratum_size: lss
            .min_stratum_size
            .unwrap_or(auto_min)
            .min(n_rest / h)
            .max(1),
        min_pilots_per_stratum: lss.min_pilots_per_stratum.min(pilot.m() / h).max(2),
        epsilon: lss.epsilon,
    };
    let run = |params: &DesignParams| match algo {
        DesignAlgorithm::DynPgm => lts_strata::dynpgm(pilot, params, lss.t_selection),
        other => lts_strata::design(pilot, params, lss.allocation, other),
    };
    match run(&params) {
        Ok(strat) => Ok(Some(strat)),
        Err(StrataError::Infeasible { .. }) => Ok(run(&DesignParams {
            min_stratum_size: (n_rest / (4 * h)).max(1),
            min_pilots_per_stratum: 2,
            ..params
        })
        .ok()),
        Err(e) => Err(s(e)),
    }
}
