//! Sharded estimation: run the full LSS/LWS pipeline independently on
//! `k` contiguous shards of the population and merge the shard
//! estimators as strata of one stratified estimator.
//!
//! A [`ShardPlan`] splits `0..N` into `k` contiguous, non-empty,
//! near-equal ranges ([`ShardPlan::uniform`]). Each shard becomes its own
//! [`CountingProblem`] (the parent's table, shared, + its own feature
//! rows): a sub-population of the parent whose predicate **delegates to
//! the parent problem's metered predicate at the global row id** — the
//! same view [`crate::plan::restrict_problem`] builds over prefilter
//! survivors, with a range for its id map instead of a list. The
//! per-shard pilot, design, and stage-2 phases then run fully
//! independently (in parallel on the rayon shim).
//!
//! **Written once.** Sharded prepare and sharded resume are the
//! methods of [`Shardable`], which every [`WarmEstimator`] family
//! ([`crate::Lss`], [`crate::Lws`]) gets for free: they fan the
//! family's own `prepare` / `estimate_prepared` out per shard; the
//! reusable state is one [`Sharded<W>`] over the family's warm state
//! (for LSS with the same plain-data form as the unsharded state:
//! [`Sharded::to_parts`] / [`Sharded::from_parts`]). An unsharded run
//! is **not** the `k = 1` case: a one-shard plan still salts its seed,
//! composes through Welch–Satterthwaite, reports as `LSS@1` and emits a
//! fan-out span.
//!
//! **Seed salting.** Shard `s` of a run with canonical seed `seed` uses
//! `shard_seed(seed, s) = mix_seed(mix_seed(seed, SALT_SHARD), s)`. The
//! salt stream depends only on the plan and the canonical seed — not on
//! thread count or shard execution order — so sharded estimates are
//! bit-identical across `RAYON_NUM_THREADS` settings.
//!
//! **Variance composition.** Shards partition the population, and
//! per-shard estimators use disjoint sample draws, so the merged count
//! `X = Σ X_k` has `Var(X) = Σ Var(X_k)` *exactly* (equivalently
//! `Σ w_k² Var(p̂_k)` in proportion units with `w_k = N_k/N`). The merged
//! interval comes from [`lts_stats::compose_independent`] with
//! Welch–Satterthwaite degrees of freedom — no post-hoc widening, so the
//! returned CI half-width is pinned to the composed-variance formula.

use crate::error::{CoreError, CoreResult};
use crate::estimators::Lss;
use crate::problem::{CountingProblem, IdMap};
use crate::report::{EstimateReport, PhaseTimings, QualityForecast};
use crate::warm::{fnv1a, mix_seed, LssParts, LssWarm, Resumable, WarmEstimator};
use lts_sampling::{proportional_allocation, CountEstimate};
use lts_stats::{compose_independent, z_critical, Component};
use lts_table::partition_bounds;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Domain-separation salt for per-shard seeds (distinct from the
/// learn/design/sample salts inside each shard's pipeline).
pub const SALT_SHARD: u64 = 0x5348_4152_4453; // "SHARDS"

/// The canonical per-shard seed: depends only on the run seed and the
/// shard index, never on thread count or execution order.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    mix_seed(mix_seed(seed, SALT_SHARD), shard as u64)
}

/// Bounds of `n` items split into at most `k` near-equal contiguous
/// shards: [`partition_bounds`] with duplicate boundaries (from
/// `k > n`) collapsed, so every shard is non-empty. A pure function of
/// `(n, k)` — independent of thread count and execution order — which
/// is what makes sharded estimates reproducible across hosts. Always
/// at least two bounds: `n == 0` yields `[0, 0]`.
fn shard_bounds(n: usize, k: usize) -> Vec<usize> {
    let mut bounds = partition_bounds(n, k);
    bounds.dedup();
    if bounds.len() < 2 {
        bounds.push(n);
    }
    bounds
}

/// A partition of `0..N` into `k` contiguous, non-empty shards, stored
/// as `k + 1` strictly increasing bounds starting at 0 and ending at
/// `N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Near-equal shards of a population of `n` rows. Requesting more
    /// shards than rows collapses to `n` singleton shards; `k = 0` and
    /// `n = 0` are rejected.
    ///
    /// This layout is pure arithmetic — independent of thread count —
    /// so shard layouts (and therefore estimates) are reproducible
    /// everywhere.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty population or zero shards.
    pub fn uniform(n: usize, k: usize) -> CoreResult<Self> {
        if k == 0 {
            return Err(CoreError::InvalidConfig {
                message: "shard count must be at least 1".into(),
            });
        }
        if n == 0 {
            return Err(CoreError::InvalidConfig {
                message: "cannot shard an empty population".into(),
            });
        }
        Self::from_bounds(shard_bounds(n, k))
    }

    /// Build a plan from explicit bounds.
    ///
    /// # Errors
    ///
    /// Returns an error unless the bounds start at 0, are strictly
    /// increasing, and describe at least one non-empty shard.
    pub fn from_bounds(bounds: Vec<usize>) -> CoreResult<Self> {
        let ok = bounds.len() >= 2 && bounds[0] == 0 && bounds.windows(2).all(|w| w[0] < w[1]);
        if !ok {
            return Err(CoreError::InvalidConfig {
                message: format!("invalid shard bounds {bounds:?}"),
            });
        }
        Ok(Self { bounds })
    }

    /// Population size `N`.
    pub fn n(&self) -> usize {
        *self.bounds.last().expect("plan has bounds")
    }

    /// Number of shards `k`.
    pub fn k(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The `k + 1` shard bounds.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Half-open global row range of shard `s`.
    pub fn range(&self, s: usize) -> (usize, usize) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// Shard sizes, in shard order.
    pub fn sizes(&self) -> Vec<usize> {
        self.bounds.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Build the per-shard sub-problems of `problem` under `plan`: the
/// parent's table (shared), the shard's feature rows, delegating
/// predicate, parent confidence level.
///
/// # Errors
///
/// Returns an error when the plan's population size differs from the
/// problem's.
pub fn shard_problems(
    problem: &CountingProblem,
    plan: &ShardPlan,
) -> CoreResult<Vec<Arc<CountingProblem>>> {
    if plan.n() != problem.n() {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "shard plan covers {} rows but the problem has {}",
                plan.n(),
                problem.n()
            ),
        });
    }
    (0..plan.k())
        .map(|s| {
            let (lo, hi) = plan.range(s);
            let sub = problem.sub_population(IdMap::Range(lo, hi), &format!("#shard{s}"))?;
            Ok(Arc::new(sub))
        })
        .collect()
}

/// Per-shard budgets of a sharded run: proportional to shard size,
/// floored at the smallest budget `est` can split (`budget` itself when
/// nothing below it is feasible, so the allocation — not the search —
/// reports infeasibility).
fn shard_budgets<E: WarmEstimator + ?Sized>(
    est: &E,
    plan: &ShardPlan,
    budget: usize,
) -> CoreResult<Vec<usize>> {
    let min_budget = (1..budget).find(|&b| est.splits(b)).unwrap_or(budget);
    Ok(proportional_allocation(&plan.sizes(), budget, min_budget)?)
}

/// Merge per-shard reports into one: count and variance summed exactly,
/// interval from the composed variance with Welch–Satterthwaite degrees
/// of freedom, timings summed per phase (total = measured wall time).
fn merge_shard_reports(
    reports: &[EstimateReport],
    n: usize,
    level: f64,
    estimator: String,
    wall: Duration,
) -> CoreResult<EstimateReport> {
    let parts: Vec<Component> = reports
        .iter()
        .map(|r| Component {
            value: r.estimate.count,
            variance: r.estimate.std_error * r.estimate.std_error,
            df: r.estimate.df,
        })
        .collect();
    let composed = compose_independent(&parts, level)?;
    let nf = n as f64;
    let estimate = CountEstimate {
        count: composed.value,
        std_error: composed.std_error,
        interval: composed.interval.clamped(0.0, nf),
        df: composed.df,
    };
    let mut timings = PhaseTimings::default();
    let mut evals = 0usize;
    let mut notes = vec![format!(
        "merged {} shard estimators; variance composed as Σ Var_k",
        reports.len()
    )];
    let mut stage2 = 0usize;
    let mut forecast_var = 0.0f64;
    let mut have_forecast = !reports.is_empty();
    for (s, r) in reports.iter().enumerate() {
        evals += r.evals;
        timings.learn += r.timings.learn;
        timings.design += r.timings.design;
        timings.phase2 += r.timings.phase2;
        timings.labeling += r.timings.labeling;
        for note in &r.notes {
            notes.push(format!("shard {s}: {note}"));
        }
        match &r.forecast {
            Some(f) => {
                stage2 += f.stage2_samples;
                forecast_var += f.predicted_se * f.predicted_se;
            }
            None => have_forecast = false,
        }
    }
    timings.total = wall;
    let forecast = if have_forecast {
        let predicted_se = forecast_var.sqrt();
        let z = z_critical(level)?;
        Some(QualityForecast {
            predicted_se,
            predicted_halfwidth: z * predicted_se,
            stage2_samples: stage2,
        })
    } else {
        None
    };
    Ok(EstimateReport {
        estimate,
        has_interval: reports.iter().all(|r| r.has_interval),
        evals,
        timings,
        estimator,
        notes,
        forecast,
    })
}

/// Reusable state of a sharded run: the plan plus one warm state per
/// shard. Holds no table data — estimate calls re-derive the shard
/// sub-problems from the problem they are given.
pub struct Sharded<W> {
    plan: ShardPlan,
    shards: Vec<W>,
    /// Total oracle evaluations spent preparing (the cold-start cost).
    pub prepare_evals: usize,
}

impl<W: Resumable> Sharded<W> {
    /// The shard plan the state was prepared under.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Per-shard warm states, in shard order.
    pub fn shards(&self) -> &[W] {
        &self.shards
    }

    /// Content digest: plan bounds mixed with every shard digest.
    pub fn digest(&self) -> u64 {
        let mut d = fnv1a(W::SHARDED_SALT);
        for &b in self.plan.bounds() {
            d = mix_seed(d, b as u64);
        }
        for w in &self.shards {
            d = mix_seed(d, w.digest());
        }
        d
    }

    /// All exactly-known `(global object id, label)` pairs across
    /// shards.
    pub fn known_labels(&self) -> Vec<(usize, bool)> {
        let mut out = Vec::new();
        for (s, w) in self.shards.iter().enumerate() {
            let offset = self.plan.bounds[s];
            out.extend(w.known_labels().into_iter().map(|(id, l)| (id + offset, l)));
        }
        out
    }

    /// Fresh labels each resume spends (sum of per-shard resume
    /// budgets).
    pub fn resume_evals(&self) -> usize {
        self.shards.iter().map(Resumable::resume_evals).sum()
    }
}

impl Sharded<LssWarm> {
    /// Every shard's state as plain data, in shard order.
    pub fn to_parts(&self) -> Vec<LssParts> {
        self.shards.iter().map(LssWarm::to_parts).collect()
    }

    /// Rebuild a state prepared under `lss` at `budget` over `problem`
    /// sharded by `plan`: per-shard budgets are re-derived as a prepare
    /// derives them, and each shard is checked by
    /// [`LssWarm::from_parts`] against its own sub-population.
    ///
    /// # Errors
    ///
    /// Returns an error when the plan does not cover the problem, the
    /// part count is not the shard count, the budget does not allocate,
    /// or any shard's parts fail their checks.
    pub fn from_parts(
        parts: Vec<LssParts>,
        plan: &ShardPlan,
        budget: usize,
        problem: &CountingProblem,
        lss: &Lss,
    ) -> CoreResult<Self> {
        if parts.len() != plan.k() {
            return Err(CoreError::InvalidState {
                message: format!("{} shard states for {} shards", parts.len(), plan.k()),
            });
        }
        let problems = shard_problems(problem, plan)?;
        let budgets = shard_budgets(lss, plan, budget)?;
        let shards = (parts.into_iter().zip(budgets).zip(&problems))
            .map(|((parts, budget), problem)| LssWarm::from_parts(parts, budget, problem, lss))
            .collect::<CoreResult<Vec<_>>>()?;
        Ok(Sharded {
            plan: plan.clone(),
            prepare_evals: shards.iter().map(Resumable::prepare_evals).sum(),
            shards,
        })
    }
}

/// Run `job` once per shard in parallel and emit the fan-out span (one
/// `shard_fanout` event plus one `shard` event per shard, in shard
/// order, carrying `evals_of` the shard's result) onto the calling
/// thread's trace collector, if one is installed. The per-shard jobs
/// run [`lts_obs::trace::suppressed`] — a work-stealing thread may run
/// one while carrying another request's collector — so emission happens
/// here after the join, which also keeps event order a pure function of
/// the plan, independent of execution interleaving.
fn fan_out<T: Send>(
    k: usize,
    job: impl Fn(usize) -> CoreResult<T> + Sync,
    evals_of: impl Fn(&T) -> usize,
) -> CoreResult<Vec<T>> {
    let timed: Vec<(CoreResult<T>, Duration)> = (0..k)
        .into_par_iter()
        .map(|s| {
            let t0 = Instant::now();
            let r = lts_obs::trace::suppressed(|| job(s));
            (r, t0.elapsed())
        })
        .collect();
    let mut out = Vec::with_capacity(k);
    let mut spans = Vec::with_capacity(k);
    for (r, wall) in timed {
        let r = r?;
        spans.push((evals_of(&r) as u64, wall));
        out.push(r);
    }
    if lts_obs::trace::collecting() {
        lts_obs::trace::emit(lts_obs::TraceEvent::ShardFanout { shards: k as u64 });
        for (i, (evals, wall)) in spans.into_iter().enumerate() {
            lts_obs::trace::emit(lts_obs::TraceEvent::Shard {
                index: i as u64,
                evals,
                wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }
    Ok(out)
}

/// Sharded prepare and sharded resume, written once for every
/// [`WarmEstimator`] family: the family's own `prepare` /
/// `estimate_prepared` fanned out per shard.
pub trait Shardable: WarmEstimator {
    /// Prepare independently on every shard of `plan`: budgets
    /// proportional to shard size, seeds salted per shard, shards run
    /// in parallel.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid plan, an infeasible budget, or
    /// any shard's prepare failure.
    fn prepare_sharded(
        &self,
        problem: &CountingProblem,
        plan: &ShardPlan,
        budget: usize,
        seed: u64,
    ) -> CoreResult<Sharded<Self::Warm>> {
        let problems = shard_problems(problem, plan)?;
        let budgets = shard_budgets(self, plan, budget)?;
        let shards = fan_out(
            plan.k(),
            |s| self.prepare(&problems[s], budgets[s], shard_seed(seed, s)),
            Resumable::prepare_evals,
        )?;
        Ok(Sharded {
            plan: plan.clone(),
            prepare_evals: shards.iter().map(Resumable::prepare_evals).sum(),
            shards,
        })
    }

    /// Run the final sampling stage on every shard of a prepared
    /// sharded state and merge the shard estimators as strata of one
    /// stratified estimator.
    ///
    /// # Errors
    ///
    /// Returns an error when the state's plan does not cover the
    /// problem, or any shard's estimate fails.
    fn estimate_prepared_sharded(
        &self,
        problem: &CountingProblem,
        warm: &Sharded<Self::Warm>,
        seed: u64,
    ) -> CoreResult<EstimateReport> {
        let start = Instant::now();
        let problems = shard_problems(problem, &warm.plan)?;
        let reports = fan_out(
            warm.plan.k(),
            |s| self.estimate_prepared(&problems[s], &warm.shards[s], shard_seed(seed, s)),
            |r| r.evals,
        )?;
        merge_shard_reports(
            &reports,
            problem.n(),
            problem.level(),
            format!("{}@{}", Self::NAME, warm.plan.k()),
            start.elapsed(),
        )
    }
}

impl<E: WarmEstimator> Shardable for E {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::Lws;
    use crate::problem::tests_support::{line_problem, ramp_problem};

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..8).map(|s| shard_seed(42, s)).collect();
        let b: Vec<u64> = (0..8).map(|s| shard_seed(42, s)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "salted seeds collide: {a:?}");
        assert!(!a.contains(&42), "shard seed must differ from the run seed");
        assert_ne!(shard_seed(42, 0), shard_seed(43, 0));
    }

    #[test]
    fn plan_construction_and_degenerates() {
        let p = ShardPlan::uniform(100, 4).unwrap();
        assert_eq!(p.bounds(), &[0, 25, 50, 75, 100]);
        assert_eq!(p.k(), 4);
        assert_eq!(p.n(), 100);
        assert_eq!(p.sizes(), vec![25; 4]);
        assert_eq!(p.range(2), (50, 75));

        // More shards than rows collapses to singleton shards.
        let tiny = ShardPlan::uniform(3, 8).unwrap();
        assert_eq!(tiny.bounds(), &[0, 1, 2, 3]);
        assert_eq!(tiny.k(), 3);

        assert!(ShardPlan::uniform(0, 4).is_err());
        assert!(ShardPlan::uniform(100, 0).is_err());
        assert!(ShardPlan::from_bounds(vec![0, 5, 5, 10]).is_err());
        assert!(ShardPlan::from_bounds(vec![1, 5]).is_err());
        assert!(ShardPlan::from_bounds(vec![0]).is_err());
    }

    #[test]
    fn shard_bounds_collapse_excess_shards() {
        assert_eq!(shard_bounds(100, 4), vec![0, 25, 50, 75, 100]);
        // k > n: one shard per row, no empty shard survives.
        assert_eq!(shard_bounds(3, 8), vec![0, 1, 2, 3]);
        assert_eq!(shard_bounds(1, 8), vec![0, 1]);
        // k = 0 behaves as 1.
        assert_eq!(shard_bounds(10, 0), vec![0, 10]);
        // Empty population keeps the two-bound shape.
        assert_eq!(shard_bounds(0, 4), vec![0, 0]);
        // Every shard non-empty whenever n > 0.
        for (n, k) in [(7usize, 3usize), (100, 7), (13, 13), (13, 64)] {
            let b = shard_bounds(n, k);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "n={n} k={k}: {b:?}");
            assert!(b.len() - 1 <= k.max(1));
        }
    }

    #[test]
    fn shard_problems_label_through_the_parent() {
        // The ramp predicate hashes the *global* row id into its label,
        // so any local-id labeling inside a shard would visibly diverge.
        let problem = ramp_problem(200, 0.2, 0.8, 7);
        let plan = ShardPlan::uniform(200, 4).unwrap();
        let subs = shard_problems(&problem, &plan).unwrap();
        problem.reset_meter();
        for (s, sub) in subs.iter().enumerate() {
            let (lo, hi) = plan.range(s);
            assert_eq!(sub.n(), hi - lo);
            assert_eq!(sub.level(), problem.level());
            for local in [0, (hi - lo) / 2, hi - lo - 1] {
                assert_eq!(
                    sub.label(local).unwrap(),
                    problem.label(lo + local).unwrap(),
                    "shard {s} row {local} disagrees with global row {}",
                    lo + local
                );
            }
            // Features travel with the rows.
            assert_eq!(sub.features().row(0), problem.features().row(lo));
        }
        // Shard labeling flows through the parent meter too.
        assert!(problem.predicate_stats().evals > 0);
        let mismatched = ShardPlan::uniform(100, 2).unwrap();
        assert!(shard_problems(&problem, &mismatched).is_err());
    }

    /// The sharded contract, checked for one family: digest stability,
    /// deterministic merge, global known labels that a resume replays at
    /// zero oracle cost, and a merge equal bit for bit to the
    /// composed-variance formula rebuilt by hand from per-shard runs at
    /// the same salted seeds.
    fn check_sharded_family<E: Shardable>(
        est: &E,
        problem: &CountingProblem,
        k: usize,
        budget: usize,
        seed: u64,
    ) -> Sharded<E::Warm> {
        let truth = problem.exact_count().unwrap() as f64;
        let nf = problem.n() as f64;
        let plan = ShardPlan::uniform(problem.n(), k).unwrap();

        let warm = est.prepare_sharded(problem, &plan, budget, seed).unwrap();
        let warm2 = est.prepare_sharded(problem, &plan, budget, seed).unwrap();
        assert_eq!(warm.digest(), warm2.digest());
        assert!(warm.prepare_evals > 0 && warm.prepare_evals <= budget);
        assert_eq!(
            warm.resume_evals(),
            warm.shards()
                .iter()
                .map(|w| w.resume_evals())
                .sum::<usize>()
        );

        let r = est.estimate_prepared_sharded(problem, &warm, seed).unwrap();
        let r2 = est.estimate_prepared_sharded(problem, &warm, seed).unwrap();
        assert_eq!(r.estimate.count.to_bits(), r2.estimate.count.to_bits());
        assert_eq!(
            r.estimate.std_error.to_bits(),
            r2.estimate.std_error.to_bits()
        );
        assert_eq!(r.estimator, format!("{}@{k}", E::NAME));
        assert!(r.has_interval);
        assert!(r.estimate.interval.contains(r.estimate.count));
        assert!(
            (r.estimate.count - truth).abs() < 0.25 * nf,
            "merged estimate {} vs truth {truth}",
            r.estimate.count
        );

        // The merge is exactly the composed-variance formula.
        let subs = shard_problems(problem, &plan).unwrap();
        let mut parts = Vec::new();
        for (s, sub) in subs.iter().enumerate() {
            let sr = est
                .estimate_prepared(sub, &warm.shards()[s], shard_seed(seed, s))
                .unwrap();
            parts.push(Component {
                value: sr.estimate.count,
                variance: sr.estimate.std_error * sr.estimate.std_error,
                df: sr.estimate.df,
            });
        }
        let composed = compose_independent(&parts, problem.level()).unwrap();
        assert_eq!(r.estimate.count.to_bits(), composed.value.to_bits());
        assert_eq!(r.estimate.std_error.to_bits(), composed.std_error.to_bits());
        let clamped = composed.interval.clamped(0.0, nf);
        assert_eq!(r.estimate.interval.lo.to_bits(), clamped.lo.to_bits());
        assert_eq!(r.estimate.interval.hi.to_bits(), clamped.hi.to_bits());

        // Known ids are global: every one labels identically on the
        // parent problem, and a resume replays them without touching the
        // oracle — it pays for its fresh draws only.
        let known = warm.known_labels();
        assert_eq!(known.len(), warm.prepare_evals);
        for &(id, label) in known.iter().take(20) {
            assert_eq!(problem.label(id).unwrap(), label);
        }
        problem.reset_meter();
        est.estimate_prepared_sharded(problem, &warm, seed).unwrap();
        assert_eq!(problem.predicate_stats().evals, warm.resume_evals() as u64);
        warm
    }

    fn lss_two_pilots() -> Lss {
        Lss {
            min_pilots_per_stratum: 2,
            ..Lss::default()
        }
    }

    #[test]
    fn sharded_lss_is_deterministic_and_merges_honestly() {
        let problem = ramp_problem(3000, 0.25, 0.75, 11);
        check_sharded_family(&lss_two_pilots(), &problem, 4, 600, 99);
    }

    #[test]
    fn sharded_known_labels_replay_at_zero_oracle_cost() {
        let problem = ramp_problem(1200, 0.3, 0.7, 5);
        check_sharded_family(&lss_two_pilots(), &problem, 3, 300, 17);
    }

    #[test]
    fn sharded_lws_is_deterministic_and_replayable() {
        let problem = ramp_problem(1500, 0.3, 0.7, 23);
        let warm = check_sharded_family(&Lws::default(), &problem, 4, 400, 7);
        // Equal shards get equal phase-2 budgets.
        assert_eq!(warm.resume_evals(), 4 * warm.shards()[0].sample_budget);
    }

    #[test]
    fn infeasible_budgets_error_instead_of_degrading() {
        let problem = line_problem(400, 0.5);
        let lss = Lss::default();
        let plan = ShardPlan::uniform(400, 8).unwrap();
        // Far below 8 shards × the per-shard LSS floor.
        assert!(lss.prepare_sharded(&problem, &plan, 40, 1).is_err());
        let lws = Lws::default();
        // 8 shards × 4-label floor = 32 > 20.
        assert!(lws.prepare_sharded(&problem, &plan, 20, 1).is_err());
    }
}
