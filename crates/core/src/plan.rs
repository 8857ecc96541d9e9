//! Query planning: run the cheap prefilter exactly, estimate only the
//! expensive residual.
//!
//! [`fn@lts_table::decompose`] splits a conjunctive predicate into a
//! subquery-free prefilter and an oracle-bearing residual. This module
//! turns that split into an executable plan:
//!
//! 1. **Selection** ([`select_prefilter`]): the prefilter runs as one
//!    vectorized, partition-parallel boolean scan
//!    ([`PartitionedTable::par_eval_bool`]) — zero oracle cost — and
//!    yields the surviving row ids in ascending order, bit-identical at
//!    every partition and thread count.
//! 2. **Restriction** ([`restrict_problem`],
//!    [`PhysicalPlan::over_survivors`]): the residual becomes a
//!    [`CountingProblem`] over just the survivors — a sub-population
//!    view sharing the parent's table (its feature columns too) and the
//!    survivor id list (`u32`, read by its feature view and its
//!    predicate alike, and by every other plan handed the same list —
//!    the selection depends on the prefilter alone, so queries that
//!    share one can share one scan): every evaluation goes to the
//!    **parent** problem's metered predicate at the *global* row id, so
//!    predicates that capture per-row state keyed by global id stay
//!    correct and the parent's meter keeps pricing the oracle.
//! 3. **Counting**: because the full query accepts a row iff the
//!    prefilter accepts it *and* the residual accepts it, the residual
//!    count over the `M` survivors **is** the full-population count —
//!    no rescaling of the point estimate is needed, while the interval
//!    comes from the restricted population (estimators clamp to
//!    `[0, M]` instead of `[0, N]`, strictly tighter). An estimator
//!    spends its budget on `M ≤ N` rows, which is the entire economic
//!    win.
//!
//! **Determinism.** The selection is a deterministic function of the
//! table content and the prefilter expression; the restricted problem
//! lists survivors in ascending id order; estimator seeds are derived
//! by callers from the canonical query text (see `lts-serve`'s seed
//! contract). Nothing in the plan depends on thread count, so planned
//! estimates are bit-identical across `RAYON_NUM_THREADS` settings and
//! equal to a forced-serial execution.
//!
//! **Error semantics.** The scan surfaces prefilter errors exactly as
//! the serial row-order evaluation would; residual errors can only
//! surface on surviving rows. See `lts_table::decompose` for the
//! Kleene/error-shadowing contract of the split itself.

use crate::error::{CoreError, CoreResult};
use crate::problem::{narrow_ids, CountingProblem};
use lts_table::{Expr, PartitionedTable};
use std::sync::Arc;

/// The result of running a prefilter scan: surviving global row ids in
/// ascending order, plus the population they were selected from.
#[derive(Debug, Clone)]
pub struct PrefilterSelection {
    /// Surviving row ids, ascending.
    pub survivors: Vec<usize>,
    /// Rows scanned (`N`).
    pub population: usize,
}

impl PrefilterSelection {
    /// Fraction of the population the prefilter keeps (0 for an empty
    /// population).
    pub fn selectivity(&self) -> f64 {
        if self.population == 0 {
            0.0
        } else {
            self.survivors.len() as f64 / self.population as f64
        }
    }

    /// The survivors as one shared `u32` id list — what
    /// [`PhysicalPlan::over_survivors`] restricts to, and what a caller
    /// keeps to plan every query with this prefilter without scanning
    /// again.
    ///
    /// # Errors
    ///
    /// Returns an error for an id that does not fit in 32 bits.
    pub fn ids(&self) -> CoreResult<Arc<[u32]>> {
        shared_ids(&self.survivors)
    }
}

/// Number of top-level AND conjuncts in an expression (1 when it does
/// not split).
fn conjunct_count(e: &Expr) -> usize {
    match e {
        Expr::Binary(lts_table::BinaryOp::And, a, b) => conjunct_count(a) + conjunct_count(b),
        _ => 1,
    }
}

/// Run `prefilter` as one vectorized partition-parallel scan and
/// collect the surviving row ids (ascending — bit-identical at every
/// partition and thread count, per [`lts_table::partition`]'s
/// determinism contract). Nothing here emits a trace event: a request
/// that plans a decomposed query reports its plan's
/// [`PhysicalPlan::conjuncts`], population and survivors, whether this
/// scan ran for it or not.
///
/// # Errors
///
/// Propagates expression evaluation errors; the first error in row
/// order surfaces, exactly as a serial scan would.
pub fn select_prefilter(
    table: &PartitionedTable,
    prefilter: &Expr,
) -> CoreResult<PrefilterSelection> {
    let mask = table.par_eval_bool(prefilter).map_err(CoreError::Table)?;
    let population = mask.len();
    let survivors: Vec<usize> = mask
        .into_iter()
        .enumerate()
        .filter_map(|(i, keep)| keep.then_some(i))
        .collect();
    Ok(PrefilterSelection {
        survivors,
        population,
    })
}

/// Narrow survivor ids to the shared `u32` list a restriction reads.
fn shared_ids(survivors: &[usize]) -> CoreResult<Arc<[u32]>> {
    let ids = narrow_ids(survivors).map_err(|id| CoreError::InvalidConfig {
        message: format!("survivor id {id} does not fit in 32 bits"),
    })?;
    Ok(Arc::from(ids))
}

/// Restrict `parent` to the given surviving global row ids: the
/// parent's table and feature columns (shared, not copied), one `u32` id
/// list that the delegating predicate (global ids through the parent
/// meter) and the feature view both read, and the parent's confidence
/// level.
///
/// The restricted problem's count *is* the full-query count when the
/// survivors came from [`select_prefilter`] over the query's own
/// prefilter (module docs).
///
/// # Errors
///
/// Returns an error for an empty survivor set (a [`CountingProblem`]
/// cannot be empty — callers answer exactly 0 without building one), an
/// id that does not fit in 32 bits, or out-of-range ids
/// ([`lts_table::TableError::RowIndexOutOfRange`]).
pub fn restrict_problem(
    parent: &CountingProblem,
    survivors: &[usize],
) -> CoreResult<CountingProblem> {
    if survivors.is_empty() {
        return Err(CoreError::InvalidConfig {
            message: "cannot restrict a counting problem to zero survivors \
                      (the exact count is 0 — answer it directly)"
                .into(),
        });
    }
    parent.sub_population(shared_ids(survivors)?, "|prefiltered")
}

/// A fully materialized plan: the prefilter's survivor count and (when
/// any rows survive) the restricted residual problem, which reads the
/// survivor id list it was built over without copying it — or, built
/// by [`PhysicalPlan::count_only`], the count alone.
pub struct PhysicalPlan {
    conjuncts: usize,
    population: usize,
    survivors: usize,
    restricted: Option<Arc<CountingProblem>>,
}

impl PhysicalPlan {
    /// Build the plan: run the exact `prefilter` scan (the
    /// `exact_prefilter` of [`fn@lts_table::decompose`]) and plan over
    /// its survivors ([`PhysicalPlan::over_survivors`]). `table` must
    /// partition the same object table `problem` counts over.
    ///
    /// # Errors
    ///
    /// Returns an error when `table` and `problem` disagree on the
    /// population, or on scan/restriction failures.
    pub fn build(
        problem: &CountingProblem,
        table: &PartitionedTable,
        prefilter: &Expr,
    ) -> CoreResult<Self> {
        if table.len() != problem.n() {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "plan table has {} rows but the problem counts {}",
                    table.len(),
                    problem.n()
                ),
            });
        }
        let survivors = select_prefilter(table, prefilter)?.ids()?;
        Self::over_survivors(problem, prefilter, survivors)
    }

    /// Plan over `survivors`, the ascending ids [`select_prefilter`]
    /// kept of `problem`'s population under `prefilter`, shared rather
    /// than copied: the restricted problem's predicate and feature view
    /// both read this one list, so plans of every query with the same
    /// prefilter can share one scan's survivors.
    ///
    /// # Errors
    ///
    /// Returns an error for an id outside `problem`'s population.
    pub fn over_survivors(
        problem: &CountingProblem,
        prefilter: &Expr,
        survivors: Arc<[u32]>,
    ) -> CoreResult<Self> {
        let mut plan = Self::count_only(problem, prefilter, survivors.len());
        if !survivors.is_empty() {
            let restricted = problem.sub_population(survivors, "|prefiltered")?;
            plan.restricted = Some(Arc::new(restricted));
        }
        Ok(plan)
    }

    /// A plan that keeps only the survivor count `survivors`: for a
    /// prefilter too unselective to restrict to, whose queries count
    /// over the whole population, so no id of it is kept. Its
    /// [`PhysicalPlan::restricted`] is `None`.
    pub fn count_only(problem: &CountingProblem, prefilter: &Expr, survivors: usize) -> Self {
        Self {
            conjuncts: conjunct_count(prefilter),
            population: problem.n(),
            survivors,
            restricted: None,
        }
    }

    /// Number of top-level AND conjuncts in the prefilter.
    pub fn conjuncts(&self) -> usize {
        self.conjuncts
    }

    /// Population size `N` the prefilter was run over.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Prefilter survivor count `M`.
    pub fn survivors(&self) -> usize {
        self.survivors
    }

    /// Observed prefilter selectivity `M/N`.
    pub fn selectivity(&self) -> f64 {
        self.survivors as f64 / self.population as f64
    }

    /// The restricted residual problem (`None` when no rows survived
    /// the prefilter, or for a [`PhysicalPlan::count_only`] plan).
    pub fn restricted(&self) -> Option<&Arc<CountingProblem>> {
        self.restricted.as_ref()
    }

    /// Exact count through the plan: residual census over the
    /// survivors (0 oracle evaluations when nothing survived). Equal to
    /// the monolithic [`CountingProblem::exact_count`] whenever both
    /// succeed (the decomposition contract).
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation errors; a count-only plan with
    /// survivors has no problem to count over.
    pub fn exact_count(&self) -> CoreResult<usize> {
        match &self.restricted {
            Some(r) => r.exact_count(),
            None if self.survivors == 0 => Ok(0),
            None => Err(CoreError::InvalidConfig {
                message: "a count-only plan keeps no survivors to count over".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::{decompose, table_of_floats, ExprPredicate};

    fn scenario() -> (Arc<CountingProblem>, PartitionedTable, Expr) {
        // 64 rows, x = 0..64, y alternating; inner table for the
        // expensive conjunct.
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..64).map(|i| (i % 8) as f64).collect();
        let table = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        let inner = Arc::new(table_of_floats(&[("v", &xs)]).unwrap());
        // `x < 24 AND (SELECT COUNT(*) FROM inner WHERE v < o.y) >= 4`
        let expr = Expr::col("x").lt(Expr::lit(24.0)).and(
            Expr::count_where(Arc::clone(&inner), Expr::col("v").lt(Expr::outer("y")))
                .ge(Expr::lit(4.0)),
        );
        let predicate = Arc::new(ExprPredicate::new("q", expr.clone()));
        let problem =
            Arc::new(CountingProblem::new(Arc::clone(&table), predicate, &["x", "y"]).unwrap());
        let pt = PartitionedTable::new(table, 4);
        (problem, pt, expr)
    }

    /// What a request's `prefilter` trace event reports of a plan.
    fn reported(plan: &PhysicalPlan) -> (usize, usize, usize) {
        (plan.conjuncts(), plan.population(), plan.survivors())
    }

    #[test]
    fn selection_is_ascending_and_matches_serial() {
        let (_, pt, _) = scenario();
        let prefilter = Expr::col("x").lt(Expr::lit(24.0));
        let sel = select_prefilter(&pt, &prefilter).unwrap();
        assert_eq!(sel.population, 64);
        assert_eq!(sel.survivors, (0..24).collect::<Vec<_>>());
        assert!((sel.selectivity() - 24.0 / 64.0).abs() < 1e-12);
        // Identical at a different partition count.
        let serial = PartitionedTable::new(Arc::clone(pt.table()), 1);
        assert_eq!(
            select_prefilter(&serial, &prefilter).unwrap().survivors,
            sel.survivors
        );
    }

    #[test]
    fn restricted_problem_labels_at_global_ids_through_parent_meter() {
        let (problem, _, _) = scenario();
        let survivors = vec![3, 10, 17, 40];
        let sub = restrict_problem(&problem, &survivors).unwrap();
        assert_eq!(sub.n(), 4);
        assert_eq!(sub.level(), problem.level());
        for (local, &global) in survivors.iter().enumerate() {
            assert_eq!(
                sub.label(local).unwrap(),
                problem.label(global).unwrap(),
                "local {local} / global {global}"
            );
        }
        // The parent meter priced every eval above: 4 delegated from
        // the restricted problem + 4 direct. The restricted problem's
        // own meter saw only its 4 local calls.
        assert_eq!(problem.predicate_stats().evals, 8);
        assert_eq!(sub.predicate_stats().evals, 4);
    }

    #[test]
    fn restricting_to_zero_survivors_is_an_error() {
        let (problem, _, _) = scenario();
        assert!(restrict_problem(&problem, &[]).is_err());
    }

    #[test]
    fn a_survivor_id_past_32_bits_is_refused_not_wrapped() {
        let (problem, _, _) = scenario();
        // `as u32` would make these rows 3 and 0, both in range.
        for id in [(1 << 32) + 3, 1 << 32, usize::MAX] {
            match restrict_problem(&problem, &[1, id]).map(|_| ()) {
                Err(CoreError::InvalidConfig { message }) => {
                    assert_eq!(message, format!("survivor id {id} does not fit in 32 bits"));
                }
                other => panic!("{id}: expected a 32-bit refusal, got {other:?}"),
            }
        }
        assert!(restrict_problem(&problem, &[1, u32::MAX as usize]).is_err());
    }

    #[test]
    fn planned_exact_count_equals_monolithic() {
        let (problem, pt, expr) = scenario();
        let prefilter = decompose(&expr).exact_prefilter.unwrap();
        let plan = PhysicalPlan::build(&problem, &pt, &prefilter).unwrap();
        assert_eq!(plan.survivors(), 24);
        assert!((plan.selectivity() - 24.0 / 64.0).abs() < 1e-12);
        assert_eq!(plan.exact_count().unwrap(), problem.exact_count().unwrap());
    }

    #[test]
    fn plans_over_one_shared_selection_copy_no_ids_and_trace_alike() {
        let (problem, pt, expr) = scenario();
        let prefilter = decompose(&expr).exact_prefilter.unwrap();
        let built = PhysicalPlan::build(&problem, &pt, &prefilter).unwrap();
        let ids = select_prefilter(&pt, &prefilter).unwrap().ids().unwrap();
        let plan = |_| PhysicalPlan::over_survivors(&problem, &prefilter, Arc::clone(&ids));
        let shared = [plan(0).unwrap(), plan(1).unwrap()];
        // Each plan reports the selection as the scanning build does.
        for plan in &shared {
            assert_eq!(reported(plan), reported(&built));
            assert_eq!(plan.selectivity().to_bits(), built.selectivity().to_bits());
            assert_eq!(plan.exact_count().unwrap(), built.exact_count().unwrap());
            let view = plan.restricted().unwrap().feature_view();
            assert!(Arc::ptr_eq(view.ids().unwrap(), &ids));
        }
        // The caller's list, and a predicate and a view per plan.
        assert_eq!(Arc::strong_count(&ids), 5);
        let stray = Arc::from([0, 64]);
        assert!(PhysicalPlan::over_survivors(&problem, &prefilter, stray).is_err());
    }

    #[test]
    fn a_count_only_plan_reports_its_selection_and_counts_nothing() {
        let (problem, pt, expr) = scenario();
        let prefilter = decompose(&expr).exact_prefilter.unwrap();
        let built = PhysicalPlan::build(&problem, &pt, &prefilter).unwrap();
        let plan = PhysicalPlan::count_only(&problem, &prefilter, built.survivors());
        assert_eq!(reported(&built), (1, 64, 24));
        assert_eq!(reported(&plan), reported(&built));
        assert_eq!(plan.selectivity().to_bits(), built.selectivity().to_bits());
        assert!(plan.restricted().is_none());
        assert!(plan.exact_count().is_err());
    }

    #[test]
    fn empty_prefilter_answers_zero_without_a_problem() {
        let (problem, pt, _) = scenario();
        let prefilter = Expr::col("x").lt(Expr::lit(-1.0));
        let plan = PhysicalPlan::build(&problem, &pt, &prefilter).unwrap();
        assert_eq!(plan.survivors(), 0);
        assert!(plan.restricted().is_none());
        assert_eq!(plan.exact_count().unwrap(), 0);
    }
}
