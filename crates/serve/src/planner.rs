//! Budget planning and admission control.
//!
//! Every request states *what accuracy it wants* (a confidence-interval
//! halfwidth, relative or absolute) or *what it is willing to pay* (an
//! explicit labeling budget). The planner turns that into a route:
//!
//! * **Exact** — tiny populations (or targets so tight that sampling
//!   would label most of the population anyway) go straight to the
//!   brute-force scan: for `N` below the cutoff the census is cheaper
//!   than training a proxy, and its "interval" has zero width.
//! * **Estimate { budget }** — everything else gets the *cheapest*
//!   labeling budget whose worst-case SRS halfwidth meets the target.
//!   SRS with `p = ½` is the distribution-free upper bound on the
//!   halfwidth of every estimator in the suite (the learned estimators
//!   only tighten it), so a budget sized by the closed-form SRS bound
//!   is sufficient for the requested width, whichever estimator the
//!   service executes.
//!
//! The closed form (Wald with finite-population correction, `p = ½`):
//! `w = z·N/(2√n) · √((N−n)/(N−1))`, solved for `n`:
//! `n = aN/(N−1+a)` with `a = (zN/2w)²` — computed as `N/(1+(N−1)/a)`,
//! the form that has its limit: `a` overflows to `∞` for a narrow
//! enough `w`, and the narrowest request must size the census, `n = N`.
//!
//! **Decomposed queries.** When a query splits into a cheap exact
//! prefilter and an expensive residual (`lts_table::decompose`), the
//! planner chooses among four routes ([`BudgetPlanner::choose`]): the
//! monolithic census, the monolithic estimate, an exact residual census
//! over the prefilter survivors, or a prefilter + estimate plan whose
//! budget is sized for the *restricted* population `M` — width targets
//! keep their full-population meaning (±1% of `N` stays ±1% of `N`),
//! which is why shrinking the population shrinks the budget so
//! sharply. The service keeps each prefilter scan's survivors per
//! canonical prefilter, and reuses them and their selectivity on the
//! next plan.

use lts_core::CoreResult;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// An explicit labeling budget (unique `q` evaluations).
    Budget(usize),
    /// A halfwidth target as a fraction of the population size
    /// (`0.01` = the interval must be within ±1% of `N`).
    RelWidth(f64),
    /// A halfwidth target in absolute count units.
    AbsWidth(f64),
}

impl Target {
    /// Reject a malformed target: a zero budget, a relative width
    /// outside `(0, 1)`, a non-positive or non-finite absolute width.
    /// Both planning entry points run this first, so a bad target is an
    /// error whatever the population or survivor count.
    ///
    /// # Errors
    ///
    /// Returns [`lts_core::CoreError::InvalidConfig`] naming the value.
    pub fn validate(self) -> CoreResult<()> {
        let message = match self {
            Target::Budget(0) => "explicit budget must be positive".into(),
            Target::RelWidth(frac) if !(frac > 0.0 && frac < 1.0) => {
                format!("relative width must be in (0, 1), got {frac}")
            }
            Target::AbsWidth(w) if !(w.is_finite() && w > 0.0) => {
                format!("halfwidth target must be positive, got {w}")
            }
            _ => return Ok(()),
        };
        Err(lts_core::CoreError::InvalidConfig { message })
    }
}

/// Where a request is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Evaluate `q` on every object (census).
    Exact,
    /// Run an estimator under this labeling budget.
    Estimate {
        /// Unique-evaluation budget.
        budget: usize,
    },
}

/// Where a *decomposed* request is routed ([`BudgetPlanner::choose`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRoute {
    /// The prefilter does not pay (unselective, absent, or disabled):
    /// one-stage plan over the full population.
    Monolithic(Route),
    /// Exact prefilter scan, then a residual **census** over the
    /// survivors (few enough that sampling cannot beat it, or none at
    /// all — the count is then exactly 0 at zero oracle cost).
    PrefilterExact,
    /// Exact prefilter scan, then an estimator over the survivors.
    PrefilterEstimate {
        /// Unique-evaluation budget for the restricted population.
        budget: usize,
    },
}

/// The admission-control budget planner.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPlanner {
    /// Populations at or below this size route to the exact census.
    pub exact_cutoff: usize,
    /// Minimum budget handed to an estimator (a learned estimator
    /// cannot do anything useful with a handful of labels).
    pub min_budget: usize,
    /// When the planned budget exceeds this fraction of `N`, the census
    /// is the cheaper way to reach the target: route to exact.
    pub exact_fraction: f64,
    /// Confidence level the width targets refer to.
    pub level: f64,
    /// A prefilter keeping at least this fraction of the population is
    /// not worth a two-stage plan: route the query monolithically.
    /// `0.0` disables decomposition entirely (every query routes
    /// monolithically — the forced-monolithic baseline in benchmarks);
    /// values `> 1.0` always take the prefilter plan.
    pub monolithic_selectivity: f64,
}

impl Default for BudgetPlanner {
    fn default() -> Self {
        Self {
            exact_cutoff: 64,
            min_budget: 60,
            exact_fraction: 0.5,
            level: 0.95,
            monolithic_selectivity: 0.6,
        }
    }
}

impl BudgetPlanner {
    /// The smallest SRS sample size whose worst-case (`p = ½`) Wald
    /// halfwidth with finite-population correction meets
    /// `halfwidth_counts` on a population of `n_objects`.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive target or an invalid level.
    pub fn srs_budget_for_halfwidth(
        &self,
        n_objects: usize,
        halfwidth_counts: f64,
    ) -> CoreResult<usize> {
        Target::AbsWidth(halfwidth_counts).validate()?;
        if n_objects == 0 {
            return Err(lts_core::CoreError::InvalidConfig {
                message: "cannot size a sample for an empty population".into(),
            });
        }
        let z = lts_stats::z_critical(self.level).map_err(lts_core::CoreError::Stats)?;
        let nf = n_objects as f64;
        let a = (z * nf / (2.0 * halfwidth_counts)).powi(2);
        let n = (nf / (1.0 + (nf - 1.0) / a)).ceil() as usize;
        Ok(n.clamp(1, n_objects))
    }

    /// Route a request: census for small populations or near-census
    /// budgets, otherwise the cheapest sufficient budget.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed targets (non-positive widths,
    /// zero budgets).
    pub fn plan(&self, n_objects: usize, target: Target) -> CoreResult<Route> {
        target.validate()?;
        if n_objects <= self.exact_cutoff {
            return Ok(Route::Exact);
        }
        let budget = match target {
            Target::Budget(b) => b.min(n_objects),
            Target::RelWidth(frac) => {
                self.srs_budget_for_halfwidth(n_objects, frac * n_objects as f64)?
            }
            Target::AbsWidth(w) => self.srs_budget_for_halfwidth(n_objects, w)?,
        };
        let budget = budget.max(self.min_budget).min(n_objects);
        if (budget as f64) >= self.exact_fraction * n_objects as f64 {
            return Ok(Route::Exact);
        }
        Ok(Route::Estimate { budget })
    }

    /// Whether a prefilter keeping `survivors` of `n_objects` is too
    /// unselective to plan over: its queries route monolithically.
    pub(crate) fn unselective(&self, survivors: usize, n_objects: usize) -> bool {
        survivors as f64 >= self.monolithic_selectivity * n_objects as f64
    }

    /// Route a decomposed request given the observed prefilter
    /// survivor count `M` (`survivors = None` means the query did not
    /// decompose). Width targets keep their full-population meaning:
    /// `RelWidth(f)` converts to an absolute halfwidth of `f·N` before
    /// the restricted budget is sized, so a planned estimate meets the
    /// same requested interval as the monolithic one.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed targets, exactly as
    /// [`BudgetPlanner::plan`] does.
    pub fn choose(
        &self,
        n_objects: usize,
        survivors: Option<usize>,
        target: Target,
    ) -> CoreResult<QueryRoute> {
        target.validate()?;
        let Some(m) = survivors else {
            return Ok(QueryRoute::Monolithic(self.plan(n_objects, target)?));
        };
        if self.unselective(m, n_objects) {
            return Ok(QueryRoute::Monolithic(self.plan(n_objects, target)?));
        }
        if m == 0 {
            return Ok(QueryRoute::PrefilterExact);
        }
        let restricted_target = match target {
            Target::RelWidth(frac) => Target::AbsWidth(frac * n_objects as f64),
            other => other,
        };
        Ok(match self.plan(m, restricted_target)? {
            Route::Exact => QueryRoute::PrefilterExact,
            Route::Estimate { budget } => QueryRoute::PrefilterEstimate { budget },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_populations_route_to_exact() {
        let p = BudgetPlanner::default();
        assert_eq!(p.plan(64, Target::Budget(10)).unwrap(), Route::Exact);
        // Just above the cutoff the min-budget floor still makes the
        // census the cheaper plan; with room to sample, it estimates.
        assert_eq!(p.plan(65, Target::Budget(10)).unwrap(), Route::Exact);
        assert!(matches!(
            p.plan(500, Target::Budget(100)).unwrap(),
            Route::Estimate { budget: 100 }
        ));
    }

    #[test]
    fn closed_form_matches_the_wald_width() {
        let p = BudgetPlanner::default();
        let n_pop = 10_000usize;
        for target in [50.0, 120.0, 400.0] {
            let n = p.srs_budget_for_halfwidth(n_pop, target).unwrap();
            let width = |m: usize| {
                let nf = n_pop as f64;
                let fpc = ((nf - m as f64) / (nf - 1.0)).sqrt();
                1.959_963_984_540_054 * nf * (0.25 / m as f64).sqrt() * fpc
            };
            assert!(width(n) <= target * 1.0001, "n={n} too small for {target}");
            assert!(
                n == 1 || width(n - 1) > target,
                "n={n} not minimal for {target}"
            );
        }
    }

    #[test]
    fn tight_targets_route_to_exact() {
        let p = BudgetPlanner::default();
        // Widths so narrow that `a` overflows still size the census.
        for w in [1e-300, f64::MIN_POSITIVE] {
            assert_eq!(p.srs_budget_for_halfwidth(2_000, w).unwrap(), 2_000);
            for target in [Target::RelWidth(w), Target::AbsWidth(w)] {
                assert_eq!(p.plan(2_000, target).unwrap(), Route::Exact, "{target:?}");
            }
        }
        // ±0.1% of N needs a near-census sample: exact wins.
        assert_eq!(
            p.plan(2_000, Target::RelWidth(0.001)).unwrap(),
            Route::Exact
        );
        // A loose ±10% target stays an estimate.
        match p.plan(20_000, Target::RelWidth(0.1)).unwrap() {
            Route::Estimate { budget } => {
                assert!((60..1_000).contains(&budget), "budget {budget}")
            }
            other => panic!("expected estimate, got {other:?}"),
        }
    }

    #[test]
    fn explicit_budgets_pass_through_with_floors() {
        let p = BudgetPlanner::default();
        match p.plan(10_000, Target::Budget(5)).unwrap() {
            Route::Estimate { budget } => assert_eq!(budget, p.min_budget),
            other => panic!("{other:?}"),
        }
        match p.plan(10_000, Target::Budget(300)).unwrap() {
            Route::Estimate { budget } => assert_eq!(budget, 300),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.plan(10_000, Target::Budget(9_000)).unwrap(), Route::Exact);
    }

    #[test]
    fn choose_routes_by_survivor_count() {
        let p = BudgetPlanner::default();
        // Undecomposed → monolithic, bit-equal to plan().
        assert_eq!(
            p.choose(10_000, None, Target::Budget(300)).unwrap(),
            QueryRoute::Monolithic(p.plan(10_000, Target::Budget(300)).unwrap())
        );
        // Unselective prefilter (≥ 60% of N) → monolithic.
        assert_eq!(
            p.choose(10_000, Some(9_000), Target::Budget(300)).unwrap(),
            QueryRoute::Monolithic(Route::Estimate { budget: 300 })
        );
        // No survivors → exact plan answering 0 at zero oracle cost.
        assert_eq!(
            p.choose(10_000, Some(0), Target::Budget(300)).unwrap(),
            QueryRoute::PrefilterExact
        );
        // A handful of survivors → residual census.
        assert_eq!(
            p.choose(10_000, Some(40), Target::Budget(300)).unwrap(),
            QueryRoute::PrefilterExact
        );
        // A selective prefilter with room to sample → restricted
        // estimate.
        assert_eq!(
            p.choose(10_000, Some(2_000), Target::Budget(300)).unwrap(),
            QueryRoute::PrefilterEstimate { budget: 300 }
        );
    }

    #[test]
    fn choose_keeps_width_targets_in_population_units() {
        let p = BudgetPlanner::default();
        // ±2% of N = ±200 counts. Monolithic needs ~2.3k labels; over
        // the 1 500 survivors the same absolute width needs far fewer.
        let mono = match p.plan(10_000, Target::RelWidth(0.02)).unwrap() {
            Route::Estimate { budget } => budget,
            other => panic!("{other:?}"),
        };
        let planned = match p
            .choose(10_000, Some(1_500), Target::RelWidth(0.02))
            .unwrap()
        {
            QueryRoute::PrefilterEstimate { budget } => budget,
            other => panic!("{other:?}"),
        };
        assert!(
            planned * 3 <= mono,
            "restricted budget {planned} should be ≪ monolithic {mono}"
        );
        // And it matches sizing the restricted population directly for
        // the absolute width.
        assert_eq!(
            p.plan(1_500, Target::AbsWidth(200.0)).unwrap(),
            Route::Estimate { budget: planned }
        );
    }

    #[test]
    fn monolithic_selectivity_zero_disables_decomposition() {
        let p = BudgetPlanner {
            monolithic_selectivity: 0.0,
            ..BudgetPlanner::default()
        };
        assert_eq!(
            p.choose(10_000, Some(0), Target::Budget(300)).unwrap(),
            QueryRoute::Monolithic(Route::Estimate { budget: 300 })
        );
        assert_eq!(
            p.choose(10_000, Some(500), Target::Budget(300)).unwrap(),
            QueryRoute::Monolithic(Route::Estimate { budget: 300 })
        );
    }

    #[test]
    fn feedback_edge_cases() {
        use crate::{Service, ServiceConfig};
        use std::sync::Arc;
        // `y` is a permutation of 0..1 000, so `y < k` keeps k rows.
        let xs: Vec<f64> = (0..1_000).map(f64::from).collect();
        let ys: Vec<f64> = (0..1_000).map(|i| f64::from((i * 37) % 1_000)).collect();
        let table = Arc::new(lts_table::table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        let mut s = Service::new(ServiceConfig::default());
        for name in ["d", "e"] {
            s.register_dataset(name, Arc::clone(&table), &["x", "y"])
                .unwrap();
        }
        let query = |dataset: &str, prefilter: &str| {
            format!("{prefilter} AND (SELECT COUNT(*) FROM {dataset} WHERE x < o.x) > 700")
        };
        let predicted = |s: &mut Service, dataset: &str, prefilter: &str| {
            let condition = query(dataset, prefilter);
            let line = s.explain(dataset, &condition, Target::Budget(200)).unwrap();
            let field = line.split("\"predicted_selectivity\": ").nth(1).unwrap();
            field.split([',', '}']).next().unwrap().to_string()
        };
        // Zero survivors: a valid observation, predicting 0.
        assert_eq!(predicted(&mut s, "d", "y < 0"), "null");
        assert_eq!(predicted(&mut s, "d", "y < 0"), "0");
        // Full-population survivors: predicts 1.
        assert_eq!(predicted(&mut s, "d", "y < 1000"), "null");
        assert_eq!(predicted(&mut s, "d", "y < 1000"), "1");
        // Unknown prefilter, and a known one on another dataset.
        assert_eq!(predicted(&mut s, "d", "y < 500"), "null");
        assert_eq!(predicted(&mut s, "e", "y < 0"), "null");
        // Invalidation is dataset-scoped: `d` forgets, `e` remembers.
        s.invalidate("d").unwrap();
        assert_eq!(predicted(&mut s, "d", "y < 1000"), "null");
        assert_eq!(predicted(&mut s, "e", "y < 0"), "0");
        // The new version records afresh, one prefilter per scan.
        assert_eq!(predicted(&mut s, "d", "y < 1000"), "1");
        assert_eq!(predicted(&mut s, "d", "y < 0"), "null");
    }

    #[test]
    fn invalid_targets_error() {
        // A malformed target is an error whatever the population and
        // the survivor count — including where a census would win.
        let p = BudgetPlanner::default();
        let bad = [
            Target::Budget(0),
            Target::RelWidth(0.0),
            Target::RelWidth(1.0),
            Target::RelWidth(f64::NAN),
            Target::RelWidth(7.0),
            Target::AbsWidth(0.0),
            Target::AbsWidth(-1.0),
            Target::AbsWidth(f64::NAN),
            Target::AbsWidth(f64::INFINITY),
        ];
        for n in [10usize, 10_000] {
            for survivors in [None, Some(0), Some(n / 10)] {
                for target in bad {
                    assert!(p.plan(n, target).is_err(), "plan({n}, {target:?})");
                    assert!(
                        p.choose(n, survivors, target).is_err(),
                        "choose({n}, {survivors:?}, {target:?})"
                    );
                }
                let all = Target::Budget(usize::MAX);
                assert!(p.plan(n, all).is_ok());
                assert!(p.choose(n, survivors, all).is_ok());
            }
        }
        // Empty population errors rather than panicking in clamp.
        assert!(p.srs_budget_for_halfwidth(0, 10.0).is_err());
    }
}
