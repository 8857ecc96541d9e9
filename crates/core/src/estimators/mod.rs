//! The estimator suite behind one trait.

pub(crate) mod lss;
mod lws;
mod lws_ht;
mod lws_seq;
mod ql;
mod srs;
mod ssn;
mod ssp;

pub use lss::{Lss, LssBudgetSplit, LssLayout, PilotHandling, PilotSource};
pub use lws::Lws;
pub use lws_ht::LwsHt;
pub use lws_seq::LwsSequential;
pub use ql::{Qlac, Qlcc};
pub use srs::Srs;
pub use ssn::Ssn;
pub use ssp::Ssp;

use crate::error::CoreResult;
use crate::problem::CountingProblem;
use crate::report::EstimateReport;
use rand::rngs::StdRng;

/// An estimator of `C(O, q)` operating under a labeling budget: the
/// maximum number of **unique** `q` evaluations it may spend.
pub trait CountEstimator: Send + Sync {
    /// Short display name ("SRS", "LSS", …) matching the paper.
    fn name(&self) -> &'static str;

    /// Whether the returned interval is statistically meaningful
    /// (quantification learning yields point estimates only).
    fn provides_interval(&self) -> bool {
        true
    }

    /// Run one estimate with the given labeling budget.
    ///
    /// # Errors
    ///
    /// Returns configuration/budget errors or propagated substrate
    /// errors.
    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport>;
}

/// Validate the budget against the population: every estimator needs
/// `1 ≤ budget ≤ N`.
pub(crate) fn check_budget(problem: &CountingProblem, budget: usize) -> CoreResult<()> {
    if budget == 0 {
        return Err(crate::error::CoreError::BudgetTooSmall {
            budget,
            required: 1,
            reason: "zero labeling budget".into(),
        });
    }
    if budget > problem.n() {
        return Err(crate::error::CoreError::BudgetExceedsPopulation {
            budget,
            population: problem.n(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::check_budget;
    use crate::error::CoreError;
    use crate::problem::tests_support::line_problem;

    #[test]
    fn check_budget_classifies_both_failure_modes() {
        let problem = line_problem(10, 0.5);
        assert!(matches!(
            check_budget(&problem, 0),
            Err(CoreError::BudgetTooSmall { budget: 0, .. })
        ));
        // Over-population is its own variant, not a "too small" error.
        match check_budget(&problem, 11) {
            Err(CoreError::BudgetExceedsPopulation { budget, population }) => {
                assert_eq!(budget, 11);
                assert_eq!(population, 10);
            }
            other => panic!("expected BudgetExceedsPopulation, got {other:?}"),
        }
        assert!(check_budget(&problem, 1).is_ok());
        assert!(check_budget(&problem, 10).is_ok());
    }
}
