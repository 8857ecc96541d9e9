//! Unified error type for the estimator suite.

use std::fmt;

/// Errors produced by estimators.
#[derive(Debug)]
pub enum CoreError {
    /// Table-engine error (predicate evaluation, feature extraction).
    Table(lts_table::TableError),
    /// Statistics error (intervals, quantiles).
    Stats(lts_stats::StatsError),
    /// Sampling error (draws, allocation).
    Sampling(lts_sampling::SamplingError),
    /// Learning error (classifier fit/score).
    Learn(lts_learn::LearnError),
    /// Stratification-design error.
    Strata(lts_strata::StrataError),
    /// The labeling budget cannot support the estimator configuration.
    BudgetTooSmall {
        /// Requested budget.
        budget: usize,
        /// Minimum required.
        required: usize,
        /// What needed it.
        reason: String,
    },
    /// The labeling budget exceeds the population size — a census is
    /// cheaper than sampling, so the request is almost certainly a
    /// configuration mistake.
    BudgetExceedsPopulation {
        /// Requested budget.
        budget: usize,
        /// Population size `N`.
        population: usize,
    },
    /// Invalid estimator configuration.
    InvalidConfig {
        /// Description.
        message: String,
    },
    /// Plain data that does not describe a warm state of the problem and
    /// profile it is being rebuilt for (see `LssWarm::from_parts`).
    InvalidState {
        /// The first failed check.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Table(e) => write!(f, "table error: {e}"),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Sampling(e) => write!(f, "sampling error: {e}"),
            CoreError::Learn(e) => write!(f, "learning error: {e}"),
            CoreError::Strata(e) => write!(f, "stratification error: {e}"),
            CoreError::BudgetTooSmall {
                budget,
                required,
                reason,
            } => write!(f, "budget {budget} too small (need ≥ {required}): {reason}"),
            CoreError::BudgetExceedsPopulation { budget, population } => write!(
                f,
                "budget {budget} exceeds population size {population} (a census is cheaper)"
            ),
            CoreError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            CoreError::InvalidState { message } => write!(f, "invalid warm state: {message}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Table(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::Sampling(e) => Some(e),
            CoreError::Learn(e) => Some(e),
            CoreError::Strata(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lts_table::TableError> for CoreError {
    fn from(e: lts_table::TableError) -> Self {
        CoreError::Table(e)
    }
}
impl From<lts_stats::StatsError> for CoreError {
    fn from(e: lts_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}
impl From<lts_sampling::SamplingError> for CoreError {
    fn from(e: lts_sampling::SamplingError) -> Self {
        CoreError::Sampling(e)
    }
}
impl From<lts_learn::LearnError> for CoreError {
    fn from(e: lts_learn::LearnError) -> Self {
        CoreError::Learn(e)
    }
}
impl From<lts_strata::StrataError> for CoreError {
    fn from(e: lts_strata::StrataError) -> Self {
        CoreError::Strata(e)
    }
}

/// Convenience result alias.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = lts_stats::StatsError::EmptyInput.into();
        assert!(e.to_string().contains("statistics"));
        let e: CoreError = lts_table::TableError::Empty.into();
        assert!(e.to_string().contains("table"));
        let e = CoreError::BudgetTooSmall {
            budget: 5,
            required: 10,
            reason: "pilot sample".into(),
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains("10"));
        let e = CoreError::BudgetExceedsPopulation {
            budget: 101,
            population: 100,
        };
        assert!(e.to_string().contains("101"));
        assert!(e.to_string().contains("census"));
    }
}
