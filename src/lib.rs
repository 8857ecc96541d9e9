//! # learning-to-sample
//!
//! A from-scratch Rust implementation of **“Learning to Sample: Counting
//! with Complex Queries”** (Walenz, Sintos, Roy, Yang — PVLDB 12, 2019).
//!
//! The problem: estimate `C(O, q)` — how many objects of a population
//! satisfy an *expensive* predicate (correlated aggregate subqueries,
//! self-joins with HAVING, user-defined functions) — using as few
//! predicate evaluations as possible, **with confidence intervals**.
//!
//! The paper's idea: train a cheap classifier on a small labeled sample
//! and use its confidence score `g : O → [0, 1]` *to design a sampling
//! scheme* rather than trusting its predictions:
//!
//! * **LWS** (learned weighted sampling) draws objects PPS to
//!   `max(g, ε)` and estimates with the Des Raj ordered estimator;
//! * **LSS** (learned stratified sampling) orders objects by `g`,
//!   jointly optimizes stratum boundaries and sample allocation from a
//!   pilot (algorithms DirSol / LogBdr / DynPgm / DynPgmP, Theorems
//!   1–4), and runs a stratified estimator.
//!
//! Either way the estimates stay unbiased with valid intervals even if
//! the classifier is garbage — a bad `g` only costs efficiency.
//!
//! ## Quick start
//!
//! A compact version of `examples/quickstart.rs` (run that with
//! `cargo run --release --example quickstart`); this block runs as a
//! doctest, so `cargo test` exercises the documented API end to end:
//!
//! ```
//! use learning_to_sample::prelude::*;
//! use std::sync::Arc;
//!
//! // A population of 2-d points with pseudo-random structure.
//! let n = 2_000usize;
//! let mut state = 42u64;
//! let mut next = move || {
//!     state = state
//!         .wrapping_mul(6364136223846793005)
//!         .wrapping_add(1442695040888963407);
//!     (state >> 11) as f64 / (1u64 << 53) as f64
//! };
//! let xs: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
//! let ys: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
//! let table = Arc::new(lts_table::table_of_floats(&[("x", &xs), ("y", &ys)])?);
//!
//! // The expensive predicate q (the paper's Example 1): "at most 12
//! // points within distance 0.5", as the paper's correlated COUNT(*)
//! // subquery. Honest evaluation scans neighbours.
//! let q = lts_data::neighborhood::neighbors_sql_predicate(Arc::clone(&table), "x", "y", 0.5, 12);
//! let problem = CountingProblem::new(Arc::clone(&table), Arc::new(q), &["x", "y"])?;
//!
//! // Ground truth for reference (normally too expensive to compute).
//! let truth = lts_data::neighborhood::exact_neighbors_count(&xs, &ys, 0.5, 12);
//! problem.reset_meter();
//!
//! // Learned stratified sampling under a 5% labeling budget.
//! let budget = n / 20;
//! let lss = Lss { min_pilots_per_stratum: 2, ..Lss::default() };
//! let mut rng = StdRng::seed_from_u64(7);
//! let report = lss.estimate(&problem, budget, &mut rng)?;
//!
//! // The budget is respected (in unique q evaluations) and the
//! // estimate comes with a confidence interval around it.
//! assert!(report.evals <= budget);
//! assert!(report.estimate.interval.lo <= report.count());
//! assert!(report.count() <= report.estimate.interval.hi);
//! println!(
//!     "true {truth}, estimate {:.0} ∈ [{:.0}, {:.0}]",
//!     report.count(), report.estimate.interval.lo, report.estimate.interval.hi,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`lts_core`] | the estimator suite (SRS, SSP, SSN, QLCC, QLAC, LWS, LWS-HT, LWS-SEQ, LSS), the batched labeling pipeline, the parallel trial runner |
//! | [`lts_strata`] | stratification-design algorithms (§4.2, Theorems 1–4) |
//! | [`lts_sampling`] | SRS / weighted / stratified sampling, Des Raj, Horvitz–Thompson |
//! | [`lts_learn`] | from-scratch kNN, random forest, MLP, logistic, CV, active learning |
//! | [`lts_table`] | mini table engine: correlated aggregate subqueries, metered predicates, vectorized kernels ([`lts_table::vector`]) |
//! | [`lts_stats`] | distributions, confidence intervals, summaries |
//! | [`lts_data`] | synthetic Sports/Neighbors datasets + the paper's two queries |
//! | [`lts_serve`] | the serving layer: fingerprints, a per-dataset query table (problems, warm states, cached answers), budget planner, one line protocol behind the `lts-serve` REPL and the `lts-served` TCP server |
//! | [`lts_obs`] | the observability layer: metrics registry, per-phase eval attribution, deterministic per-request trace spans, Prometheus exposition |
//!
//! (`lts-bench`, not re-exported here, holds a repro binary per paper
//! table/figure and `repro_fig2`'s `BENCH_fig2.json`.)
//!
//! See `ARCHITECTURE.md` for the crate dataflow, the labeling pipeline,
//! and implementation decisions; `docs/benchmarks.md` for the perf
//! artifact schema. `cargo run --release -p lts-bench --bin repro_all`
//! regenerates every table and figure.

#![warn(missing_docs)]

pub use lts_core as core;
pub use lts_data as data;
pub use lts_learn as learn;
pub use lts_obs as obs;
pub use lts_sampling as sampling;
pub use lts_serve as serve;
pub use lts_stats as stats;
pub use lts_strata as strata;
pub use lts_table as table;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use lts_core::estimators::{
        CountEstimator, Lss, LssLayout, Lws, LwsHt, LwsSequential, PilotHandling, PilotSource,
        Qlac, Qlcc, Srs, Ssn, Ssp,
    };
    pub use lts_core::{
        run_trials, run_trials_with, ClassifierSpec, CountingProblem, EstimateReport,
        LearnPhaseConfig, LssWarm, OrderedPopulation, QualityForecast, ScoredPopulation,
        TrialExecution, TrialStats,
    };
    pub use lts_obs::{MetricsRegistry, Observability, Trace, TraceEvent};
    pub use lts_sampling::CountEstimate;
    pub use lts_serve::{
        BudgetPlanner, NetConfig, NetServer, Request, Response, Route, Service, ServiceConfig,
        Target,
    };
    pub use lts_stats::{ConfidenceInterval, IntervalKind};
    pub use lts_strata::{Allocation, DesignAlgorithm, TSelection};
    pub use lts_table::{
        parse_condition, Expr, FnPredicate, ObjectPredicate, Table, TableRegistry,
    };
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let _srs = Srs::default();
        let _lss = Lss::default();
        let _spec = ClassifierSpec::default();
    }
}
