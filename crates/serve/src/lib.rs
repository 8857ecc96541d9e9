//! `lts-serve` — the concurrent counting service.
//!
//! The paper's economic argument is **amortization**: training a
//! sampler is worth it because the same complex-filter count query (and
//! near variants) is asked again and again. This crate is the layer
//! that argument lives in — an in-process service that answers a
//! stream of count requests from warm state instead of cold-starting
//! each one:
//!
//! | Piece | Module | Job |
//! |---|---|---|
//! | canonical fingerprints | [`mod@fingerprint`] | equivalent requests hit the same entry |
//! | query table | `catalog` | per dataset version, one entry per distinct query — its problem (meter + features), memoized plan, warm estimator states (ordering + pilot + design, `lts_core::warm`) and cached answers — plus one shared survivor list per canonical prefilter (its length the observed selectivity); dropped whole when the version moves |
//! | [`BudgetPlanner`] | [`planner`] | admission control: census for small `N`, else the cheapest budget meeting the requested CI width; routes decomposed queries among census / prefilter + residual / monolithic plans |
//! | [`Service`] | [`service`] | one request at a time through admit, prepare, execute and seal; deterministic per-request seed streams |
//! | protocol | [`mod@protocol`] | the line-in/JSON-out command grammar, shared by every front-end |
//! | REPL | [`repl`] | the `lts-serve` binary's stdin/stdout front-end |
//! | snapshot codec | [`state`] | datasets, warm states and cached answers written down as plain data and decoded at restore |
//! | [`NetServer`] | [`net`] | the `lts-served` binary's multi-client TCP front-end: bounded admission, per-client backpressure, graceful shutdown |
//!
//! A **cold** request pays for everything; a repeat of the same
//! canonical query either comes straight from its cached answer (zero
//! oracle evaluations) or — when a fresh, independent estimate is
//! requested — **warm-starts** from its warm state and spends only
//! the stage-2 share of the budget. Every response is bit-replayable:
//! see the determinism contract in [`service`].

#![warn(missing_docs)]

mod catalog;
pub mod error;
pub mod fingerprint;
pub mod net;
pub mod planner;
pub mod protocol;
pub mod repl;
pub mod service;
pub mod state;

pub use error::{ServeError, ServeResult};
pub use fingerprint::{canonical, fingerprint, normalize};
pub use net::{NetConfig, NetServer};
pub use planner::{BudgetPlanner, QueryRoute, Route, Target};
pub use protocol::{handle_line, LineOutcome, SessionState};
pub use repl::{run_repl, ReplOptions};
pub use service::{
    Answer, DatasetSpec, PlanSummary, Request, Response, ResultKey, Service, ServiceConfig,
    ServiceStats, MAX_REGISTER_ROWS,
};
pub use state::{RestoreSummary, StateError, STATE_FILE};

pub use lts_obs::{MetricsRegistry, MetricsSnapshot, Observability, SlowLog, Trace, TraceRing};
