//! Reproduction harness for the paper's evaluation (§5).
//!
//! Every table and figure has a module under [`experiments`] and a thin
//! binary under `src/bin/` (`repro_table1`, `repro_fig1`, …,
//! `repro_all`). All binaries accept:
//!
//! ```text
//! --trials N    repeated runs per cell            (default 15)
//! --scale F     dataset-size multiplier vs paper  (default 0.2)
//! --seed N      master seed                       (default 7)
//! --full        paper-scale datasets (scale 1.0) and 30 trials
//! --out DIR     CSV output directory              (default ./results)
//! ```
//!
//! Violin plots are summarized as median / IQR / outlier counts — the
//! paper's own comparison metric (§5: "we commonly use interquartile
//! range").
//!
//! `repro_fig2` also drops a machine-readable `BENCH_fig2.json`
//! (module [`json`]); the schema — fields, units, and the
//! execution-mode caveats for comparing wall times — is documented in
//! `docs/benchmarks.md` at the repository root.

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod json;

pub use cli::RunConfig;
pub use harness::{Cell, TextTable};
