//! Ablations for the implementation decisions ARCHITECTURE.md documents:
//!
//! * **A1 — pilot handling**: exact-remainder (decision 2) vs the
//!   paper's textbook composition;
//! * **A2 — DynPgm T-selection** (decision 3): pruned vs full grid vs a
//!   single unconstrained pass, quality only;
//! * **A3 — boundary granularity ε** (decision 5): finer candidate
//!   ladders vs quality;
//! * **A4 — sequential LWS** (future-work extension): budget saved by
//!   early stopping vs fixed-budget LWS accuracy;
//! * **A5 — pilot reuse** (footnote-3 extension): fresh SRS pilot vs
//!   reusing the learning-phase labels as free extra design pilots,
//!   including the reuse+smaller-pilot regime that shifts budget to
//!   stage 2;
//! * **A6 — Des Raj vs Horvitz–Thompson** for learned weighted
//!   sampling: the paper picks Des Raj for its running estimates (§4.1);
//!   LWS-HT pairs the same weights with a fixed-size systematic PPS
//!   design and the HT estimator.

use super::{build_scenario, try_cell};
use crate::cli::RunConfig;
use crate::harness::{cell_row, TextTable, CELL_HEADER};
use lts_core::estimators::{Lss, Lws, LwsHt, LwsSequential, PilotHandling, PilotSource};
use lts_core::CoreResult;
use lts_data::{DatasetKind, SelectivityLevel};
use lts_strata::TSelection;

/// Run all ablations.
///
/// # Errors
///
/// Propagates scenario-construction errors.
pub fn run(cfg: &RunConfig) -> CoreResult<()> {
    println!("== Ablations: implementation decisions ==");
    let scenario = build_scenario(cfg, DatasetKind::Neighbors, SelectivityLevel::S)?;
    println!("   {}", scenario.describe());
    let budget = ((scenario.problem.n() as f64 * 0.02) as usize).max(60);
    let column = "Neighbors/S @2%";
    let mut table = TextTable::new(&CELL_HEADER);

    // A1: pilot handling.
    for (label, handling) in [
        ("A1 exact-remainder", PilotHandling::ExactRemainder),
        ("A1 textbook", PilotHandling::Textbook),
    ] {
        let est = Lss {
            pilot_handling: handling,
            ..Lss::default()
        };
        if let Some(cell) = try_cell(&scenario, &est, label, column, budget, cfg) {
            table.row(cell_row(&cell));
        }
    }

    // A2: T-selection.
    for (label, t) in [
        ("A2 T=unconstrained", TSelection::Unconstrained),
        ("A2 T=pruned(6)", TSelection::Pruned(6)),
        ("A2 T=full", TSelection::Full),
    ] {
        let est = Lss {
            t_selection: t,
            ..Lss::default()
        };
        if let Some(cell) = try_cell(&scenario, &est, label, column, budget, cfg) {
            table.row(cell_row(&cell));
        }
    }

    // A3: boundary granularity ε.
    for eps in [0.25f64, 1.0, 3.0] {
        let est = Lss {
            epsilon: eps,
            ..Lss::default()
        };
        let label = format!("A3 eps={eps}");
        if let Some(cell) = try_cell(&scenario, &est, &label, column, budget, cfg) {
            table.row(cell_row(&cell));
        }
    }

    // A4: sequential LWS vs fixed-budget LWS. Two regimes: a hard cell
    // (Neighbors/S — the target is unreachable, the full budget is
    // spent) and an easy cell (Sports/L — the classifier is excellent
    // and the stop rule saves a large share of the budget).
    let easy = build_scenario(cfg, DatasetKind::Sports, SelectivityLevel::L)?;
    println!("   {}", easy.describe());
    let easy_budget = ((easy.problem.n() as f64 * 0.02) as usize).max(60);
    for (sc, col, b) in [
        (&scenario, column, budget),
        (&easy, "Sports/L @2%", easy_budget),
    ] {
        let lws = Lws::default();
        if let Some(cell) = try_cell(sc, &lws, "A4 LWS fixed", col, b, cfg) {
            table.row(cell_row(&cell));
        }
        for target in [0.25f64, 0.10] {
            let est = LwsSequential {
                target_relative_halfwidth: target,
                ..LwsSequential::default()
            };
            let label = format!("A4 LWS-seq ±{:.0}%", target * 100.0);
            if let Some(cell) = try_cell(sc, &est, &label, col, b, cfg) {
                table.row(cell_row(&cell));
            }
        }
    }

    // A5: pilot source — fresh SRS vs reuse of the learning-phase
    // labels (footnote 3). Reuse gives the design |S_L| free labels;
    // the third row additionally shrinks the fresh pilot to spend the
    // savings on stage 2.
    for (label, source, pilot_frac) in [
        ("A5 pilot=fresh", PilotSource::Fresh, 0.3),
        ("A5 pilot=reuse", PilotSource::ReuseLearning, 0.3),
        ("A5 reuse+small-SI", PilotSource::ReuseLearning, 0.15),
    ] {
        let est = Lss {
            pilot_source: source,
            pilot_frac,
            ..Lss::default()
        };
        if let Some(cell) = try_cell(&scenario, &est, label, column, budget, cfg) {
            table.row(cell_row(&cell));
        }
    }

    // A6: Des Raj vs Horvitz–Thompson over the same learned weights, on
    // both the hard and the easy cell.
    for (sc, col, b) in [
        (&scenario, column, budget),
        (&easy, "Sports/L @2%", easy_budget),
    ] {
        if let Some(cell) = try_cell(sc, &Lws::default(), "A6 LWS (Des Raj)", col, b, cfg) {
            table.row(cell_row(&cell));
        }
        if let Some(cell) = try_cell(sc, &LwsHt::default(), "A6 LWS-HT", col, b, cfg) {
            table.row(cell_row(&cell));
        }
    }

    print!("{}", table.render());
    println!(
        "   read: A1 variants should agree (both unbiased); A2/A3 quality should be \
flat (pruning/granularity trade time, not quality); A4 LWS-seq should spend fewer \
evals (see `evals` column) at a modest IQR cost; A5 reuse should match or beat \
fresh at equal budget (free design labels) while staying unbiased; A6 variants \
should agree in the median (both unbiased), with design-dependent IQRs."
    );
    table
        .write_csv(&cfg.out_dir, "ablations")
        .map_err(|e| lts_core::CoreError::InvalidConfig {
            message: format!("csv write failed: {e}"),
        })?;
    Ok(())
}
