//! Property tests for the planning layer: over random tables (values,
//! NULL-producing zeros, error-producing NaNs) and random conjunctions
//! of cheap and subquery-bearing conjuncts, the decomposed plan's
//! exact count must agree with a row-by-row reference model of the
//! two-pass pipeline, and — whenever both succeed — with the
//! monolithic [`CountingProblem::exact_count`].
//!
//! Error semantics are asymmetric by design (see
//! `lts_table::decompose`): the monolithic evaluation short-circuits
//! left-to-right, so it may surface an error the decomposed pipeline
//! never reaches (a subquery error on a row the prefilter rejects) and
//! vice versa (a prefilter error the monolithic AND short-circuits
//! past). The properties therefore compare counts only on the
//! `Ok`/`Ok` diagonal and pin the decomposed pipeline's error-ness to
//! the reference model, which replays its exact evaluation order.

use lts_core::{CountingProblem, PhysicalPlan};
use lts_table::{
    contains_subquery, decompose, table_of_floats, Expr, ExprPredicate, PartitionedTable, RowCtx,
    Table,
};
use proptest::prelude::*;
use std::sync::Arc;

/// One conjunct of the generated query, as pure data (the `Expr` needs
/// the table's `Arc`, so construction happens inside the test body).
#[derive(Debug, Clone)]
enum Conjunct {
    /// `kind ∈ {0, 1, 2}`: `a < t`, `b > t`, or `a / b > t` (the
    /// division yields NULL — Kleene false — wherever `b == 0`).
    Cheap(u8, f64),
    /// `kind ∈ {0, 1}`: `count_where(t, a > o.a) < k` or
    /// `count_where(t, b >= o.b) >= k`.
    Expensive(u8, usize),
}

impl Conjunct {
    fn to_expr(&self, table: &Arc<Table>) -> Expr {
        match *self {
            Conjunct::Cheap(0, t) => Expr::col("a").lt(Expr::lit(t)),
            Conjunct::Cheap(1, t) => Expr::col("b").gt(Expr::lit(t)),
            Conjunct::Cheap(_, t) => Expr::col("a").div(Expr::col("b")).gt(Expr::lit(t)),
            Conjunct::Expensive(0, k) => {
                Expr::count_where(Arc::clone(table), Expr::col("a").gt(Expr::outer("a")))
                    .lt(Expr::lit(k as f64))
            }
            Conjunct::Expensive(_, k) => {
                Expr::count_where(Arc::clone(table), Expr::col("b").ge(Expr::outer("b")))
                    .ge(Expr::lit(k as f64))
            }
        }
    }

    fn is_expensive(&self) -> bool {
        matches!(self, Conjunct::Expensive(..))
    }
}

/// Cell values: mostly ordinary floats, some exact zeros (division by
/// zero → NULL), occasionally NaN (comparison → type error).
fn cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        30 => (-50i32..50).prop_map(|v| f64::from(v) / 10.0),
        4 => Just(0.0),
        1 => Just(f64::NAN),
    ]
}

fn conjuncts() -> impl Strategy<Value = Vec<Conjunct>> {
    let cheap = (0u8..3, -50i32..50).prop_map(|(k, t)| Conjunct::Cheap(k, f64::from(t) / 10.0));
    let expensive = (0u8..2, 0usize..16).prop_map(|(k, c)| Conjunct::Expensive(k, c));
    proptest::collection::vec(prop_oneof![3 => cheap, 2 => expensive], 1..5)
}

fn build_scenario(rows: &[(f64, f64)], specs: &[Conjunct]) -> (Arc<Table>, Expr) {
    let a: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let b: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let table = Arc::new(table_of_floats(&[("a", &a), ("b", &b)]).unwrap());
    let expr = specs
        .iter()
        .map(|c| c.to_expr(&table))
        .reduce(Expr::and)
        .unwrap();
    (table, expr)
}

/// Row-by-row reference model of the decomposed pipeline: pass 1 runs
/// the prefilter over every row (errors propagate, NULL is false);
/// pass 2 runs the full predicate over the survivors — exactly what
/// the restricted problem's delegating predicate does.
fn reference_count(table: &Arc<Table>, prefilter: Option<&Expr>, full: &Expr) -> Result<usize, ()> {
    let mut survivors = Vec::new();
    match prefilter {
        Some(p) => {
            for i in 0..table.len() {
                match p.eval_bool(RowCtx::top(table, i)) {
                    Ok(true) => survivors.push(i),
                    Ok(false) => {}
                    Err(_) => return Err(()),
                }
            }
        }
        None => survivors.extend(0..table.len()),
    }
    let mut count = 0;
    for &i in &survivors {
        match full.eval_bool(RowCtx::top(table, i)) {
            Ok(true) => count += 1,
            Ok(false) => {}
            Err(_) => return Err(()),
        }
    }
    Ok(count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The decomposed plan's exact count replays the two-pass reference
    /// model (same count, same error-ness), and both agree with the
    /// monolithic census whenever all paths succeed.
    #[test]
    fn planned_exact_count_matches_reference_and_monolithic(
        rows in proptest::collection::vec((cell(), cell()), 2..24),
        specs in conjuncts(),
        parts in 1usize..5,
    ) {
        let (table, expr) = build_scenario(&rows, &specs);

        // Structural contract: the split exists iff the conjunction
        // mixes cheap and subquery-bearing conjuncts.
        let d = decompose(&expr);
        let has_cheap = specs.iter().any(|c| !c.is_expensive());
        let has_expensive = specs.iter().any(Conjunct::is_expensive);
        prop_assert_eq!(d.exact_prefilter.is_some(), has_cheap && has_expensive);
        if let Some(p) = &d.exact_prefilter {
            prop_assert!(!contains_subquery(p));
        }
        prop_assert_eq!(contains_subquery(&d.residual), has_expensive);

        let reference = reference_count(&table, d.exact_prefilter.as_ref(), &expr);
        let predicate = Arc::new(ExprPredicate::new("q", expr.clone()));
        let problem = Arc::new(
            CountingProblem::new(Arc::clone(&table), predicate, &["a", "b"]).unwrap(),
        );
        let pt = PartitionedTable::new(Arc::clone(&table), parts);
        let mono = problem.exact_count();

        let planned = match &d.exact_prefilter {
            Some(prefilter) => match PhysicalPlan::build(&problem, &pt, prefilter) {
                // Building the plan fails only when the prefilter scan
                // errors — which the reference's pass 1 must replay.
                Err(_) => {
                    prop_assert!(reference.is_err());
                    return Ok(());
                }
                Ok(plan) => plan.exact_count(),
            },
            // A query that does not split is counted whole.
            None => problem.exact_count(),
        };
        match (&planned, &reference) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(_), Err(())) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "plan/reference disagree on error-ness: {other:?}"
                )));
            }
        }
        // Monolithic agreement on the Ok/Ok diagonal. (The monolithic
        // path may error where the planned one does not, and vice versa
        // — error shadowing is the one freedom the decomposition
        // contract grants.)
        if let (Ok(got), Ok(want)) = (&planned, &mono) {
            prop_assert_eq!(got, want);
        }
    }
}
