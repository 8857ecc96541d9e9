//! Conjunctive plan analysis: split a predicate into a **cheap exact
//! prefilter** and an **expensive residual**.
//!
//! The paper prices estimation in unique evaluations of the expensive
//! predicate `q` — yet a query like
//! `price < 50 AND (SELECT COUNT(*) …) < k` pays that price even for
//! rows a vectorized scan could discard for free. This module is the
//! analysis half of the fix: it flattens the top-level `AND` chain of a
//! parsed [`Expr`], classifies each conjunct, and hands the planner a
//! [`DecomposedQuery`] whose prefilter can run as an exact partitioned
//! scan while only the residual ever touches the metered oracle.
//!
//! **Classification.** A conjunct is *cheap-exact* when it contains no
//! aggregate subquery anywhere ([`contains_subquery`]): such an
//! expression is a pure column computation the vectorized engine
//! ([`crate::vector`] / [`crate::partition`]) evaluates without oracle
//! cost. A conjunct containing [`Expr::Subquery`] — the paper's
//! `(SELECT COUNT(*) …) cmp k` shape — is *expensive*: each
//! evaluation scans the inner table, which is exactly the cost the
//! estimators meter.
//!
//! **Semantic contract (Kleene NULL / error semantics).** For boolean
//! acceptance ([`Expr::eval_bool`]) `AND` is order-free on *values*:
//! NULL and FALSE both reject a row, so
//! `accept(c₁ AND … AND cₙ) = accept(P) ∧ accept(R)` for any
//! partition of the conjuncts into `P` and `R`. The decomposed plan
//! evaluates the residual only on rows where the prefilter is
//! **definitively true**, so a row enters the residual population only
//! if every cheap conjunct accepted it. What the split may change is
//! *which evaluation error surfaces*: the original left-to-right order
//! short-circuits on the first FALSE conjunct and may thereby shadow an
//! error in a later conjunct, while the split evaluates all cheap
//! conjuncts first (and may shadow residual errors on rows the
//! prefilter rejects). This is the same freedom the fingerprint
//! canonicalization already claims when it reorders `AND`/`OR` chains:
//! error-free evaluations are bit-identical, and every consumer aborts
//! on any error, so no cached artifact depends on which error wins.

use crate::expr::{BinaryOp, Expr};

/// Whether the expression contains an aggregate subquery anywhere —
/// including inside a subquery's own `WHERE` filter or aggregate
/// argument. Subquery-bearing expressions are the expensive-oracle
/// class: evaluating one costs a scan of the inner table per row.
pub fn contains_subquery(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) | Expr::Column(_) | Expr::Outer(_) => false,
        Expr::Unary(_, e) => contains_subquery(e),
        Expr::Binary(_, l, r) => contains_subquery(l) || contains_subquery(r),
        Expr::Call(_, args) => args.iter().any(contains_subquery),
        Expr::Subquery(_) => true,
    }
}

/// Flatten the top-level `AND` chain of `expr` into its conjuncts, in
/// source order. A non-`AND` expression is its own single conjunct;
/// `AND`s nested under `OR`/`NOT`/arithmetic are *not* flattened (they
/// are not top-level conjuncts and cannot be split soundly).
pub fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Binary(BinaryOp::And, l, r) => {
                walk(l, out);
                walk(r, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Rebuild a non-empty conjunct list as a left-associated `AND` chain.
fn conjoin(mut parts: Vec<Expr>) -> Expr {
    let rest = parts.split_off(1);
    let first = parts.into_iter().next().expect("non-empty conjunction");
    rest.into_iter().fold(first, Expr::and)
}

/// A query split into an exact prefilter and an expensive residual.
///
/// `exact_prefilter` is `Some` **iff the split is useful**: the
/// top-level conjunction has at least one cheap conjunct *and* at least
/// one expensive conjunct. Otherwise (pure-cheap, pure-expensive, or a
/// non-`AND` top level) the prefilter is `None` and `residual` is the
/// whole original expression — the monolithic plan is already optimal,
/// and callers keep their existing path bit-for-bit.
#[derive(Debug, Clone)]
pub struct DecomposedQuery {
    /// Conjunction of the subquery-free conjuncts (source order
    /// preserved), or `None` when the query does not usefully split.
    pub exact_prefilter: Option<Expr>,
    /// Conjunction of the remaining conjuncts (source order preserved);
    /// the whole expression when `exact_prefilter` is `None`.
    pub residual: Expr,
}

impl DecomposedQuery {
    /// Whether the query split into both a prefilter and a residual.
    pub fn is_decomposed(&self) -> bool {
        self.exact_prefilter.is_some()
    }
}

/// Split `expr` into a cheap exact prefilter and an expensive residual
/// (see [`DecomposedQuery`] for when the split engages and the module
/// docs for the semantic contract).
pub fn decompose(expr: &Expr) -> DecomposedQuery {
    let (cheap, expensive): (Vec<&Expr>, Vec<&Expr>) = split_conjuncts(expr)
        .into_iter()
        .partition(|c| !contains_subquery(c));
    if cheap.is_empty() || expensive.is_empty() {
        return DecomposedQuery {
            exact_prefilter: None,
            residual: expr.clone(),
        };
    }
    DecomposedQuery {
        exact_prefilter: Some(conjoin(cheap.into_iter().cloned().collect())),
        residual: conjoin(expensive.into_iter().cloned().collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, RowCtx};
    use crate::table::{table_of_floats, Table};
    use std::sync::Arc;

    fn inner() -> Arc<Table> {
        Arc::new(table_of_floats(&[("v", &[1.0, 2.0, 3.0, 4.0])]).unwrap())
    }

    /// `(SELECT COUNT(*) FROM inner WHERE v > o.x) < 3`
    fn expensive() -> Expr {
        Expr::count_where(inner(), Expr::col("v").gt(Expr::outer("x"))).lt(Expr::lit(3.0))
    }

    #[test]
    fn detects_subqueries_at_any_depth() {
        assert!(!contains_subquery(&Expr::col("x").lt(Expr::lit(1.0))));
        assert!(!contains_subquery(
            &Expr::col("x").div(Expr::col("y")).ge(Expr::lit(0.5)).not()
        ));
        assert!(contains_subquery(&expensive()));
        // Nested under NOT, arithmetic, and function calls.
        assert!(contains_subquery(&expensive().not()));
        assert!(contains_subquery(
            &expensive().or(Expr::col("x").lt(Expr::lit(1.0)))
        ));
        assert!(contains_subquery(
            &Expr::subquery(inner(), None, AggFunc::Sum, Some(Expr::col("v")))
                .sqrt()
                .gt(Expr::lit(1.0))
        ));
    }

    #[test]
    fn splits_mixed_conjunction_preserving_order() {
        let a = Expr::col("x").lt(Expr::lit(5.0));
        let b = expensive();
        let c = Expr::col("y").gt(Expr::lit(0.0));
        let expr = a.clone().and(b.clone()).and(c.clone());
        assert_eq!(split_conjuncts(&expr).len(), 3);
        let d = decompose(&expr);
        assert!(d.is_decomposed());
        // Cheap conjuncts keep source order: `x < 5 AND y > 0`.
        assert_eq!(d.exact_prefilter.unwrap().to_string(), a.and(c).to_string());
        assert_eq!(d.residual.to_string(), b.to_string());
    }

    #[test]
    fn pure_cheap_and_pure_expensive_do_not_split() {
        let cheap = Expr::col("x")
            .lt(Expr::lit(5.0))
            .and(Expr::col("y").gt(Expr::lit(0.0)));
        let d = decompose(&cheap);
        assert!(!d.is_decomposed());
        assert_eq!(d.residual.to_string(), cheap.to_string());

        let exp = expensive().and(expensive());
        assert!(!decompose(&exp).is_decomposed());
    }

    #[test]
    fn or_top_level_is_one_conjunct() {
        // `cheap OR expensive` cannot be split: OR needs the expensive
        // side even on rows the cheap side rejects.
        let expr = Expr::col("x").lt(Expr::lit(5.0)).or(expensive());
        assert_eq!(split_conjuncts(&expr).len(), 1);
        assert!(!decompose(&expr).is_decomposed());
    }

    #[test]
    fn and_nested_under_not_is_not_flattened() {
        let expr = Expr::col("x").lt(Expr::lit(5.0)).and(expensive()).not();
        assert_eq!(split_conjuncts(&expr).len(), 1);
        assert!(!decompose(&expr).is_decomposed());
    }

    /// Row-by-row, the decomposed acceptance `P ∧ R` equals monolithic
    /// acceptance — including NULL-valued conjuncts (div-by-zero), which
    /// Kleene-reject through `eval_bool` on both sides of the split.
    #[test]
    fn decomposed_acceptance_matches_monolithic_with_nulls() {
        // y = 0 rows make `x / y > 0.5` NULL → rejected.
        let table = table_of_floats(&[
            ("x", &[1.0, 2.0, 3.0, 4.0, 5.0]),
            ("y", &[2.0, 0.0, 4.0, 0.0, 8.0]),
        ])
        .unwrap();
        let cheap = Expr::col("x").div(Expr::col("y")).gt(Expr::lit(0.4));
        let expr = cheap.and(expensive());
        let d = decompose(&expr);
        let p = d.exact_prefilter.as_ref().unwrap();
        for row in 0..table.len() {
            let mono = expr.eval_bool(RowCtx::top(&table, row)).unwrap();
            let pre = p.eval_bool(RowCtx::top(&table, row)).unwrap();
            let split = pre && d.residual.eval_bool(RowCtx::top(&table, row)).unwrap();
            assert_eq!(mono, split, "row {row}");
        }
    }
}
