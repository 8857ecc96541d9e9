//! Property-based tests for the table engine.

use lts_table::table::table_of_floats;
use lts_table::{distinct_project, Expr, RowCtx, Value};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arithmetic expressions over float literals agree with direct
    /// computation.
    #[test]
    fn expr_arithmetic_matches_oracle(a in -1e3f64..1e3, b in -1e3f64..1e3) {
        let t = table_of_floats(&[("x", &[0.0])]).unwrap();
        let ctx = RowCtx::top(&t, 0);
        let cases: Vec<(Expr, f64)> = vec![
            (Expr::lit(a).add(Expr::lit(b)), a + b),
            (Expr::lit(a).sub(Expr::lit(b)), a - b),
            (Expr::lit(a).mul(Expr::lit(b)), a * b),
            (Expr::lit(a).abs(), a.abs()),
            (Expr::lit(a.abs()).sqrt(), a.abs().sqrt()),
        ];
        for (e, want) in cases {
            let got = e.eval(ctx).unwrap().as_f64().unwrap();
            prop_assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()));
        }
    }

    /// Comparison operators are consistent with `f64` ordering.
    #[test]
    fn expr_comparisons_match_oracle(a in -100f64..100.0, b in -100f64..100.0) {
        let t = table_of_floats(&[("x", &[0.0])]).unwrap();
        let ctx = RowCtx::top(&t, 0);
        let lt = Expr::lit(a).lt(Expr::lit(b)).eval(ctx).unwrap();
        prop_assert_eq!(lt, Value::Bool(a < b));
        let ge = Expr::lit(a).ge(Expr::lit(b)).eval(ctx).unwrap();
        prop_assert_eq!(ge, Value::Bool(a >= b));
    }

    /// The correlated COUNT subquery equals a direct scan count.
    #[test]
    fn count_subquery_matches_scan(
        xs in proptest::collection::vec(0.0f64..50.0, 2..40),
        threshold in 0.0f64..50.0,
    ) {
        let t = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let sub = Expr::count_where(
            Arc::clone(&t),
            Expr::col("x").ge(Expr::outer("x")).and(Expr::col("x").le(Expr::lit(threshold))),
        );
        for (i, &xi) in xs.iter().enumerate() {
            let got = sub.eval(RowCtx::top(&t, i)).unwrap().as_i64().unwrap();
            let want = xs.iter().filter(|&&xj| xj >= xi && xj <= threshold).count() as i64;
            prop_assert_eq!(got, want, "row {}", i);
        }
    }

    /// DISTINCT projection is idempotent and never grows.
    #[test]
    fn distinct_project_idempotent(
        xs in proptest::collection::vec(0.0f64..5.0, 1..60),
    ) {
        let t = table_of_floats(&[("x", &xs)]).unwrap();
        let once = distinct_project(&t, &["x"], None).unwrap();
        prop_assert!(once.len() <= t.len());
        let twice = distinct_project(&once, &["x"], None).unwrap();
        prop_assert_eq!(once.len(), twice.len());
    }

    /// Batched predicate evaluation agrees with per-row evaluation for
    /// arbitrary index multisets (order, duplicates, repeats), and the
    /// meter charges exactly `idxs.len()` evals per batch.
    #[test]
    fn eval_batch_agrees_with_eval(
        xs in proptest::collection::vec(-10.0f64..10.0, 1..50),
        picks in proptest::collection::vec(0usize..1000, 0..64),
        threshold in -10.0f64..10.0,
    ) {
        use lts_table::{FnPredicate, Metered, ObjectPredicate};
        let t = table_of_floats(&[("x", &xs)]).unwrap();
        let idxs: Vec<usize> = picks.iter().map(|&p| p % xs.len()).collect();
        let p = Metered::new(FnPredicate::new("gt", move |t: &lts_table::Table, i| {
            Ok(t.floats("x")?[i] > threshold)
        }));
        let batch = p.eval_batch(&t, &idxs).unwrap();
        prop_assert_eq!(batch.len(), idxs.len());
        let stats = p.stats();
        prop_assert_eq!(stats.evals, idxs.len() as u64);
        prop_assert_eq!(stats.calls, u64::from(!idxs.is_empty()));
        for (k, &i) in idxs.iter().enumerate() {
            prop_assert_eq!(batch[k], p.eval(&t, i).unwrap(), "index {}", i);
        }
    }

    /// Kleene logic: AND/OR with NULL behave per SQL.
    #[test]
    fn kleene_truth_table(a in any::<Option<bool>>(), b in any::<Option<bool>>()) {
        let t = table_of_floats(&[("x", &[0.0])]).unwrap();
        let ctx = RowCtx::top(&t, 0);
        let lit = |v: Option<bool>| match v {
            Some(x) => Expr::lit(x),
            None => Expr::Literal(Value::Null),
        };
        let and = lit(a).and(lit(b)).eval(ctx).unwrap();
        let want_and = match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        };
        match want_and {
            Some(v) => prop_assert_eq!(and, Value::Bool(v)),
            None => prop_assert!(and.is_null()),
        }
        let or = lit(a).or(lit(b)).eval(ctx).unwrap();
        let want_or = match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        };
        match want_or {
            Some(v) => prop_assert_eq!(or, Value::Bool(v)),
            None => prop_assert!(or.is_null()),
        }
    }
}

// ---------------------------------------------------------------------
// Parser round-trip: Display(ast) → parse → same evaluation.
// ---------------------------------------------------------------------

/// A random expression over columns `x`, `y` and float/bool literals —
/// every non-subquery AST form the parser supports.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(|i| Expr::lit(i as f64)),
        any::<bool>().prop_map(Expr::lit),
        Just(Expr::col("x")),
        Just(Expr::col("y")),
        Just(Expr::outer("x")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.lt(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.ge(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.eq(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
            inner.clone().prop_map(|a| a.neg()),
            inner.clone().prop_map(|a| a.abs()),
            (inner.clone(), inner)
                .prop_map(|(a, b)| Expr::Call(lts_table::Func::Power, vec![a, b])),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any displayable expression parses back and evaluates identically
    /// (NaN-producing arithmetic excepted — NaN ≠ NaN).
    #[test]
    fn display_parse_round_trip(e in arb_expr(), x in -5.0f64..5.0, y in -5.0f64..5.0) {
        use lts_table::{parse_condition, TableRegistry};
        let t = table_of_floats(&[("x", &[x]), ("y", &[y])]).unwrap();
        let text = e.to_string();
        let parsed = parse_condition(&text, &TableRegistry::new())
            .unwrap_or_else(|err| panic!("`{text}` failed to re-parse: {err}"));
        let ctx = RowCtx { table: &t, row: 0, outer: Some((&t, 0)) };
        let a = e.eval(ctx);
        let b = parsed.eval(ctx);
        match (a, b) {
            (Ok(va), Ok(vb)) => {
                let same = match (&va, &vb) {
                    (Value::Float(fa), Value::Float(fb)) => {
                        (fa.is_nan() && fb.is_nan()) || fa == fb
                    }
                    _ => format!("{va:?}") == format!("{vb:?}"),
                };
                prop_assert!(same, "`{}`: {:?} vs {:?}", text, va, vb);
            }
            (Err(_), Err(_)) => {} // both reject (e.g. type errors) — fine
            (a, b) => prop_assert!(false, "`{}`: {:?} vs {:?}", text, a, b),
        }
    }
}
