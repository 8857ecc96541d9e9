//! Row-wise vs vectorized expression evaluation (the ISSUE-2 tentpole).
//!
//! Every pair of benchmarks below evaluates the *same* expression over
//! the *same* table through the two engines:
//!
//! * `row_wise/…` — `Expr::eval_bool` interpreted per row (schema
//!   lookup + `Value` boxing + dynamic dispatch per AST node per row);
//! * `vectorized/…` — `lts_table::vector::eval_bool_columnar`, typed
//!   column-at-a-time kernels.
//!
//! The acceptance bar is ≥ 3× throughput for a numeric comparison
//! predicate over a 1M-row table; the setup asserts the two paths are
//! label-identical before timing anything.

use criterion::{criterion_group, criterion_main, Criterion};
use lts_data::{neighbors_scenario, sports_scenario, QueryParam, SelectivityLevel};
use lts_table::table::table_of_floats;
use lts_table::vector::eval_bool_columnar;
use lts_table::{
    parse_condition, Expr, ExprPredicate, ObjectPredicate, RowCtx, Table, TableRegistry,
};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 1_000_000;

fn million_row_table() -> Table {
    let xs: Vec<f64> = (0..ROWS).map(|i| (i % 1013) as f64 / 1013.0).collect();
    let ys: Vec<f64> = (0..ROWS).map(|i| (i % 733) as f64 / 733.0).collect();
    table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap()
}

fn row_wise_mask(e: &Expr, t: &Table) -> Vec<bool> {
    (0..t.len())
        .map(|i| e.eval_bool(RowCtx::top(t, i)).unwrap())
        .collect()
}

fn bench_pair(c: &mut Criterion, group: &str, t: &Table, e: &Expr) {
    // Correctness gate: identical labels before any timing.
    assert_eq!(
        row_wise_mask(e, t),
        eval_bool_columnar(e, t, None).unwrap(),
        "{group}: engines disagree"
    );
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("row_wise", |b| b.iter(|| row_wise_mask(black_box(e), t)));
    g.bench_function("vectorized", |b| {
        b.iter(|| eval_bool_columnar(black_box(e), t, None).unwrap())
    });
    g.finish();
}

/// The acceptance-criterion case: one numeric comparison over 1M rows.
fn bench_numeric_cmp(c: &mut Criterion) {
    let t = million_row_table();
    bench_pair(
        c,
        "expr_1m_numeric_cmp",
        &t,
        &Expr::col("x").gt(Expr::lit(0.5)),
    );
}

/// Compound mask: comparisons combined with AND (mask combination vs
/// per-row short-circuit).
fn bench_compound_mask(c: &mut Criterion) {
    let t = million_row_table();
    let e = Expr::col("x")
        .gt(Expr::lit(0.25))
        .and(Expr::col("y").le(Expr::lit(0.75)));
    bench_pair(c, "expr_1m_compound_and", &t, &e);
}

/// Arithmetic feeding a comparison: `x * 2 + y < 1.2`.
fn bench_arith_cmp(c: &mut Criterion) {
    let t = million_row_table();
    let e = Expr::col("x")
        .mul(Expr::lit(2.0))
        .add(Expr::col("y"))
        .lt(Expr::lit(1.2));
    bench_pair(c, "expr_1m_arith_cmp", &t, &e);
}

/// The SQL-form correlated-subquery predicate (skyband): interpreted
/// nested loop (`Expr::eval_bool` per object) vs one vectorized inner
/// scan per object (`eval_batch`). Small N — the row-wise path is
/// quadratic in interpreted row visits.
fn bench_subquery_predicate(c: &mut Criterion) {
    let n = 1_500usize;
    let xs: Vec<f64> = (0..n).map(|i| (i % 89) as f64).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 7) % 97) as f64).collect();
    let t = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
    let dominate = Expr::col("x")
        .ge(Expr::outer("x"))
        .and(Expr::col("y").ge(Expr::outer("y")))
        .and(
            Expr::col("x")
                .gt(Expr::outer("x"))
                .or(Expr::col("y").gt(Expr::outer("y"))),
        );
    let q = ExprPredicate::new(
        "skyband",
        Expr::count_where(Arc::clone(&t), dominate).lt(Expr::lit(8i64)),
    );
    let all: Vec<usize> = (0..n).collect();
    let row = row_wise_mask(q.expr(), &t);
    assert_eq!(row, q.eval_batch(&t, &all).unwrap(), "engines disagree");
    let mut g = c.benchmark_group("sql_subquery_skyband_1500");
    g.sample_size(10);
    g.bench_function("row_wise", |b| {
        b.iter(|| row_wise_mask(q.expr(), black_box(&t)))
    });
    g.bench_function("vectorized_batch", |b| {
        b.iter(|| q.eval_batch(black_box(&t), &all).unwrap())
    });
    g.finish();
}

/// The service's oracle: the two query shapes `bench_suite` asks, parsed
/// from the same condition text, over its 8 000-row populations, labelling
/// one 200-object batch through `ExprPredicate::eval_batch` — what a cold
/// op does 200–250 times. Skyband at the scenario's calibrated `k`,
/// neighbours at `k` ∈ {5, 10, 30}. One iteration is 200 evaluations, so
/// µs per evaluation is the reported time / 200. Run with
/// `RAYON_NUM_THREADS=1` to read the kernel, not the split rule.
fn bench_subquery_oracle(c: &mut Criterion) {
    const ROWS: usize = 8_000;
    let sports = sports_scenario(ROWS, SelectivityLevel::M, 1).unwrap();
    let neighbors = neighbors_scenario(ROWS, SelectivityLevel::M, 1).unwrap();
    let (QueryParam::K(k), QueryParam::D(d)) = (sports.param, neighbors.param) else {
        unreachable!("sports calibrates k, neighbors calibrates d")
    };
    let registry = TableRegistry::new()
        .register("sports", sports.table.clone())
        .register("neighbors", neighbors.table.clone());
    let skyband = format!(
        "(SELECT COUNT(*) FROM sports WHERE strikeouts >= o.strikeouts AND \
         wins >= o.wins AND (strikeouts > o.strikeouts OR wins > o.wins)) < {k}"
    );
    let near = |k: u32| {
        format!(
            "(SELECT COUNT(*) FROM neighbors WHERE SQRT(POWER(o.src_rate - src_rate, 2) + \
             POWER(o.dst_rate - dst_rate, 2)) <= {d}) < {k}"
        )
    };
    let objects: Vec<usize> = (0..200).map(|i| (i * 7919) % ROWS).collect();
    let mut g = c.benchmark_group("subquery_oracle");
    g.sample_size(10);
    for (name, table, condition) in [
        ("skyband".to_string(), &sports.table, skyband),
        ("neighbors_k5".to_string(), &neighbors.table, near(5)),
        ("neighbors_k10".to_string(), &neighbors.table, near(10)),
        ("neighbors_k30".to_string(), &neighbors.table, near(30)),
    ] {
        let q = ExprPredicate::new("q", parse_condition(&condition, &registry).unwrap());
        // Correctness gate: the batch equals the interpreted nested loop.
        let row_wise: Vec<bool> = objects
            .iter()
            .map(|&i| q.expr().eval_bool(RowCtx::top(table, i)).unwrap())
            .collect();
        assert_eq!(
            row_wise,
            q.eval_batch(table, &objects).unwrap(),
            "{name}: engines disagree"
        );
        g.bench_function(name.as_str(), |b| {
            b.iter(|| q.eval_batch(black_box(table), &objects).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_numeric_cmp,
    bench_compound_mask,
    bench_arith_cmp,
    bench_subquery_predicate,
    bench_subquery_oracle
);
criterion_main!(benches);
