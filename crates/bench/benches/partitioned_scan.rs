//! Single-partition vs partitioned parallel scan (the ISSUE-3
//! tentpole).
//!
//! Every benchmark evaluates the *same* predicate over the *same*
//! 1M-row table:
//!
//! * `serial` — `lts_table::vector::eval_bool_columnar`, the PR-2
//!   single-pass vectorized scan (≡ one partition);
//! * `partitioned/pN` — `PartitionedTable::par_eval_bool` with `N`
//!   row-range partitions driven in parallel by the rayon shim.
//!
//! The acceptance bar is ≥ 2× throughput at ≥ 4 partitions on a ≥
//! 4-thread host (on one hardware thread the executor degenerates to
//! the inline serial scan; expect ≈ 1×). The setup asserts the
//! partitioned labels are identical to the serial labels at every
//! partition count before timing anything — the determinism contract
//! `lts-table`'s `vector_agreement` tests hold at every thread count.

use criterion::{criterion_group, criterion_main, Criterion};
use lts_table::partition::PartitionedTable;
use lts_table::table::table_of_floats;
use lts_table::vector::eval_bool_columnar;
use lts_table::{Expr, Table};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 1_000_000;
const PARTITIONS: [usize; 3] = [2, 4, 8];

fn million_row_table() -> Arc<Table> {
    let xs: Vec<f64> = (0..ROWS).map(|i| (i % 1013) as f64 / 1013.0).collect();
    let ys: Vec<f64> = (0..ROWS).map(|i| (i % 733) as f64 / 733.0).collect();
    Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap())
}

fn bench_scan(c: &mut Criterion, group: &str, t: &Arc<Table>, e: &Expr) {
    // Determinism gate: identical labels at every partition count.
    let serial = eval_bool_columnar(e, t, None).unwrap();
    for parts in PARTITIONS {
        let pt = PartitionedTable::new(Arc::clone(t), parts);
        assert_eq!(
            pt.par_eval_bool(e).unwrap(),
            serial,
            "{group}: partitioned scan diverged at {parts} partitions"
        );
    }
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| eval_bool_columnar(black_box(e), t, None).unwrap())
    });
    for parts in PARTITIONS {
        let pt = PartitionedTable::new(Arc::clone(t), parts);
        g.bench_function(format!("partitioned/p{parts}"), |b| {
            b.iter(|| pt.par_eval_bool(black_box(e)).unwrap())
        });
    }
    g.finish();
}

/// The acceptance-criterion case: one numeric comparison over 1M rows.
fn bench_numeric_cmp(c: &mut Criterion) {
    let t = million_row_table();
    bench_scan(
        c,
        "pscan_1m_numeric_cmp",
        &t,
        &Expr::col("x").gt(Expr::lit(0.5)),
    );
}

/// Compound mask with arithmetic: `x * 2 + y < 1.2 AND y > 0.1`.
fn bench_compound(c: &mut Criterion) {
    let t = million_row_table();
    let e = Expr::col("x")
        .mul(Expr::lit(2.0))
        .add(Expr::col("y"))
        .lt(Expr::lit(1.2))
        .and(Expr::col("y").gt(Expr::lit(0.1)));
    bench_scan(c, "pscan_1m_compound", &t, &e);
}

criterion_group!(benches, bench_numeric_cmp, bench_compound);
criterion_main!(benches);
