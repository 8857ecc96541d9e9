//! The paper's §2 decomposition on the table engine: take a GROUP
//! BY/HAVING counting query (Q1), materialize the object set with a
//! DISTINCT projection (Q2), wrap the per-object HAVING condition as a
//! correlated aggregate subquery predicate (Q3), and estimate the count.
//!
//! ```sh
//! cargo run --release --example sql_counting
//! ```

use learning_to_sample::prelude::*;
use lts_table::{distinct_project, ExprPredicate};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Base table L = R = D(id, x, y): 4 000 points.
    let n = 4_000usize;
    let mut state = 9u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) % 500) as f64 / 10.0
    };
    let xs: Vec<f64> = (0..n).map(|_| next()).collect();
    let ys: Vec<f64> = (0..n).map(|_| next()).collect();
    let d = Arc::new(lts_table::table::table_of_floats(&[
        ("x", &xs),
        ("y", &ys),
    ])?);

    // Q1 (conceptually):
    //   SELECT COUNT(*) FROM (
    //     SELECT o1.x, o1.y FROM D o1, D o2
    //     WHERE o2.x >= o1.x AND o2.y >= o1.y AND (o2.x > o1.x OR o2.y > o1.y)
    //     GROUP BY o1.x, o1.y HAVING COUNT(*) < 40)
    //
    // Q2: the object set = SELECT DISTINCT x, y FROM D.
    let objects = Arc::new(distinct_project(&d, &["x", "y"], None)?);
    println!("Q2 object set: {} distinct (x, y) groups", objects.len());

    // Q3: the per-object predicate as a correlated aggregate subquery
    // (dominator count < 40); each evaluation is a scan of D.
    let dominate = Expr::col("x")
        .ge(Expr::outer("x"))
        .and(Expr::col("y").ge(Expr::outer("y")))
        .and(
            Expr::col("x")
                .gt(Expr::outer("x"))
                .or(Expr::col("y").gt(Expr::outer("y"))),
        );
    let q3 = ExprPredicate::new(
        "q3-skyband",
        Expr::count_where(Arc::clone(&d), dominate).lt(Expr::lit(40i64)),
    );

    // The same predicate can be written as text — the paper's native
    // SQL-condition form — and parsed into an identical expression tree.
    let registry = TableRegistry::new().register("D", Arc::clone(&d));
    let parsed = parse_condition(
        "(SELECT COUNT(*) FROM D \
         WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < 40",
        &registry,
    )?;
    let parsed_q3 = ExprPredicate::new("q3-parsed", parsed);
    for idx in (0..objects.len()).step_by(objects.len() / 16) {
        assert_eq!(
            ObjectPredicate::eval(&parsed_q3, &objects, idx)?,
            ObjectPredicate::eval(&q3, &objects, idx)?,
            "parsed and hand-built predicates disagree on object {idx}"
        );
    }
    println!("parsed Q3 condition agrees with the hand-built predicate");

    let problem = CountingProblem::new(Arc::clone(&objects), Arc::new(q3), &["x", "y"])?;

    // Estimate with a 5% budget and compare against the full evaluation.
    let budget = objects.len() / 20;
    let mut rng = StdRng::seed_from_u64(31);
    let report = Lss::default().estimate(&problem, budget, &mut rng)?;
    println!(
        "LSS estimate of COUNT(Q1): {:.0}  (95% CI [{:.0}, {:.0}], {} q-evals)",
        report.count(),
        report.estimate.interval.lo,
        report.estimate.interval.hi,
        report.evals
    );
    let exact = problem.exact_count()?;
    println!(
        "exact COUNT(Q1):           {exact}  ({} q-evals)",
        objects.len()
    );
    Ok(())
}
