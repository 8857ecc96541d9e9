//! Integration of the table engine with the counting framework: the
//! paper's Q1 → (Q2, Q3) decomposition must agree with the specialized
//! exact algorithms and with full SQL evaluation, and the paper's
//! predicates must be the queries the service parses.

use lts_data::neighborhood::{exact_neighbors_count, neighbors_sql_predicate};
use lts_data::scenario::NEIGHBORS_K;
use lts_data::skyband::{exact_skyband_count, skyband_sql_predicate};
use lts_data::{neighbors_scenario, sports_scenario, QueryParam, SelectivityLevel};
use lts_serve::{canonical, normalize};
use lts_table::table::table_of_floats;
use lts_table::{
    distinct_project, parse_condition, Expr, ExprPredicate, ObjectPredicate, Table, TableRegistry,
};
use std::sync::Arc;

/// The exact count of `q` over `objects`: one batched oracle call.
fn census(q: &ExprPredicate, objects: &Table) -> usize {
    let all: Vec<usize> = (0..objects.len()).collect();
    let labels = q.eval_batch(objects, &all).unwrap();
    labels.into_iter().filter(|&l| l).count()
}

fn pseudo(n: usize, seed: u64, vals: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) % vals) as f64
    };
    (
        (0..n).map(|_| next()).collect(),
        (0..n).map(|_| next()).collect(),
    )
}

#[test]
fn skyband_sql_equals_specialized_sweep() {
    let (xs, ys) = pseudo(250, 17, 60);
    let d = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
    for k in [1usize, 5, 20] {
        let q = skyband_sql_predicate(Arc::clone(&d), "x", "y", k as i64);
        assert_eq!(census(&q, &d), exact_skyband_count(&xs, &ys, k), "k={k}");
    }
}

#[test]
fn neighbors_sql_equals_specialized_radii() {
    let (xs, ys) = pseudo(200, 23, 1000);
    // Spread into a plane.
    let xs: Vec<f64> = xs.iter().map(|&v| v / 100.0).collect();
    let ys: Vec<f64> = ys.iter().map(|&v| v / 100.0).collect();
    let d_table = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
    for &(d, k) in &[(0.5f64, 3usize), (1.5, 8)] {
        let q = neighbors_sql_predicate(Arc::clone(&d_table), "x", "y", d, k as i64);
        assert_eq!(
            census(&q, &d_table),
            exact_neighbors_count(&xs, &ys, d, k),
            "d={d}, k={k}"
        );
    }
}

#[test]
fn q2_distinct_projection_feeds_q3() {
    // Duplicate (x, y) groups collapse in Q2; the group count over Q2
    // differs from the row count over the base table.
    let xs = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0];
    let ys = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0];
    let base = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
    let objects = Arc::new(distinct_project(&base, &["x", "y"], None).unwrap());
    assert_eq!(objects.len(), 3);
    // Q3 over the distinct objects: dominated by < 1 (the skyline).
    let q = skyband_sql_predicate(Arc::clone(&base), "x", "y", 1);
    // Only (3, 3) is undominated among the distinct groups.
    assert_eq!(census(&q, &objects), 1);
}

#[test]
fn theta_l_filter_restricts_the_object_set() {
    let xs = [1.0, 2.0, 3.0, 4.0];
    let ys = [4.0, 3.0, 2.0, 1.0];
    let base = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
    let theta_l = Expr::col("x").le(Expr::lit(2.0));
    let objects = distinct_project(&base, &["x", "y"], Some(&theta_l)).unwrap();
    assert_eq!(objects.len(), 2);
}

/// The paper's predicates are the served queries: `*_sql_predicate`
/// builds the tree the service's parser builds from the condition text
/// a client sends (the `(SELECT COUNT(*) FROM …) < k` form of
/// `bench_suite`'s op lists), so the census labels of every scenario's
/// `problem` are the service's labels.
#[test]
fn paper_predicates_are_the_served_queries() {
    let same_query = |a: &Expr, b: &Expr| canonical(&normalize(a)) == canonical(&normalize(b));
    for level in [SelectivityLevel::XS, SelectivityLevel::M] {
        let sports = sports_scenario(1_200, level, 7).unwrap();
        let QueryParam::K(k) = sports.param else {
            panic!("a skyband scenario has a k")
        };
        let registry = TableRegistry::new().register("sports", Arc::clone(&sports.table));
        let text = format!(
            "(SELECT COUNT(*) FROM sports WHERE strikeouts >= o.strikeouts AND \
             wins >= o.wins AND (strikeouts > o.strikeouts OR wins > o.wins)) < {k}"
        );
        let served = ExprPredicate::new("q", parse_condition(&text, &registry).unwrap());
        let paper =
            skyband_sql_predicate(Arc::clone(&sports.table), "strikeouts", "wins", k as i64);
        assert!(same_query(paper.expr(), served.expr()), "{text}");
        assert_eq!(census(&paper, &sports.table), sports.truth);
        assert_eq!(census(&served, &sports.table), sports.truth);

        // The paper's few-neighbours cap is `<= k`; a client asks the
        // same count as `< k + 1`.
        let neighbors = neighbors_scenario(1_200, level, 7).unwrap();
        let QueryParam::D(d) = neighbors.param else {
            panic!("a few-neighbours scenario has a d")
        };
        let registry = TableRegistry::new().register("neighbors", Arc::clone(&neighbors.table));
        let text = |cmp: &str, k: usize| {
            format!(
                "(SELECT COUNT(*) FROM neighbors WHERE SQRT(POWER(o.src_rate - src_rate, 2) + \
                 POWER(o.dst_rate - dst_rate, 2)) <= {d}) {cmp} {k}"
            )
        };
        let parse =
            |text: String| ExprPredicate::new("q", parse_condition(&text, &registry).unwrap());
        let paper = neighbors_sql_predicate(
            Arc::clone(&neighbors.table),
            "src_rate",
            "dst_rate",
            d,
            NEIGHBORS_K as i64,
        );
        let spelled = parse(text("<=", NEIGHBORS_K));
        assert!(same_query(paper.expr(), spelled.expr()), "d = {d}");
        let served = parse(text("<", NEIGHBORS_K + 1));
        assert_eq!(census(&paper, &neighbors.table), neighbors.truth);
        assert_eq!(census(&served, &neighbors.table), neighbors.truth);
    }
}
