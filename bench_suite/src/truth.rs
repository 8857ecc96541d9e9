//! Ground truth the benchmark computes for itself: exact O(N²)
//! dominator and neighbour counts per row, one pass per dataset,
//! reused for every `k` and every cheap-conjunct threshold.
//!
//! Deliberately independent of `lts_data`'s Fenwick sweep and kd-tree
//! (the program's own calibration paths) and of the table engine: two
//! nested loops over the coordinate columns.

/// `dom[i]` = rows `j` with `x_j ≥ x_i`, `y_j ≥ y_i` and one of them
/// strict — the correlated subquery of the skyband condition.
pub fn dominator_counts(xs: &[f64], ys: &[f64]) -> Vec<u32> {
    xs.iter()
        .zip(ys)
        .map(|(&x, &y)| {
            xs.iter()
                .zip(ys)
                .filter(|&(&xj, &yj)| xj >= x && yj >= y && (xj > x || yj > y))
                .count() as u32
        })
        .collect()
}

/// The neighbour condition exactly as the table engine evaluates
/// `SQRT(POWER(o.x − x, 2) + POWER(o.y − y, 2)) <= d`: `powf` with a
/// run-time exponent.
fn within_engine(ox: f64, oy: f64, x: f64, y: f64, d: f64) -> bool {
    let two = std::hint::black_box(2.0f64);
    ((ox - x).powf(two) + (oy - y).powf(two)).sqrt() <= d
}

/// `nbr[i]` = rows `j` (including `i`) within distance `d` of row `i`
/// — the correlated subquery of the few-neighbours condition. The
/// inner loop squares by multiplication; a pair within a relative
/// `1e-9` of the radius, where `x·x` and `powf(x, 2)` could round
/// apart, is re-decided by the engine's own expression.
pub fn neighbor_counts(xs: &[f64], ys: &[f64], d: f64) -> Vec<u32> {
    let (lo, hi) = (d * (1.0 - 1e-9), d * (1.0 + 1e-9));
    xs.iter()
        .zip(ys)
        .map(|(&ox, &oy)| {
            let mut sure = 0u32;
            let mut edge = 0u32;
            for (&x, &y) in xs.iter().zip(ys) {
                let (dx, dy) = (ox - x, oy - y);
                let dist = (dx * dx + dy * dy).sqrt();
                sure += u32::from(dist < lo);
                edge += u32::from(dist >= lo && dist <= hi);
            }
            if edge > 0 {
                sure += xs
                    .iter()
                    .zip(ys)
                    .filter(|&(&x, &y)| {
                        let (dx, dy) = (ox - x, oy - y);
                        let dist = (dx * dx + dy * dy).sqrt();
                        dist >= lo && dist <= hi && within_engine(ox, oy, x, y, d)
                    })
                    .count() as u32;
            }
            sure
        })
        .collect()
}

/// Rows whose count is below `k` and that pass `keep` — the exact
/// answer of `cheap_conjunct AND (subquery) < k`.
pub fn count_below(counts: &[u32], k: u32, keep: impl Fn(usize) -> bool) -> usize {
    counts
        .iter()
        .enumerate()
        .filter(|&(i, &c)| c < k && keep(i))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::CountingProblem;
    use lts_table::{parse_condition, ExprPredicate, TableRegistry};
    use std::sync::Arc;

    /// The service's own census of `condition` (every row through the
    /// parsed SQL predicate) — what the benchmark's truth must equal.
    fn census(
        table: &Arc<lts_table::Table>,
        name: &str,
        cols: [&str; 2],
        condition: &str,
    ) -> usize {
        let registry = TableRegistry::new().register(name, Arc::clone(table));
        let expr = parse_condition(condition, &registry).unwrap();
        let predicate = Arc::new(ExprPredicate::new("q", expr));
        CountingProblem::new(Arc::clone(table), predicate, &cols)
            .unwrap()
            .exact_count()
            .unwrap()
    }

    #[test]
    fn dominator_truth_equals_the_engine_census() {
        let sc = lts_data::sports_scenario(400, lts_data::SelectivityLevel::M, 5).unwrap();
        let xs = sc.table.floats("strikeouts").unwrap();
        let ys = sc.table.floats("wins").unwrap();
        let dom = dominator_counts(xs, ys);
        for k in [1u32, 7, 40] {
            let cond = crate::ops::skyband_condition("sports", k);
            let want = census(&sc.table, "sports", ["strikeouts", "wins"], &cond);
            assert_eq!(count_below(&dom, k, |_| true), want, "k = {k}");
        }
        let t = 150.0;
        let cond = format!(
            "strikeouts > {t} AND {}",
            crate::ops::skyband_condition("sports", 9)
        );
        let want = census(&sc.table, "sports", ["strikeouts", "wins"], &cond);
        assert_eq!(count_below(&dom, 9, |i| xs[i] > t), want);
    }

    #[test]
    fn neighbor_truth_equals_the_engine_census() {
        let sc = lts_data::neighbors_scenario(350, lts_data::SelectivityLevel::M, 5).unwrap();
        let lts_data::QueryParam::D(d) = sc.param else {
            panic!("neighbors calibrates d")
        };
        let xs = sc.table.floats("src_rate").unwrap();
        let ys = sc.table.floats("dst_rate").unwrap();
        let nbr = neighbor_counts(xs, ys, d);
        assert!(nbr.iter().all(|&c| c >= 1), "every row neighbours itself");
        for k in [3u32, 11, 30] {
            let cond = crate::ops::neighbors_condition("neighbors", d, k);
            let want = census(&sc.table, "neighbors", ["src_rate", "dst_rate"], &cond);
            assert_eq!(count_below(&nbr, k, |_| true), want, "k = {k}");
        }
    }

    #[test]
    fn a_pair_exactly_on_the_radius_counts() {
        // (3, 4) is at distance exactly 5 from the origin.
        let xs = [0.0, 3.0, 10.0];
        let ys = [0.0, 4.0, 10.0];
        assert_eq!(neighbor_counts(&xs, &ys, 5.0), vec![2, 2, 1]);
        assert_eq!(dominator_counts(&xs, &ys), vec![2, 1, 0]);
    }
}
