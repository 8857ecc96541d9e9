//! The k-skyband query (paper Example 2).
//!
//! `q(o)` tests whether fewer than `k` points dominate `o`
//! (dominate = ≥ in both coordinates, > in at least one).
//! [`skyband_sql_predicate`] is the literal correlated aggregate
//! subquery from the paper, as the [`Expr`] the condition parser builds
//! from that text — the one oracle for this query: scenarios, examples
//! and the service all label through it, and `ExprPredicate` runs it
//! through the bound subquery kernel of `lts_table::vector`, which
//! scans per object in tiles that stop at `k` dominators.
//!
//! [`dominator_counts`] computes every point's exact dominator count in
//! `O(N log N)` with an x-sweep over a Fenwick tree of y-ranks — the
//! "specialized algorithm" the paper notes a generic system lacks; we
//! use it for ground truth and selectivity calibration only.

use lts_table::{Expr, ExprPredicate, Table};
use std::collections::HashMap;
use std::sync::Arc;

/// Count-Fenwick over ranks.
struct CountFenwick {
    tree: Vec<u32>,
}

impl CountFenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }
    fn add(&mut self, mut i: usize) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }
    /// Count of inserted ranks `<= i`.
    fn prefix(&self, mut i: usize) -> u32 {
        i += 1;
        let mut s = 0;
        let mut i = i.min(self.tree.len() - 1);
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
    fn total(&self) -> u32 {
        self.prefix(self.tree.len() - 2)
    }
}

/// Exact dominator count per point: `dom(i) = #{j : x_j ≥ x_i ∧ y_j ≥
/// y_i ∧ (x_j > x_i ∨ y_j > y_i)}`.
///
/// Sweep points by descending `x`; for each equal-`x` group, first
/// insert all of the group's y-ranks, then query each member — so the
/// Fenwick holds exactly the points with `x_j ≥ x_i`. Duplicated
/// `(x, y)` pairs are subtracted at the end (equal points do not
/// dominate each other).
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
pub fn dominator_counts(xs: &[f64], ys: &[f64]) -> Vec<usize> {
    assert_eq!(xs.len(), ys.len(), "coordinate slices must align");
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    // Rank-compress y.
    let mut y_sorted: Vec<f64> = ys.to_vec();
    y_sorted.sort_by(f64::total_cmp);
    y_sorted.dedup_by(|a, b| a.to_bits() == b.to_bits());
    let y_rank = |y: f64| y_sorted.partition_point(|&v| v < y);

    // Exact-duplicate counts.
    let mut dup: HashMap<(u64, u64), usize> = HashMap::new();
    for i in 0..n {
        *dup.entry((xs[i].to_bits(), ys[i].to_bits())).or_insert(0) += 1;
    }

    // Sweep by descending x.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[b].total_cmp(&xs[a]));
    let mut fen = CountFenwick::new(y_sorted.len());
    let mut out = vec![0usize; n];
    let mut g = 0usize;
    while g < n {
        // Group of equal x.
        let mut h = g;
        while h + 1 < n && xs[order[h + 1]].to_bits() == xs[order[g]].to_bits() {
            h += 1;
        }
        for &i in &order[g..=h] {
            fen.add(y_rank(ys[i]));
        }
        for &i in &order[g..=h] {
            let r = y_rank(ys[i]);
            // Points inserted so far have x_j >= x_i; among them count
            // y_j >= y_i = total - (# with rank < r).
            let ge = fen.total() - if r > 0 { fen.prefix(r - 1) } else { 0 };
            let equal = dup[&(xs[i].to_bits(), ys[i].to_bits())];
            out[i] = ge as usize - equal;
        }
        g = h + 1;
    }
    out
}

/// Exact k-skyband size: points with fewer than `k` dominators.
pub fn exact_skyband_count(xs: &[f64], ys: &[f64], k: usize) -> usize {
    dominator_counts(xs, ys)
        .into_iter()
        .filter(|&d| d < k)
        .count()
}

/// The paper's SQL-form predicate (Example 2):
///
/// ```sql
/// (SELECT COUNT(*) FROM D
///   WHERE x >= o.x AND y >= o.y AND (x > o.x OR y > o.y)) < k
/// ```
pub fn skyband_sql_predicate(table: Arc<Table>, x_col: &str, y_col: &str, k: i64) -> ExprPredicate {
    let dominate = Expr::col(x_col)
        .ge(Expr::outer(x_col))
        .and(Expr::col(y_col).ge(Expr::outer(y_col)))
        .and(
            Expr::col(x_col)
                .gt(Expr::outer(x_col))
                .or(Expr::col(y_col).gt(Expr::outer(y_col))),
        );
    // A float threshold, as the condition parser reads every number.
    let dominators = Expr::count_where(table, dominate);
    ExprPredicate::new("skyband", dominators.lt(Expr::lit(k as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::table::table_of_floats;
    use lts_table::{ObjectPredicate, RowCtx};

    fn brute_dominators(xs: &[f64], ys: &[f64]) -> Vec<usize> {
        (0..xs.len())
            .map(|i| {
                (0..xs.len())
                    .filter(|&j| {
                        xs[j] >= xs[i] && ys[j] >= ys[i] && (xs[j] > xs[i] || ys[j] > ys[i])
                    })
                    .count()
            })
            .collect()
    }

    fn pseudo(n: usize, seed: u64, distinct_vals: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) % distinct_vals) as f64
        };
        (
            (0..n).map(|_| next()).collect(),
            (0..n).map(|_| next()).collect(),
        )
    }

    #[test]
    fn sweep_matches_brute_force() {
        for &(n, vals) in &[(50usize, 1000u64), (200, 12), (300, 5)] {
            let (xs, ys) = pseudo(n, 42, vals);
            assert_eq!(
                dominator_counts(&xs, &ys),
                brute_dominators(&xs, &ys),
                "n={n} vals={vals}"
            );
        }
    }

    #[test]
    fn skyline_points_have_zero_dominators() {
        let xs = [1.0, 2.0, 3.0, 0.5];
        let ys = [3.0, 2.0, 1.0, 0.5];
        let dom = dominator_counts(&xs, &ys);
        assert_eq!(dom, vec![0, 0, 0, 3]);
        assert_eq!(exact_skyband_count(&xs, &ys, 1), 3);
        assert_eq!(exact_skyband_count(&xs, &ys, 4), 4);
    }

    #[test]
    fn duplicates_do_not_dominate_each_other() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [2.0, 2.0, 2.0];
        assert_eq!(dominator_counts(&xs, &ys), vec![0, 0, 0]);
    }

    #[test]
    fn empty_input() {
        assert!(dominator_counts(&[], &[]).is_empty());
        assert_eq!(exact_skyband_count(&[], &[], 3), 0);
    }

    #[test]
    fn sql_batch_path_agrees_with_row_path_and_truth() {
        // The batched oracle call goes through the vectorized engine;
        // it must label exactly like the row-wise interpreter (the
        // reference semantics) and match the Fenwick-sweep ground truth.
        let (xs, ys) = pseudo(90, 3, 25);
        let t = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        for k in [1i64, 3, 10] {
            let sql = skyband_sql_predicate(Arc::clone(&t), "x", "y", k);
            let all: Vec<usize> = (0..t.len()).collect();
            let batch = sql.eval_batch(&t, &all).unwrap();
            for (i, &label) in batch.iter().enumerate() {
                let row_wise = sql.expr().eval_bool(RowCtx::top(&t, i)).unwrap();
                assert_eq!(label, row_wise, "k={k}, i={i}");
            }
            let count = batch.iter().filter(|&&b| b).count();
            assert_eq!(count, exact_skyband_count(&xs, &ys, k as usize), "k={k}");
        }
    }
}
