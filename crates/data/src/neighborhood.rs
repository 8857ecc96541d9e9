//! The few-neighbors query (paper Example 1).
//!
//! `q(o)` holds when at most `k` records lie within Euclidean distance
//! `d` of `o` in the informative 2-d space (counts include the record
//! itself, matching the paper's self-join SQL).
//! [`neighbors_sql_predicate`] is the paper's
//! `SQRT(POWER(o.x−x,2)+POWER(o.y−y,2)) <= d … COUNT(*) <= k`
//! correlated subquery, as the [`Expr`] the condition parser builds
//! from that text — the one oracle for this query: scenarios, examples
//! and the service all label through it, and `ExprPredicate` runs it
//! through the bound subquery kernel of `lts_table::vector`, which
//! visits only the kd-zones the disk's box meets and stops past `k`
//! neighbours.
//!
//! Ground truth and calibration use [`knn_radii`]: the distance to each
//! record's `(k+1)`-th nearest neighbour (self included); a record
//! qualifies at radius `d` iff that distance exceeds `d`, so the exact
//! selectivity curve in `d` is just the empirical distribution of radii.

use lts_learn::kdtree::KdTree;
use lts_learn::Matrix;
use lts_table::{Expr, ExprPredicate, Table};
use std::sync::Arc;

/// Distance to the `(k+1)`-th nearest neighbour (self included) for
/// every point — the radius at which the point stops qualifying.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths or are empty.
pub fn knn_radii(xs: &[f64], ys: &[f64], k: usize) -> Vec<f64> {
    assert_eq!(xs.len(), ys.len(), "coordinate slices must align");
    assert!(!xs.is_empty(), "need at least one point");
    let rows: Vec<Vec<f64>> = xs.iter().zip(ys).map(|(&x, &y)| vec![x, y]).collect();
    let matrix = Matrix::from_rows(&rows).expect("rectangular rows");
    let tree = KdTree::build(matrix);
    let want = (k + 1).min(xs.len());
    xs.iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let nn = tree.knn(&[x, y], want);
            // If the population is smaller than k+1 the point always
            // qualifies; represent that as an infinite radius.
            if nn.len() < k + 1 {
                f64::INFINITY
            } else {
                nn.last().expect("non-empty").1.sqrt()
            }
        })
        .collect()
}

/// Exact count of records with at most `k` neighbours (self included
/// in the distance count ⇒ at most `k + 1` points within `d`).
///
/// Matches the SQL predicate `COUNT(*) <= k` where the self-join pairs
/// each record with itself too; i.e. a record qualifies iff
/// `#{j : dist(i, j) <= d} <= k`.
pub fn exact_neighbors_count(xs: &[f64], ys: &[f64], d: f64, k: usize) -> usize {
    if k == 0 {
        // Even the record itself violates COUNT(*) <= 0.
        return 0;
    }
    // #within(d) <= k  ⟺  the (k+1)-th nearest (self included) is
    // farther than d.
    knn_radii(xs, ys, k)
        .into_iter()
        .filter(|&r| qualifies(r, d))
        .count()
}

/// Whether a record whose [`knn_radii`] entry is `radius` qualifies at
/// radius `d`: its `(k+1)`-th nearest neighbour lies farther than `d`,
/// or it has none — a population of at most `k` records qualifies
/// whole at every `d`, `∞` included.
pub(crate) fn qualifies(radius: f64, d: f64) -> bool {
    radius > d || radius == f64::INFINITY
}

/// The paper's SQL-form predicate (Example 1 / §2):
///
/// ```sql
/// (SELECT COUNT(*) FROM D
///   WHERE SQRT(POWER(o.x−x, 2) + POWER(o.y−y, 2)) <= d) <= k
/// ```
pub fn neighbors_sql_predicate(
    table: Arc<Table>,
    x_col: &str,
    y_col: &str,
    d: f64,
    k: i64,
) -> ExprPredicate {
    let dist = Expr::outer(x_col)
        .sub(Expr::col(x_col))
        .power(Expr::lit(2.0))
        .add(
            Expr::outer(y_col)
                .sub(Expr::col(y_col))
                .power(Expr::lit(2.0)),
        )
        .sqrt();
    // A float threshold, as the condition parser reads every number.
    let within = Expr::count_where(table, dist.le(Expr::lit(d)));
    ExprPredicate::new("few-neighbors", within.le(Expr::lit(k as f64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::table::table_of_floats;
    use lts_table::{ObjectPredicate, RowCtx};

    fn pseudo(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        };
        (
            (0..n).map(|_| next()).collect(),
            (0..n).map(|_| next()).collect(),
        )
    }

    fn brute_count(xs: &[f64], ys: &[f64], d: f64, k: usize) -> usize {
        (0..xs.len())
            .filter(|&i| {
                let within = (0..xs.len())
                    .filter(|&j| {
                        let dx = xs[j] - xs[i];
                        let dy = ys[j] - ys[i];
                        (dx * dx + dy * dy).sqrt() <= d
                    })
                    .count();
                within <= k
            })
            .count()
    }

    #[test]
    fn radii_method_matches_brute_force() {
        let (xs, ys) = pseudo(200, 31);
        for &d in &[0.2, 0.5, 1.0, 3.0] {
            for &k in &[1usize, 3, 8] {
                assert_eq!(
                    exact_neighbors_count(&xs, &ys, d, k),
                    brute_count(&xs, &ys, d, k),
                    "d={d}, k={k}"
                );
            }
        }
    }

    #[test]
    fn k_zero_matches_sql_semantics() {
        let (xs, ys) = pseudo(30, 1);
        // COUNT(*) <= 0 is unsatisfiable (self always matches).
        assert_eq!(exact_neighbors_count(&xs, &ys, 1.0, 0), 0);
        assert_eq!(brute_count(&xs, &ys, 1.0, 0), 0);
    }

    #[test]
    fn sql_batch_path_agrees_with_row_path() {
        // The batched oracle call goes through the vectorized engine;
        // it must label exactly like the row-wise interpreter (the
        // reference semantics), for arbitrary index multisets, and
        // count what the radii method counts.
        let (xs, ys) = pseudo(80, 5);
        let t = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        for &(d, k) in &[(0.4f64, 2i64), (0.9, 4), (2.5, 20)] {
            let sql = neighbors_sql_predicate(Arc::clone(&t), "x", "y", d, k);
            let idxs: Vec<usize> = (0..t.len()).chain([3, 3, 0]).collect();
            let batch = sql.eval_batch(&t, &idxs).unwrap();
            for (n, &i) in idxs.iter().enumerate() {
                let row_wise = sql.expr().eval_bool(RowCtx::top(&t, i)).unwrap();
                assert_eq!(batch[n], row_wise, "d={d}, k={k}, index {i}");
            }
            let count = batch[..t.len()].iter().filter(|&&b| b).count();
            assert_eq!(count, exact_neighbors_count(&xs, &ys, d, k as usize));
        }
    }

    #[test]
    fn infinite_radius_when_population_small() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let radii = knn_radii(&xs, &ys, 5);
        assert!(radii.iter().all(|r| r.is_infinite()));
    }
}
