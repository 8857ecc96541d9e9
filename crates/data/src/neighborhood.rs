//! The few-neighbors query (paper Example 1).
//!
//! `q(o)` holds when at most `k` records lie within Euclidean distance
//! `d` of `o` in the informative 2-d space (counts include the record
//! itself, matching the paper's self-join SQL). Forms:
//!
//! * [`neighbors_sql_predicate`] — the paper's
//!   `SQRT(POWER(o.x−x,2)+POWER(o.y−y,2)) <= d … COUNT(*) <= k`
//!   correlated subquery, as the [`Expr`] the condition parser builds
//!   from that text (row-wise `eval` is the faithful interpreted
//!   nested loop; batched `eval_batch` binds the subquery once and
//!   scans it per object in tiles that stop past `k` neighbours,
//!   through `lts_table::vector`);
//! * [`neighbors_fast_predicate`] — grid-accelerated count with early
//!   exit past `k` (semantically identical).
//!
//! Ground truth and calibration use [`knn_radii`]: the distance to each
//! record's `(k+1)`-th nearest neighbour (self included); a record
//! qualifies at radius `d` iff that distance exceeds `d`, so the exact
//! selectivity curve in `d` is just the empirical distribution of radii.

use lts_learn::kdtree::KdTree;
use lts_learn::Matrix;
use lts_table::{Expr, ExprPredicate, FnPredicate, GridIndex, Table, TableResult};
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
    knn_radii(xs, ys, k).iter().filter(|&&r| r > d).count()
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

/// Grid-accelerated predicate with early exit: counts candidates in
/// cells intersecting the query disk and stops past `k`.
///
/// # Errors
///
/// Returns an error if the named columns are missing or non-float.
pub fn neighbors_fast_predicate(
    table: &Arc<Table>,
    x_col: &str,
    y_col: &str,
    d: f64,
    k: i64,
) -> TableResult<FnPredicate<impl Fn(&Table, usize) -> TableResult<bool> + Send + Sync>> {
    let xs: Vec<f64> = table.floats(x_col)?.to_vec();
    let ys: Vec<f64> = table.floats(y_col)?.to_vec();
    // Cell size on the order of the query radius keeps candidate lists
    // tight; grid dims capped for memory sanity.
    let side = ((table.len() as f64).sqrt() as usize).clamp(8, 256);
    let grid = GridIndex::build(&xs, &ys, side, side)?;
    let k = k.max(0);
    Ok(FnPredicate::new(
        "few-neighbors-fast",
        move |_t: &Table, i| {
            let (x, y) = (xs[i], ys[i]);
            let d2 = d * d;
            let mut count: i64 = 0;
            let mut exceeded = false;
            grid.for_each_candidate_within(x, y, d, |j| {
                if exceeded {
                    return;
                }
                let dx = xs[j] - x;
                let dy = ys[j] - y;
                if dx * dx + dy * dy <= d2 {
                    count += 1;
                    if count > k {
                        exceeded = true;
                    }
                }
            });
            Ok(!exceeded)
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::table::table_of_floats;
    use lts_table::ObjectPredicate;

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
    fn sql_and_fast_predicates_agree() {
        let (xs, ys) = pseudo(100, 77);
        let t = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        for &(d, k) in &[(0.4f64, 2i64), (1.0, 5), (2.5, 20)] {
            let sql = neighbors_sql_predicate(Arc::clone(&t), "x", "y", d, k);
            let fast = neighbors_fast_predicate(&t, "x", "y", d, k).unwrap();
            for i in 0..t.len() {
                assert_eq!(
                    sql.eval(&t, i).unwrap(),
                    fast.eval(&t, i).unwrap(),
                    "d={d}, k={k}, i={i}"
                );
            }
        }
    }

    #[test]
    fn sql_batch_path_agrees_with_row_path() {
        // The batched oracle call goes through the vectorized engine;
        // it must label exactly like row-at-a-time evaluation, for
        // arbitrary index multisets.
        let (xs, ys) = pseudo(80, 5);
        let t = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        let sql = neighbors_sql_predicate(Arc::clone(&t), "x", "y", 0.9, 4);
        let idxs: Vec<usize> = (0..t.len()).chain([3, 3, 0]).collect();
        let batch = sql.eval_batch(&t, &idxs).unwrap();
        for (k, &i) in idxs.iter().enumerate() {
            assert_eq!(batch[k], sql.eval(&t, i).unwrap(), "index {i}");
        }
    }

    #[test]
    fn fast_predicate_count_matches_exact() {
        let (xs, ys) = pseudo(300, 13);
        let t = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        let (d, k) = (0.8, 4i64);
        let fast = neighbors_fast_predicate(&t, "x", "y", d, k).unwrap();
        let mut count = 0;
        for i in 0..t.len() {
            if fast.eval(&t, i).unwrap() {
                count += 1;
            }
        }
        assert_eq!(count, exact_neighbors_count(&xs, &ys, d, k as usize));
    }

    #[test]
    fn infinite_radius_when_population_small() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let radii = knn_radii(&xs, &ys, 5);
        assert!(radii.iter().all(|r| r.is_infinite()));
    }
}
