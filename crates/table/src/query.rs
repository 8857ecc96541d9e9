//! The counting-query decomposition of the paper's §2.
//!
//! A general aggregate query (Q1) is split into:
//!
//! * **Q2** — the object set: `SELECT DISTINCT GL FROM L WHERE θL`
//!   ([`distinct_project`]), which must be cheap to enumerate, and
//! * **Q3** — the per-object predicate
//!   `EXISTS(SELECT GL FROM L, R WHERE θLR AND GL = o.* GROUP BY GL HAVING φ)`,
//!   represented here by predicates over the object table:
//!   [`ExprPredicate`] for arbitrary boolean expressions (possibly with
//!   correlated subqueries) and [`AggThresholdPredicate`] for the common
//!   `(SELECT AGG(...) FROM inner WHERE θ(o, row)) CMP k` shape of
//!   Examples 1 and 2.
//!
//! [`CountQuery`] ties the two together and can compute the exact count
//! by brute force — the expensive path every estimator is trying to avoid.

use crate::bound::CountTest;
use crate::error::TableResult;
use crate::expr::{eval_subquery, AggFunc, AggSubquery, CmpOp, Expr, RowCtx};
use crate::partition::{par_chunks_in_order, subquery_chunks};
use crate::predicate::ObjectPredicate;
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use crate::vector::{subquery_value, CountScan};
use std::collections::HashSet;
use std::sync::Arc;

/// Q2: `SELECT DISTINCT cols FROM table WHERE filter`.
///
/// Rows are emitted in first-occurrence order, so the result is
/// deterministic. The filter is evaluated as one vectorized pass over
/// the table ([`crate::vector`]); only surviving rows are materialized.
///
/// # Errors
///
/// Returns an error for unknown columns or filter evaluation failures.
pub fn distinct_project(table: &Table, cols: &[&str], filter: Option<&Expr>) -> TableResult<Table> {
    let indices: Vec<usize> = cols
        .iter()
        .map(|c| table.schema().index_of(c))
        .collect::<TableResult<_>>()?;
    let fields = indices
        .iter()
        .map(|&i| table.schema().field(i).cloned())
        .collect::<TableResult<Vec<_>>>()?;
    let mut builder = TableBuilder::new(crate::schema::Schema::new(fields)?);
    let mask = match filter {
        Some(f) => Some(crate::vector::eval_bool_columnar(f, table, None)?),
        None => None,
    };
    let mut seen = HashSet::new();
    for row in 0..table.len() {
        if let Some(m) = &mask {
            if !m[row] {
                continue;
            }
        }
        let values: Vec<Value> = indices
            .iter()
            .map(|&i| table.get(row, i))
            .collect::<TableResult<_>>()?;
        let key: Vec<_> = values.iter().map(Value::group_key).collect();
        if seen.insert(key) {
            builder.push_row(values)?;
        }
    }
    builder.finish()
}

/// A per-object predicate given by a boolean [`Expr`] over the object row
/// (which may contain correlated aggregate subqueries).
#[derive(Debug, Clone)]
pub struct ExprPredicate {
    expr: Expr,
    name: String,
}

impl ExprPredicate {
    /// Wrap an expression as an object predicate.
    pub fn new(name: impl Into<String>, expr: Expr) -> Self {
        Self {
            expr,
            name: name.into(),
        }
    }

    /// The underlying expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }
}

impl ObjectPredicate for ExprPredicate {
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        self.expr.eval_bool(RowCtx::top(objects, idx))
    }
    /// Batched evaluation through the vectorized engine
    /// ([`crate::vector`]) and the scan driver
    /// ([`crate::partition::par_eval_bool_ids`]): the id list is split
    /// into contiguous chunks scanned by parallel workers (contiguous
    /// runs — e.g. a full-population scan — borrow column sub-slices
    /// zero-copy) and merged back in order. Result- and error-identical
    /// to the per-row default at every thread count.
    fn eval_batch(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        crate::partition::par_eval_bool_ids(&self.expr, objects, idxs)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// The aggregate-threshold predicate
/// `(SELECT func(arg) FROM inner WHERE filter) cmp threshold`.
///
/// `filter` and `arg` may reference the object row through
/// [`Expr::Outer`]. A single [`eval`](ObjectPredicate::eval) is the
/// interpreted nested-loop scan of `inner` — the "no better plan"
/// baseline the paper assumes for such predicates; a batch goes through
/// the same subquery evaluator as [`ExprPredicate`] (see
/// [`eval_batch`](ObjectPredicate::eval_batch)).
#[derive(Debug, Clone)]
pub struct AggThresholdPredicate {
    /// The subquery, built once.
    sub: AggSubquery,
    /// Comparison between the aggregate and the threshold.
    pub cmp: CmpOp,
    /// Threshold value.
    pub threshold: Value,
    name: String,
}

impl AggThresholdPredicate {
    /// Build a `COUNT(*) cmp k` predicate — the shape of Examples 1 & 2.
    pub fn count(
        name: impl Into<String>,
        inner: Arc<Table>,
        filter: Expr,
        cmp: CmpOp,
        k: i64,
    ) -> Self {
        Self::new(
            name,
            inner,
            filter,
            AggFunc::Count,
            None,
            cmp,
            Value::Int(k),
        )
    }

    /// Build a general aggregate-threshold predicate.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        inner: Arc<Table>,
        filter: Expr,
        func: AggFunc,
        arg: Option<Expr>,
        cmp: CmpOp,
        threshold: Value,
    ) -> Self {
        Self {
            sub: AggSubquery {
                table: inner,
                filter: Some(filter),
                func,
                arg,
            },
            cmp,
            threshold,
            name: name.into(),
        }
    }

    /// The equivalent boolean expression (used for cross-checking).
    pub fn as_expr(&self) -> Expr {
        Expr::Binary(
            crate::expr::BinaryOp::Cmp(self.cmp),
            Box::new(Expr::Subquery(Box::new(self.sub.clone()))),
            Box::new(Expr::Literal(self.threshold.clone())),
        )
    }

    fn test_aggregate(&self, agg: &Value) -> bool {
        match agg.sql_cmp(&self.threshold) {
            Some(ord) => self.cmp.test(ord),
            None => false, // NULL aggregate fails the HAVING clause.
        }
    }
}

impl ObjectPredicate for AggThresholdPredicate {
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        let agg = eval_subquery(&self.sub, RowCtx::top(objects, idx))?;
        Ok(self.test_aggregate(&agg))
    }
    /// Batched evaluation through the one subquery evaluator
    /// ([`crate::vector`]): a `COUNT(*)` against a numeric threshold binds
    /// once per chunk, scans the inner table in tiles and stops at the
    /// tile that decides `cmp threshold`; every other shape takes the
    /// generic vectorized scan per object. Objects are split across
    /// workers by [`crate::partition`]'s rule for subquery batches and
    /// merged back in id order, so results (and the first surfaced
    /// error) are identical to the sequential loop at every thread count.
    fn eval_batch(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        let test = CountTest::new(self.cmp, &self.threshold, false);
        let n_chunks = subquery_chunks(idxs.len(), self.sub.table.len());
        par_chunks_in_order(idxs.len(), n_chunks, |chunk| {
            let chunk = &idxs[chunk];
            if let (Some(test), Some(mut scan)) = (&test, CountScan::bind(&self.sub, objects)) {
                return chunk.iter().map(|&i| scan.test(test, i)).collect();
            }
            chunk
                .iter()
                .map(|&i| Ok(self.test_aggregate(&subquery_value(&self.sub, objects, i)?)))
                .collect()
        })
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// A counting problem: the object table `O` (already materialized via Q2)
/// plus the per-object predicate `q` (Q3). `C(O, q)` is what every
/// estimator in this workspace approximates.
pub struct CountQuery {
    /// The object set `O`.
    pub objects: Arc<Table>,
    /// The predicate `q`.
    pub predicate: Arc<dyn ObjectPredicate>,
}

impl CountQuery {
    /// Create a counting problem.
    pub fn new(objects: Arc<Table>, predicate: Arc<dyn ObjectPredicate>) -> Self {
        Self { objects, predicate }
    }

    /// Number of objects `N = |O|`.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// The exact count `C(O, q)` by evaluating `q` on every object.
    ///
    /// This is the brute-force ground-truth path. It runs as **one
    /// batched oracle call** over the whole population, so predicates
    /// with a vectorized [`ObjectPredicate::eval_batch`] (expression
    /// predicates, aggregate-threshold predicates) scan column-at-a-time
    /// instead of interpreting row by row — and, through the
    /// partition-parallel batch paths, across every worker thread. The
    /// count is identical at every thread count (see
    /// [`crate::partition`]'s determinism contract).
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation errors.
    pub fn exact_count(&self) -> TableResult<usize> {
        let all: Vec<usize> = (0..self.objects.len()).collect();
        Ok(self
            .predicate
            .eval_batch(&self.objects, &all)?
            .into_iter()
            .filter(|&l| l)
            .count())
    }

    /// Evaluate `q` on a single object.
    ///
    /// # Errors
    ///
    /// Propagates predicate evaluation errors.
    pub fn label(&self, idx: usize) -> TableResult<bool> {
        self.predicate.eval(&self.objects, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::table_of_floats;
    use crate::value::DataType;

    fn points() -> Arc<Table> {
        // A tiny 2-d point set for skyband/neighbor style predicates.
        Arc::new(
            table_of_floats(&[
                ("x", &[1.0, 2.0, 3.0, 4.0, 2.0]),
                ("y", &[4.0, 3.0, 2.0, 1.0, 3.0]),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn distinct_project_dedups_and_filters() {
        let t = points();
        let out = distinct_project(&t, &["x", "y"], None).unwrap();
        assert_eq!(out.len(), 4); // (2,3) appears twice
        let filtered =
            distinct_project(&t, &["x"], Some(&Expr::col("y").ge(Expr::lit(3.0)))).unwrap();
        // y >= 3 keeps rows 0,1,4 with x = 1,2,2 → distinct {1,2}.
        assert_eq!(filtered.len(), 2);
        assert!(distinct_project(&t, &["nope"], None).is_err());
    }

    #[test]
    fn skyband_predicate_example2() {
        // q(o): (SELECT COUNT(*) FROM D WHERE x>=o.x AND y>=o.y AND (x>o.x OR y>o.y)) < k
        let d = points();
        let dominate = Expr::col("x")
            .ge(Expr::outer("x"))
            .and(Expr::col("y").ge(Expr::outer("y")))
            .and(
                Expr::col("x")
                    .gt(Expr::outer("x"))
                    .or(Expr::col("y").gt(Expr::outer("y"))),
            );
        let q = AggThresholdPredicate::count("skyband", Arc::clone(&d), dominate, CmpOp::Lt, 1);
        // Dominance counts: (1,4):0 (nothing has x>=1,y>=4 strictly better)
        // (2,3): dominated by? (2,3) dup doesn't dominate (needs strict >); (3,2)? x>=2 yes y>=3 no. → 0
        // (3,2): (4,1)? y>=2 no. → 0; (4,1): none → 0; (2,3) dup → 0.
        // With k=1 (skyline), all 5 points qualify.
        let cq = CountQuery::new(Arc::clone(&d), Arc::new(q));
        assert_eq!(cq.exact_count().unwrap(), 5);

        // Make a dominated point: add (1,1), dominated by all four corners.
        let d2 = Arc::new(
            table_of_floats(&[
                ("x", &[1.0, 2.0, 3.0, 4.0, 1.0]),
                ("y", &[4.0, 3.0, 2.0, 1.0, 1.0]),
            ])
            .unwrap(),
        );
        let dominate2 = Expr::col("x")
            .ge(Expr::outer("x"))
            .and(Expr::col("y").ge(Expr::outer("y")))
            .and(
                Expr::col("x")
                    .gt(Expr::outer("x"))
                    .or(Expr::col("y").gt(Expr::outer("y"))),
            );
        let q2 = AggThresholdPredicate::count("skyband", Arc::clone(&d2), dominate2, CmpOp::Lt, 1);
        let cq2 = CountQuery::new(Arc::clone(&d2), Arc::new(q2));
        // (1,1) is dominated by (2,3),(3,2),(1,4)... count >= 1 → excluded.
        assert_eq!(cq2.exact_count().unwrap(), 4);
    }

    #[test]
    fn agg_threshold_matches_expression_form() {
        let d = points();
        let filter = Expr::col("x").ge(Expr::outer("x"));
        let p = AggThresholdPredicate::count("ge-count", Arc::clone(&d), filter, CmpOp::Le, 2);
        let as_expr = ExprPredicate::new("expr-form", p.as_expr());
        for i in 0..d.len() {
            assert_eq!(
                p.eval(&d, i).unwrap(),
                as_expr.eval(&d, i).unwrap(),
                "object {i}"
            );
        }
    }

    #[test]
    fn count_query_label_and_exact() {
        let t = Arc::new(table_of_floats(&[("v", &[1.0, -1.0, 2.0, -2.0])]).unwrap());
        let p = Arc::new(crate::predicate::FnPredicate::new("pos", |t: &Table, i| {
            Ok(t.floats("v")?[i] > 0.0)
        }));
        let cq = CountQuery::new(Arc::clone(&t), p);
        assert_eq!(cq.num_objects(), 4);
        assert_eq!(cq.exact_count().unwrap(), 2);
        assert!(cq.label(0).unwrap());
        assert!(!cq.label(1).unwrap());
    }

    #[test]
    fn distinct_project_on_empty_table() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let t = TableBuilder::new(schema).finish().unwrap();
        let out = distinct_project(&t, &["a"], None).unwrap();
        assert!(out.is_empty());
    }
}
