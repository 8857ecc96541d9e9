//! The counting-query decomposition of the paper's §2.
//!
//! A general aggregate query (Q1) is split into:
//!
//! * **Q2** — the object set: `SELECT DISTINCT GL FROM L WHERE θL`
//!   ([`distinct_project`]), which must be cheap to enumerate, and
//! * **Q3** — the per-object predicate
//!   `EXISTS(SELECT GL FROM L, R WHERE θLR AND GL = o.* GROUP BY GL HAVING φ)`,
//!   represented here by an [`ExprPredicate`]: a boolean expression
//!   over the object row, the paper's
//!   `(SELECT COUNT(*) FROM inner WHERE θ(o, row)) CMP k` of Examples 1
//!   and 2 being `Expr::count_where(inner, θ).lt(Expr::lit(k))` — the
//!   tree the condition parser builds from that text.

use crate::error::TableResult;
use crate::expr::Expr;
use crate::predicate::ObjectPredicate;
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use std::collections::HashSet;

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
    /// One object through the batch kernel below: a correlated
    /// subquery is bound once and scanned by the tiled (or kd-zone)
    /// kernel, not by the interpreter's nested loop. The interpreter,
    /// [`Expr::eval_bool`], stays the reference semantics the agreement
    /// tests hold this kernel to.
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        Ok(self.eval_batch(objects, &[idx])?[0])
    }
    /// Batched evaluation through the vectorized engine
    /// ([`crate::vector`]) and the scan driver
    /// ([`crate::partition::par_eval_bool_ids`]): the id list is split
    /// into contiguous chunks scanned by parallel workers (contiguous
    /// runs — e.g. a full-population scan — borrow column sub-slices
    /// zero-copy) and merged back in order. Result- and error-identical
    /// to the row-wise interpreter at every thread count.
    fn eval_batch(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        crate::partition::par_eval_bool_ids(&self.expr, objects, idxs)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, CmpOp, RowCtx};
    use crate::schema::Schema;
    use crate::table::table_of_floats;
    use crate::value::DataType;
    use std::sync::Arc;

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

    /// `(SELECT COUNT(*) FROM d WHERE x>=o.x AND y>=o.y AND (x>o.x OR y>o.y)) < k`
    fn skyband(d: &Arc<Table>, k: i64) -> ExprPredicate {
        let dominate = Expr::col("x")
            .ge(Expr::outer("x"))
            .and(Expr::col("y").ge(Expr::outer("y")))
            .and(
                Expr::col("x")
                    .gt(Expr::outer("x"))
                    .or(Expr::col("y").gt(Expr::outer("y"))),
            );
        let expr = Expr::count_where(Arc::clone(d), dominate).lt(Expr::lit(k));
        ExprPredicate::new("skyband", expr)
    }

    fn census(p: &ExprPredicate, objects: &Table) -> usize {
        let all: Vec<usize> = (0..objects.len()).collect();
        let labels = p.eval_batch(objects, &all).unwrap();
        labels.into_iter().filter(|&l| l).count()
    }

    #[test]
    fn skyband_predicate_example2() {
        // No point of `points()` dominates another — (2,3) and its
        // duplicate need a strict `>` somewhere — so with k = 1 (the
        // skyline) all 5 qualify.
        let d = points();
        assert_eq!(census(&skyband(&d, 1), &d), 5);

        // (1,1) is dominated by the other four corners.
        let d2 = Arc::new(
            table_of_floats(&[
                ("x", &[1.0, 2.0, 3.0, 4.0, 1.0]),
                ("y", &[4.0, 3.0, 2.0, 1.0, 1.0]),
            ])
            .unwrap(),
        );
        assert_eq!(census(&skyband(&d2, 1), &d2), 4);
        assert_eq!(census(&skyband(&d2, 5), &d2), 5);
    }

    #[test]
    fn agg_threshold_matches_expression_form() {
        // The batched `COUNT(*) cmp k` kernel against the row-wise
        // interpreter, for every comparison and either operand order.
        let d = points();
        let count = || Expr::count_where(Arc::clone(&d), Expr::col("x").ge(Expr::outer("x")));
        let all: Vec<usize> = (0..d.len()).collect();
        for cmp in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            for expr in [
                Expr::Binary(
                    BinaryOp::Cmp(cmp),
                    Box::new(count()),
                    Box::new(Expr::lit(2i64)),
                ),
                Expr::Binary(
                    BinaryOp::Cmp(cmp),
                    Box::new(Expr::lit(2.5)),
                    Box::new(count()),
                ),
            ] {
                let p = ExprPredicate::new("ge-count", expr);
                let row_wise: Vec<bool> = all
                    .iter()
                    .map(|&i| p.expr().eval_bool(RowCtx::top(&d, i)).unwrap())
                    .collect();
                assert_eq!(p.eval_batch(&d, &all).unwrap(), row_wise, "{cmp:?}");
            }
        }
    }

    #[test]
    fn distinct_project_on_empty_table() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let t = TableBuilder::new(schema).finish().unwrap();
        let out = distinct_project(&t, &["a"], None).unwrap();
        assert!(out.is_empty());
    }
}
