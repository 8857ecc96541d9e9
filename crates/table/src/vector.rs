//! Vectorized (column-at-a-time) expression evaluation.
//!
//! [`Expr::eval`](crate::expr::Expr::eval) interprets one row at a time
//! through boxed [`Value`]s: every row pays a schema lookup per column
//! reference, a heap-ish `Value` round-trip per AST node, and a dynamic
//! type dispatch per operator. [`Column`] storage is already fully
//! columnar, so this module evaluates an [`Expr`] over a whole [`Table`]
//! (or a selection vector of row ids) in typed kernels instead:
//! `Vec<bool>` / `Vec<i64>` / `Vec<f64>` intermediates, branch-free
//! comparison and arithmetic loops, and `AND`/`OR` as mask combination
//! rather than per-row short-circuit interpretation.
//!
//! The paper's cost model (§2) charges only for evaluations of the
//! expensive predicate `q`; everything else — proxy scans, ground-truth
//! counting, stratification setup — must be as close to free as
//! possible. This engine is that free path: the batched labeling
//! pipeline (`ObjectPredicate::eval_batch` → `Labeler::label_batch`)
//! bottoms out here for expression predicates. A correlated `COUNT(*)`
//! subquery — the oracle itself — is bound once per batch and, per
//! outer row, counts or skips the inner table's kd-zones whose boxes
//! settle the filter and scans the rest in fused tiles that stop as soon
//! as an enclosing `COUNT(*) cmp k` is decided (the private `bound`
//! module; its doc states what binds and why both are exact); every other
//! subquery shape runs one vectorized inner scan per outer row through
//! the kernels below (`subquery_value`), which is also what an object
//! the bound kernel gives up on is re-evaluated with.
//!
//! # Semantics
//!
//! The vectorized path is **result-identical** to the row-wise
//! evaluator, per row, including errors (see the "Three-valued logic,
//! NULL, and errors" section of [`crate::expr`]). A [`Batch`] therefore
//! carries three layers: typed values, a NULL mask, and a per-row error
//! mask. Kernels evaluate both operands eagerly and then *mask* errors
//! that row-wise short-circuiting would have shadowed (`FALSE AND
//! <error>` is `FALSE`, not an error). Scalar subtrees (literals, outer
//! references) stay scalar — they are computed once and broadcast.
//! The agreement is enforced by property tests over random schemas,
//! expressions, and selection vectors (`tests/vector_agreement.rs`).
//!
//! Only string data falls back to element-at-a-time work inside the
//! kernels (comparison of `Arc<str>` values); everything numeric runs
//! in branch-free loops with placeholder values under the NULL/error
//! masks.
//!
//! # Example
//!
//! ```
//! use lts_table::table::table_of_floats;
//! use lts_table::{vector, Expr};
//!
//! let t = table_of_floats(&[("x", &[0.5, 1.5, 2.5])]).unwrap();
//! let e = Expr::col("x").gt(Expr::lit(1.0));
//! // Whole-table mask…
//! assert_eq!(
//!     vector::eval_bool_columnar(&e, &t, None).unwrap(),
//!     vec![false, true, true]
//! );
//! // …or a selection vector of row ids (duplicates allowed).
//! assert_eq!(
//!     vector::eval_bool_columnar(&e, &t, Some(&[2, 0, 2])).unwrap(),
//!     vec![true, false, true]
//! );
//! ```

use crate::bound::{BoundCount, CountTest};
use crate::column::Column;
use crate::error::{TableError, TableResult};
use crate::expr::{
    apply_binary, eval_unary, kleene_and, kleene_or, AggFunc, AggSubquery, BinaryOp, CmpOp, Expr,
    Func, UnaryOp,
};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------

/// Typed values for the selected rows. Whole-table column references
/// borrow storage directly (`Cow::Borrowed` — zero-copy); kernel
/// outputs and selection gathers own their buffers.
#[derive(Debug, Clone)]
enum Data<'a> {
    /// One broadcast value for every row (literals, outer references,
    /// constant-folded subtrees). `Scalar(Value::Null)` means "NULL in
    /// every row".
    Scalar(Value),
    /// Boolean column.
    Bool(Cow<'a, [bool]>),
    /// Integer column.
    Int(Cow<'a, [i64]>),
    /// Float column.
    Float(Cow<'a, [f64]>),
    /// String column.
    Str(Cow<'a, [Arc<str>]>),
}

/// Per-row evaluation failures.
#[derive(Debug, Clone)]
enum Errs {
    /// No row failed.
    None,
    /// Every row failed identically (structural errors: unknown column,
    /// unbound outer row, wrong arity).
    Uniform(TableError),
    /// Sparse per-row failures (aligned with the batch).
    Rows(Vec<Option<TableError>>),
}

/// The columnar result of evaluating an expression over a batch of rows.
///
/// Conceptually `Batch` is `Vec<TableResult<Value>>` stored as three
/// layers — typed values, a NULL mask, and a per-row error mask — so
/// kernels stay branch-free and rows that row-wise evaluation would
/// have failed are faithfully reproduced (see [`Batch::value_at`]).
/// The lifetime ties zero-copy column references to the evaluated
/// table.
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    len: usize,
    data: Data<'a>,
    /// `true` ⇒ the row's value is NULL (data holds a placeholder).
    nulls: Option<Vec<bool>>,
    errs: Errs,
}

impl<'a> Batch<'a> {
    fn scalar(len: usize, v: Value) -> Batch<'a> {
        Batch {
            len,
            data: Data::Scalar(v),
            nulls: None,
            errs: Errs::None,
        }
    }

    fn uniform_err(len: usize, e: TableError) -> Batch<'a> {
        Batch {
            len,
            data: Data::Scalar(Value::Null),
            nulls: None,
            errs: Errs::Uniform(e),
        }
    }

    fn all_null(len: usize, errs: Errs) -> Batch<'a> {
        Batch {
            len,
            data: Data::Scalar(Value::Null),
            nulls: None,
            errs,
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn err_at(&self, k: usize) -> Option<&TableError> {
        match &self.errs {
            Errs::None => None,
            Errs::Uniform(e) => Some(e),
            Errs::Rows(v) => v[k].as_ref(),
        }
    }

    fn is_null_at(&self, k: usize) -> bool {
        matches!(&self.data, Data::Scalar(Value::Null)) || self.nulls.as_ref().is_some_and(|m| m[k])
    }

    /// The data type shared by the batch's non-NULL values (`None` when
    /// every row is NULL).
    fn dtype(&self) -> Option<DataType> {
        match &self.data {
            Data::Scalar(v) => v.data_type(),
            Data::Bool(_) => Some(DataType::Bool),
            Data::Int(_) => Some(DataType::Int),
            Data::Float(_) => Some(DataType::Float),
            Data::Str(_) => Some(DataType::Str),
        }
    }

    fn has_errs(&self) -> bool {
        !matches!(self.errs, Errs::None)
    }

    /// Materialize row `k` exactly as row-wise evaluation would have
    /// produced it: the row's error, `Value::Null`, or its value.
    ///
    /// # Errors
    ///
    /// Returns the row's evaluation error, if it has one.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn value_at(&self, k: usize) -> TableResult<Value> {
        assert!(
            k < self.len,
            "batch row {k} out of range ({} rows)",
            self.len
        );
        if let Some(e) = self.err_at(k) {
            return Err(e.clone());
        }
        if self.is_null_at(k) {
            return Ok(Value::Null);
        }
        Ok(match &self.data {
            Data::Scalar(v) => v.clone(),
            Data::Bool(v) => Value::Bool(v[k]),
            Data::Int(v) => Value::Int(v[k]),
            Data::Float(v) => Value::Float(v[k]),
            Data::Str(v) => Value::Str(v[k].clone()),
        })
    }

    /// Raw boolean at `k` if the row is a non-NULL, non-error boolean.
    fn bool_raw_at(&self, k: usize) -> Option<bool> {
        if self.is_null_at(k) {
            return None;
        }
        match &self.data {
            Data::Bool(v) => Some(v[k]),
            Data::Scalar(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Three-valued boolean view of a non-error row (`None` = NULL),
    /// erring on non-boolean values exactly like [`Value::as_bool`].
    fn bool3_at(&self, k: usize) -> TableResult<Option<bool>> {
        if self.is_null_at(k) {
            return Ok(None);
        }
        match self.bool_raw_at(k) {
            Some(b) => Ok(Some(b)),
            None => {
                let v = self.value_at(k)?;
                v.as_bool().map(Some)
            }
        }
    }

    /// SQL predicate view of a non-error row: NULL ⇒ `false`.
    fn truthy_at(&self, k: usize) -> TableResult<bool> {
        Ok(self.bool3_at(k)?.unwrap_or(false))
    }

    /// Collapse the batch to predicate labels with SQL semantics
    /// (NULL ⇒ `false`), aligned with the evaluated rows.
    ///
    /// # Errors
    ///
    /// Returns the **first** failing row's error (in row order) — the
    /// same error a row-at-a-time loop would have stopped at.
    pub fn truthy(&self) -> TableResult<Vec<bool>> {
        if let (Data::Bool(v), Errs::None, None) = (&self.data, &self.errs, &self.nulls) {
            return Ok(v.to_vec());
        }
        let mut out = Vec::with_capacity(self.len);
        for k in 0..self.len {
            if let Some(e) = self.err_at(k) {
                return Err(e.clone());
            }
            out.push(self.truthy_at(k)?);
        }
        Ok(out)
    }

    /// Assemble a batch from per-row results (the generic fallback used
    /// by non-vectorizable kernels and subquery aggregation).
    fn from_rows(vals: Vec<TableResult<Value>>) -> Batch<'a> {
        let len = vals.len();
        let dt = vals.iter().find_map(|v| match v {
            Ok(val) => val.data_type(),
            Err(_) => None,
        });
        let mut errs: Option<Vec<Option<TableError>>> = None;
        let mut nulls: Option<Vec<bool>> = None;
        let set_err = |k: usize, e: TableError, errs: &mut Option<Vec<Option<TableError>>>| {
            errs.get_or_insert_with(|| vec![None; len])[k] = Some(e);
        };
        let data = match dt {
            None => {
                // All rows NULL or errors.
                for (k, v) in vals.into_iter().enumerate() {
                    if let Err(e) = v {
                        set_err(k, e, &mut errs);
                    }
                }
                return Batch {
                    len,
                    data: Data::Scalar(Value::Null),
                    nulls: None,
                    errs: errs.map_or(Errs::None, Errs::Rows),
                };
            }
            Some(dt) => {
                let mut bs = Vec::new();
                let mut is = Vec::new();
                let mut fs = Vec::new();
                let mut ss = Vec::new();
                for (k, v) in vals.into_iter().enumerate() {
                    let val = match v {
                        Ok(val) => val,
                        Err(e) => {
                            set_err(k, e, &mut errs);
                            Value::Null // placeholder slot below
                        }
                    };
                    let null = val.is_null();
                    if null {
                        nulls.get_or_insert_with(|| vec![false; len])[k] = true;
                    }
                    match (dt, val) {
                        (DataType::Bool, Value::Bool(b)) => bs.push(b),
                        (DataType::Bool, _) => bs.push(false),
                        (DataType::Int, Value::Int(i)) => is.push(i),
                        (DataType::Int, _) => is.push(0),
                        (DataType::Float, Value::Float(x)) => fs.push(x),
                        (DataType::Float, _) => fs.push(0.0),
                        (DataType::Str, Value::Str(s)) => ss.push(s),
                        (DataType::Str, _) => ss.push(Arc::from("")),
                    }
                }
                match dt {
                    DataType::Bool => Data::Bool(bs.into()),
                    DataType::Int => Data::Int(is.into()),
                    DataType::Float => Data::Float(fs.into()),
                    DataType::Str => Data::Str(ss.into()),
                }
            }
        };
        Batch {
            len,
            data,
            nulls,
            errs: errs.map_or(Errs::None, Errs::Rows),
        }
    }
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Which rows of a table a columnar evaluation covers.
///
/// [`RowSel::Range`] is the chunked-scan fast path: a contiguous row
/// range borrows column storage by sub-slicing (zero-copy), so a
/// per-chunk scan runs the same branch-free kernels as a whole table
/// without a gather. [`RowSel::Ids`] is the general selection
/// vector (duplicates allowed, out-of-range ids become per-row errors).
#[derive(Debug, Clone, Copy)]
pub enum RowSel<'a> {
    /// Every row of the table, in row order.
    All,
    /// The contiguous rows `start..end`, in row order. An empty or
    /// inverted range evaluates zero rows; rows past the end of the
    /// table become per-row errors, like out-of-range ids.
    Range {
        /// First row (inclusive).
        start: usize,
        /// One past the last row.
        end: usize,
    },
    /// Explicit row ids, in the given order.
    Ids(&'a [usize]),
}

impl RowSel<'_> {
    /// Number of rows the selection covers on a table of `table_len`
    /// rows.
    pub fn len(&self, table_len: usize) -> usize {
        match self {
            RowSel::All => table_len,
            RowSel::Range { start, end } => end.saturating_sub(*start),
            RowSel::Ids(ids) => ids.len(),
        }
    }
}

/// Evaluate `expr` over `table` column-at-a-time.
///
/// With `rows = None` the whole table is evaluated in row order; with
/// `rows = Some(sel)` the batch covers exactly the listed row ids, in
/// order (duplicates allowed; out-of-range ids become per-row errors,
/// matching row-wise evaluation). Never fails at the batch level —
/// structural problems (unknown column, …) surface as per-row errors
/// through [`Batch::value_at`] / [`Batch::truthy`], which is what the
/// row-at-a-time loop would have produced for each row.
///
/// Whole-table column references are zero-copy: the returned [`Batch`]
/// borrows column storage from `table` where it can.
pub fn eval_columnar<'a>(expr: &Expr, table: &'a Table, rows: Option<&'a [usize]>) -> Batch<'a> {
    eval_columnar_sel(expr, table, rows.map_or(RowSel::All, RowSel::Ids))
}

/// Evaluate `expr` over the rows selected by `sel` — the generalized
/// entry point behind [`eval_columnar`]. Contiguous ranges
/// ([`RowSel::Range`]) borrow column storage zero-copy, which is what
/// the scan driver ([`crate::partition`]) is built on.
pub fn eval_columnar_sel<'a>(expr: &Expr, table: &'a Table, sel: RowSel<'a>) -> Batch<'a> {
    let ctx = VecCtx {
        table,
        sel,
        len: sel.len(table.len()),
        outer: None,
    };
    eval_vec(expr, &ctx)
}

/// Evaluate `expr` as a predicate over `table`, vectorized: the batch
/// labels with SQL NULL ⇒ `false` semantics.
///
/// Row-for-row (and error-for-error) equivalent to calling
/// [`Expr::eval_bool`](crate::expr::Expr::eval_bool) per row id, but
/// orders of magnitude faster on numeric predicates.
///
/// # Errors
///
/// Returns the first failing row's error, in row order.
pub fn eval_bool_columnar(
    expr: &Expr,
    table: &Table,
    rows: Option<&[usize]>,
) -> TableResult<Vec<bool>> {
    eval_columnar(expr, table, rows).truthy()
}

/// Evaluate a correlated aggregate subquery for one outer row with the
/// generic kernels: one whole-inner-table [`Batch`] per AST node.
/// Result-identical to the interpreted nested loop in `expr.rs`,
/// including error order. This is the path for every shape the bound
/// kernel ([`crate::bound`]) declines, and the re-evaluation target for
/// an object it gives up on (a NaN met by a comparison, an outer row out
/// of range) — which is how the exact value or error is reproduced.
fn subquery_value(sq: &AggSubquery, outer_table: &Table, outer_row: usize) -> TableResult<Value> {
    let inner: &Table = sq.table.as_ref();
    let n = inner.len();
    let ictx = VecCtx {
        table: inner,
        sel: RowSel::All,
        len: n,
        outer: Some((outer_table, outer_row)),
    };
    let filter = sq.filter.as_ref().map(|f| eval_vec(f, &ictx));
    let want_arg = !matches!(sq.func, AggFunc::Count);
    let arg = if want_arg {
        sq.arg.as_ref().map(|a| eval_vec(a, &ictx))
    } else {
        None
    };
    let mut count: i64 = 0;
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for i in 0..n {
        if let Some(fb) = &filter {
            if let Some(e) = fb.err_at(i) {
                return Err(e.clone());
            }
            if !fb.truthy_at(i)? {
                continue;
            }
        }
        count += 1;
        if want_arg {
            let ab = arg.as_ref().ok_or_else(|| TableError::InvalidExpression {
                message: format!("{:?} requires an argument expression", sq.func),
            })?;
            if let Some(e) = ab.err_at(i) {
                return Err(e.clone());
            }
            let v = ab.value_at(i)?.as_f64()?;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
    }
    Ok(match sq.func {
        AggFunc::Count => Value::Int(count),
        AggFunc::Sum => Value::Float(if count == 0 { 0.0 } else { sum }),
        AggFunc::Avg => {
            if count == 0 {
                Value::Null
            } else {
                Value::Float(sum / count as f64)
            }
        }
        AggFunc::Min => {
            if count == 0 {
                Value::Null
            } else {
                Value::Float(min)
            }
        }
        AggFunc::Max => {
            if count == 0 {
                Value::Null
            } else {
                Value::Float(max)
            }
        }
    })
}

/// A `COUNT(*)` subquery bound for a batch of outer rows, with the
/// generic path behind it: the one subquery evaluator, shared by
/// [`eval_vec`]'s `Subquery` and `Cmp` arms.
struct CountScan<'a> {
    sq: &'a AggSubquery,
    outer: &'a Table,
    bound: BoundCount<'a>,
}

impl<'a> CountScan<'a> {
    /// Bind `sq` once for every row of `outer` it will be asked about;
    /// `None` when the bound kernel declines the shape.
    fn bind(sq: &'a AggSubquery, outer: &'a Table) -> Option<Self> {
        let bound = BoundCount::bind(sq, outer)?;
        Some(Self { sq, outer, bound })
    }

    /// The count for `outer_row`, exactly as `subquery_value` gives it.
    fn count(&mut self, outer_row: usize) -> TableResult<Value> {
        match self.bound.count(outer_row, None) {
            Some(c) => Ok(Value::Int(c.count)),
            None => subquery_value(self.sq, self.outer, outer_row),
        }
    }

    /// Truth of `test` on the count for `outer_row`, scanning no further
    /// than the tile that decides it.
    fn test(&mut self, test: &CountTest, outer_row: usize) -> TableResult<bool> {
        let count = match self.bound.count(outer_row, test.stop()) {
            Some(c) => c.count,
            None => subquery_value(self.sq, self.outer, outer_row)?.as_i64()?,
        };
        Ok(test.test(count))
    }
}

/// `(SELECT COUNT(*) …) cmp literal`, in either operand order, as a
/// boolean batch — `None` when the operands are not that shape, the
/// literal is not a number a count always orders against, or the
/// subquery does not bind; the caller then takes the generic kernels.
fn count_threshold<'a>(cmp: CmpOp, l: &Expr, r: &Expr, ctx: &VecCtx<'a>) -> Option<Batch<'a>> {
    let (sq, test) = match (l, r) {
        (Expr::Subquery(sq), Expr::Literal(k)) => (sq, CountTest::new(cmp, k, false)?),
        (Expr::Literal(k), Expr::Subquery(sq)) => (sq, CountTest::new(cmp, k, true)?),
        _ => return None,
    };
    let mut scan = CountScan::bind(sq, ctx.table)?;
    let rows = (0..ctx.len)
        .map(|k| scan.test(&test, ctx.row_at(k)).map(Value::Bool))
        .collect();
    Some(Batch::from_rows(rows))
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// Batch evaluation context: a table, a row selection, and an optional
/// outer row (inside correlated subqueries).
struct VecCtx<'a> {
    table: &'a Table,
    sel: RowSel<'a>,
    len: usize,
    outer: Option<(&'a Table, usize)>,
}

impl VecCtx<'_> {
    #[inline]
    fn row_at(&self, k: usize) -> usize {
        match self.sel {
            RowSel::All => k,
            RowSel::Range { start, .. } => start + k,
            RowSel::Ids(s) => s[k],
        }
    }
}

fn eval_vec<'a>(expr: &Expr, ctx: &VecCtx<'a>) -> Batch<'a> {
    let len = ctx.len;
    match expr {
        Expr::Literal(v) => Batch::scalar(len, v.clone()),
        Expr::Column(name) => match ctx.table.column_by_name(name) {
            Ok(col) => gather(col, ctx),
            Err(e) => Batch::uniform_err(len, e),
        },
        Expr::Outer(name) => match ctx.outer {
            None => Batch::uniform_err(len, TableError::NoOuterRow),
            Some((t, r)) => match t.get_by_name(r, name) {
                Ok(v) => Batch::scalar(len, v),
                Err(e) => Batch::uniform_err(len, e),
            },
        },
        Expr::Unary(op, e) => unary_kernel(*op, eval_vec(e, ctx), len),
        Expr::Binary(op, l, r) => {
            if let BinaryOp::Cmp(c) = op {
                if let Some(b) = count_threshold(*c, l, r, ctx) {
                    return b;
                }
            }
            let lb = eval_vec(l, ctx);
            let rb = eval_vec(r, ctx);
            match op {
                BinaryOp::And => logic_kernel(true, &lb, &rb, len),
                BinaryOp::Or => logic_kernel(false, &lb, &rb, len),
                BinaryOp::Cmp(c) => cmp_kernel(*c, &lb, &rb, len),
                _ => arith_kernel(*op, &lb, &rb, len),
            }
        }
        Expr::Call(f, args) => call_kernel(*f, args, ctx),
        Expr::Subquery(sq) => {
            let mut scan = CountScan::bind(sq, ctx.table);
            let rows = (0..len)
                .map(|k| match &mut scan {
                    Some(scan) => scan.count(ctx.row_at(k)),
                    None => subquery_value(sq, ctx.table, ctx.row_at(k)),
                })
                .collect();
            Batch::from_rows(rows)
        }
    }
}

/// Gather a storage column into a batch (zero-copy borrow for full
/// scans and in-bounds contiguous ranges, indexed gather for selection
/// vectors; out-of-range ids become per-row errors, as row-wise
/// `Column::get` would have produced).
fn gather<'a>(col: &'a Column, ctx: &VecCtx<'a>) -> Batch<'a> {
    let len = ctx.len;
    match ctx.sel {
        RowSel::All => {
            let data = match col {
                Column::Bool(v) => Data::Bool(Cow::Borrowed(v.as_slice())),
                Column::Int(v) => Data::Int(Cow::Borrowed(v.as_slice())),
                Column::Float(v) => Data::Float(Cow::Borrowed(v.as_slice())),
                Column::Str(v) => Data::Str(Cow::Borrowed(v.as_slice())),
            };
            Batch {
                len,
                data,
                nulls: None,
                errs: Errs::None,
            }
        }
        RowSel::Range { start, end } if start <= end && end <= col.len() => {
            // In-bounds contiguous range: borrow the sub-slice directly
            // — the zero-copy partition fast path.
            let data = match col {
                Column::Bool(v) => Data::Bool(Cow::Borrowed(&v[start..end])),
                Column::Int(v) => Data::Int(Cow::Borrowed(&v[start..end])),
                Column::Float(v) => Data::Float(Cow::Borrowed(&v[start..end])),
                Column::Str(v) => Data::Str(Cow::Borrowed(&v[start..end])),
            };
            Batch {
                len,
                data,
                nulls: None,
                errs: Errs::None,
            }
        }
        RowSel::Range { start, end } => {
            // Range extends past the column: per-row errors for the
            // out-of-range tail, exactly like an id gather would give.
            let ids: Vec<usize> = (start..end.max(start)).collect();
            let ctx2 = VecCtx {
                table: ctx.table,
                sel: RowSel::Ids(&ids),
                len: ids.len(),
                outer: ctx.outer,
            };
            let b = gather(col, &ctx2);
            // Re-own any borrowed data (`ids` dies with this frame).
            Batch {
                len: b.len,
                data: match b.data {
                    Data::Scalar(v) => Data::Scalar(v),
                    Data::Bool(v) => Data::Bool(Cow::Owned(v.into_owned())),
                    Data::Int(v) => Data::Int(Cow::Owned(v.into_owned())),
                    Data::Float(v) => Data::Float(Cow::Owned(v.into_owned())),
                    Data::Str(v) => Data::Str(Cow::Owned(v.into_owned())),
                },
                nulls: b.nulls,
                errs: b.errs,
            }
        }
        RowSel::Ids(sel) => {
            fn sel_gather<T: Clone>(v: &[T], sel: &[usize], placeholder: T) -> (Vec<T>, Errs) {
                let mut out = Vec::with_capacity(sel.len());
                let mut errs: Option<Vec<Option<TableError>>> = None;
                for (k, &i) in sel.iter().enumerate() {
                    match v.get(i) {
                        Some(x) => out.push(x.clone()),
                        None => {
                            out.push(placeholder.clone());
                            errs.get_or_insert_with(|| vec![None; sel.len()])[k] =
                                Some(TableError::RowIndexOutOfRange {
                                    index: i,
                                    len: v.len(),
                                });
                        }
                    }
                }
                (out, errs.map_or(Errs::None, Errs::Rows))
            }
            let (data, errs) = match col {
                Column::Bool(v) => {
                    let (d, e) = sel_gather(v, sel, false);
                    (Data::Bool(d.into()), e)
                }
                Column::Int(v) => {
                    let (d, e) = sel_gather(v, sel, 0);
                    (Data::Int(d.into()), e)
                }
                Column::Float(v) => {
                    let (d, e) = sel_gather(v, sel, 0.0);
                    (Data::Float(d.into()), e)
                }
                Column::Str(v) => {
                    let (d, e) = sel_gather(v, sel, Arc::from(""));
                    (Data::Str(d.into()), e)
                }
            };
            Batch {
                len,
                data,
                nulls: None,
                errs,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mask plumbing
// ---------------------------------------------------------------------

/// Per-row error union; the left operand's error wins (row-wise
/// evaluation surfaces the left subexpression's error first).
fn merge_errs(a: &Errs, b: &Errs, len: usize) -> Errs {
    match (a, b) {
        (Errs::Uniform(e), _) => Errs::Uniform(e.clone()),
        (Errs::None, other) => other.clone(),
        (other, Errs::None) => other.clone(),
        (Errs::Rows(av), Errs::Uniform(e)) => Errs::Rows(
            av.iter()
                .map(|x| x.clone().or_else(|| Some(e.clone())))
                .collect(),
        ),
        (Errs::Rows(av), Errs::Rows(bv)) => {
            debug_assert_eq!(av.len(), len);
            Errs::Rows(
                av.iter()
                    .zip(bv)
                    .map(|(x, y)| x.clone().or_else(|| y.clone()))
                    .collect(),
            )
        }
    }
}

/// Either-side-NULL mask (rows with errors are irrelevant — errors are
/// checked before NULLs everywhere).
fn merge_nulls(l: &Batch<'_>, r: &Batch<'_>) -> Option<Vec<bool>> {
    match (l.nulls.as_ref(), r.nulls.as_ref()) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(&x, &y)| x || y).collect()),
    }
}

fn set_row_err(errs: &mut Errs, k: usize, len: usize, e: TableError) {
    if let Errs::None = errs {
        *errs = Errs::Rows(vec![None; len]);
    }
    if let Errs::Rows(v) = errs {
        if v[k].is_none() {
            v[k] = Some(e);
        }
    }
}

#[inline]
fn row_has_problem(errs: &Errs, nulls: &Option<Vec<bool>>, k: usize) -> bool {
    let err = match errs {
        Errs::None => false,
        Errs::Uniform(_) => true,
        Errs::Rows(v) => v[k].is_some(),
    };
    err || nulls.as_ref().is_some_and(|m| m[k])
}

// ---------------------------------------------------------------------
// Numeric views
// ---------------------------------------------------------------------

/// A per-row `f64` view over numeric batch data (ints and bools coerce
/// exactly like [`Value::as_f64`]).
enum NumView<'a> {
    Scalar(f64),
    Floats(&'a [f64]),
    Ints(&'a [i64]),
    Bools(&'a [bool]),
}

impl NumView<'_> {
    #[inline]
    fn get(&self, k: usize) -> f64 {
        match self {
            NumView::Scalar(x) => *x,
            NumView::Floats(v) => v[k],
            NumView::Ints(v) => v[k] as f64,
            NumView::Bools(v) => {
                if v[k] {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

fn num_view<'b>(b: &'b Batch<'_>) -> Option<NumView<'b>> {
    match &b.data {
        Data::Float(v) => Some(NumView::Floats(v)),
        Data::Int(v) => Some(NumView::Ints(v)),
        Data::Bool(v) => Some(NumView::Bools(v)),
        Data::Scalar(v) => v.as_f64().ok().map(NumView::Scalar),
        Data::Str(_) => None,
    }
}

/// A per-row `i64` view (only for batches whose dtype is `Int`).
enum IntView<'a> {
    Scalar(i64),
    Slice(&'a [i64]),
}

impl IntView<'_> {
    #[inline]
    fn get(&self, k: usize) -> i64 {
        match self {
            IntView::Scalar(x) => *x,
            IntView::Slice(v) => v[k],
        }
    }
}

fn int_view<'b>(b: &'b Batch<'_>) -> Option<IntView<'b>> {
    match &b.data {
        Data::Int(v) => Some(IntView::Slice(v)),
        Data::Scalar(Value::Int(i)) => Some(IntView::Scalar(*i)),
        _ => None,
    }
}

fn is_all_null(b: &Batch<'_>) -> bool {
    matches!(&b.data, Data::Scalar(Value::Null))
}

fn both_scalar_no_err(l: &Batch<'_>, r: &Batch<'_>) -> Option<(Value, Value)> {
    if l.has_errs() || r.has_errs() {
        return None;
    }
    match (&l.data, &r.data) {
        (Data::Scalar(a), Data::Scalar(b)) => Some((a.clone(), b.clone())),
        _ => None,
    }
}

fn scalar_result<'a>(len: usize, res: TableResult<Value>) -> Batch<'a> {
    match res {
        Ok(v) => Batch::scalar(len, v),
        Err(e) => Batch::uniform_err(len, e),
    }
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

/// `+ - * /` over two batches.
fn arith_kernel<'a>(op: BinaryOp, l: &Batch<'a>, r: &Batch<'a>, len: usize) -> Batch<'a> {
    // Constant folding: scalar ⊙ scalar computes once and broadcasts.
    if let Some((lv, rv)) = both_scalar_no_err(l, r) {
        return scalar_result(len, apply_binary(op, lv, rv));
    }
    let errs = merge_errs(&l.errs, &r.errs, len);
    if let Errs::Uniform(e) = errs {
        return Batch::uniform_err(len, e);
    }
    // NULL ⊙ anything = NULL (errors still win per row).
    if is_all_null(l) || is_all_null(r) {
        return Batch::all_null(len, errs);
    }
    // Int ⊙ Int stays integer with checked arithmetic (except Div).
    if !matches!(op, BinaryOp::Div) {
        if let (Some(a), Some(b)) = (int_view(l), int_view(r)) {
            return int_arith(op, &a, &b, l, r, len, errs);
        }
    }
    // General numeric path in f64.
    match (num_view(l), num_view(r)) {
        (Some(a), Some(b)) => float_arith(op, &a, &b, l, r, len, errs),
        _ => slow_binary(op, l, r, len),
    }
}

fn int_arith<'a>(
    op: BinaryOp,
    a: &IntView<'_>,
    b: &IntView<'_>,
    l: &Batch<'a>,
    r: &Batch<'a>,
    len: usize,
    mut errs: Errs,
) -> Batch<'a> {
    let nulls = merge_nulls(l, r);
    let mut data = vec![0i64; len];
    for (k, slot) in data.iter_mut().enumerate() {
        if row_has_problem(&errs, &nulls, k) {
            continue;
        }
        let (x, y) = (a.get(k), b.get(k));
        let res = match op {
            BinaryOp::Add => x.checked_add(y),
            BinaryOp::Sub => x.checked_sub(y),
            BinaryOp::Mul => x.checked_mul(y),
            _ => unreachable!("int_arith only handles Add/Sub/Mul"),
        };
        match res {
            Some(v) => *slot = v,
            None => set_row_err(
                &mut errs,
                k,
                len,
                TableError::Arithmetic {
                    message: "integer overflow",
                },
            ),
        }
    }
    Batch {
        len,
        data: Data::Int(data.into()),
        nulls,
        errs,
    }
}

fn float_arith<'a>(
    op: BinaryOp,
    a: &NumView<'_>,
    b: &NumView<'_>,
    l: &Batch<'a>,
    r: &Batch<'a>,
    len: usize,
    errs: Errs,
) -> Batch<'a> {
    let mut nulls = merge_nulls(l, r);
    let mut data = Vec::with_capacity(len);
    match op {
        BinaryOp::Add => data.extend((0..len).map(|k| a.get(k) + b.get(k))),
        BinaryOp::Sub => data.extend((0..len).map(|k| a.get(k) - b.get(k))),
        BinaryOp::Mul => data.extend((0..len).map(|k| a.get(k) * b.get(k))),
        BinaryOp::Div => {
            // SQL: x / 0 is NULL. Quotients are computed branch-free
            // (rows divided by zero hold a masked placeholder).
            data.extend((0..len).map(|k| a.get(k) / b.get(k)));
            let zero_mask = |k: usize| b.get(k) == 0.0;
            if (0..len).any(zero_mask) {
                let m = nulls.get_or_insert_with(|| vec![false; len]);
                for (k, slot) in m.iter_mut().enumerate() {
                    *slot = *slot || zero_mask(k);
                }
            }
        }
        _ => unreachable!("float_arith only handles Add/Sub/Mul/Div"),
    }
    Batch {
        len,
        data: Data::Float(data.into()),
        nulls,
        errs,
    }
}

/// Comparison over two batches.
fn cmp_kernel<'a>(cmp: CmpOp, l: &Batch<'a>, r: &Batch<'a>, len: usize) -> Batch<'a> {
    if let Some((lv, rv)) = both_scalar_no_err(l, r) {
        return scalar_result(len, apply_binary(BinaryOp::Cmp(cmp), lv, rv));
    }
    let errs = merge_errs(&l.errs, &r.errs, len);
    if let Errs::Uniform(e) = errs {
        return Batch::uniform_err(len, e);
    }
    if is_all_null(l) || is_all_null(r) {
        return Batch::all_null(len, errs);
    }
    let nulls = merge_nulls(l, r);
    let numeric = |d: Option<DataType>| matches!(d, Some(DataType::Int | DataType::Float));
    match (l.dtype(), r.dtype()) {
        // Int vs Int: branch-free in i64 (no NaN possible).
        (Some(DataType::Int), Some(DataType::Int)) => {
            let (a, b) = (int_view(l).unwrap(), int_view(r).unwrap());
            let data: Vec<bool> = match cmp {
                CmpOp::Eq => (0..len).map(|k| a.get(k) == b.get(k)).collect(),
                CmpOp::Ne => (0..len).map(|k| a.get(k) != b.get(k)).collect(),
                CmpOp::Lt => (0..len).map(|k| a.get(k) < b.get(k)).collect(),
                CmpOp::Le => (0..len).map(|k| a.get(k) <= b.get(k)).collect(),
                CmpOp::Gt => (0..len).map(|k| a.get(k) > b.get(k)).collect(),
                CmpOp::Ge => (0..len).map(|k| a.get(k) >= b.get(k)).collect(),
            };
            Batch {
                len,
                data: Data::Bool(data.into()),
                nulls,
                errs,
            }
        }
        // Numeric mix: branch-free in f64, then a repair pass for rows
        // whose comparison hit NaN (row-wise: a type-mismatch error).
        (lt, rt) if numeric(lt) && numeric(rt) => {
            let (a, b) = (num_view(l).unwrap(), num_view(r).unwrap());
            let mut saw_nan = false;
            let data: Vec<bool> = (0..len)
                .map(|k| {
                    let (x, y) = (a.get(k), b.get(k));
                    saw_nan |= x.is_nan() || y.is_nan();
                    match cmp {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    }
                })
                .collect();
            let mut errs = errs;
            if saw_nan {
                for k in 0..len {
                    if row_has_problem(&errs, &nulls, k) {
                        continue;
                    }
                    if a.get(k).is_nan() || b.get(k).is_nan() {
                        let (lv, rv) = (l.value_at(k), r.value_at(k));
                        if let (Ok(lv), Ok(rv)) = (lv, rv) {
                            set_row_err(
                                &mut errs,
                                k,
                                len,
                                TableError::TypeMismatch {
                                    expected: "comparable values",
                                    found: format!("{lv:?} vs {rv:?}"),
                                },
                            );
                        }
                    }
                }
            }
            Batch {
                len,
                data: Data::Bool(data.into()),
                nulls,
                errs,
            }
        }
        (Some(DataType::Bool), Some(DataType::Bool)) => {
            let get = |b: &Batch<'_>, k: usize| -> bool {
                match &b.data {
                    Data::Bool(v) => v[k],
                    Data::Scalar(Value::Bool(x)) => *x,
                    _ => unreachable!("dtype checked"),
                }
            };
            let data: Vec<bool> = (0..len)
                .map(|k| cmp.test(get(l, k).cmp(&get(r, k))))
                .collect();
            Batch {
                len,
                data: Data::Bool(data.into()),
                nulls,
                errs,
            }
        }
        (Some(DataType::Str), Some(DataType::Str)) => {
            fn get<'b>(b: &'b Batch<'_>, k: usize) -> &'b str {
                match &b.data {
                    Data::Str(v) => &v[k],
                    Data::Scalar(Value::Str(s)) => s,
                    _ => unreachable!("dtype checked"),
                }
            }
            let data: Vec<bool> = (0..len)
                .map(|k| cmp.test(get(l, k).cmp(get(r, k))))
                .collect();
            Batch {
                len,
                data: Data::Bool(data.into()),
                nulls,
                errs,
            }
        }
        // Incomparable type pairs: every non-NULL row errors with the
        // exact row-wise message (built from the materialized values).
        _ => slow_binary(BinaryOp::Cmp(cmp), l, r, len),
    }
}

/// A `(value, is_null)` view over boolean-or-NULL batch data, feeding
/// the masked Kleene kernel.
enum BoolView<'b> {
    Scalar(bool),
    Slice(&'b [bool]),
    AllNull,
}

/// View `b` as per-row `(bool, null)` pairs if every row is boolean or
/// NULL (i.e. Kleene logic cannot raise a type error on it).
fn bool_view<'b>(b: &'b Batch<'_>) -> Option<(BoolView<'b>, Option<&'b [bool]>)> {
    let nulls = b.nulls.as_deref();
    match &b.data {
        Data::Bool(v) => Some((BoolView::Slice(v), nulls)),
        Data::Scalar(Value::Bool(x)) => Some((BoolView::Scalar(*x), nulls)),
        Data::Scalar(Value::Null) => Some((BoolView::AllNull, None)),
        _ => None,
    }
}

impl BoolView<'_> {
    /// `(value, is_null)` at `k`; the value is a placeholder when null.
    #[inline]
    fn get(&self, k: usize, nulls: Option<&[bool]>) -> (bool, bool) {
        match self {
            BoolView::Scalar(x) => (*x, nulls.is_some_and(|m| m[k])),
            BoolView::Slice(v) => (v[k], nulls.is_some_and(|m| m[k])),
            BoolView::AllNull => (false, true),
        }
    }
}

/// Kleene `AND`/`OR` as mask combination, reproducing row-wise
/// short-circuit shadowing: where the left operand decides the result
/// (`FALSE` for AND, `TRUE` for OR), right-side errors are masked out.
fn logic_kernel<'a>(is_and: bool, l: &Batch<'a>, r: &Batch<'a>, len: usize) -> Batch<'a> {
    // Constant folding: scalar ⊙ scalar computes once and broadcasts,
    // with row-wise short-circuit semantics.
    if let Some((lv, rv)) = both_scalar_no_err(l, r) {
        if matches!(&lv, Value::Bool(x) if *x != is_and) {
            return Batch::scalar(len, Value::Bool(!is_and));
        }
        return scalar_result(
            len,
            if is_and {
                kleene_and(lv, rv)
            } else {
                kleene_or(lv, rv)
            },
        );
    }
    // Mask path: error-free boolean-or-NULL operands combine
    // branch-free — value and NULL masks together encode the full
    // Kleene truth table (this covers NULLs flowing out of
    // div-by-zero comparisons, the common masked case).
    if !l.has_errs() && !r.has_errs() {
        if let (Some((av, an)), Some((bv, bn))) = (bool_view(l), bool_view(r)) {
            if an.is_none()
                && bn.is_none()
                && !matches!(av, BoolView::AllNull)
                && !matches!(bv, BoolView::AllNull)
            {
                // No NULLs anywhere: plain boolean combination.
                let data: Vec<bool> = (0..len)
                    .map(|k| {
                        let (x, y) = (av.get(k, None).0, bv.get(k, None).0);
                        if is_and {
                            x && y
                        } else {
                            x || y
                        }
                    })
                    .collect();
                return Batch {
                    len,
                    data: Data::Bool(data.into()),
                    nulls: None,
                    errs: Errs::None,
                };
            }
            let mut data = Vec::with_capacity(len);
            let mut nulls = Vec::with_capacity(len);
            for k in 0..len {
                let (x, xn) = av.get(k, an);
                let (y, yn) = bv.get(k, bn);
                // "Definitely true" / "definitely false" per side.
                let (tx, fx) = (x && !xn, !x && !xn);
                let (ty, fy) = (y && !yn, !y && !yn);
                let (t, f) = if is_and {
                    (tx && ty, fx || fy)
                } else {
                    (tx || ty, fx && fy)
                };
                data.push(t);
                nulls.push(!(t || f));
            }
            return Batch {
                len,
                data: Data::Bool(data.into()),
                nulls: Some(nulls),
                errs: Errs::None,
            };
        }
    }
    // Per-row fallback: errors present or non-boolean operands.
    let short = !is_and; // AND short-circuits on FALSE, OR on TRUE.
    let rows = (0..len)
        .map(|k| -> TableResult<Value> {
            if let Some(e) = l.err_at(k) {
                return Err(e.clone());
            }
            if l.bool_raw_at(k) == Some(short) {
                return Ok(Value::Bool(short));
            }
            if let Some(e) = r.err_at(k) {
                return Err(e.clone());
            }
            let lv = l.value_at(k)?;
            let rv = r.value_at(k)?;
            if is_and {
                kleene_and(lv, rv)
            } else {
                kleene_or(lv, rv)
            }
        })
        .collect();
    Batch::from_rows(rows)
}

/// Generic per-row fallback sharing `apply_binary` with the row-wise
/// evaluator (string arithmetic, incomparable type pairs, …).
fn slow_binary<'a>(op: BinaryOp, l: &Batch<'a>, r: &Batch<'a>, len: usize) -> Batch<'a> {
    let rows = (0..len)
        .map(|k| -> TableResult<Value> {
            if let Some(e) = l.err_at(k) {
                return Err(e.clone());
            }
            if let Some(e) = r.err_at(k) {
                return Err(e.clone());
            }
            apply_binary(op, l.value_at(k)?, r.value_at(k)?)
        })
        .collect();
    Batch::from_rows(rows)
}

fn unary_kernel<'a>(op: UnaryOp, b: Batch<'a>, len: usize) -> Batch<'a> {
    match (op, &b.data) {
        // NOT over a boolean mask: flip in place; NULL and error masks
        // carry through unchanged (NOT NULL = NULL).
        (UnaryOp::Not, Data::Bool(v)) => Batch {
            len,
            data: Data::Bool(v.iter().map(|&x| !x).collect::<Vec<_>>().into()),
            nulls: b.nulls,
            errs: b.errs,
        },
        // Negation over floats: branch-free map under the masks.
        (UnaryOp::Neg, Data::Float(v)) => Batch {
            len,
            data: Data::Float(v.iter().map(|&x| -x).collect::<Vec<_>>().into()),
            nulls: b.nulls,
            errs: b.errs,
        },
        (UnaryOp::Neg, Data::Int(v)) => {
            let mut errs = b.errs.clone();
            let mut data = vec![0i64; len];
            for (k, slot) in data.iter_mut().enumerate() {
                if row_has_problem(&errs, &b.nulls, k) {
                    continue;
                }
                match v[k].checked_neg() {
                    Some(x) => *slot = x,
                    None => set_row_err(
                        &mut errs,
                        k,
                        len,
                        TableError::Arithmetic {
                            message: "integer overflow",
                        },
                    ),
                }
            }
            Batch {
                len,
                data: Data::Int(data.into()),
                nulls: b.nulls,
                errs,
            }
        }
        _ => {
            let rows = (0..len)
                .map(|k| -> TableResult<Value> {
                    if let Some(e) = b.err_at(k) {
                        return Err(e.clone());
                    }
                    eval_unary(op, b.value_at(k)?)
                })
                .collect();
            Batch::from_rows(rows)
        }
    }
}

fn call_kernel<'a>(f: Func, args: &[Expr], ctx: &VecCtx<'a>) -> Batch<'a> {
    let len = ctx.len;
    let arity = match f {
        Func::Sqrt | Func::Abs => 1,
        Func::Power => 2,
    };
    if args.len() != arity {
        return Batch::uniform_err(
            len,
            TableError::InvalidExpression {
                message: format!("{f:?} expects {arity} argument(s), got {}", args.len()),
            },
        );
    }
    let a = eval_vec(&args[0], ctx);
    match f {
        Func::Sqrt | Func::Abs => {
            if is_all_null(&a) {
                return Batch::all_null(len, a.errs);
            }
            // ABS over ints needs checked arithmetic (i64::MIN).
            if let (Func::Abs, Data::Int(v)) = (f, &a.data) {
                let mut errs = a.errs.clone();
                let mut data = vec![0i64; len];
                for (k, slot) in data.iter_mut().enumerate() {
                    if row_has_problem(&errs, &a.nulls, k) {
                        continue;
                    }
                    match v[k].checked_abs() {
                        Some(x) => *slot = x,
                        None => set_row_err(
                            &mut errs,
                            k,
                            len,
                            TableError::Arithmetic {
                                message: "integer overflow",
                            },
                        ),
                    }
                }
                return Batch {
                    len,
                    data: Data::Int(data.into()),
                    nulls: a.nulls,
                    errs,
                };
            }
            // Branch-free f64 map for the numeric non-Int-ABS cases.
            if let Some(view) = num_view(&a) {
                // ABS on a scalar Int would change type; route through
                // the slow path (scalars are cheap anyway).
                let scalar_int_abs =
                    matches!(f, Func::Abs) && matches!(&a.data, Data::Scalar(Value::Int(_)));
                if !scalar_int_abs {
                    let data: Vec<f64> = match f {
                        Func::Sqrt => (0..len).map(|k| view.get(k).sqrt()).collect(),
                        Func::Abs => (0..len).map(|k| view.get(k).abs()).collect(),
                        Func::Power => unreachable!(),
                    };
                    return Batch {
                        len,
                        data: Data::Float(data.into()),
                        nulls: a.nulls,
                        errs: a.errs,
                    };
                }
            }
            // Strings / scalar edge cases: per-row, row-wise semantics.
            let rows = (0..len)
                .map(|k| -> TableResult<Value> {
                    if let Some(e) = a.err_at(k) {
                        return Err(e.clone());
                    }
                    let v = a.value_at(k)?;
                    if v.is_null() {
                        return Ok(Value::Null);
                    }
                    match f {
                        Func::Sqrt => Ok(Value::Float(v.as_f64()?.sqrt())),
                        Func::Abs => match v {
                            Value::Int(i) => {
                                i.checked_abs()
                                    .map(Value::Int)
                                    .ok_or(TableError::Arithmetic {
                                        message: "integer overflow",
                                    })
                            }
                            other => Ok(Value::Float(other.as_f64()?.abs())),
                        },
                        Func::Power => unreachable!(),
                    }
                })
                .collect();
            Batch::from_rows(rows)
        }
        Func::Power => {
            // Row-wise POWER returns NULL for a NULL base *without
            // evaluating the exponent*: a NULL base shadows exponent
            // errors entirely.
            if is_all_null(&a) {
                return Batch::all_null(len, a.errs);
            }
            let b = eval_vec(&args[1], ctx);
            if let (Some(av), Some(bv)) = (num_view(&a), num_view(&b)) {
                if !b.has_errs() {
                    let data: Vec<f64> = (0..len).map(|k| av.get(k).powf(bv.get(k))).collect();
                    return Batch {
                        len,
                        data: Data::Float(data.into()),
                        nulls: merge_nulls(&a, &b),
                        errs: a.errs,
                    };
                }
            }
            let rows = (0..len)
                .map(|k| -> TableResult<Value> {
                    if let Some(e) = a.err_at(k) {
                        return Err(e.clone());
                    }
                    let av = a.value_at(k)?;
                    if av.is_null() {
                        return Ok(Value::Null);
                    }
                    if let Some(e) = b.err_at(k) {
                        return Err(e.clone());
                    }
                    let bv = b.value_at(k)?;
                    if bv.is_null() {
                        return Ok(Value::Null);
                    }
                    Ok(Value::Float(av.as_f64()?.powf(bv.as_f64()?)))
                })
                .collect();
            Batch::from_rows(rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RowCtx;
    use crate::schema::Schema;
    use crate::table::{table_of_floats, TableBuilder};

    fn t() -> Table {
        table_of_floats(&[("x", &[1.0, 2.0, 3.0, 4.0]), ("y", &[0.0, 2.0, 0.0, 8.0])]).unwrap()
    }

    /// Structural equality for comparing the two engines (`Value`'s own
    /// `PartialEq` is SQL equality, where NULL ≠ NULL).
    fn same(a: &TableResult<Value>, b: &TableResult<Value>) -> bool {
        match (a, b) {
            (Ok(Value::Null), Ok(Value::Null)) => true,
            (Ok(Value::Float(x)), Ok(Value::Float(y))) => (x.is_nan() && y.is_nan()) || x == y,
            (Ok(x), Ok(y)) => format!("{x:?}") == format!("{y:?}"),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    fn assert_agree(e: &Expr, table: &Table) {
        let batch = eval_columnar(e, table, None);
        assert_eq!(batch.len(), table.len());
        for row in 0..table.len() {
            let rw = e.eval(RowCtx::top(table, row));
            let vc = batch.value_at(row);
            assert!(
                same(&rw, &vc),
                "row {row}: `{e}` row-wise {rw:?} vs vectorized {vc:?}"
            );
        }
    }

    #[test]
    fn comparison_masks_match_row_wise() {
        let table = t();
        for e in [
            Expr::col("x").gt(Expr::lit(2.0)),
            Expr::col("x").le(Expr::col("y")),
            Expr::col("x").eq(Expr::lit(3.0)),
            Expr::col("x").ne(Expr::col("y")),
        ] {
            assert_agree(&e, &table);
        }
    }

    #[test]
    fn arithmetic_matches_row_wise() {
        let table = t();
        for e in [
            Expr::col("x").add(Expr::col("y")).mul(Expr::lit(2.0)),
            Expr::col("x").sub(Expr::lit(1.5)),
            Expr::col("x").div(Expr::col("y")), // y holds zeros → NULL rows
            Expr::col("x").neg().abs().sqrt(),
            Expr::col("x").power(Expr::lit(2.0)),
        ] {
            assert_agree(&e, &table);
        }
    }

    #[test]
    fn div_by_zero_null_flows_through_logic_masks() {
        // (x / y > 1) AND (x > 0): rows where y = 0 have a NULL left
        // side; NULL AND TRUE = NULL → eval_bool false.
        let table = t();
        let e = Expr::col("x")
            .div(Expr::col("y"))
            .gt(Expr::lit(1.0))
            .and(Expr::col("x").gt(Expr::lit(0.0)));
        assert_agree(&e, &table);
        let mask = eval_bool_columnar(&e, &table, None).unwrap();
        let row_wise: Vec<bool> = (0..table.len())
            .map(|i| e.eval_bool(RowCtx::top(&table, i)).unwrap())
            .collect();
        assert_eq!(mask, row_wise);
        assert_eq!(mask, vec![false, false, false, false]);
    }

    #[test]
    fn and_false_shadows_right_errors() {
        // Row-wise AND short-circuits on FALSE and never sees the bad
        // column; the vectorized kernel must mask that error too.
        let table = t();
        let e = Expr::col("x")
            .gt(Expr::lit(100.0))
            .and(Expr::col("nope").gt(Expr::lit(0.0)));
        assert_agree(&e, &table);
        assert_eq!(
            eval_bool_columnar(&e, &table, None).unwrap(),
            vec![false; 4]
        );
        // OR TRUE shadows symmetrically.
        let e = Expr::col("x")
            .gt(Expr::lit(0.0))
            .or(Expr::col("nope").gt(Expr::lit(0.0)));
        assert_eq!(eval_bool_columnar(&e, &table, None).unwrap(), vec![true; 4]);
        // Without the shadow, the error surfaces (first row in order).
        let e = Expr::col("x")
            .gt(Expr::lit(0.0))
            .and(Expr::col("nope").gt(Expr::lit(0.0)));
        assert!(matches!(
            eval_bool_columnar(&e, &table, None),
            Err(TableError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn selection_vector_gathers_and_reports_oob() {
        let table = t();
        let e = Expr::col("x").ge(Expr::lit(2.0));
        assert_eq!(
            eval_bool_columnar(&e, &table, Some(&[3, 0, 3, 1])).unwrap(),
            vec![true, false, true, true]
        );
        let batch = eval_columnar(&e, &table, Some(&[1, 99]));
        assert!(batch.value_at(0).is_ok());
        assert!(matches!(
            batch.value_at(1),
            Err(TableError::RowIndexOutOfRange { index: 99, .. })
        ));
        // Empty selections never touch the table.
        assert!(eval_bool_columnar(&e, &table, Some(&[]))
            .unwrap()
            .is_empty());
        // … even for structurally broken expressions (matches the
        // row-wise loop, which would iterate zero rows).
        let bad = Expr::col("nope").gt(Expr::lit(0.0));
        assert!(eval_bool_columnar(&bad, &table, Some(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn integer_kernels_are_checked() {
        let mut b = TableBuilder::new(Schema::from_pairs(&[("i", DataType::Int)]).unwrap());
        for v in [1i64, i64::MAX, i64::MIN, -7] {
            b.push_row(vec![Value::Int(v)]).unwrap();
        }
        let table = b.finish().unwrap();
        for e in [
            Expr::col("i").add(Expr::lit(1i64)),
            Expr::col("i").mul(Expr::lit(2i64)),
            Expr::col("i").neg(),
            Expr::col("i").abs(),
            Expr::col("i").sub(Expr::lit(i64::MAX)),
        ] {
            assert_agree(&e, &table);
        }
        // Overflow is a per-row error, not a batch failure.
        let batch = eval_columnar(&Expr::col("i").add(Expr::lit(1i64)), &table, None);
        assert!(batch.value_at(0).is_ok());
        assert!(matches!(
            batch.value_at(1),
            Err(TableError::Arithmetic { .. })
        ));
        assert!(batch.value_at(2).is_ok());
    }

    #[test]
    fn mixed_and_string_types_match_row_wise() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("b", DataType::Bool),
            ("s", DataType::Str),
        ])
        .unwrap();
        let mut builder = TableBuilder::new(schema);
        for (i, f, b, s) in [
            (1i64, 0.5, true, "apple"),
            (2, 2.0, false, "banana"),
            (3, -1.0, true, "apple"),
        ] {
            builder
                .push_row(vec![
                    Value::Int(i),
                    Value::Float(f),
                    Value::Bool(b),
                    Value::str(s),
                ])
                .unwrap();
        }
        let table = builder.finish().unwrap();
        for e in [
            Expr::col("i").lt(Expr::col("f")),     // int vs float
            Expr::col("s").eq(Expr::lit("apple")), // string compare
            Expr::col("s").lt(Expr::lit("b")),     // string ordering
            Expr::col("b").eq(Expr::lit(true)),    // bool compare
            Expr::col("b").and(Expr::col("i").gt(Expr::lit(1i64))),
            Expr::col("s").gt(Expr::col("i")), // incomparable → error
            Expr::col("s").add(Expr::lit(1.0)), // string arithmetic → error
            Expr::col("b").add(Expr::col("f")), // bool coerces in arithmetic
            Expr::col("i").not(),              // NOT non-bool → error
        ] {
            assert_agree(&e, &table);
        }
    }

    #[test]
    fn null_literals_propagate() {
        let table = t();
        let null = || Expr::Literal(Value::Null);
        for e in [
            null().add(Expr::col("x")),
            null().and(Expr::col("x").gt(Expr::lit(2.0))),
            null().or(Expr::col("x").gt(Expr::lit(2.0))),
            null().not(),
            null().lt(Expr::col("x")),
            null().power(Expr::col("nope")), // NULL base shadows bad exponent
            Expr::col("x").power(null()),
            null().sqrt(),
        ] {
            assert_agree(&e, &table);
        }
    }

    #[test]
    fn nan_comparison_errors_per_row() {
        let table = table_of_floats(&[("x", &[1.0, f64::NAN, 3.0])]).unwrap();
        let e = Expr::col("x").lt(Expr::lit(2.0));
        assert_agree(&e, &table);
        let batch = eval_columnar(&e, &table, None);
        assert_eq!(batch.value_at(0).unwrap(), Value::Bool(true));
        assert!(matches!(
            batch.value_at(1),
            Err(TableError::TypeMismatch { .. })
        ));
        assert_eq!(batch.value_at(2).unwrap(), Value::Bool(false));
    }

    #[test]
    fn subquery_vectorized_inner_scan_agrees() {
        let table = Arc::new(t());
        // COUNT(*) WHERE x >= o.x — classic correlated shape.
        let e = Expr::count_where(Arc::clone(&table), Expr::col("x").ge(Expr::outer("x")))
            .le(Expr::lit(2i64));
        assert_agree(&e, &table);
        // SUM / AVG / MIN / MAX with a filter referencing the outer row.
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let e = Expr::subquery(
                Arc::clone(&table),
                Some(Expr::col("x").gt(Expr::outer("x"))),
                func,
                Some(Expr::col("y")),
            );
            assert_agree(&e, &table);
        }
        // Missing argument errors only when a row passes the filter.
        let never = Expr::subquery(
            Arc::clone(&table),
            Some(Expr::lit(false)),
            AggFunc::Sum,
            None,
        );
        assert_agree(&never, &table);
        let always = Expr::subquery(Arc::clone(&table), None, AggFunc::Sum, None);
        assert_agree(&always, &table);
    }

    #[test]
    fn outer_reference_without_binding_is_uniform_error() {
        let table = t();
        let e = Expr::outer("x").gt(Expr::lit(0.0));
        let batch = eval_columnar(&e, &table, None);
        for row in 0..table.len() {
            assert!(matches!(batch.value_at(row), Err(TableError::NoOuterRow)));
        }
        assert_agree(&e, &table);
    }

    #[test]
    fn truthy_surfaces_first_error_in_row_order() {
        let table = t();
        // Comparison with a string literal errors on every row; the
        // batch result must match the row-wise loop's first error.
        let e = Expr::col("x").gt(Expr::lit("oops"));
        let row_wise: TableResult<Vec<bool>> = (0..table.len())
            .map(|i| e.eval_bool(RowCtx::top(&table, i)))
            .collect();
        assert_eq!(eval_bool_columnar(&e, &table, None), row_wise);
    }

    #[test]
    fn scalar_subtrees_constant_fold() {
        let table = t();
        let e = Expr::lit(2.0).mul(Expr::lit(3.0)).le(Expr::col("x"));
        assert_agree(&e, &table);
        let folded = eval_columnar(&Expr::lit(2.0).mul(Expr::lit(3.0)), &table, None);
        assert!(matches!(folded.data, Data::Scalar(Value::Float(v)) if v == 6.0));
        // Scalar AND/OR fold too, with short-circuit semantics.
        let and = eval_columnar(&Expr::lit(false).and(Expr::lit(true)), &table, None);
        assert!(matches!(and.data, Data::Scalar(Value::Bool(false))));
        let or = eval_columnar(
            &Expr::lit(true).or(Expr::Literal(Value::Null)),
            &table,
            None,
        );
        assert!(matches!(or.data, Data::Scalar(Value::Bool(true))));
    }

    #[test]
    fn full_table_column_references_are_zero_copy() {
        // A whole-table column reference must borrow storage, not clone
        // it — the hot-path scans depend on this.
        let table = t();
        let batch = eval_columnar(&Expr::col("x"), &table, None);
        assert!(matches!(batch.data, Data::Float(Cow::Borrowed(_))));
        // Selection gathers necessarily own their buffers.
        let batch = eval_columnar(&Expr::col("x"), &table, Some(&[0, 2]));
        assert!(matches!(batch.data, Data::Float(Cow::Owned(_))));
    }

    #[test]
    fn null_bearing_logic_stays_on_the_mask_path() {
        // NULLs from div-by-zero flowing into AND/OR combine as masks —
        // no per-row fallback — and the result still matches row-wise
        // evaluation on the full Kleene table.
        let table = t(); // y holds zeros
        let null_side = Expr::col("x").div(Expr::col("y")).gt(Expr::lit(0.5));
        for e in [
            null_side.clone().and(Expr::col("x").gt(Expr::lit(1.5))),
            null_side.clone().or(Expr::col("x").gt(Expr::lit(1.5))),
            null_side.clone().and(Expr::Literal(Value::Null)),
            null_side.clone().or(Expr::Literal(Value::Null)),
            Expr::Literal(Value::Null).and(null_side.clone()),
            null_side.clone().and(null_side.clone().not()),
        ] {
            assert_agree(&e, &table);
            // The kernel output is a boolean mask with a NULL mask, not
            // a from_rows reconstruction artifact — errs stay None.
            let batch = eval_columnar(&e, &table, None);
            assert!(matches!(batch.errs, Errs::None));
            assert!(matches!(batch.data, Data::Bool(_) | Data::Scalar(_)));
        }
    }
}
