//! Expression AST and evaluator.
//!
//! Expressions support arithmetic, SQL three-valued boolean logic,
//! comparisons with numeric coercion, a few scalar functions
//! (`SQRT`/`POWER`/`ABS`), and — the key piece for this paper —
//! **correlated scalar aggregate subqueries**: a subexpression of the form
//!
//! ```sql
//! (SELECT COUNT(*) FROM D WHERE SQRT(POWER(o.x - x, 2) + POWER(o.y - y, 2)) <= d)
//! ```
//!
//! where `o` is the *outer* (object) row. Subqueries are evaluated by a
//! nested-loop scan over their table, which is precisely the expensive
//! evaluation strategy the paper assumes for complex predicates (§1).
//!
//! One level of correlation is supported (`Expr::Outer` refers to the row
//! the predicate is being evaluated for), which covers every query shape
//! in the paper (Examples 1 and 2 and the general Q3 form).
//!
//! # Three-valued logic, NULL, and errors
//!
//! Columns are dense (never NULL), so `Value::Null` arises only *during*
//! evaluation. The engine distinguishes **NULL results** from **errors**,
//! and both the row-wise evaluator here and the vectorized engine in
//! [`crate::vector`] enforce the same rules (asserted by property tests):
//!
//! * **NULL sources** — a `NULL` literal, division by zero (SQL style:
//!   `x / 0` is `NULL`, not an error), and NULL propagation: any
//!   arithmetic, comparison, or scalar function applied to a NULL
//!   operand yields NULL, and `AVG`/`MIN`/`MAX` over an empty set are
//!   NULL.
//! * **Kleene AND/OR** — `FALSE AND NULL = FALSE`, `TRUE OR NULL =
//!   TRUE`, otherwise NULL stays NULL; `NOT NULL = NULL`.
//! * **Predicates** — [`Expr::eval_bool`] maps a NULL result to `false`
//!   (SQL `WHERE` semantics), so NULL never silently counts an object.
//! * **Errors, not NULL** — unknown columns, type mismatches (e.g.
//!   comparing a string to a float, or a NaN comparison), integer
//!   overflow (including `-i64::MIN` and `ABS(i64::MIN)`), wrong
//!   function arity, and an unbound outer row are hard errors.
//! * **Short-circuit shadowing** — `AND` evaluates its left operand
//!   first; where it is `FALSE`, the right operand is *not* evaluated,
//!   so an error the right side would raise is shadowed (symmetrically
//!   for `OR`/`TRUE`, and a NULL `POWER` base shadows its exponent).
//!   The vectorized engine evaluates both sides eagerly but masks
//!   per-row errors to reproduce exactly this behaviour.

use crate::error::{TableError, TableResult};
use crate::table::Table;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (always produces a float).
    Div,
    /// Comparison operators.
    Cmp(CmpOp),
    /// Logical AND (SQL three-valued).
    And,
    /// Logical OR (SQL three-valued).
    Or,
}

/// Comparison operators with SQL numeric coercion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison to an ordering.
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The comparison with its operands swapped: `a op b` is
    /// `b op.mirrored() a`.
    pub(crate) fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT (SQL three-valued).
    Not,
    /// Numeric negation.
    Neg,
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `SQRT(x)`
    Sqrt,
    /// `POWER(x, y)`
    Power,
    /// `ABS(x)`
    Abs,
}

/// Aggregate functions for subqueries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` over rows passing the filter.
    Count,
    /// `SUM(arg)`.
    Sum,
    /// `MIN(arg)`.
    Min,
    /// `MAX(arg)`.
    Max,
    /// `AVG(arg)`.
    Avg,
}

/// A correlated scalar aggregate subquery:
/// `(SELECT agg(arg) FROM table WHERE filter)`, where `filter`/`arg` may
/// reference the outer row through [`Expr::Outer`].
///
/// Equality is identity of spelling: the same table (by pointer), the
/// same aggregate, and filter and argument trees alike node for node —
/// operand order kept, literals of one type with the same bits. Two
/// equal subqueries evaluate alike on every row, errors included, so
/// one tree can stand for both (the service keeps one per distinct
/// subquery of a dataset version). `Hash` agrees with it.
#[derive(Debug, Clone)]
pub struct AggSubquery {
    /// The table scanned by the subquery.
    pub table: Arc<Table>,
    /// The WHERE clause (may reference `Outer` columns).
    pub filter: Option<Expr>,
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregate argument (required for all but `Count`).
    pub arg: Option<Expr>,
}

/// An expression tree.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column of the current row.
    Column(String),
    /// A column of the outer (object) row — correlation.
    Outer(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Scalar function call.
    Call(Func, Vec<Expr>),
    /// Correlated scalar aggregate subquery, shared: cloning an
    /// expression copies the pointer, not the tree.
    Subquery(Arc<AggSubquery>),
}

/// Evaluation context: the current row, plus (optionally) the outer row
/// for correlated subqueries.
#[derive(Debug, Clone, Copy)]
pub struct RowCtx<'a> {
    /// Table of the current row.
    pub table: &'a Table,
    /// Index of the current row.
    pub row: usize,
    /// Outer (object) row, if evaluating inside a subquery.
    pub outer: Option<(&'a Table, usize)>,
}

impl<'a> RowCtx<'a> {
    /// Context for a top-level row (no outer binding).
    pub fn top(table: &'a Table, row: usize) -> Self {
        Self {
            table,
            row,
            outer: None,
        }
    }
}

// Builder methods deliberately mirror SQL operator names (`add`, `sub`,
// `lt`, …) like other expression DSLs; they are not std::ops overloads
// because `Expr` construction must stay explicit.
#[allow(clippy::should_implement_trait)]
impl Expr {
    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// A literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// A column reference on the current row.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// A column reference on the outer (object) row.
    pub fn outer(name: impl Into<String>) -> Expr {
        Expr::Outer(name.into())
    }

    /// `self + rhs`
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Add, Box::new(self), Box::new(rhs))
    }
    /// `self - rhs`
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Sub, Box::new(self), Box::new(rhs))
    }
    /// `self * rhs`
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Mul, Box::new(self), Box::new(rhs))
    }
    /// `self / rhs`
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Div, Box::new(self), Box::new(rhs))
    }
    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Cmp(CmpOp::Eq), Box::new(self), Box::new(rhs))
    }
    /// `self <> rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Cmp(CmpOp::Ne), Box::new(self), Box::new(rhs))
    }
    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Cmp(CmpOp::Lt), Box::new(self), Box::new(rhs))
    }
    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Cmp(CmpOp::Le), Box::new(self), Box::new(rhs))
    }
    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Cmp(CmpOp::Gt), Box::new(self), Box::new(rhs))
    }
    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Cmp(CmpOp::Ge), Box::new(self), Box::new(rhs))
    }
    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::And, Box::new(self), Box::new(rhs))
    }
    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Or, Box::new(self), Box::new(rhs))
    }
    /// `NOT self`
    pub fn not(self) -> Expr {
        Expr::Unary(UnaryOp::Not, Box::new(self))
    }
    /// `-self`
    pub fn neg(self) -> Expr {
        Expr::Unary(UnaryOp::Neg, Box::new(self))
    }
    /// `SQRT(self)`
    pub fn sqrt(self) -> Expr {
        Expr::Call(Func::Sqrt, vec![self])
    }
    /// `POWER(self, e)`
    pub fn power(self, e: Expr) -> Expr {
        Expr::Call(Func::Power, vec![self, e])
    }
    /// `ABS(self)`
    pub fn abs(self) -> Expr {
        Expr::Call(Func::Abs, vec![self])
    }

    /// A correlated aggregate subquery expression.
    pub fn subquery(
        table: Arc<Table>,
        filter: Option<Expr>,
        func: AggFunc,
        arg: Option<Expr>,
    ) -> Expr {
        Expr::Subquery(Arc::new(AggSubquery {
            table,
            filter,
            func,
            arg,
        }))
    }

    /// Shorthand for `(SELECT COUNT(*) FROM table WHERE filter)`.
    pub fn count_where(table: Arc<Table>, filter: Expr) -> Expr {
        Expr::subquery(table, Some(filter), AggFunc::Count, None)
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluate the expression in the given row context.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown columns, type mismatches, missing
    /// outer rows, or malformed function calls.
    pub fn eval(&self, ctx: RowCtx<'_>) -> TableResult<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(name) => ctx.table.get_by_name(ctx.row, name),
            Expr::Outer(name) => {
                let (t, r) = ctx.outer.ok_or(TableError::NoOuterRow)?;
                t.get_by_name(r, name)
            }
            Expr::Unary(op, e) => eval_unary(*op, e.eval(ctx)?),
            Expr::Binary(op, l, r) => eval_binary(*op, l, r, ctx),
            Expr::Call(f, args) => eval_call(*f, args, ctx),
            Expr::Subquery(sq) => eval_subquery(sq, ctx),
        }
    }

    /// Evaluate as a predicate (SQL semantics: `Null` is false).
    ///
    /// # Errors
    ///
    /// Returns an error if the expression does not produce a boolean.
    pub fn eval_bool(&self, ctx: RowCtx<'_>) -> TableResult<bool> {
        self.eval(ctx)?.truthy()
    }
}

/// Apply a unary operator to an already-evaluated value. Shared by the
/// row-wise evaluator and the vectorized kernels in [`crate::vector`],
/// so the two paths cannot drift.
pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> TableResult<Value> {
    match op {
        UnaryOp::Not => Ok(match v {
            Value::Null => Value::Null,
            other => Value::Bool(!other.as_bool()?),
        }),
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or(TableError::Arithmetic {
                    message: "integer overflow",
                }),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(TableError::TypeMismatch {
                expected: "numeric",
                found: format!("{other:?}"),
            }),
        },
    }
}

fn eval_binary(op: BinaryOp, l: &Expr, r: &Expr, ctx: RowCtx<'_>) -> TableResult<Value> {
    // Three-valued logic short-circuits.
    match op {
        BinaryOp::And => {
            let lv = l.eval(ctx)?;
            if let Value::Bool(false) = lv {
                return Ok(Value::Bool(false));
            }
            let rv = r.eval(ctx)?;
            return kleene_and(lv, rv);
        }
        BinaryOp::Or => {
            let lv = l.eval(ctx)?;
            if let Value::Bool(true) = lv {
                return Ok(Value::Bool(true));
            }
            let rv = r.eval(ctx)?;
            return kleene_or(lv, rv);
        }
        _ => {}
    }
    let lv = l.eval(ctx)?;
    let rv = r.eval(ctx)?;
    apply_binary(op, lv, rv)
}

/// Apply a non-short-circuiting binary operator to two already-evaluated
/// values (for `AND`/`OR` this is the no-short-circuit Kleene tail).
/// Shared by the row-wise evaluator and the vectorized kernels in
/// [`crate::vector`], so the two paths cannot drift.
pub(crate) fn apply_binary(op: BinaryOp, lv: Value, rv: Value) -> TableResult<Value> {
    match op {
        BinaryOp::And => return kleene_and(lv, rv),
        BinaryOp::Or => return kleene_or(lv, rv),
        _ => {}
    }
    if lv.is_null() || rv.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => {
            if let (Value::Int(a), Value::Int(b)) = (&lv, &rv) {
                let res = match op {
                    BinaryOp::Add => a.checked_add(*b),
                    BinaryOp::Sub => a.checked_sub(*b),
                    BinaryOp::Mul => a.checked_mul(*b),
                    _ => unreachable!(),
                };
                return res.map(Value::Int).ok_or(TableError::Arithmetic {
                    message: "integer overflow",
                });
            }
            let (a, b) = (lv.as_f64()?, rv.as_f64()?);
            Ok(Value::Float(match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                _ => unreachable!(),
            }))
        }
        BinaryOp::Div => {
            let (a, b) = (lv.as_f64()?, rv.as_f64()?);
            if b == 0.0 {
                Ok(Value::Null) // SQL: division by zero — we surface NULL.
            } else {
                Ok(Value::Float(a / b))
            }
        }
        BinaryOp::Cmp(cmp) => match lv.sql_cmp(&rv) {
            Some(ord) => Ok(Value::Bool(cmp.test(ord))),
            None => Err(TableError::TypeMismatch {
                expected: "comparable values",
                found: format!("{lv:?} vs {rv:?}"),
            }),
        },
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

pub(crate) fn kleene_and(l: Value, r: Value) -> TableResult<Value> {
    Ok(match (bool3(&l)?, bool3(&r)?) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

pub(crate) fn kleene_or(l: Value, r: Value) -> TableResult<Value> {
    Ok(match (bool3(&l)?, bool3(&r)?) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

fn bool3(v: &Value) -> TableResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        other => Ok(Some(other.as_bool()?)),
    }
}

fn eval_call(f: Func, args: &[Expr], ctx: RowCtx<'_>) -> TableResult<Value> {
    let arity = match f {
        Func::Sqrt | Func::Abs => 1,
        Func::Power => 2,
    };
    if args.len() != arity {
        return Err(TableError::InvalidExpression {
            message: format!("{f:?} expects {arity} argument(s), got {}", args.len()),
        });
    }
    let a = args[0].eval(ctx)?;
    if a.is_null() {
        return Ok(Value::Null);
    }
    match f {
        Func::Sqrt => Ok(Value::Float(a.as_f64()?.sqrt())),
        Func::Abs => match a {
            Value::Int(i) => i
                .checked_abs()
                .map(Value::Int)
                .ok_or(TableError::Arithmetic {
                    message: "integer overflow",
                }),
            other => Ok(Value::Float(other.as_f64()?.abs())),
        },
        Func::Power => {
            let b = args[1].eval(ctx)?;
            if b.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Float(a.as_f64()?.powf(b.as_f64()?)))
        }
    }
}

fn eval_subquery(sq: &AggSubquery, ctx: RowCtx<'_>) -> TableResult<Value> {
    // The row we were called for becomes the *outer* row inside the
    // subquery. One level of correlation is supported.
    let outer = Some((ctx.table, ctx.row));
    let inner = sq.table.as_ref();
    let mut count: i64 = 0;
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for row in 0..inner.len() {
        let ictx = RowCtx {
            table: inner,
            row,
            outer,
        };
        if let Some(filter) = &sq.filter {
            if !filter.eval_bool(ictx)? {
                continue;
            }
        }
        count += 1;
        if !matches!(sq.func, AggFunc::Count) {
            let arg = sq
                .arg
                .as_ref()
                .ok_or_else(|| TableError::InvalidExpression {
                    message: format!("{:?} requires an argument expression", sq.func),
                })?;
            let v = arg.eval(ictx)?.as_f64()?;
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

impl PartialEq for AggSubquery {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &Option<Expr>, b: &Option<Expr>| match (a, b) {
            (Some(a), Some(b)) => spelled_alike(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        Arc::ptr_eq(&self.table, &other.table)
            && self.func == other.func
            && same(&self.filter, &other.filter)
            && same(&self.arg, &other.arg)
    }
}

impl Eq for AggSubquery {}

impl Hash for AggSubquery {
    fn hash<H: Hasher>(&self, h: &mut H) {
        Arc::as_ptr(&self.table).hash(h);
        std::mem::discriminant(&self.func).hash(h);
        for e in self.filter.iter().chain(&self.arg) {
            hash_spelling(e, h);
        }
    }
}

/// Whether two trees are spelled alike (see [`AggSubquery`]'s equality).
fn spelled_alike(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Literal(x), Expr::Literal(y)) => match (x, y) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            _ => false,
        },
        (Expr::Column(x), Expr::Column(y)) | (Expr::Outer(x), Expr::Outer(y)) => x == y,
        (Expr::Unary(o, x), Expr::Unary(p, y)) => o == p && spelled_alike(x, y),
        (Expr::Binary(o, xl, xr), Expr::Binary(p, yl, yr)) => {
            o == p && spelled_alike(xl, yl) && spelled_alike(xr, yr)
        }
        (Expr::Call(f, xs), Expr::Call(g, ys)) => {
            f == g && xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| spelled_alike(x, y))
        }
        (Expr::Subquery(x), Expr::Subquery(y)) => Arc::ptr_eq(x, y) || x == y,
        _ => false,
    }
}

/// Feed a tree's spelling to `h`: trees [`spelled_alike`] hash alike.
fn hash_spelling<H: Hasher>(e: &Expr, h: &mut H) {
    std::mem::discriminant(e).hash(h);
    match e {
        Expr::Literal(v) => {
            std::mem::discriminant(v).hash(h);
            match v {
                Value::Null => {}
                Value::Bool(x) => x.hash(h),
                Value::Int(x) => x.hash(h),
                Value::Float(x) => x.to_bits().hash(h),
                Value::Str(x) => x.hash(h),
            }
        }
        Expr::Column(name) | Expr::Outer(name) => name.hash(h),
        Expr::Unary(op, x) => {
            std::mem::discriminant(op).hash(h);
            hash_spelling(x, h);
        }
        Expr::Binary(op, l, r) => {
            std::mem::discriminant(op).hash(h);
            if let BinaryOp::Cmp(c) = op {
                std::mem::discriminant(c).hash(h);
            }
            hash_spelling(l, h);
            hash_spelling(r, h);
        }
        Expr::Call(f, args) => {
            std::mem::discriminant(f).hash(h);
            args.iter().for_each(|a| hash_spelling(a, h));
        }
        Expr::Subquery(sq) => sq.hash(h),
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// Renders the expression as SQL-ish text that
/// [`crate::parser::parse_condition`] reads back, with every compound
/// subexpression parenthesized (no precedence reconstruction needed).
/// Subqueries print `FROM <table>` as a placeholder — the AST holds the
/// table by reference, not by name, so subquery output is for debugging
/// and is the one non-round-trippable form.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                Value::Null => write!(f, "NULL"),
                Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
                Value::Int(i) => write!(f, "{i}"),
                // `{:?}` prints the shortest digits that round-trip.
                Value::Float(x) => write!(f, "{x:?}"),
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            },
            Expr::Column(name) => f.write_str(name),
            Expr::Outer(name) => write!(f, "o.{name}"),
            Expr::Unary(op, e) => match op {
                UnaryOp::Not => write!(f, "(NOT {e})"),
                UnaryOp::Neg => write!(f, "(- {e})"),
            },
            Expr::Binary(op, l, r) => {
                let sym = match op {
                    BinaryOp::Add => "+",
                    BinaryOp::Sub => "-",
                    BinaryOp::Mul => "*",
                    BinaryOp::Div => "/",
                    BinaryOp::And => "AND",
                    BinaryOp::Or => "OR",
                    BinaryOp::Cmp(c) => match c {
                        CmpOp::Eq => "=",
                        CmpOp::Ne => "<>",
                        CmpOp::Lt => "<",
                        CmpOp::Le => "<=",
                        CmpOp::Gt => ">",
                        CmpOp::Ge => ">=",
                    },
                };
                write!(f, "({l} {sym} {r})")
            }
            Expr::Call(func, args) => {
                let name = match func {
                    Func::Sqrt => "SQRT",
                    Func::Power => "POWER",
                    Func::Abs => "ABS",
                };
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Subquery(sq) => {
                write!(f, "(SELECT {}(", sq.func)?;
                match &sq.arg {
                    Some(arg) => write!(f, "{arg}")?,
                    None => write!(f, "*")?,
                }
                write!(f, ") FROM <table>")?;
                if let Some(filter) = &sq.filter {
                    write!(f, " WHERE {filter}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of_floats;

    fn t() -> Table {
        table_of_floats(&[("x", &[1.0, 2.0, 3.0]), ("y", &[10.0, 20.0, 30.0])]).unwrap()
    }

    #[test]
    fn arithmetic_and_columns() {
        let table = t();
        let e = Expr::col("x").add(Expr::col("y")).mul(Expr::lit(2.0));
        let v = e.eval(RowCtx::top(&table, 1)).unwrap();
        assert_eq!(v, Value::Float(44.0));
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let table = t();
        let e = Expr::lit(3i64).add(Expr::lit(4i64));
        assert_eq!(e.eval(RowCtx::top(&table, 0)).unwrap(), Value::Int(7));
        let e = Expr::lit(3i64).add(Expr::lit(4.0));
        assert_eq!(e.eval(RowCtx::top(&table, 0)).unwrap(), Value::Float(7.0));
        // Overflow is an error, not a wrap.
        let e = Expr::lit(i64::MAX).add(Expr::lit(1i64));
        assert!(e.eval(RowCtx::top(&table, 0)).is_err());
    }

    #[test]
    fn negation_and_abs_overflow_are_errors() {
        // -i64::MIN and ABS(i64::MIN) don't fit in i64; they must be
        // arithmetic errors, not panics or silent wraps.
        let table = t();
        let ctx = RowCtx::top(&table, 0);
        assert!(matches!(
            Expr::lit(i64::MIN).neg().eval(ctx),
            Err(TableError::Arithmetic { .. })
        ));
        assert!(matches!(
            Expr::lit(i64::MIN).abs().eval(ctx),
            Err(TableError::Arithmetic { .. })
        ));
        assert_eq!(
            Expr::lit(i64::MIN + 1).neg().eval(ctx).unwrap(),
            Value::Int(i64::MAX)
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let table = t();
        let e = Expr::lit(1.0).div(Expr::lit(0.0));
        assert!(e.eval(RowCtx::top(&table, 0)).unwrap().is_null());
    }

    #[test]
    fn comparisons_and_logic() {
        let table = t();
        let ctx = RowCtx::top(&table, 2); // x=3, y=30
        assert_eq!(
            Expr::col("x").ge(Expr::lit(3.0)).eval(ctx).unwrap(),
            Value::Bool(true)
        );
        let e = Expr::col("x")
            .gt(Expr::lit(1.0))
            .and(Expr::col("y").lt(Expr::lit(25.0)));
        assert_eq!(e.eval(ctx).unwrap(), Value::Bool(false));
        let e = Expr::col("x")
            .gt(Expr::lit(10.0))
            .or(Expr::col("y").eq(Expr::lit(30.0)));
        assert_eq!(e.eval(ctx).unwrap(), Value::Bool(true));
        assert_eq!(Expr::lit(true).not().eval(ctx).unwrap(), Value::Bool(false));
    }

    #[test]
    fn three_valued_logic() {
        let table = t();
        let ctx = RowCtx::top(&table, 0);
        let null = || Expr::Literal(Value::Null);
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
        assert_eq!(
            null().and(Expr::lit(false)).eval(ctx).unwrap(),
            Value::Bool(false)
        );
        assert!(null().and(Expr::lit(true)).eval(ctx).unwrap().is_null());
        // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
        assert_eq!(
            null().or(Expr::lit(true)).eval(ctx).unwrap(),
            Value::Bool(true)
        );
        assert!(null().or(Expr::lit(false)).eval(ctx).unwrap().is_null());
        // NOT NULL = NULL; comparisons with NULL are NULL.
        assert!(null().not().eval(ctx).unwrap().is_null());
        assert!(null().lt(Expr::lit(1.0)).eval(ctx).unwrap().is_null());
        // eval_bool treats NULL as false.
        assert!(!null().eval_bool(ctx).unwrap());
    }

    #[test]
    fn scalar_functions() {
        let table = t();
        let ctx = RowCtx::top(&table, 0);
        assert_eq!(Expr::lit(9.0).sqrt().eval(ctx).unwrap(), Value::Float(3.0));
        assert_eq!(
            Expr::lit(2.0).power(Expr::lit(10.0)).eval(ctx).unwrap(),
            Value::Float(1024.0)
        );
        assert_eq!(Expr::lit(-3i64).abs().eval(ctx).unwrap(), Value::Int(3));
        assert_eq!(Expr::lit(-2.5).neg().eval(ctx).unwrap(), Value::Float(2.5));
        // Wrong arity errors.
        let bad = Expr::Call(Func::Sqrt, vec![]);
        assert!(bad.eval(ctx).is_err());
    }

    #[test]
    fn outer_requires_binding() {
        let table = t();
        let e = Expr::outer("x");
        assert!(matches!(
            e.eval(RowCtx::top(&table, 0)),
            Err(TableError::NoOuterRow)
        ));
    }

    #[test]
    fn correlated_count_subquery() {
        // For each row o, count rows with x >= o.x  → 3, 2, 1.
        let table = Arc::new(t());
        let sub = Expr::count_where(Arc::clone(&table), Expr::col("x").ge(Expr::outer("x")));
        for (row, want) in [(0usize, 3i64), (1, 2), (2, 1)] {
            let got = sub.eval(RowCtx::top(&table, row)).unwrap();
            assert_eq!(got, Value::Int(want), "row {row}");
        }
    }

    #[test]
    fn aggregate_functions_over_subquery() {
        let table = Arc::new(t());
        let mk = |func, arg: Option<Expr>| {
            Expr::subquery(
                Arc::clone(&table),
                Some(Expr::col("x").gt(Expr::lit(1.0))),
                func,
                arg,
            )
        };
        let ctx_t = t();
        let ctx = RowCtx::top(&ctx_t, 0);
        assert_eq!(
            mk(AggFunc::Sum, Some(Expr::col("y"))).eval(ctx).unwrap(),
            Value::Float(50.0)
        );
        assert_eq!(
            mk(AggFunc::Min, Some(Expr::col("y"))).eval(ctx).unwrap(),
            Value::Float(20.0)
        );
        assert_eq!(
            mk(AggFunc::Max, Some(Expr::col("y"))).eval(ctx).unwrap(),
            Value::Float(30.0)
        );
        assert_eq!(
            mk(AggFunc::Avg, Some(Expr::col("y"))).eval(ctx).unwrap(),
            Value::Float(25.0)
        );
        // Empty aggregate: AVG/MIN/MAX are NULL, SUM is 0, COUNT is 0.
        let empty = |func, arg: Option<Expr>| {
            Expr::subquery(Arc::clone(&table), Some(Expr::lit(false)), func, arg)
        };
        assert_eq!(
            empty(AggFunc::Count, None).eval(ctx).unwrap(),
            Value::Int(0)
        );
        assert!(empty(AggFunc::Avg, Some(Expr::col("y")))
            .eval(ctx)
            .unwrap()
            .is_null());
        // SUM/MIN/MAX without arg is an error.
        assert!(mk(AggFunc::Sum, None).eval(ctx).is_err());
    }

    #[test]
    fn example1_distance_predicate_shape() {
        // SQRT(POWER(o.x - x, 2) + POWER(o.y - y, 2)) <= d, few-neighbors.
        let pts =
            Arc::new(table_of_floats(&[("x", &[0.0, 1.0, 5.0]), ("y", &[0.0, 0.0, 0.0])]).unwrap());
        let dist = Expr::outer("x")
            .sub(Expr::col("x"))
            .power(Expr::lit(2.0))
            .add(Expr::outer("y").sub(Expr::col("y")).power(Expr::lit(2.0)))
            .sqrt();
        let neighbors = Expr::count_where(Arc::clone(&pts), dist.le(Expr::lit(2.0)));
        // Point 0 has neighbors {0,1} within distance 2 → count 2.
        let got = neighbors.eval(RowCtx::top(&pts, 0)).unwrap();
        assert_eq!(got, Value::Int(2));
        // Point 2 only has itself.
        let got = neighbors.eval(RowCtx::top(&pts, 2)).unwrap();
        assert_eq!(got, Value::Int(1));
    }
}
