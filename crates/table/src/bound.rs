//! Bound, tiled evaluation of correlated `COUNT(*)` subqueries — the
//! oracle's inner loop.
//!
//! The generic engine ([`crate::vector`]) evaluates a subquery's filter
//! per outer object through [`Batch`](crate::vector::Batch)es: every
//! column is resolved by name, every scalar is a [`Value`], every AST
//! node allocates an inner-table-sized vector, and the scan always runs
//! to the last row. Here the filter is **bound once per batch**
//! ([`BoundCount::bind`]): inner columns become typed slices, `Outer`
//! references become columns of the object table, literals become
//! `f64`s. Each object then evaluates the bound tree over fixed-size
//! **tiles** of the inner table ([`TILE`] rows; lanes and byte masks live
//! in the [`BoundCount`], reused across tiles and objects), adds the tile's
//! `COUNT(*)`, and — when the caller's comparison is monotone in the
//! count — **stops at the first tile boundary where it is decided**.
//! Where the inner table's kd-zones can bound the filter, whole zones
//! are counted or skipped from their boxes and only the leaves the boxes
//! leave open are scanned (rule 6).
//!
//! # Exactness
//!
//! Labels, errors and error order equal `Expr::eval`'s. The kernel never
//! produces an error itself; it either returns the exact count (or a
//! truncated count that decides the caller's comparison the same way)
//! or returns `None`, and the caller re-evaluates that object through
//! the generic path, which reproduces the value or the error.
//!
//! 1. **Bind or decline, statically.** Accepted: a boolean tree of
//!    comparisons, `AND`/`OR`/`NOT` over numeric trees of dense
//!    `Float`/`Int` columns (inner or outer), `Int`/`Float` literals,
//!    `+`, `-`, `SQRT`, `ABS`, `POWER`. Declined (→ generic path for the
//!    whole batch): a missing filter, strings, `Bool` columns and
//!    literals, `NULL`, unary minus, `*`, `/` (NULL on zero), `Int ± Int`
//!    and `ABS(Int)` (checked overflow), nested subqueries, unknown
//!    columns, wrong arity. Nothing accepted can yield NULL, so the only
//!    row-wise error left is a comparison that meets NaN. An `Int`-vs-`Int`
//!    comparison (done in `i64` row-wise) binds only when every value
//!    involved is at most 2⁵³ in magnitude, where the `f64` comparison
//!    used here is the same relation.
//! 2. **NaN is detected, never guessed.** Every comparison whose operands
//!    are not proven NaN-free ORs `is_nan` of both operands into one flag
//!    per object; a set flag returns `None`. An object whose outer row is
//!    out of range returns `None` too.
//! 3. **Early exit only under a proof that no row can raise.** One pass
//!    per inner `Float` column per bind (however often the filter names
//!    it) establishes "all finite" (`Int` columns always are). Given
//!    finite outer scalars — checked per object; otherwise every
//!    comparison checks and the scan is full — each numeric node carries
//!    three facts: *finite*, *NaN-free*, *non-negative* (`>= 0`, which
//!    implies NaN-free):
//!    * finite column, `Int` column, outer scalar: finite; a literal: as
//!      it is;
//!    * `a ± b` is NaN only for a NaN operand or two infinities, so it is
//!      NaN-free when one operand is finite and the other NaN-free; `a +
//!      b` of two non-negatives is non-negative; neither is finite
//!      (overflow);
//!    * `ABS(a)`: non-negative if `a` is NaN-free, finite if `a` is;
//!    * `SQRT(a)`: non-negative (and finite if `a` is) if `a` is
//!      non-negative (`SQRT(-0.0)` is `-0.0`, which is `>= 0`);
//!    * `POWER(a, e)` with `e` a literal finite even integer: non-negative
//!      if `a` is NaN-free (C99 `pow`: `±∞` and `±0` bases give `+∞`,
//!      `+0` or `1`); any other `POWER`: nothing.
//!
//!    The filter is proven when both operands of every comparison are
//!    NaN-free. Unproven means a full scan, never a guess.
//! 4. **The stop bound** is the caller's ([`CountTest`]): the smallest
//!    count at which the comparison is fixed for all larger counts.
//! 5. **`POWER(a, 2)` is `a·a` where that provably cannot change a
//!    label.** libm's `pow` is ≥ 90 % of a distance filter's cost, the
//!    product is not always the same bits, and a label only asks on which
//!    side of a comparison a row falls. So every numeric node gets a
//!    fourth fact, its **gap** `g`: with every `POWER(·, 2)` below it
//!    (literal exponent exactly 2, `Int` or `Float`) taken as a multiply,
//!    its value lies within `g·2⁻⁵²·|v| + α` of its row-wise value `v` —
//!    `α` an absolute slack, 0 unless a square underflowed — or `g` is
//!    *unbounded*:
//!    * a leaf, and any operation over gap-0 operands (the same operation
//!      on the same bits): 0;
//!    * `POWER(a, 2)` over a gap-0 `a`: [`SQUARE_GAP`] = 2. **The libm
//!      assumption:** `f64::powf(a, 2.0)` is within 1 ulp of `a²` (glibc
//!      documents < 1 ulp; `powf_of_two_is_within_the_band` in
//!      `tests/vector_agreement.rs` checks 10⁶ draws on the build host);
//!      the product is within ½. Below the normal range an ulp is 2⁻¹⁰⁷⁴
//!      whatever the value: there `α ≤ 2⁻¹⁰⁷³` instead. Both are NaN
//!      exactly for a NaN `a`;
//!    * `a + b` of two non-negatives: `max(gₐ, g_b) + 1` — without
//!      cancellation relative gaps do not add, each mode's rounding of the
//!      sum does (½ + ½); slacks add;
//!    * `SQRT(a)` of a non-negative `a` not itself over a gapped `SQRT`:
//!      `⌈g/2⌉ + 1`, the slack becomes `√α ≤ 2⁻⁵⁰⁴` (a filter has fewer
//!      than 2⁶⁴ squares). Once only: a second root makes it 2⁻²⁵², a
//!      third 2⁻¹²⁶, and no floor holds;
//!    * `ABS(a)` keeps it;
//!    * `a − b`, a sum with a possibly negative operand, any other `POWER`,
//!      over an operand of non-zero gap: unbounded (cancellation).
//!
//!    A comparison with an unbounded side, or whose two gaps exceed
//!    [`GAP_MAX`] = 2¹⁰ together, leaves the **whole filter** on row-wise
//!    arithmetic; so does an object with a non-finite outer scalar (the
//!    *non-negative* facts rest on it). Otherwise a tile is evaluated with
//!    the multiply first, and a comparison of non-zero gap marks it
//!    **uncertain** when on any row `|l − r| ≤ 2⁻⁴⁰·max(|l|, |r|)`
//!    ([`BAND`]), an operand is not finite (a sum that overflows in one
//!    mode may be `f64::MAX` in the other; NaN lands here too), or
//!    `max(|l|, |r|) < 2⁻⁴⁰⁰` ([`FLOOR`]). An uncertain tile is evaluated
//!    again with `f64::powf` before anything reads its mask, so every
//!    mask, tile count, early-exit decision and NaN flag is the row-wise
//!    one. A certain row is right because its fast operands differ by
//!    more than 2⁻⁴⁰·m, `m` the larger magnitude, while the two modes'
//!    `l − r` are within `(g_l + g_r)·2⁻⁵²·m + α_l + α_r ≤ 2⁻⁴²·m + 2⁻⁵⁰³`
//!    of each other — the band is four times the widest gap and, from the
//!    floor up, 2⁶² times the slack — so the row-wise difference has the
//!    same sign and is not zero: `<`, `=` and their kin agree.
//! 6. **A zone whose box settles the filter is counted or skipped whole.**
//!    When the filter is proven (rule 3), reads one or two inner columns,
//!    all `Float` and finite, and every `POWER` in it is a square, the bind
//!    asks the inner table for its kd-zones over those columns
//!    (`crate::zones`: built once per table, leaves of at most [`TILE`]
//!    rows, a min/max box per node) and binds the filter a second time
//!    over the clustered copies. An object with finite outer scalars then
//!    walks the tree: each node's box gives every numeric node a closed
//!    range holding its row-wise value on every row of the node —
//!    * a column: the box's range; an outer scalar or a literal: itself;
//!    * `a + b`, `a − b`: the operation on the ends (`lo + lo`, `hi +
//!      hi`; `lo − hi`, `hi − lo`); `SQRT`: on the ends; `ABS`: the
//!      magnitude range. IEEE `+`, `−` and `√` are correctly rounded, and
//!      rounding is monotone, so the rounded ends bound every row's
//!      rounded value;
//!    * `POWER(a, 2)`: the squared magnitude range, each end moved out by
//!      2⁻⁴⁸ relative plus 2⁻¹⁰⁶⁰ — sixteen times rule 5's 1-ulp libm
//!      assumption, and more than an ulp below the normal range — so the
//!      range holds `powf` whatever the multiply rounds to;
//!
//!    and a comparison is settled only when every pair of values from its
//!    two ranges answers it alike (`l < r` when `l.hi < r.lo`, not when
//!    `l.lo >= r.hi`; `=` when both ranges are the same single value, `≠`
//!    when they are disjoint, …; a NaN end settles nothing), then combined
//!    through `AND` / `OR` / `NOT` three-valued. A node every row passes
//!    adds its row count, one no row passes is skipped, the others are
//!    opened; the leaves left open are scanned last, one tile each, by
//!    the tile interpreter over the clustered copies (rules 2 and 5
//!    unchanged), and the stop bound is checked before every node and
//!    leaf. The proof rules out NaN on every row, so the count is exact or
//!    has reached the stop bound, as on the tile path. Any other filter
//!    or object, and every object of a table whose index is over other
//!    columns, takes the tile scan.
//!
//! Apart from rule 5's multiply — whose results reach a label only
//! through a comparison that cleared the band — arithmetic is the same
//! `f64` operation on the same operands as the generic kernels: `POWER`
//! calls `f64::powf` for every exponent but a literal 2, and for that one
//! too in a filter rule 5 declines and in every uncertain tile.

use crate::column::Column;
use crate::expr::{AggFunc, AggSubquery, BinaryOp, CmpOp, Expr, Func, UnaryOp};
use crate::table::Table;
use crate::value::Value;
use crate::zones::{Zone, ZoneIndex};

/// Rows per tile: the granularity of the early exit, and small enough
/// that a tile's lanes (2 KB each), mask and column windows stay in L1
/// while every node of the tree passes over them. Chosen on the
/// service's shapes (8 000 inner rows, 200 objects, one thread, µs per
/// object; skyband at its calibrated `k` / skyband full scan /
/// neighbours at `k` = 5 / 10 / 30):
///
/// | tile  | skyband | full | k = 5 | k = 10 | k = 30 |
/// |-------|---------|------|-------|--------|--------|
/// | 256   | 12.6    | 18.3 | 83    | 112    | 186    |
/// | 512   | 13.0    | 19.2 | 86    | 116    | 188    |
/// | 1 024 | 13.2    | 18.7 | 92    | 121    | 193    |
/// | 2 048 | 14.1    | —    | 115   | 135    | 200    |
/// | 8 192 | 17.9    | —    | 260   | 263    | 270    |
///
/// The full scan does not care (per-tile dispatch is noise from 256 up;
/// 64 and 128 read no better), the stopped scans gain down to 256. (The
/// neighbours columns predate rule 5: with the multiply they read 7–10 /
/// 9–13 / 15–16 from 128 through 2 048, inside one host's run-to-run
/// spread — the tile no longer decides them, and an uncertain tile costs
/// one tile of `powf`, so small stays right.)
pub(crate) const TILE: usize = 256;

/// Largest magnitude below which `i64 → f64` is exact (and so preserves
/// `<` and `=`).
const F64_EXACT_INT: u64 = 1 << 53;

// Rule 5's constants (derivation in the module doc).
/// The gap of `POWER(a, 2)` over a gap-0 `a`: `pow` within 1 ulp, the
/// product within ½.
const SQUARE_GAP: u32 = 2;
/// The widest gap, both operands of a comparison together, the multiply
/// is taken for, in units of 2⁻⁵² relative.
const GAP_MAX: u32 = 1 << 10;
/// Half-width of the guard band around a tie, relative to the larger
/// operand: 2⁻⁴⁰ — 2¹² units, four times [`GAP_MAX`].
const BAND: f64 = 1.0 / (1u64 << 40) as f64;
/// 2⁻⁴⁰⁰: with both operands below it, an underflowed square's absolute
/// error is no longer negligible against the band.
const FLOOR: f64 = f64::from_bits((1023 - 400) << 52);

// ---------------------------------------------------------------------
// The caller's comparison
// ---------------------------------------------------------------------

/// `COUNT(*) cmp k` for a numeric, non-NaN `k`, with the count at which
/// its outcome can no longer change.
#[derive(Debug)]
pub(crate) struct CountTest {
    cmp: CmpOp,
    k: Value,
    /// Smallest count from which `cmp` gives one answer for every larger
    /// count (`None`: never decided early).
    stop: Option<usize>,
}

impl CountTest {
    /// The test `count cmp k`, or `k cmp count` when `literal_left`.
    /// `None` unless `k` is an `Int` or a non-NaN `Float` — the cases in
    /// which `Value::sql_cmp` always orders a count against it.
    pub(crate) fn new(cmp: CmpOp, k: &Value, literal_left: bool) -> Option<Self> {
        let cmp = if literal_left { cmp.mirrored() } else { cmp };
        // `sql_cmp` compares a count with a `Float` in `f64`; counts are
        // far below 2⁵³, so that is the comparison of reals.
        let k_real = match *k {
            Value::Int(i) => i as f64,
            Value::Float(x) if !x.is_nan() => x,
            _ => return None,
        };
        let first_fixed = match cmp {
            CmpOp::Lt | CmpOp::Ge => Some(k_real.ceil()),
            CmpOp::Le | CmpOp::Gt => Some(k_real.floor() + 1.0),
            CmpOp::Eq | CmpOp::Ne => None,
        };
        // Beyond 2⁵³ the `+ 1.0` above is not exact; no table is that
        // long, so such a bound is simply never reached.
        let stop = first_fixed
            .filter(|s| s.abs() < F64_EXACT_INT as f64)
            .map(|s| if s <= 0.0 { 0 } else { s as usize });
        Some(Self {
            cmp,
            k: k.clone(),
            stop,
        })
    }

    /// Truth of the comparison at `count` (exact, or truncated at or past
    /// the stop bound).
    pub(crate) fn test(&self, count: i64) -> bool {
        let ord = Value::Int(count)
            .sql_cmp(&self.k)
            .expect("a count orders against a numeric, non-NaN threshold");
        self.cmp.test(ord)
    }

    pub(crate) fn stop(&self) -> Option<usize> {
        self.stop
    }
}

// ---------------------------------------------------------------------
// Bound tree
// ---------------------------------------------------------------------

/// What is known of every value a numeric node can take, on any inner
/// row, given finite outer scalars (module doc, rules 3 and 5).
#[derive(Debug, Clone, Copy)]
struct Facts {
    finite: bool,
    nan_free: bool,
    nonneg: bool,
    /// Units of 2⁻⁵² relative; 0 is "the same bits", [`UNBOUNDED`] no bound.
    gap: u32,
    /// A `SQRT` sits between a squared node and here.
    rooted: bool,
}

impl Facts {
    const UNKNOWN: Facts = Facts {
        finite: false,
        nan_free: false,
        nonneg: false,
        gap: 0,
        rooted: false,
    };
    const FINITE: Facts = Facts {
        finite: true,
        nan_free: true,
        ..Facts::UNKNOWN
    };

    fn of_scalar(x: f64) -> Facts {
        Facts {
            finite: x.is_finite(),
            nan_free: !x.is_nan(),
            nonneg: x >= 0.0,
            ..Facts::UNKNOWN
        }
    }
}

/// The gap of a node no bound is known for.
const UNBOUNDED: u32 = u32::MAX;

/// `gap` one rounding wider, or [`UNBOUNDED`] once past [`GAP_MAX`].
fn widened(gap: u32) -> u32 {
    if gap < GAP_MAX {
        gap + 1
    } else {
        UNBOUNDED
    }
}

#[derive(Debug, Clone, Copy)]
enum NumFn {
    Sqrt,
    Abs,
}

#[derive(Debug, Clone, Copy)]
enum NumOp {
    Add,
    Sub,
    Pow,
}

#[derive(Debug)]
enum Num<'a> {
    Lit(f64),
    /// Index into the per-object outer scalars.
    Outer(usize),
    Floats(&'a [f64]),
    Ints(&'a [i64]),
    Unary(NumFn, Box<Num<'a>>),
    Binary(NumOp, Box<Num<'a>>, Box<Num<'a>>),
}

impl Num<'_> {
    /// Scratch lanes the node needs when it evaluates into lane 0.
    fn lanes(&self) -> usize {
        match self {
            Num::Unary(_, a) => a.lanes(),
            Num::Binary(_, a, b) => a.lanes().max(1 + b.lanes()),
            _ => 1,
        }
    }
}

#[derive(Debug)]
enum Pred<'a> {
    Cmp {
        op: CmpOp,
        l: Num<'a>,
        r: Num<'a>,
        /// Both operands NaN-free given finite outer scalars.
        proven: bool,
        /// An operand has a non-zero gap: in fast mode the comparison
        /// looks for rows inside the guard band.
        guarded: bool,
    },
    And(Box<Pred<'a>>, Box<Pred<'a>>),
    Or(Box<Pred<'a>>, Box<Pred<'a>>),
    Not(Box<Pred<'a>>),
}

impl Pred<'_> {
    /// `(numeric lanes, masks)` the node needs.
    fn depth(&self) -> (usize, usize) {
        match self {
            Pred::Cmp { l, r, .. } => (l.lanes().max(1 + r.lanes()), 1),
            Pred::And(a, b) | Pred::Or(a, b) => {
                let ((la, ma), (lb, mb)) = (a.depth(), b.depth());
                (la.max(lb), ma.max(1 + mb))
            }
            Pred::Not(a) => a.depth(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Float,
}

#[derive(Debug)]
enum OuterCol<'a> {
    Floats(&'a [f64]),
    Ints(&'a [i64]),
}

fn ints_exact(v: &[i64]) -> bool {
    v.iter()
        .fold(true, |ok, x| ok & (x.unsigned_abs() <= F64_EXACT_INT))
}

struct Binder<'a> {
    inner: &'a Table,
    outer: &'a Table,
    outers: Vec<OuterCol<'a>>,
    /// "All finite", per inner `Float` column the filter has named.
    finite: Vec<(&'a [f64], bool)>,
    /// Every comparison so far has NaN-free operands.
    proven: bool,
    /// The widest gap of a comparison so far.
    gap: u32,
    /// Inner columns resolve to the clustered copies of this index.
    zones: Option<&'a ZoneIndex>,
}

impl<'a> Binder<'a> {
    fn new(inner: &'a Table, outer: &'a Table, zones: Option<&'a ZoneIndex>) -> Self {
        Binder {
            inner,
            outer,
            outers: Vec::new(),
            finite: Vec::new(),
            proven: true,
            gap: 0,
            zones,
        }
    }

    fn num(&mut self, e: &Expr) -> Option<(Num<'a>, Ty, Facts)> {
        Some(match e {
            Expr::Literal(Value::Float(x)) => (Num::Lit(*x), Ty::Float, Facts::of_scalar(*x)),
            Expr::Literal(Value::Int(i)) => {
                let x = *i as f64;
                (Num::Lit(x), Ty::Int, Facts::of_scalar(x))
            }
            // The index is only built over columns a proven bind found
            // finite (`BoundCount::bind`).
            Expr::Column(name) if self.zones.is_some() => {
                let clustered = self.zones?.column(name)?;
                (Num::Floats(clustered), Ty::Float, Facts::FINITE)
            }
            Expr::Column(name) => match self.inner.column_by_name(name).ok()? {
                Column::Float(v) => {
                    let seen = self.finite.iter().find(|(col, _)| std::ptr::eq(*col, &**v));
                    let finite = match seen {
                        Some(&(_, finite)) => finite,
                        None => {
                            // Not `all(is_finite)`: without the short circuit
                            // the pass vectorizes (≈ 2 µs at 8 000 rows).
                            let finite = v.iter().fold(true, |ok, x| ok & x.is_finite());
                            self.finite.push((v, finite));
                            finite
                        }
                    };
                    let facts = if finite {
                        Facts::FINITE
                    } else {
                        Facts::UNKNOWN
                    };
                    (Num::Floats(v), Ty::Float, facts)
                }
                Column::Int(v) => (Num::Ints(v), Ty::Int, Facts::FINITE),
                _ => return None,
            },
            Expr::Outer(name) => {
                let (col, ty) = match self.outer.column_by_name(name).ok()? {
                    Column::Float(v) => (OuterCol::Floats(v), Ty::Float),
                    Column::Int(v) => (OuterCol::Ints(v), Ty::Int),
                    _ => return None,
                };
                self.outers.push(col);
                (Num::Outer(self.outers.len() - 1), ty, Facts::FINITE)
            }
            Expr::Binary(op @ (BinaryOp::Add | BinaryOp::Sub), l, r) => {
                let (l, lt, lf) = self.num(l)?;
                let (r, rt, rf) = self.num(r)?;
                if lt == Ty::Int && rt == Ty::Int {
                    return None; // checked i64 arithmetic
                }
                let one_finite = (lf.finite && rf.nan_free) || (lf.nan_free && rf.finite);
                let (op, nonneg) = match op {
                    BinaryOp::Add => (NumOp::Add, lf.nonneg && rf.nonneg),
                    _ => (NumOp::Sub, false),
                };
                let facts = Facts {
                    finite: false,
                    nan_free: one_finite || nonneg,
                    nonneg,
                    // Without cancellation the relative gaps do not add;
                    // each mode's own rounding of the sum does.
                    gap: match lf.gap.max(rf.gap) {
                        0 => 0,
                        gap if nonneg => widened(gap),
                        _ => UNBOUNDED,
                    },
                    rooted: lf.rooted || rf.rooted,
                };
                (Num::Binary(op, Box::new(l), Box::new(r)), Ty::Float, facts)
            }
            Expr::Call(Func::Sqrt, args) if args.len() == 1 => {
                let (a, _, af) = self.num(&args[0])?;
                let facts = Facts {
                    finite: af.finite && af.nonneg,
                    nan_free: af.nonneg,
                    nonneg: af.nonneg,
                    // √ halves a relative gap, but turns the absolute slack
                    // of an underflowed square into its root: once only.
                    gap: match af.gap {
                        0 => 0,
                        gap if af.nonneg && !af.rooted => widened(gap.div_ceil(2)),
                        _ => UNBOUNDED,
                    },
                    rooted: af.gap != 0,
                };
                (Num::Unary(NumFn::Sqrt, Box::new(a)), Ty::Float, facts)
            }
            Expr::Call(Func::Abs, args) if args.len() == 1 => {
                let (a, ty, af) = self.num(&args[0])?;
                if ty == Ty::Int {
                    return None; // checked i64 abs, Int result
                }
                let facts = Facts {
                    nonneg: af.nan_free,
                    ..af
                };
                (Num::Unary(NumFn::Abs, Box::new(a)), Ty::Float, facts)
            }
            Expr::Call(Func::Power, args) if args.len() == 2 => {
                let (a, _, af) = self.num(&args[0])?;
                let (b, _, bf) = self.num(&args[1])?;
                let even = matches!(b, Num::Lit(e) if e.is_finite() && e % 2.0 == 0.0);
                let facts = Facts {
                    nan_free: even && af.nan_free,
                    nonneg: even && af.nan_free,
                    gap: match af.gap.max(bf.gap) {
                        0 if is_square(&b) => SQUARE_GAP,
                        0 => 0,
                        _ => UNBOUNDED,
                    },
                    ..Facts::UNKNOWN
                };
                (
                    Num::Binary(NumOp::Pow, Box::new(a), Box::new(b)),
                    Ty::Float,
                    facts,
                )
            }
            _ => return None,
        })
    }

    /// Whether an `Int`-typed node (always a leaf) holds only values that
    /// `f64` represents exactly.
    fn int_exact(&self, n: &Num<'_>) -> bool {
        match n {
            Num::Lit(x) => x.abs() < F64_EXACT_INT as f64,
            Num::Ints(v) => ints_exact(v),
            Num::Outer(slot) => match self.outers[*slot] {
                OuterCol::Ints(v) => ints_exact(v),
                OuterCol::Floats(_) => false,
            },
            _ => false,
        }
    }

    fn pred(&mut self, e: &Expr) -> Option<Pred<'a>> {
        Some(match e {
            Expr::Binary(BinaryOp::Cmp(op), l, r) => {
                let (l, lt, lf) = self.num(l)?;
                let (r, rt, rf) = self.num(r)?;
                if lt == Ty::Int && rt == Ty::Int && !(self.int_exact(&l) && self.int_exact(&r)) {
                    return None; // compared in i64 row-wise
                }
                let (proven, gap) = (lf.nan_free && rf.nan_free, lf.gap.saturating_add(rf.gap));
                self.proven &= proven;
                self.gap = self.gap.max(gap);
                Pred::Cmp {
                    op: *op,
                    l,
                    r,
                    proven,
                    guarded: gap > 0,
                }
            }
            Expr::Binary(BinaryOp::And, l, r) => {
                Pred::And(Box::new(self.pred(l)?), Box::new(self.pred(r)?))
            }
            Expr::Binary(BinaryOp::Or, l, r) => {
                Pred::Or(Box::new(self.pred(l)?), Box::new(self.pred(r)?))
            }
            Expr::Unary(UnaryOp::Not, a) => Pred::Not(Box::new(self.pred(a)?)),
            _ => return None,
        })
    }
}

/// A `COUNT(*)` subquery bound to its inner table and to the object
/// table its `Outer` references read, with the scratch one evaluating
/// thread reuses across tiles and objects.
#[derive(Debug)]
pub(crate) struct BoundCount<'a> {
    filter: Pred<'a>,
    /// The filter again over the inner table's zone index, when one can
    /// settle it (module doc, rule 6).
    zoned: Option<(&'a ZoneIndex, Pred<'a>)>,
    outers: Vec<OuterCol<'a>>,
    inner_rows: usize,
    outer_rows: usize,
    /// No comparison can meet NaN on any inner row, for any object whose
    /// outer scalars are finite.
    proven: bool,
    /// Tiles are evaluated with `POWER(·, 2)` as a multiply first (for
    /// any object whose outer scalars are finite): every comparison's
    /// gap is bounded, and one at least is not zero.
    fast: bool,
    /// Numeric lanes and byte masks, [`TILE`] entries each.
    lanes: Vec<f64>,
    masks: Vec<u8>,
    /// The current object's value per entry of `outers`.
    scalars: Vec<f64>,
    /// The current object's mixed leaves.
    mixed: Vec<usize>,
}

/// The outcome of one object's scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Counted {
    /// Rows passing the filter among the counted ones.
    pub(crate) count: i64,
    /// Inner rows the tile interpreter scanned: all of them unless the
    /// scan stopped early or zones were counted or skipped whole.
    pub(crate) visited: usize,
    /// Tiles the fast mode left uncertain, re-evaluated with `powf`.
    pub(crate) refined: usize,
}

impl<'a> BoundCount<'a> {
    /// Bind `sq` against `outer`, or decline (module doc, rule 1).
    pub(crate) fn bind(sq: &'a AggSubquery, outer: &'a Table) -> Option<Self> {
        if sq.func != AggFunc::Count {
            return None;
        }
        let expr = sq.filter.as_ref()?;
        let mut binder = Binder::new(&sq.table, outer, None);
        let filter = binder.pred(expr)?;
        let (lanes, masks) = filter.depth();
        // Rule 6: zones only serve a proven filter, so they are only built
        // for one — over columns it found finite.
        let mut names = Vec::new();
        let zoned = (binder.proven
            && binder.finite.iter().all(|&(_, finite)| finite)
            && zone_columns(expr, &mut names))
        .then(|| sq.table.zones(&names))
        .flatten()
        .and_then(|index| {
            let filter = Binder::new(&sq.table, outer, Some(index)).pred(expr)?;
            Some((index, filter))
        });
        Some(Self {
            proven: binder.proven,
            fast: (1..=GAP_MAX).contains(&binder.gap),
            lanes: vec![0.0; lanes * TILE],
            masks: vec![0; masks * TILE],
            scalars: vec![0.0; binder.outers.len()],
            mixed: Vec::new(),
            filter,
            zoned,
            outers: binder.outers,
            inner_rows: sq.table.len(),
            outer_rows: outer.len(),
        })
    }

    /// Count the inner rows passing the filter for object `outer_row`,
    /// stopping at the first tile or zone boundary where the count has
    /// reached `stop` if the filter is proven for this object. `None`:
    /// the object needs the generic path (module doc, rule 2).
    pub(crate) fn count(&mut self, outer_row: usize, stop: Option<usize>) -> Option<Counted> {
        if outer_row >= self.outer_rows {
            return None;
        }
        let mut outers_finite = true;
        for (slot, col) in self.scalars.iter_mut().zip(&self.outers) {
            *slot = match col {
                OuterCol::Floats(v) => v[outer_row],
                OuterCol::Ints(v) => v[outer_row] as f64,
            };
            outers_finite &= slot.is_finite();
        }
        let proven = self.proven && outers_finite;
        let mut scan = Scan {
            tile: Tile {
                scalars: &self.scalars,
                lo: 0,
                len: 0,
                check_all: !outers_finite,
                saw_nan: false,
                // The gaps rest on the same bind-time facts as the proof.
                fast: self.fast && outers_finite,
                unsure: false,
            },
            lanes: &mut self.lanes,
            masks: &mut self.masks,
            mixed: &mut self.mixed,
            // A count never reaches `usize::MAX`: no early exit.
            stop: stop.filter(|_| proven).unwrap_or(usize::MAX),
            count: 0,
            visited: 0,
            refined: 0,
        };
        match &self.zoned {
            Some((index, filter)) if proven => scan.zones(index, filter)?,
            _ => {
                let mut lo = 0;
                while lo < self.inner_rows && scan.count < scan.stop {
                    let len = TILE.min(self.inner_rows - lo);
                    scan.tile(&self.filter, lo, len)?;
                    lo += len;
                }
            }
        }
        Some(Counted {
            count: scan.count as i64,
            visited: scan.visited,
            refined: scan.refined,
        })
    }
}

/// Collect into `names` the inner columns `filter` reads; `false` unless
/// they are one or two and every `POWER` is a square — the filters whose
/// value range over a box rule 6 bounds.
fn zone_columns<'e>(filter: &'e Expr, names: &mut Vec<&'e str>) -> bool {
    fn walk<'e>(e: &'e Expr, names: &mut Vec<&'e str>) -> bool {
        match e {
            Expr::Column(name) => {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
                true
            }
            Expr::Literal(_) | Expr::Outer(_) => true,
            Expr::Unary(_, a) => walk(a, names),
            Expr::Binary(_, l, r) => walk(l, names) && walk(r, names),
            Expr::Call(Func::Power, args) => {
                let square = match args.get(1) {
                    Some(Expr::Literal(Value::Int(e))) => *e == 2,
                    Some(Expr::Literal(Value::Float(e))) => *e == 2.0,
                    _ => false,
                };
                square && args.iter().all(|a| walk(a, names))
            }
            Expr::Call(_, args) => args.iter().all(|a| walk(a, names)),
            Expr::Subquery(_) => false,
        }
    }
    walk(filter, names) && (1..=2).contains(&names.len())
}

/// One object's scan in progress: the tile it evaluates, the scratch,
/// and what it has counted.
struct Scan<'s> {
    tile: Tile<'s>,
    lanes: &'s mut [f64],
    masks: &'s mut [u8],
    /// Leaves whose boxes leave the filter open, in kd order.
    mixed: &'s mut Vec<usize>,
    stop: usize,
    count: usize,
    visited: usize,
    refined: usize,
}

impl Scan<'_> {
    /// Count the rows `lo..lo + len` (at most a [`TILE`]) passing
    /// `filter`; `None` when one meets NaN.
    fn tile(&mut self, filter: &Pred<'_>, lo: usize, len: usize) -> Option<()> {
        let tile = &mut self.tile;
        (tile.lo, tile.len) = (lo, len);
        tile.pred(filter, self.lanes, self.masks);
        if tile.unsure {
            // A row too close to call: this tile again, row-wise
            // arithmetic, before anything reads its mask.
            let fast = tile.fast;
            (tile.fast, tile.unsure) = (false, false);
            tile.pred(filter, self.lanes, self.masks);
            tile.fast = fast;
            self.refined += 1;
        }
        if tile.saw_nan {
            return None;
        }
        self.count += self.masks[..len]
            .iter()
            .map(|&m| usize::from(m))
            .sum::<usize>();
        self.visited += len;
        Some(())
    }

    /// Count the rows passing `filter` (bound over `index`'s clustered
    /// columns) zone by zone, until the stop bound: every zone whose box
    /// settles the filter is counted or skipped whole first, then the
    /// mixed leaves are scanned, a tile each.
    fn zones(&mut self, index: &ZoneIndex, filter: &Pred<'_>) -> Option<()> {
        self.mixed.clear();
        self.walk(index, filter, 0);
        for at in 0..self.mixed.len() {
            if self.count >= self.stop {
                break;
            }
            let leaf = &index.nodes()[self.mixed[at]];
            self.tile(filter, leaf.start, leaf.end - leaf.start)?;
        }
        Some(())
    }

    /// Count or skip the zones under kd node `node` that their boxes
    /// settle, and list its mixed leaves.
    fn walk(&mut self, index: &ZoneIndex, filter: &Pred<'_>, node: usize) {
        if self.count >= self.stop {
            return;
        }
        let zone = &index.nodes()[node];
        match filter.settle(index, zone, self.tile.scalars) {
            Some(true) => self.count += zone.end - zone.start,
            Some(false) => {}
            None if zone.right == 0 => self.mixed.push(node),
            None => {
                self.walk(index, filter, node + 1);
                self.walk(index, filter, zone.right);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Zone boxes
// ---------------------------------------------------------------------

/// A range nothing is known of: NaN ends.
const ANY: (f64, f64) = (f64::NAN, f64::NAN);

/// 2⁻⁴⁸: the relative widening of a square's ends, sixteen times the
/// 1 ulp rule 5 allows `powf`.
const SQUARE_SLACK: f64 = 1.0 / (1u64 << 48) as f64;
/// 2⁻¹⁰⁶⁰: the absolute widening, for squares below the normal range
/// (where an ulp is 2⁻¹⁰⁷⁴).
const SQUARE_FLOOR: f64 = f64::from_bits(1 << 14);

impl Num<'_> {
    /// A closed range holding this node's row-wise value on every row of
    /// `zone` (module doc, rule 6), or ends that are NaN.
    fn span(&self, index: &ZoneIndex, zone: &Zone, scalars: &[f64]) -> (f64, f64) {
        match self {
            Num::Lit(x) => (*x, *x),
            Num::Outer(slot) => (scalars[*slot], scalars[*slot]),
            Num::Floats(v) => index.slot_of(v).map_or(ANY, |c| zone.bounds[c]),
            Num::Ints(_) => ANY,
            Num::Unary(f, a) => {
                let (lo, hi) = a.span(index, zone, scalars);
                match f {
                    NumFn::Sqrt => (lo.sqrt(), hi.sqrt()),
                    NumFn::Abs => magnitude(lo, hi),
                }
            }
            Num::Binary(NumOp::Pow, a, b) if is_square(b) => {
                let (lo, hi) = a.span(index, zone, scalars);
                let (lo, hi) = magnitude(lo, hi);
                // An overflowing square is still at least `f64::MAX`
                // less its ulp; a NaN stays NaN.
                let lo = if lo * lo > f64::MAX {
                    f64::MAX
                } else {
                    lo * lo
                };
                let lo = lo - (lo * SQUARE_SLACK + SQUARE_FLOOR);
                let hi = hi * hi;
                (
                    if lo < 0.0 { 0.0 } else { lo },
                    hi + (hi * SQUARE_SLACK + SQUARE_FLOOR),
                )
            }
            Num::Binary(NumOp::Pow, ..) => ANY,
            Num::Binary(op, a, b) => {
                let ((al, ah), (bl, bh)) =
                    (a.span(index, zone, scalars), b.span(index, zone, scalars));
                match op {
                    NumOp::Add => (al + bl, ah + bh),
                    _ => (al - bh, ah - bl),
                }
            }
        }
    }
}

/// The range of `|x|` for `x` in `[lo, hi]`.
fn magnitude(lo: f64, hi: f64) -> (f64, f64) {
    if lo >= 0.0 {
        (lo, hi)
    } else if hi <= 0.0 {
        (-hi, -lo)
    } else if lo.is_nan() || hi.is_nan() {
        ANY
    } else {
        (0.0, if -lo > hi { -lo } else { hi })
    }
}

impl Pred<'_> {
    /// `Some(answer)` when every row of `zone` gives the filter the same
    /// answer, as its box proves (module doc, rule 6).
    fn settle(&self, index: &ZoneIndex, zone: &Zone, scalars: &[f64]) -> Option<bool> {
        match self {
            Pred::Cmp { op, l, r, .. } => settled(
                *op,
                l.span(index, zone, scalars),
                r.span(index, zone, scalars),
            ),
            Pred::And(a, b) => match a.settle(index, zone, scalars) {
                Some(false) => Some(false),
                first => match (first, b.settle(index, zone, scalars)) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            Pred::Or(a, b) => match a.settle(index, zone, scalars) {
                Some(true) => Some(true),
                first => match (first, b.settle(index, zone, scalars)) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            Pred::Not(a) => a.settle(index, zone, scalars).map(|b| !b),
        }
    }
}

/// The answer `x op y` gives for every `x` in `l` and `y` in `r`, if
/// they all give one; `None` for a range with a NaN end.
fn settled(op: CmpOp, l: (f64, f64), r: (f64, f64)) -> Option<bool> {
    if [l.0, l.1, r.0, r.1].iter().any(|x| x.is_nan()) {
        return None;
    }
    let fixed = |always: bool, never: bool| {
        if always {
            Some(true)
        } else if never {
            Some(false)
        } else {
            None
        }
    };
    match op {
        CmpOp::Lt => fixed(l.1 < r.0, l.0 >= r.1),
        CmpOp::Le => fixed(l.1 <= r.0, l.0 > r.1),
        CmpOp::Gt => fixed(l.0 > r.1, l.1 <= r.0),
        CmpOp::Ge => fixed(l.0 >= r.1, l.1 < r.0),
        CmpOp::Eq | CmpOp::Ne => {
            let equal = fixed(
                l.0 == l.1 && r.0 == r.1 && l.0 == r.0,
                l.1 < r.0 || r.1 < l.0,
            );
            equal.map(|e| e == (op == CmpOp::Eq))
        }
    }
}

// ---------------------------------------------------------------------
// Tile interpreter
// ---------------------------------------------------------------------

/// One operand of a loop.
#[derive(Clone, Copy)]
enum Src<'x> {
    Scalar(f64),
    Slice(&'x [f64]),
}

/// Where a numeric node's tile landed.
enum Loc<'a> {
    Scalar(f64),
    /// A window of a stored column (no copy).
    Col(&'a [f64]),
    /// The first lane of the scratch the node was given.
    Lane,
}

impl<'a> Loc<'a> {
    fn src<'x>(&self, lane: &'x [f64]) -> Src<'x>
    where
        'a: 'x,
    {
        match self {
            Loc::Scalar(x) => Src::Scalar(*x),
            Loc::Col(c) => Src::Slice(c),
            Loc::Lane => Src::Slice(lane),
        }
    }
}

struct Tile<'s> {
    scalars: &'s [f64],
    lo: usize,
    len: usize,
    /// An outer scalar is not finite: the bind-time facts do not hold.
    check_all: bool,
    saw_nan: bool,
    /// `POWER(·, 2)` is a multiply and guarded comparisons watch the band.
    fast: bool,
    /// A guarded comparison met a row it cannot call.
    unsure: bool,
}

impl Tile<'_> {
    /// Evaluate `node` over the tile; a lane result is `lanes[..len]`.
    fn num<'a>(&self, node: &Num<'a>, lanes: &mut [f64]) -> Loc<'a> {
        let len = self.len;
        match node {
            Num::Lit(x) => Loc::Scalar(*x),
            Num::Outer(slot) => Loc::Scalar(self.scalars[*slot]),
            Num::Floats(v) => Loc::Col(&v[self.lo..self.lo + len]),
            Num::Ints(v) => {
                for (x, i) in lanes[..len].iter_mut().zip(&v[self.lo..]) {
                    *x = *i as f64;
                }
                Loc::Lane
            }
            Num::Unary(f, a) => {
                let a = self.num(a, lanes);
                match f {
                    NumFn::Sqrt => map1(a, &mut lanes[..len], f64::sqrt),
                    NumFn::Abs => map1(a, &mut lanes[..len], f64::abs),
                }
            }
            Num::Binary(NumOp::Pow, a, b) if self.fast && is_square(b) => {
                let a = self.num(a, lanes);
                map1(a, &mut lanes[..len], |x| x * x)
            }
            Num::Binary(op, a, b) => {
                let a = self.num(a, lanes);
                let (dst, rest) = lanes.split_at_mut(TILE);
                let b = self.num(b, rest);
                let (dst, b) = (&mut dst[..len], b.src(&rest[..len]));
                match op {
                    NumOp::Add => map2(a, b, dst, |x, y| x + y),
                    NumOp::Sub => map2(a, b, dst, |x, y| x - y),
                    NumOp::Pow => map2(a, b, dst, f64::powf),
                }
            }
        }
    }

    /// Evaluate `node` over the tile into `masks[..len]` (1 = true).
    fn pred(&mut self, node: &Pred<'_>, lanes: &mut [f64], masks: &mut [u8]) {
        let len = self.len;
        match node {
            Pred::Cmp {
                op,
                l,
                r,
                proven,
                guarded,
            } => {
                let l = self.num(l, lanes);
                let (first, rest) = lanes.split_at_mut(TILE);
                let r = self.num(r, rest);
                let (a, b) = (l.src(&first[..len]), r.src(&rest[..len]));
                let out = &mut masks[..len];
                if self.fast && *guarded {
                    // A NaN is inside every band: the exact pass finds it.
                    self.unsure |= cmp(*op, a, b, out, too_close);
                } else if *proven && !self.check_all {
                    cmp(*op, a, b, out, |_, _| false);
                } else {
                    self.saw_nan |= cmp(*op, a, b, out, |x, y| x.is_nan() | y.is_nan());
                }
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                self.pred(a, lanes, masks);
                let (acc, rest) = masks.split_at_mut(TILE);
                self.pred(b, lanes, rest);
                let both = acc[..len].iter_mut().zip(&rest[..len]);
                if matches!(node, Pred::And(..)) {
                    both.for_each(|(x, y)| *x &= *y);
                } else {
                    both.for_each(|(x, y)| *x |= *y);
                }
            }
            Pred::Not(a) => {
                self.pred(a, lanes, masks);
                masks[..len].iter_mut().for_each(|m| *m ^= 1);
            }
        }
    }
}

/// `dst = f(a)`; a scalar stays a scalar.
#[inline]
fn map1<'a>(a: Loc<'a>, dst: &mut [f64], f: impl Fn(f64) -> f64) -> Loc<'a> {
    match a {
        Loc::Scalar(x) => return Loc::Scalar(f(x)),
        Loc::Col(c) => dst.iter_mut().zip(c).for_each(|(d, x)| *d = f(*x)),
        Loc::Lane => dst.iter_mut().for_each(|d| *d = f(*d)),
    }
    Loc::Lane
}

/// `dst = f(a, b)`, one loop per operand shape; `a` in a lane *is* `dst`.
#[inline]
fn map2<'a>(a: Loc<'a>, b: Src<'_>, dst: &mut [f64], f: impl Fn(f64, f64) -> f64) -> Loc<'a> {
    match (a, b) {
        (Loc::Scalar(x), Src::Scalar(y)) => return Loc::Scalar(f(x, y)),
        (Loc::Scalar(x), Src::Slice(ys)) => {
            dst.iter_mut().zip(ys).for_each(|(d, y)| *d = f(x, *y));
        }
        (Loc::Col(xs), Src::Scalar(y)) => {
            dst.iter_mut().zip(xs).for_each(|(d, x)| *d = f(*x, y));
        }
        (Loc::Col(xs), Src::Slice(ys)) => dst
            .iter_mut()
            .zip(xs.iter().zip(ys))
            .for_each(|(d, (x, y))| *d = f(*x, *y)),
        (Loc::Lane, Src::Scalar(y)) => dst.iter_mut().for_each(|d| *d = f(*d, y)),
        (Loc::Lane, Src::Slice(ys)) => dst.iter_mut().zip(ys).for_each(|(d, y)| *d = f(*d, *y)),
    }
    Loc::Lane
}

/// Whether the exponent node is the literal 2 (`Int` or `Float`).
fn is_square(exponent: &Num<'_>) -> bool {
    matches!(exponent, Num::Lit(e) if *e == 2.0)
}

/// Whether fast-mode operands `x`, `y` are too close for their
/// comparison to be trusted: inside the band, both under the floor, or
/// not finite (an infinite side makes both sides of the test infinite
/// or NaN, a NaN makes it false).
#[inline]
fn too_close(x: f64, y: f64) -> bool {
    let (ax, ay) = (x.abs(), y.abs());
    let larger = if ax > ay { ax } else { ay };
    !((x - y).abs() > BAND * larger && larger >= FLOOR)
}

/// `out = a op b` with the operator chosen outside the loop; returns
/// whether `flag` held for any pair of operands.
fn cmp(op: CmpOp, a: Src<'_>, b: Src<'_>, out: &mut [u8], flag: impl Fn(f64, f64) -> bool) -> bool {
    match op {
        CmpOp::Eq => cmp_with(a, b, out, |x, y| x == y, flag),
        CmpOp::Ne => cmp_with(a, b, out, |x, y| x != y, flag),
        CmpOp::Lt => cmp_with(a, b, out, |x, y| x < y, flag),
        CmpOp::Le => cmp_with(a, b, out, |x, y| x <= y, flag),
        CmpOp::Gt => cmp_with(a, b, out, |x, y| x > y, flag),
        CmpOp::Ge => cmp_with(a, b, out, |x, y| x >= y, flag),
    }
}

#[inline]
fn cmp_with(
    a: Src<'_>,
    b: Src<'_>,
    out: &mut [u8],
    f: impl Fn(f64, f64) -> bool,
    flag: impl Fn(f64, f64) -> bool,
) -> bool {
    let mut any = false;
    match (a, b) {
        (Src::Scalar(x), Src::Scalar(y)) => {
            any = flag(x, y);
            out.fill(u8::from(f(x, y)));
        }
        (Src::Slice(xs), Src::Scalar(y)) => {
            for (o, x) in out.iter_mut().zip(xs) {
                *o = u8::from(f(*x, y));
                any |= flag(*x, y);
            }
        }
        (Src::Scalar(x), Src::Slice(ys)) => {
            for (o, y) in out.iter_mut().zip(ys) {
                *o = u8::from(f(x, *y));
                any |= flag(x, *y);
            }
        }
        (Src::Slice(xs), Src::Slice(ys)) => {
            for (o, (x, y)) in out.iter_mut().zip(xs.iter().zip(ys)) {
                *o = u8::from(f(*x, *y));
                any |= flag(*x, *y);
            }
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::RowCtx;
    use crate::schema::Schema;
    use crate::table::{table_of_floats, TableBuilder};
    use crate::value::DataType;
    use crate::vector::eval_columnar;
    use std::sync::Arc;

    fn count_sq(inner: &Arc<Table>, filter: Expr) -> AggSubquery {
        AggSubquery {
            table: Arc::clone(inner),
            filter: Some(filter),
            func: AggFunc::Count,
            arg: None,
        }
    }

    #[test]
    fn proven_filter_stops_at_the_deciding_tile_and_a_late_nan_forbids_it() {
        // Every inner row passes `x >= o.x`, so `COUNT(*) < 3` is decided
        // (false) inside the first tile.
        let n = 5 * TILE + 7;
        let mut xs = vec![1.0; n];
        let outer = table_of_floats(&[("x", &[0.0, f64::INFINITY])]).unwrap();
        let filter = Expr::col("x").ge(Expr::outer("x"));
        let test = CountTest::new(CmpOp::Lt, &Value::Float(3.0), false).unwrap();
        assert_eq!(test.stop(), Some(3));

        let inner = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let sq = count_sq(&inner, filter.clone());
        let mut bound = BoundCount::bind(&sq, &outer).unwrap();
        assert!(bound.proven);
        // The root zone's box (every `x` is 1) settles the filter: the
        // whole table counts without a row scanned, stop bound or not.
        for stop in [test.stop(), None] {
            let zoned = bound.count(0, stop).unwrap();
            assert_eq!((zoned.count, zoned.visited), (n as i64, 0));
        }
        // The tile scan, as every filter the zones cannot serve takes it.
        bound.zoned = None;
        let stopped = bound.count(0, test.stop()).unwrap();
        assert_eq!(stopped.visited, TILE);
        assert!(!test.test(stopped.count));
        // Without a stop bound the same object scans everything.
        let full = bound.count(0, None).unwrap();
        assert_eq!((full.count, full.visited), (n as i64, n));
        // An infinite outer scalar voids the bind-time facts: full scan,
        // still the right count (nothing is >= +inf here).
        let inf = bound.count(1, test.stop()).unwrap();
        assert_eq!((inf.count, inf.visited), (0, n));
        // An outer row past the table is the generic path's business.
        assert_eq!(bound.count(2, None), None);

        // One NaN in the last tile: the column is no longer proven, the
        // scan visits every tile, meets the NaN and gives up — and the
        // caller reproduces the interpreter's error.
        xs[n - 2] = f64::NAN;
        let inner = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let sq = count_sq(&inner, filter);
        let mut bound = BoundCount::bind(&sq, &outer).unwrap();
        assert!(!bound.proven);
        assert_eq!(bound.count(0, test.stop()), None);
        let e = Expr::Subquery(Arc::new(sq)).lt(Expr::lit(3.0));
        let row_wise = e.eval(RowCtx::top(&outer, 0));
        assert!(matches!(
            row_wise,
            Err(crate::error::TableError::TypeMismatch { .. })
        ));
        assert_eq!(
            eval_columnar(&e, &outer, None).value_at(0).unwrap_err(),
            row_wise.unwrap_err()
        );
    }

    #[test]
    fn stop_bound_is_the_first_count_that_fixes_the_comparison() {
        let stop = |cmp, k: Value, left| CountTest::new(cmp, &k, left).unwrap().stop();
        for (k, ceil, floor1) in [
            (Value::Float(2.5), 3, 3),
            (Value::Float(2.0), 2, 3),
            (Value::Int(2), 2, 3),
            (Value::Float(0.0), 0, 1),
            (Value::Float(-1.0), 0, 0),
            (Value::Float(-0.5), 0, 0),
        ] {
            assert_eq!(stop(CmpOp::Lt, k.clone(), false), Some(ceil), "< {k:?}");
            assert_eq!(stop(CmpOp::Ge, k.clone(), false), Some(ceil), ">= {k:?}");
            assert_eq!(stop(CmpOp::Le, k.clone(), false), Some(floor1), "<= {k:?}");
            assert_eq!(stop(CmpOp::Gt, k.clone(), false), Some(floor1), "> {k:?}");
            // `k < count` is `count > k`.
            assert_eq!(stop(CmpOp::Lt, k.clone(), true), Some(floor1), "{k:?} <");
            assert_eq!(stop(CmpOp::Ge, k.clone(), true), Some(floor1), "{k:?} >=");
            assert_eq!(stop(CmpOp::Eq, k.clone(), false), None);
            assert_eq!(stop(CmpOp::Ne, k, true), None);
        }
        // Never reached, so never decided early — and every count at or
        // past a stop bound tests like the bound itself.
        assert_eq!(stop(CmpOp::Lt, Value::Float(f64::INFINITY), false), None);
        assert_eq!(stop(CmpOp::Le, Value::Int(i64::MAX), false), None);
        for cmp in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for left in [false, true] {
                let t = CountTest::new(cmp, &Value::Float(2.5), left).unwrap();
                let s = t.stop().unwrap() as i64;
                assert_ne!(t.test(s - 1), t.test(s), "{cmp:?} left={left}");
                assert_eq!(t.test(s), t.test(s + 40));
            }
        }
        // Thresholds a count does not always order against.
        assert!(CountTest::new(CmpOp::Lt, &Value::Float(f64::NAN), false).is_none());
        assert!(CountTest::new(CmpOp::Lt, &Value::str("3"), false).is_none());
        assert!(CountTest::new(CmpOp::Lt, &Value::Null, true).is_none());
    }

    #[test]
    fn squaring_with_a_multiply_counts_what_powf_counts() {
        // The service's neighbours filter: 8 000 points in the unit square
        // (a fixed LCG) at about 10 to a ball, 200 objects, k = 5 / 10 / 30
        // and the bare count.
        let (n, d) = (8_000usize, 0.02);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut coords = [vec![0.0; n], vec![0.0; n]];
        for x in coords.iter_mut().flatten() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *x = (state >> 11) as f64 / (1u64 << 53) as f64;
        }
        let square = |c: &str| Expr::outer(c).sub(Expr::col(c)).power(Expr::lit(2i64));
        let filter = square("x").add(square("y")).sqrt().le(Expr::lit(d));
        let objects: Vec<usize> = (0..200).map(|i| (i * 7919) % n).collect();
        // Tiles refined over every object and stop bound, the multiply's
        // counts held against a `powf`-only evaluation on the way.
        let refined = |[xs, ys]: &[Vec<f64>; 2]| {
            let t = Arc::new(table_of_floats(&[("x", xs), ("y", ys)]).unwrap());
            let sq = count_sq(&t, filter.clone());
            let mut fast = BoundCount::bind(&sq, &t).unwrap();
            let mut exact = BoundCount::bind(&sq, &t).unwrap();
            assert!(fast.proven && fast.fast);
            exact.fast = false;
            let mut refined = 0;
            for k in [Some(5.0), Some(10.0), Some(30.0), None] {
                let stop =
                    k.and_then(|k| CountTest::new(CmpOp::Lt, &Value::Float(k), false)?.stop());
                for &o in &objects {
                    let got = fast.count(o, stop).unwrap();
                    let want = Counted { refined: 0, ..got };
                    assert_eq!(exact.count(o, stop), Some(want), "object {o}, k = {k:?}");
                    refined += got.refined;
                }
            }
            refined
        };
        // No generated row comes within 2⁻⁴⁰ of a radius (about one in
        // 10¹² would).
        assert_eq!(refined(&coords), 0);
        // A row a rounding error from object 0's radius: the tile or zone
        // leaf holding it is evaluated again, at every stop bound.
        let o = objects[0];
        (coords[0][1], coords[1][1]) = (coords[0][o] + d, coords[1][o]);
        assert!(refined(&coords) >= 4);
    }

    #[test]
    fn zones_count_or_skip_what_their_boxes_settle_and_scan_the_rest() {
        // The skyband over 8 000 integer-valued points of an 80 × 100 grid
        // (every object on box edges), against the tile scan: the same
        // counts for every object, stop bound or not, from a fraction of
        // the rows.
        let (xs, ys): (Vec<f64>, Vec<f64>) = (0..8_000)
            .map(|i| ((i % 80) as f64, ((i * 7) % 100) as f64))
            .unzip();
        let t = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        let dominate = Expr::col("x")
            .ge(Expr::outer("x"))
            .and(Expr::col("y").ge(Expr::outer("y")))
            .and(
                Expr::col("x")
                    .gt(Expr::outer("x"))
                    .or(Expr::col("y").gt(Expr::outer("y"))),
            );
        let sq = count_sq(&t, dominate);
        let mut zoned = BoundCount::bind(&sq, &t).unwrap();
        let mut tiled = BoundCount::bind(&sq, &t).unwrap();
        tiled.zoned = None;
        assert!(zoned.zoned.is_some() && t.zone_bytes() >= 16 * t.len());
        let (mut scanned, mut full) = (0, 0);
        for stop in [None, Some(1), Some(40), Some(2_000)] {
            for o in (0..t.len()).step_by(29) {
                let (z, p) = (zoned.count(o, stop).unwrap(), tiled.count(o, stop).unwrap());
                match stop {
                    Some(s) => assert_eq!(z.count >= s as i64, p.count >= s as i64, "object {o}"),
                    None => assert_eq!(z.count, p.count, "object {o}"),
                }
                scanned += z.visited;
                full += p.visited;
            }
        }
        assert!(scanned * 4 < full, "{scanned} of {full} rows");
    }

    #[test]
    fn a_square_on_a_box_edge_is_left_to_the_rows() {
        // An `x` whose `powf(x, 2)` is not `x·x` (about one in a thousand):
        // every row sits at distance exactly `x` from the object, so the
        // one zone's box has the square as both ends. Rule 6 widens them,
        // the box settles nothing, and the rows (rule 5's guard band, then
        // `powf`) give the row-wise answer either way round.
        let two = std::hint::black_box(2.0f64);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let x = std::iter::from_fn(|| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Some(1.0 + (state >> 12) as f64 / (1u64 << 52) as f64)
        })
        .find(|x| x.powf(two) != x * x)
        .unwrap();
        let n = 600;
        let inner = Arc::new(table_of_floats(&[("x", &vec![-x; n])]).unwrap());
        let outer = table_of_floats(&[("x", &[0.0])]).unwrap();
        let square = Expr::outer("x").sub(Expr::col("x")).power(Expr::lit(2.0));
        for op in [CmpOp::Le, CmpOp::Ge] {
            let filter = Expr::Binary(
                BinaryOp::Cmp(op),
                Box::new(square.clone()),
                Box::new(Expr::lit(x * x)),
            );
            let sq = count_sq(&inner, filter.clone());
            let mut bound = BoundCount::bind(&sq, &outer).unwrap();
            assert!(bound.zoned.is_some());
            let got = bound.count(0, None).unwrap();
            let row = RowCtx {
                table: &inner,
                row: 0,
                outer: Some((&outer, 0)),
            };
            let passes = filter.eval_bool(row).unwrap();
            assert_eq!(got.count, if passes { n as i64 } else { 0 }, "{op:?}");
            assert_eq!(got.visited, n, "{op:?}");
        }
    }

    #[test]
    fn binder_takes_the_service_shapes_and_declines_the_rest() {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("y", DataType::Float),
            ("i", DataType::Int),
            ("big", DataType::Int),
            ("b", DataType::Bool),
        ])
        .unwrap();
        let mut builder = TableBuilder::new(schema);
        for (x, i) in [(0.5, 1i64), (1.5, 2), (2.5, 3)] {
            builder
                .push_row(vec![
                    Value::Float(x),
                    Value::Float(-x),
                    Value::Int(i),
                    Value::Int(i64::MAX - i),
                    Value::Bool(true),
                ])
                .unwrap();
        }
        let t = Arc::new(builder.finish().unwrap());
        let binds = |filter: Expr| {
            let sq = count_sq(&t, filter);
            BoundCount::bind(&sq, &t).map(|b| b.proven)
        };
        let fast = |filter: Expr| {
            let sq = count_sq(&t, filter);
            BoundCount::bind(&sq, &t).unwrap().fast
        };
        let dist = Expr::outer("x")
            .sub(Expr::col("x"))
            .power(Expr::lit(2.0))
            .add(Expr::outer("y").sub(Expr::col("y")).power(Expr::lit(2.0)))
            .sqrt();
        let dominate = Expr::col("x")
            .ge(Expr::outer("x"))
            .and(
                Expr::col("y")
                    .gt(Expr::outer("y"))
                    .or(Expr::col("x").ne(Expr::lit(1i64))),
            )
            .and(Expr::col("i").eq(Expr::outer("i")).not());
        assert_eq!(binds(dist.clone().le(Expr::lit(0.7))), Some(true));
        assert_eq!(binds(dominate.clone()), Some(true));
        // Bound, but not provably NaN-free: odd power under a root, a
        // difference of squares, a NaN literal.
        let cube = Expr::col("x").power(Expr::lit(3.0)).sqrt();
        assert_eq!(binds(cube.le(Expr::lit(1.0))), Some(false));
        let diff = Expr::col("x")
            .power(Expr::lit(2.0))
            .sub(Expr::col("y").power(Expr::lit(2.0)));
        assert_eq!(binds(diff.clone().lt(Expr::lit(0.0))), Some(false));
        assert_eq!(binds(Expr::col("x").lt(Expr::lit(f64::NAN))), Some(false));
        // The multiply for `POWER(·, 2)`: taken where every gap is bounded
        // (rule 5) and there is a square to take it for.
        let square = |e: Expr| Expr::col("x").sub(Expr::outer("x")).power(e);
        let ball = |e: Expr| square(e.clone()).add(square(e)).sqrt().le(Expr::lit(0.7));
        assert!(fast(dist.clone().le(Expr::lit(0.7))));
        assert!(fast(ball(Expr::lit(2i64))));
        assert!(fast(square(Expr::lit(2.0)).lt(Expr::col("y").abs())));
        assert!(fast(dist.clone().le(dist.clone().abs())));
        for exact_only in [
            // No square; an exponent that is not 2.
            dominate.clone(),
            ball(Expr::lit(2.0000000000000004)),
            ball(Expr::lit(-2.0)),
            ball(Expr::col("y")),
            // Cancellation: under `−`, or `+` with a possibly negative side.
            diff.clone().lt(Expr::lit(0.0)),
            square(Expr::lit(2.0))
                .add(Expr::col("y"))
                .lt(Expr::lit(1.0)),
            // A gapped base, a second root, and an unbounded comparison
            // beside a bounded one.
            square(Expr::lit(2.0))
                .power(Expr::lit(2.0))
                .lt(Expr::lit(1.0)),
            dist.clone().sqrt().le(Expr::lit(0.7)),
            dist.clone()
                .le(Expr::lit(0.7))
                .and(diff.clone().lt(Expr::lit(0.0))),
        ] {
            assert!(!fast(exact_only.clone()), "{exact_only}");
        }
        // Gaps grow by one per sum, up to the ceiling (a filter that deep
        // would not fit this thread's stack, so the ceiling is asked directly).
        let sum = (1..40).fold(square(Expr::lit(2.0)), |s, _| s.add(square(Expr::lit(2.0))));
        assert!(fast(sum.lt(Expr::lit(1.0))));
        assert_eq!(
            (widened(GAP_MAX - 1), widened(GAP_MAX)),
            (GAP_MAX, UNBOUNDED)
        );
        // Int vs Float compares in f64 either way; Int vs Int only when
        // every value is f64-exact.
        assert_eq!(binds(Expr::col("big").lt(Expr::col("x"))), Some(true));
        assert_eq!(binds(Expr::col("big").lt(Expr::col("i"))), None);
        assert_eq!(binds(Expr::col("i").lt(Expr::outer("big"))), None);
        assert_eq!(binds(Expr::col("i").le(Expr::lit(i64::MAX))), None);
        for declined in [
            Expr::col("x").div(Expr::col("y")).lt(Expr::lit(1.0)),
            Expr::col("x").mul(Expr::col("y")).lt(Expr::lit(1.0)),
            Expr::col("x").neg().lt(Expr::lit(1.0)),
            Expr::col("i").add(Expr::lit(1i64)).lt(Expr::lit(1.0)),
            Expr::col("i").abs().lt(Expr::lit(1.0)),
            Expr::col("b"),
            Expr::col("b").and(Expr::col("x").lt(Expr::lit(1.0))),
            Expr::lit(true),
            Expr::col("x").lt(Expr::lit("1")),
            Expr::col("x").lt(Expr::Literal(Value::Null)),
            Expr::col("nope").lt(Expr::lit(1.0)),
            Expr::col("x").lt(Expr::outer("nope")),
            Expr::col("x").add(Expr::lit(1.0)),
            Expr::Call(Func::Sqrt, vec![]).lt(Expr::lit(1.0)),
            Expr::count_where(Arc::clone(&t), Expr::col("x").lt(Expr::lit(1.0))).lt(Expr::col("x")),
        ] {
            assert_eq!(binds(declined.clone()), None, "{declined}");
        }
        // No filter, or another aggregate.
        let mut sq = count_sq(&t, Expr::col("x").lt(Expr::lit(1.0)));
        sq.func = AggFunc::Sum;
        assert!(BoundCount::bind(&sq, &t).is_none());
        sq.func = AggFunc::Count;
        sq.filter = None;
        assert!(BoundCount::bind(&sq, &t).is_none());
    }
}
