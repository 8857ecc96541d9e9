//! Property tests: the vectorized engine (`lts_table::vector`) must be
//! **result-identical** to row-wise `Expr::eval` — per row, on values
//! *and* on which rows error (including div-by-zero NULLs, integer
//! overflow, type mismatches, and errors shadowed by AND/OR
//! short-circuiting) — and the partitioned parallel scan
//! (`lts_table::partition`) must agree row-for-row with both, for
//! every partition count.

use lts_table::partition::{par_eval_bool_ids, partition_bounds, PartitionedTable};
use lts_table::vector::{eval_bool_columnar, eval_columnar, eval_columnar_sel, RowSel};
use lts_table::{
    AggFunc, BinaryOp, CmpOp, DataType, Expr, ExprPredicate, Field, ObjectPredicate, RowCtx,
    Schema, Table, TableBuilder, TableResult, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A random table over a mixed schema: two float columns (with zeros to
/// exercise div-by-zero NULLs), two int columns (with extremes to
/// exercise checked arithmetic), a bool column, and a string column.
fn arb_table() -> impl Strategy<Value = Table> {
    let float_val = prop_oneof![
        4 => -4.0f64..4.0,
        1 => Just(0.0f64),
        1 => Just(-1.5f64),
    ];
    let int_val = prop_oneof![
        4 => -5i64..5,
        1 => Just(i64::MAX),
        1 => Just(i64::MIN),
    ];
    let str_val = prop_oneof![Just("apple"), Just("banana"), Just("cherry"), Just(""),];
    proptest::collection::vec(
        (
            float_val.clone(),
            float_val,
            int_val.clone(),
            int_val,
            any::<bool>(),
            str_val,
        ),
        1..24,
    )
    .prop_map(|rows| {
        let schema = Schema::new(vec![
            Field::new("f", DataType::Float),
            Field::new("g", DataType::Float),
            Field::new("i", DataType::Int),
            Field::new("j", DataType::Int),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (f, g, i, j, bl, s) in rows {
            b.push_row(vec![
                Value::Float(f),
                Value::Float(g),
                Value::Int(i),
                Value::Int(j),
                Value::Bool(bl),
                Value::str(s),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    })
}

/// A random expression over the generated schema — all operators, all
/// type combinations (including deliberately ill-typed subtrees, NULL
/// literals, and unknown columns so the error paths are exercised).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        3 => prop_oneof![
            Just("f"), Just("g"), Just("i"), Just("j"), Just("b"), Just("s"),
        ].prop_map(Expr::col),
        1 => Just(Expr::col("missing")), // unknown column → error path
        2 => (-4.0f64..4.0).prop_map(Expr::lit),
        1 => Just(Expr::lit(0.0f64)),
        1 => prop_oneof![-5i64..5, Just(i64::MAX), Just(i64::MIN)].prop_map(Expr::lit),
        1 => any::<bool>().prop_map(Expr::lit),
        1 => Just(Expr::Literal(Value::Null)),
        1 => prop_oneof![Just("apple"), Just("pear")].prop_map(Expr::lit),
    ];
    leaf.prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.div(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.eq(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.ne(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.lt(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.le(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.gt(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.ge(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
            inner.clone().prop_map(|a| a.neg()),
            inner.clone().prop_map(|a| a.abs()),
            inner.clone().prop_map(|a| a.sqrt()),
            (inner.clone(), inner).prop_map(|(a, b)| a.power(b)),
        ]
    })
}

// ---------------------------------------------------------------------
// Generators for the bound subquery kernel
// ---------------------------------------------------------------------

/// A numeric table `f, g: Float`, `i, j: Int` of 1–3 000 rows (mostly
/// small, often two or three kernel tiles, sometimes a dozen), values
/// from a coarse grid so every comparison goes both ways and ties
/// happen, with a few NaN / ±inf / -0.0 and f64-inexact ints planted
/// at random positions — in a long table, mostly after the tile that
/// decides a small threshold.
fn arb_numeric_table(max_rows: usize) -> impl Strategy<Value = Table> {
    let rows = prop_oneof![
        4 => 1usize..40,
        3 => 200usize..800,
        1 => 800usize..3001,
    ]
    .prop_map(move |n| n.min(max_rows));
    let grid = || (-4i64..5).prop_map(|q| q as f64 * 0.5);
    let special = prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
    ];
    let big = prop_oneof![Just((1i64 << 53) + 1), Just(i64::MAX), Just(i64::MIN)];
    (
        rows,
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), special), 0..3),
        proptest::collection::vec((any::<u64>(), big), 0..2),
        grid(),
    )
        .prop_map(|(n, seed, specials, bigs, shift)| {
            // Cheap per-row values from one seed (a 3 000-element vec
            // strategy per column would dominate the test's run time).
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut f: Vec<f64> = (0..n).map(|_| (next() % 9) as f64 * 0.5 - 2.0).collect();
            let mut g: Vec<f64> = (0..n).map(|_| (next() % 9) as f64 * 0.5 + shift).collect();
            let mut i: Vec<i64> = (0..n).map(|_| (next() % 7) as i64 - 3).collect();
            let j: Vec<i64> = (0..n).map(|_| (next() % 3) as i64).collect();
            for (k, (at, v)) in specials.into_iter().enumerate() {
                let col = if k % 2 == 0 { &mut f } else { &mut g };
                col[at as usize % n] = v;
            }
            for (at, v) in bigs {
                i[at as usize % n] = v;
            }
            numeric_table(&f, &g, &i, &j)
        })
}

/// The `f, g: Float`, `i, j: Int` table over the given columns.
fn numeric_table(f: &[f64], g: &[f64], i: &[i64], j: &[i64]) -> Table {
    let schema = Schema::new(vec![
        Field::new("f", DataType::Float),
        Field::new("g", DataType::Float),
        Field::new("i", DataType::Int),
        Field::new("j", DataType::Int),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for r in 0..f.len() {
        b.push_row(vec![
            Value::Float(f[r]),
            Value::Float(g[r]),
            Value::Int(i[r]),
            Value::Int(j[r]),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

/// `x` moved `k` representable values up (`k > 0`) or down.
fn step_ulps(x: f64, k: i64) -> f64 {
    (0..k.abs()).fold(x, |x, _| if k > 0 { x.next_up() } else { x.next_down() })
}

/// `inner` with rows overwritten (at positions drawn from `seed`) by the
/// cases a multiply-for-`POWER` kernel can get wrong around object
/// `(of, og)` and radius `r`: along the `f` axis (`g = og`, so the
/// distance is the `f` difference alone) at `r` and `r ± {1, 2, 8}` ulps
/// on either side; and, each in some cases only, differences whose
/// square overflows, is subnormal or is `±0`, and NaN and `±∞`
/// coordinates.
fn plant_around(inner: &Table, (of, og): (f64, f64), r: f64, seed: u64) -> Table {
    let n = inner.len();
    let mut f = inner.floats("f").unwrap().to_vec();
    let mut g = inner.floats("g").unwrap().to_vec();
    let mut planted: Vec<(f64, f64)> = Vec::new();
    for k in [0i64, 1, -1, 2, -2, 8, -8] {
        let d = step_ulps(r, k);
        planted.push((of - d, og));
        planted.push((of + d, og));
    }
    // Not every case gets every kind: a non-finite value costs the
    // filter its proof, an overflow costs its tile the fast mode.
    if seed & 1 == 0 {
        planted.extend([(1e200, og), (of, -1e200)]);
    }
    if seed & 2 == 0 {
        planted.extend([(of + 1e-160, og), (of, og - 3e-162), (of, og), (-0.0, -0.0)]);
    }
    if seed & 12 == 0 {
        planted.extend([(f64::NAN, og), (of, f64::INFINITY), (f64::NEG_INFINITY, og)]);
    }
    let mut state = seed | 1;
    for (pf, pg) in planted {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Mostly early rows: inside the tile that decides a small threshold.
        let at = if state.is_multiple_of(3) {
            state >> 8
        } else {
            (state >> 8) % 64
        } as usize
            % n;
        (f[at], g[at]) = (pf, pg);
    }
    numeric_table(&f, &g, inner.ints("i").unwrap(), inner.ints("j").unwrap())
}

/// A well-typed numeric expression over the inner row and the outer
/// object: the shapes the kernel binds, plus a few (`*`, `/`, unary
/// minus, `Int ± Int`) it must decline.
fn arb_numeric() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        4 => prop_oneof![Just("f"), Just("g")].prop_map(Expr::col),
        2 => prop_oneof![Just("i"), Just("j")].prop_map(Expr::col),
        4 => prop_oneof![Just("f"), Just("g")].prop_map(Expr::outer),
        1 => prop_oneof![Just("i"), Just("j")].prop_map(Expr::outer),
        3 => (-4i64..5).prop_map(|q| Expr::lit(q as f64 * 0.5)),
        1 => (-3i64..4).prop_map(Expr::lit),
        1 => prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(-0.0f64)].prop_map(Expr::lit),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            4 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            3 => (inner.clone(), prop_oneof![Just(2.0f64), Just(3.0), Just(0.5), Just(-2.0)])
                .prop_map(|(a, e)| a.power(Expr::lit(e))),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.power(b)),
            2 => inner.clone().prop_map(|a| a.sqrt()),
            2 => inner.clone().prop_map(|a| a.abs()),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.div(b)),
            1 => inner.prop_map(|a| a.neg()),
        ]
    })
}

fn arb_cmp_op() -> BoxedStrategy<CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
    .boxed()
}

fn cmp_expr(op: CmpOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary(BinaryOp::Cmp(op), Box::new(l), Box::new(r))
}

/// A random comparison tree over [`arb_numeric`] operands.
fn arb_cmp_tree() -> BoxedStrategy<Expr> {
    let cmp = (arb_cmp_op(), arb_numeric(), arb_numeric())
        .prop_map(|(op, l, r)| cmp_expr(op, l, r))
        .boxed();
    cmp.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            1 => inner.prop_map(|a| a.not()),
        ]
    })
    .boxed()
}

/// The skyband's dominance filter over `f, g`.
fn skyband() -> Expr {
    Expr::col("f")
        .ge(Expr::outer("f"))
        .and(Expr::col("g").ge(Expr::outer("g")))
        .and(
            Expr::col("f")
                .gt(Expr::outer("f"))
                .or(Expr::col("g").gt(Expr::outer("g"))),
        )
}

/// A ball of radius `r` around the object over `f, g`, with exponent `e`
/// for the squares, in one of four shapes: a difference of squares
/// (`0`), the sum of squares against `r²` (`1`), `r` against the root on
/// the left (`2`), the root `<= r` (any other).
fn ball(e: Expr, r: f64, op: CmpOp, shape: usize) -> Expr {
    let df = Expr::outer("f").sub(Expr::col("f")).power(e.clone());
    let dg = Expr::outer("g").sub(Expr::col("g")).power(e);
    match shape {
        0 => cmp_expr(op, df.sub(dg), Expr::lit(r)),
        1 => cmp_expr(op, df.add(dg), Expr::lit(r * r)),
        2 => cmp_expr(op, Expr::lit(r), df.add(dg).sqrt()),
        _ => df.add(dg).sqrt().le(Expr::lit(r)),
    }
}

/// Ball radii from 0 through the grid to ones whose squares underflow
/// or overflow.
fn arb_radius() -> BoxedStrategy<f64> {
    prop_oneof![
        6 => (0i64..7).prop_map(|d| d as f64 * 0.5),
        1 => Just(1e-160),
        1 => Just(1e200),
    ]
    .boxed()
}

/// A boolean filter over [`arb_numeric`] operands — random comparison
/// trees, and the two shapes the service asks (skyband dominance, a
/// Euclidean ball) — with the radius when it is ball-shaped. The ball
/// comes with every exponent the kernel must tell apart (a `Float` or an
/// `Int` 2 it may square; the next `f64` after 2 and `−2`, which stay on
/// `powf`), and as a difference of squares, whose cancellation rules the
/// multiply out altogether.
fn arb_numeric_filter() -> BoxedStrategy<(Expr, Option<f64>)> {
    let exponent = prop_oneof![
        4 => Just(Expr::lit(2.0)),
        2 => Just(Expr::lit(2i64)),
        1 => Just(Expr::lit(2.0000000000000004)),
        1 => Just(Expr::lit(-2.0)),
    ];
    let ball = (exponent, arb_radius(), arb_cmp_op(), 0usize..8)
        .prop_map(|(e, r, op, shape)| (ball(e, r, op, shape), Some(r)));
    prop_oneof![
        6 => arb_cmp_tree().prop_map(|e| (e, None)),
        2 => Just((skyband(), None)),
        3 => ball,
    ]
    .boxed()
}

/// The thresholds of `COUNT(*) cmp k` on an `n`-row inner table: below,
/// at and between the possible counts, at and past `n`, NaN.
fn thresholds(n: usize) -> [Value; 9] {
    [
        Value::Float(-1.0),
        Value::Float(0.0),
        Value::Float(1.0),
        Value::Int(1),
        Value::Float(2.5),
        Value::Float(n as f64),
        Value::Int(n as i64),
        Value::Float(n as f64 + 1.0),
        Value::Float(f64::NAN),
    ]
}

/// A table for the zone path: `f, g` integer-valued half-steps from a
/// grid of random width with both zeros (`-0.0` and `0.0`), so rows
/// repeat and the objects — rows of the same table — sit on kd-box
/// edges; `i, j` small ints. Mostly 200–3 000 rows: several kd levels.
fn arb_zoned_table() -> impl Strategy<Value = Table> {
    let rows = prop_oneof![1 => 1usize..200, 3 => 200usize..3001];
    (rows, any::<u64>(), 1u64..12).prop_map(|(n, seed, width)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut half = || {
            let r = next();
            let x = (r % (2 * width + 1)) as f64 * 0.5 - width as f64 * 0.5;
            if x == 0.0 && r & (1 << 40) != 0 {
                -0.0
            } else {
                x
            }
        };
        let f: Vec<f64> = (0..n).map(|_| half()).collect();
        let g: Vec<f64> = (0..n).map(|_| half()).collect();
        let i: Vec<i64> = (0..n).map(|k| (k % 7) as i64 - 3).collect();
        let j: Vec<i64> = (0..n).map(|k| (k % 3) as i64).collect();
        numeric_table(&f, &g, &i, &j)
    })
}

/// A filter for the zone path, and whether the zones must serve it on a
/// finite table: the skyband and the balls the kd boxes can bound (a
/// square exponent, no difference of squares) must; of a random tree
/// or another ball nothing is promised.
fn arb_zoned_filter() -> BoxedStrategy<(Expr, Option<f64>, bool)> {
    let square = prop_oneof![Just(Expr::lit(2.0)), Just(Expr::lit(2i64))];
    let round = (square, arb_radius(), arb_cmp_op(), 1usize..8)
        .prop_map(|(e, r, op, shape)| (ball(e, r, op, shape), Some(r), true));
    let other = (
        prop_oneof![
            Just(Expr::lit(2.0)),
            Just(Expr::lit(-2.0)),
            Just(Expr::lit(0.5))
        ],
        arb_radius(),
        arb_cmp_op(),
        0usize..2,
    )
        .prop_map(|(e, r, op, shape)| (ball(e, r, op, shape), Some(r), false));
    prop_oneof![
        3 => Just((skyband(), None, true)),
        4 => round,
        1 => other,
        3 => arb_cmp_tree().prop_map(|e| (e, None, false)),
    ]
    .boxed()
}

// ---------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------

/// Structural result equality. `Value`'s own `PartialEq` is SQL
/// equality (NULL ≠ NULL, 1 == 1.0), which is wrong for checking that
/// two evaluators produced the *same* result.
fn same_result(a: &TableResult<Value>, b: &TableResult<Value>) -> bool {
    match (a, b) {
        (Ok(Value::Null), Ok(Value::Null)) => true,
        (Ok(Value::Float(x)), Ok(Value::Float(y))) => (x.is_nan() && y.is_nan()) || x == y,
        (Ok(x), Ok(y)) => format!("{x:?}") == format!("{y:?}"),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn assert_rows_agree(e: &Expr, table: &Table) -> Result<(), TestCaseError> {
    let batch = eval_columnar(e, table, None);
    prop_assert_eq!(batch.len(), table.len());
    for row in 0..table.len() {
        let rw = e.eval(RowCtx::top(table, row));
        let vc = batch.value_at(row);
        prop_assert!(
            same_result(&rw, &vc),
            "row {}: `{}`\n  row-wise:   {:?}\n  vectorized: {:?}",
            row,
            e,
            rw,
            vc
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full-table agreement: every row's value *and* every row's error.
    #[test]
    fn vectorized_agrees_with_row_wise(table in arb_table(), e in arb_expr()) {
        assert_rows_agree(&e, &table)?;
    }

    /// Selection-vector agreement, including duplicates and
    /// out-of-range row ids, against a literal per-row loop — and the
    /// boolean collapse propagates exactly the first error in order.
    #[test]
    fn selection_and_bool_collapse_agree(
        table in arb_table(),
        e in arb_expr(),
        picks in proptest::collection::vec(0usize..40, 0..32),
    ) {
        let idxs: Vec<usize> = picks; // may exceed table.len() → error rows
        let batch = eval_columnar(&e, &table, Some(&idxs));
        prop_assert_eq!(batch.len(), idxs.len());
        for (k, &i) in idxs.iter().enumerate() {
            // Out-of-range ids error per row through column access on
            // both paths.
            let rw = e.eval(RowCtx::top(&table, i));
            let vc = batch.value_at(k);
            prop_assert!(
                same_result(&rw, &vc),
                "pick {} (row {}): `{}`\n  row-wise:   {:?}\n  vectorized: {:?}",
                k, i, e, rw, vc
            );
        }
        // eval_bool_columnar ≡ the default ObjectPredicate::eval_batch
        // loop (first error in index order, NULL → false).
        let row_wise: TableResult<Vec<bool>> = idxs
            .iter()
            .map(|&i| e.eval_bool(RowCtx::top(&table, i)))
            .collect();
        let vectorized = eval_bool_columnar(&e, &table, Some(&idxs));
        prop_assert_eq!(&vectorized, &row_wise, "`{}`", e);
    }

    /// A chunked scan agrees row-for-row — values, NULL rows, and error
    /// rows — with both the one-chunk vectorized path and the
    /// interpreted evaluator, for every chunk count (including
    /// degenerate ones: more chunks than rows), and the pinned-count
    /// driver collapses to the same labels, count and first error — on
    /// a random expression and on the oracle's own shape, a correlated
    /// `COUNT(*) … < k` over the same table.
    #[test]
    fn partitioned_scan_agrees_with_serial_and_interpreted(
        table in arb_table(),
        e in arb_expr(),
        parts in 1usize..9,
        k in 0i64..6,
    ) {
        let shared = Arc::new(table);
        let dominated = Expr::col("f").ge(Expr::outer("f"));
        let counted = Expr::count_where(Arc::clone(&shared), dominated).lt(Expr::lit(k));
        for e in [&e, &counted] {
            let serial = eval_columnar(e, &shared, None);
            let bounds = partition_bounds(shared.len(), parts);
            prop_assert_eq!(bounds.len(), parts + 1);
            prop_assert_eq!((bounds[0], bounds[parts]), (0, shared.len()));
            for (p, w) in bounds.windows(2).enumerate() {
                let sel = RowSel::Range { start: w[0], end: w[1] };
                let batch = eval_columnar_sel(e, &shared, sel);
                prop_assert_eq!(batch.len(), w[1] - w[0], "partition {} length", p);
                for k in 0..batch.len() {
                    let row = w[0] + k;
                    let rw = e.eval(RowCtx::top(&shared, row));
                    let vc = serial.value_at(row);
                    let pc = batch.value_at(k);
                    prop_assert!(
                        same_result(&rw, &pc),
                        "parts {} partition {} local row {} (global {}): `{}`\n  row-wise:    {:?}\n  partitioned: {:?}",
                        parts, p, k, row, e, rw, pc
                    );
                    prop_assert!(
                        same_result(&vc, &pc),
                        "parts {} global row {}: `{}`\n  serial:      {:?}\n  partitioned: {:?}",
                        parts, row, e, vc, pc
                    );
                }
            }
            // Boolean collapse: identical labels and identical first error.
            let pt = PartitionedTable::new(Arc::clone(&shared), parts);
            let serial_bool = eval_bool_columnar(e, &shared, None);
            prop_assert_eq!(&pt.par_eval_bool(e), &serial_bool, "`{}`", e);
            // Count: identical value and identical error.
            let serial_count = serial_bool.map(|m| m.iter().filter(|&&l| l).count());
            prop_assert_eq!(pt.par_count(e), serial_count, "`{}`", e);
        }
    }

    /// The chunked id-list scan (the `ExprPredicate::eval_batch` fast
    /// path) agrees with the serial selection-vector scan for random id
    /// lists — duplicates and out-of-range ids included.
    #[test]
    fn partitioned_id_scan_agrees_with_serial(
        table in arb_table(),
        e in arb_expr(),
        picks in proptest::collection::vec(0usize..40, 0..48),
    ) {
        let serial = eval_bool_columnar(&e, &table, Some(&picks));
        prop_assert_eq!(par_eval_bool_ids(&e, &table, &picks), serial, "`{}`", e);
    }

    /// Correlated aggregate subqueries: the vectorized inner scan must
    /// agree with the interpreted nested loop for every aggregate
    /// function, filter shape, and error case.
    #[test]
    fn subquery_vectorization_agrees(
        table in arb_table(),
        filter in arb_expr(),
        func in prop_oneof![
            Just(AggFunc::Count),
            Just(AggFunc::Sum),
            Just(AggFunc::Avg),
            Just(AggFunc::Min),
            Just(AggFunc::Max),
        ],
        with_arg in any::<bool>(),
        k in -3i64..6,
    ) {
        let shared = Arc::new(table);
        let arg = if with_arg { Some(Expr::col("f").add(Expr::col("i"))) } else { None };
        let sub = Expr::subquery(Arc::clone(&shared), Some(filter), func, arg);
        let e = sub.ge(Expr::lit(k));
        assert_rows_agree(&e, &shared)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bound, tiled subquery kernel: `COUNT(*) cmp k` over numeric
    /// filters with outer references, inner tables that span several
    /// tiles, NaN / ±inf / -0.0 in storage and in the object row, every
    /// comparison with the literal on either side; under a ball-shaped
    /// filter, inner rows planted on and within ulps of the radius and
    /// where a square leaves the normal range. Per outer row the
    /// value or error must equal row-wise `Expr::eval` — through the
    /// columnar engine, `ExprPredicate` and the chunked id scan, over
    /// ids with duplicates and ids past the object table.
    #[test]
    fn bound_subquery_kernel_agrees_with_row_wise(
        inner in arb_numeric_table(3000),
        outer in arb_numeric_table(6),
        (filter, radius) in arb_numeric_filter(),
        op in arb_cmp_op(),
        literal_left in any::<bool>(),
        k_pick in 0usize..9,
        picks in proptest::collection::vec(0usize..9, 1..14),
        plant_seed in any::<u64>(),
    ) {
        let n = inner.len();
        let inner = match radius {
            Some(r) => {
                let o = picks[0] % outer.len();
                let at = (outer.floats("f").unwrap()[o], outer.floats("g").unwrap()[o]);
                plant_around(&inner, at, r, plant_seed)
            }
            None => inner,
        };
        let inner = Arc::new(inner);
        let k = thresholds(n)[k_pick].clone();
        let sub = Expr::count_where(Arc::clone(&inner), filter);
        let e = if literal_left {
            cmp_expr(op, Expr::Literal(k), sub.clone())
        } else {
            cmp_expr(op, sub.clone(), Expr::Literal(k))
        };
        // Values and errors, row by row, for the threshold form and for
        // the bare count.
        for expr in [&e, &sub] {
            let batch = eval_columnar(expr, &outer, Some(&picks));
            for (at, &row) in picks.iter().enumerate() {
                let rw = expr.eval(RowCtx::top(&outer, row));
                let vc = batch.value_at(at);
                prop_assert!(
                    same_result(&rw, &vc),
                    "pick {} (outer row {}, {} inner rows): `{}`\n  row-wise:   {:?}\n  vectorized: {:?}",
                    at, row, n, expr, rw, vc
                );
            }
        }
        // Labels with the first error in id order.
        let row_wise: TableResult<Vec<bool>> = picks
            .iter()
            .map(|&row| e.eval_bool(RowCtx::top(&outer, row)))
            .collect();
        let p = ExprPredicate::new("q", e.clone());
        prop_assert_eq!(&p.eval_batch(&outer, &picks), &row_wise, "`{}`", e);
        prop_assert_eq!(&par_eval_bool_ids(&e, &outer, &picks), &row_wise, "`{}`", e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The kernel's zone path (`lts_table::bound`, rule 6): `COUNT(*) cmp
    /// k` over a self-join whose inner table is finite, full of duplicates,
    /// both zeros and integer-valued floats, the objects on kd-box edges,
    /// rows planted on and within ulps of a ball's radius (inside the
    /// guard band of rule 5's multiply); every comparison, the literal
    /// on either side, thresholds that stop the scan early and ones that
    /// never do (`=`, `<>`, the bare count). Counts and labels must equal
    /// row-wise `Expr::eval` — and the zones must have been built for the
    /// skyband and the square balls. With a NaN or an infinity in both
    /// columns no zone index is built, and the kernel still agrees.
    #[test]
    fn bound_subquery_zones_agree_with_row_wise(
        table in arb_zoned_table(),
        (filter, radius, zoned) in arb_zoned_filter(),
        op in arb_cmp_op(),
        literal_left in any::<bool>(),
        k_pick in 0usize..9,
        picks in proptest::collection::vec(any::<usize>(), 1..12),
        plant_seed in any::<u64>(),
        special in prop_oneof![
            3 => Just(None),
            1 => prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
                .prop_map(Some),
        ],
    ) {
        let n = table.len();
        let picks: Vec<usize> = picks.iter().map(|p| p % n).collect();
        let table = match radius {
            // `| 4`: no non-finite value among the planted rows.
            Some(r) => {
                let o = picks[0];
                let at = (table.floats("f").unwrap()[o], table.floats("g").unwrap()[o]);
                plant_around(&table, at, r, plant_seed | 4)
            }
            None => table,
        };
        let table = match special {
            Some(v) => {
                let (mut f, mut g) = (table.floats("f").unwrap().to_vec(), table.floats("g").unwrap().to_vec());
                f[plant_seed as usize % n] = v;
                g[(plant_seed >> 32) as usize % n] = v;
                numeric_table(&f, &g, table.ints("i").unwrap(), table.ints("j").unwrap())
            }
            None => table,
        };
        let inner = Arc::new(table);
        let k = thresholds(n)[k_pick].clone();
        let sub = Expr::count_where(Arc::clone(&inner), filter);
        let e = if literal_left {
            cmp_expr(op, Expr::Literal(k), sub.clone())
        } else {
            cmp_expr(op, sub.clone(), Expr::Literal(k))
        };
        for expr in [&e, &sub] {
            let batch = eval_columnar(expr, &inner, Some(&picks));
            for (at, &row) in picks.iter().enumerate() {
                let rw = expr.eval(RowCtx::top(&inner, row));
                let vc = batch.value_at(at);
                prop_assert!(
                    same_result(&rw, &vc),
                    "pick {} (object {}, {} rows): `{}`\n  row-wise:   {:?}\n  vectorized: {:?}",
                    at, row, n, expr, rw, vc
                );
            }
        }
        let row_wise: TableResult<Vec<bool>> = picks
            .iter()
            .map(|&row| e.eval_bool(RowCtx::top(&inner, row)))
            .collect();
        prop_assert_eq!(&par_eval_bool_ids(&e, &inner, &picks), &row_wise, "`{}`", e);
        let p = ExprPredicate::new("q", e.clone());
        prop_assert_eq!(&p.eval_batch(&inner, &picks), &row_wise, "`{}`", e);
        // Which path answered.
        if special.is_some() {
            prop_assert_eq!(inner.zone_bytes(), 0, "`{}`", e);
        } else if zoned {
            prop_assert!(inner.zone_bytes() >= 16 * n, "`{}`", e);
        }
    }
}

/// The libm assumption behind the bound kernel's multiply for
/// `POWER(·, 2)` (`lts_table::bound`, rule 5: `SQUARE_GAP` = 2), on this
/// host: `powf(x, 2.0)` is within 2 ulps of `x·x` — mantissas from an
/// LCG, exponents across ±500 (squares stay normal), the exponent opaque
/// so that `powf` is the library call the kernel makes and not a
/// compile-time `x * x`.
#[test]
fn powf_of_two_is_within_the_band() {
    let two = std::hint::black_box(2.0f64);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let (mut worst, mut differ) = (0u64, 0u32);
    for _ in 0..1_000_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mantissa = 1.0 + (state >> 12) as f64 / (1u64 << 52) as f64;
        let exponent = ((state >> 3) % 1001) as i32 - 500;
        let x = mantissa * f64::from(exponent).exp2() * if state & 1 == 0 { 1.0 } else { -1.0 };
        let ulps = x.powf(two).to_bits().abs_diff((x * x).to_bits());
        worst = worst.max(ulps);
        differ += u32::from(ulps != 0);
    }
    // (0.09 % of draws differ on glibc 2.3x, by one ulp: the band is not
    // there for nothing.)
    println!("powf(x, 2) != x*x for {differ} of 1 000 000 draws, at most {worst} ulp(s)");
    assert!(worst <= 2, "powf(x, 2) is {worst} ulps from x·x");
}
