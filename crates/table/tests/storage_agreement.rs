//! Property tests: the out-of-core paged scan (`lts_table::storage`)
//! must be **bit-identical** to the in-RAM partitioned scan — labels,
//! NULL handling, and first-error-in-row-order alike — for every page
//! size, partition count, and buffer-pool size (including an
//! adversarially tiny pool that forces an eviction on nearly every
//! fault), with zone-map skipping on or off.

use lts_table::{
    AggFunc, DataType, Expr, Field, PagedTable, PartitionedTable, Schema, Table, TableBuilder,
    Value,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Generators (the vector_agreement schema, compacted)
// ---------------------------------------------------------------------

/// A random mixed-schema table: floats (with zeros and a NaN-free
/// negative), ints (with overflow extremes), bools, and strings.
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
    let str_val = prop_oneof![Just("apple"), Just("banana"), Just("")];
    proptest::collection::vec(
        (
            float_val.clone(),
            float_val,
            int_val,
            any::<bool>(),
            str_val,
        ),
        1..32,
    )
    .prop_map(|rows| {
        let schema = Schema::new(vec![
            Field::new("f", DataType::Float),
            Field::new("g", DataType::Float),
            Field::new("i", DataType::Int),
            Field::new("b", DataType::Bool),
            Field::new("s", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (f, g, i, bl, s) in rows {
            b.push_row(vec![
                Value::Float(f),
                Value::Float(g),
                Value::Int(i),
                Value::Bool(bl),
                Value::str(s),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    })
}

/// A random expression over that schema — comparisons (the zone-map
/// shapes), arithmetic (error paths: div-by-zero NULLs, overflow),
/// booleans, ill-typed subtrees, and an unknown column.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        3 => prop_oneof![Just("f"), Just("g"), Just("i"), Just("b"), Just("s")]
            .prop_map(Expr::col),
        1 => Just(Expr::col("missing")), // unknown column → error path
        2 => (-4.0f64..4.0).prop_map(Expr::lit),
        1 => prop_oneof![-5i64..5, Just(i64::MAX)].prop_map(Expr::lit),
        1 => any::<bool>().prop_map(Expr::lit),
        1 => Just(Expr::Literal(Value::Null)),
        1 => Just(Expr::lit("apple")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.div(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.eq(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.lt(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.le(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.gt(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.ge(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
            inner.clone().prop_map(|a| a.sqrt()),
        ]
    })
}

/// A unique scratch directory per proptest case (cases run within one
/// process; the counter keeps shrink replays isolated too).
fn fresh_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let k = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("lts_storage_agreement_{}_{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole-table scans: `PagedTable::par_eval_bool` / `par_count`
    /// agree with the in-RAM `PartitionedTable` on labels *and* on the
    /// surfaced error, for every page size × partition count × pool
    /// size (pool = 1 is the adversarial always-evicting cache), with
    /// zone skipping on and off.
    #[test]
    fn paged_scan_is_bit_identical_to_inram(
        table in arb_table(),
        e in arb_expr(),
        page_rows in 1usize..17,
        parts in 1usize..7,
        pool in prop_oneof![2 => Just(1usize), 3 => 2usize..12],
        zone in any::<bool>(),
    ) {
        let dir = fresh_dir();
        PagedTable::create(&dir, &table, page_rows).unwrap();
        let paged = PagedTable::open(&dir, pool)
            .unwrap()
            .with_zone_skipping(zone);
        let shared = Arc::new(table);
        let pt = PartitionedTable::new(Arc::clone(&shared), parts);
        prop_assert_eq!(
            &paged.par_eval_bool(&e),
            &pt.par_eval_bool(&e),
            "page_rows {} pool {} zone {}: `{}`",
            page_rows, pool, zone, e
        );
        prop_assert_eq!(paged.par_count(&e), pt.par_count(&e), "`{}`", e);
        // A second scan over the now-warm (or still-thrashing) pool
        // must not diverge from the first.
        prop_assert_eq!(&paged.par_eval_bool(&e), &pt.par_eval_bool(&e), "rescan `{}`", e);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Correlated aggregate subqueries (the paper's query shape): the
    /// page-local evaluation must agree with the in-RAM scan — the
    /// subquery's inner table is embedded in the expression, so paging
    /// the outer table must not change any count.
    #[test]
    fn paged_subquery_scan_agrees(
        table in arb_table(),
        filter in arb_expr(),
        func in prop_oneof![Just(AggFunc::Count), Just(AggFunc::Sum), Just(AggFunc::Min)],
        k in -3i64..6,
        page_rows in 1usize..9,
    ) {
        let shared = Arc::new(table);
        let sub = Expr::subquery(Arc::clone(&shared), Some(filter), func, None);
        let e = sub.ge(Expr::lit(k));
        let dir = fresh_dir();
        PagedTable::create(&dir, &shared, page_rows).unwrap();
        let paged = PagedTable::open(&dir, 3).unwrap();
        let pt = PartitionedTable::new(Arc::clone(&shared), 3);
        prop_assert_eq!(&paged.par_eval_bool(&e), &pt.par_eval_bool(&e), "`{}`", e);
        std::fs::remove_dir_all(&dir).ok();
    }
}
