//! The [`Snapshot`] delta algebra under real concurrency.
//!
//! `ScanSnapshot` and `BufferSnapshot` are read off table-wide atomics,
//! so concurrent scans interleave arbitrarily in the raw counters. The
//! contract that survives interleaving is the *algebra*:
//!
//! * `before.merge(&after.delta(&before)) == after` for monotone
//!   counters (merge inverts delta),
//! * deltas of adjacent spans merge to the delta of the enclosing
//!   span, and
//! * the concurrent-phase delta totals are exact even though the
//!   hit/miss *split* is interleaving-dependent: every scan touches
//!   every page exactly once (evaluated or zone-skipped), and every
//!   evaluated page costs a fixed number of buffer accesses.

use lts_table::{
    parse_condition, DataType, Field, PagedTable, Schema, Snapshot as _, Table, TableBuilder,
    TableRegistry, Value,
};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lts_snapshot_delta_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// 640 rows of a single int column, paged 64 rows each → 10 pages.
fn open_table(tag: &str, pool_pages: usize) -> PagedTable {
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]).unwrap();
    let mut b = TableBuilder::new(schema);
    for i in 0..640i64 {
        b.push_row(vec![Value::Int(i)]).unwrap();
    }
    let table: Table = b.finish().unwrap();
    let dir = temp_dir(tag);
    PagedTable::create(&dir, &table, 64).unwrap();
    PagedTable::open(&dir, pool_pages).unwrap()
}

#[test]
fn merge_inverts_delta_and_adjacent_spans_compose() {
    let t = open_table("compose", 4);
    // `x < 1000` is true everywhere: zone maps prove nothing, every
    // page is evaluated.
    let expr = parse_condition("x < 1000", &TableRegistry::new()).unwrap();

    let s0 = t.scan_snapshot();
    let b0 = t.buffer_snapshot();
    t.par_count(&expr).unwrap();
    let s1 = t.scan_snapshot();
    let b1 = t.buffer_snapshot();
    t.par_count(&expr).unwrap();
    t.par_count(&expr).unwrap();
    let s2 = t.scan_snapshot();

    // merge inverts delta on the real counters.
    assert_eq!(s0.merge(&s1.delta(&s0)), s1);
    assert_eq!(s1.merge(&s2.delta(&s1)), s2);
    assert_eq!(b0.hits + b1.delta(&b0).hits, b1.hits);
    assert_eq!(b0.misses + b1.delta(&b0).misses, b1.misses);

    // Adjacent spans compose: delta(0→1) ⊕ delta(1→2) == delta(0→2).
    assert_eq!(s1.delta(&s0).merge(&s2.delta(&s1)), s2.delta(&s0));

    // One scan = 10 evaluated pages; the second span holds two scans.
    assert_eq!(s1.delta(&s0).pages_evaluated, 10);
    assert_eq!(s2.delta(&s1).pages_evaluated, 20);
    assert_eq!(s2.delta(&s1).pages_skipped, 0);
}

#[test]
fn zone_skips_partition_the_page_count() {
    let t = open_table("skip", 4);
    // Only the first page (rows 0..64) can contain x < 10: nine of the
    // ten pages are provably false and skipped.
    let expr = parse_condition("x < 10", &TableRegistry::new()).unwrap();
    let s0 = t.scan_snapshot();
    assert_eq!(t.par_count(&expr).unwrap(), 10);
    let d = t.scan_snapshot().delta(&s0);
    assert_eq!(d.pages_evaluated, 1);
    assert_eq!(d.pages_skipped, 9);
    assert_eq!(d.pages_evaluated + d.pages_skipped, t.n_pages() as u64);
}

#[test]
fn concurrent_scan_deltas_total_exactly() {
    const THREADS: usize = 8;
    const SCANS_PER_THREAD: usize = 5;

    // A pool smaller than the table (4 < 10 pages) so concurrent scans
    // genuinely contend: evictions happen, and whether a given access
    // hits or misses depends on interleaving.
    let t = Arc::new(open_table("concurrent", 4));
    let expr = Arc::new(parse_condition("x < 1000", &TableRegistry::new()).unwrap());

    let s0 = t.scan_snapshot();
    let b0 = t.buffer_snapshot();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let t = Arc::clone(&t);
            let expr = Arc::clone(&expr);
            std::thread::spawn(move || {
                for _ in 0..SCANS_PER_THREAD {
                    assert_eq!(t.par_count(&expr).unwrap(), 640);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let sd = t.scan_snapshot().delta(&s0);
    let bd = t.buffer_snapshot().delta(&b0);

    // Page totals are exact under any interleaving: every scan touches
    // every page exactly once.
    let scans = (THREADS * SCANS_PER_THREAD) as u64;
    assert_eq!(sd.pages_evaluated, scans * t.n_pages() as u64);
    assert_eq!(sd.pages_skipped, 0);

    // The hit/miss *split* is interleaving-dependent, but the *sum* is
    // pinned: one buffer access per (referenced column, evaluated
    // page), and this expression references one column.
    assert_eq!(bd.hits + bd.misses, sd.pages_evaluated);
    // With a 4-page pool scanning 10 pages, evictions must occur and
    // never exceed the miss count (every eviction made room for one).
    assert!(bd.evictions > 0);
    assert!(bd.evictions <= bd.misses);
}
