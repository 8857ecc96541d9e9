//! The parallel scan driver for in-RAM tables.
//!
//! A scan covers a row selection ([`RowSel`]: the whole table, a row
//! range, or an id list). **One driver** splits the selection into `n`
//! near-equal contiguous chunks by [`partition_bounds`], evaluates each
//! chunk with the vectorized kernels of [`crate::vector`] on a worker
//! (via the vendored rayon shim; contiguous chunks borrow column
//! storage zero-copy as [`RowSel::Range`]) and merges the labels in
//! chunk order. **One rule** (`chunks_for`) picks `n` from the
//! expression and the number of rows scanned. Every entry point —
//! [`PartitionedTable::par_eval_bool`] / [`par_count`](PartitionedTable::par_count)
//! over a whole table, [`par_eval_bool_ids`] behind the `eval_batch` of
//! [`crate::query::ExprPredicate`] — is that driver called with that
//! rule's answer; [`PartitionedTable::new`] pins `n` instead,
//! for tests and benchmarks that sweep it.
//!
//! # Determinism contract
//!
//! A chunked scan is **bit-identical** to the one-chunk serial scan,
//! for every chunk count and every thread count:
//!
//! * each row's value/NULL/error is computed by the same per-row-pure
//!   kernels regardless of which chunk evaluates it;
//! * per-chunk results are merged back **in chunk order**, so the
//!   concatenated output equals the serial output element for element,
//!   and the error surfaced is the first failing row *in row order* —
//!   exactly the serial semantics;
//! * nothing here consumes randomness, so estimators built on top
//!   produce per-seed bit-identical estimates at any chunk/thread
//!   count (the same guarantee the parallel trial runner established).
//!
//! The contract is enforced by property tests over random schemas,
//! expressions, and chunk counts (`tests/vector_agreement.rs`), which
//! CI runs at `RAYON_NUM_THREADS=1` and at the default thread count.

use crate::error::TableResult;
use crate::expr::Expr;
use crate::table::Table;
use crate::vector::{eval_columnar_sel, RowSel};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Below this many rows per chunk, a cheap (subquery-free) expression
/// scan is not worth a worker thread.
pub const MIN_PARTITION_ROWS: usize = 4096;

/// Contiguous row-range bounds for an `n_rows` table split into
/// `n_partitions` near-equal parts: `bounds[p]..bounds[p + 1]` is
/// partition `p`, `bounds[0] == 0`, `bounds[n_partitions] == n_rows`.
/// Sizes differ by at most one row; the split depends only on
/// `(n_rows, n_partitions)`, never on thread count.
pub fn partition_bounds(n_rows: usize, n_partitions: usize) -> Vec<usize> {
    let parts = n_partitions.max(1);
    (0..=parts)
        .map(|p| ((p as u128 * n_rows as u128) / parts as u128) as usize)
        .collect()
}

/// A shared [`Table`] (`Arc`, zero-copy) with a version stamp and,
/// optionally, a pinned scan chunk count.
///
/// The **version stamp** is a monotone counter owners bump whenever
/// they swap or mutate the backing data. Derived artifacts (fitted
/// proxy models, sampling designs, cached estimates — see the serving
/// layer in `lts-serve`) record the version they were built against and
/// treat a mismatch as a cache invalidation signal. The stamp is pure
/// metadata; it never affects scan results — and neither does the chunk
/// count (see the module's determinism contract).
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    table: Arc<Table>,
    /// `Some(n)`: every scan runs in `n` chunks; `None`: `chunks_for`
    /// decides per scan.
    pinned_chunks: Option<usize>,
    version: u64,
}

impl PartitionedTable {
    /// Scan `table` in exactly `n_partitions` near-equal row ranges
    /// (clamped to at least 1), whatever the host — the constructor of
    /// the tests and benchmarks that sweep the chunk count.
    pub fn new(table: Arc<Table>, n_partitions: usize) -> Self {
        Self {
            table,
            pinned_chunks: Some(n_partitions),
            version: 0,
        }
    }

    /// Scan `table` in as many chunks as the module's split rule gives
    /// each scan: for a subquery-free expression one per worker thread,
    /// but never fewer than [`MIN_PARTITION_ROWS`] rows each.
    pub fn auto(table: Arc<Table>) -> Self {
        Self {
            table,
            pinned_chunks: None,
            version: 0,
        }
    }

    /// The shared underlying table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The version stamp of the backing data (0 for a fresh table).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Set the version stamp (builder style).
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Bump the version stamp in place (e.g. after external mutation of
    /// the data the columns were derived from).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Number of rows of the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the underlying table has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Chunks a whole-table scan of `expr` runs in.
    fn n_chunks(&self, expr: &Expr) -> usize {
        self.pinned_chunks
            .unwrap_or_else(|| chunks_for(expr, self.len()))
    }

    /// Evaluate `expr` as a predicate over the whole table: the labels
    /// are element-identical to
    /// [`eval_bool_columnar`](crate::vector::eval_bool_columnar)`(expr, table, None)`.
    ///
    /// # Errors
    ///
    /// Returns the first failing row's error, in row order (chunks are
    /// merged in order, so this matches the serial scan exactly).
    pub fn par_eval_bool(&self, expr: &Expr) -> TableResult<Vec<bool>> {
        par_scan(expr, &self.table, RowSel::All, self.n_chunks(expr))
    }

    /// Count the rows satisfying `expr`. Identical (value and error) to
    /// counting the serial scan's labels.
    ///
    /// # Errors
    ///
    /// Returns the first failing row's error, in row order.
    pub fn par_count(&self, expr: &Expr) -> TableResult<usize> {
        Ok(self.par_eval_bool(expr)?.into_iter().filter(|&l| l).count())
    }
}

/// Inner-table rows one object's evaluation of `expr` scans: the summed
/// lengths of the tables of its correlated aggregate subqueries (0 for
/// a subquery-free expression).
fn subquery_rows(expr: &Expr) -> usize {
    match expr {
        Expr::Subquery(sq) => {
            let nested = sq.filter.iter().chain(&sq.arg).map(subquery_rows);
            sq.table.len().saturating_add(nested.sum())
        }
        Expr::Literal(_) | Expr::Column(_) | Expr::Outer(_) => 0,
        Expr::Unary(_, e) => subquery_rows(e),
        Expr::Binary(_, l, r) => subquery_rows(l).saturating_add(subquery_rows(r)),
        Expr::Call(_, args) => args.iter().map(subquery_rows).sum(),
    }
}

/// Scanned inner rows (`ids × inner rows`) a worker must be handed
/// before a subquery batch is split. What a two-item map costs over its
/// items, in place (after 2 ms of serial work, 150 µs items, wall less
/// the longer item, 2 vCPUs): 160–280 µs median, 0.4–0.9 ms p90 and
/// ≈ 4 ms p99 when every map spawned scoped threads (`rayon.par_call_us`,
/// a tight loop, read 45–65 µs); 50–56 µs median, 80–105 µs p90 and
/// 160 µs p99 — the caller running both items — on the persistent pool
/// (`rayon.par_call_us` ≈ 1 µs). The constant was set against the
/// former and is not re-tuned here. Since the bound kernel counts
/// whole kd-zones from their boxes (`bound`, rule 6) an object of the
/// service's shapes costs 1–2 µs over 8 000 inner rows, not the 13 µs
/// of a full tile scan. Median µs per evaluation on a 2-vCPU host,
/// sports skyband at its level-M `k` / neighbours at `k` = 10, the batch
/// inline on one worker or split in two, with the second core free or
/// spinning:
///
/// | objects | inline      | split, free | split, busy |
/// |---------|-------------|-------------|-------------|
/// | 100     | 1.93 / 1.84 | 1.44 / 1.65 | 2.65 / 2.27 |
/// | 200     | 1.93 / 1.72 | 1.09 / 1.34 | 2.23 / 1.95 |
/// | 400     | 1.92 / 1.69 | 1.08 / 1.20 | 2.07 / 1.77 |
/// | 800     | 1.88 / 1.79 | 1.05 / 1.18 | 1.96 / 1.76 |
///
/// A split pays only on a free core, and costs up to a third on a busy
/// one below a few hundred objects. So a worker gets 2²⁰ rows: 131
/// objects at 8 000 rows, ≈ 250 µs, five former spawn costs. The service's
/// 35–150-object batches stay inline; a census splits; a filter the
/// zones cannot serve (≈ 1.6 ns per row) hands each worker ≈ 1.7 ms.
const MIN_SUBQUERY_ROWS_PER_WORKER: usize = 1 << 20;

/// How many contiguous chunks a batch of `n_ids` objects, each scanning
/// `inner_rows` subquery rows, is split into — the subquery arm of
/// [`chunks_for`].
fn subquery_chunks(n_ids: usize, inner_rows: usize) -> usize {
    let volume = n_ids.saturating_mul(inner_rows);
    rayon::current_num_threads()
        .min(volume / MIN_SUBQUERY_ROWS_PER_WORKER)
        .min(n_ids)
}

/// The split rule: how many chunks a scan of `expr` over `n_rows` rows
/// runs in (0 and 1 both mean "inline"). A subquery-free expression is
/// cheap per row, so it is only split when every worker gets a full
/// quantum of [`MIN_PARTITION_ROWS`]; a row of a subquery-bearing one is
/// itself an inner scan, so those split on scanned volume instead.
fn chunks_for(expr: &Expr, n_rows: usize) -> usize {
    match subquery_rows(expr) {
        0 => rayon::current_num_threads().min(n_rows / MIN_PARTITION_ROWS),
        inner_rows => subquery_chunks(n_rows, inner_rows),
    }
}

/// Evaluate `eval` over `n_chunks` near-equal contiguous sub-ranges of
/// `0..n` on parallel workers (inline for one chunk or fewer) and
/// concatenate the labels in chunk order, surfacing the first error in
/// that order.
fn par_chunks_in_order<F>(n: usize, n_chunks: usize, eval: F) -> TableResult<Vec<bool>>
where
    F: Fn(Range<usize>) -> TableResult<Vec<bool>> + Sync,
{
    if n_chunks <= 1 {
        return eval(0..n);
    }
    let bounds = partition_bounds(n, n_chunks);
    let chunks: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
    let results: Vec<TableResult<Vec<bool>>> = chunks.into_par_iter().map(eval).collect();
    let mut out = Vec::with_capacity(n);
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// `Some(start..end)` when `ids` is exactly the contiguous ascending
/// run `start, start+1, …, end-1`. Runs whose end would overflow
/// `usize` (only possible with out-of-range ids) are not runs.
fn contiguous_run(ids: &[usize]) -> Option<Range<usize>> {
    let &first = ids.first()?;
    let end = first.checked_add(ids.len())?;
    for (k, &i) in ids.iter().enumerate() {
        if i != first + k {
            return None;
        }
    }
    Some(first..end)
}

/// The scan driver: evaluate `expr` as a predicate over the rows of
/// `sel`, split into `n_chunks` contiguous chunks of the selection.
/// Chunks of [`RowSel::All`] / [`RowSel::Range`], and chunks of an id
/// list that are an ascending contiguous run, are scanned zero-copy as
/// a [`RowSel::Range`].
fn par_scan(
    expr: &Expr,
    table: &Table,
    sel: RowSel<'_>,
    n_chunks: usize,
) -> TableResult<Vec<bool>> {
    par_chunks_in_order(sel.len(table.len()), n_chunks, |chunk| {
        let range = |r: Range<usize>| RowSel::Range {
            start: r.start,
            end: r.end,
        };
        let sel = match sel {
            RowSel::All => range(chunk),
            RowSel::Range { start, .. } => range(start + chunk.start..start + chunk.end),
            RowSel::Ids(ids) => {
                let ids = &ids[chunk];
                contiguous_run(ids).map_or(RowSel::Ids(ids), range)
            }
        };
        eval_columnar_sel(expr, table, sel).truthy()
    })
}

/// Evaluate `expr` as a predicate over the listed row ids. Element- and
/// error-identical to
/// [`eval_bool_columnar`](crate::vector::eval_bool_columnar)`(expr, table, Some(idxs))`
/// for every thread count.
///
/// # Errors
///
/// Returns the first failing row's error, in id order.
pub fn par_eval_bool_ids(expr: &Expr, table: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
    par_scan(expr, table, RowSel::Ids(idxs), chunks_for(expr, idxs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of_floats;
    use crate::vector::eval_bool_columnar;

    fn t(n: usize) -> Arc<Table> {
        let xs: Vec<f64> = (0..n).map(|i| (i % 101) as f64 / 101.0).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i % 53) as f64 / 53.0).collect();
        Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap())
    }

    #[test]
    fn version_stamp_tracks_replacements() {
        let mut pt = PartitionedTable::new(t(100), 4);
        assert_eq!(pt.version(), 0);
        let stamped = pt.clone().with_version(7);
        assert_eq!(stamped.version(), 7);
        pt.bump_version();
        assert_eq!(pt.version(), 1);
        // The stamp is metadata only: scan results are unaffected.
        let expr = Expr::col("x").lt(Expr::lit(0.5));
        assert_eq!(
            pt.par_count(&expr).unwrap(),
            PartitionedTable::new(Arc::clone(pt.table()), 4)
                .par_count(&expr)
                .unwrap()
        );
    }

    #[test]
    fn bounds_cover_and_balance() {
        assert_eq!(partition_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(partition_bounds(4, 4), vec![0, 1, 2, 3, 4]);
        assert_eq!(partition_bounds(0, 2), vec![0, 0, 0]);
        assert_eq!(partition_bounds(5, 1), vec![0, 5]);
        // Clamped: zero partitions behaves as one.
        assert_eq!(partition_bounds(5, 0), vec![0, 5]);
        // Near-equal: sizes differ by at most 1.
        let b = partition_bounds(1000, 7);
        let sizes: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partitioned_scan_matches_serial_for_all_counts() {
        let table = t(997); // deliberately not a multiple of anything
        let e = Expr::col("x")
            .gt(Expr::lit(0.25))
            .and(Expr::col("y").le(Expr::lit(0.75)));
        let serial = eval_bool_columnar(&e, &table, None).unwrap();
        for parts in [1, 2, 3, 4, 7, 16, 997, 2000] {
            let pt = PartitionedTable::new(Arc::clone(&table), parts);
            assert_eq!(pt.par_eval_bool(&e).unwrap(), serial, "parts={parts}");
            assert_eq!(
                pt.par_count(&e).unwrap(),
                serial.iter().filter(|&&l| l).count()
            );
        }
    }

    #[test]
    fn error_surfaces_first_in_row_order() {
        // NaN comparison errors on specific rows; the partitioned scan
        // must surface the same first error as the serial scan.
        let xs = [1.0, f64::NAN, 3.0, f64::NAN, 5.0];
        let table = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let e = Expr::col("x").lt(Expr::lit(2.0));
        let serial = eval_bool_columnar(&e, &table, None);
        for parts in [1, 2, 5] {
            let pt = PartitionedTable::new(Arc::clone(&table), parts);
            assert_eq!(pt.par_eval_bool(&e), serial, "parts={parts}");
            assert_eq!(pt.par_count(&e).unwrap_err(), serial.clone().unwrap_err());
        }
    }

    #[test]
    fn par_eval_bool_ids_matches_serial() {
        let table = t(20_000);
        let e = Expr::col("x").gt(Expr::lit(0.5));
        // Full-population contiguous scan (the exact_count shape).
        let all: Vec<usize> = (0..table.len()).collect();
        assert_eq!(
            par_eval_bool_ids(&e, &table, &all).unwrap(),
            eval_bool_columnar(&e, &table, Some(&all)).unwrap()
        );
        // Scattered ids with duplicates and an out-of-range id.
        let mut ids: Vec<usize> = (0..12_000).map(|i| (i * 7919) % 20_000).collect();
        ids.push(3);
        ids.push(usize::MAX); // out of range → error must match serial
        assert_eq!(
            par_eval_bool_ids(&e, &table, &ids),
            eval_bool_columnar(&e, &table, Some(&ids))
        );
    }

    #[test]
    fn subquery_batches_split_on_scanned_volume_and_merge_in_order() {
        let threads = rayon::current_num_threads();
        // A worker's share is 2²⁰ scanned rows: the service's 35–150
        // object batches over 8 000 rows stay whole, a census of them
        // splits, and ids bound the chunk count.
        assert_eq!(subquery_chunks(8, 8_000), 0);
        assert_eq!(subquery_chunks(150, 8_000), threads.min(1));
        assert_eq!(subquery_chunks(300, 8_000), threads.min(2));
        assert_eq!(subquery_chunks(8_000, 8_000), threads.min(61));
        assert_eq!(subquery_chunks(3, 1 << 22), threads.min(3));
        assert_eq!(subquery_chunks(usize::MAX, usize::MAX), threads);

        // 1 100 objects over 4 099 inner rows is four shares: the batch
        // is chunked wherever there are workers, and must read exactly
        // like the serial scan — labels, and the first error in id
        // order when an object meets the NaN planted in the last tile.
        let n = 4_099;
        let xs: Vec<f64> = (0..n).map(|i| (i % 101) as f64).collect();
        let mut ys: Vec<f64> = (0..n).map(|i| (i % 53) as f64).collect();
        let clean = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        ys[n - 3] = f64::NAN;
        let dirty = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        let mut ids: Vec<usize> = (0..1_100).map(|i| (i * 7919) % n).collect();
        ids[17] = ids[4]; // duplicates are fine
        for (table, oob) in [(&clean, None), (&dirty, None), (&clean, Some(n + 5))] {
            let mut ids = ids.clone();
            ids.extend(oob);
            let dominated = Expr::col("x")
                .ge(Expr::outer("x"))
                .and(Expr::col("y").gt(Expr::outer("y")));
            let e = Expr::count_where(Arc::clone(table), dominated).lt(Expr::lit(40.0));
            let serial = eval_bool_columnar(&e, table, Some(&ids));
            assert_eq!(
                serial.is_err(),
                !Arc::ptr_eq(table, &clean) || oob.is_some()
            );
            assert_eq!(par_eval_bool_ids(&e, table, &ids), serial);
        }
    }

    #[test]
    fn auto_respects_minimum_rows() {
        let threads = rayon::current_num_threads();
        let cheap = Expr::col("x").gt(Expr::lit(0.5));
        // Subquery-free: a worker per full quantum of rows, at most one
        // per thread (0 and 1 both scan inline).
        assert_eq!(chunks_for(&cheap, 100), 0);
        assert_eq!(chunks_for(&cheap, MIN_PARTITION_ROWS * 2), threads.min(2));
        assert_eq!(chunks_for(&cheap, MIN_PARTITION_ROWS * 64), threads.min(64));
        // Subquery-bearing: the scanned-volume arm, nested subqueries
        // summed.
        let inner = t(8_000);
        let sub = Expr::count_where(Arc::clone(&inner), Expr::col("x").ge(Expr::outer("x")));
        let e = sub.clone().lt(Expr::lit(40.0)).and(cheap.clone());
        for n in [8, 65, 100] {
            assert_eq!(chunks_for(&e, n), subquery_chunks(n, 8_000), "n={n}");
        }
        let twice = e.clone().or(sub.gt(Expr::lit(3.0)));
        assert_eq!(chunks_for(&twice, 100), subquery_chunks(100, 16_000));

        // A whole-table scan asks the rule the same question through an
        // `auto` table and through `par_eval_bool_ids`, and reads alike;
        // `new` pins its count instead. (2 400 × 2 400 scanned rows are
        // five workers' shares.)
        let small = t(2_400);
        let sub = Expr::count_where(Arc::clone(&small), Expr::col("x").ge(Expr::outer("x")));
        let e = sub.lt(Expr::lit(40.0));
        let all: Vec<usize> = (0..small.len()).collect();
        let auto = PartitionedTable::auto(Arc::clone(&small));
        assert_eq!(auto.n_chunks(&e), threads.min(5));
        for expr in [&cheap, &e] {
            assert_eq!(auto.n_chunks(expr), chunks_for(expr, all.len()));
            assert_eq!(
                auto.par_eval_bool(expr),
                par_eval_bool_ids(expr, &small, &all)
            );
            assert_eq!(
                PartitionedTable::new(Arc::clone(&small), 5).n_chunks(expr),
                5
            );
        }
    }

    #[test]
    fn empty_table_scans_cleanly() {
        let table = Arc::new(table_of_floats(&[("x", &[])]).unwrap());
        let pt = PartitionedTable::new(Arc::clone(&table), 4);
        let e = Expr::col("x").gt(Expr::lit(0.0));
        assert!(pt.par_eval_bool(&e).unwrap().is_empty());
        assert_eq!(pt.par_count(&e).unwrap(), 0);
    }

    #[test]
    fn contiguous_run_detection() {
        assert_eq!(contiguous_run(&[5, 6, 7]), Some(5..8));
        assert_eq!(contiguous_run(&[5]), Some(5..6));
        assert_eq!(contiguous_run(&[]), None);
        assert_eq!(contiguous_run(&[5, 7]), None);
        assert_eq!(contiguous_run(&[5, 5]), None);
        assert_eq!(contiguous_run(&[5, 4]), None);
        // A run ending past usize::MAX is not a run (no overflow).
        assert_eq!(contiguous_run(&[usize::MAX]), None);
        assert_eq!(contiguous_run(&[usize::MAX - 1, usize::MAX]), None);
        assert_eq!(
            contiguous_run(&[usize::MAX - 1]),
            Some(usize::MAX - 1..usize::MAX)
        );
    }
}
