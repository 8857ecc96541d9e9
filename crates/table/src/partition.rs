//! Partitioned tables and the parallel scan executor.
//!
//! Every scan in this workspace used to be one serial pass over one
//! monolithic [`Table`]. This module splits a table into `N` contiguous
//! row-range **partitions** — zero-copy: partitions share the table's
//! column storage through an [`Arc`] and each holds only a row range —
//! and drives the vectorized kernels of [`crate::vector`] over the
//! partitions in parallel (via the vendored rayon shim). It is the
//! substrate for partition-parallel predicate evaluation (the
//! `eval_batch` of [`crate::query::ExprPredicate`],
//! [`crate::query::CountQuery::exact_count`]) and for partition-aligned
//! stratification in `lts_strata`.
//!
//! # Determinism contract
//!
//! A partitioned scan is **bit-identical** to the single-partition
//! serial scan, for every partition count and every thread count:
//!
//! * each row's value/NULL/error is computed by the same per-row-pure
//!   kernels regardless of which partition evaluates it;
//! * per-partition results are merged back **in partition order**, so
//!   the concatenated output equals the serial output element for
//!   element, and the error surfaced by a boolean collapse is the first
//!   failing row *in row order* — exactly the serial semantics;
//! * nothing here consumes randomness, so estimators built on top
//!   produce per-seed bit-identical estimates at any partition/thread
//!   count (the same guarantee the parallel trial runner established).
//!
//! The contract is enforced by property tests over random schemas,
//! expressions, and partition counts (`tests/vector_agreement.rs`) and
//! by a CI step diffing `BENCH_partitioned_scan.json` estimate fields
//! between `RAYON_NUM_THREADS=1` and default-thread runs.

use crate::error::{TableError, TableResult};
use crate::expr::Expr;
use crate::table::Table;
use crate::vector::{eval_bool_columnar, eval_columnar_sel, Batch, RowSel};
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

/// A [`Table`] split into contiguous row-range partitions that share
/// the table's column storage (`Arc`, zero-copy).
///
/// Carries a **version stamp**: a monotone counter owners bump whenever
/// they swap or mutate the backing data. Derived artifacts (fitted
/// proxy models, sampling designs, cached estimates — see the serving
/// layer in `lts-serve`) record the version they were built against and
/// treat a mismatch as a cache invalidation signal. The stamp is pure
/// metadata; it never affects scan results.
#[derive(Debug, Clone)]
pub struct PartitionedTable {
    table: Arc<Table>,
    bounds: Vec<usize>,
    version: u64,
}

impl PartitionedTable {
    /// Split `table` into `n_partitions` near-equal row ranges
    /// (clamped to at least 1; empty tables get one empty partition).
    pub fn new(table: Arc<Table>, n_partitions: usize) -> Self {
        let bounds = partition_bounds(table.len(), n_partitions);
        Self {
            table,
            bounds,
            version: 0,
        }
    }

    /// Split `table` by a machine-derived heuristic: one partition per
    /// worker thread, but never fewer than [`MIN_PARTITION_ROWS`] rows
    /// per partition. **Note:** the partition count (and therefore any
    /// per-partition artifact layout) depends on the host; for
    /// bit-reproducible artifacts across hosts, fix the count with
    /// [`PartitionedTable::new`] (scan *results* are identical either
    /// way — see the module's determinism contract).
    pub fn auto(table: Arc<Table>) -> Self {
        let parts = (table.len() / MIN_PARTITION_ROWS).clamp(1, rayon::current_num_threads());
        Self::new(table, parts)
    }

    /// Build from explicit bounds (`bounds[0] == 0`, ascending, last
    /// element `== table.len()`).
    ///
    /// # Errors
    ///
    /// Returns an error when the bounds are not a monotone cover of
    /// `0..table.len()`.
    pub fn from_bounds(table: Arc<Table>, bounds: Vec<usize>) -> TableResult<Self> {
        let ok = bounds.len() >= 2
            && bounds[0] == 0
            && *bounds.last().expect("len >= 2") == table.len()
            && bounds.windows(2).all(|w| w[0] <= w[1]);
        if !ok {
            return Err(TableError::InvalidExpression {
                message: format!(
                    "partition bounds {bounds:?} do not cover 0..{}",
                    table.len()
                ),
            });
        }
        Ok(Self {
            table,
            bounds,
            version: 0,
        })
    }

    /// The shared underlying table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The version stamp of the backing data (0 for a fresh split).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Set the version stamp (builder style).
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// Replace the backing table and bump the version stamp, preserving
    /// the partition count. Callers holding artifacts derived from the
    /// previous version must discard them (the serving layer's model
    /// and result caches key on this stamp).
    pub fn replace_table(&mut self, table: Arc<Table>) {
        let parts = self.n_partitions();
        self.bounds = partition_bounds(table.len(), parts);
        self.table = table;
        self.version += 1;
    }

    /// Bump the version stamp in place (e.g. after external mutation of
    /// the data the columns were derived from).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The partition bounds (`n_partitions() + 1` entries).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Row range of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p >= n_partitions()`.
    pub fn range(&self, p: usize) -> Range<usize> {
        self.bounds[p]..self.bounds[p + 1]
    }

    /// Total rows across all partitions (= the table's length).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the underlying table has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Evaluate `expr` over every partition in parallel, returning one
    /// [`Batch`] per partition, in partition order. Row `k` of
    /// partition `p` is table row `self.range(p).start + k`.
    ///
    /// Each partition scan borrows its column sub-slices zero-copy
    /// ([`RowSel::Range`]) and runs the same branch-free kernels as a
    /// whole-table scan.
    pub fn par_eval_batches(&self, expr: &Expr) -> Vec<Batch<'_>> {
        let table: &Table = &self.table;
        (0..self.n_partitions())
            .into_par_iter()
            .map(|p| {
                let r = self.range(p);
                eval_columnar_sel(
                    expr,
                    table,
                    RowSel::Range {
                        start: r.start,
                        end: r.end,
                    },
                )
            })
            .collect()
    }

    /// Evaluate `expr` as a predicate over the whole table via the
    /// parallel partition scan: the concatenated labels are
    /// element-identical to
    /// [`eval_bool_columnar`]`(expr, table, None)`.
    ///
    /// # Errors
    ///
    /// Returns the first failing row's error, in row order (partitions
    /// are merged in order, so this matches the serial scan exactly).
    pub fn par_eval_bool(&self, expr: &Expr) -> TableResult<Vec<bool>> {
        let mut out = Vec::with_capacity(self.len());
        for batch in self.par_eval_batches(expr) {
            out.extend(batch.truthy()?);
        }
        Ok(out)
    }

    /// Count the rows satisfying `expr`, scanning partitions in
    /// parallel. Identical (value and error) to counting the serial
    /// scan's labels.
    ///
    /// # Errors
    ///
    /// Returns the first failing row's error, in row order.
    pub fn par_count(&self, expr: &Expr) -> TableResult<usize> {
        let mut total = 0usize;
        for batch in self.par_eval_batches(expr) {
            total += batch.truthy()?.into_iter().filter(|&l| l).count();
        }
        Ok(total)
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
/// before a subquery batch is split. A scoped-thread spawn costs
/// 85–125 µs here (`rayon.par_call_us`) and the bound kernel scans the
/// cheapest service filter (skyband) at ≈ 1.6 ns per row, so 2¹⁸ rows
/// are ≈ 420 µs — four spawn costs — per worker at the least, and a
/// `POWER`-bound filter is ten times that. At 8 000 inner rows a batch
/// splits from 66 objects up: measured on two threads, 100 objects read
/// 13.0 → 7.4 µs per evaluation (skyband) and 128 → 69 (neighbours,
/// k = 10) when the second core is free, 14 and 95–131 when it is not;
/// under the old rule (8 ids per chunk) two threads read *more* than
/// one, 17.4 against 14.5.
const MIN_SUBQUERY_ROWS_PER_WORKER: usize = 1 << 18;

/// How many contiguous chunks a batch of `n_ids` objects, each scanning
/// `inner_rows` subquery rows, is split into — the one rule behind
/// [`par_eval_bool_ids`] and
/// [`AggThresholdPredicate`](crate::query::AggThresholdPredicate).
pub(crate) fn subquery_chunks(n_ids: usize, inner_rows: usize) -> usize {
    let volume = n_ids.saturating_mul(inner_rows);
    rayon::current_num_threads()
        .min(volume / MIN_SUBQUERY_ROWS_PER_WORKER)
        .min(n_ids)
}

/// Evaluate `eval` over `n_chunks` near-equal contiguous chunks of
/// `idxs` on parallel workers (inline for one chunk or fewer) and
/// concatenate the labels in chunk order, surfacing the first error in
/// id order.
pub(crate) fn par_chunks_in_order<F>(
    idxs: &[usize],
    n_chunks: usize,
    eval: F,
) -> TableResult<Vec<bool>>
where
    F: Fn(&[usize]) -> TableResult<Vec<bool>> + Sync,
{
    if n_chunks <= 1 {
        return eval(idxs);
    }
    let bounds = partition_bounds(idxs.len(), n_chunks);
    let chunks: Vec<&[usize]> = bounds.windows(2).map(|w| &idxs[w[0]..w[1]]).collect();
    let results: Vec<TableResult<Vec<bool>>> = chunks.into_par_iter().map(eval).collect();
    let mut out = Vec::with_capacity(idxs.len());
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

/// Evaluate `expr` as a predicate over the listed row ids with
/// partition-parallel chunking: the id list is split into contiguous
/// chunks, each chunk is evaluated by a worker (contiguous ascending
/// runs — e.g. a full-population scan — take the zero-copy
/// [`RowSel::Range`] path), and results are merged back in chunk
/// order. Element- and error-identical to
/// [`eval_bool_columnar`]`(expr, table, Some(idxs))` for every thread
/// count.
///
/// # Errors
///
/// Returns the first failing row's error, in id order.
pub fn par_eval_bool_ids(expr: &Expr, table: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
    // Subquery-free expressions are cheap per row: only chunk when
    // every worker gets a full quantum. Subquery rows are each an inner
    // scan, so they split on scanned volume instead.
    let n_chunks = match subquery_rows(expr) {
        0 => rayon::current_num_threads().min(idxs.len() / MIN_PARTITION_ROWS),
        inner_rows => subquery_chunks(idxs.len(), inner_rows),
    };
    if n_chunks <= 1 {
        return eval_bool_columnar(expr, table, Some(idxs));
    }
    par_chunks_in_order(idxs, n_chunks, |chunk| {
        let sel = match contiguous_run(chunk) {
            Some(r) => RowSel::Range {
                start: r.start,
                end: r.end,
            },
            None => RowSel::Ids(chunk),
        };
        eval_columnar_sel(expr, table, sel).truthy()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of_floats;
    use crate::value::Value;

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
        // Swapping the backing table bumps the stamp and re-derives the
        // bounds for the new length at the same partition count.
        pt.replace_table(t(60));
        assert_eq!(pt.version(), 2);
        assert_eq!(pt.n_partitions(), 4);
        assert_eq!(*pt.bounds().last().unwrap(), 60);
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
    fn batches_expose_partition_local_rows() {
        let table = t(100);
        let pt = PartitionedTable::new(Arc::clone(&table), 3);
        assert_eq!(pt.n_partitions(), 3);
        let e = Expr::col("x").mul(Expr::lit(2.0));
        let batches = pt.par_eval_batches(&e);
        assert_eq!(batches.len(), 3);
        for (p, b) in batches.iter().enumerate() {
            let r = pt.range(p);
            assert_eq!(b.len(), r.len());
            for k in 0..b.len() {
                let want = table.floats("x").unwrap()[r.start + k] * 2.0;
                assert_eq!(b.value_at(k).unwrap(), Value::Float(want));
            }
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
        // A worker's share is 2¹⁸ scanned rows: the service's 35–100
        // object batches over 8 000 rows stay whole or halve, a handful
        // of objects never splits, and ids bound the chunk count.
        assert_eq!(subquery_chunks(8, 8_000), 0);
        assert_eq!(subquery_chunks(65, 8_000), threads.min(1));
        assert_eq!(subquery_chunks(100, 8_000), threads.min(3));
        assert_eq!(subquery_chunks(3, 1 << 20), threads.min(3));
        assert_eq!(subquery_chunks(usize::MAX, usize::MAX), threads);

        // 300 objects over 4 099 inner rows is four shares: the batch
        // is chunked wherever there are workers, and must read exactly
        // like the serial scan — labels, and the first error in id
        // order when an object meets the NaN planted in the last tile.
        let n = 4_099;
        let xs: Vec<f64> = (0..n).map(|i| (i % 101) as f64).collect();
        let mut ys: Vec<f64> = (0..n).map(|i| (i % 53) as f64).collect();
        let clean = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        ys[n - 3] = f64::NAN;
        let dirty = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap());
        let mut ids: Vec<usize> = (0..300).map(|i| (i * 7919) % n).collect();
        ids[17] = ids[4]; // duplicates are fine
        for (table, oob) in [(&clean, None), (&dirty, None), (&clean, Some(n + 5))] {
            let mut ids = ids.clone();
            ids.extend(oob);
            let dominated = Expr::col("x")
                .ge(Expr::outer("x"))
                .and(Expr::col("y").gt(Expr::outer("y")));
            let e = Expr::count_where(Arc::clone(table), dominated.clone()).lt(Expr::lit(40.0));
            let serial = eval_bool_columnar(&e, table, Some(&ids));
            assert_eq!(
                serial.is_err(),
                !Arc::ptr_eq(table, &clean) || oob.is_some()
            );
            assert_eq!(par_eval_bool_ids(&e, table, &ids), serial);
            let p = crate::query::AggThresholdPredicate::count(
                "dominated",
                Arc::clone(table),
                dominated,
                crate::expr::CmpOp::Lt,
                40,
            );
            use crate::predicate::ObjectPredicate;
            assert_eq!(p.eval_batch(table, &ids), serial);
        }
    }

    #[test]
    fn from_bounds_validates() {
        let table = t(10);
        assert!(PartitionedTable::from_bounds(Arc::clone(&table), vec![0, 4, 10]).is_ok());
        assert!(PartitionedTable::from_bounds(Arc::clone(&table), vec![0, 11]).is_err());
        assert!(PartitionedTable::from_bounds(Arc::clone(&table), vec![1, 10]).is_err());
        assert!(PartitionedTable::from_bounds(Arc::clone(&table), vec![0, 7, 4, 10]).is_err());
        assert!(PartitionedTable::from_bounds(Arc::clone(&table), vec![0]).is_err());
    }

    #[test]
    fn auto_respects_minimum_rows() {
        let small = PartitionedTable::auto(t(100));
        assert_eq!(small.n_partitions(), 1);
        let big = PartitionedTable::auto(t(MIN_PARTITION_ROWS * 64));
        assert!(big.n_partitions() >= 1);
        assert!(big.n_partitions() <= rayon::current_num_threads());
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
