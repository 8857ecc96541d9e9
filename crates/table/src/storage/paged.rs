//! [`PagedTable`]: the out-of-core counterpart of
//! [`crate::PartitionedTable`].
//!
//! A paged table is opened from a directory written by
//! [`PagedTable::create`] and scanned through a bounded
//! [`BufferManager`]. The unit of work is the **page**, not a chunk of
//! the in-RAM driver ([`crate::partition`]): a page is a physical unit
//! with its own fault and skip accounting, so this scan keeps its own
//! fan-out — one private page step (`eval_page`) calling the same
//! [`eval_bool_columnar`] kernels, merged back in page order. Every
//! scan is therefore bit-identical to the in-RAM scan — values, NULL
//! handling, and first-error-in-row-order alike (property-tested in
//! `tests/storage_agreement.rs`).
//!
//! # Zone-map page skipping — the Kleene-sound rule
//!
//! `par_eval_bool`/`par_count` walk the top-level conjuncts of the
//! expression (the [`crate::split_conjuncts`] order) once per page:
//!
//! * a conjunct of shape `col CMP literal` (either operand order) over
//!   a numeric column **cannot error and cannot be NULL** on rows of a
//!   page whose zone map records no error values, and is **provably
//!   false** when the page's `[min, max]` is disjoint from the
//!   literal under `CMP`;
//! * any other conjunct shape — subqueries, arithmetic, unknown
//!   columns, string/bool comparisons — is conservatively *might
//!   error*.
//!
//! A page is skipped (all rows emitted `false`, no fault) iff a
//! provably-false conjunct occurs **before** the first might-error
//! conjunct in that walk. Soundness: conjuncts before the
//! provably-false one evaluate to pure `true`/`false` on this page, so
//! the accumulated `AND` is definitively `false` with no error; the
//! vectorized kernel masks right-side errors under a false left
//! (`FALSE AND <error> = FALSE`), and by induction over the `AND`
//! tree any error in a *later* conjunct is shadowed exactly as the
//! in-RAM scan would shadow it. Errors in *earlier* conjuncts stop the
//! walk, so they still fault and surface. Int↔float comparisons are
//! checked in `f64` — the same monotone `i64 → f64` promotion the
//! comparison kernel itself uses — so the bounds test is never less
//! conservative than the engine.

use super::buffer::{BufferManager, BufferSnapshot};
use super::page::{decode_page, encode_page, PageMeta, TableManifest, ZoneMap};
use super::{StorageError, StorageResult};
use crate::decompose::split_conjuncts;
use crate::error::TableResult;
use crate::expr::{BinaryOp, CmpOp, Expr};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::vector::eval_bool_columnar;
use crate::Column;
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File name of the manifest inside a paged-table directory.
pub const MANIFEST_FILE: &str = "manifest.ltsp";

fn column_file(dir: &Path, col: usize) -> PathBuf {
    dir.join(format!("col_{col}.pages"))
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> StorageError + '_ {
    move |e| StorageError::Io {
        path: path.into(),
        message: e.to_string(),
    }
}

/// Page-skip statistics of the scans run so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSnapshot {
    /// Pages actually evaluated (faulted in if not resident).
    pub pages_evaluated: u64,
    /// Pages skipped outright by a zone-map proof.
    pub pages_skipped: u64,
}

impl lts_obs::Snapshot for ScanSnapshot {
    fn merge(&self, other: &Self) -> Self {
        ScanSnapshot {
            pages_evaluated: self.pages_evaluated.saturating_add(other.pages_evaluated),
            pages_skipped: self.pages_skipped.saturating_add(other.pages_skipped),
        }
    }

    fn delta(&self, before: &Self) -> Self {
        ScanSnapshot {
            pages_evaluated: self.pages_evaluated.saturating_sub(before.pages_evaluated),
            pages_skipped: self.pages_skipped.saturating_sub(before.pages_skipped),
        }
    }
}

/// An on-disk table scanned through a bounded page cache (see the
/// module docs).
#[derive(Debug)]
pub struct PagedTable {
    dir: PathBuf,
    manifest: TableManifest,
    buffer: BufferManager,
    zone_skipping: bool,
    pages_evaluated: AtomicU64,
    pages_skipped: AtomicU64,
}

impl PagedTable {
    /// Write `table` to `dir` as a paged table with `page_rows` rows
    /// per page. Data files are written first; the checksummed
    /// manifest is written last via a temp-file + rename, so an
    /// interrupted `create` never leaves an openable half-table.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidConfig`] for zero `page_rows`
    /// and [`StorageError::Io`] for filesystem failures.
    pub fn create(dir: &Path, table: &Table, page_rows: usize) -> StorageResult<()> {
        if page_rows == 0 {
            return Err(StorageError::InvalidConfig {
                message: "page_rows must be at least 1".into(),
            });
        }
        fs::create_dir_all(dir).map_err(io_err(dir))?;
        let n_rows = table.len();
        let n_pages = if n_rows == 0 {
            0
        } else {
            n_rows.div_ceil(page_rows)
        };
        let mut pages: Vec<Vec<PageMeta>> = Vec::with_capacity(table.schema().len());
        for (c, field) in table.schema().fields().iter().enumerate() {
            let col = table
                .column(c)
                .expect("schema and columns agree by construction");
            debug_assert_eq!(field.data_type, col.data_type());
            let path = column_file(dir, c);
            let mut file = std::io::BufWriter::new(fs::File::create(&path).map_err(io_err(&path))?);
            let mut metas = Vec::with_capacity(n_pages);
            let mut offset = 0u64;
            for p in 0..n_pages {
                let lo = p * page_rows;
                let hi = (lo + page_rows).min(n_rows);
                let payload = encode_page(col, lo, hi);
                let zone = ZoneMap::of_column_range(col, lo, hi);
                file.write_all(&payload).map_err(io_err(&path))?;
                metas.push(PageMeta {
                    offset,
                    byte_len: payload.len() as u64,
                    checksum: super::fnv1a64(&payload),
                    zone,
                });
                offset += payload.len() as u64;
            }
            file.flush().map_err(io_err(&path))?;
            pages.push(metas);
        }
        let manifest = TableManifest {
            schema: table.schema().clone(),
            n_rows,
            page_rows,
            pages,
        };
        let final_path = dir.join(MANIFEST_FILE);
        let tmp_path = dir.join(format!("{MANIFEST_FILE}.tmp"));
        fs::write(&tmp_path, manifest.encode()).map_err(io_err(&tmp_path))?;
        fs::rename(&tmp_path, &final_path).map_err(io_err(&final_path))?;
        Ok(())
    }

    /// Open the paged table at `dir` with a buffer pool of
    /// `pool_pages` pages. Verifies the manifest checksum and that
    /// every column file is at least as long as the manifest promises
    /// (early truncation detection); page payload checksums are
    /// verified on fault.
    ///
    /// # Errors
    ///
    /// Returns a structured [`StorageError`] for a missing/corrupt
    /// manifest or truncated column files.
    pub fn open(dir: &Path, pool_pages: usize) -> StorageResult<PagedTable> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = fs::read(&manifest_path).map_err(io_err(&manifest_path))?;
        let manifest = TableManifest::decode(&bytes, &manifest_path)?;
        for (c, metas) in manifest.pages.iter().enumerate() {
            let need = metas.last().map_or(0, |m| m.offset + m.byte_len);
            let path = column_file(dir, c);
            let have = fs::metadata(&path).map_err(io_err(&path))?.len();
            if have < need {
                return Err(StorageError::Truncated {
                    what: format!("column file {} ({have} of {need} bytes)", path.display()),
                });
            }
        }
        Ok(PagedTable {
            dir: dir.into(),
            manifest,
            buffer: BufferManager::new(pool_pages),
            zone_skipping: true,
            pages_evaluated: AtomicU64::new(0),
            pages_skipped: AtomicU64::new(0),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.manifest.schema
    }

    /// The decoded manifest (geometry and zone maps).
    pub fn manifest(&self) -> &TableManifest {
        &self.manifest
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.manifest.n_rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.manifest.n_rows == 0
    }

    /// Pages per column (the scan's partition count).
    pub fn n_pages(&self) -> usize {
        self.manifest.n_pages()
    }

    /// Rows per page (the last page may be shorter).
    pub fn page_rows(&self) -> usize {
        self.manifest.page_rows
    }

    /// Row range of page `p`.
    pub fn page_range(&self, p: usize) -> Range<usize> {
        self.manifest.page_row_range(p)
    }

    /// Enable/disable zone-map page skipping (builder style; on by
    /// default). With skipping off every page is faulted and
    /// evaluated — the unskipped baseline a skip rate is measured
    /// against.
    #[must_use]
    pub fn with_zone_skipping(mut self, on: bool) -> Self {
        self.zone_skipping = on;
        self
    }

    /// The buffer pool (for its hit/miss/eviction counters).
    pub fn buffer(&self) -> &BufferManager {
        &self.buffer
    }

    /// Buffer counters, as a convenience.
    pub fn buffer_snapshot(&self) -> BufferSnapshot {
        self.buffer.snapshot()
    }

    /// Page-skip counters of the scans run so far.
    pub fn scan_snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            pages_evaluated: self.pages_evaluated.load(Ordering::Relaxed),
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
        }
    }

    /// Fault in one column page (cache hit or verified disk read).
    ///
    /// # Errors
    ///
    /// Returns a structured [`StorageError`] for I/O failures,
    /// truncation, or a payload checksum mismatch.
    pub fn fetch_page(&self, col: usize, page: usize) -> StorageResult<Arc<Column>> {
        let guard = self.buffer.get_pinned((col, page), || {
            let meta = self.manifest.pages[col][page];
            let rows = self.manifest.page_row_range(page).len();
            let dtype = self.manifest.schema.fields()[col].data_type;
            let path = column_file(&self.dir, col);
            let what = format!("page {page} of {}", path.display());
            let mut file = fs::File::open(&path).map_err(io_err(&path))?;
            file.seek(SeekFrom::Start(meta.offset))
                .map_err(io_err(&path))?;
            let mut payload = vec![0u8; meta.byte_len as usize];
            file.read_exact(&mut payload).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => StorageError::Truncated { what: what.clone() },
                _ => io_err(&path)(e),
            })?;
            if super::fnv1a64(&payload) != meta.checksum {
                return Err(StorageError::ChecksumMismatch { what: what.clone() });
            }
            decode_page(&payload, dtype, rows, &what)
        })?;
        Ok(Arc::clone(guard.column()))
    }

    /// The schema indices of the columns `expr` can touch when
    /// evaluated over this table: top-level column refs plus outer
    /// refs inside subqueries. Falls back to column 0 when the
    /// expression references nothing — a page table still needs a
    /// length carrier.
    fn referenced_columns(&self, expr: &Expr) -> Vec<usize> {
        fn collect(e: &Expr, top: bool, names: &mut BTreeSet<String>) {
            match e {
                Expr::Literal(_) => {}
                Expr::Column(n) => {
                    if top {
                        names.insert(n.clone());
                    }
                }
                // One level of correlation: an outer ref inside a
                // subquery binds the scanned (outer) table. Collecting
                // outer refs at any depth over-approximates for nested
                // subqueries, which only costs an extra fault.
                Expr::Outer(n) => {
                    names.insert(n.clone());
                }
                Expr::Unary(_, e) => collect(e, top, names),
                Expr::Binary(_, l, r) => {
                    collect(l, top, names);
                    collect(r, top, names);
                }
                Expr::Call(_, args) => {
                    for a in args {
                        collect(a, top, names);
                    }
                }
                Expr::Subquery(sq) => {
                    if let Some(f) = &sq.filter {
                        collect(f, false, names);
                    }
                    if let Some(a) = &sq.arg {
                        collect(a, false, names);
                    }
                }
            }
        }
        let mut names = BTreeSet::new();
        collect(expr, true, &mut names);
        let mut cols: Vec<usize> = names
            .iter()
            .filter_map(|n| self.manifest.schema.index_of(n).ok())
            .collect();
        cols.sort_unstable();
        if cols.is_empty() && !self.manifest.schema.is_empty() {
            cols.push(0);
        }
        cols
    }

    /// Materialize page `p` restricted to the given schema columns.
    fn page_table(&self, p: usize, cols: &[usize]) -> TableResult<Table> {
        let fields = cols
            .iter()
            .map(|&c| self.manifest.schema.fields()[c].clone())
            .collect();
        let schema = Schema::new(fields)?;
        let columns: Vec<Column> = cols
            .iter()
            .map(|&c| self.fetch_page(c, p).map(|a| (*a).clone()))
            .collect::<StorageResult<_>>()?;
        Table::new(schema, columns)
    }

    /// What every scan of `expr` needs before its first page: the
    /// columns it reads and, when zone skipping is on, its analyzed
    /// conjuncts (none otherwise, so no page is ever skippable).
    fn scan_plan(&self, expr: &Expr) -> (Vec<usize>, Vec<ConjunctSpec>) {
        let specs = if self.zone_skipping {
            analyze_conjuncts(expr, &self.manifest.schema)
        } else {
            Vec::new()
        };
        (self.referenced_columns(expr), specs)
    }

    /// The page step of every scan: labels of page `p`'s rows — all
    /// `false`, without touching the page, when the zone maps prove it
    /// so.
    fn eval_page(
        &self,
        expr: &Expr,
        p: usize,
        (cols, specs): &(Vec<usize>, Vec<ConjunctSpec>),
    ) -> TableResult<Vec<bool>> {
        if self.page_skippable(specs, p) {
            self.pages_skipped.fetch_add(1, Ordering::Relaxed);
            return Ok(vec![false; self.manifest.page_row_range(p).len()]);
        }
        self.pages_evaluated.fetch_add(1, Ordering::Relaxed);
        let t = self.page_table(p, cols)?;
        eval_bool_columnar(expr, &t, None)
    }

    /// Evaluate `expr` page-parallel, one result per page in page
    /// order.
    fn eval_pages(&self, expr: &Expr) -> Vec<TableResult<Vec<bool>>> {
        let plan = self.scan_plan(expr);
        (0..self.n_pages())
            .into_par_iter()
            .map(|p| self.eval_page(expr, p, &plan))
            .collect()
    }

    /// Whether the zone maps prove every row of page `p` false before
    /// any conjunct that might error there (see the module docs).
    fn page_skippable(&self, specs: &[ConjunctSpec], p: usize) -> bool {
        for spec in specs {
            match *spec {
                ConjunctSpec::Opaque => return false,
                ConjunctSpec::IntCmp { col, op, lit } => {
                    let (mn, mx) = self.manifest.pages[col][p].zone.int_bounds();
                    if provably_false(op, lit, mn, mx) {
                        return true;
                    }
                }
                ConjunctSpec::FloatCmp {
                    col,
                    op,
                    lit,
                    col_is_float,
                } => {
                    let zone = self.manifest.pages[col][p].zone;
                    let (mn, mx) = if col_is_float {
                        if zone.error_count > 0 {
                            // A NaN row errors on this very conjunct.
                            return false;
                        }
                        zone.float_bounds()
                    } else {
                        let (a, b) = zone.int_bounds();
                        (a as f64, b as f64)
                    };
                    if provably_false(op, lit, mn, mx) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Evaluate `expr` as a predicate over the whole table via the
    /// page-parallel scan — element- and error-identical to
    /// [`crate::PartitionedTable::par_eval_bool`] over the same data.
    ///
    /// # Errors
    ///
    /// Returns the first failing row's error in row order, or
    /// [`TableError::Storage`](crate::TableError::Storage) for an
    /// I/O/integrity fault.
    pub fn par_eval_bool(&self, expr: &Expr) -> TableResult<Vec<bool>> {
        let mut out = Vec::with_capacity(self.len());
        for r in self.eval_pages(expr) {
            out.extend(r?);
        }
        Ok(out)
    }

    /// Count rows satisfying `expr` via the page-parallel scan.
    ///
    /// # Errors
    ///
    /// Returns the first failing row's error in row order, or
    /// [`TableError::Storage`](crate::TableError::Storage) for an
    /// I/O/integrity fault.
    pub fn par_count(&self, expr: &Expr) -> TableResult<usize> {
        Ok(self.par_eval_bool(expr)?.into_iter().filter(|&l| l).count())
    }

    /// Materialize the whole table in RAM (page-sequential read).
    ///
    /// # Errors
    ///
    /// Returns [`TableError::Storage`](crate::TableError::Storage) for
    /// an I/O/integrity fault.
    pub fn to_table(&self) -> TableResult<Table> {
        let schema = &self.manifest.schema;
        let mut columns: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.data_type, self.len()))
            .collect();
        for p in 0..self.n_pages() {
            for (c, slot) in columns.iter_mut().enumerate() {
                let page = self.fetch_page(c, p)?;
                append_column(slot, &page);
            }
        }
        Table::new(schema.clone(), columns)
    }
}

fn append_column(dst: &mut Column, src: &Column) {
    match (dst, src) {
        (Column::Bool(d), Column::Bool(s)) => d.extend_from_slice(s),
        (Column::Int(d), Column::Int(s)) => d.extend_from_slice(s),
        (Column::Float(d), Column::Float(s)) => d.extend_from_slice(s),
        (Column::Str(d), Column::Str(s)) => d.extend(s.iter().cloned()),
        _ => unreachable!("page type matches manifest schema by construction"),
    }
}

/// One top-level conjunct, classified for the page-skip walk.
#[derive(Debug, Clone, Copy)]
enum ConjunctSpec {
    /// `col CMP int-literal` on an `Int` column: compared in `i64`,
    /// can never error or be NULL.
    IntCmp { col: usize, op: CmpOp, lit: i64 },
    /// A numeric comparison the engine runs in `f64`. Errors only on
    /// NaN column values (float columns; tracked per page by
    /// `error_count`).
    FloatCmp {
        col: usize,
        op: CmpOp,
        lit: f64,
        col_is_float: bool,
    },
    /// Anything else: conservatively *might error*, stops the walk.
    Opaque,
}

fn analyze_conjuncts(expr: &Expr, schema: &Schema) -> Vec<ConjunctSpec> {
    split_conjuncts(expr)
        .into_iter()
        .map(|c| classify_conjunct(c, schema))
        .collect()
}

fn classify_conjunct(e: &Expr, schema: &Schema) -> ConjunctSpec {
    let Expr::Binary(BinaryOp::Cmp(op), l, r) = e else {
        return ConjunctSpec::Opaque;
    };
    let (name, lit, op) = match (l.as_ref(), r.as_ref()) {
        (Expr::Column(n), Expr::Literal(v)) => (n, v, *op),
        (Expr::Literal(v), Expr::Column(n)) => (n, v, op.mirrored()),
        _ => return ConjunctSpec::Opaque,
    };
    let Ok(col) = schema.index_of(name) else {
        return ConjunctSpec::Opaque; // unknown column errors every row
    };
    let dtype = schema.fields()[col].data_type;
    match (dtype, lit) {
        (DataType::Int, Value::Int(v)) => ConjunctSpec::IntCmp { col, op, lit: *v },
        (DataType::Int, Value::Float(x)) if !x.is_nan() => ConjunctSpec::FloatCmp {
            col,
            op,
            lit: *x,
            col_is_float: false,
        },
        // The engine promotes an int literal with `as f64` — the same
        // conversion used here.
        (DataType::Float, Value::Int(v)) => ConjunctSpec::FloatCmp {
            col,
            op,
            lit: *v as f64,
            col_is_float: true,
        },
        (DataType::Float, Value::Float(x)) if !x.is_nan() => ConjunctSpec::FloatCmp {
            col,
            op,
            lit: *x,
            col_is_float: true,
        },
        _ => ConjunctSpec::Opaque,
    }
}

/// Whether `col op lit` is false on every row of a page whose values
/// lie in `mn..=mx`.
fn provably_false<T: PartialOrd + Copy>(op: CmpOp, lit: T, mn: T, mx: T) -> bool {
    // `mn > mx` (the all-NaN sentinel) never reaches here: int bounds
    // (and their `f64` conversions) are always ordered, and float
    // columns with NaN rows bail on `error_count` first.
    match op {
        CmpOp::Lt => mn >= lit,
        CmpOp::Le => mn > lit,
        CmpOp::Gt => mx <= lit,
        CmpOp::Ge => mx < lit,
        CmpOp::Eq => lit < mn || lit > mx,
        CmpOp::Ne => mn == mx && mn == lit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TableError;
    use crate::partition::PartitionedTable;
    use crate::table::{table_of_floats, TableBuilder};
    use crate::value::Value;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lts_paged_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn mixed_table(n: usize) -> Table {
        let schema = Schema::from_pairs(&[
            ("x", DataType::Float),
            ("k", DataType::Int),
            ("tag", DataType::Str),
        ])
        .unwrap();
        let mut b = TableBuilder::with_capacity(schema, n);
        for i in 0..n {
            b.push_row(vec![
                Value::Float((i % 97) as f64 / 97.0),
                Value::Int((i % 13) as i64),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
            ])
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_and_scan_agreement() {
        let dir = tmp_dir("roundtrip");
        let table = mixed_table(997);
        PagedTable::create(&dir, &table, 64).unwrap();
        let paged = PagedTable::open(&dir, 8).unwrap();
        assert_eq!(paged.len(), 997);
        assert_eq!(paged.n_pages(), 16);
        assert_eq!(paged.schema(), table.schema());
        assert_eq!(paged.to_table().unwrap(), table);

        let arc = Arc::new(table);
        let pt = PartitionedTable::new(Arc::clone(&arc), 4);
        let e = Expr::col("x")
            .gt(Expr::lit(0.25))
            .and(Expr::col("k").le(Expr::lit(7i64)));
        assert_eq!(
            paged.par_eval_bool(&e).unwrap(),
            pt.par_eval_bool(&e).unwrap()
        );
        assert_eq!(paged.par_count(&e).unwrap(), pt.par_count(&e).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zone_maps_skip_disjoint_pages() {
        let dir = tmp_dir("skip");
        // x is sorted, so a selective range predicate has disjoint
        // zone maps on most pages.
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let table = table_of_floats(&[("x", &xs)]).unwrap();
        PagedTable::create(&dir, &table, 100).unwrap();
        let paged = PagedTable::open(&dir, 16).unwrap();
        let e = Expr::col("x").ge(Expr::lit(900.0));
        let got = paged.par_eval_bool(&e).unwrap();
        assert_eq!(got.iter().filter(|&&b| b).count(), 100);
        let scan = paged.scan_snapshot();
        assert_eq!(scan.pages_skipped, 9);
        assert_eq!(scan.pages_evaluated, 1);
        // Only the surviving page was ever faulted.
        assert_eq!(paged.buffer_snapshot().misses, 1);

        // Skipping off: every page is read; result identical.
        let unskipped = PagedTable::open(&dir, 16)
            .unwrap()
            .with_zone_skipping(false);
        assert_eq!(unskipped.par_eval_bool(&e).unwrap(), got);
        assert_eq!(unskipped.scan_snapshot().pages_evaluated, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn skip_rule_respects_error_order() {
        let dir = tmp_dir("skip_err");
        // Page 0: x in [0, 9]; page 1: x in [10, 19] with a NaN row.
        // k is an int mirror of the row index.
        let schema = Schema::from_pairs(&[("x", DataType::Float), ("k", DataType::Int)]).unwrap();
        let mut b = crate::table::TableBuilder::with_capacity(schema, 20);
        for i in 0..20i64 {
            let x = if i == 15 { f64::NAN } else { i as f64 };
            b.push_row(vec![Value::Float(x), Value::Int(i)]).unwrap();
        }
        let table = b.finish().unwrap();
        PagedTable::create(&dir, &table, 10).unwrap();
        let paged = PagedTable::open(&dir, 4).unwrap();

        // The NaN comparison must error even though the page's bounds
        // are disjoint from the predicate range: error_count blocks
        // the skip.
        let e = Expr::col("x").gt(Expr::lit(100.0));
        let serial = PartitionedTable::new(Arc::new(table), 1).par_eval_bool(&e);
        assert!(serial.is_err());
        assert_eq!(paged.par_eval_bool(&e), serial);
        // The erroring page was faulted, not skipped.
        assert_eq!(paged.scan_snapshot().pages_skipped, 1);

        // A provably-false, cannot-error conjunct BEFORE the erroring
        // one shadows it, exactly like `FALSE AND <error>` in RAM —
        // and lets the zone maps skip both pages without faulting.
        let shadowed = Expr::col("k")
            .lt(Expr::lit(-1i64))
            .and(Expr::col("x").gt(Expr::lit(0.0)));
        let before = paged.buffer_snapshot().misses;
        assert_eq!(paged.par_eval_bool(&shadowed).unwrap(), vec![false; 20]);
        assert_eq!(paged.buffer_snapshot().misses, before);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_surfaces_as_structured_errors() {
        let dir = tmp_dir("corrupt");
        let table = mixed_table(100);
        PagedTable::create(&dir, &table, 32).unwrap();

        // Truncated column file: open() catches it early.
        let col0 = column_file(&dir, 0);
        let bytes = fs::read(&col0).unwrap();
        fs::write(&col0, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            PagedTable::open(&dir, 4),
            Err(StorageError::Truncated { .. })
        ));
        fs::write(&col0, &bytes).unwrap();

        // A flipped payload byte passes open() but fails the page
        // checksum at fault time — and the scan surfaces it as a
        // structured TableError::Storage, not a wrong count.
        let mut evil = bytes.clone();
        evil[10] ^= 0xff;
        fs::write(&col0, &evil).unwrap();
        let paged = PagedTable::open(&dir, 4).unwrap();
        let e = Expr::col("x").gt(Expr::lit(-1.0));
        match paged.par_eval_bool(&e) {
            Err(TableError::Storage { message }) => {
                assert!(message.contains("checksum"), "got: {message}");
            }
            other => unreachable!("expected storage error, got {other:?}"),
        }
        fs::write(&col0, &bytes).unwrap();

        // Missing manifest is an I/O error, garbage is bad magic.
        let manifest = dir.join(MANIFEST_FILE);
        let good = fs::read(&manifest).unwrap();
        fs::remove_file(&manifest).unwrap();
        assert!(matches!(
            PagedTable::open(&dir, 4),
            Err(StorageError::Io { .. })
        ));
        fs::write(&manifest, b"not a manifest").unwrap();
        assert!(matches!(
            PagedTable::open(&dir, 4),
            Err(StorageError::BadMagic { .. })
        ));
        fs::write(&manifest, &good).unwrap();
        assert!(PagedTable::open(&dir, 4).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_pool_forces_eviction_but_not_divergence() {
        let dir = tmp_dir("tiny");
        let table = mixed_table(500);
        PagedTable::create(&dir, &table, 16).unwrap();
        let paged = PagedTable::open(&dir, 1).unwrap(); // adversarial pool
        let pt = PartitionedTable::new(Arc::new(table), 7);
        let e = Expr::col("x")
            .mul(Expr::lit(2.0))
            .gt(Expr::lit(0.7))
            .or(Expr::col("tag").eq(Expr::lit(Value::str("even"))));
        assert_eq!(
            paged.par_eval_bool(&e).unwrap(),
            pt.par_eval_bool(&e).unwrap()
        );
        assert!(paged.buffer_snapshot().evictions > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_table_pages_cleanly() {
        let dir = tmp_dir("empty");
        let table = table_of_floats(&[("x", &[])]).unwrap();
        PagedTable::create(&dir, &table, 8).unwrap();
        let paged = PagedTable::open(&dir, 2).unwrap();
        assert_eq!(paged.n_pages(), 0);
        let e = Expr::col("x").gt(Expr::lit(0.0));
        assert!(paged.par_eval_bool(&e).unwrap().is_empty());
        assert_eq!(paged.par_count(&e).unwrap(), 0);
        assert_eq!(paged.to_table().unwrap(), table);
        assert!(PagedTable::create(&dir, &table, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
