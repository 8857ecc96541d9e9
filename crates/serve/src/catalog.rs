//! The query catalog: every distinct canonical query the service has
//! seen, with its ready-to-run [`CountingProblem`].
//!
//! The catalog is the dedup point of the pipeline: requests are
//! canonicalized ([`mod@crate::fingerprint`]) at admission and equivalent
//! requests resolve to one entry — one problem (one metered predicate,
//! one feature matrix), one model-store lineage, one result-cache
//! lineage. Entries key on the **canonical string** (collision-proof);
//! the 64-bit fingerprint is the compact id responses carry.
//!
//! An entry also carries the query's **conjunctive decomposition**
//! (when it usefully splits, see `lts_table::decompose`) and, once a
//! prefilter scan has run, the memoized [`PhysicalPlan`] — survivor
//! count and the restricted residual problem — so repeat requests of a
//! decomposed query never re-scan or rebuild the restricted problem.
//! The plan is version-bound: a table-version rebuild drops it.

use lts_core::{CountingProblem, PhysicalPlan};
use lts_table::Expr;
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a catalog entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Dataset name.
    pub dataset: String,
    /// Canonical predicate string.
    pub canonical: String,
}

/// A query's conjunctive split into a cheap exact prefilter and an
/// expensive residual, both derived from the **normalized** expression
/// (so commuted spellings of one query share one decomposition, and
/// the part canonicals are stable cache/store keys).
#[derive(Debug, Clone)]
pub struct QueryDecomposition {
    /// The subquery-free prefilter conjunction.
    pub prefilter: Expr,
    /// The oracle-bearing residual conjunction.
    pub residual: Expr,
    /// Canonical form of the prefilter (feedback/seed key).
    pub prefilter_canonical: String,
    /// Canonical form of the residual (model-store key).
    pub residual_canonical: String,
}

/// One distinct query the service knows.
pub struct QueryEntry {
    /// Compact id (hash of dataset, table version, canonical string).
    pub fingerprint: u64,
    /// The assembled problem: metered predicate + features, shared by
    /// every request that resolves here.
    pub problem: Arc<CountingProblem>,
    /// Table version the problem was assembled against.
    pub table_version: u64,
    /// Requests that resolved to this entry so far.
    pub hits: u64,
    /// Conjunctive decomposition, present iff the query splits into
    /// both a cheap prefilter and an expensive residual.
    pub decomposition: Option<Arc<QueryDecomposition>>,
    /// Memoized physical plan (prefilter scan + restricted problem),
    /// populated lazily by the first planned execution
    /// ([`QueryCatalog::set_plan`]).
    pub plan: Option<Arc<PhysicalPlan>>,
}

/// The service's query catalog.
#[derive(Default)]
pub struct QueryCatalog {
    entries: HashMap<QueryKey, QueryEntry>,
}

impl QueryCatalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct queries seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up an entry.
    pub fn get(&self, key: &QueryKey) -> Option<&QueryEntry> {
        self.entries.get(key)
    }

    /// Resolve a key, building the entry with `build` on first sight
    /// and counting the hit. `build` returns the assembled problem plus
    /// the query's decomposition (if it splits). An entry assembled
    /// against an older table version is rebuilt — its problem captured
    /// stale column data, and any memoized plan state is dropped with
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates `build` failures (unknown feature columns etc.).
    pub fn resolve<E>(
        &mut self,
        key: QueryKey,
        fingerprint: u64,
        table_version: u64,
        build: impl FnOnce() -> Result<(Arc<CountingProblem>, Option<Arc<QueryDecomposition>>), E>,
    ) -> Result<&QueryEntry, E> {
        use std::collections::hash_map::Entry;
        match self.entries.entry(key) {
            Entry::Occupied(mut o) => {
                if o.get().table_version != table_version {
                    let (problem, decomposition) = build()?;
                    let hits = o.get().hits;
                    o.insert(QueryEntry {
                        fingerprint,
                        problem,
                        table_version,
                        hits,
                        decomposition,
                        plan: None,
                    });
                }
                let e = o.into_mut();
                e.hits += 1;
                Ok(e)
            }
            Entry::Vacant(v) => {
                let (problem, decomposition) = build()?;
                let e = v.insert(QueryEntry {
                    fingerprint,
                    problem,
                    table_version,
                    hits: 0,
                    decomposition,
                    plan: None,
                });
                e.hits += 1;
                Ok(e)
            }
        }
    }

    /// Memoize the physical plan of an entry (no-op for unknown keys —
    /// the entry was invalidated between resolve and scan).
    pub fn set_plan(&mut self, key: &QueryKey, plan: Arc<PhysicalPlan>) {
        if let Some(e) = self.entries.get_mut(key) {
            e.plan = Some(plan);
        }
    }

    /// Drop every entry of a dataset.
    pub fn invalidate_dataset(&mut self, dataset: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.dataset != dataset);
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::LogicalPlan;
    use lts_table::{table_of_floats, Expr, FnPredicate, ObjectPredicate, PartitionedTable, Table};

    fn problem() -> Arc<CountingProblem> {
        let t = Arc::new(table_of_floats(&[("x", &[1.0, 2.0, 3.0])]).unwrap());
        let p: Arc<dyn ObjectPredicate> = Arc::new(FnPredicate::new("p", |t: &Table, i| {
            Ok(t.floats("x")?[i] > 1.5)
        }));
        Arc::new(CountingProblem::new(t, p, &["x"]).unwrap())
    }

    /// The plan of `x < below AND <residual>` over [`problem`]'s table.
    fn plan(below: f64) -> Arc<PhysicalPlan> {
        let problem = problem();
        let table = PartitionedTable::new(Arc::clone(problem.objects()), 1);
        let logical = LogicalPlan {
            prefilter: Some(Expr::col("x").lt(Expr::lit(below))),
            residual: Expr::col("x").gt(Expr::lit(1.5)),
        };
        Arc::new(PhysicalPlan::build(problem, &table, logical).unwrap())
    }

    fn key(ds: &str, canon: &str) -> QueryKey {
        QueryKey {
            dataset: ds.into(),
            canonical: canon.into(),
        }
    }

    #[test]
    fn resolve_builds_once_and_counts_hits() {
        let mut cat = QueryCatalog::new();
        let mut builds = 0;
        for _ in 0..3 {
            let e = cat
                .resolve::<()>(key("d", "q"), 1, 0, || {
                    builds += 1;
                    Ok((problem(), None))
                })
                .unwrap();
            assert_eq!(e.fingerprint, 1);
        }
        assert_eq!(builds, 1, "one build for three hits");
        assert_eq!(cat.get(&key("d", "q")).unwrap().hits, 3);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn version_bump_rebuilds_but_keeps_hit_lineage() {
        let mut cat = QueryCatalog::new();
        cat.resolve::<()>(key("d", "q"), 1, 0, || Ok((problem(), None)))
            .unwrap();
        // A memoized plan from the old version…
        cat.set_plan(&key("d", "q"), plan(2.5));
        let mut rebuilt = false;
        let e = cat
            .resolve::<()>(key("d", "q"), 2, 1, || {
                rebuilt = true;
                Ok((problem(), None))
            })
            .unwrap();
        assert!(rebuilt);
        assert_eq!(e.table_version, 1);
        assert_eq!(e.hits, 2);
        // …does not survive the rebuild: the scan must rerun.
        assert!(e.plan.is_none());
    }

    #[test]
    fn distinct_canonicals_stay_distinct() {
        let mut cat = QueryCatalog::new();
        cat.resolve::<()>(key("d", "a"), 1, 0, || Ok((problem(), None)))
            .unwrap();
        cat.resolve::<()>(key("d", "b"), 1, 0, || Ok((problem(), None)))
            .unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.invalidate_dataset("d"), 2);
        assert!(cat.is_empty());
    }

    #[test]
    fn set_plan_memoizes_until_invalidation() {
        let mut cat = QueryCatalog::new();
        cat.resolve::<()>(key("d", "q"), 1, 0, || Ok((problem(), None)))
            .unwrap();
        cat.set_plan(&key("d", "q"), plan(1.5));
        let memo = cat.get(&key("d", "q")).unwrap().plan.as_ref().unwrap();
        assert_eq!(memo.survivors(), Some(1));
        assert!((memo.selectivity().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        // Unknown keys are a no-op, not a panic.
        cat.set_plan(&key("d", "missing"), plan(0.0));
        assert_eq!(cat.len(), 1);
    }
}
