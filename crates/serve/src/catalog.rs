//! The per-dataset query table: everything the service derives from one
//! version of a dataset, owned by that dataset and replaced whole when
//! its version moves (`Service::advance_version`).
//!
//! Requests are canonicalized ([`mod@crate::fingerprint`]) at admission
//! and equivalent requests resolve to one [`QueryEntry`], keyed by the
//! **canonical string** (collision-proof; the 64-bit fingerprint is the
//! compact id responses carry). The entry holds every artifact a repeat
//! reuses: one problem (one metered predicate; its features read from
//! the dataset's table), the query's conjunctive decomposition, the memoized
//! [`PhysicalPlan`], its warm states and its finished answers. The
//! prefilter selections those plans restrict to are kept beside the
//! entries, one per canonical prefilter, since the object set a cheap
//! conjunct selects depends on that conjunct alone; so are the subquery
//! trees, one per distinct subquery as spelled, which the predicates of
//! all the entries over it point at. Nothing here
//! carries a table version: an entry only ever exists for the version
//! its dataset is at.

use crate::service::Answer;
use lts_core::{CountingProblem, LssWarm, PhysicalPlan};
use lts_table::{AggSubquery, Expr};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A query's conjunctive split into a cheap exact prefilter and an
/// expensive residual, both derived from the **normalized** expression
/// (so commuted spellings of one query share one decomposition, and
/// the part canonicals are stable keys).
#[derive(Debug, Clone)]
pub(crate) struct QueryDecomposition {
    /// The subquery-free prefilter conjunction.
    pub(crate) prefilter: Expr,
    /// Canonical form of the prefilter (selectivity and seed key).
    pub(crate) prefilter_canonical: String,
    /// Canonical form of the residual (a prefiltered state's seed key).
    residual: Residual,
}

/// Where a decomposition keeps its residual canonical.
#[derive(Debug, Clone)]
enum Residual {
    /// A byte range of the query's canonical string: a residual of one
    /// conjunct renders inside the query's sorted `AND` chain, which is
    /// every served planned query's shape.
    Span(u32, u32),
    /// A residual that is not a substring of the canonical (several
    /// conjuncts the sort set apart).
    Owned(Box<str>),
}

impl QueryDecomposition {
    /// The decomposition of the query whose canonical string is
    /// `canonical`.
    pub(crate) fn new(
        prefilter: Expr,
        prefilter_canonical: String,
        residual_canonical: String,
        canonical: &str,
    ) -> Self {
        let span = canonical.find(&residual_canonical).and_then(|at| {
            let end = u32::try_from(at + residual_canonical.len()).ok()?;
            Some(Residual::Span(at as u32, end))
        });
        QueryDecomposition {
            prefilter,
            prefilter_canonical,
            residual: span.unwrap_or_else(|| Residual::Owned(residual_canonical.into())),
        }
    }

    /// The residual canonical, read from `canonical`, the canonical
    /// string of the query this decomposes (any request resolved to its
    /// entry carries it).
    pub(crate) fn residual_canonical<'a>(&'a self, canonical: &'a str) -> &'a str {
        match &self.residual {
            Residual::Span(start, end) => &canonical[*start as usize..*end as usize],
            Residual::Owned(residual) => residual,
        }
    }

    #[cfg(test)]
    pub(crate) fn residual_is_owned(&self) -> bool {
        matches!(self.residual, Residual::Owned(_))
    }
}

/// A warm estimator state and the condition text that prepared it.
pub(crate) struct WarmState {
    /// The resumable state.
    pub(crate) state: LssWarm,
    /// The raw condition text of the request that prepared it (a state
    /// snapshot writes it down and a restore re-parses it; the canonical
    /// string is not a parser input).
    pub(crate) raw_condition: String,
}

/// A small map kept as a vector sorted by key, its values inline: an
/// entry holds a state or an answer or two, where a hash map's smallest
/// table keeps four buckets beside its hasher.
pub(crate) struct Slots<K, V>(Vec<(K, V)>);

impl<K, V> Default for Slots<K, V> {
    fn default() -> Self {
        Slots(Vec::new())
    }
}

impl<K: Ord, V> Slots<K, V> {
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let at = self.0.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        Some(&self.0[at].1)
    }

    /// Insert or replace; a new key grows the vector by one slot.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        match self.0.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => {
                self.0.reserve_exact(1);
                self.0.insert(at, (key, value));
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The slots in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

/// One distinct canonical query of a dataset version.
#[derive(Default)]
pub(crate) struct QueryEntry {
    /// The assembled problem — metered predicate and a feature view of
    /// the dataset's table, shared by every request that resolves here — and
    /// the decomposition, present iff the query splits into both a cheap
    /// prefilter and an expensive residual. Built by the first
    /// `resolve`; `None` only on an entry a snapshot restore made to
    /// hold cached answers.
    pub(crate) problem: Option<(Arc<CountingProblem>, Option<Arc<QueryDecomposition>>)>,
    /// Memoized physical plan (survivor count + restricted problem over
    /// its prefilter's shared selection, [`Derived::selections`]; the
    /// count alone for an unselective prefilter), built by the first
    /// planned execution.
    pub(crate) plan: Option<Arc<PhysicalPlan>>,
    /// Warm states by `(prefiltered, budget)`: a prefiltered state was
    /// prepared over the prefilter's survivors, a monolithic one over
    /// the whole population.
    pub(crate) states: Slots<(bool, usize), WarmState>,
    /// Finished answers by planned budget (0 for the exact route).
    pub(crate) answers: Slots<usize, Answer>,
}

/// Everything derived from one dataset version.
#[derive(Default)]
pub(crate) struct Derived {
    /// One entry per canonical query.
    pub(crate) queries: HashMap<String, QueryEntry>,
    /// One selection per canonical prefilter, what its one scan over
    /// this version left. Its survivor count over `N` is the observed
    /// selectivity `M/N`: a later query sharing the prefilter routes
    /// monolithically without planning when it is already known to be
    /// unselective.
    pub(crate) selections: HashMap<String, Selection>,
    /// One tree per distinct subquery, as spelled (`AggSubquery`'s
    /// equality: its inner table by pointer, commuted operands apart,
    /// since which error surfaces depends on the spelling): the
    /// predicates of all the queries over it share it.
    pub(crate) subqueries: HashSet<Arc<AggSubquery>>,
}

impl Derived {
    /// Point every outermost subquery of `expr` at this version's tree
    /// spelled alike, keeping the first of each.
    pub(crate) fn intern(&mut self, expr: &mut Expr) {
        match expr {
            Expr::Subquery(sq) => match self.subqueries.get(sq) {
                Some(shared) => *sq = Arc::clone(shared),
                None => {
                    self.subqueries.insert(Arc::clone(sq));
                }
            },
            Expr::Unary(_, e) => self.intern(e),
            Expr::Binary(_, l, r) => {
                self.intern(l);
                self.intern(r);
            }
            Expr::Call(_, args) => args.iter_mut().for_each(|a| self.intern(a)),
            Expr::Literal(_) | Expr::Column(_) | Expr::Outer(_) => {}
        }
    }
}

/// What the scan of one canonical prefilter leaves for a dataset version.
#[derive(Clone)]
pub(crate) enum Selection {
    /// A selective prefilter's ascending survivor ids (`4·M` bytes).
    /// Every query plan with the prefilter restricts to this list, so
    /// the scan runs once and no plan holds a copy.
    Ids(Arc<[u32]>),
    /// An unselective prefilter's survivor count
    /// (`M ≥ monolithic_selectivity·N`): every query with it counts over
    /// the whole population, so none of its ids is kept.
    Count(usize),
}

impl Selection {
    /// The survivor count `M`.
    pub(crate) fn survivors(&self) -> usize {
        match self {
            Selection::Ids(ids) => ids.len(),
            Selection::Count(m) => *m,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Request, Service, ServiceConfig, Target};
    use std::sync::Arc;

    fn service() -> Service {
        let xs: Vec<f64> = (0..1_000).map(f64::from).collect();
        let ys: Vec<f64> = (0..1_000).map(|i| f64::from((i * 37) % 1_000)).collect();
        let table = lts_table::table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap();
        let mut s = Service::new(ServiceConfig::default());
        s.register_dataset("d", Arc::new(table), &["x", "y"])
            .unwrap();
        s
    }

    #[test]
    fn version_bump_rebuilds_but_keeps_hit_lineage() {
        let mut s = service();
        let serve = |s: &mut Service, id: u64| {
            let request = Request {
                id,
                dataset: "d".into(),
                condition: "x < 300".into(),
                target: Target::Budget(200),
                fresh: false,
            };
            s.run(request).served
        };
        assert_eq!(serve(&mut s, 1), "cold");
        assert_eq!(serve(&mut s, 2), "cached");
        assert_eq!((s.catalog_len(), s.stats().cached), (1, 1));
        // A new version drops the entry; the next request rebuilds it…
        s.invalidate("d").unwrap();
        assert_eq!(s.catalog_len(), 0);
        assert_eq!(serve(&mut s, 3), "cold");
        assert_eq!(s.catalog_len(), 1);
        // …while the service's hit count carries on across versions.
        assert_eq!(serve(&mut s, 4), "cached");
        assert_eq!(s.stats().cached, 2);
    }

    #[test]
    fn distinct_canonicals_stay_distinct() {
        let mut s = service();
        for condition in ["x < 300 AND y < 300", "y < 300 AND x < 300", "x <= 300"] {
            s.explain("d", condition, Target::Budget(200)).unwrap();
        }
        // The commuted spelling resolves to the first entry.
        assert_eq!(s.catalog_len(), 2);
        s.invalidate("d").unwrap();
        assert_eq!(s.catalog_len(), 0);
    }

    #[test]
    fn set_plan_memoizes_until_invalidation() {
        let mut s = service();
        // `y` is a permutation of 0..1 000: the prefilter keeps half.
        let query = "y < 500 AND (SELECT COUNT(*) FROM d WHERE x < o.x) > 700";
        let selectivities = |s: &mut Service| {
            let line = s.explain("d", query, Target::Budget(200)).unwrap();
            let field = |name: &str| {
                let value = line.split(&format!("\"{name}\": ")).nth(1).unwrap();
                value.split([',', '}']).next().unwrap().to_string()
            };
            (
                field("predicted_selectivity"),
                field("observed_selectivity"),
            )
        };
        let (unknown, half) = ("null".to_string(), "0.5".to_string());
        // The first plan scans; the next reads the selection's
        // selectivity and the memoized plan.
        assert_eq!(selectivities(&mut s), (unknown.clone(), half.clone()));
        assert_eq!(selectivities(&mut s), (half.clone(), half.clone()));
        // A new version forgets both, and scans again.
        s.invalidate("d").unwrap();
        assert_eq!(selectivities(&mut s), (unknown, half));
    }
}
