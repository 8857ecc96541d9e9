//! The counting problem and the budget-tracking labeler.

use crate::error::{CoreError, CoreResult};
use crate::feature::FeatureView;
use lts_learn::Matrix;
use lts_table::{Column, Metered, ObjectPredicate, PredicateStats, Table, TableError, TableResult};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A counting problem: the table `q` evaluates against, the population
/// being counted (`n` objects, one feature row each — paper Q2), and the
/// expensive predicate `q` (paper Q3) behind a metering wrapper. The two
/// coincide for a whole-table problem; a sub-population
/// ([`crate::plan::restrict_problem`]) shares its parent's table and
/// feature columns and owns only its `u32` id list, which its predicate
/// and its feature view share. The features are the table's own
/// columns: no problem keeps a copy of them.
pub struct CountingProblem {
    objects: Arc<Table>,
    predicate: Arc<Metered<Arc<dyn ObjectPredicate>>>,
    /// Schema indices of the feature columns in `objects`, shared by a
    /// problem's sub-populations.
    features: Arc<[usize]>,
    /// Local row `i` is table row `rows[i]`; `None` for a whole-table
    /// problem.
    rows: Option<Arc<[u32]>>,
    /// [`CountingProblem::features`], gathered on first call.
    gathered: OnceLock<Matrix>,
    level: f64,
}

/// Narrow ids to `u32`, checked — the one way an id list enters 32
/// bits. Returns the first id that does not fit.
pub(crate) fn narrow_ids(ids: &[usize]) -> Result<Vec<u32>, usize> {
    let mut out = Vec::with_capacity(ids.len());
    for &id in ids {
        out.push(u32::try_from(id).map_err(|_| id)?);
    }
    Ok(out)
}

impl CountingProblem {
    /// Build a problem whose features are the named columns of
    /// `objects` (the paper's "attributes referenced in q" heuristic),
    /// read in place: ints and bools convert to floats on read.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty column list, unknown or non-numeric
    /// feature columns, or an empty object set.
    pub fn new(
        objects: Arc<Table>,
        predicate: Arc<dyn ObjectPredicate>,
        feature_columns: &[&str],
    ) -> CoreResult<Self> {
        if feature_columns.is_empty() {
            return Err(CoreError::InvalidConfig {
                message: "feature column list is empty".into(),
            });
        }
        let features = (feature_columns.iter())
            .map(|name| {
                let index = objects.schema().index_of(name)?;
                match objects.column(index)? {
                    Column::Str(_) => Err(TableError::TypeMismatch {
                        expected: "numeric column",
                        found: "str".into(),
                    }),
                    _ => Ok(index),
                }
            })
            .collect::<TableResult<Arc<[usize]>>>()?;
        if objects.is_empty() {
            return Err(CoreError::InvalidConfig {
                message: "object set is empty".into(),
            });
        }
        Ok(Self::over(objects, predicate, features, None))
    }

    /// A problem whose predicate evaluates against `objects` and whose
    /// feature rows are its `features` columns, read through `rows` when
    /// given.
    fn over(
        objects: Arc<Table>,
        predicate: Arc<dyn ObjectPredicate>,
        features: Arc<[usize]>,
        rows: Option<Arc<[u32]>>,
    ) -> Self {
        Self {
            objects,
            predicate: Arc::new(Metered::new(predicate)),
            features,
            rows,
            gathered: OnceLock::new(),
            level: 0.95,
        }
    }

    /// Set the confidence level for intervals (default 0.95).
    #[must_use]
    pub fn with_level(mut self, level: f64) -> Self {
        self.level = level;
        self
    }

    /// Number of objects `N`.
    pub fn n(&self) -> usize {
        self.feature_view().rows()
    }

    /// Confidence level for intervals.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The table `q` evaluates against: the `N` objects themselves, or
    /// — for a sub-population — the parent's table, shared.
    pub fn objects(&self) -> &Arc<Table> {
        &self.objects
    }

    /// The sub-population of this problem whose local row `i` is row
    /// `ids[i]` of this one (`ids` non-empty): it shares this problem's
    /// table and feature columns, and its predicate is a
    /// [`SubPopulation`] that labels through **this** problem's metered
    /// predicate, named `<q>` + `suffix`. Its feature view reads the
    /// columns through `ids` — the same list the predicate holds — or,
    /// when this problem is itself a sub-population, through `ids`
    /// composed with this problem's own list. The confidence level
    /// carries over.
    ///
    /// # Errors
    ///
    /// Returns [`TableError::RowIndexOutOfRange`] for the first member
    /// id outside this problem's population.
    pub(crate) fn sub_population(
        &self,
        ids: Arc<[u32]>,
        suffix: &str,
    ) -> CoreResult<CountingProblem> {
        // The views index the columns with these: reject a bad one here.
        let len = self.n();
        if let Some(&index) = ids.iter().find(|&&i| i as usize >= len) {
            let index = index as usize;
            return Err(TableError::RowIndexOutOfRange { index, len }.into());
        }
        let rows = match &self.rows {
            None => Arc::clone(&ids),
            Some(parent) => ids.iter().map(|&i| parent[i as usize]).collect(),
        };
        let predicate: Arc<dyn ObjectPredicate> = Arc::new(SubPopulation {
            parent_predicate: Arc::clone(&self.predicate),
            ids,
            name: format!("{}{suffix}", self.predicate.name()),
        });
        let (objects, features) = (Arc::clone(&self.objects), Arc::clone(&self.features));
        Ok(Self::over(objects, predicate, features, Some(rows)).with_level(self.level))
    }

    /// The per-object feature rows, as every reader in this crate sees
    /// them: the table's feature columns, through the id list of a
    /// sub-population.
    pub fn feature_view(&self) -> FeatureView<'_> {
        FeatureView::new(&self.objects, &self.features, self.rows.as_ref())
    }

    /// Per-object features as one matrix, gathered on the first call and
    /// kept — `8·d` bytes per object, which is why no estimator or served
    /// path calls this (they read [`CountingProblem::feature_view`]).
    pub fn features(&self) -> &Matrix {
        self.gathered
            .get_or_init(|| self.feature_view().gather_all())
    }

    /// Whether [`CountingProblem::features`] has been called, and the
    /// problem so holds a gathered copy of its feature rows.
    pub fn has_gathered_features(&self) -> bool {
        self.gathered.get().is_some()
    }

    /// Evaluate `q` on one object (metered).
    ///
    /// # Errors
    ///
    /// Propagates predicate errors.
    pub fn label(&self, idx: usize) -> CoreResult<bool> {
        Ok(self.predicate.eval(&self.objects, idx)?)
    }

    /// Evaluate `q` on a batch of objects (metered as one oracle call
    /// of `idxs.len()` evaluations). Labels align with `idxs`.
    ///
    /// This is the raw batched oracle: every index is evaluated, even
    /// duplicates. Estimators should label through [`Labeler`], which
    /// dedups so the budget counts **unique** evaluations.
    ///
    /// # Errors
    ///
    /// Propagates predicate errors.
    pub fn label_batch(&self, idxs: &[usize]) -> CoreResult<Vec<bool>> {
        Ok(self.predicate.eval_batch(&self.objects, idxs)?)
    }

    /// Metering counters for `q`.
    pub fn predicate_stats(&self) -> PredicateStats {
        self.predicate.stats()
    }

    /// Reset the `q` meter (between trials).
    pub fn reset_meter(&self) {
        self.predicate.reset();
    }

    /// Exact `C(O, q)` by full evaluation — the expensive ground truth.
    ///
    /// # Errors
    ///
    /// Propagates predicate errors.
    pub fn exact_count(&self) -> CoreResult<usize> {
        let all: Vec<usize> = (0..self.n()).collect();
        Ok(self.label_batch(&all)?.into_iter().filter(|&l| l).count())
    }
}

/// The one parent-delegating predicate: a sub-population (prefilter
/// survivors) evaluates local row `i` at its **global** id `ids[i]`
/// against the table it shares with its parent, through the parent's
/// meter — predicates may capture per-row state indexed by global id,
/// and the parent problem keeps counting every oracle evaluation. The
/// sub-population's own meter charges the thread's labeling clock and
/// phase; the parent's counts without charging them again. A local id
/// past the member count is an error raised before the parent is
/// called.
struct SubPopulation {
    parent_predicate: Arc<Metered<Arc<dyn ObjectPredicate>>>,
    ids: Arc<[u32]>,
    name: String,
}

impl SubPopulation {
    fn global(&self, idx: usize) -> TableResult<usize> {
        self.ids
            .get(idx)
            .map(|&id| id as usize)
            .ok_or(TableError::RowIndexOutOfRange {
                index: idx,
                len: self.ids.len(),
            })
    }
}

impl ObjectPredicate for SubPopulation {
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        self.parent_predicate
            .eval_nested(objects, self.global(idx)?)
    }

    fn eval_batch(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        let global: Vec<usize> = idxs
            .iter()
            .map(|&i| self.global(i))
            .collect::<TableResult<_>>()?;
        self.parent_predicate.eval_batch_nested(objects, &global)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A caching labeler: evaluates `q` at most once per object, so an
/// estimator's unique-evaluation count (its budget consumption) is
/// tracked precisely even when phases revisit objects.
pub struct Labeler<'a> {
    problem: &'a CountingProblem,
    cache: HashMap<usize, bool>,
    /// Labels injected via [`Labeler::preload`] — known before the run
    /// started (warm starts), so they never count as evaluations.
    preloaded: usize,
}

impl<'a> Labeler<'a> {
    /// Create a labeler for one estimation run.
    pub fn new(problem: &'a CountingProblem) -> Self {
        Self {
            problem,
            cache: HashMap::new(),
            preloaded: 0,
        }
    }

    /// Seed the cache with labels already known from a previous run
    /// (e.g. a warm start resuming from a stored training sample and
    /// design pilot). Preloaded labels cost nothing: they are excluded
    /// from [`Labeler::unique_evals`] and never reach the oracle.
    /// Indices already cached are ignored.
    pub fn preload(&mut self, idxs: &[usize], labels: &[bool]) {
        debug_assert_eq!(idxs.len(), labels.len());
        for (&i, &l) in idxs.iter().zip(labels) {
            if let std::collections::hash_map::Entry::Vacant(e) = self.cache.entry(i) {
                e.insert(l);
                self.preloaded += 1;
            }
        }
    }

    /// Label an object, consulting the cache first.
    ///
    /// # Errors
    ///
    /// Propagates predicate errors.
    pub fn label(&mut self, idx: usize) -> CoreResult<bool> {
        if let Some(&l) = self.cache.get(&idx) {
            return Ok(l);
        }
        let l = self.problem.label(idx)?;
        self.cache.insert(idx, l);
        Ok(l)
    }

    /// Label a batch of objects, returning labels aligned with `idxs`.
    ///
    /// Only indices missing from the cache are sent to the oracle, as
    /// **one deduplicated batch** — so the meter advances by exactly
    /// the number of *unique, previously unseen* indices, and budget
    /// accounting stays exact even when phases revisit objects or a
    /// draw contains repeats.
    ///
    /// # Errors
    ///
    /// Propagates predicate errors; on error no labels are cached.
    pub fn label_batch(&mut self, idxs: &[usize]) -> CoreResult<Vec<bool>> {
        let mut missing = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &i in idxs {
            if !self.cache.contains_key(&i) && seen.insert(i) {
                missing.push(i);
            }
        }
        if !missing.is_empty() {
            let labels = self.problem.label_batch(&missing)?;
            for (&i, l) in missing.iter().zip(labels) {
                self.cache.insert(i, l);
            }
        }
        Ok(idxs.iter().map(|i| self.cache[i]).collect())
    }

    /// Unique `q` evaluations so far (fresh oracle work only —
    /// preloaded labels are excluded).
    pub fn unique_evals(&self) -> usize {
        self.cache.len() - self.preloaded
    }

    /// Count of positives among a set of objects, labeling any
    /// not-yet-labeled member as one batched oracle call.
    ///
    /// # Errors
    ///
    /// Propagates predicate errors.
    pub fn count_positives(&mut self, indices: &[usize]) -> CoreResult<usize> {
        Ok(self
            .label_batch(indices)?
            .into_iter()
            .filter(|&l| l)
            .count())
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared fixtures for estimator tests.
    use super::*;
    use lts_table::table::table_of_floats;
    use lts_table::FnPredicate;

    /// A 1-d problem: objects `x = 0..n`, positive iff `x < frac·n`.
    /// Perfectly learnable from the single feature.
    pub(crate) fn line_problem(n: usize, frac: f64) -> CountingProblem {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let threshold = frac * n as f64;
        let p: Arc<dyn ObjectPredicate> =
            Arc::new(FnPredicate::new("lt-frac", move |t: &Table, i| {
                Ok(t.floats("x")?[i] < threshold)
            }));
        CountingProblem::new(t, p, &["x"]).unwrap()
    }

    /// A ramp problem: `P(q = 1)` rises linearly from 0 to 1 as `x`
    /// crosses `[lo·n, hi·n]` (labels fixed per object via hashing).
    /// This is the paper's picture: confident regions at both ends and a
    /// wide uncertain band in the middle that stratified designs should
    /// isolate.
    pub(crate) fn ramp_problem(n: usize, lo: f64, hi: f64, seed: u64) -> CountingProblem {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let (lo, hi) = (lo * n as f64, hi * n as f64);
        let p: Arc<dyn ObjectPredicate> =
            Arc::new(FnPredicate::new("ramp", move |t: &Table, i| {
                let x = t.floats("x")?[i];
                let prob = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
                let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 27;
                h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                Ok(u < prob)
            }));
        CountingProblem::new(t, p, &["x"]).unwrap()
    }

    /// A noisy 1-d problem: positive with probability depending on x
    /// (hard boundary + deterministic hash noise) — learnable but not
    /// perfectly separable.
    pub(crate) fn noisy_problem(n: usize, frac: f64, noise: f64, seed: u64) -> CountingProblem {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
        let threshold = frac * n as f64;
        let p: Arc<dyn ObjectPredicate> =
            Arc::new(FnPredicate::new("noisy", move |t: &Table, i| {
                let x = t.floats("x")?[i];
                let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 27;
                h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                let base = x < threshold;
                Ok(if u < noise { !base } else { base })
            }));
        CountingProblem::new(t, p, &["x"]).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_table::table::table_of_floats;
    use lts_table::FnPredicate;

    fn problem() -> CountingProblem {
        let t = Arc::new(table_of_floats(&[("v", &[1.0, -1.0, 2.0, -2.0, 3.0])]).unwrap());
        let p: Arc<dyn ObjectPredicate> = Arc::new(FnPredicate::new("pos", |t: &Table, i| {
            Ok(t.floats("v")?[i] > 0.0)
        }));
        CountingProblem::new(t, p, &["v"]).unwrap()
    }

    #[test]
    fn problem_basics() {
        let p = problem();
        assert_eq!(p.n(), 5);
        assert_eq!(p.level(), 0.95);
        assert_eq!(p.features().rows(), 5);
        assert_eq!(p.exact_count().unwrap(), 3);
        assert!(p.predicate_stats().evals >= 5);
        p.reset_meter();
        assert_eq!(p.predicate_stats().evals, 0);
    }

    #[test]
    fn labeler_caches() {
        let p = problem();
        p.reset_meter();
        let mut l = Labeler::new(&p);
        assert!(l.label(0).unwrap());
        assert!(l.label(0).unwrap());
        assert!(!l.label(1).unwrap());
        assert_eq!(l.unique_evals(), 2);
        assert_eq!(p.predicate_stats().evals, 2); // cache prevented re-eval
        assert_eq!(l.count_positives(&[0, 1, 2]).unwrap(), 2);
        assert_eq!(l.unique_evals(), 3);
    }

    #[test]
    fn label_batch_dedups_within_and_across_calls() {
        let p = problem();
        p.reset_meter();
        let mut l = Labeler::new(&p);
        // Duplicates inside one batch cost one eval each.
        let labels = l.label_batch(&[0, 1, 0, 1, 2]).unwrap();
        assert_eq!(labels, vec![true, false, true, false, true]);
        assert_eq!(l.unique_evals(), 3);
        assert_eq!(p.predicate_stats().evals, 3);
        assert_eq!(p.predicate_stats().calls, 1);
        // Already-cached indices cost nothing; only index 3 is new.
        let labels = l.label_batch(&[2, 3, 2]).unwrap();
        assert_eq!(labels, vec![true, false, true]);
        assert_eq!(l.unique_evals(), 4);
        assert_eq!(p.predicate_stats().evals, 4);
        // Batch and single-row labeling agree.
        let mut fresh = Labeler::new(&p);
        for i in 0..p.n() {
            assert_eq!(
                fresh.label(i).unwrap(),
                l.label_batch(&[i]).unwrap()[0],
                "row {i}"
            );
        }
    }

    #[test]
    fn empty_and_fully_cached_batches_touch_no_oracle() {
        let p = problem();
        p.reset_meter();
        let mut l = Labeler::new(&p);
        assert!(l.label_batch(&[]).unwrap().is_empty());
        assert_eq!(p.predicate_stats().calls, 0);
        l.label_batch(&[0, 1]).unwrap();
        let calls = p.predicate_stats().calls;
        l.label_batch(&[1, 0]).unwrap();
        assert_eq!(
            p.predicate_stats().calls,
            calls,
            "cache hit must not call q"
        );
    }

    #[test]
    fn preloaded_labels_cost_nothing() {
        let p = problem();
        p.reset_meter();
        let mut l = Labeler::new(&p);
        l.preload(&[0, 1], &[true, false]);
        assert_eq!(l.unique_evals(), 0, "preloads are not evals");
        // Labeling preloaded ids is answered from the cache.
        assert_eq!(l.label_batch(&[0, 1]).unwrap(), vec![true, false]);
        assert_eq!(p.predicate_stats().calls, 0);
        // Fresh ids still hit the oracle and count.
        assert!(l.label(2).unwrap());
        assert_eq!(l.unique_evals(), 1);
        assert_eq!(p.predicate_stats().evals, 1);
        // Preloading an already-known id is a no-op (no double count).
        l.preload(&[2], &[false]);
        assert!(l.label(2).unwrap(), "existing label wins over preload");
        assert_eq!(l.unique_evals(), 1);
    }

    #[test]
    fn with_level_and_validation() {
        let p = problem().with_level(0.9);
        assert_eq!(p.level(), 0.9);
        let t = Arc::new(table_of_floats(&[("v", &[])]).unwrap());
        let pred: Arc<dyn ObjectPredicate> =
            Arc::new(FnPredicate::new("any", |_: &Table, _| Ok(true)));
        assert!(CountingProblem::new(t, pred, &["v"]).is_err());
    }
}
