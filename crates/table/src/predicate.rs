//! Object predicates and evaluation metering.
//!
//! The paper's cost model counts **evaluations of the expensive predicate
//! `q`** — every estimator has a labeling budget denominated in such
//! evaluations. [`Metered`] wraps any predicate and counts its
//! evaluations and oracle calls, so experiments can verify that no
//! estimator exceeds its budget; it also charges each batch's
//! evaluations and wall time to the calling thread's phase clock
//! ([`lts_obs::phase::record`]), which is how estimators report overhead
//! as a fraction of labeling cost (Figure 3).

use crate::error::TableResult;
use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A Boolean predicate over rows of an object table: `q : O → {0, 1}`.
pub trait ObjectPredicate: Send + Sync {
    /// Evaluate `q(o)` for the object at `idx` in `objects`.
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors (unknown columns, type
    /// mismatches, …).
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool>;

    /// Evaluate `q` on a batch of objects, returning labels aligned
    /// with `idxs`.
    ///
    /// The default implementation loops over [`eval`](Self::eval);
    /// predicates with amortizable per-call setup (plan caching, shared
    /// scans, SIMD/accelerator batches) should override it. Batching is
    /// the labeling pipeline's unit of work: estimators hand whole
    /// sample draws to the oracle instead of row-at-a-time calls.
    ///
    /// # Errors
    ///
    /// Propagates the first row's evaluation error.
    fn eval_batch(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        idxs.iter().map(|&i| self.eval(objects, i)).collect()
    }

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "predicate"
    }
}

impl<P: ObjectPredicate + ?Sized> ObjectPredicate for Arc<P> {
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        (**self).eval(objects, idx)
    }
    fn eval_batch(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        (**self).eval_batch(objects, idxs)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A predicate defined by a closure (a "user-defined function").
pub struct FnPredicate<F> {
    f: F,
    name: String,
}

impl<F> FnPredicate<F>
where
    F: Fn(&Table, usize) -> TableResult<bool> + Send + Sync,
{
    /// Wrap a closure as a predicate.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        Self {
            f,
            name: name.into(),
        }
    }
}

impl<F> ObjectPredicate for FnPredicate<F>
where
    F: Fn(&Table, usize) -> TableResult<bool> + Send + Sync,
{
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        (self.f)(objects, idx)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Snapshot of metering counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredicateStats {
    /// Number of `q` evaluations performed.
    pub evals: u64,
    /// Number of oracle calls that carried those evaluations (a batch
    /// of any size counts once; single-row `eval` counts once). The
    /// ratio `evals / calls` is the achieved batching factor.
    pub calls: u64,
}

/// Wraps a predicate and meters its evaluations.
///
/// Cheap to share: counters are atomics, so a single `Arc<Metered>` can
/// be used across an entire estimation pipeline.
pub struct Metered<P: ?Sized> {
    evals: AtomicU64,
    calls: AtomicU64,
    inner: P,
}

impl<P: ObjectPredicate> Metered<P> {
    /// Wrap a predicate.
    pub fn new(inner: P) -> Self {
        Self {
            evals: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            inner,
        }
    }

    /// The wrapped predicate.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: ObjectPredicate + ?Sized> Metered<P> {
    /// Current counters.
    pub fn stats(&self) -> PredicateStats {
        PredicateStats {
            evals: self.evals.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }

    /// Reset the counters to zero.
    pub fn reset(&self) {
        self.evals.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
    }

    /// Meter one evaluation or batch of `evals` made by `eval`, and
    /// charge it to the calling thread's phase clock: its evaluations
    /// to the phase in scope (train / pilot / stage-2 / …), its wall
    /// time to the thread's labeling clock.
    fn metered<T>(&self, evals: u64, eval: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = self.metered_nested(evals, eval);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        lts_obs::phase::record(evals, nanos);
        result
    }

    /// Meter `evals` on this meter's counters only. An errored batch is
    /// charged in full even though the inner implementation may have
    /// stopped at the first failing row: the meter cannot observe how
    /// far a batch got, and its budget-enforcement role prefers an
    /// upper bound over under-counting. Estimation aborts on error, so
    /// the overcharge never skews a completed run's statistics.
    fn metered_nested<T>(&self, evals: u64, eval: impl FnOnce() -> T) -> T {
        let result = eval();
        // One saturating RMW per counter: counts stay exact under
        // concurrent single-row and batch evaluations (each batch
        // contributes its length exactly once, atomically), and a
        // pathological long-running session pins at `u64::MAX` instead
        // of silently wrapping to a tiny count (`fetch_add` wraps).
        saturating_fetch_add(&self.evals, evals);
        saturating_fetch_add(&self.calls, 1);
        result
    }

    /// [`ObjectPredicate::eval_batch`] on behalf of another meter that
    /// charges the same evaluations — a sub-population labelling through
    /// its parent's predicate: this meter's counters count them, but the
    /// thread's phase clock ([`lts_obs::phase::record`]) is left to the
    /// caller's meter, so the batch is charged there once.
    ///
    /// # Errors
    ///
    /// Propagates the first row's evaluation error.
    pub fn eval_batch_nested(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        if idxs.is_empty() {
            return Ok(Vec::new());
        }
        self.metered_nested(idxs.len() as u64, || self.inner.eval_batch(objects, idxs))
    }

    /// [`ObjectPredicate::eval`] on behalf of another meter, as
    /// [`eval_batch_nested`](Self::eval_batch_nested).
    ///
    /// # Errors
    ///
    /// Propagates the evaluation error.
    pub fn eval_nested(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        self.metered_nested(1, || self.inner.eval(objects, idx))
    }

    /// Force the raw counters to specific values — a test hook for
    /// exercising the saturation path without performing ~2⁶⁴ real
    /// evaluations.
    #[cfg(test)]
    fn force_counters(&self, evals: u64, calls: u64) {
        self.evals.store(evals, Ordering::Relaxed);
        self.calls.store(calls, Ordering::Relaxed);
    }
}

/// `fetch_add` that clamps at `u64::MAX` instead of wrapping. A CAS
/// loop: contention retries are bounded by the number of concurrent
/// writers, and the saturated state is absorbing (no retry storm once
/// pinned).
#[inline]
fn saturating_fetch_add(counter: &AtomicU64, delta: u64) -> u64 {
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(delta);
        match counter.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(prev) => return prev,
            Err(observed) => current = observed,
        }
    }
}

impl<P: ObjectPredicate + ?Sized> ObjectPredicate for Metered<P> {
    fn eval(&self, objects: &Table, idx: usize) -> TableResult<bool> {
        self.metered(1, || self.inner.eval(objects, idx))
    }
    fn eval_batch(&self, objects: &Table, idxs: &[usize]) -> TableResult<Vec<bool>> {
        if idxs.is_empty() {
            return Ok(Vec::new());
        }
        self.metered(idxs.len() as u64, || self.inner.eval_batch(objects, idxs))
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::table_of_floats;

    #[test]
    fn fn_predicate_evaluates() {
        let t = table_of_floats(&[("x", &[1.0, -2.0, 3.0])]).unwrap();
        let p = FnPredicate::new("positive", |t: &Table, i| Ok(t.floats("x")?[i] > 0.0));
        assert!(p.eval(&t, 0).unwrap());
        assert!(!p.eval(&t, 1).unwrap());
        assert_eq!(p.name(), "positive");
    }

    #[test]
    fn metering_counts_evaluations() {
        let t = table_of_floats(&[("x", &[1.0, -2.0, 3.0])]).unwrap();
        let p = Metered::new(FnPredicate::new("pos", |t: &Table, i| {
            Ok(t.floats("x")?[i] > 0.0)
        }));
        for i in 0..3 {
            let _ = p.eval(&t, i).unwrap();
        }
        let stats = p.stats();
        assert_eq!(stats.evals, 3);
        p.reset();
        assert_eq!(p.stats(), PredicateStats { evals: 0, calls: 0 });
    }

    #[test]
    fn metering_through_arc() {
        let t = table_of_floats(&[("x", &[1.0])]).unwrap();
        let p = Arc::new(Metered::new(FnPredicate::new("any", |_: &Table, _| {
            Ok(true)
        })));
        let p2 = Arc::clone(&p);
        assert!(p2.eval(&t, 0).unwrap());
        assert!(p.eval(&t, 0).unwrap());
        assert_eq!(p.stats().evals, 2);
    }

    #[test]
    fn batch_eval_matches_rows_and_counts_once_per_row() {
        let t = table_of_floats(&[("x", &[1.0, -2.0, 3.0, -4.0])]).unwrap();
        let p = Metered::new(FnPredicate::new("pos", |t: &Table, i| {
            Ok(t.floats("x")?[i] > 0.0)
        }));
        let idxs = [3, 0, 2, 0];
        let batch = p.eval_batch(&t, &idxs).unwrap();
        let rows: Vec<bool> = idxs
            .iter()
            .map(|&i| p.inner().eval(&t, i).unwrap())
            .collect();
        assert_eq!(batch, rows);
        let stats = p.stats();
        // The metered batch charged exactly idxs.len() evals in 1 call.
        assert_eq!(stats.evals, 4);
        assert_eq!(stats.calls, 1);
    }

    #[test]
    fn concurrent_batches_keep_counters_exact() {
        let xs: Vec<f64> = (0..256).map(|i| f64::from(i) - 128.0).collect();
        let t = table_of_floats(&[("x", &xs)]).unwrap();
        let p = Arc::new(Metered::new(FnPredicate::new("pos", |t: &Table, i| {
            Ok(t.floats("x")?[i] > 0.0)
        })));
        std::thread::scope(|s| {
            for k in 0..8 {
                let p = Arc::clone(&p);
                let t = &t;
                s.spawn(move || {
                    let idxs: Vec<usize> = (0..32).map(|j| (k * 32 + j) % 256).collect();
                    p.eval_batch(t, &idxs).unwrap();
                    p.eval(t, k).unwrap();
                });
            }
        });
        let stats = p.stats();
        assert_eq!(stats.evals, 8 * 32 + 8);
        assert_eq!(stats.calls, 16);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let t = table_of_floats(&[("x", &[1.0, 2.0, 3.0])]).unwrap();
        let p = Metered::new(FnPredicate::new("any", |_: &Table, _| Ok(true)));
        // Counters one step from the ceiling: the next batch must pin
        // them at u64::MAX, not wrap to a tiny value.
        p.force_counters(u64::MAX - 1, u64::MAX);
        p.eval_batch(&t, &[0, 1, 2]).unwrap();
        let stats = p.stats();
        assert_eq!(stats.evals, u64::MAX, "evals must saturate");
        assert_eq!(stats.calls, u64::MAX, "calls must saturate");
        // The saturated state is absorbing.
        p.eval(&t, 0).unwrap();
        assert_eq!(p.stats().evals, u64::MAX);
        // And a reset recovers normal counting.
        p.reset();
        p.eval(&t, 0).unwrap();
        assert_eq!(p.stats().evals, 1);
    }

    #[test]
    fn errors_propagate_and_still_count() {
        let t = table_of_floats(&[("x", &[1.0])]).unwrap();
        let p = Metered::new(FnPredicate::new("bad", |t: &Table, _| {
            t.floats("nope").map(|_| true)
        }));
        assert!(p.eval(&t, 0).is_err());
        assert_eq!(p.stats().evals, 1);
    }
}
