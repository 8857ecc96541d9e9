//! Scoped per-thread phase attribution for oracle evaluations and
//! labeling time.
//!
//! The metered labeler (`lts_table::Metered`) records every labeled
//! batch on the thread that asked for it — its evaluations and the
//! nanoseconds the oracle took ([`record`]). This module gives that
//! record an *address*: the estimators wrap each phase in a [`scope`]
//! guard (through `lts_core`'s one phase clock), and [`record`] charges
//! the evaluations to whichever phase tag is current on the calling
//! thread and the nanoseconds to the thread's labeling clock. Because
//! the labeler records once per batch on the calling thread and an
//! estimation run executes its phases sequentially on one thread,
//! diffing [`thread_evals`] and [`thread_label_nanos`] around a phase
//! yields an *exact* per-phase attribution — not a sample — even while
//! other threads label against the same shared meter.
//!
//! Everything here is thread-local and lock-free; with no scope
//! installed, evaluations land in [`Phase::Other`].

use std::cell::Cell;

/// Number of distinct phases (length of the [`thread_evals`] array).
pub const NUM_PHASES: usize = 7;

/// Where in the pipeline an oracle evaluation (or a span of work)
/// happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Labeling the training split and fitting the proxy model.
    Train = 0,
    /// Scoring the remaining population with the trained proxy
    /// (no oracle evaluations by construction).
    Score = 1,
    /// Labeling the pilot sample used to design the allocation.
    Pilot = 2,
    /// Cutting strata / computing the allocation from pilot labels.
    Design = 3,
    /// The stage-2 estimation draw (the warm-path marginal cost).
    Stage2 = 4,
    /// Exact scans (census / exact-prefilter routes).
    Exact = 5,
    /// Anything not inside an explicit scope.
    Other = 6,
}

impl Phase {
    /// Stable lower-case name used in metrics and trace events.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Train => "train",
            Phase::Score => "score",
            Phase::Pilot => "pilot",
            Phase::Design => "design",
            Phase::Stage2 => "stage2",
            Phase::Exact => "exact",
            Phase::Other => "other",
        }
    }

    /// All phases, in index order (matches [`thread_evals`] slots).
    pub fn all() -> [Phase; NUM_PHASES] {
        [
            Phase::Train,
            Phase::Score,
            Phase::Pilot,
            Phase::Design,
            Phase::Stage2,
            Phase::Exact,
            Phase::Other,
        ]
    }
}

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(Phase::Other as usize) };
    static EVALS: Cell<[u64; NUM_PHASES]> = const { Cell::new([0; NUM_PHASES]) };
    static LABEL_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard restoring the previous phase tag on drop.
#[must_use = "the phase scope ends when this guard is dropped"]
pub struct PhaseScope {
    prev: usize,
}

/// Set the calling thread's current phase until the returned guard is
/// dropped. Scopes nest.
pub fn scope(p: Phase) -> PhaseScope {
    let prev = CURRENT.with(|c| c.replace(p as usize));
    PhaseScope { prev }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// The calling thread's current phase.
pub fn current() -> Phase {
    Phase::all()[CURRENT.with(|c| c.get())]
}

/// Charge one labeled batch to the calling thread: its `evals` oracle
/// evaluations to the current phase, the `nanos` the oracle took to
/// the thread's labeling clock. Called by the metered labeler once per
/// batch.
#[inline]
pub fn record(evals: u64, nanos: u64) {
    if evals == 0 {
        return;
    }
    let idx = CURRENT.with(|c| c.get());
    EVALS.with(|e| {
        let mut v = e.get();
        v[idx] = v[idx].saturating_add(evals);
        e.set(v);
    });
    LABEL_NANOS.with(|c| c.set(c.get().saturating_add(nanos)));
}

/// Snapshot of the calling thread's monotone per-phase eval counters,
/// indexed by `Phase as usize`. Diff two snapshots to attribute a span.
pub fn thread_evals() -> [u64; NUM_PHASES] {
    EVALS.with(|e| e.get())
}

/// Nanoseconds the calling thread has spent inside metered oracle
/// batches (monotone). Diff two readings to time a span's labeling.
pub fn thread_label_nanos() -> u64 {
    LABEL_NANOS.with(Cell::get)
}

/// Run `f` with the calling thread's phase state (current tag,
/// per-phase counters and labeling clock) swapped out for a fresh one,
/// restoring the previous state afterwards. [`crate::trace::collect`]
/// wraps its closure in this: a work-stealing thread blocked in a join
/// can run *another* request's unit of work inline, and without
/// isolation that work's [`record`] calls would leak into the phase
/// delta an enclosing span on this thread is measuring.
pub fn isolated<T>(f: impl FnOnce() -> T) -> T {
    let prev_current = CURRENT.with(|c| c.replace(Phase::Other as usize));
    let prev_evals = EVALS.with(|e| e.replace([0; NUM_PHASES]));
    let prev_nanos = LABEL_NANOS.with(|c| c.replace(0));
    let out = f();
    CURRENT.with(|c| c.set(prev_current));
    EVALS.with(|e| e.set(prev_evals));
    LABEL_NANOS.with(|c| c.set(prev_nanos));
    out
}

/// Component-wise saturating difference `after - before`.
pub fn delta(after: [u64; NUM_PHASES], before: [u64; NUM_PHASES]) -> [u64; NUM_PHASES] {
    std::array::from_fn(|i| after[i].saturating_sub(before[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current(), Phase::Other);
        let g = scope(Phase::Train);
        assert_eq!(current(), Phase::Train);
        {
            let g2 = scope(Phase::Pilot);
            assert_eq!(current(), Phase::Pilot);
            drop(g2);
        }
        assert_eq!(current(), Phase::Train);
        drop(g);
        assert_eq!(current(), Phase::Other);
    }

    #[test]
    fn evals_land_in_the_current_phase() {
        let (before, nanos) = (thread_evals(), thread_label_nanos());
        {
            let _g = scope(Phase::Stage2);
            record(7, 70);
        }
        record(2, 20);
        let d = delta(thread_evals(), before);
        assert_eq!(d[Phase::Stage2 as usize], 7);
        assert_eq!(d[Phase::Other as usize], 2);
        assert_eq!(d.iter().sum::<u64>(), 9);
        assert_eq!(thread_label_nanos() - nanos, 90);
    }

    #[test]
    fn isolated_swaps_and_restores_phase_state() {
        let _g = scope(Phase::Train);
        let before = thread_evals();
        record(3, 30);
        let nanos = thread_label_nanos();
        let inner = isolated(|| {
            assert_eq!(current(), Phase::Other);
            let _g2 = scope(Phase::Stage2);
            record(100, 1_000);
            (thread_evals()[Phase::Stage2 as usize], thread_label_nanos())
        });
        assert_eq!(inner, (100, 1_000));
        assert_eq!(thread_label_nanos(), nanos);
        assert_eq!(current(), Phase::Train);
        let d = delta(thread_evals(), before);
        assert_eq!(d[Phase::Train as usize], 3);
        assert_eq!(d[Phase::Stage2 as usize], 0);
    }

    #[test]
    fn zero_record_is_free_and_counters_are_monotone() {
        let (before, nanos) = (thread_evals(), thread_label_nanos());
        record(0, 5);
        assert_eq!(delta(thread_evals(), before), [0; NUM_PHASES]);
        assert_eq!(thread_label_nanos(), nanos);
    }
}
