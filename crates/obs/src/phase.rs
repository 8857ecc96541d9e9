//! Scoped per-thread phase attribution for oracle evaluations.
//!
//! The metered labeler (`lts_table::Metered`) records every oracle
//! evaluation on the thread that asked for it. This module gives that
//! record an *address*: the pipeline wraps each preparation phase in a
//! [`scope`] guard, and [`record_evals`] charges the evaluations to
//! whichever phase tag is current on the calling thread. Because the
//! labeler batches (one `record` call per `label_batch`, on the
//! calling thread) and the warm pipeline runs its phases sequentially
//! on one thread, diffing [`thread_evals`] around a phase yields an
//! *exact* per-phase attribution — not a sample.
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

/// Charge `n` oracle evaluations to the calling thread's current
/// phase. Called by the metered labeler once per batch.
#[inline]
pub fn record_evals(n: u64) {
    if n == 0 {
        return;
    }
    let idx = CURRENT.with(|c| c.get());
    EVALS.with(|e| {
        let mut v = e.get();
        v[idx] = v[idx].saturating_add(n);
        e.set(v);
    });
}

/// Snapshot of the calling thread's monotone per-phase eval counters,
/// indexed by `Phase as usize`. Diff two snapshots to attribute a span.
pub fn thread_evals() -> [u64; NUM_PHASES] {
    EVALS.with(|e| e.get())
}

/// Run `f` with the calling thread's phase state (current tag and
/// per-phase counters) swapped out for a fresh one, restoring the
/// previous state afterwards. [`crate::trace::collect`] wraps its
/// closure in this: a work-stealing thread blocked in a join can run
/// *another* request's unit of work inline, and without isolation that
/// work's [`record_evals`] calls would leak into the phase delta an
/// enclosing span on this thread is measuring.
pub fn isolated<T>(f: impl FnOnce() -> T) -> T {
    let prev_current = CURRENT.with(|c| c.replace(Phase::Other as usize));
    let prev_evals = EVALS.with(|e| e.replace([0; NUM_PHASES]));
    let out = f();
    CURRENT.with(|c| c.set(prev_current));
    EVALS.with(|e| e.set(prev_evals));
    out
}

/// Component-wise saturating difference `after - before`.
pub fn delta(after: [u64; NUM_PHASES], before: [u64; NUM_PHASES]) -> [u64; NUM_PHASES] {
    let mut out = [0u64; NUM_PHASES];
    for i in 0..NUM_PHASES {
        out[i] = after[i].saturating_sub(before[i]);
    }
    out
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
        let before = thread_evals();
        {
            let _g = scope(Phase::Stage2);
            record_evals(7);
        }
        record_evals(2);
        let d = delta(thread_evals(), before);
        assert_eq!(d[Phase::Stage2 as usize], 7);
        assert_eq!(d[Phase::Other as usize], 2);
        assert_eq!(d.iter().sum::<u64>(), 9);
    }

    #[test]
    fn isolated_swaps_and_restores_phase_state() {
        let _g = scope(Phase::Train);
        let before = thread_evals();
        record_evals(3);
        let inner = isolated(|| {
            assert_eq!(current(), Phase::Other);
            let _g2 = scope(Phase::Stage2);
            record_evals(100);
            thread_evals()[Phase::Stage2 as usize]
        });
        assert_eq!(inner, 100);
        assert_eq!(current(), Phase::Train);
        let d = delta(thread_evals(), before);
        assert_eq!(d[Phase::Train as usize], 3);
        assert_eq!(d[Phase::Stage2 as usize], 0);
    }

    #[test]
    fn zero_record_is_free_and_counters_are_monotone() {
        let before = thread_evals();
        record_evals(0);
        assert_eq!(delta(thread_evals(), before), [0; NUM_PHASES]);
    }
}
