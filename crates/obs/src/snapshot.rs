//! The [`Snapshot`] trait: counter bundles that support per-request
//! deltas, not just process-lifetime totals.
//!
//! Subsystems expose point-in-time counter structs (the buffer
//! manager's `BufferSnapshot`, the paged scanner's `ScanSnapshot`).
//! Reporting a *span* of work needs `after − before`; merging sibling
//! spans needs component-wise addition.
//! Implementors provide both under one algebra: `merge` is
//! component-wise saturating addition and `delta` its (saturating)
//! inverse, so for monotone counters
//! `before.merge(&after.delta(&before)) == after`.

/// A bundle of monotone counters with component-wise merge and delta.
pub trait Snapshot: Sized {
    /// Component-wise saturating sum of two snapshots (e.g. combining
    /// sibling spans into a total).
    fn merge(&self, other: &Self) -> Self;

    /// Component-wise saturating difference `self − before`: the
    /// activity that happened between the two snapshots.
    fn delta(&self, before: &Self) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Pair {
        a: u64,
        b: u64,
    }

    impl Snapshot for Pair {
        fn merge(&self, other: &Self) -> Self {
            Pair {
                a: self.a.saturating_add(other.a),
                b: self.b.saturating_add(other.b),
            }
        }
        fn delta(&self, before: &Self) -> Self {
            Pair {
                a: self.a.saturating_sub(before.a),
                b: self.b.saturating_sub(before.b),
            }
        }
    }

    #[test]
    fn merge_inverts_delta_for_monotone_counters() {
        let before = Pair { a: 3, b: 10 };
        let after = Pair { a: 8, b: 10 };
        let d = after.delta(&before);
        assert_eq!(d, Pair { a: 5, b: 0 });
        assert_eq!(before.merge(&d), after);
    }
}
