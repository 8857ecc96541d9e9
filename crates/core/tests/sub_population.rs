//! A sub-population (prefilter survivors) checks its local ids: one
//! past its end is an error raised before the parent problem is
//! touched — never a panic, never a neighbouring row's label.

mod common;

use common::band_problem;
use lts_core::{restrict_problem, CoreError, CoreResult};
use lts_table::TableError;
use std::sync::Arc;

#[test]
fn survivor_local_ids_past_the_end_are_errors_not_neighbours() {
    let problem = band_problem(200, 5);
    let sparse = restrict_problem(&problem, &[3, 10, 17, 40]).unwrap();
    // A contiguous prefix: its next local id is a row the parent has.
    let prefix: Vec<usize> = (0..50).collect();
    let prefix = restrict_problem(&problem, &prefix).unwrap();
    for sub in [&sparse, &prefix] {
        let len = sub.n();
        problem.reset_meter();
        let expect_oob = |r: CoreResult<()>, index: usize| match r {
            Err(CoreError::Table(TableError::RowIndexOutOfRange { index: i, len: l })) => {
                assert_eq!((i, l), (index, len));
            }
            other => panic!("expected RowIndexOutOfRange, got {other:?}"),
        };
        expect_oob(sub.label(len).map(|_| ()), len);
        // The first offender in batch order, even when it is not first.
        expect_oob(sub.label_batch(&[0, len + 5, len]).map(|_| ()), len + 5);
        assert_eq!(problem.predicate_stats().evals, 0, "parent meter moved");
        // In-range ids still label, through the parent.
        assert_eq!(sub.label_batch(&[0, len - 1]).unwrap().len(), 2);
        assert_eq!(problem.predicate_stats().evals, 2);
    }
}

/// A member id outside the parent is an error when the sub-population
/// is built — the feature gather never sees it.
#[test]
fn out_of_range_members_are_errors_at_construction_not_panics() {
    let problem = band_problem(200, 5);
    for bad in [vec![problem.n()], vec![3, 10, 950, 40]] {
        let index = *bad.iter().max().unwrap();
        match restrict_problem(&problem, &bad).map(|_| ()) {
            Err(CoreError::Table(TableError::RowIndexOutOfRange { index: i, len: 200 })) => {
                assert_eq!(i, index);
            }
            other => panic!("expected RowIndexOutOfRange, got {other:?}"),
        }
    }
}

/// Sub-populations share their parent's table: nothing is copied but
/// the id list and the members' feature rows.
#[test]
fn sub_populations_share_the_parents_table() {
    let problem = band_problem(200, 5);
    let survivors = restrict_problem(&problem, &[3, 10, 17, 40]).unwrap();
    assert!(Arc::ptr_eq(survivors.objects(), problem.objects()));
    assert_eq!(survivors.n(), 4);
    assert_eq!(survivors.features().row(2), problem.features().row(17));
    // A restriction of a restriction still evaluates against the root,
    // and labels as the root does at the global id.
    let nested = restrict_problem(&survivors, &[1, 3]).unwrap();
    assert!(Arc::ptr_eq(nested.objects(), problem.objects()));
    assert_eq!(nested.n(), 2);
    for (local, global) in [(0, 10), (1, 40)] {
        assert_eq!(nested.features().row(local), problem.features().row(global));
        assert_eq!(nested.label(local).unwrap(), problem.label(global).unwrap());
    }
}
