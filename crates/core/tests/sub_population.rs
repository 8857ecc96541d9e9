//! A sub-population (shard or prefilter survivors) checks its local
//! ids: one past its end is an error raised before the parent problem
//! is touched — never a panic, never a neighbouring shard's label.

mod common;

use common::band_problem;
use lts_core::{restrict_problem, shard_problems, CoreError, CoreResult, ShardPlan};
use lts_table::TableError;
use std::sync::Arc;

#[test]
fn shard_and_survivor_local_ids_past_the_end_are_errors_not_neighbours() {
    let problem = band_problem(200, 5);
    let plan = ShardPlan::uniform(200, 4).unwrap();
    let shards = shard_problems(&problem, &plan).unwrap();
    let survivors = restrict_problem(&problem, &[3, 10, 17, 40]).unwrap();
    // Both id maps. The first shard's next row exists in the parent (it
    // is shard 1's row 0); the last shard's does not.
    for sub in [&*shards[0], &*shards[3], &survivors] {
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
/// is built — the feature gather never sees it — and a shard plan over
/// a different population is refused whole.
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
    for n in [199, 201] {
        let plan = ShardPlan::uniform(n, 4).unwrap();
        assert!(
            shard_problems(&problem, &plan).is_err(),
            "plan over {n} rows"
        );
    }
}

/// Sub-populations share their parent's table: nothing is copied but
/// the id map and the members' feature rows.
#[test]
fn sub_populations_share_the_parents_table() {
    let problem = band_problem(200, 5);
    let survivors = restrict_problem(&problem, &[3, 10, 17, 40]).unwrap();
    assert!(Arc::ptr_eq(survivors.objects(), problem.objects()));
    assert_eq!(survivors.n(), 4);
    assert_eq!(survivors.features().row(2), problem.features().row(17));
    // A shard of a sub-population still evaluates against the root.
    let plan = ShardPlan::uniform(4, 2).unwrap();
    for (s, shard) in shard_problems(&survivors, &plan)
        .unwrap()
        .iter()
        .enumerate()
    {
        assert!(Arc::ptr_eq(shard.objects(), problem.objects()));
        assert_eq!(shard.n(), 2);
        let global = [3, 10, 17, 40][2 * s + 1];
        assert_eq!(shard.label(1).unwrap(), problem.label(global).unwrap());
    }
}
