//! A sub-population (shard or prefilter survivors) checks its local
//! ids: one past its end is an error raised before the parent problem
//! is touched — never a panic, never a neighbouring shard's label.

mod common;

use common::band_problem;
use lts_core::{restrict_problem, shard_problems, CoreError, CoreResult, ShardPlan};
use lts_table::TableError;

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
