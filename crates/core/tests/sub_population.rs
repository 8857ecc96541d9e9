//! A sub-population (prefilter survivors) checks its local ids: one
//! past its end is an error raised before the parent problem is
//! touched — never a panic, never a neighbouring row's label. It reads
//! the root table's feature columns through its id list, and what it reads —
//! and what LSS makes of it — is what an eager copy of its rows gave.

mod common;

use common::band_problem;
use lts_core::{fnv1a, restrict_problem, CoreError, CoreResult, CountEstimator, Lss};
use lts_learn::Matrix;
use lts_table::TableError;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// Sub-populations share their parent's table, whose columns their
/// features are: nothing is copied but the id list.
#[test]
fn sub_populations_share_the_parents_table() {
    let problem = band_problem(200, 5);
    let survivors = restrict_problem(&problem, &[3, 10, 17, 40]).unwrap();
    assert!(Arc::ptr_eq(survivors.objects(), problem.objects()));
    let table: &lts_table::Table = problem.objects();
    assert!(std::ptr::eq(survivors.feature_view().table(), table));
    assert_eq!(survivors.n(), 4);
    assert_eq!(survivors.features().row(2), problem.features().row(17));
    // A restriction of a restriction still evaluates against the root,
    // and labels as the root does at the global id.
    let nested = restrict_problem(&survivors, &[1, 3]).unwrap();
    assert!(Arc::ptr_eq(nested.objects(), problem.objects()));
    assert!(std::ptr::eq(nested.feature_view().table(), table));
    assert_eq!(nested.n(), 2);
    for (local, global) in [(0, 10), (1, 40)] {
        assert_eq!(nested.features().row(local), problem.features().row(global));
        assert_eq!(nested.label(local).unwrap(), problem.label(global).unwrap());
    }
}

/// Members kept with probability `keep`% by a seeded LCG, ascending.
fn members(n: usize, keep: u64, seed: u64) -> Vec<usize> {
    let mut state = seed;
    (0..n)
        .filter(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100 < keep
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// At one and two levels of restriction over random survivor sets,
/// `row`, `gather` and `features()` are the root matrix's eager gather
/// of the same global rows, bit for bit.
#[test]
fn the_feature_view_reads_the_roots_rows_bit_for_bit() {
    let problem = band_problem(8_000, 21);
    let root = problem.features();
    for seed in [1u64, 2, 3] {
        let outer = members(problem.n(), 10 + 20 * seed, seed);
        let one = restrict_problem(&problem, &outer).unwrap();
        let inner = members(one.n(), 50, seed + 10);
        let two = restrict_problem(&one, &inner).unwrap();
        let nested: Vec<usize> = inner.iter().map(|&i| outer[i]).collect();
        for (sub, global) in [(&one, &outer), (&two, &nested)] {
            let eager = root.gather(global);
            let view = sub.feature_view();
            assert_eq!((view.rows(), view.cols()), (global.len(), 2));
            for (local, &id) in global.iter().enumerate() {
                assert_eq!(view.row(local), root.row(id), "seed {seed}: row {local}");
            }
            // Unsorted, repeated local ids, as a scoring block or a
            // training sample reads them.
            let picks: Vec<usize> = (0..500)
                .map(|k| (k * 7919 + seed as usize) % sub.n())
                .collect();
            let want: Vec<usize> = picks.iter().map(|&i| global[i]).collect();
            assert_eq!(bits(&view.gather(&picks)), bits(&root.gather(&want)));
            let column = lts_core::feature_column(sub, 1).unwrap();
            assert_eq!(column, eager.column(1));
            assert_eq!(bits(sub.features()), bits(&eager));
        }
    }
}

/// A cold LSS run over a restriction and over a restriction of it: the
/// ordering, cuts, estimate and evaluations — on every meter of the
/// chain — are those of the build that copied each restriction's
/// feature rows.
#[test]
fn a_cold_lss_run_over_a_restriction_is_answer_for_answer() {
    let problem = band_problem(8_000, 21);
    let outer = members(problem.n(), 30, 1);
    let one = restrict_problem(&problem, &outer).unwrap();
    let two = restrict_problem(&one, &members(one.n(), 50, 11)).unwrap();
    // (N, ordering digest, cuts, estimate bits), captured from the copy.
    let pins = [
        (
            2_370,
            0x07a1_7943_89e1_d293_u64,
            [160, 1_195, 1_374],
            0x4091_abf4_7976_2305_u64,
        ),
        (
            1_183,
            0x00e1_ba8d_ec7d_ac3d,
            [159, 564, 722],
            0x4080_ecc5_7c57_c57c,
        ),
    ];
    for (sub, (n, order, cuts, estimate)) in [&one, &two].into_iter().zip(pins) {
        let lss = Lss::default();
        let parts = lss.prepare(sub, 300, 7).unwrap().to_parts();
        let bytes: Vec<u8> = (parts.order.iter())
            .flat_map(|&i| (i as u64).to_le_bytes())
            .collect();
        assert_eq!((sub.n(), fnv1a(&bytes)), (n, order));
        assert_eq!(parts.cuts, cuts);
        for meter in [&problem, &one, sub] {
            meter.reset_meter();
        }
        let report = lss
            .estimate(sub, 300, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(report.count().to_bits(), estimate);
        assert_eq!(report.evals, 300);
        for meter in [&problem, &one, sub] {
            assert_eq!(meter.predicate_stats().evals, 300);
        }
    }
}
