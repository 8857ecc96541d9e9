//! Determinism audit for the shared scoring pipeline (the tie-breaking
//! satellite of the batched-scoring refactor):
//!
//! * the population ordering is a **stable sort by `(score, id)`** —
//!   tied scores always resolve by ascending object id;
//! * scores and orderings are **bit-identical at every partition
//!   count** (these tests run unchanged under any pinned
//!   `RAYON_NUM_THREADS`; CI runs them at 1 and default). The golden
//!   seeded `run_trials` sweep across thread counts lives in its own
//!   binary, `scoring_thread_sweep.rs`, because it mutates the env var.

mod common;

use common::band_problem;
use lts_core::{CountingProblem, ScoredPopulation};
use lts_learn::{Classifier, ConstantScore, Knn, RandomForest};

fn fitted_forest(problem: &CountingProblem) -> RandomForest {
    let ids: Vec<usize> = (0..problem.n()).step_by(9).collect();
    let labels: Vec<bool> = ids.iter().map(|&i| problem.label(i).unwrap()).collect();
    let mut model = RandomForest::with_trees(9, 3);
    model
        .fit(&problem.features().gather(&ids), &labels)
        .unwrap();
    model
}

#[test]
fn scores_and_ordering_identical_across_partition_counts() {
    let problem = band_problem(700, 5);
    let model = fitted_forest(&problem);
    let members: Vec<u32> = (0..700).collect();
    let reference =
        ScoredPopulation::score_members_partitioned(&problem, &model, members.clone(), 1).unwrap();
    let ref_ordered = reference.clone().into_ordered();
    for parts in [2usize, 3, 7, 16, 64, 700, 2000] {
        let sp =
            ScoredPopulation::score_members_partitioned(&problem, &model, members.clone(), parts)
                .unwrap();
        let bits: Vec<u64> = sp.scores().iter().map(|s| s.to_bits()).collect();
        let ref_bits: Vec<u64> = reference.scores().iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, ref_bits, "scores diverged at {parts} partitions");
        let ordered = sp.into_ordered();
        assert_eq!(
            ordered.order(),
            ref_ordered.order(),
            "ordering diverged at {parts} partitions"
        );
    }
}

#[test]
fn ordering_is_stable_sort_by_score_then_id() {
    let problem = band_problem(300, 9);
    // Total tie: constant scores must order by ascending object id.
    let ordered = ScoredPopulation::score_all(&problem, &ConstantScore::new(0.5))
        .unwrap()
        .into_ordered();
    let ids: Vec<u32> = (0..300).collect();
    assert_eq!(ordered.order(), ids.as_slice());

    // Heavy ties: kNN scores take at most k+1 distinct values, so most
    // scores collide — within each tie class, ids must ascend.
    let ids_train: Vec<usize> = (0..300).step_by(5).collect();
    let labels: Vec<bool> = ids_train
        .iter()
        .map(|&i| problem.label(i).unwrap())
        .collect();
    let mut knn = Knn::new(3).unwrap();
    knn.fit(&problem.features().gather(&ids_train), &labels)
        .unwrap();
    let ordered = ScoredPopulation::score_all(&problem, &knn)
        .unwrap()
        .into_ordered();
    for p in 1..ordered.n() {
        let (s0, s1) = (ordered.sorted_scores()[p - 1], ordered.sorted_scores()[p]);
        assert!(
            s0.total_cmp(&s1).is_lt()
                || (s0.to_bits() == s1.to_bits()
                    && ordered.object_at(p - 1) < ordered.object_at(p)),
            "tie at position {p} not broken by id"
        );
    }
}
