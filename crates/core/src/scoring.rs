//! The shared proxy-scoring pipeline: features → batch score → stable
//! order → design pilot.
//!
//! Every learned estimator shares one structural hot path: score each
//! object of a population with the proxy `g`, optionally order the
//! population by score, then design a sampling scheme over that order
//! (paper §3.2–§4.2). Before this module each estimator re-implemented
//! the path as a private per-row loop (`model.score(features.row(i))`
//! over all `N` objects); now they all consume:
//!
//! * [`ScoredPopulation`] — a member set (ascending object ids) scored
//!   **partition-parallel**: the member list is split into contiguous
//!   ranges by the same [`partition_bounds`] arithmetic that
//!   `lts_table::partition::PartitionedTable` uses for row ranges, each
//!   range is gathered and scored with [`Classifier::score_batch`], and
//!   per-partition score vectors are concatenated **in partition
//!   order**. Because `score_batch` is the trait's loop over per-row
//!   [`Classifier::score`], per-row pure and bit-identical to it, the
//!   result is independent of partition and thread count — the same
//!   determinism contract as the partitioned scan engine.
//! * [`OrderedPopulation`] — the `(score, id)` **stable total order**
//!   over a scored population (LSS's ordering), with helpers to map
//!   positions back to objects and to index the stage-1 design pilot
//!   ([`OrderedPopulation::pilot_index`]: the ordering already knows
//!   every pilot's position, so the index is built from the labeled
//!   positions directly).
//! * [`surrogate_grid_strata`] — the §3.1 surrogate-attribute grid used
//!   by SSP/SSN, built from **column-at-a-time** feature extraction
//!   instead of per-row feature walks.
//!
//! # Determinism contract
//!
//! For a fixed problem and model, every artifact of this module —
//! scores, weights, ordering, pilot index — is bit-identical at every
//! partition count and every `RAYON_NUM_THREADS`. Ties in the ordering
//! are broken by ascending object id, so the order is a *total* order
//! and downstream position-indexed sampling is unambiguous. This is
//! asserted by `crates/core/tests/scoring_determinism.rs` and
//! `scoring_thread_sweep.rs`, which CI runs at 1 thread and at the
//! default thread count.

use crate::error::{CoreError, CoreResult};
use crate::problem::CountingProblem;
use lts_learn::Classifier;
use lts_strata::PilotIndex;
use lts_table::partition::partition_bounds;
use rayon::prelude::*;

/// Below this many members, a scoring chunk is not worth a worker
/// thread (model inference is far costlier per row than a column scan,
/// so the threshold sits well under the scan engine's
/// `MIN_PARTITION_ROWS`).
pub const MIN_SCORE_ROWS: usize = 256;

/// Deterministic-result partition count heuristic: one partition per
/// worker, never fewer than [`MIN_SCORE_ROWS`] members each. The count
/// varies with the host, the *scores do not* (see the module's
/// determinism contract).
fn auto_partitions(n_members: usize) -> usize {
    (n_members / MIN_SCORE_ROWS).clamp(1, rayon::current_num_threads())
}

/// Members gathered into one feature matrix per `score_batch` call: the
/// gathered copy stays `8·d·GATHER_ROWS` bytes per worker at any
/// population size, and per-row purity makes the blocks invisible.
const GATHER_ROWS: usize = 1024;

/// A population subset scored by a proxy classifier `g`.
///
/// `members` are ascending object ids, `u32` as every id list a problem
/// keeps; `scores[k] = g(members[k])`.
#[derive(Debug, Clone)]
pub struct ScoredPopulation {
    members: Vec<u32>,
    scores: Vec<f64>,
}

impl ScoredPopulation {
    /// Score an explicit member set (must be strictly ascending object
    /// ids into the problem's population), partition-parallel with an
    /// automatic partition count.
    ///
    /// # Errors
    ///
    /// Returns an error for unsorted/out-of-range members or scoring
    /// failures.
    pub fn score_members(
        problem: &CountingProblem,
        model: &dyn Classifier,
        members: Vec<u32>,
    ) -> CoreResult<Self> {
        let parts = auto_partitions(members.len());
        Self::score_members_partitioned(problem, model, members, parts)
    }

    /// [`ScoredPopulation::score_members`] with an explicit partition
    /// count — the scores are bit-identical for every count; the knob
    /// exists for the determinism tests and the scoring benchmarks.
    ///
    /// # Errors
    ///
    /// Returns an error for unsorted/out-of-range members or scoring
    /// failures.
    pub fn score_members_partitioned(
        problem: &CountingProblem,
        model: &dyn Classifier,
        members: Vec<u32>,
        n_partitions: usize,
    ) -> CoreResult<Self> {
        let n = problem.n();
        if members.windows(2).any(|w| w[0] >= w[1])
            || members.last().is_some_and(|&m| m as usize >= n)
        {
            return Err(CoreError::InvalidConfig {
                message: "scored members must be strictly ascending object ids".into(),
            });
        }
        let features = problem.feature_view();
        // Contiguous member ranges, mirroring PartitionedTable's
        // row-range arithmetic; each worker gathers and batch-scores
        // only its own range, `GATHER_ROWS` members at a time, and
        // results concatenate in partition order.
        let bounds = partition_bounds(members.len(), n_partitions.max(1));
        let ranges: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
        let chunks: Vec<lts_learn::LearnResult<Vec<f64>>> = ranges
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut out = Vec::with_capacity(hi - lo);
                for block in members[lo..hi].chunks(GATHER_ROWS) {
                    out.extend(model.score_batch(&features.gather_members(block))?);
                }
                Ok(out)
            })
            .collect();
        let mut scores = Vec::with_capacity(members.len());
        for chunk in chunks {
            scores.extend(chunk?);
        }
        Ok(Self { members, scores })
    }

    /// Score the whole population `O`.
    ///
    /// # Errors
    ///
    /// Propagates scoring failures.
    pub fn score_all(problem: &CountingProblem, model: &dyn Classifier) -> CoreResult<Self> {
        Self::score_rest(problem, model, &[])
    }

    /// Score `O \ exclude` (the "rest" population every phase-2 draw
    /// operates on; `exclude` is typically the learning sample `S_L`).
    ///
    /// # Errors
    ///
    /// Propagates scoring failures.
    pub fn score_rest(
        problem: &CountingProblem,
        model: &dyn Classifier,
        exclude: &[usize],
    ) -> CoreResult<Self> {
        let n = problem.n();
        let mut excluded = vec![false; n];
        for &i in exclude {
            if i >= n {
                return Err(CoreError::InvalidConfig {
                    message: format!("excluded id {i} out of range (N = {n})"),
                });
            }
            excluded[i] = true;
        }
        let Ok(top) = u32::try_from(n) else {
            return Err(CoreError::InvalidConfig {
                message: format!("N = {n} does not fit 32-bit ids"),
            });
        };
        let members: Vec<u32> = (0..top).filter(|&i| !excluded[i as usize]).collect();
        Self::score_members(problem, model, members)
    }

    /// Number of scored members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no members were scored.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member object ids (ascending).
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Scores aligned with [`ScoredPopulation::members`].
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// PPS sampling weights `max(g(o), floor)` aligned with members —
    /// the LWS family's weight vector (the ε floor keeps an
    /// overconfident classifier from starving negatives).
    pub fn weights(&self, floor: f64) -> Vec<f64> {
        self.scores.iter().map(|&g| g.max(floor)).collect()
    }

    /// Count of members whose score clears `threshold` (the
    /// quantification-learning "predicted positive" count at 0.5).
    pub fn count_at_least(&self, threshold: f64) -> usize {
        self.scores.iter().filter(|&&g| g >= threshold).count()
    }

    /// Consume into the `(score, id)`-ordered population.
    pub fn into_ordered(self) -> OrderedPopulation {
        OrderedPopulation::new(self, true)
    }

    /// [`ScoredPopulation::into_ordered`] keeping the sorted scores only
    /// when `keep_scores` (the one reader is the fixed-width layout):
    /// otherwise [`OrderedPopulation::sorted_scores`] is empty.
    pub(crate) fn into_ordered_keeping(self, keep_scores: bool) -> OrderedPopulation {
        OrderedPopulation::new(self, keep_scores)
    }
}

/// A scored population arranged in the stable `(score, id)` total
/// order — LSS's score ordering (§4.2).
///
/// Position `p` holds the object with the `p`-th smallest composite key
/// `(g(o), o)`. Ties on `g` break by ascending object id, so the order
/// (and everything derived from it: pilot positions, strata membership,
/// stage-2 draws) is identical at every partition and thread count.
#[derive(Debug, Clone)]
pub struct OrderedPopulation {
    /// position → object id.
    order: Vec<u32>,
    /// Scores sorted to match `order` (empty unless kept).
    sorted_scores: Vec<f64>,
}

impl OrderedPopulation {
    /// Order `sp`'s members by `(score, id)`: a stable sort of the
    /// ascending local indices by `total_cmp` of their scores, so ties
    /// keep index order, which is id order (`members` ascend). A proxy's
    /// scores tie heavily (a served forest gives 8 000 objects under a
    /// hundred distinct scores), which a stable sort's runs take in
    /// stride. The scores go once the order (and, when kept, the sorted
    /// scores) exists.
    fn new(sp: ScoredPopulation, keep_scores: bool) -> Self {
        let ScoredPopulation { members, scores } = sp;
        let mut order: Vec<u32> = (0..scores.len()).map(|k| k as u32).collect();
        order.sort_by(|&a, &b| scores[a as usize].total_cmp(&scores[b as usize]));
        let sorted_scores = match keep_scores {
            true => order.iter().map(|&k| scores[k as usize]).collect(),
            false => Vec::new(),
        };
        drop(scores);
        for k in &mut order {
            *k = members[*k as usize];
        }
        Self {
            order,
            sorted_scores,
        }
    }

    /// Population size `N'`.
    pub fn n(&self) -> usize {
        self.order.len()
    }

    /// position → object id, for the whole ordering.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Scores in order (ascending by the composite key); empty when the
    /// ordering was built without them.
    pub fn sorted_scores(&self) -> &[f64] {
        &self.sorted_scores
    }

    /// Object id at a position of the ordering.
    pub fn object_at(&self, position: usize) -> usize {
        self.order[position] as usize
    }

    /// The ordering and the sorted scores, as owned buffers.
    pub(crate) fn into_parts(self) -> (Vec<u32>, Vec<f64>) {
        (self.order, self.sorted_scores)
    }

    /// Object ids for a batch of positions (aligned with `positions`).
    pub fn objects_at(&self, positions: &[usize]) -> Vec<usize> {
        positions.iter().map(|&p| self.object_at(p)).collect()
    }

    /// Positions (ascending) whose object is marked in `mask` (indexed
    /// by object id) — e.g. the positions of `S_L` inside the ordering.
    pub fn positions_marked(&self, mask: &[bool]) -> Vec<usize> {
        self.order
            .iter()
            .enumerate()
            .filter(|&(_, &obj)| mask[obj as usize])
            .map(|(pos, _)| pos)
            .collect()
    }

    /// Index the stage-1 design pilot: `entries` are `(position,
    /// label)` pairs over this ordering.
    ///
    /// # Errors
    ///
    /// Returns an error for empty/duplicate/out-of-range pilots.
    pub fn pilot_index(&self, entries: &[(usize, bool)]) -> CoreResult<PilotIndex> {
        Ok(PilotIndex::new(self.n(), entries.to_vec())?)
    }
}

/// Extract feature column `dim` from the problem's feature rows in one
/// pass (the table's column, through a sub-population's ids).
///
/// # Errors
///
/// Returns an error when `dim` is out of range.
pub fn feature_column(problem: &CountingProblem, dim: usize) -> CoreResult<Vec<f64>> {
    let features = problem.feature_view();
    if dim >= features.cols() {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "feature dim {dim} out of range for {} feature column(s)",
                features.cols()
            ),
        });
    }
    Ok(features.column(dim))
}

/// Build the §3.1 surrogate-attribute strata: a `grid.0 × grid.1` grid
/// over feature columns `dims`, empty cells dropped. Shared by SSP and
/// SSN (their only "scoring" step — the surrogate projection — now runs
/// through the columnar pipeline).
///
/// # Errors
///
/// Returns an error for out-of-range feature dims or degenerate grids.
pub fn surrogate_grid_strata(
    problem: &CountingProblem,
    grid: (usize, usize),
    dims: (usize, usize),
) -> CoreResult<Vec<Vec<usize>>> {
    let d = problem.feature_view().cols();
    let (dx, dy) = dims;
    if dx >= d || dy >= d {
        return Err(CoreError::InvalidConfig {
            message: format!("feature_dims ({dx}, {dy}) out of range for {d} feature column(s)"),
        });
    }
    let xs = feature_column(problem, dx)?;
    let ys = feature_column(problem, dy)?;
    let grid = lts_table::GridIndex::build(&xs, &ys, grid.0.max(1), grid.1.max(1))?;
    let mut strata = lts_sampling::group_by_stratum(grid.assignments(), grid.num_cells());
    strata.retain(|s| !s.is_empty());
    Ok(strata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests_support::line_problem;
    use lts_learn::{ConstantScore, Knn};

    fn fitted_knn(problem: &CountingProblem) -> Knn {
        let mut model = Knn::new(3).expect("k > 0");
        let ids: Vec<usize> = (0..problem.n()).step_by(7).collect();
        let labels: Vec<bool> = ids.iter().map(|&i| problem.label(i).unwrap()).collect();
        model
            .fit(&problem.feature_view().gather(&ids), &labels)
            .unwrap();
        model
    }

    #[test]
    fn scores_match_per_row_loop_at_every_partition_count() {
        let problem = line_problem(230, 0.4);
        let model = fitted_knn(&problem);
        let members: Vec<u32> = (0..230).filter(|i| i % 3 != 0).collect();
        let per_row: Vec<f64> = members
            .iter()
            .map(|&i| {
                model
                    .score(&problem.feature_view().row(i as usize))
                    .unwrap()
            })
            .collect();
        for parts in [1usize, 2, 3, 8, 64, 500] {
            let sp = ScoredPopulation::score_members_partitioned(
                &problem,
                &model,
                members.clone(),
                parts,
            )
            .unwrap();
            assert_eq!(sp.scores(), per_row.as_slice(), "parts={parts}");
            assert_eq!(sp.members(), members.as_slice());
        }
    }

    #[test]
    fn score_rest_excludes_and_score_all_covers() {
        let problem = line_problem(60, 0.5);
        let model = fitted_knn(&problem);
        let exclude = vec![0usize, 10, 59];
        let sp = ScoredPopulation::score_rest(&problem, &model, &exclude).unwrap();
        assert_eq!(sp.len(), 57);
        assert!(!exclude.iter().any(|&e| sp.members().contains(&(e as u32))));
        // Out-of-range exclusions error instead of panicking.
        assert!(ScoredPopulation::score_rest(&problem, &model, &[60]).is_err());
        let all = ScoredPopulation::score_all(&problem, &model).unwrap();
        assert_eq!(all.len(), 60);
        assert!(!all.is_empty());
    }

    #[test]
    fn weights_apply_floor_and_counts_threshold() {
        let problem = line_problem(40, 0.5);
        let model = fitted_knn(&problem);
        let sp = ScoredPopulation::score_all(&problem, &model).unwrap();
        let w = sp.weights(0.25);
        assert!(w.iter().all(|&v| v >= 0.25));
        assert_eq!(
            w.iter().zip(sp.scores()).filter(|(w, s)| *w > *s).count(),
            sp.scores().iter().filter(|&&s| s < 0.25).count()
        );
        assert_eq!(
            sp.count_at_least(0.5),
            sp.scores().iter().filter(|&&s| s >= 0.5).count()
        );
    }

    #[test]
    fn ordering_is_stable_by_score_then_id() {
        // All scores tie → the order must be ascending object id.
        let problem = line_problem(50, 0.5);
        let model = ConstantScore::new(0.5);
        let ordered = ScoredPopulation::score_all(&problem, &model)
            .unwrap()
            .into_ordered();
        let want: Vec<u32> = (0..50).collect();
        assert_eq!(ordered.order(), want.as_slice());
        assert_eq!(ordered.n(), 50);
        assert_eq!(ordered.object_at(7), 7);
        // And a real model's ordering is sorted by (score, id).
        let model = fitted_knn(&problem);
        let ordered = ScoredPopulation::score_all(&problem, &model)
            .unwrap()
            .into_ordered();
        for p in 1..ordered.n() {
            let (s0, s1) = (ordered.sorted_scores()[p - 1], ordered.sorted_scores()[p]);
            assert!(
                s0 < s1 || (s0 == s1 && ordered.object_at(p - 1) < ordered.object_at(p)),
                "order not (score, id)-sorted at {p}"
            );
        }
    }

    #[test]
    fn ordering_keys_match_the_stable_composite_sort() {
        let mut scores = vec![f64::NAN, -f64::NAN, f64::INFINITY, -f64::INFINITY];
        scores.extend([-0.0, 0.0, 5e-324]);
        scores.extend((0..300).map(|i| f64::from(i * 37 % 11) / 10.0 - 0.3));
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        let want: Vec<u32> = idx.iter().map(|&k| 3 * k as u32 + 1).collect();
        let want_scores: Vec<u64> = idx.iter().map(|&k| scores[k].to_bits()).collect();
        let members = (0..scores.len() as u32).map(|i| 3 * i + 1).collect();
        let scored = ScoredPopulation { members, scores };
        let ordered = scored.clone().into_ordered();
        assert_eq!(ordered.order(), want.as_slice());
        // The sorted scores read back from the keys, bit for bit.
        let bits: Vec<u64> = ordered
            .sorted_scores()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(bits, want_scores);
        let lean = scored.into_ordered_keeping(false);
        assert_eq!(lean.order(), want.as_slice());
        assert!(lean.sorted_scores().is_empty());
    }

    #[test]
    fn positions_marked_finds_members() {
        let problem = line_problem(30, 0.5);
        let ordered = ScoredPopulation::score_all(&problem, &ConstantScore::new(0.1))
            .unwrap()
            .into_ordered();
        let mut mask = vec![false; 30];
        mask[3] = true;
        mask[29] = true;
        assert_eq!(ordered.positions_marked(&mask), vec![3, 29]);
    }

    #[test]
    fn pilot_index_matches_direct_construction() {
        let problem = line_problem(120, 0.4);
        let model = fitted_knn(&problem);
        let ordered = ScoredPopulation::score_all(&problem, &model)
            .unwrap()
            .into_ordered();
        let entries: Vec<(usize, bool)> = (0..120).step_by(11).map(|p| (p, p % 2 == 0)).collect();
        let direct = PilotIndex::new(120, entries.clone()).unwrap();
        assert_eq!(ordered.pilot_index(&entries).unwrap(), direct);
        // Empty pilot, duplicate position, position >= n are rejected.
        assert!(ordered.pilot_index(&[]).is_err());
        assert!(ordered.pilot_index(&[(7, true), (7, false)]).is_err());
        assert!(ordered.pilot_index(&[(120, true)]).is_err());
    }

    #[test]
    fn member_validation() {
        let problem = line_problem(20, 0.5);
        let model = ConstantScore::new(0.5);
        for bad in [vec![3u32, 3], vec![5, 2], vec![19, 20]] {
            assert!(
                ScoredPopulation::score_members(&problem, &model, bad.clone()).is_err(),
                "{bad:?} accepted"
            );
        }
        let empty = ScoredPopulation::score_members(&problem, &model, Vec::new()).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn surrogate_grid_strata_cover_population() {
        let problem = line_problem(100, 0.5);
        let strata = surrogate_grid_strata(&problem, (4, 1), (0, 0)).unwrap();
        let total: usize = strata.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        assert!(strata.iter().all(|s| !s.is_empty()));
        assert!(surrogate_grid_strata(&problem, (2, 2), (0, 5)).is_err());
        assert!(feature_column(&problem, 9).is_err());
        assert_eq!(feature_column(&problem, 0).unwrap().len(), 100);
    }
}
