//! Uncertainty-sampling active learning (paper §3.2).
//!
//! Given a trained scoring function `g`, the next objects to label are
//! those with the smallest `|g(o) − 0.5|` ("closest to the toss-up").
//! As the paper recommends, candidates are drawn from a random pool
//! rather than scoring the entire population, and a **single**
//! augment-and-retrain step is the practical default. The loop itself
//! runs in `lts_core::learnphase::run_learn_phase`; this module holds
//! the selection rule and the step configuration.

use crate::classifier::Classifier;
use crate::error::LearnResult;
use crate::matrix::Matrix;

/// Configuration for one uncertainty-sampling augmentation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugmentConfig {
    /// Number of augmentation steps (paper recommends 1).
    pub steps: usize,
    /// Objects labeled per step (Figure 1 uses 100).
    pub per_step: usize,
    /// Random pool size scored per step; `0` means "score the whole
    /// remaining pool".
    pub pool_size: usize,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        Self {
            steps: 1,
            per_step: 100,
            pool_size: 2000,
        }
    }
}

/// Select the `count` most uncertain candidates (smallest `|g − 0.5|`)
/// from `candidates`, scoring each with `model` on its feature row in
/// `features`.
///
/// Returns the selected candidate indices (into the same space as
/// `candidates` values).
///
/// # Errors
///
/// Propagates scoring errors.
pub fn select_uncertain(
    model: &dyn Classifier,
    features: &Matrix,
    candidates: &[usize],
    count: usize,
) -> LearnResult<Vec<usize>> {
    let scores = model.score_batch(&features.gather(candidates))?;
    let mut scored: Vec<(f64, usize)> = scores
        .into_iter()
        .zip(candidates.iter().copied())
        .map(|(g, i)| ((g - 0.5).abs(), i))
        .collect();
    let take = count.min(scored.len());
    if take == 0 {
        return Ok(Vec::new());
    }
    scored.select_nth_unstable_by(take - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(take);
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(scored.into_iter().map(|(_, i)| i).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Knn;

    fn line_features(n: usize) -> Matrix {
        Matrix::from_rows(
            &(0..n)
                .map(|i| vec![i as f64 / n as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn selects_scores_nearest_half() {
        // Model = identity-ish: use a Knn fitted so scores increase along
        // the line; the most uncertain points sit near the boundary.
        let features = line_features(100);
        let truth = |i: usize| i >= 50;
        let mut model = Knn::new(5).unwrap();
        let labeled: Vec<usize> = (0..100).step_by(10).collect();
        let labels: Vec<bool> = labeled.iter().map(|&i| truth(i)).collect();
        model.fit(&features.gather(&labeled), &labels).unwrap();
        let candidates: Vec<usize> = (0..100).collect();
        let picks = select_uncertain(&model, &features, &candidates, 10).unwrap();
        // Picks should cluster near the decision boundary at 50.
        let near = picks.iter().filter(|&&i| (30..70).contains(&i)).count();
        assert!(near >= 7, "picks {picks:?} not near boundary");
    }

    #[test]
    fn select_uncertain_empty_and_zero() {
        let features = line_features(10);
        let mut model = Knn::new(3).unwrap();
        model
            .fit(&features.gather(&[0, 9]), &[false, true])
            .unwrap();
        assert!(select_uncertain(&model, &features, &[], 5)
            .unwrap()
            .is_empty());
        assert!(select_uncertain(&model, &features, &[1, 2], 0)
            .unwrap()
            .is_empty());
    }
}
