//! LSS: Learned Stratified Sampling (paper §4.2) — the flagship
//! estimator.
//!
//! Pipeline:
//! 1. **Learn** (shared with LWS/QL): SRS + classifier training on
//!    `train_frac` of the budget; optional uncertainty-sampling
//!    augmentation.
//! 2. **Order**: score every object of `O' = O \ S_L` and order by
//!    `(g, id)` — only the *ordering* is used, which is what makes LSS
//!    robust to a badly calibrated classifier.
//! 3. **Stage 1 (design)**: draw a pilot `SI` by SRS, label it, and run
//!    a stratification-design algorithm (DirSol / LogBdr / DynPgm /
//!    DynPgmP, or a fixed layout for the §5.4.1 ablation) to jointly
//!    choose boundaries and (via Neyman or proportional allocation) the
//!    stage-2 sample sizes.
//! 4. **Stage 2**: draw `SII` per stratum, label, and estimate with the
//!    stratified estimator (Eq. 1).
//!
//! Labels from `S_L` and `SI` are exact, so by default the estimator
//! counts them exactly and estimates only each stratum's unlabeled
//! remainder ([`PilotHandling::ExactRemainder`], unbiased by
//! construction); [`PilotHandling::Textbook`] reproduces the paper's
//! simpler description (strata weighted by their full sizes).

use crate::error::{CoreError, CoreResult};
use crate::learnphase::LearnPhaseConfig;
use crate::problem::Labeler;
use crate::report::QualityForecast;
use crate::warm::{fnv1a, LssWarm};
use lts_sampling::{
    allocate, sample_without_replacement, stratified_count_estimate, StratumSample,
};
use lts_strata::{
    design, fixed_height_cuts, fixed_width_cuts, Allocation, DesignAlgorithm, DesignParams,
    PilotIndex, Stratification, TSelection,
};
use rand::rngs::StdRng;

/// How LSS lays out strata over the score ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LssLayout {
    /// Variance-optimized boundaries via a design algorithm (the paper's
    /// contribution; default DynPgm).
    Optimized(DesignAlgorithm),
    /// Equal-width bands of the score domain (§5.4.1 baseline).
    FixedWidth,
    /// Equal-count bands of the ordering (§5.4.1 baseline; the paper's
    /// worst layout on skewed data).
    FixedHeight,
}

/// What to do with the exactly-labeled pilot when estimating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PilotHandling {
    /// Count `S_L` and `SI` exactly; estimate each stratum's unlabeled
    /// remainder (unbiased; the default).
    #[default]
    ExactRemainder,
    /// The paper's simpler description: weight strata by full sizes and
    /// ignore pilot labels in the estimate (negligible overlap bias).
    Textbook,
}

/// Where the stage-1 design pilot comes from (the paper's footnote 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PilotSource {
    /// A fresh SRS pilot, independent of the learning phase — the
    /// paper's conservative default.
    #[default]
    Fresh,
    /// The fresh pilot **plus** the learning-phase labels `S_L`,
    /// reused as extra design pilots (the "less conservative" reuse the
    /// paper's footnote 3 leaves as future work).
    ///
    /// This reuse is *safe for unbiasedness*: the design (boundaries +
    /// allocation) is fixed before stage-2 draws, and stage-2 samples
    /// remain uniform within each stratum, so conditional unbiasedness
    /// of the stratified estimator is untouched. What reuse can affect
    /// is design *quality*: `S_L` members are scored in-sample (their
    /// scores skew confident) and the uncertainty-augmented part of
    /// `S_L` is concentrated near `g ≈ 0.5`, so the pilot is denser in
    /// uncertain strata than an SRS pilot would be. In exchange the
    /// design sees `|S_L|` extra labels at zero cost.
    ///
    /// Requires [`PilotHandling::ExactRemainder`] (the reused labels
    /// are counted exactly; `Textbook` weighting would double-count
    /// them).
    ReuseLearning,
}

/// Learned stratified sampling.
#[derive(Debug, Clone, Copy)]
pub struct Lss {
    /// Learning-phase configuration.
    pub learn: LearnPhaseConfig,
    /// Fraction of the budget for classifier training (paper: 25%).
    pub train_frac: f64,
    /// Fraction of the *sampling* budget used for the stage-1 pilot SI.
    pub pilot_frac: f64,
    /// Number of strata `H` (paper default 4).
    pub n_strata: usize,
    /// Stage-2 allocation rule.
    pub allocation: Allocation,
    /// Strata layout strategy.
    pub layout: LssLayout,
    /// Minimum objects per stratum `N⊔` (`None` = automatic:
    /// `min(n₂ + 1, N'/H)` per the paper's `N⊔ > n` assumption).
    pub min_stratum_size: Option<usize>,
    /// Minimum pilots per stratum `m⊔` (paper ≈ 5; auto-clamped to
    /// `m/H` when the pilot is small).
    pub min_pilots_per_stratum: usize,
    /// Design-granularity ε (powers of `(1+ε)` candidate boundaries).
    pub epsilon: f64,
    /// DynPgm auxiliary-sum bound selection.
    pub t_selection: TSelection,
    /// Pilot-label handling in the final estimate.
    pub pilot_handling: PilotHandling,
    /// Stage-1 pilot source (fresh SRS, or fresh + reused `S_L`).
    pub pilot_source: PilotSource,
}

impl Default for Lss {
    fn default() -> Self {
        Self {
            learn: LearnPhaseConfig::default(),
            train_frac: 0.25,
            pilot_frac: 0.3,
            n_strata: 4,
            allocation: Allocation::Neyman,
            layout: LssLayout::Optimized(DesignAlgorithm::DynPgm),
            min_stratum_size: None,
            min_pilots_per_stratum: 5,
            epsilon: 1.0,
            t_selection: TSelection::Pruned(6),
            pilot_handling: PilotHandling::ExactRemainder,
            pilot_source: PilotSource::Fresh,
        }
    }
}

/// The labeling-budget split of one LSS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LssBudgetSplit {
    /// Labels spent training the proxy classifier.
    pub train: usize,
    /// Labels spent on the stage-1 design pilot `SI`.
    pub pilot: usize,
    /// Labels spent on the stage-2 stratified draw.
    pub stage2: usize,
}

impl Lss {
    pub(crate) fn validate(&self) -> CoreResult<()> {
        if !(0.0..1.0).contains(&self.train_frac) || self.train_frac <= 0.0 {
            return Err(CoreError::InvalidConfig {
                message: format!("train_frac must be in (0, 1), got {}", self.train_frac),
            });
        }
        if !(0.0..1.0).contains(&self.pilot_frac) || self.pilot_frac <= 0.0 {
            return Err(CoreError::InvalidConfig {
                message: format!("pilot_frac must be in (0, 1), got {}", self.pilot_frac),
            });
        }
        if self.n_strata < 2 {
            return Err(CoreError::InvalidConfig {
                message: "LSS needs at least 2 strata".into(),
            });
        }
        if self.pilot_source == PilotSource::ReuseLearning
            && self.pilot_handling == PilotHandling::Textbook
        {
            return Err(CoreError::InvalidConfig {
                message: "PilotSource::ReuseLearning requires PilotHandling::ExactRemainder \
                          (Textbook weighting would double-count the reused labels)"
                    .into(),
            });
        }
        Ok(())
    }

    /// Digest of the whole profile. A warm state records the one it was
    /// prepared under, and [`LssWarm::from_parts`] refuses to rebuild it
    /// under another: the split, the pilot source and the pilot handling
    /// all change what the stored data means.
    pub fn profile_digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }

    /// Split a total labeling budget into the train / pilot / stage-2
    /// shares this configuration implies (what the prepare body of
    /// [`crate::warm`] spends per phase, one-shot or warm-started).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BudgetTooSmall`] when any phase would
    /// starve.
    pub fn budget_split(&self, budget: usize) -> CoreResult<LssBudgetSplit> {
        let h = self.n_strata;
        if budget < 2 + 3 * h {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: 2 + 3 * h,
                reason: format!(
                    "LSS with H = {h} needs ≥ 2 training, ≥ 2H pilot, and ≥ H stage-2 labels"
                ),
            });
        }
        let train = ((budget as f64 * self.train_frac).round() as usize).clamp(2, budget);
        let sampling_budget = budget - train;
        let pilot = ((sampling_budget as f64 * self.pilot_frac).round() as usize)
            .max(2 * h) // need ≥ 2 pilots per stratum to estimate variance
            .min(sampling_budget.saturating_sub(h));
        let stage2 = sampling_budget.saturating_sub(pilot);
        if pilot < 2 * h || stage2 < h {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: train + 3 * h,
                reason: format!("LSS with H = {h} needs ≥ 2H pilot and ≥ H stage-2 labels"),
            });
        }
        Ok(LssBudgetSplit {
            train,
            pilot,
            stage2,
        })
    }

    /// Choose the stratification for the ordered rest population.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn layout_cuts(
        &self,
        pilot: &PilotIndex,
        sorted_scores: &[f64],
        n_rest: usize,
        stage2_budget: usize,
        notes: &mut Vec<String>,
    ) -> CoreResult<Stratification> {
        match self.layout {
            LssLayout::FixedHeight => {
                let cuts = fixed_height_cuts(n_rest, self.n_strata)?;
                Ok(Stratification {
                    cuts,
                    estimated_variance: f64::NAN,
                })
            }
            LssLayout::FixedWidth => {
                let cuts = fixed_width_cuts(sorted_scores, self.n_strata)?;
                if cuts.len() + 1 < self.n_strata {
                    notes.push(format!(
                        "fixed-width layout collapsed to {} strata",
                        cuts.len() + 1
                    ));
                }
                Ok(Stratification {
                    cuts,
                    estimated_variance: f64::NAN,
                })
            }
            LssLayout::Optimized(algo) => {
                let h = self.n_strata;
                let auto_min = ((stage2_budget + 1).min(n_rest / h)).max(1);
                let min_size = self
                    .min_stratum_size
                    .unwrap_or(auto_min)
                    .min(n_rest / h)
                    .max(1);
                let min_pilots = self.min_pilots_per_stratum.min(pilot.m() / h).max(2);
                let params = DesignParams {
                    n_strata: h,
                    budget: stage2_budget,
                    min_stratum_size: min_size,
                    min_pilots_per_stratum: min_pilots,
                    epsilon: self.epsilon,
                };
                let run = |params: &DesignParams| match algo {
                    DesignAlgorithm::DynPgm => lts_strata::dynpgm(pilot, params, self.t_selection),
                    other => design(pilot, params, self.allocation, other),
                };
                match run(&params) {
                    Ok(s) => Ok(s),
                    Err(lts_strata::StrataError::Infeasible { .. }) => {
                        // A bunched pilot can make the constrained design
                        // infeasible; relax the size constraint, then fall
                        // back to fixed-height — an estimate with a weaker
                        // design always beats no estimate.
                        let relaxed = DesignParams {
                            min_stratum_size: (n_rest / (4 * h)).max(1),
                            min_pilots_per_stratum: 2,
                            ..params
                        };
                        match run(&relaxed) {
                            Ok(s) => {
                                notes.push("design constraints relaxed (pilot too bunched)".into());
                                Ok(s)
                            }
                            Err(_) => {
                                notes.push(
                                    "optimized design infeasible; fixed-height fallback".into(),
                                );
                                Ok(Stratification {
                                    cuts: fixed_height_cuts(n_rest, h)?,
                                    estimated_variance: f64::NAN,
                                })
                            }
                        }
                    }
                    Err(e) => Err(e.into()),
                }
            }
        }
    }
}

/// The `i`-th position from `start` on that is not in `marked`
/// (ascending, all at or after `start`): the entry `i` of the list
/// `(start..).filter(|p| !marked.contains(p))`, found by a binary search
/// over `marked`, each of whose entries has `marked[j] − start − j`
/// unmarked positions before it.
pub(crate) fn nth_unmarked(marked: &[usize], start: usize, i: usize) -> usize {
    let (mut lo, mut hi) = (0, marked.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if marked[mid] - start - mid <= i {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    start + i + lo
}

/// LSS stage 2: allocate the stage-2 budget over the state's designed
/// strata from the pilot variances, draw, label, run the stratified
/// estimator, and add the exactly-known positives. Returns the estimate
/// with the design-time quality forecast (Eq. 4 with pilot deviations
/// and the chosen allocation). All pilot labels must already be in the
/// labeler's cache (they are after stage 1, or after a warm-start
/// preload), so only the fresh stage-2 draws touch the oracle.
pub(crate) fn stage2_estimate(
    lss: &Lss,
    warm: &LssWarm,
    level: f64,
    labeler: &mut Labeler<'_>,
    rng: &mut StdRng,
) -> CoreResult<(lts_sampling::CountEstimate, QualityForecast)> {
    let (order, pilot_positions) = (&warm.order, &warm.pilot_positions);
    let objects_at =
        |positions: &[usize]| -> Vec<usize> { positions.iter().map(|&p| order.get(p)).collect() };
    let (stratification, stage2_budget) = (&warm.stratification, warm.split.stage2);
    let n_rest = order.len();
    let sizes = stratification.stratum_sizes(n_rest);
    let n_strata_eff = sizes.len();

    // Pilot members per stratum (exact labels known).
    let mut pilot_in = vec![Vec::<usize>::new(); n_strata_eff];
    for &pos in pilot_positions {
        pilot_in[stratification.stratum_of(pos)].push(pos);
    }

    // Per stratum, where it starts and how many of its positions the
    // pilot leaves to draw from.
    let starts: Vec<usize> = (sizes.iter())
        .scan(0, |start, &size| {
            Some(std::mem::replace(start, *start + size))
        })
        .collect();
    let available: Vec<usize> = (sizes.iter().zip(&pilot_in))
        .map(|(&size, pilots)| size - pilots.len())
        .collect();

    // Allocation weights from pilot s_h (Neyman) or sizes
    // (proportional).
    let mut s_hats = Vec::with_capacity(n_strata_eff);
    for members in &pilot_in {
        // All pilot labels are cached, so this batch is free.
        let objs = objects_at(members);
        let positives = labeler.count_positives(&objs)?;
        let sample = StratumSample {
            population: members.len().max(1),
            sampled: members.len(),
            positives,
        };
        // Laplace-smoothed s for allocation: a homogeneous pilot
        // must not starve a stratum of stage-2 samples.
        s_hats.push(sample.s_for_allocation());
    }
    let weights: Vec<f64> = match lss.allocation {
        Allocation::Neyman => sizes
            .iter()
            .zip(&s_hats)
            .map(|(&n_h, &s)| n_h as f64 * s)
            .collect(),
        Allocation::Proportional => sizes.iter().map(|&n_h| n_h as f64).collect(),
    };
    let min_per = 1usize;
    let alloc = allocate(&weights, &available, stage2_budget, min_per)?;

    // Design-time quality forecast (the conclusion's future-work
    // sketch): Eq. (4) evaluated with the pilot s_h and the
    // *chosen* allocation, before any stage-2 label is drawn.
    // Populations match what stage 2 will estimate over.
    let forecast = {
        let mut var = 0.0;
        for (s, &n_h) in alloc.iter().enumerate() {
            let pop = match lss.pilot_handling {
                PilotHandling::ExactRemainder => available[s],
                PilotHandling::Textbook => sizes[s],
            } as f64;
            let s2 = s_hats[s] * s_hats[s];
            if n_h > 0 && pop > 0.0 {
                // Per-stratum variance of the count with the
                // finite-population correction.
                let fpc = (pop - n_h as f64) / pop.max(1.0);
                var += pop * pop * s2 / n_h as f64 * fpc;
            }
        }
        let se = var.max(0.0).sqrt();
        let z = lts_stats::z_critical(level).unwrap_or(1.96);
        QualityForecast {
            predicted_se: se,
            predicted_halfwidth: z * se,
            stage2_samples: alloc.iter().sum(),
        }
    };

    // The draws `draw_stratified` makes over each stratum's remainder
    // list, without the list: index `i` of a stratum's remainder is its
    // `i`-th position the pilot does not hold.
    let mut samples = Vec::with_capacity(n_strata_eff);
    let mut pilot_positives = 0usize;
    for s in 0..n_strata_eff {
        let drawn: Vec<usize> = (sample_without_replacement(rng, alloc[s], available[s])?)
            .into_iter()
            .map(|i| nth_unmarked(&pilot_in[s], starts[s], i))
            .collect();
        // One batched oracle call per stratum's stage-2 draw;
        // the pilot recount below hits only cached labels.
        let drawn_objs = objects_at(&drawn);
        let positives = labeler.count_positives(&drawn_objs)?;
        let pilot_objs = objects_at(&pilot_in[s]);
        pilot_positives += labeler.count_positives(&pilot_objs)?;
        let population = match lss.pilot_handling {
            PilotHandling::ExactRemainder => available[s],
            PilotHandling::Textbook => sizes[s],
        };
        samples.push(StratumSample {
            population,
            sampled: drawn.len(),
            positives,
        });
    }
    // The strata estimate covers remainders under `ExactRemainder`
    // (full sizes under `Textbook`); S_L and SI labels are exact and
    // counted as such. In reuse mode the S_L positions are members of
    // the pilot, so their positives are already in `pilot_positives`.
    let shift = match (lss.pilot_handling, warm.reuse) {
        (PilotHandling::ExactRemainder, true) => pilot_positives,
        (PilotHandling::ExactRemainder, false) => warm.proxy.positives() + pilot_positives,
        (PilotHandling::Textbook, _) => warm.proxy.positives(),
    };
    let base = stratified_count_estimate(&samples, level)?;
    Ok((base.shifted(shift as f64), forecast))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::CountEstimator;
    use crate::problem::tests_support::{line_problem, noisy_problem};
    use crate::spec::ClassifierSpec;
    use rand::SeedableRng;

    fn lss_knn() -> Lss {
        Lss {
            learn: LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 3 },
                ..LearnPhaseConfig::default()
            },
            min_pilots_per_stratum: 2,
            ..Lss::default()
        }
    }

    #[test]
    fn nth_unmarked_is_the_filtered_lists_entry() {
        for (start, marked) in [
            (0, vec![]),
            (0, vec![0, 1, 2]),
            (5, vec![5, 7, 8, 12]),
            (3, vec![4, 9, 10, 11, 20]),
        ] {
            let list: Vec<usize> = (start..start + 30)
                .filter(|p| !marked.contains(p))
                .collect();
            for (i, &want) in list.iter().enumerate() {
                assert_eq!(
                    nth_unmarked(&marked, start, i),
                    want,
                    "{start} {marked:?} {i}"
                );
            }
        }
    }

    #[test]
    fn respects_budget_and_lands_near_truth() {
        let problem = line_problem(600, 0.25);
        let truth = problem.exact_count().unwrap() as f64;
        problem.reset_meter();
        let mut rng = StdRng::seed_from_u64(7);
        let r = lss_knn().estimate(&problem, 120, &mut rng).unwrap();
        assert!(r.evals <= 120, "evals {}", r.evals);
        assert!((r.count() - truth).abs() < 60.0, "{} vs {truth}", r.count());
        assert!(r.has_interval);
    }

    #[test]
    fn unbiased_over_trials_exact_remainder() {
        let problem = noisy_problem(400, 0.3, 0.15, 17);
        let truth = problem.exact_count().unwrap() as f64;
        let est = lss_knn();
        let mut sum = 0.0;
        let trials = 200u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(60_000 + u64::from(t));
            sum += est.estimate(&problem, 80, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 10.0, "mean {mean} vs {truth}");
    }

    #[test]
    fn beats_srs_variance_with_good_classifier() {
        // The paper's setting: confident extremes plus a wide uncertain
        // band. The pilot sees the band's variance, the design isolates
        // it, and Neyman concentrates samples there.
        let problem = crate::problem::tests_support::ramp_problem(800, 0.25, 0.65, 2024);
        let truth = problem.exact_count().unwrap() as f64;
        let lss = Lss {
            learn: LearnPhaseConfig {
                spec: ClassifierSpec::Knn { k: 7 },
                ..LearnPhaseConfig::default()
            },
            min_pilots_per_stratum: 3,
            ..Lss::default()
        };
        let srs = super::super::Srs::default();
        let trials = 40u32;
        let (mut sse_lss, mut sse_srs) = (0.0, 0.0);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(800 + u64::from(t));
            let e = lss.estimate(&problem, 200, &mut rng).unwrap().count();
            sse_lss += (e - truth) * (e - truth);
            let mut rng = StdRng::seed_from_u64(800 + u64::from(t));
            let e = srs.estimate(&problem, 200, &mut rng).unwrap().count();
            sse_srs += (e - truth) * (e - truth);
        }
        assert!(
            sse_lss < sse_srs,
            "LSS SSE {sse_lss} should beat SRS SSE {sse_srs}"
        );
    }

    #[test]
    fn fixed_layouts_work() {
        let problem = line_problem(400, 0.3);
        let truth = problem.exact_count().unwrap() as f64;
        for layout in [LssLayout::FixedHeight, LssLayout::FixedWidth] {
            let est = Lss {
                layout,
                ..lss_knn()
            };
            let mut rng = StdRng::seed_from_u64(21);
            let r = est.estimate(&problem, 90, &mut rng).unwrap();
            assert!(
                (r.count() - truth).abs() < 80.0,
                "{layout:?}: {} vs {truth}",
                r.count()
            );
        }
    }

    #[test]
    fn textbook_pilot_handling_works() {
        let problem = line_problem(400, 0.4);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Lss {
            pilot_handling: PilotHandling::Textbook,
            ..lss_knn()
        };
        let mut rng = StdRng::seed_from_u64(31);
        let r = est.estimate(&problem, 90, &mut rng).unwrap();
        assert!((r.count() - truth).abs() < 80.0);
    }

    #[test]
    fn dirsol_layout_with_three_strata() {
        let problem = line_problem(500, 0.3);
        let est = Lss {
            n_strata: 3,
            layout: LssLayout::Optimized(DesignAlgorithm::DirSol),
            ..lss_knn()
        };
        let mut rng = StdRng::seed_from_u64(41);
        let r = est.estimate(&problem, 120, &mut rng).unwrap();
        let truth = problem.exact_count().unwrap() as f64;
        assert!((r.count() - truth).abs() < 80.0);
    }

    #[test]
    fn logbdr_layout_works_end_to_end() {
        let problem = line_problem(500, 0.3);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Lss {
            n_strata: 3,
            layout: LssLayout::Optimized(DesignAlgorithm::LogBdr),
            ..lss_knn()
        };
        let mut rng = StdRng::seed_from_u64(43);
        let r = est.estimate(&problem, 120, &mut rng).unwrap();
        assert!((r.count() - truth).abs() < 80.0, "{} vs {truth}", r.count());
        assert!(r.evals <= 120);
    }

    #[test]
    fn dynpgmp_layout_with_proportional_allocation() {
        let problem = line_problem(500, 0.3);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Lss {
            allocation: Allocation::Proportional,
            layout: LssLayout::Optimized(DesignAlgorithm::DynPgmP),
            ..lss_knn()
        };
        let mut rng = StdRng::seed_from_u64(47);
        let r = est.estimate(&problem, 120, &mut rng).unwrap();
        assert!((r.count() - truth).abs() < 80.0, "{} vs {truth}", r.count());
    }

    #[test]
    fn random_classifier_still_unbiased() {
        // §5.4.4: with the Random classifier LSS degrades to ~stratified
        // sampling quality but must remain correct.
        let problem = line_problem(300, 0.35);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Lss {
            learn: LearnPhaseConfig {
                spec: ClassifierSpec::Random,
                ..LearnPhaseConfig::default()
            },
            min_pilots_per_stratum: 2,
            ..Lss::default()
        };
        let mut sum = 0.0;
        let trials = 150u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(70_000 + u64::from(t));
            sum += est.estimate(&problem, 70, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 12.0, "mean {mean} vs {truth}");
    }

    #[test]
    fn forecast_is_reported_and_sane() {
        let problem = line_problem(600, 0.25);
        let mut rng = StdRng::seed_from_u64(7);
        let r = lss_knn().estimate(&problem, 120, &mut rng).unwrap();
        let f = r.forecast.expect("LSS reports a design-time forecast");
        assert!(f.predicted_se.is_finite() && f.predicted_se >= 0.0);
        assert!(f.predicted_halfwidth >= f.predicted_se, "z ≥ 1 at 95%");
        assert!(f.stage2_samples > 0 && f.stage2_samples <= 120);
    }

    #[test]
    fn forecast_tightens_with_budget() {
        let problem = line_problem(800, 0.3);
        let est = lss_knn();
        let fc = |budget: usize| {
            let trials = 15u32;
            let mut sum = 0.0;
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(4_000 + u64::from(t));
                sum += est
                    .estimate(&problem, budget, &mut rng)
                    .unwrap()
                    .forecast
                    .unwrap()
                    .predicted_se;
            }
            sum / f64::from(trials)
        };
        let (small, large) = (fc(80), fc(320));
        assert!(
            large < small,
            "4× budget must forecast a smaller SE: {large} vs {small}"
        );
    }

    #[test]
    fn forecast_tracks_realized_dispersion() {
        // The forecast is useful if it predicts the right order of
        // magnitude of the realized sampling error before stage 2 runs.
        let problem = noisy_problem(500, 0.3, 0.2, 23);
        let truth = problem.exact_count().unwrap() as f64;
        let est = lss_knn();
        let trials = 60u32;
        let (mut sse, mut fc_sum) = (0.0, 0.0);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(12_000 + u64::from(t));
            let r = est.estimate(&problem, 100, &mut rng).unwrap();
            let e = r.count() - truth;
            sse += e * e;
            fc_sum += r.forecast.unwrap().predicted_se;
        }
        let realized_rmse = (sse / f64::from(trials)).sqrt();
        let mean_forecast = fc_sum / f64::from(trials);
        // Same order of magnitude: the forecast ignores the exactly
        // counted pilots' contribution and uses smoothed s_h, so demand
        // agreement within 4× either way (not equality).
        assert!(
            mean_forecast < 4.0 * realized_rmse && realized_rmse < 4.0 * mean_forecast,
            "forecast {mean_forecast} vs realized RMSE {realized_rmse}"
        );
    }

    #[test]
    fn reuse_learning_lands_near_truth_with_same_evals() {
        let problem = line_problem(600, 0.25);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Lss {
            pilot_source: PilotSource::ReuseLearning,
            ..lss_knn()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let r = est.estimate(&problem, 120, &mut rng).unwrap();
        assert!(
            r.evals <= 120,
            "reused labels must not cost evals: {}",
            r.evals
        );
        assert!((r.count() - truth).abs() < 60.0, "{} vs {truth}", r.count());
    }

    #[test]
    fn reuse_learning_stays_unbiased() {
        // Footnote 3's worry is bias from reusing S_L; the design-only
        // reuse must keep the estimator mean on the truth.
        let problem = noisy_problem(400, 0.3, 0.15, 17);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Lss {
            pilot_source: PilotSource::ReuseLearning,
            ..lss_knn()
        };
        let mut sum = 0.0;
        let trials = 200u32;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(90_000 + u64::from(t));
            sum += est.estimate(&problem, 80, &mut rng).unwrap().count();
        }
        let mean = sum / f64::from(trials);
        assert!((mean - truth).abs() < 10.0, "mean {mean} vs {truth}");
    }

    #[test]
    fn reuse_learning_rejects_textbook_handling() {
        let problem = line_problem(200, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let bad = Lss {
            pilot_source: PilotSource::ReuseLearning,
            pilot_handling: PilotHandling::Textbook,
            ..lss_knn()
        };
        assert!(matches!(
            bad.estimate(&problem, 60, &mut rng),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn reuse_learning_supports_smaller_pilot_fraction() {
        // The point of reuse: the free S_L pilots let pilot_frac shrink,
        // shifting budget to stage 2 while the design still has labels.
        let problem = line_problem(600, 0.25);
        let truth = problem.exact_count().unwrap() as f64;
        let est = Lss {
            pilot_source: PilotSource::ReuseLearning,
            pilot_frac: 0.15,
            ..lss_knn()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let r = est.estimate(&problem, 120, &mut rng).unwrap();
        assert!((r.count() - truth).abs() < 60.0);
    }

    #[test]
    fn validation() {
        let problem = line_problem(100, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let bad = Lss {
            n_strata: 1,
            ..lss_knn()
        };
        assert!(bad.estimate(&problem, 50, &mut rng).is_err());
        let bad = Lss {
            train_frac: 0.0,
            ..lss_knn()
        };
        assert!(bad.estimate(&problem, 50, &mut rng).is_err());
        // Tiny budget.
        assert!(lss_knn().estimate(&problem, 8, &mut rng).is_err());
    }

    #[test]
    fn timings_report_design_phase() {
        let problem = line_problem(500, 0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let r = lss_knn().estimate(&problem, 120, &mut rng).unwrap();
        // Design phase must be measured (nonzero) and total covers all.
        assert!(r.timings.total >= r.timings.overhead());
    }
}
