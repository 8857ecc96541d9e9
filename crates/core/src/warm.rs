//! Warm-start support: snapshottable, resumable LSS state.
//!
//! A one-shot [`CountEstimator::estimate`] run spends most of its
//! labeling budget and wall time on assets that are *reusable across
//! runs of the same query*: the trained proxy classifier, the
//! scored-and-ordered population, and the labeled design pilot with
//! its optimized stratification. This module splits [`Lss`] into an
//! expensive, cacheable **prepare** phase and a cheap, repeatable
//! **resume** phase, each written once as a body over a `Run` — the
//! labeler, RNG stream and phase clock of one run:
//!
//! * [`Lss::prepare`] / [`Lss::prepare_with_known`] run phase 1 + the
//!   design and return an [`LssWarm`];
//! * [`Lss::estimate_prepared`] runs only the final sampling stage
//!   against a warm state, with a **fresh seed** — producing a new,
//!   independent draw (and therefore a new unbiased estimate) while
//!   spending only the stage-2 share of the budget;
//! * the one-shot [`CountEstimator::estimate`] **is** prepare ∘ resume
//!   over the caller's single RNG stream and one labeler, where the
//!   seeded entry points above start the stream afresh per phase from
//!   `mix_seed(seed, SALT_*)` — so "cold = prepare + resume" holds for
//!   the library path as well as the served one.
//!
//! Both phases are **deterministic functions of their seed**: preparing
//! twice with the same seed yields bit-identical states, and resuming a
//! given state twice with the same seed yields bit-identical reports —
//! regardless of thread count or of whether the state was freshly
//! prepared or decoded from a snapshot. This is the contract the
//! `lts-serve` service builds its model store and replayable request
//! streams on.
//!
//! A warm state is **plain data**: what a resume reads — the score
//! ordering, the labelled pilot, the cuts, the training labels — and
//! nothing else. The fitted classifier lives inside the prepare body
//! until the population is scored and is dropped there; the state keeps
//! its *record* ([`ModelSnapshot`]: spec, effective seed, training
//! set), from which `spec.build(model_seed)` refits bit-identically
//! because every family re-seeds from its construction seed on each
//! `fit`. Being data, an [`LssWarm`] has one validated plain form,
//! [`LssParts`] ([`LssWarm::to_parts`] / [`LssWarm::from_parts`]), which
//! is what the serving layer writes to disk and decodes at restart —
//! no fit, no scoring pass, no sort, no design run.

use crate::error::{CoreError, CoreResult};
use crate::estimators::lss::{nth_unmarked, stage2_estimate, LssBudgetSplit};
use crate::estimators::{check_budget, CountEstimator, Lss, LssLayout, PilotSource};
use crate::learnphase::{run_learn_phase, LearnPhaseConfig};
use crate::problem::{CountingProblem, Labeler};
use crate::report::{EstimateReport, PhaseClock};
use crate::scoring::ScoredPopulation;
use crate::spec::ClassifierSpec;
use lts_learn::Classifier;
use lts_obs::Phase;
use lts_sampling::sample_without_replacement;
use lts_strata::Stratification;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Domain-separation salts for the per-phase seed streams.
const SALT_LEARN: u64 = 0x4C45_4152_4E01;
const SALT_DESIGN: u64 = 0x4445_5349_474E;
const SALT_SAMPLE: u64 = 0x5341_4D50_4C45;

/// Mix two 64-bit values into one seed (SplitMix64 finalizer over the
/// xor): the deterministic derivation used for phase and per-request
/// seed streams. Not cryptographic — just well-spread.
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice — the workspace's cheap stable digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xCBF2_9CE4_8422_2325, bytes)
}

/// Fold more bytes into an FNV-1a digest: `fnv1a_extend(fnv1a(a), b)`
/// is `fnv1a` of `a` followed by `b`, so a stream can be digested as it
/// is written.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A trained proxy classifier together with the exact labels that
/// produced it — the phase-1 asset every learned estimator can reuse.
pub struct TrainedProxy {
    /// The learning-phase configuration it was trained under.
    pub config: LearnPhaseConfig,
    /// The effective seed the classifier was built with (see
    /// [`crate::LearnedModel::model_seed`]).
    pub model_seed: u64,
    /// The fitted classifier (shareable across concurrent resumes).
    pub model: Arc<dyn Classifier>,
    /// Object ids labeled during training (`S_L`).
    pub labeled: Vec<usize>,
    /// Labels aligned with `labeled`.
    pub labels: Vec<bool>,
}

impl TrainedProxy {
    /// Drop the fitted model and keep its record — spec, effective seed
    /// and training set: what a warm state retains once the population
    /// is scored: `spec.build(model_seed)` fitted on the training set
    /// refits bit-identically.
    pub fn into_snapshot(self) -> ModelSnapshot {
        ModelSnapshot {
            spec: self.config.spec,
            model_seed: self.model_seed,
            labeled: self.labeled,
            labels: self.labels,
        }
    }
}

/// Run the learning phase with its own deterministic seed stream and
/// return a reusable [`TrainedProxy`]. Labels drawn are charged to
/// `labeler` as usual.
///
/// # Errors
///
/// Propagates learning-phase errors.
pub fn train_proxy(
    problem: &CountingProblem,
    config: &LearnPhaseConfig,
    train_budget: usize,
    seed: u64,
    labeler: &mut Labeler<'_>,
) -> CoreResult<TrainedProxy> {
    train_proxy_on(
        problem,
        config,
        train_budget,
        labeler,
        &mut StdRng::seed_from_u64(seed),
    )
}

/// [`train_proxy`] over a caller-supplied RNG stream.
fn train_proxy_on(
    problem: &CountingProblem,
    config: &LearnPhaseConfig,
    train_budget: usize,
    labeler: &mut Labeler<'_>,
    rng: &mut StdRng,
) -> CoreResult<TrainedProxy> {
    let lm = run_learn_phase(problem, labeler, train_budget, config, rng)?;
    Ok(TrainedProxy {
        config: *config,
        model_seed: lm.model_seed,
        model: Arc::from(lm.model),
        labeled: lm.labeled,
        labels: lm.labels,
    })
}

/// The record of a fitted classifier: the spec, the effective
/// construction seed, and the exact training set — what a warm state
/// keeps of its proxy. Rebuilding is a single deterministic refit —
/// bit-identical to the original because every model family re-seeds
/// from its construction seed on `fit`.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// Classifier family + hyperparameters.
    pub spec: ClassifierSpec,
    /// Effective construction seed.
    pub model_seed: u64,
    /// Training-set object ids.
    pub labeled: Vec<usize>,
    /// Labels aligned with `labeled`.
    pub labels: Vec<bool>,
}

impl ModelSnapshot {
    /// Exact positive count within the training sample.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&b| b).count()
    }

    /// The training sample as `(object id, label)` pairs.
    fn known_labels(&self) -> Vec<(usize, bool)> {
        let ids = self.labeled.iter().copied();
        ids.zip(self.labels.iter().copied()).collect()
    }

    /// Stable content digest (spec, seed, training set) — the "model
    /// version" stamp result caches carry.
    pub fn digest(&self) -> u64 {
        let mut bytes = format!("{:?}|{}", self.spec, self.model_seed).into_bytes();
        for (&i, &l) in self.labeled.iter().zip(&self.labels) {
            bytes.extend_from_slice(&(i as u64).to_le_bytes());
            bytes.push(u8::from(l));
        }
        fnv1a(&bytes)
    }
}

/// What one prepare or resume body runs over: the labeler (its cache
/// carries labels from phase to phase), the RNG stream, and the phase
/// clock. The one-shot path hands one `Run` from prepare to resume;
/// each seeded entry point builds its own.
struct Run<'p, 'r> {
    labeler: Labeler<'p>,
    rng: &'r mut StdRng,
    /// Where the stream restarts before the stage-1 pilot draw (the
    /// seeded prepare's own design stream; `None` continues `rng`).
    pilot_seed: Option<u64>,
    clock: PhaseClock,
}

impl<'p, 'r> Run<'p, 'r> {
    fn new(problem: &'p CountingProblem, rng: &'r mut StdRng, known: &[(usize, bool)]) -> Self {
        let clock = PhaseClock::new();
        let mut labeler = Labeler::new(problem);
        if !known.is_empty() {
            let (ids, labels): (Vec<usize>, Vec<bool>) = known.iter().copied().unzip();
            labeler.preload(&ids, &labels);
        }
        Self {
            labeler,
            rng,
            pilot_seed: None,
            clock,
        }
    }
}

/// An id list bit-packed at one width — the bits of its largest id, so
/// `⌈log₂ N′⌉` for an ordering of `0..N′` (one bit at `N′ = 1`): entry
/// `i` is the `width` bits from bit `i·width` of `words`, low bits
/// first, spilling into the next word when it straddles one.
pub(crate) struct PackedIds {
    words: Box<[u64]>,
    width: u32,
    len: usize,
}

impl PackedIds {
    /// Pack `ids` at the width of the largest.
    pub(crate) fn pack(ids: &[u32]) -> Self {
        let max = ids.iter().copied().max().unwrap_or(0);
        let width = (u32::BITS - max.leading_zeros()).max(1);
        let w = width as usize;
        let mut words = vec![0u64; (ids.len() * w).div_ceil(64)];
        for (i, &id) in ids.iter().enumerate() {
            let id = u64::from(id);
            let (word, shift) = (i * w / 64, i * w % 64);
            words[word] |= id << shift;
            if shift + w > 64 {
                words[word + 1] |= id >> (64 - shift);
            }
        }
        Self {
            words: words.into_boxed_slice(),
            width,
            len: ids.len(),
        }
    }

    /// The id at position `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not below [`PackedIds::len`].
    pub(crate) fn get(&self, i: usize) -> usize {
        assert!(i < self.len, "position {i} of {} packed ids", self.len);
        let w = self.width as usize;
        let (word, shift) = (i * w / 64, i * w % 64);
        let mut bits = self.words[word] >> shift;
        if shift + w > 64 {
            bits |= self.words[word + 1] << (64 - shift);
        }
        (bits & ((1 << w) - 1)) as usize
    }

    /// Number of ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The ids, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

/// The reusable state of an LSS run: the proxy's record, score
/// ordering, labeled design pilot, and the optimized stratification.
pub struct LssWarm {
    /// The record of the phase-1 proxy (the model itself is dropped
    /// once the population is scored).
    pub proxy: ModelSnapshot,
    /// The score ordering, position → object id, packed at
    /// `⌈log₂ N′⌉` bits an object. The sorted scores are read once, by
    /// the design, and not retained.
    pub(crate) order: PackedIds,
    /// Pilot positions within the ordering (ascending).
    pub(crate) pilot_positions: Vec<usize>,
    /// Pilot labels aligned with `pilot_positions`.
    pilot_labels: Vec<bool>,
    pub(crate) stratification: Stratification,
    /// The budget split the state was prepared under; each resume
    /// spends `split.stage2` fresh labels.
    pub split: LssBudgetSplit,
    /// Notes emitted by the design stage (constraint relaxations etc.).
    pub design_notes: Vec<String>,
    /// Oracle evaluations spent preparing (the cold-start cost).
    pub prepare_evals: usize,
    n: usize,
    pub(crate) reuse: bool,
    /// [`Lss::profile_digest`] of the profile the state was prepared
    /// under.
    profile: u64,
}

/// The plain-data form of an [`LssWarm`]: exactly what cannot be
/// recomputed without the oracle, a fit, a scoring pass, a sort or a
/// design run. The budget split, the pilot source, `N` and the
/// classifier spec are re-derived by [`LssWarm::from_parts`] from the
/// profile, the budget and the problem.
#[derive(Debug, Clone)]
pub struct LssParts {
    /// [`Lss::profile_digest`] of the profile the state was prepared
    /// under.
    pub profile: u64,
    /// Effective construction seed of the proxy.
    pub model_seed: u64,
    /// Training-set object ids, in training order.
    pub labeled: Vec<usize>,
    /// Labels aligned with `labeled`.
    pub labels: Vec<bool>,
    /// The score ordering, position → object id, at the `u32` a state
    /// packs its ids from: a decode never holds them wider.
    pub order: Vec<u32>,
    /// Pilot positions within the ordering (ascending).
    pub pilot_positions: Vec<usize>,
    /// Labels aligned with `pilot_positions`.
    pub pilot_labels: Vec<bool>,
    /// The stratification's cut points.
    pub cuts: Vec<usize>,
    /// The design objective at those cuts (NaN for fixed layouts).
    pub estimated_variance: f64,
    /// Notes emitted by the design stage.
    pub design_notes: Vec<String>,
    /// Oracle evaluations the prepare spent.
    pub prepare_evals: usize,
}

impl LssWarm {
    /// The state as plain data (see [`LssParts`]): a copy, the ordering
    /// unpacked to `u32`. A reader that only renders the state reads
    /// the borrowing accessors ([`LssWarm::order`] and its neighbours)
    /// instead.
    pub fn to_parts(&self) -> LssParts {
        LssParts {
            profile: self.profile,
            model_seed: self.proxy.model_seed,
            labeled: self.proxy.labeled.clone(),
            labels: self.proxy.labels.clone(),
            order: self.order.iter().map(|id| id as u32).collect(),
            pilot_positions: self.pilot_positions.clone(),
            pilot_labels: self.pilot_labels.clone(),
            cuts: self.stratification.cuts.clone(),
            estimated_variance: self.stratification.estimated_variance,
            design_notes: self.design_notes.clone(),
            prepare_evals: self.prepare_evals,
        }
    }

    /// Rebuild a state prepared under `lss` at `budget` over `problem`
    /// from its plain data. Nothing is fitted, scored, sorted or
    /// designed — so everything a prepare guarantees by construction is
    /// **checked** here: the profile digest matches `lss`; training ids
    /// are distinct and `< N`; the ordering is a permutation of exactly
    /// the ids it must cover (all of `0..N`, or `0..N` minus the
    /// training ids under [`PilotSource::Fresh`]); pilot positions are
    /// strictly ascending inside the ordering, carry aligned labels and
    /// number what the budget split says — which, `budget ≤ N` being
    /// checked, leaves stage 2 its draws (under
    /// [`PilotSource::ReuseLearning`] the training sample sits in the
    /// pilot under its own labels); cuts are strictly ascending inside
    /// the ordering.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] naming the first failed
    /// check, or the budget/configuration errors of a prepare.
    pub fn from_parts(
        parts: LssParts,
        budget: usize,
        problem: &CountingProblem,
        lss: &Lss,
    ) -> CoreResult<Self> {
        let bad = |message: String| Err(CoreError::InvalidState { message });
        check_budget(problem, budget)?;
        lss.validate()?;
        let split = lss.budget_split(budget)?;
        if parts.profile != lss.profile_digest() {
            return bad("the state was prepared under a different LSS profile".into());
        }
        let n = problem.n();
        let reuse = lss.pilot_source == PilotSource::ReuseLearning;
        let (labeled, order, pilot) = (&parts.labeled, &parts.order, &parts.pilot_positions);
        if parts.labels.len() != labeled.len() || parts.pilot_labels.len() != pilot.len() {
            return bad("a label list is not aligned with its ids".into());
        }
        // Per object: its training label, if it is a training member.
        let mut train_label: Vec<Option<bool>> = vec![None; n];
        for (&i, &label) in labeled.iter().zip(&parts.labels) {
            match train_label.get_mut(i) {
                Some(slot @ None) => *slot = Some(label),
                _ => return bad(format!("training id {i} is repeated or beyond N = {n}")),
            }
        }
        let covered = if reuse { n } else { n - labeled.len() };
        let mut seen = vec![false; n];
        let is_permutation = order.len() == covered
            && order.iter().all(|&i| {
                let i = i as usize;
                i < n
                    && (reuse || train_label[i].is_none())
                    && !std::mem::replace(&mut seen[i], true)
            });
        if !is_permutation {
            return bad(format!(
                "the ordering is not a permutation of the {covered} objects it must cover"
            ));
        }
        let ascending = |v: &[usize]| v.windows(2).all(|w| w[0] < w[1]);
        let inside = |v: &[usize]| v.last().is_none_or(|&p| p < order.len());
        let pilots = split.pilot + if reuse { labeled.len() } else { 0 };
        if pilot.len() != pilots || !ascending(pilot) || !inside(pilot) {
            return bad(format!(
                "the pilot is not {pilots} ascending positions inside the ordering"
            ));
        }
        if reuse {
            let in_pilot = |&(&p, &l): &(&usize, &bool)| train_label[order[p] as usize] == Some(l);
            let reused = pilot.iter().zip(&parts.pilot_labels).filter(in_pilot);
            if reused.count() != labeled.len() {
                return bad("the reused training sample is not in the pilot as labelled".into());
            }
        }
        let cuts = &parts.cuts;
        if !ascending(cuts) || cuts.first() == Some(&0) || !inside(cuts) {
            return bad("cuts are not strictly ascending inside the ordering".into());
        }
        let order = PackedIds::pack(order);
        Ok(LssWarm {
            proxy: ModelSnapshot {
                spec: lss.learn.spec,
                model_seed: parts.model_seed,
                labeled: parts.labeled,
                labels: parts.labels,
            },
            order,
            pilot_positions: parts.pilot_positions,
            pilot_labels: parts.pilot_labels,
            stratification: Stratification {
                cuts: parts.cuts,
                estimated_variance: parts.estimated_variance,
            },
            split,
            design_notes: parts.design_notes,
            prepare_evals: parts.prepare_evals,
            n,
            reuse,
            profile: parts.profile,
        })
    }

    /// All exactly-known `(object id, label)` pairs (training sample ∪
    /// design pilot) — preloaded for free on every resume.
    pub fn known_labels(&self) -> Vec<(usize, bool)> {
        let mut pairs = self.proxy.known_labels();
        for (&pos, &label) in self.pilot_positions.iter().zip(&self.pilot_labels) {
            pairs.push((self.order.get(pos), label));
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Content digest of the reusable state (model + pilot + cuts),
    /// used as the result-cache model-version stamp.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(16 * (self.pilot_positions.len() + 2));
        bytes.extend_from_slice(&self.proxy.digest().to_le_bytes());
        for (&p, &l) in self.pilot_positions.iter().zip(&self.pilot_labels) {
            bytes.extend_from_slice(&(p as u64).to_le_bytes());
            bytes.push(u8::from(l));
        }
        for &c in &self.stratification.cuts {
            bytes.extend_from_slice(&(c as u64).to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// [`Lss::profile_digest`] of the profile the state was prepared
    /// under.
    pub fn profile(&self) -> u64 {
        self.profile
    }

    /// The score ordering, position → object id.
    pub fn order(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.order.iter()
    }

    /// Pilot positions within the ordering (ascending).
    pub fn pilot_positions(&self) -> &[usize] {
        &self.pilot_positions
    }

    /// Labels aligned with [`LssWarm::pilot_positions`].
    pub fn pilot_labels(&self) -> &[bool] {
        &self.pilot_labels
    }

    /// The stratification's cut points.
    pub fn cuts(&self) -> &[usize] {
        &self.stratification.cuts
    }

    /// The design objective at the state's cuts (NaN for fixed layouts).
    pub fn estimated_variance(&self) -> f64 {
        self.stratification.estimated_variance
    }
}

/// The warm entry points: prepare and resume, each with its own
/// deterministic seed stream.
impl Lss {
    /// Run the prepare body with a deterministic per-phase seed stream,
    /// returning a warm state [`Lss::estimate_prepared`] can resume any
    /// number of times.
    ///
    /// # Errors
    ///
    /// Same conditions as the one-shot estimate path.
    pub fn prepare(
        &self,
        problem: &CountingProblem,
        budget: usize,
        seed: u64,
    ) -> CoreResult<LssWarm> {
        self.prepare_with_known(problem, budget, seed, &[])
    }

    /// [`Lss::prepare`] with already-known labels preloaded:
    /// re-preparing a state whose labels are all known costs **zero**
    /// oracle evaluations and reproduces the original state
    /// bit-identically (same seed) — the proof that a state is a pure
    /// function of its seed and labels. (A snapshot restore does not
    /// come through here: it decodes, see [`LssWarm::from_parts`].)
    ///
    /// # Errors
    ///
    /// Same conditions as [`Lss::prepare`].
    pub fn prepare_with_known(
        &self,
        problem: &CountingProblem,
        budget: usize,
        seed: u64,
        known: &[(usize, bool)],
    ) -> CoreResult<LssWarm> {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, SALT_LEARN));
        let mut run = Run::new(problem, &mut rng, known);
        run.pilot_seed = Some(mix_seed(seed, SALT_DESIGN));
        self.prepare_on(problem, budget, &mut run)
    }

    /// Resume a prepared state: a fresh stage-2 draw with the given
    /// seed, spending only `split.stage2` labels (the state's known
    /// labels are preloaded for free). The report carries the state's
    /// design-time quality forecast.
    ///
    /// # Errors
    ///
    /// Returns an error when the state does not match the problem, or
    /// on sampling/labeling failures.
    pub fn estimate_prepared(
        &self,
        problem: &CountingProblem,
        warm: &LssWarm,
        seed: u64,
    ) -> CoreResult<EstimateReport> {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, SALT_SAMPLE));
        let run = Run::new(problem, &mut rng, &warm.known_labels());
        self.resume_on(problem, warm, run)
    }

    /// The prepare body: train, score + order, stage-1 pilot, design.
    fn prepare_on(
        &self,
        problem: &CountingProblem,
        budget: usize,
        run: &mut Run<'_, '_>,
    ) -> CoreResult<LssWarm> {
        check_budget(problem, budget)?;
        self.validate()?;
        let split = self.budget_split(budget)?;
        let proxy = run.clock.phase(Phase::Train, || {
            train_proxy_on(problem, &self.learn, split.train, &mut run.labeler, run.rng)
        })?;

        // With PilotSource::Fresh the ordering covers O' = O \ S_L (the
        // paper's description); with ReuseLearning it covers all of O so
        // the S_L labels can serve as design pilots at their own
        // positions. `train_positions` are the positions of S_L within
        // the ordering (ascending; empty in Fresh mode).
        let reuse = self.pilot_source == PilotSource::ReuseLearning;
        let (ordered, train_positions, proxy) = run.clock.phase(Phase::Score, || {
            let scored = if reuse {
                ScoredPopulation::score_all(problem, proxy.model.as_ref())
            } else {
                ScoredPopulation::score_rest(problem, proxy.model.as_ref(), &proxy.labeled)
            }?;
            // Scoring was the model's last use: it (and a forest's score
            // table) is dropped before the ordering allocates, and the
            // state keeps its record.
            let proxy = proxy.into_snapshot();
            let ordered = scored.into_ordered_keeping(self.layout == LssLayout::FixedWidth);
            let mut train_positions = Vec::new();
            if reuse {
                let mut in_train = vec![false; problem.n()];
                for &i in &proxy.labeled {
                    in_train[i] = true;
                }
                train_positions = ordered.positions_marked(&in_train);
            }
            CoreResult::Ok((ordered, train_positions, proxy))
        })?;
        let n_rest = ordered.n();
        let n_drawable = n_rest - train_positions.len();
        if split.pilot + split.stage2 > n_drawable {
            return Err(CoreError::BudgetTooSmall {
                budget,
                required: proxy.labeled.len() + n_drawable,
                reason: "sampling budget exceeds remaining objects".into(),
            });
        }

        // Draw SI uniformly over *positions* of the ordering (equivalent
        // to uniform over objects). The S_L positions (reuse mode only)
        // are excluded from the draw and injected afterwards with their
        // already-known labels, which the labeler has cached — they cost
        // no extra q evaluations.
        let (entries, pilot, order, sorted_scores) = run.clock.phase(Phase::Pilot, || {
            if let Some(seed) = run.pilot_seed {
                *run.rng = StdRng::seed_from_u64(seed);
            }
            let draws = sample_without_replacement(run.rng, split.pilot, n_drawable)?;
            let mut positions: Vec<usize> = (draws.into_iter())
                .map(|i| nth_unmarked(&train_positions, 0, i))
                .collect();
            positions.extend_from_slice(&train_positions);
            let labels = run.labeler.label_batch(&ordered.objects_at(&positions))?;
            let entries: Vec<_> = positions.into_iter().zip(labels).collect();
            let pilot = ordered.pilot_index(&entries)?;
            // The ordering's last read was the pilot's objects: it is
            // packed before the design allocates.
            let (order, sorted_scores) = ordered.into_parts();
            let packed = PackedIds::pack(&order);
            CoreResult::Ok((entries, pilot, packed, sorted_scores))
        })?;
        let mut design_notes = Vec::new();
        let stratification = run.clock.phase(Phase::Design, || {
            self.layout_cuts(
                &pilot,
                &sorted_scores,
                n_rest,
                split.stage2,
                &mut design_notes,
            )
        })?;

        // Store the pilot sorted by position with aligned labels.
        let mut sorted_entries = entries;
        sorted_entries.sort_unstable_by_key(|&(pos, _)| pos);
        let (pilot_positions, pilot_labels): (Vec<usize>, Vec<bool>) =
            sorted_entries.into_iter().unzip();

        Ok(LssWarm {
            proxy,
            order,
            pilot_positions,
            pilot_labels,
            stratification,
            split,
            design_notes,
            prepare_evals: run.labeler.unique_evals(),
            n: problem.n(),
            reuse,
            profile: self.profile_digest(),
        })
    }

    /// The resume body — stage 2: allocate and draw a fresh stratified
    /// sample, over a labeler that already holds the state's known
    /// labels, so only the fresh draws touch the oracle.
    fn resume_on(
        &self,
        problem: &CountingProblem,
        warm: &LssWarm,
        mut run: Run<'_, '_>,
    ) -> CoreResult<EstimateReport> {
        // A warm state resumes only against the population it was
        // prepared for.
        if warm.n != problem.n() {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "warm state was prepared for N = {}, problem has N = {}",
                    warm.n,
                    problem.n()
                ),
            });
        }
        let (estimate, forecast) = run.clock.phase(Phase::Stage2, || {
            stage2_estimate(self, warm, problem.level(), &mut run.labeler, run.rng)
        })?;
        Ok(EstimateReport {
            estimate,
            has_interval: true,
            evals: run.labeler.unique_evals(),
            timings: run.clock.finish(),
            estimator: self.name().into(),
            notes: warm.design_notes.clone(),
            forecast: Some(forecast),
        })
    }
}

/// One-shot = prepare ∘ resume over the caller's single RNG stream and
/// one labeler, so `evals` and the timings cover the whole run.
impl CountEstimator for Lss {
    fn name(&self) -> &'static str {
        "LSS"
    }

    fn estimate(
        &self,
        problem: &CountingProblem,
        budget: usize,
        rng: &mut StdRng,
    ) -> CoreResult<EstimateReport> {
        let mut run = Run::new(problem, rng, &[]);
        let warm = self.prepare_on(problem, budget, &mut run)?;
        self.resume_on(problem, &warm, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::tests_support::{line_problem, ramp_problem};
    use crate::spec::ClassifierSpec;

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
    fn mix_seed_separates_streams() {
        assert_ne!(mix_seed(1, 2), mix_seed(2, 1));
        assert_ne!(mix_seed(0, SALT_LEARN), mix_seed(0, SALT_SAMPLE));
        assert_eq!(mix_seed(7, 9), mix_seed(7, 9));
    }

    #[test]
    fn lss_prepare_is_deterministic_and_resume_replays_bit_identically() {
        let problem = ramp_problem(600, 0.2, 0.7, 11);
        let lss = lss_knn();
        let w1 = lss.prepare(&problem, 150, 42).unwrap();
        let w2 = lss.prepare(&problem, 150, 42).unwrap();
        assert_eq!(w1.digest(), w2.digest(), "same seed ⇒ same state");
        assert_eq!(w1.pilot_positions, w2.pilot_positions);
        assert_eq!(w1.prepare_evals, w2.prepare_evals);

        let r1 = lss.estimate_prepared(&problem, &w1, 1001).unwrap();
        let r2 = lss.estimate_prepared(&problem, &w2, 1001).unwrap();
        assert_eq!(r1.count().to_bits(), r2.count().to_bits());
        assert_eq!(
            r1.estimate.interval.lo.to_bits(),
            r2.estimate.interval.lo.to_bits()
        );
        assert_eq!(r1.evals, r2.evals);
        // A different request seed draws a different stage-2 sample.
        let r3 = lss.estimate_prepared(&problem, &w1, 1002).unwrap();
        assert_ne!(r1.count().to_bits(), r3.count().to_bits());
        // Resume spends only the stage-2 share.
        assert_eq!(r1.evals, w1.split.stage2);
        assert!(w1.prepare_evals >= w1.split.train + w1.split.pilot - 5);
    }

    #[test]
    fn lss_resume_estimates_stay_near_truth() {
        let problem = ramp_problem(800, 0.25, 0.65, 3);
        let truth = problem.exact_count().unwrap() as f64;
        let lss = lss_knn();
        let warm = lss.prepare(&problem, 200, 9).unwrap();
        let mut sum = 0.0;
        let trials = 40u32;
        for t in 0..trials {
            let r = lss
                .estimate_prepared(&problem, &warm, 5_000 + u64::from(t))
                .unwrap();
            sum += r.count();
            assert!(r.forecast.is_some());
        }
        let mean = sum / f64::from(trials);
        assert!(
            (mean - truth).abs() < 0.1 * truth + 20.0,
            "mean {mean} vs {truth}"
        );
    }

    #[test]
    fn lss_snapshot_restore_costs_zero_evals_and_matches() {
        let problem = line_problem(500, 0.3);
        let lss = lss_knn();
        let warm = lss.prepare(&problem, 120, 77).unwrap();
        assert!(warm.prepare_evals > 0);
        let known = warm.known_labels();
        problem.reset_meter();
        let restored = lss.prepare_with_known(&problem, 120, 77, &known).unwrap();
        assert_eq!(restored.prepare_evals, 0, "restore must not touch q");
        assert_eq!(problem.predicate_stats().evals, 0);
        assert_eq!(restored.digest(), warm.digest());
        let a = lss.estimate_prepared(&problem, &warm, 31).unwrap();
        let b = lss.estimate_prepared(&problem, &restored, 31).unwrap();
        assert_eq!(a.count().to_bits(), b.count().to_bits());
    }

    #[test]
    fn model_snapshot_rebuilds_bit_identical_scores() {
        let problem = line_problem(300, 0.4);
        let mut labeler = Labeler::new(&problem);
        for spec in [
            ClassifierSpec::Knn { k: 3 },
            ClassifierSpec::RandomForest { n_trees: 10 },
            ClassifierSpec::Mlp { epochs: 20 },
            ClassifierSpec::Logistic,
            ClassifierSpec::NaiveBayes,
            ClassifierSpec::Gbm { n_rounds: 5 },
            ClassifierSpec::Random,
        ] {
            let proxy = train_proxy(
                &problem,
                &LearnPhaseConfig {
                    spec,
                    ..LearnPhaseConfig::default()
                },
                40,
                99,
                &mut labeler,
            )
            .unwrap();
            let original = proxy.model.score_batch(problem.features()).unwrap();
            // The record refits bit-identically: every family re-seeds
            // from its construction seed on `fit`.
            let snapshot = proxy.into_snapshot();
            let mut rebuilt = snapshot.spec.build(snapshot.model_seed);
            let training = problem.feature_view().gather(&snapshot.labeled);
            rebuilt.fit(&training, &snapshot.labels).unwrap();
            let restored = rebuilt.score_batch(problem.features()).unwrap();
            let same = original
                .iter()
                .zip(&restored)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{spec:?}: snapshot rebuild must be bit-identical");
        }
    }

    #[test]
    fn model_snapshot_digest_is_content_addressed() {
        let base = ModelSnapshot {
            spec: ClassifierSpec::Knn { k: 3 },
            model_seed: 5,
            labeled: vec![1, 2, 3],
            labels: vec![true, false, true],
        };
        assert_eq!(base.digest(), base.clone().digest());
        let mut other = base.clone();
        other.labels[1] = true;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.model_seed = 6;
        assert_ne!(base.digest(), other.digest());
    }

    #[test]
    fn packed_ids_round_trip_at_every_width() {
        // A well-spread stream of ids below `2^width`, with the largest
        // one and zero planted: 97 entries straddle word boundaries at
        // every width that does not divide 64.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for width in 1..=32u32 {
            let top = u32::MAX >> (32 - width);
            let mut ids: Vec<u32> = (0..97)
                .map(|_| {
                    x = mix_seed(x, u64::from(width));
                    x as u32 & top
                })
                .collect();
            (ids[3], ids[50]) = (top, 0);
            let packed = PackedIds::pack(&ids);
            assert_eq!(packed.width, width);
            assert_eq!(packed.words.len(), (97 * width as usize).div_ceil(64));
            assert_eq!(packed.len(), ids.len());
            let wide = || ids.iter().map(|&id| id as usize);
            assert!(packed.iter().eq(wide()), "width {width}");
            for (i, id) in wide().enumerate().rev() {
                assert_eq!(packed.get(i), id, "width {width}, position {i}");
            }
        }
        for one in [0, 1, u32::MAX] {
            let packed = PackedIds::pack(&[one]);
            assert_eq!((packed.len(), packed.get(0)), (1, one as usize));
        }
        assert_eq!(PackedIds::pack(&[u32::MAX]).width, 32);
        assert_eq!(PackedIds::pack(&[]).iter().len(), 0);
    }

    #[test]
    #[should_panic(expected = "position 3 of 3 packed ids")]
    fn packed_ids_refuse_a_position_past_the_end() {
        PackedIds::pack(&[1, 2, 3]).get(3);
    }

    #[test]
    fn warm_state_rejects_mismatched_problem() {
        let problem = line_problem(400, 0.3);
        let other = line_problem(300, 0.3);
        let lss = lss_knn();
        let warm = lss.prepare(&problem, 100, 1).unwrap();
        assert!(lss.estimate_prepared(&other, &warm, 2).is_err());
    }
}
