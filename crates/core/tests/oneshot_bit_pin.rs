//! One-shot estimates of every learned estimator pinned to the bit.
//!
//! The LSS / LWS one-shot path is `prepare ∘ resume` over the caller's
//! single RNG stream; those constants were captured from the
//! hand-written one-shot bodies it replaced (commit `fcd18de`), so the
//! test passes on both sides of that refactor and fails if the
//! composition ever consumes the stream differently. The LSS
//! `std_error` / `lo` / `hi` bits were re-captured once when a
//! unanimous stratum's variance became Jeffreys-smoothed; counts and
//! evals kept their bits. The LWS-HT, LWS-seq, QLCC and QLAC rows were
//! captured from their own train-then-score bodies, before the five
//! estimators came to share one phase 1. The non-forest LSS rows were
//! captured while five learners still carried a hand-vectorized
//! `score_batch` beside their per-row `score`, and hold after those
//! overrides went.

mod common;

use common::band_problem;
use lts_core::{
    ClassifierSpec, CountEstimator, CountingProblem, LearnPhaseConfig, Lss, LssLayout, Lws, LwsHt,
    LwsSequential, PilotHandling, PilotSource, Qlac, Qlcc,
};
use lts_learn::AugmentConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(count, std_error, lo, hi)` as `f64` bits, plus `evals`.
type Pin = (u64, u64, u64, u64, usize);

const SEEDS: [u64; 3] = [7, 23, 101];

#[rustfmt::skip]
const LSS_DEFAULT: [Pin; 3] = [
    (0x40705d1a7b9611a8, 0x402ee43868df2ce3, 0x406ce15d65b191ec, 0x4072498644535a59, 150),
    (0x40712e0000000000, 0x402ca81fb74aac53, 0x406eca6743d68acb, 0x4072f6cc5e14ba9b, 150),
    (0x4071ddd67c8a60dd, 0x402e752ca393d949, 0x406ff0a9a0b7131d, 0x4073c35828b9382c, 150),
];
#[rustfmt::skip]
const LSS_REUSE: [Pin; 3] = [
    (0x4070cdc8dc8dc8dd, 0x402ce53f6c2ebd3c, 0x406e025c512b69c4, 0x40729a639085dcd7, 150),
    (0x40710b5e50d79436, 0x402f6dc6a28efeb4, 0x406e2cc3b231faf0, 0x4073005ac8962af3, 150),
    (0x4073487878787879, 0x40238f683b328e8a, 0x407210aca87e80c4, 0x407480444872702d, 150),
];
#[rustfmt::skip]
const LSS_TEXTBOOK: [Pin; 3] = [
    (0x40703be58469ee58, 0x40308fbb324ee78d, 0x406c57cfdeab1a1b, 0x40724be3197e4fa2, 150),
    (0x4071530000000000, 0x402e9a0a8680d001, 0x406ed665513f2664, 0x40733acd57606cce, 150),
    (0x4071c914c1bacf91, 0x40300e45da006d4d, 0x406f926ccb94ec6d, 0x4073c8f31dab28ec, 150),
];
#[rustfmt::skip]
const LSS_FIXED_WIDTH: [Pin; 3] = [
    (0x406f06ba2e8ba2e9, 0x402542ee5139a535, 0x406c60e5c189c4d9, 0x4070d6474dc6c07c, 150),
    (0x40706728bea79773, 0x4024e8c40085dd0b, 0x406e33b7989352be, 0x4071b475b1058587, 150),
    (0x4071469a69a69a6a, 0x4022e9f77fe322bf, 0x4070191bc6f457ca, 0x407274190c58dd08, 150),
];
#[rustfmt::skip]
const LWS_DEFAULT: [Pin; 3] = [
    (0x40707a69ed0d0e2e, 0x4027382c3efbda49, 0x406e14a772836004, 0x4071ea8020d86c5a, 150),
    (0x4071ad6271412f5c, 0x402446a22282774e, 0x40706bf5c0287e66, 0x4072eecf2259e052, 150),
    (0x4071b69ae8933947, 0x40226bd3e1d1b9f8, 0x4070929516ffc57e, 0x4072daa0ba26ad10, 150),
];
#[rustfmt::skip]
const LWS_HT_DEFAULT: [Pin; 3] = [
    (0x406fd3d69dc1014a, 0x4034bc60046978f0, 0x406abf4f732b35ae, 0x4072742ee42b6673, 150),
    (0x407092500184ff40, 0x4035c451ced3f31a, 0x406bcf6e8d0e4aa4, 0x40733ce8bc82d92f, 150),
    (0x40712ab5f76cee62, 0x40389ad2ea24b119, 0x406c4e3cf5528848, 0x40742e4d743098a0, 150),
];
#[rustfmt::skip]
const LWS_SEQ_DEFAULT: [Pin; 3] = [
    (0x4070576a28bf9075, 0x402873da65df5c41, 0x406da712334d05b5, 0x4071db4b37d89e0f, 144),
    (0x4071d2713d632dad, 0x402a9f17e05a4732, 0x4070291bca77d4ea, 0x40737bc6b04e866f, 104),
    (0x4072da2fcb1a6c60, 0x402b3bec1436179f, 0x40711c96568c1350, 0x407497c93fa8c56f, 68),
];
#[rustfmt::skip]
const QLCC_DEFAULT: [Pin; 3] = [
    (0x4070600000000000, 0x0000000000000000, 0x4070600000000000, 0x4070600000000000, 150),
    (0x4071300000000000, 0x0000000000000000, 0x4071300000000000, 0x4071300000000000, 150),
    (0x4070a00000000000, 0x0000000000000000, 0x4070a00000000000, 0x4070a00000000000, 150),
];
#[rustfmt::skip]
const QLAC_DEFAULT: [Pin; 3] = [
    (0x4070a93ce1a2447c, 0x0000000000000000, 0x4070a93ce1a2447c, 0x4070a93ce1a2447c, 150),
    (0x407021122792aa1f, 0x0000000000000000, 0x407021122792aa1f, 0x407021122792aa1f, 150),
    (0x406f9b96ac536cdd, 0x0000000000000000, 0x406f9b96ac536cdd, 0x406f9b96ac536cdd, 150),
];

#[rustfmt::skip]
const LSS_KNN: [Pin; 3] = [
    (0x4071700000000000, 0x40286497a0102ecd, 0x406fd6560d5a9a3c, 0x4072f4d4f952b2e2, 150),
    (0x4070df881a63881a, 0x402d8fdd1a5b79a4, 0x406e109b71fe3436, 0x4072b6c27bc7f619, 150),
    (0x40731f684bda12f7, 0x4032aa41c6126959, 0x4070cc5a23de8bca, 0x4075727673d59a24, 150),
];
#[rustfmt::skip]
const LSS_NN: [Pin; 3] = [
    (0x407065febac261d3, 0x4029ef853f3b3b0d, 0x406d9124eccfeb46, 0x4072036aff1cce04, 150),
    (0x4071415555555555, 0x4023738a8fbfaf22, 0x40700b45b688d512, 0x40727764f421d598, 150),
    (0x4072d6eb3e45306e, 0x4027bf3424f259b9, 0x40715c629f017322, 0x40745173dd88edba, 150),
];
#[rustfmt::skip]
const LSS_LOGIT: [Pin; 3] = [
    (0x406fe00000000000, 0x4030e3b3a8c87efe, 0x406bab1ac1740ea3, 0x40720a729f45f8af, 150),
    (0x4070bf3333333334, 0x4026ca107ca72934, 0x406ea7dc5de6d67e, 0x40722a783772fb28, 150),
    (0x4072d6eb3e45306e, 0x4027bf3424f259b9, 0x40715c629f017322, 0x40745173dd88edba, 150),
];
#[rustfmt::skip]
const LSS_GNB: [Pin; 3] = [
    (0x406fe00000000000, 0x4030e3b3a8c87efe, 0x406bab1ac1740ea3, 0x40720a729f45f8af, 150),
    (0x407092c4ec4ec4ec, 0x402fe4f8476241a3, 0x406d2cb8ecece53d, 0x40728f2d6227173b, 150),
    (0x4072d6eb3e45306e, 0x4027bf3424f259b9, 0x40715c629f017322, 0x40745173dd88edba, 150),
];
#[rustfmt::skip]
const LSS_GBM: [Pin; 3] = [
    (0x4071300000000000, 0x4030be81aed5691c, 0x406e345e5feb6669, 0x407345d0d00a4ccb, 150),
    (0x406e0dc71c71c71c, 0x4034365a9afa0455, 0x406905031a51880e, 0x40718b458f490315, 150),
    (0x4071614c1bacf915, 0x403085b78cc422ea, 0x406ea51b92dee320, 0x4073700a6dea809a, 150),
];
#[rustfmt::skip]
const LSS_RANDOM: [Pin; 3] = [
    (0x406eb808dda52023, 0x403abd570d73d74a, 0x40680f1474e4e5e9, 0x4072b07ea332ad2e, 150),
    (0x40710c2415748a7c, 0x403bf18adea51e8d, 0x406b229058004eec, 0x407486fffee8ed83, 150),
    (0x4070a1edf83e7389, 0x403be833dfbb0cb5, 0x406a5077a2cbcf06, 0x40741ba01f16ff8f, 150),
];
#[rustfmt::skip]
const LSS_KNN_AUGMENTED: [Pin; 3] = [
    (0x4070d247ae147ae1, 0x40294c81ce01767f, 0x406e7e03cee02579, 0x4072658d74b8e306, 150),
    (0x407038c8c8c8c8c8, 0x402c504127c49e9e, 0x406ceaea2ba782ee, 0x4071fc1c7bbdd01a, 150),
    (0x4070fc953f39010a, 0x40327cc40c49ab8c, 0x406d5e62c2294460, 0x407349f91d5d5fe3, 150),
];

/// Run `est` once per seed at a budget of 150 and compare its bits.
fn assert_pinned(problem: &CountingProblem, name: &str, est: &dyn CountEstimator, pins: &[Pin; 3]) {
    for (&seed, pin) in SEEDS.iter().zip(pins) {
        let r = est
            .estimate(problem, 150, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let got: Pin = (
            r.estimate.count.to_bits(),
            r.estimate.std_error.to_bits(),
            r.estimate.interval.lo.to_bits(),
            r.estimate.interval.hi.to_bits(),
            r.evals,
        );
        assert_eq!(got, *pin, "{name}, seed {seed}");
    }
}

#[test]
fn one_shot_estimates_match_the_pinned_bits() {
    let problem = band_problem(600, 17);
    let cases: [(&str, Box<dyn CountEstimator>, [Pin; 3]); 9] = [
        ("LSS default", Box::new(Lss::default()), LSS_DEFAULT),
        (
            "LSS ReuseLearning",
            Box::new(Lss {
                pilot_source: PilotSource::ReuseLearning,
                ..Lss::default()
            }),
            LSS_REUSE,
        ),
        (
            "LSS Textbook",
            Box::new(Lss {
                pilot_handling: PilotHandling::Textbook,
                ..Lss::default()
            }),
            LSS_TEXTBOOK,
        ),
        (
            "LSS FixedWidth",
            Box::new(Lss {
                layout: LssLayout::FixedWidth,
                ..Lss::default()
            }),
            LSS_FIXED_WIDTH,
        ),
        ("LWS default", Box::new(Lws::default()), LWS_DEFAULT),
        ("LWS-HT default", Box::new(LwsHt::default()), LWS_HT_DEFAULT),
        (
            "LWS-seq default",
            Box::new(LwsSequential::default()),
            LWS_SEQ_DEFAULT,
        ),
        ("QLCC default", Box::new(Qlcc::default()), QLCC_DEFAULT),
        ("QLAC default", Box::new(Qlac::default()), QLAC_DEFAULT),
    ];
    for (name, est, pins) in &cases {
        assert_pinned(&problem, name, est.as_ref(), pins);
    }
}

/// One-shot LSS with each learner the forest rows above leave out; the
/// augmented row also scores the uncertainty-sampling pool through
/// `select_uncertain`.
#[test]
fn non_forest_learners_match_the_pinned_bits() {
    let problem = band_problem(600, 17);
    let lss = |spec, augment| Lss {
        learn: LearnPhaseConfig {
            spec,
            augment,
            ..LearnPhaseConfig::default()
        },
        ..Lss::default()
    };
    let cases = [
        ("LSS KNN", lss(ClassifierSpec::Knn { k: 5 }, None), LSS_KNN),
        (
            "LSS NN",
            lss(ClassifierSpec::Mlp { epochs: 200 }, None),
            LSS_NN,
        ),
        ("LSS LOGIT", lss(ClassifierSpec::Logistic, None), LSS_LOGIT),
        ("LSS GNB", lss(ClassifierSpec::NaiveBayes, None), LSS_GNB),
        (
            "LSS GBM",
            lss(ClassifierSpec::Gbm { n_rounds: 50 }, None),
            LSS_GBM,
        ),
        ("LSS Random", lss(ClassifierSpec::Random, None), LSS_RANDOM),
        (
            "LSS KNN augmented",
            lss(ClassifierSpec::Knn { k: 5 }, Some(AugmentConfig::default())),
            LSS_KNN_AUGMENTED,
        ),
    ];
    for (name, est, pins) in &cases {
        assert_pinned(&problem, name, est, pins);
    }
}

/// With augmentation on, a training budget of 2 is spent whole on the
/// initial sample: the augmentation steps get no label of their own, so
/// the estimator labels 2 objects, not 3. (Budgets of 3 and more split
/// as before, as the pins above show.)
#[test]
fn augmentation_never_spends_past_a_budget_of_two() {
    let problem = band_problem(600, 17);
    let qlcc = Qlcc {
        learn: LearnPhaseConfig {
            augment: Some(AugmentConfig {
                steps: 1,
                per_step: 5,
                pool_size: 50,
            }),
            ..LearnPhaseConfig::default()
        },
    };
    for seed in SEEDS {
        let r = qlcc
            .estimate(&problem, 2, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(r.evals, 2, "seed {seed}");
    }
}
