//! One-shot `Lss::estimate` / `Lws::estimate` pinned to the bit.
//!
//! The one-shot path is `prepare ∘ resume` over the caller's single
//! RNG stream; these constants were captured from the hand-written
//! one-shot bodies it replaced (commit `fcd18de`), so the test passes
//! on both sides of that refactor and fails if the composition ever
//! consumes the stream differently.

mod common;

use common::band_problem;
use lts_core::{CountEstimator, Lss, LssLayout, Lws, PilotHandling, PilotSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(count, std_error, lo, hi)` as `f64` bits, plus `evals`.
type Pin = (u64, u64, u64, u64, usize);

const SEEDS: [u64; 3] = [7, 23, 101];

#[rustfmt::skip]
const LSS_DEFAULT: [Pin; 3] = [
    (0x40705d1a7b9611a8, 0x402ca56255b8aee0, 0x406d28f3938774b2, 0x407225bb2d6868f6, 150),
    (0x40712e0000000000, 0x402afd78b1abc10a, 0x406eff893dc9f00f, 0x4072dc3b611b07f8, 150),
    (0x4071ddd67c8a60dd, 0x402bd437347a5144, 0x4070223c0299e617, 0x40739970f67adba3, 150),
];
#[rustfmt::skip]
const LSS_REUSE: [Pin; 3] = [
    (0x4070cdc8dc8dc8dd, 0x402a5b9f82d9794d, 0x406e5342cd99fe8f, 0x407271f0524e9272, 150),
    (0x40710b5e50d79436, 0x402def29f8e92c43, 0x406e5c69a1b9f52e, 0x4072e887d0d22dd4, 150),
    (0x4073487878787879, 0x401fd1ceb72da836, 0x40724adcf7bdb773, 0x40744613f933397e, 150),
];
#[rustfmt::skip]
const LSS_TEXTBOOK: [Pin; 3] = [
    (0x40703be58469ee58, 0x402ec4fd25912755, 0x406ca2d725e4f9f7, 0x4072265f75e15fb5, 150),
    (0x4071530000000000, 0x402cc38386cb39aa, 0x406f10fe0e701870, 0x40731d80f8c7f3c8, 150),
    (0x4071c914c1bacf91, 0x402d12e79555b37c, 0x406ff34488d29314, 0x407398873f0c5597, 150),
];
#[rustfmt::skip]
const LSS_FIXED_WIDTH: [Pin; 3] = [
    (0x406f06ba2e8ba2e9, 0x401e647e31234493, 0x406d22426ac62b2e, 0x40707598f9288d52, 150),
    (0x40706728bea79773, 0x401fb20409e2bcf6, 0x406ed5154131421b, 0x407163c6dcb68dd8, 150),
    (0x4071469a69a69a6a, 0x401f319ce16b6db2, 0x40704dfbb070ed00, 0x40723f3922dc47d3, 150),
];
#[rustfmt::skip]
const LWS_DEFAULT: [Pin; 3] = [
    (0x40707a69ed0d0e2e, 0x4027382c3efbda49, 0x406e14a772836004, 0x4071ea8020d86c5a, 150),
    (0x4071ad6271412f5c, 0x402446a22282774e, 0x40706bf5c0287e66, 0x4072eecf2259e052, 150),
    (0x4071b69ae8933947, 0x40226bd3e1d1b9f8, 0x4070929516ffc57e, 0x4072daa0ba26ad10, 150),
];

#[test]
fn one_shot_estimates_match_the_pinned_bits() {
    let problem = band_problem(600, 17);
    let cases: [(&str, Box<dyn CountEstimator>, [Pin; 3]); 5] = [
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
    ];
    for (name, est, pins) in &cases {
        for (&seed, pin) in SEEDS.iter().zip(pins) {
            let r = est
                .estimate(&problem, 150, &mut StdRng::seed_from_u64(seed))
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
}
