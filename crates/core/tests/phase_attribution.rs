//! Where every estimator's oracle evaluations land: diffing
//! `lts_obs::phase::thread_evals()` around one `estimate`, every
//! evaluation is charged to a named phase — training labels to `Train`,
//! pilot labels to `Pilot`, sampling labels to `Stage2` — and none to
//! `Other`; and the run's phase clock never books more time than the
//! run took.

mod common;

use common::band_problem;
use lts_core::{CountEstimator, Lss, Lws, LwsHt, LwsSequential, Qlac, Qlcc, Srs, Ssn, Ssp};
use lts_obs::phase::{delta, thread_evals};
use lts_obs::Phase;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn training_labels_land_under_train_and_sampling_labels_under_stage2() {
    let problem = band_problem(600, 17);
    let budget = 150;
    // LWS and its variants train on `train_frac` of the budget;
    // quantification learning trains on all of it and samples nothing;
    // LSS trains, then labels a pilot and a stage-2 draw; the
    // stratified designs label a pilot (SSN) or nothing before their
    // draw.
    let (lws_train, _) = Lws::default().budget_split(budget).unwrap();
    let lss_train = Lss::default().budget_split(budget).unwrap().train;
    let (learned, pilot, sampled) = (
        &[Phase::Train, Phase::Stage2][..],
        &[Phase::Pilot, Phase::Stage2][..],
        &[Phase::Stage2][..],
    );
    let cases: [(Box<dyn CountEstimator>, usize, &[Phase]); 9] = [
        (Box::new(Lws::default()), lws_train, learned),
        (Box::new(LwsHt::default()), lws_train, learned),
        (Box::new(LwsSequential::default()), lws_train, learned),
        (Box::new(Qlcc::default()), budget, learned),
        (Box::new(Qlac::default()), budget, learned),
        (
            Box::new(Lss::default()),
            lss_train,
            &[Phase::Train, Phase::Pilot, Phase::Stage2],
        ),
        (Box::new(Srs::default()), 0, sampled),
        (Box::new(Ssp::default()), 0, sampled),
        (Box::new(Ssn::default()), 0, pilot),
    ];
    for (est, train, labeling) in &cases {
        for seed in [7, 23] {
            let before = thread_evals();
            let r = est
                .estimate(&problem, budget, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let d = delta(thread_evals(), before);
            let name = est.name();
            assert_eq!(d[Phase::Train as usize], *train as u64, "{name}: {d:?}");
            for p in Phase::all() {
                if !labeling.contains(&p) {
                    assert_eq!(d[p as usize], 0, "{name}: {} in {d:?}", p.name());
                }
            }
            assert_eq!(d.iter().sum::<u64>(), r.evals as u64, "{name}: {d:?}");
            let t = r.timings;
            assert!(
                t.labeling + t.overhead() <= t.total,
                "{name}: {t:?} books more than the run took"
            );
        }
    }
}
