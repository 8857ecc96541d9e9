//! Where the learned estimators' oracle evaluations land: diffing
//! `lts_obs::phase::thread_evals()` around one `estimate`, every
//! training label is charged to `Train`, every sampling label to
//! `Stage2`, and none to `Other` (or any other phase).

mod common;

use common::band_problem;
use lts_core::{CountEstimator, Lws, LwsHt, LwsSequential, Qlac, Qlcc};
use lts_obs::phase::{delta, thread_evals};
use lts_obs::Phase;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn training_labels_land_under_train_and_sampling_labels_under_stage2() {
    let problem = band_problem(600, 17);
    let budget = 150;
    // LWS and its variants train on `train_frac` of the budget;
    // quantification learning trains on all of it and samples nothing.
    let (lws_train, _) = Lws::default().budget_split(budget).unwrap();
    let cases: [(Box<dyn CountEstimator>, usize); 5] = [
        (Box::new(Lws::default()), lws_train),
        (Box::new(LwsHt::default()), lws_train),
        (Box::new(LwsSequential::default()), lws_train),
        (Box::new(Qlcc::default()), budget),
        (Box::new(Qlac::default()), budget),
    ];
    for (est, train) in &cases {
        for seed in [7, 23] {
            let before = thread_evals();
            let r = est
                .estimate(&problem, budget, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let d = delta(thread_evals(), before);
            let name = est.name();
            assert_eq!(d[Phase::Train as usize], *train as u64, "{name}: {d:?}");
            let sampled = (r.evals - train) as u64;
            assert_eq!(d[Phase::Stage2 as usize], sampled, "{name}: {d:?}");
            assert_eq!(d[Phase::Other as usize], 0, "{name}: {d:?}");
            assert_eq!(d.iter().sum::<u64>(), r.evals as u64, "{name}: {d:?}");
        }
    }
}
