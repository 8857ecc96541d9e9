//! Property-based tests for the stratification substrate.

mod dynpgm_oracle;

use lts_strata::{
    dynpgm, dynpgmp, evaluate_cuts, fixed_height_cuts, Allocation, DesignParams, PilotIndex,
    StrataResult, Stratification, TSelection,
};
use proptest::prelude::*;

/// `m` distinct random positions — spread over the population, or
/// bunched into a window of `2m` — with labels that are all false, all
/// true, one step at a random pilot, or follow a sigmoid of the position
/// with random midpoint and slope. The three unanimous-run shapes then
/// get `flips` labels inverted at random pilots: few mixed class pairs
/// among many unanimous ones, which is where the DP's class-minimum
/// shortcut does its work. `pin_zero` moves the first pilot to position
/// 0, which empties class 0.
fn random_pilot(
    seed: u64,
    n: usize,
    m: usize,
    shape: usize,
    flips: usize,
    pin_zero: bool,
) -> PilotIndex {
    let mut state = seed;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let span = if shape == 3 { (2 * m).min(n) } else { n };
    let lo = (unit() * (n - span + 1) as f64) as usize;
    let mut positions = std::collections::BTreeSet::new();
    while positions.len() < m {
        positions.insert(lo + (unit() * span as f64) as usize);
    }
    if pin_zero {
        positions.pop_first();
        positions.insert(0);
    }
    let (mid, slope) = (unit(), 2.0 + 20.0 * unit());
    let step = (unit() * m as f64) as usize;
    let mut entries: Vec<(usize, bool)> = positions
        .into_iter()
        .enumerate()
        .map(|(k, p)| {
            let label = match shape {
                1 => false,
                2 => true,
                4 => k >= step,
                _ => unit() < 1.0 / (1.0 + (-(p as f64 / n as f64 - mid) * slope).exp()),
            };
            (p, label)
        })
        .collect();
    if matches!(shape, 1 | 2 | 4) {
        for _ in 0..flips {
            let k = (unit() * m as f64) as usize;
            entries[k].1 ^= true;
        }
    }
    PilotIndex::new(n, entries).unwrap()
}

/// Same cuts and the same variance *bits*, or both errors.
fn assert_same_design(
    got: &StrataResult<Stratification>,
    want: &StrataResult<Stratification>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(&got.cuts, &want.cuts);
            prop_assert_eq!(
                got.estimated_variance.to_bits(),
                want.estimated_variance.to_bits(),
                "variance {} vs oracle {}",
                got.estimated_variance,
                want.estimated_variance
            );
        }
        (Err(_), Err(_)) => {}
        _ => prop_assert!(false, "got {:?}, oracle {:?}", got, want),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    /// The lockstep DP returns exactly what the triple-loop oracle
    /// returns — cuts, variance bits, and infeasibility — and what it
    /// reports re-evaluates to the objective of its cuts. `size_share`
    /// reaches `N⊔ = N / H`, so the size minimum regularly cuts the
    /// predecessor range inside a (unanimous) class.
    #[test]
    fn dynpgm_matches_triple_loop_oracle(
        seed in any::<u64>(),
        n in 40usize..1600,
        m in 4usize..64,
        shape in 0usize..5,
        flips in 0usize..4,
        pin_zero in any::<bool>(),
        h in 2usize..7,
        min_pilots in 2usize..6,
        size_share in 0.0f64..1.0,
        budget_share in 0.0f64..1.2,
        epsilon in prop_oneof![Just(0.25f64), Just(0.5), Just(1.0), Just(2.0)],
        selection in prop_oneof![
            Just(TSelection::Full),
            Just(TSelection::Unconstrained),
            (1usize..10).prop_map(TSelection::Pruned),
        ],
    ) {
        let pilot = random_pilot(seed, n, m.min(n / 2), shape, flips, pin_zero);
        let params = DesignParams {
            n_strata: h,
            budget: 1 + (budget_share * n as f64) as usize,
            min_stratum_size: 1 + (size_share * (n / h) as f64) as usize,
            min_pilots_per_stratum: min_pilots,
            epsilon,
        };

        let neyman = dynpgm(&pilot, &params, selection);
        assert_same_design(&neyman, &dynpgm_oracle::dynpgm(&pilot, &params, selection))?;
        let proportional = dynpgmp(&pilot, &params);
        assert_same_design(&proportional, &dynpgm_oracle::dynpgmp(&pilot, &params))?;

        for (design, allocation) in [
            (neyman, Allocation::Neyman),
            (proportional, Allocation::Proportional),
        ] {
            let Ok(design) = design else { continue };
            let v = evaluate_cuts(&pilot, &design.cuts, &params, allocation);
            prop_assert!(v.is_some(), "{:?} cuts {:?} violate the minima", allocation, design.cuts);
            let v = v.unwrap();
            prop_assert!(
                (v - design.estimated_variance).abs() <= 1e-6 * (1.0 + v.abs()),
                "{:?}: DP reported {} but its cuts evaluate to {}",
                allocation, design.estimated_variance, v
            );
        }
    }
}

/// DynPgm and DynPgmP against the oracle on the pilots the service
/// designs over: 8 000 objects, `H = 4`, `N⊔` one above stage 2, `m`
/// pilots — with the label shapes a proxy hands it, from useless (all
/// one label) through sharp (one step, a step behind a 3-pilot mixed
/// band) to blurry (a sigmoid), plus labels alternating in runs of 2 and
/// of 3 pilots, whose strata repeat the same few `s²` and so tie in `A`
/// over many predecessors: ties for the warm start's first-minimum rule
/// to break (a tie kept by the later row fails here).
fn check_service_shapes(m: usize, stage2: usize) {
    let n = 8_000usize;
    let mut state = 11u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut positions = std::collections::BTreeSet::new();
    while positions.len() < m {
        positions.insert((unit() * n as f64) as usize);
    }
    let positions: Vec<usize> = positions.into_iter().collect();
    let step = m * 17 / 20;
    let sigmoid = positions
        .iter()
        .map(|&p| unit() < 1.0 / (1.0 + (-(p as f64 / n as f64 - 0.6) * 12.0).exp()));
    let shapes: [(&str, Vec<bool>); 7] = [
        ("all false", vec![false; m]),
        ("all true", vec![true; m]),
        ("step", (0..m).map(|k| k >= step).collect()),
        // false … false, true, false, true, true … true
        (
            "mixed band",
            (0..m).map(|k| k >= step && k != step + 1).collect(),
        ),
        ("sigmoid", sigmoid.collect()),
        ("runs of 2", (0..m).map(|k| k / 2 % 2 == 1).collect()),
        ("runs of 3", (0..m).map(|k| k / 3 % 2 == 1).collect()),
    ];
    let params = DesignParams {
        n_strata: 4,
        budget: stage2,
        min_stratum_size: stage2 + 1,
        min_pilots_per_stratum: 5,
        epsilon: 1.0,
    };
    for (name, labels) in shapes {
        let entries = positions.iter().copied().zip(labels).collect();
        let pilot = PilotIndex::new(n, entries).unwrap();
        let selection = TSelection::default();
        let case = format!("m = {m}, {name}");
        assert_same_design(
            &dynpgm(&pilot, &params, selection),
            &dynpgm_oracle::dynpgm(&pilot, &params, selection),
        )
        .unwrap_or_else(|e| panic!("DynPgm, {case}: {e:?}"));
        assert_same_design(
            &dynpgmp(&pilot, &params),
            &dynpgm_oracle::dynpgmp(&pilot, &params),
        )
        .unwrap_or_else(|e| panic!("DynPgmP, {case}: {e:?}"));
    }
}

/// The proptest's `n < 1 600`, `m < 64` never reaches the service's
/// sizes: here the pilots of a 200-, 250- and 300-label budget under
/// `Lss::default()` (`m` = 45 / 56 / 68, stage 2 = 105 / 131 / 157,
/// `m⊔ = 5`), the configuration the service runs.
#[test]
fn dynpgm_matches_triple_loop_oracle_at_service_size() {
    for (m, stage2) in [(45, 105), (56, 131), (68, 157)] {
        check_service_shapes(m, stage2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A pilot index holds its positions strictly increasing and
    /// within range, whatever order its entries arrive in.
    #[test]
    fn positions_strictly_increasing(
        picks in proptest::collection::vec(0usize..100, 1..40),
    ) {
        // Distinct positions, in the order they were drawn.
        let mut seen = [false; 100];
        let entries: Vec<(usize, bool)> = picks
            .iter()
            .filter(|&&p| !std::mem::replace(&mut seen[p], true))
            .map(|&p| (p, p % 3 == 0))
            .collect();
        let m = entries.len();
        let pilot = PilotIndex::new(100, entries).unwrap();
        let pos = pilot.positions();
        prop_assert_eq!(pos.len(), m);
        for w in pos.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(*pos.last().unwrap() < 100);
    }

    /// `evaluate_cuts` of the fixed-height layout is finite whenever the
    /// pilot gives every stratum enough samples.
    #[test]
    fn fixed_height_evaluates_when_feasible(
        n in 40usize..200,
        labels in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let m = labels.len();
        let entries: Vec<(usize, bool)> =
            labels.iter().enumerate().map(|(k, &l)| (k * n / m, l)).collect();
        let pilot = PilotIndex::new(n, entries).unwrap();
        let params = DesignParams {
            n_strata: 2,
            budget: 5,
            min_stratum_size: 2,
            min_pilots_per_stratum: 2,
            epsilon: 1.0,
        };
        let cuts = fixed_height_cuts(n, 2).unwrap();
        if let Some(v) = evaluate_cuts(&pilot, &cuts, &params, Allocation::Proportional) {
            prop_assert!(v.is_finite());
            prop_assert!(v >= -1e-9, "proportional variance must be non-negative, got {}", v);
        }
    }

    /// Gamma prefix counts are consistent with the labels.
    #[test]
    fn gamma_counts_positives(
        entries in proptest::collection::vec((0usize..1000, any::<bool>()), 1..60),
    ) {
        // Dedupe positions.
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<(usize, bool)> = entries
            .into_iter()
            .filter(|&(p, _)| seen.insert(p))
            .collect();
        prop_assume!(!entries.is_empty());
        let pilot = PilotIndex::new(1000, entries.clone()).unwrap();
        let total_pos = entries.iter().filter(|&&(_, l)| l).count();
        prop_assert_eq!(pilot.gamma(pilot.m()), total_pos);
        prop_assert_eq!(pilot.gamma(0), 0);
        // Gamma is monotone.
        for k in 1..=pilot.m() {
            prop_assert!(pilot.gamma(k) >= pilot.gamma(k - 1));
            prop_assert!(pilot.gamma(k) - pilot.gamma(k - 1) <= 1);
        }
    }
}
