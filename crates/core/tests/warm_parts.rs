//! A warm state as plain data: `from_parts ∘ to_parts` is the identity
//! on everything a resume reads, and `from_parts` — which fits, scores,
//! sorts and designs nothing — refuses every input a prepare could not
//! have produced, with [`CoreError::InvalidState`] and never a panic.

mod common;

use common::band_problem;
use lts_core::{CoreError, Lss, LssParts, LssWarm, PilotSource};

fn lss_two_pilots() -> Lss {
    Lss {
        min_pilots_per_stratum: 2,
        ..Lss::default()
    }
}

/// `from_parts ∘ to_parts` is the identity on what a resume reads,
/// and every check of `from_parts` is tripped by one edit of a real
/// state's parts — under both pilot sources.
#[test]
fn from_parts_round_trips_and_refuses_every_broken_invariant() {
    let problem = band_problem(600, 11);
    for pilot_source in [PilotSource::Fresh, PilotSource::ReuseLearning] {
        let lss = Lss {
            pilot_source,
            ..lss_two_pilots()
        };
        let warm = lss.prepare(&problem, 150, 42).unwrap();
        let back = LssWarm::from_parts(warm.to_parts(), 150, &problem, &lss).unwrap();
        assert_eq!(back.digest(), warm.digest());
        assert_eq!(back.known_labels(), warm.known_labels());
        assert_eq!(back.prepare_evals, warm.prepare_evals);
        let a = lss.estimate_prepared(&problem, &warm, 31).unwrap();
        let b = lss.estimate_prepared(&problem, &back, 31).unwrap();
        assert_eq!(a.count().to_bits(), b.count().to_bits());
        assert_eq!(
            a.estimate.std_error.to_bits(),
            b.estimate.std_error.to_bits()
        );

        let refused = |what: &str, edit: &dyn Fn(&mut LssParts)| {
            let mut parts = warm.to_parts();
            edit(&mut parts);
            let got = LssWarm::from_parts(parts, 150, &problem, &lss);
            assert!(
                matches!(got, Err(CoreError::InvalidState { .. })),
                "{pilot_source:?}: {what} must be refused"
            );
        };
        refused("another profile", &|p| p.profile ^= 1);
        refused("training labels one short", &|p| {
            p.labels.pop();
        });
        refused("pilot labels one short", &|p| {
            p.pilot_labels.pop();
        });
        refused("training id ≥ N", &|p| p.labeled[0] = 600);
        refused("repeated training id", &|p| p.labeled[1] = p.labeled[0]);
        refused("duplicate id in the ordering", &|p| p.order[1] = p.order[0]);
        refused("missing id", &|p| {
            p.order.pop();
        });
        refused("ordered id ≥ N", &|p| p.order[0] = 600);
        refused("descending pilot", &|p| p.pilot_positions.swap(0, 1));
        refused("pilot position out of range", &|p| {
            *p.pilot_positions.last_mut().unwrap() = p.order.len();
        });
        refused("pilot not the split's count", &|p| {
            p.pilot_positions.pop();
            p.pilot_labels.pop();
        });
        refused("descending cuts", &|p| p.cuts.reverse());
        refused("cut at 0", &|p| p.cuts[0] = 0);
        refused("cut at the end", &|p| {
            *p.cuts.last_mut().unwrap() = p.order.len()
        });
        if pilot_source == PilotSource::Fresh {
            refused("training id inside the ordering", &|p| {
                p.order[0] = p.labeled[0] as u32
            });
        } else {
            refused("reused label contradicted in the pilot", &|p| {
                let at = |pos: &usize| p.labeled.contains(&(p.order[*pos] as usize));
                let i = p.pilot_positions.iter().position(at).unwrap();
                p.pilot_labels[i] ^= true;
            });
        }
        // Ids are `u32` in the parts: one past 2³² never reaches
        // `from_parts` (the snapshot decode refuses it), and the largest
        // that does is checked against `N` like any other.
        refused("ordered id u32::MAX", &|p| p.order[0] = u32::MAX);
        // A budget the state was not prepared under changes the split.
        assert!(LssWarm::from_parts(warm.to_parts(), 140, &problem, &lss).is_err());
        // Another population does not hold the ids.
        let other = band_problem(500, 11);
        assert!(LssWarm::from_parts(warm.to_parts(), 150, &other, &lss).is_err());
    }
}

/// A state over a sub-population holds local ids below its `N′`: an
/// ordering entry at `N′`, at `u32::MAX` or repeated is refused, and the
/// unedited state decodes to the one prepared.
#[test]
fn a_restricted_states_ordering_is_checked_before_it_is_narrowed() {
    let problem = band_problem(600, 11);
    let survivors: Vec<usize> = (0..600).filter(|i| i % 3 != 1).collect();
    let sub = lts_core::restrict_problem(&problem, &survivors).unwrap();
    let n_sub = sub.n();
    let lss = lss_two_pilots();
    let warm = lss.prepare(&sub, 150, 5).unwrap();
    let back = LssWarm::from_parts(warm.to_parts(), 150, &sub, &lss).unwrap();
    assert_eq!(back.digest(), warm.digest());
    assert_eq!(back.to_parts().order, warm.to_parts().order);
    type Edit<'a> = &'a dyn Fn(&mut LssParts);
    let edits: [(&str, Edit); 3] = [
        ("ordered id N′", &|p| p.order[0] = n_sub as u32),
        ("ordered id u32::MAX", &|p| p.order[0] = u32::MAX),
        ("duplicate id", &|p| p.order[1] = p.order[0]),
    ];
    for (what, edit) in edits {
        let mut parts = warm.to_parts();
        edit(&mut parts);
        let got = LssWarm::from_parts(parts, 150, &sub, &lss);
        assert!(
            matches!(got, Err(CoreError::InvalidState { .. })),
            "{what} must be refused"
        );
    }
}
