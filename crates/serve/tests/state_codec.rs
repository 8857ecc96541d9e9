//! The `lts-state/v4` snapshot codec: a warm state written down and
//! decoded is the state that was written.
//!
//! * **Round trip** — for the two served shapes (`lss`, `lss+pf`) on
//!   both datasets, a service saved by [`state::save`] and loaded by
//!   [`state::load`] into a fresh one decodes every state with the
//!   oracle never called, saves to the same bytes, and resumes `fresh`
//!   requests bit-identically to the service that prepared them.
//!   (`crates/core/tests/warm_parts.rs` holds `LssWarm::to_parts` /
//!   `from_parts` at the library level.)
//! * **Golden snapshot** — one small committed `state.lts` pins the
//!   format byte for byte; CI runs this file at one rayon worker and at
//!   the default count, so the bytes do not depend on the thread count.

use lts_data::{neighbors_scenario, sports_scenario, QueryParam, SelectivityLevel};
use lts_serve::{
    state, BudgetPlanner, DatasetSpec, Request, Response, Service, ServiceConfig, Target,
};
use std::path::PathBuf;

fn skyband(k: usize) -> String {
    format!(
        "(SELECT COUNT(*) FROM t WHERE strikeouts >= o.strikeouts AND wins >= o.wins \
         AND (strikeouts > o.strikeouts OR wins > o.wins)) < {k}"
    )
}

fn few_neighbors(d: f64, k: usize) -> String {
    format!(
        "(SELECT COUNT(*) FROM t WHERE SQRT(POWER(o.src_rate - src_rate, 2) + \
         POWER(o.dst_rate - dst_rate, 2)) <= {d}) < {k}"
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lts_state_codec_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn count(service: &mut Service, id: u64, dataset: &str, condition: &str, fresh: bool) -> Response {
    let response = service.run(Request {
        id,
        dataset: dataset.into(),
        condition: condition.into(),
        target: Target::Budget(200),
        fresh,
    });
    assert!(response.ok, "{condition}: {:?}", response.error);
    response
}

#[test]
fn every_served_shape_round_trips_through_the_export() {
    const ROWS: usize = 2_000;
    let level = SelectivityLevel::M;
    let sports = sports_scenario(ROWS, level, 3).unwrap();
    let neighbors = neighbors_scenario(ROWS, level, 3).unwrap();
    let (QueryParam::K(k), QueryParam::D(d)) = (sports.param, neighbors.param) else {
        panic!("scenario parameters changed kind");
    };
    let mut saved = Service::new(ServiceConfig::default());
    let mut queries = Vec::new();
    for (name, col, subquery) in [
        ("sports", "strikeouts", skyband(k)),
        ("neighbors", "src_rate", few_neighbors(d, 5)),
    ] {
        let spec = DatasetSpec {
            kind: name.into(),
            rows: ROWS,
            level: "M".into(),
            seed: 3,
        };
        saved.register_generated(name, &spec).unwrap();
        let mut v = saved
            .dataset_table(name)
            .unwrap()
            .floats(col)
            .unwrap()
            .to_vec();
        v.sort_by(f64::total_cmp);
        let subquery = subquery.replace(" t ", &format!(" {name} "));
        let planned = format!("{col} > {} AND {subquery}", v[v.len() / 2]);
        for (condition, kind) in [(subquery, "monolithic"), (planned, "prefilter_estimate")] {
            let cold = count(&mut saved, 0, name, &condition, false);
            assert_eq!((cold.served, cold.route), ("cold", "lss"), "{name} {kind}");
            assert_eq!(cold.plan.map_or("monolithic", |p| p.kind), kind);
            queries.push((name, condition));
        }
    }

    let (dir, again) = (temp_dir("saved"), temp_dir("again"));
    let text = std::fs::read_to_string(state::save(&saved, &dir).unwrap()).unwrap();
    assert_eq!(text.matches("\tlss\t").count(), 2, "two monolithic states");
    assert_eq!(text.matches("\tlss+pf\t").count(), 2, "two `+pf` states");

    let mut restored = Service::new(ServiceConfig::default());
    let summary = state::load(&mut restored, &dir).unwrap().unwrap();
    assert_eq!(
        (summary.datasets, summary.models, summary.cached),
        (2, 4, 4)
    );
    assert_eq!(restored.stats().oracle_evals, 0, "decode is free");
    let resaved = std::fs::read_to_string(state::save(&restored, &again).unwrap()).unwrap();
    assert_eq!(resaved, text, "re-save");

    for (dataset, condition) in &queries {
        for id in 1..=3 {
            let a = count(&mut saved, id, dataset, condition, true);
            let b = count(&mut restored, id, dataset, condition, true);
            let what = format!("{dataset} `{condition}` id {id}");
            assert_eq!((a.served, b.served), ("warm", "warm"), "{what}");
            let bits = |r: &Response| [r.estimate, r.std_error, r.lo, r.hi].map(f64::to_bits);
            assert_eq!(bits(&a), bits(&b), "{what}");
            assert_eq!(a.model_version, b.model_version, "{what}");
            assert_eq!(a.to_json(true), b.to_json(true), "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&again);
}

/// Two datasets × three queries at 200 rows, one of them planned over a
/// prefilter (`+pf`): warm states, cached results and dataset recipes.
fn golden_service() -> Service {
    let mut service = Service::new(ServiceConfig {
        // At 200 rows a prefilter selective enough for the default
        // planner leaves too few survivors to estimate over.
        planner: BudgetPlanner {
            monolithic_selectivity: 0.8,
            ..BudgetPlanner::default()
        },
        ..ServiceConfig::default()
    });
    let spec = |kind: &str| DatasetSpec {
        kind: kind.into(),
        rows: 200,
        level: "M".into(),
        seed: 3,
    };
    service.register_generated("s", &spec("sports")).unwrap();
    service.register_generated("n", &spec("neighbors")).unwrap();
    let sky = |k| skyband(k).replace(" t ", " s ");
    let near = |k| few_neighbors(0.25, k).replace(" t ", " n ");
    let requests = [
        ("s", sky(20), "monolithic"),
        ("s", sky(35), "monolithic"),
        (
            "s",
            format!("era < 5.0 AND {}", sky(30)),
            "prefilter_estimate",
        ),
        ("n", near(4), "monolithic"),
        ("n", near(8), "monolithic"),
        ("n", near(12), "monolithic"),
    ];
    for (id, (dataset, condition, kind)) in requests.into_iter().enumerate() {
        let response = service.run(Request {
            id: id as u64,
            dataset: dataset.into(),
            condition,
            target: Target::Budget(60),
            fresh: false,
        });
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.served, "cold", "request {id}");
        assert_eq!(response.plan.map_or("monolithic", |p| p.kind), kind);
    }
    service
}

#[test]
fn the_snapshot_format_is_pinned_byte_for_byte() {
    let dir = temp_dir("golden");
    let path = state::save(&golden_service(), &dir).unwrap();
    let got = std::fs::read_to_string(path).unwrap();
    let golden = include_str!("data/state_v4.golden");
    for (i, (g, w)) in golden.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "snapshot diverges from the golden at line {}", i + 1);
    }
    assert_eq!(got.len(), golden.len(), "snapshot length");

    // And the committed bytes load: six states decoded, nothing spent.
    let mut restored = Service::new(ServiceConfig::default());
    let summary = state::load(&mut restored, &dir).unwrap().unwrap();
    assert_eq!(
        (summary.datasets, summary.models, summary.cached),
        (2, 6, 6)
    );
    assert_eq!(restored.stats().oracle_evals, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
