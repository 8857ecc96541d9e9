//! The `lts-store/v2` / `lts-state/v4` codec: a warm state written down
//! and decoded is the state that was written.
//!
//! * **Round trip** — for the two served shapes (`lss`, `lss+pf`) on
//!   both datasets, a state exported by [`store::export`], parsed
//!   back and rebuilt by [`LssWarm::from_parts`] has the same digest,
//!   known labels and
//!   prepare evals, resumes to bit-identical reports, and exports to
//!   the same bytes — with the oracle never called.
//! * **Golden snapshot** — one small committed `state.lts` pins the
//!   format byte for byte; CI runs this file at one rayon worker and at
//!   the default count, so the bytes do not depend on the thread count.

use lts_core::{CountingProblem, EstimateReport, LssWarm, PhysicalPlan};
use lts_data::{neighbors_scenario, sports_scenario, QueryParam, SelectivityLevel};
use lts_serve::{
    state, store, BudgetPlanner, DatasetSpec, EstimatorTag, Request, Service, ServiceConfig,
    StoreExportEntry, Target,
};
use lts_table::{
    decompose, parse_condition, ExprPredicate, PartitionedTable, Table, TableRegistry,
};
use std::sync::Arc;

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

/// The monolithic problem of `text` over `table`, and the restricted
/// problem its plan builds when it decomposes.
fn problems(
    table: &Arc<Table>,
    cols: &[&str],
    text: &str,
) -> (Arc<CountingProblem>, Option<Arc<CountingProblem>>) {
    let registry = TableRegistry::new().register("t", Arc::clone(table));
    let expr = parse_condition(text, &registry).unwrap();
    let predicate = Arc::new(ExprPredicate::new("q", expr.clone()));
    let problem = Arc::new(CountingProblem::new(Arc::clone(table), predicate, cols).unwrap());
    let restricted = decompose(&expr).exact_prefilter.and_then(|prefilter| {
        let pt = PartitionedTable::auto(Arc::clone(table));
        let plan = PhysicalPlan::build(&problem, &pt, &prefilter).unwrap();
        plan.restricted().cloned()
    });
    (problem, restricted)
}

fn assert_same_report(a: &EstimateReport, b: &EstimateReport, what: &str) {
    let bits = |r: &EstimateReport| {
        let (e, f) = (&r.estimate, r.forecast.as_ref().expect("LSS forecasts"));
        [
            e.count.to_bits(),
            e.std_error.to_bits(),
            e.interval.lo.to_bits(),
            e.interval.hi.to_bits(),
            e.df.map_or(0, f64::to_bits),
            f.predicted_se.to_bits(),
            f.predicted_halfwidth.to_bits(),
            f.stage2_samples as u64,
            r.evals as u64,
        ]
    };
    assert_eq!(bits(a), bits(b), "{what}");
    assert_eq!((&a.notes, &a.estimator), (&b.notes, &b.estimator), "{what}");
}

#[test]
fn every_served_shape_round_trips_through_the_export() {
    const ROWS: usize = 2_000;
    const BUDGET: usize = 200;
    let level = SelectivityLevel::M;
    let sports = sports_scenario(ROWS, level, 3).unwrap();
    let neighbors = neighbors_scenario(ROWS, level, 3).unwrap();
    let (QueryParam::K(k), QueryParam::D(d)) = (sports.param, neighbors.param) else {
        panic!("scenario parameters changed kind");
    };
    let median = |table: &Table, col: &str| {
        let mut v = table.floats(col).unwrap().to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let lss = ServiceConfig::default().lss;
    for (name, table, cols, subquery) in [
        ("sports", &sports.table, ["strikeouts", "wins"], skyband(k)),
        (
            "neighbors",
            &neighbors.table,
            ["src_rate", "dst_rate"],
            few_neighbors(d, 5),
        ),
    ] {
        let planned = format!("{} > {} AND {subquery}", cols[0], median(table, cols[0]));
        let (monolithic, none) = problems(table, &cols, &subquery);
        assert!(none.is_none(), "a bare subquery does not decompose");
        let (_, restricted) = problems(table, &cols, &planned);
        let restricted = restricted.expect("the prefilter keeps rows");
        for (text, problem, prefiltered) in [
            (&subquery, &monolithic, false),
            (&planned, &restricted, true),
        ] {
            let seed = 0xC0DE ^ problem.n() as u64;
            let state = lss.prepare(problem, BUDGET, seed).unwrap();
            let tag = if prefiltered { "lss+pf" } else { "lss" };
            let what = format!("{name} {tag}");
            let export = |state: &LssWarm| {
                store::export(&[StoreExportEntry {
                    dataset: name.into(),
                    condition: text.clone(),
                    budget: BUDGET,
                    table_version: 7,
                    estimator: EstimatorTag { prefiltered },
                    states: vec![state.to_parts()],
                }])
            };
            let text_out = export(&state);
            assert!(text_out.contains(&format!("\t{tag}\t")), "{what}");

            let mut entries = store::parse_export(&text_out).unwrap();
            let entry = entries.pop().expect("one entry");
            assert_eq!(entry.estimator.to_string(), tag);
            assert_eq!((entry.budget, entry.table_version), (BUDGET, 7));
            let [parts] = <[_; 1]>::try_from(entry.states).expect("one state line");
            problem.reset_meter();
            let back = LssWarm::from_parts(parts, entry.budget, problem, &lss).unwrap();
            assert_eq!(problem.predicate_stats().evals, 0, "{what}: decode is free");
            assert_eq!(back.digest(), state.digest(), "{what}");
            assert_eq!(back.prepare_evals, state.prepare_evals, "{what}");
            assert_eq!(back.known_labels(), state.known_labels(), "{what}");
            for seed in [1, 2, 3] {
                let a = lss.estimate_prepared(problem, &state, seed).unwrap();
                let b = lss.estimate_prepared(problem, &back, seed).unwrap();
                assert_same_report(&a, &b, &what);
            }
            assert_eq!(export(&back), text_out, "{what}: re-export");
        }
    }
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
    let dir = std::env::temp_dir().join(format!("lts_state_codec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
