//! Cache-semantics contract of the serving layer:
//!
//! * structurally different queries never alias (fingerprints or
//!   query entries);
//! * table-version bumps invalidate models and results — of that
//!   dataset only;
//! * warm starts replay bit-identically against cold starts at the
//!   same request seed and spend only the stage-2 share of the budget
//!   (≤ 0.55× a cold start's oracle evaluations) at the same designed
//!   CI width;
//! * a planned prefilter spends ≥ 3× fewer oracle evaluations than the
//!   monolithic plan at the same requested CI width;
//! * which of the queries sharing one prefilter scans it first never
//!   changes a response, spans included (`arrival_order.rs` holds every
//!   request's pure fields in generated arrival orders);
//! * a new dataset version scans each prefilter again, over its own
//!   content.

use lts_core::Lss;
use lts_obs::TraceEvent;
use lts_serve::{state, Request, Response, Service, ServiceConfig, Target};
use lts_table::table_of_floats;
use std::path::PathBuf;
use std::sync::Arc;

fn linear_table(n: usize) -> Arc<lts_table::Table> {
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64).collect();
    Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lts_cache_semantics_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(n: usize) -> Service {
    let mut s = Service::new(ServiceConfig::default());
    s.register_dataset("d", linear_table(n), &["x", "y"])
        .unwrap();
    s
}

fn req(id: u64, condition: &str, budget: usize, fresh: bool) -> Request {
    Request {
        id,
        dataset: "d".into(),
        condition: condition.into(),
        target: Target::Budget(budget),
        fresh,
    }
}

fn bits(r: &Response) -> (u64, u64, u64, u64) {
    (
        r.estimate.to_bits(),
        r.std_error.to_bits(),
        r.lo.to_bits(),
        r.hi.to_bits(),
    )
}

#[test]
fn distinct_queries_never_alias() {
    let mut s = service(1_000);
    // Semantically different queries that a sloppy normalizer could
    // conflate: strict vs non-strict, negation, and/or, columns.
    let conditions = [
        "x < 300",
        "x <= 300",
        "NOT (x < 300)",
        "y < 300",
        "x < 300 AND y < 300",
        "x < 300 OR y < 300",
    ];
    let responses: Vec<Response> = conditions
        .iter()
        .enumerate()
        .map(|(i, c)| s.run(req(i as u64, c, 200, false)))
        .collect();
    for r in &responses {
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.served, "cold");
    }
    let mut fps: Vec<u64> = responses.iter().map(|r| r.fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), conditions.len(), "fingerprints must be distinct");
    assert_eq!(s.catalog_len(), conditions.len());
    assert_eq!(s.store_len(), conditions.len());
    // Equivalent spellings DO alias: commuted AND hits the cache.
    let r = s.run(req(100, "y < 300 AND x < 300", 200, false));
    assert_eq!(r.served, "cached");
    assert_eq!(s.catalog_len(), conditions.len());
}

#[test]
fn repeats_hit_result_cache_and_fresh_bypasses_it() {
    let mut s = service(1_000);
    // A predicate the 2-feature proxy learns only approximately: on
    // `x < 400` the design's one mixed stratum admits so few distinct
    // counts that an independent stage 2 can repeat the cold estimate.
    let cond = "x + y < 1700";
    let cold = s.run(req(1, cond, 200, false));
    assert_eq!(cold.served, "cold");
    assert!(
        cold.evals >= 200,
        "cold pays full budget, got {}",
        cold.evals
    );

    let hit = s.run(req(2, cond, 200, false));
    assert_eq!(hit.served, "cached");
    assert_eq!(hit.evals, 0);
    assert_eq!(bits(&hit), bits(&cold), "cache returns the same estimate");

    // `fresh` bypasses the result cache but warm-starts from the store.
    let fresh = s.run(req(3, cond, 200, true));
    assert_eq!(fresh.served, "warm");
    assert!(fresh.evals > 0);
    assert_ne!(bits(&fresh), bits(&cold), "fresh draws a new sample");
    assert_eq!(
        fresh.model_version, cold.model_version,
        "fresh reuses the same model+design"
    );
    let stats = s.stats();
    assert_eq!((stats.cold, stats.cached, stats.warm), (1, 1, 1));
    assert_eq!(stats.oracle_evals_saved, cold.evals as u64);
}

#[test]
fn warm_start_spends_only_stage_two() {
    let mut s = service(2_000);
    // A predicate the 2-feature proxy learns only approximately, so
    // strata keep genuine label mixtures and intervals nonzero width.
    let cond = "x + y < 1700";
    let cold = s.run(req(1, cond, 300, false));
    assert_eq!(cold.served, "cold");
    let warm = s.run(req(2, cond, 300, true));
    assert_eq!(warm.served, "warm");
    let stage2 = Lss::default().budget_split(300).unwrap().stage2;
    assert_eq!(warm.evals, stage2, "warm spends stage 2 only");
    assert!(
        warm.evals as f64 <= 0.55 * cold.evals as f64,
        "cold {} vs warm {} evals",
        cold.evals,
        warm.evals
    );
    // Same design ⇒ comparable interval widths (independent stage-2
    // draws wiggle the realized width, not its scale).
    let (cw, ww) = (cold.hi - cold.lo, warm.hi - warm.lo);
    assert!(cw > 0.0 && ww > 0.0, "degenerate widths: {cw} vs {ww}");
    assert!(
        ww <= cw * 3.0 + 1.0 && cw <= ww * 3.0 + 1.0,
        "widths diverged: cold {cw} vs warm {ww}"
    );
}

#[test]
fn invalidation_drops_models_and_results() {
    let mut s = service(1_000);
    let cold = s.run(req(1, "x < 250", 200, false));
    assert_eq!(cold.served, "cold");
    assert_eq!(cold.table_version, 0);
    assert_eq!((s.store_len(), s.cache_len()), (1, 1));

    s.invalidate("d").unwrap();
    assert_eq!(s.dataset_version("d"), Some(1));
    assert_eq!((s.store_len(), s.cache_len()), (0, 0));

    // Same query re-colds against the new version; fingerprint moves.
    let recold = s.run(req(2, "x < 250", 200, false));
    assert_eq!(recold.served, "cold");
    assert_eq!(recold.table_version, 1);
    assert_ne!(recold.fingerprint, cold.fingerprint);

    // Re-registering a dataset also bumps + invalidates.
    s.register_dataset("d", linear_table(1_000), &["x", "y"])
        .unwrap();
    assert_eq!(s.dataset_version("d"), Some(2));
    assert_eq!(s.store_len(), 0);
}

#[test]
fn warm_and_cold_replay_bit_identically_at_the_same_request_seed() {
    // Service A answers request id=7 cold (it prepares the state);
    // service B warms the state first with other requests, then
    // answers the SAME id=7. The responses must be bit-identical:
    // per-request seed streams are independent of cache temperature.
    let mut a = service(1_500);
    let ra = a.run(req(7, "x < 600", 250, true));
    assert_eq!(ra.served, "cold");

    let mut b = service(1_500);
    b.run(req(100, "x < 600", 250, true));
    b.run(req(101, "x < 600", 250, true));
    let rb = b.run(req(7, "x < 600", 250, true));
    assert_eq!(rb.served, "warm");
    assert_eq!(bits(&ra), bits(&rb), "same id ⇒ bit-identical estimate");
    assert_eq!(ra.fingerprint, rb.fingerprint);
    assert_eq!(ra.model_version, rb.model_version);
    // Evals differ by design: cold pays prepare + stage 2.
    assert!(ra.evals > rb.evals);
}

#[test]
fn store_export_restores_warm_states_without_oracle_work() {
    let mut a = service(1_000);
    let cold = a.run(req(1, "x < 350", 200, false));
    assert_eq!(cold.served, "cold");
    let dir = temp_dir("plain");
    let snapshot = std::fs::read_to_string(state::save(&a, &dir).unwrap()).unwrap();
    assert!(snapshot.contains("\nstore\tentry\t"));

    // A fresh service restores the state: zero oracle evals, and the
    // restored model answers warm with the exact same model version.
    let mut b = service(1_000);
    let restored = state::load(&mut b, &dir).unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(restored.models, 1);
    assert_eq!(b.store_len(), 1);
    assert_eq!(b.stats().oracle_evals, 0);
    let warm = b.run(req(2, "x < 350", 200, true));
    assert_eq!(warm.served, "warm");
    assert_eq!(warm.model_version, cold.model_version);

    // The same fresh request replays identically on both services.
    let mut a2 = service(1_000);
    a2.run(req(1, "x < 350", 200, false));
    let wa = a2.run(req(9, "x < 350", 200, true));
    let wb = b.run(req(9, "x < 350", 200, true));
    assert_eq!(bits(&wa), bits(&wb));
}

/// A decomposable conjunction over the linear table: the subquery
/// counts strict dominators on `x`, so `(SELECT ...) > 700` is
/// equivalent to `x > 700` — an exact ground truth — while still being
/// an expensive oracle conjunct to the decomposer. The `y` bound is the
/// cheap prefilter; `y = (37·i) mod n` is a permutation for n=1000, so
/// `y < 500` keeps exactly 500 of 1000 rows (selective enough to plan).
const DECOMPOSABLE: &str = "y < 500 AND (SELECT COUNT(*) FROM d WHERE x < o.x) > 700";

#[test]
fn decomposed_spellings_alias_their_monolithic_twin() {
    let mut s = service(1_000);
    let cold = s.run(req(1, DECOMPOSABLE, 200, false));
    assert!(cold.ok, "{:?}", cold.error);
    assert_eq!(cold.served, "cold");
    let plan = cold.plan.as_ref().expect("decomposed query carries a plan");
    assert_eq!(plan.kind, "prefilter_estimate");
    assert_eq!(plan.survivors, Some(500));
    assert_eq!(plan.selectivity, Some(0.5));

    // The commuted spelling canonicalizes to the same query: result
    // cache hit, same fingerprint, no new query entry.
    let commuted = s.run(req(
        2,
        "(SELECT COUNT(*) FROM d WHERE x < o.x) > 700 AND y < 500",
        200,
        false,
    ));
    assert_eq!(commuted.served, "cached");
    assert_eq!(commuted.fingerprint, cold.fingerprint);
    assert_eq!(bits(&commuted), bits(&cold));
    assert_eq!(s.catalog_len(), 1);

    // Near-misses do NOT alias: a different prefilter bound or a
    // different residual threshold is a different query.
    for (id, near) in [
        (
            3,
            "y < 501 AND (SELECT COUNT(*) FROM d WHERE x < o.x) > 700",
        ),
        (
            4,
            "y < 500 AND (SELECT COUNT(*) FROM d WHERE x < o.x) > 699",
        ),
    ] {
        let r = s.run(req(id, near, 200, false));
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.served, "cold", "near-miss `{near}` must not alias");
        assert_ne!(r.fingerprint, cold.fingerprint);
    }
    assert_eq!(s.catalog_len(), 3);
}

#[test]
fn prefiltered_warm_states_export_and_restore() {
    let mut a = service(1_000);
    let cold = a.run(req(1, DECOMPOSABLE, 200, false));
    assert_eq!(cold.served, "cold");
    assert_eq!(cold.route, "lss");
    let dir = temp_dir("prefiltered");
    let snapshot = std::fs::read_to_string(state::save(&a, &dir).unwrap()).unwrap();
    assert!(
        snapshot.contains("\tlss+pf\t"),
        "restricted state saves with the +pf tag:\n{snapshot}"
    );

    // A fresh service restores the restricted state (re-decomposes,
    // re-scans, decodes — zero oracle work) and resumes it warm with
    // the exact same model version.
    let mut b = service(1_000);
    assert_eq!(state::load(&mut b, &dir).unwrap().unwrap().models, 1);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(b.stats().oracle_evals, 0);
    let warm = b.run(req(2, DECOMPOSABLE, 200, true));
    assert_eq!(warm.served, "warm");
    assert_eq!(warm.model_version, cold.model_version);

    // The same fresh request replays bit-identically on a service that
    // prepared its own state.
    let mut a2 = service(1_000);
    a2.run(req(1, DECOMPOSABLE, 200, false));
    let wa = a2.run(req(9, DECOMPOSABLE, 200, true));
    let wb = b.run(req(9, DECOMPOSABLE, 200, true));
    assert_eq!(bits(&wa), bits(&wb));
}

#[test]
fn zero_survivor_prefilters_answer_exact_zero_for_free() {
    let mut s = service(1_000);
    let r = s.run(req(
        1,
        "y < 0 AND (SELECT COUNT(*) FROM d WHERE x < o.x) > 700",
        200,
        false,
    ));
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.served, "exact");
    assert_eq!(r.route, "exact");
    assert_eq!(r.estimate, 0.0);
    assert_eq!((r.lo, r.hi), (0.0, 0.0));
    assert_eq!(r.evals, 0, "no oracle evaluation for an empty scope");
    let plan = r.plan.as_ref().unwrap();
    assert_eq!(plan.kind, "exact_prefilter");
    assert_eq!(plan.survivors, Some(0));
}

#[test]
fn planned_census_matches_forced_monolithic_census_with_fewer_evals() {
    // A width target tight enough to force the census on both plans.
    let tight = |id: u64| Request {
        id,
        dataset: "d".into(),
        condition: DECOMPOSABLE.into(),
        target: Target::RelWidth(0.0001),
        fresh: false,
    };
    let mut planned = service(1_000);
    let rp = planned.run(tight(1));
    assert!(rp.ok, "{:?}", rp.error);
    assert_eq!(rp.route, "exact");
    assert_eq!(rp.plan.as_ref().unwrap().kind, "exact_prefilter");

    let mut mono = Service::new(ServiceConfig {
        planner: lts_serve::BudgetPlanner {
            monolithic_selectivity: 0.0,
            ..lts_serve::BudgetPlanner::default()
        },
        ..ServiceConfig::default()
    });
    mono.register_dataset("d", linear_table(1_000), &["x", "y"])
        .unwrap();
    let rm = mono.run(tight(1));
    assert!(rm.ok, "{:?}", rm.error);
    assert_eq!(rm.route, "exact");
    assert!(rm.plan.is_none(), "forced-monolithic carries no plan echo");

    assert_eq!(rp.estimate, rm.estimate, "same exact count either way");
    assert_eq!(rp.evals, 500, "restricted census labels only survivors");
    assert_eq!(rm.evals, 1_000, "monolithic census labels everything");
}

#[test]
fn planned_prefilter_spends_3x_fewer_evals_than_monolithic_at_equal_width() {
    // Sports skyband (2 000 rows, seed 7) behind a cheap conjunct at
    // the 70th percentile of `strikeouts`: the prefilter keeps ~30 %.
    let scenario =
        lts_data::sports_scenario(2_000, lts_data::SelectivityLevel::M, 7).expect("sports");
    let lts_data::QueryParam::K(k) = scenario.param else {
        unreachable!("sports calibrates k")
    };
    let mut strikeouts = scenario.table.floats("strikeouts").unwrap().to_vec();
    strikeouts.sort_by(f64::total_cmp);
    let t70 = strikeouts[((strikeouts.len() - 1) as f64 * 0.70).round() as usize];
    let condition = format!(
        "strikeouts > {t70:.3} AND (SELECT COUNT(*) FROM sports WHERE \
         strikeouts >= o.strikeouts AND wins >= o.wins AND \
         (strikeouts > o.strikeouts OR wins > o.wins)) < {k}"
    );
    let cold = |planner: lts_serve::BudgetPlanner| {
        let mut s = Service::new(ServiceConfig {
            seed: 7,
            planner,
            ..ServiceConfig::default()
        });
        s.register_dataset(
            "sports",
            Arc::clone(&scenario.table),
            &["strikeouts", "wins"],
        )
        .unwrap();
        let r = s.run(Request {
            id: 1,
            dataset: "sports".into(),
            condition: condition.clone(),
            target: Target::RelWidth(0.05),
            fresh: false,
        });
        assert!(r.ok, "{:?}", r.error);
        assert_eq!(r.served, "cold");
        r
    };
    let planned = cold(lts_serve::BudgetPlanner::default());
    let mono = cold(lts_serve::BudgetPlanner {
        monolithic_selectivity: 0.0,
        ..lts_serve::BudgetPlanner::default()
    });
    assert_eq!(planned.plan.as_ref().unwrap().kind, "prefilter_estimate");
    assert!(
        mono.plan.is_none(),
        "forced-monolithic carries no plan echo"
    );
    assert!(
        mono.evals >= 3 * planned.evals,
        "planned {} vs monolithic {} evals at the same requested width",
        planned.evals,
        mono.evals
    );
}

/// A service echoing each response's span.
fn traced_service(table: Arc<lts_table::Table>) -> Service {
    let config = ServiceConfig {
        trace: true,
        ..ServiceConfig::default()
    };
    let mut s = Service::new(config);
    s.register_dataset("d", table, &["x", "y"]).unwrap();
    s
}

/// Three queries over one prefilter (`x < 300`): two estimates and a
/// census over its survivors.
const SHARING: [(&str, usize); 3] = [
    (
        "x < 300 AND (SELECT COUNT(*) FROM d WHERE y < o.y) > 500",
        100,
    ),
    (
        "(SELECT COUNT(*) FROM d WHERE y < o.x) > 200 AND x < 300",
        100,
    ),
    (
        "x < 300 AND (SELECT COUNT(*) FROM d WHERE x < o.y) > 400",
        200,
    ),
];

/// The `prefilter` events of a traced response.
fn prefilter_events(r: &Response) -> Vec<TraceEvent> {
    let events = &r.trace.as_ref().expect("a traced response").events;
    let scans = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Prefilter { .. }));
    scans.cloned().collect()
}

/// Two queries over one unselective prefilter (`x < 700` keeps 70 %
/// of the rows): both route monolithically.
const UNSELECTIVE: [(&str, usize); 2] = [
    (
        "x < 700 AND (SELECT COUNT(*) FROM d WHERE y < o.y) > 500",
        100,
    ),
    (
        "(SELECT COUNT(*) FROM d WHERE y < o.x) > 200 AND x < 700",
        100,
    ),
];

#[test]
fn queries_sharing_a_prefilter_answer_alike_whichever_arrives_first() {
    let lines = |set: &[(&str, usize)], order: &[usize]| {
        let mut s = traced_service(linear_table(1_000));
        let mut lines = vec![String::new(); set.len()];
        for &k in order {
            let (condition, budget) = set[k];
            let response = s.run(req(k as u64, condition, budget, false));
            assert!(response.ok, "{:?}", response.error);
            assert_eq!(prefilter_events(&response).len(), 1, "order {order:?}");
            lines[k] = response.to_json(true);
        }
        lines
    };
    let first = lines(&SHARING, &[0, 1, 2]);
    assert!(
        first[2].contains("\"kind\": \"exact_prefilter\""),
        "{}",
        first[2]
    );
    for order in [[1, 0, 2], [2, 1, 0], [1, 2, 0]] {
        assert_eq!(lines(&SHARING, &order), first, "order {order:?}");
    }
    let first = lines(&UNSELECTIVE, &[0, 1]);
    assert!(
        first[1].contains("\"kind\": \"monolithic\""),
        "{}",
        first[1]
    );
    assert_eq!(lines(&UNSELECTIVE, &[1, 0]), first);
}

#[test]
fn a_new_version_scans_each_prefilter_again() {
    let shifted = |by: usize| {
        let xs: Vec<f64> = (0..1_000).map(|i| (i + by) as f64).collect();
        let ys: Vec<f64> = (0..1_000).map(|i| ((i * 37) % 1_000) as f64).collect();
        Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap())
    };
    let (a, b) = (SHARING[0].0, SHARING[1].0);
    // The survivors and the span event a fresh service reports for `b`.
    let fresh = |table| {
        let response = traced_service(table).run(req(2, b, 100, false));
        let survivors = response.plan.as_ref().and_then(|p| p.survivors);
        (survivors, prefilter_events(&response))
    };
    let mut s = traced_service(shifted(0));
    assert!(s.run(req(1, a, 100, false)).ok);
    s.invalidate("d").unwrap();
    let again = s.run(req(2, b, 100, false));
    let survivors = again.plan.as_ref().and_then(|p| p.survivors);
    assert_eq!((survivors, prefilter_events(&again)), fresh(shifted(0)));
    // New content under the name: its own selection, not the old one.
    s.register_dataset("d", shifted(100), &["x", "y"]).unwrap();
    let moved = s.run(req(2, b, 100, false));
    let survivors = moved.plan.as_ref().and_then(|p| p.survivors);
    assert_eq!(survivors, Some(200));
    assert_eq!((survivors, prefilter_events(&moved)), fresh(shifted(100)));
}

#[test]
fn version_bump_drops_plan_state_and_selectivity_feedback() {
    let mut s = service(1_000);
    let cold = s.run(req(1, DECOMPOSABLE, 200, false));
    assert_eq!(cold.served, "cold");
    assert_eq!(s.store_len(), 1);

    s.invalidate("d").unwrap();
    assert_eq!((s.store_len(), s.cache_len()), (0, 0));

    // Re-colds against the new version: the prefilter re-scans (the
    // data is unchanged, so the plan echo is identical) and the
    // fingerprint moves with the version.
    let recold = s.run(req(2, DECOMPOSABLE, 200, false));
    assert_eq!(recold.served, "cold");
    assert_eq!(recold.table_version, 1);
    assert_ne!(recold.fingerprint, cold.fingerprint);
    let plan = recold.plan.as_ref().unwrap();
    assert_eq!(plan.kind, "prefilter_estimate");
    assert_eq!(plan.survivors, Some(500));
}

#[test]
fn invalidation_stays_within_one_dataset() {
    let mut s = service(1_000);
    s.register_dataset("e", linear_table(1_000), &["x", "y"])
        .unwrap();
    let on = |dataset: &str, id: u64, condition: &str, fresh: bool| Request {
        dataset: dataset.into(),
        ..req(id, condition, 200, fresh)
    };
    let held = |s: &Service| (s.catalog_len(), s.store_len(), s.cache_len());
    let e_decomposed = DECOMPOSABLE.replace("FROM d", "FROM e");
    for (id, condition) in [(1, "x < 400"), (2, e_decomposed.as_str())] {
        assert_eq!(s.run(on("e", id, condition, false)).served, "cold");
    }
    let e_only = held(&s);
    assert_eq!(e_only, (2, 2, 2), "queries, warm states, cached answers");
    for (id, condition) in [(3, "x < 400"), (4, DECOMPOSABLE)] {
        assert_eq!(s.run(on("d", id, condition, false)).served, "cold");
    }
    assert_eq!(held(&s), (4, 4, 4));

    s.invalidate("d").unwrap();
    assert_eq!(held(&s), e_only, "`d` keeps nothing, `e` keeps everything");
    let predicted = |s: &mut Service, dataset: &str, condition: &str| {
        let line = s.explain(dataset, condition, Target::Budget(200)).unwrap();
        let field = line.split("\"predicted_selectivity\": ").nth(1).unwrap();
        field.split(',').next().unwrap().to_string()
    };
    assert_eq!(predicted(&mut s, "d", DECOMPOSABLE), "null");
    assert_eq!(s.run(on("d", 5, "x < 400", false)).served, "cold");

    // The other dataset's repeat is still cached, its fresh repeat warm,
    // and its prefilter's selectivity still known.
    assert_eq!(s.run(on("e", 6, "x < 400", false)).served, "cached");
    assert_eq!(s.run(on("e", 7, "x < 400", true)).served, "warm");
    assert_eq!(s.run(on("e", 8, &e_decomposed, false)).served, "cached");
    assert_eq!(predicted(&mut s, "e", &e_decomposed), "0.5");
}

#[test]
fn small_populations_and_tight_targets_take_the_exact_route() {
    let mut s = service(50);
    let r = s.run(req(1, "x < 20", 40, false));
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.route, "exact");
    assert_eq!(r.estimate, 20.0);
    assert_eq!(r.lo, r.hi);
    assert_eq!(r.evals, 50);
    // Exact results cache like any other.
    let hit = s.run(req(2, "x < 20", 40, false));
    assert_eq!(hit.served, "cached");
    assert_eq!(hit.evals, 0);

    // Tight relative width on a larger population → census too.
    let mut s = service(2_000);
    let r = s.run(Request {
        id: 3,
        dataset: "d".into(),
        condition: "x < 900".into(),
        target: Target::RelWidth(0.001),
        fresh: false,
    });
    assert_eq!(r.route, "exact");
    assert_eq!(r.estimate, 900.0);
}
