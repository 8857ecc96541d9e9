//! Counter reconciliation: the metrics registry is the service's one
//! book — `ServiceStats` is read off it — and the per-response fields
//! are the independent view it must agree with. This battery pins the
//! invariants between them:
//!
//! * folding the responses of a sequence of requests reproduces
//!   `stats()` exactly (requests, errors, route counters, oracle
//!   evaluations spent per route and saved by the cache), and the
//!   per-route eval counters sum to `oracle_evals_total`;
//! * the per-phase eval counters **partition** the total: every oracle
//!   evaluation is attributed to exactly one of train / score / pilot
//!   / design / stage2 / exact / srs;
//! * a traced response's phase and stage-2 events sum to the evals it
//!   was served with, on the planned route too, whose sub-population
//!   labels through its parent's meter;
//! * `spent + saved == cold-equivalent`: what a warm or cached answer
//!   avoided is exactly what a cold start of the same request costs on
//!   a fresh service;
//! * a service on a disabled registry answers bit-identically and
//!   reports all-zero `stats`; services sharing a registry share them.

use lts_serve::{
    BudgetPlanner, Observability, Request, Response, Service, ServiceConfig, ServiceStats, Target,
};
use lts_table::table_of_floats;
use std::sync::Arc;

fn linear_table(n: usize) -> Arc<lts_table::Table> {
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64).collect();
    Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap())
}

fn service_with(config: ServiceConfig, n: usize) -> Service {
    let mut s = Service::new(config);
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

fn counter(s: &Service, name: &str) -> u64 {
    s.observability()
        .registry
        .snapshot()
        .value(name)
        .unwrap_or(0)
}

/// The phase counters must partition `oracle_evals_total`.
fn phase_partition_total(s: &Service) -> u64 {
    [
        "evals_train",
        "evals_score",
        "evals_pilot",
        "evals_design",
        "evals_stage2",
        "evals_exact",
        "evals_srs",
    ]
    .iter()
    .map(|n| counter(s, n))
    .sum()
}

/// `ServiceStats` as the responses alone imply it. A cached answer's
/// saving is what the computation it repeats spent: the first executed
/// response with the same fingerprint and budget.
fn fold(responses: &[Response]) -> ServiceStats {
    let mut st = ServiceStats::default();
    for r in responses {
        st.requests += 1;
        let evals = r.evals as u64;
        st.oracle_evals += evals;
        match r.served {
            "error" => st.errors += 1,
            "exact" => {
                st.exact += 1;
                st.oracle_evals_exact += evals;
            }
            "cold" => {
                st.cold += 1;
                st.oracle_evals_cold += evals;
            }
            "warm" => {
                st.warm += 1;
                st.oracle_evals_warm += evals;
            }
            "cached" => {
                st.cached += 1;
                let computed = responses
                    .iter()
                    .find(|c| {
                        c.ok && c.served != "cached"
                            && (c.fingerprint, c.budget) == (r.fingerprint, r.budget)
                    })
                    .expect("a cached answer repeats an executed one");
                st.oracle_evals_saved += computed.evals as u64;
            }
            other => panic!("unknown served class `{other}`"),
        }
    }
    st
}

#[test]
fn folded_responses_equal_stats_and_phases_partition_the_total() {
    // `min_budget = 1` lets `Budget(4)` through the planner; no `Lss`
    // profile can split 4 labels, so that state is unpreparable and
    // its requests fall back to SRS.
    let config = ServiceConfig {
        planner: BudgetPlanner {
            min_budget: 1,
            ..BudgetPlanner::default()
        },
        ..ServiceConfig::default()
    };
    let mut s = service_with(config, 5_000);
    let responses: Vec<Response> = [
        req(1, "x < 2000", 300, false),   // cold
        req(2, "x <", 300, false),        // parse error
        req(3, "x < 2000", 300, true),    // fresh → warm resume
        req(4, "y < 1000", 4_000, false), // budget ≥ N/2 → exact census
        req(5, "y < 1000", 4, false),     // unpreparable → SRS fallback
        req(6, "x < 2000", 300, false),   // cache hit
    ]
    .into_iter()
    .map(|r| s.run(r))
    .collect();
    let served: Vec<&str> = responses.iter().map(|r| r.served).collect();
    assert_eq!(served, ["cold", "error", "warm", "exact", "cold", "cached"]);
    assert_eq!(responses[4].route, "srs");

    // The responses alone reproduce the stats.
    let stats = s.stats();
    assert_eq!(format!("{:?}", fold(&responses)), format!("{stats:?}"));
    assert_eq!(
        counter(&s, "oracle_evals_cold")
            + counter(&s, "oracle_evals_warm")
            + counter(&s, "oracle_evals_exact"),
        counter(&s, "oracle_evals_total")
    );
    assert!(counter(&s, "oracle_evals_saved_warm") > 0);

    // Phase attribution partitions the total: nothing double-counted,
    // nothing dropped.
    assert_eq!(phase_partition_total(&s), stats.oracle_evals);
    // The SRS bucket holds exactly the fallback's evals.
    assert_eq!(counter(&s, "evals_srs"), responses[4].evals as u64);

    // Store/cache counters line up with the routes and the stores.
    assert_eq!(counter(&s, "served_fallback"), 1);
    assert_eq!(counter(&s, "store_prepares"), stats.cold - 1);
    assert_eq!(counter(&s, "store_resumes"), stats.warm);
    assert_eq!(counter(&s, "cache_hits"), stats.cached);
    // Nothing refuses or coalesces a request; the keys read 0.
    assert_eq!(counter(&s, "requests_rejected"), 0);
    assert_eq!(counter(&s, "served_followers"), 0);
    assert_eq!(counter(&s, "store_entries"), s.store_len() as u64);
    assert_eq!(counter(&s, "cache_entries"), s.cache_len() as u64);
}

#[test]
fn stats_live_in_the_registry_disabled_is_zero_and_shared_is_summed() {
    let config = ServiceConfig::default();
    let session = |s: &mut Service| -> Vec<String> {
        s.register_dataset("d", linear_table(5_000), &["x", "y"])
            .unwrap();
        let requests = [
            req(1, "x < 2000", 300, false),
            req(2, "x < 2000", 300, false),
            req(3, "x < 2000", 300, true),
            req(4, "x <", 300, false),
        ];
        requests.map(|r| s.run(r).to_json(true)).into()
    };

    // Disabled: the same answers, and nothing counted.
    let mut enabled = Service::new(config);
    let mut disabled = Service::with_observability(config, Observability::disabled());
    assert_eq!(session(&mut enabled), session(&mut disabled));
    assert_eq!(
        format!("{:?}", disabled.stats()),
        format!("{:?}", ServiceStats::default())
    );
    let one = enabled.stats();
    assert_eq!(
        (one.requests, one.cold, one.cached, one.errors),
        (4, 1, 1, 1)
    );

    // Shared: two services over one registry report one summed book.
    let obs = Observability::default();
    let mut a = Service::with_observability(config, obs.clone());
    let mut b = Service::with_observability(config, obs);
    session(&mut a);
    session(&mut b);
    assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
    assert_eq!(a.stats().requests, 2 * one.requests);
    assert_eq!(a.stats().oracle_evals, 2 * one.oracle_evals);
    assert_eq!(a.stats().oracle_evals_saved, 2 * one.oracle_evals_saved);
}

#[test]
fn every_traced_eval_is_charged_to_one_phase_once_on_every_route() {
    // A planned route (prefilter, then an estimate over the survivors
    // through a sub-population of the dataset's problem) beside the
    // monolithic one, cold and warm.
    let config = ServiceConfig {
        trace: true,
        ..ServiceConfig::default()
    };
    let mut s = service_with(config, 5_000);
    let dominated = "(SELECT COUNT(*) FROM d WHERE x >= o.x AND y >= o.y) < 500";
    let planned = format!("x > 3000 AND {dominated}");
    let responses = [
        req(1, &planned, 200, false),
        req(2, dominated, 200, false),
        req(3, &planned, 200, true),
        req(4, "x < 2000", 300, false),
    ]
    .map(|r| s.run(r));
    let kinds: Vec<(&str, Option<&str>)> = responses
        .iter()
        .map(|r| (r.served, r.plan.as_ref().map(|p| p.kind)))
        .collect();
    assert_eq!(
        kinds,
        [
            ("cold", Some("prefilter_estimate")),
            ("cold", None),
            ("warm", Some("prefilter_estimate")),
            ("cold", None)
        ]
    );
    for r in &responses {
        let span = r.trace.as_ref().expect("trace is on");
        let charged: u64 = span
            .events
            .iter()
            .map(|e| match e {
                lts_obs::TraceEvent::Phase { evals, .. }
                | lts_obs::TraceEvent::Stage2 { evals, .. } => *evals,
                _ => 0,
            })
            .sum();
        assert_eq!(charged, r.evals as u64, "response {}: {span:?}", r.id);
    }
    assert_eq!(phase_partition_total(&s), counter(&s, "oracle_evals_total"));
}

#[test]
fn a_cold_response_is_charged_the_wall_time_of_its_prepare() {
    let config = ServiceConfig {
        trace: true,
        ..ServiceConfig::default()
    };
    let mut s = service_with(config, 5_000);
    let cold = s.run(req(1, "x < 2000", 300, false));
    assert_eq!(cold.served, "cold");
    let span = cold.trace.as_ref().expect("trace is on");
    let prepare_nanos: u64 = span
        .events
        .iter()
        .map(|e| match e {
            lts_obs::TraceEvent::Phase { wall_nanos, .. } => *wall_nanos,
            _ => 0,
        })
        .sum();
    assert!(prepare_nanos > 0, "the prepare phases were timed");
    assert!(
        cold.wall_micros >= prepare_nanos / 1_000,
        "wall_micros {} must cover the prepare phases' {} ns",
        cold.wall_micros,
        prepare_nanos
    );
}

#[test]
fn the_exact_route_fills_its_partition_bucket() {
    // Census route: a population small enough that exact wins.
    let mut s = service_with(ServiceConfig::default(), 120);
    let r = s.run(req(1, "x < 60", 500, false));
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.served, "exact");
    assert_eq!(counter(&s, "evals_exact"), r.evals as u64);
    assert_eq!(phase_partition_total(&s), counter(&s, "oracle_evals_total"));
}

#[test]
fn spent_plus_saved_equals_cold_equivalent() {
    let config = ServiceConfig::default();

    // Workload on service A: cold, cached repeat, fresh warm resume.
    let mut a = service_with(config, 5_000);
    let cold = a.run(req(1, "x < 2000", 300, false));
    let cached = a.run(req(2, "x < 2000", 300, false));
    let warm = a.run(req(3, "x < 2000", 300, true));
    assert_eq!(
        (cold.served, cached.served, warm.served),
        ("cold", "cached", "warm")
    );

    // Cold-equivalents on fresh services with the same seed: the
    // cacheable repeat replays the leader's seed stream, and the fresh
    // request cold-starts into prepare + its own stage 2.
    let mut b = service_with(config, 5_000);
    let cold_equiv_fresh = b.run(req(3, "x < 2000", 300, true));
    assert_eq!(cold_equiv_fresh.served, "cold");

    let spent = counter(&a, "oracle_evals_total");
    let saved = counter(&a, "oracle_evals_saved_cache") + counter(&a, "oracle_evals_saved_warm");
    let cold_equivalent = cold.evals as u64 + cold.evals as u64 + cold_equiv_fresh.evals as u64;
    assert_eq!(
        spent + saved,
        cold_equivalent,
        "spent {spent} + saved {saved} must equal the all-cold cost"
    );

    // And the warm resume's estimate is bit-identical to its cold
    // equivalent (same request seed), only cheaper.
    assert_eq!(warm.estimate.to_bits(), cold_equiv_fresh.estimate.to_bits());
    assert!(warm.evals < cold_equiv_fresh.evals);
}
