//! Sharded serving contract: with `ServiceConfig::shards > 1` cold
//! estimates run the per-shard pipeline and merge with composed
//! variance, warm resumes replay the stored per-shard snapshots, and
//! the store export round-trips sharded states (`lss@k` tags) at zero
//! oracle cost.

use lts_serve::{EstimatorTag, Request, Response, Service, ServiceConfig, Target};
use lts_table::table_of_floats;
use std::num::NonZeroUsize;
use std::sync::Arc;

fn linear_table(n: usize) -> Arc<lts_table::Table> {
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let ys: Vec<f64> = (0..n).map(|i| ((i * 37) % n) as f64).collect();
    Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).unwrap())
}

fn sharded_service(n: usize, shards: usize) -> Service {
    let config = ServiceConfig {
        shards,
        ..ServiceConfig::default()
    };
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

fn bits(r: &Response) -> (u64, u64, u64, u64) {
    (
        r.estimate.to_bits(),
        r.std_error.to_bits(),
        r.lo.to_bits(),
        r.hi.to_bits(),
    )
}

#[test]
fn sharded_cold_and_warm_serve_with_honest_intervals() {
    let mut s = sharded_service(4_000, 4);
    let cold = s.run(req(1, "x < 1500", 600, false));
    assert!(cold.ok, "{:?}", cold.error);
    assert_eq!(cold.served, "cold");
    assert_eq!(cold.route, "lss");
    assert!(cold.model_version != 0);
    // A perfectly learnable predicate can legitimately compose to zero
    // variance; the interval must stay consistent either way.
    assert!(cold.std_error >= 0.0);
    assert!(cold.lo <= cold.estimate && cold.estimate <= cold.hi);
    assert!(
        (cold.estimate - 1_500.0).abs() < 400.0,
        "estimate {} too far from truth 1500",
        cold.estimate
    );

    // A fresh request warm-starts from the stored sharded state and
    // spends only the per-shard stage-2 budgets.
    let warm = s.run(req(2, "x < 1500", 600, true));
    assert_eq!(warm.served, "warm");
    assert_eq!(warm.model_version, cold.model_version);
    assert!(
        warm.evals < cold.evals,
        "warm {} must resume cheaper than cold {}",
        warm.evals,
        cold.evals
    );
}

#[test]
fn sharded_responses_are_deterministic_per_config() {
    let run = || {
        let mut s = sharded_service(3_000, 4);
        let batch = vec![
            req(1, "x < 900", 500, false),
            req(2, "y < 600", 500, false),
            req(3, "x < 900", 500, true),
        ];
        s.run_batch(batch)
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert!(ra.ok);
        assert_eq!(bits(ra), bits(rb), "response {} diverged", ra.id);
        assert_eq!(ra.served, rb.served);
        assert_eq!(ra.model_version, rb.model_version);
    }
}

#[test]
fn shard_counts_change_the_layout_but_not_validity() {
    let mut one = sharded_service(3_000, 1);
    let mut four = sharded_service(3_000, 4);
    let a = one.run(req(1, "x < 1000", 500, false));
    let b = four.run(req(1, "x < 1000", 500, false));
    assert!(a.ok && b.ok);
    // Different layouts are different (salted) sample streams…
    assert_ne!(a.model_version, b.model_version);
    // …but both stay near the truth with sane intervals.
    for r in [&a, &b] {
        assert!((r.estimate - 1_000.0).abs() < 400.0);
        assert!(r.lo <= r.estimate && r.estimate <= r.hi);
    }
}

#[test]
fn sharded_store_export_roundtrips_at_zero_oracle_cost() {
    let mut s = sharded_service(3_000, 4);
    let cold = s.run(req(1, "x < 800", 500, false));
    assert_eq!(cold.served, "cold");
    let export = s.export_store();
    assert!(
        export.contains("\tlss@4\t"),
        "sharded states must export with a shard-count tag:\n{export}"
    );

    let mut restored = sharded_service(3_000, 4);
    let n = restored.import_store(&export).unwrap();
    assert_eq!(n, 1);
    assert_eq!(restored.stats().oracle_evals, 0, "restore must be free");

    // The restored state serves warm with the same model version.
    let warm = restored.run(req(9, "x < 800", 500, true));
    assert_eq!(warm.served, "warm");
    assert_eq!(warm.model_version, cold.model_version);
}

#[test]
fn estimator_tags_roundtrip_through_their_text_form() {
    for (text, shards, prefiltered) in [
        ("lss", None, false),
        ("lss@4", NonZeroUsize::new(4), false),
        ("lss+pf", None, true),
        ("lss@4+pf", NonZeroUsize::new(4), true),
    ] {
        let tag: EstimatorTag = text.parse().unwrap();
        let expected = EstimatorTag {
            shards,
            prefiltered,
        };
        assert_eq!(tag, expected);
        assert_eq!(tag.to_string(), text);
    }
    for bad in ["lss@", "lss4", "LSS", ""] {
        assert!(bad.parse::<EstimatorTag>().is_err(), "`{bad}`");
    }
}

#[test]
fn malformed_shard_tags_are_rejected_on_import() {
    let mut s = sharded_service(1_000, 2);
    // `lws` tags parse nowhere: the service prepares LSS only.
    for tag in ["lss@0", "lss@x", "nope@4", "lss+pf@4", "lws", "lws@4"] {
        let text = format!("lts-store/v2\nentry\td\t200\t0\t{tag}\tx %3c 100\n");
        let err = s.import_store(&text).expect_err(tag).to_string();
        assert!(err.contains("unknown estimator tag"), "tag `{tag}`: {err}");
    }
    assert_eq!(s.store_len(), 0);
}
