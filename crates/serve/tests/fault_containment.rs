//! A request whose work panics is answered with an error, and the
//! service goes on: the requests after it are answered as if it had not
//! been there.
//!
//! The panic comes from a column the dataset makes on first read
//! (`Table::deferred`) with a producer that panics — what a panicking
//! user-defined function does to a predicate. Where a residual subquery
//! names the column, the panic happens in a prepare or an exact census,
//! the census in pool items when its objects split across workers.
//! Where a prefilter names it, the panic happens at admission: the scan
//! that plans the query, which `explain` runs too.

use lts_serve::{Request, Response, Service, ServiceConfig, Target};
use lts_table::{Column, DataType, Field, Schema, Table};
use std::sync::Arc;

/// Rows of the dataset: an exact census over them scans `N²` inner
/// rows, enough to split across two workers.
const N: usize = 2_048;
const PANIC: &str = "the z producer failed";
/// Monolithic and planned queries whose subquery reads the panicking
/// column.
const BAD: [&str; 2] = [
    "(SELECT COUNT(*) FROM d WHERE z < o.x) > 3",
    "x < 1000 AND (SELECT COUNT(*) FROM d WHERE z < o.x) > 3",
];
/// A planned query whose prefilter reads it.
const BAD_PREFILTER: &str = "z < 5 AND (SELECT COUNT(*) FROM d WHERE x < o.y) > 300";
/// Monolithic and planned queries that never read it.
const GOOD: [&str; 2] = [
    "(SELECT COUNT(*) FROM d WHERE x < o.y) > 300",
    "x < 1000 AND (SELECT COUNT(*) FROM d WHERE y < o.x) > 300",
];

fn service() -> Service {
    let x: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let y: Vec<f64> = (0..N).map(|i| ((i * 37) % N) as f64).collect();
    let schema = Schema::new(vec![
        Field::new("x", DataType::Float),
        Field::new("y", DataType::Float),
        Field::new("z", DataType::Float),
    ])
    .unwrap();
    let columns = vec![Some(Column::Float(x)), Some(Column::Float(y)), None];
    let table = Table::deferred(schema, columns, |_| panic!("{PANIC}")).unwrap();
    let mut service = Service::new(ServiceConfig::default());
    service
        .register_dataset("d", Arc::new(table), &["x", "y"])
        .unwrap();
    service
}

fn request(id: u64, condition: &str, budget: usize) -> Request {
    Request {
        id,
        dataset: "d".into(),
        condition: condition.into(),
        target: Target::Budget(budget),
        fresh: false,
    }
}

fn assert_contained(response: &Response) {
    assert!(!response.ok, "{response:?}");
    assert_eq!(response.served, "error");
    let error = response.error.as_deref().unwrap_or_default();
    assert!(
        error.contains("panicked") && error.contains(PANIC),
        "{error}"
    );
}

/// What a fresh service answers for `requests` alone, in order, wall
/// time masked.
fn alone(requests: Vec<Request>) -> Vec<String> {
    let mut s = service();
    requests
        .into_iter()
        .map(|r| s.run(r).to_json(true))
        .collect()
}

/// What `s` answers for `requests`, in order: the answers of the
/// requests `contained` names are checked and left out.
fn served_around(s: &mut Service, requests: Vec<Request>, contained: &[u64]) -> Vec<String> {
    let mut served = Vec::new();
    for request in requests {
        let id = request.id;
        let response = s.run(request);
        if contained.contains(&id) {
            assert_contained(&response);
        } else {
            served.push(response.to_json(true));
        }
    }
    served
}

#[test]
fn a_panicking_request_gets_an_error_and_the_next_is_served() {
    let mut s = service();
    for (i, bad) in BAD.into_iter().enumerate() {
        let id = i as u64;
        assert_contained(&s.run(request(id, bad, 150)));
        assert_eq!(s.stats().errors, 2 * id + 1);
        // Nothing half-built was kept: the repeat panics again.
        assert_eq!((s.store_len(), s.cache_len()), (0, 0));
        assert_contained(&s.run(request(10 + id, bad, 150)));
    }
    for (i, good) in GOOD.into_iter().enumerate() {
        let response = s.run(request(20 + i as u64, good, 150));
        assert!(response.ok, "{response:?}");
        assert_eq!(
            response.to_json(true),
            alone(vec![request(20 + i as u64, good, 150)])[0]
        );
    }
    assert_eq!(s.stats().errors, 4);
}

#[test]
fn requests_after_a_panicking_one_answer_as_if_it_were_absent() {
    let mut s = service();
    let good = || {
        vec![
            request(1, GOOD[0], 150),
            request(3, GOOD[1], 150),
            request(5, GOOD[0], 200),
        ]
    };
    let mut requests = good();
    requests.insert(1, request(2, BAD[0], 150));
    requests.push(request(4, BAD[1], 150));
    assert_eq!(served_around(&mut s, requests, &[2, 4]), alone(good()));
    assert_eq!(s.stats().errors, 2);
    // The repeats are served from cache.
    for r in good() {
        let again = s.run(r);
        assert!(again.ok && again.served == "cached", "{again:?}");
    }
}

#[test]
fn a_census_that_panics_in_pool_items_is_contained() {
    let census = |s: &mut Service| {
        assert_contained(&s.run(request(1, BAD[0], N)));
        let response = s.run(request(2, GOOD[0], N));
        assert_eq!((response.route, response.served), ("exact", "exact"));
        assert_eq!(
            response.to_json(true),
            alone(vec![request(2, GOOD[0], N)])[0]
        );
    };
    census(&mut service());
    // At two workers whatever the process default: the census's
    // objects split into two chunks, and the panic is raised in pool
    // items and re-raised on the request's thread.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build();
    pool.unwrap().install(|| {
        assert_eq!(rayon::current_num_threads(), 2);
        census(&mut service());
    });
}

#[test]
fn a_prefilter_scan_that_panics_at_admission_is_contained() {
    let mut s = service();
    let good = || vec![request(1, GOOD[0], 150), request(3, GOOD[1], 150)];
    let mut requests = good();
    requests.insert(1, request(2, BAD_PREFILTER, 150));
    assert_eq!(served_around(&mut s, requests, &[2]), alone(good()));
    assert_eq!(s.stats().errors, 1);
    // `explain` plans the query too: an error, not a panic.
    let error = s.explain("d", BAD_PREFILTER, Target::Budget(150));
    let error = error.expect_err("the scan panics").to_string();
    assert!(
        error.contains("panicked") && error.contains(PANIC),
        "{error}"
    );
    // The repeat panics again, and the next request is served.
    assert_contained(&s.run(request(4, BAD_PREFILTER, 150)));
    let response = s.run(request(5, GOOD[0], 200));
    assert!(response.ok, "{response:?}");
    assert_eq!(
        response.to_json(true),
        alone(vec![request(5, GOOD[0], 200)])[0]
    );
    assert_eq!(s.stats().errors, 2);
}
