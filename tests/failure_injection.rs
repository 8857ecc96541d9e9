//! Failure injection: every estimator must fail *cleanly* (typed error,
//! no panic) when the substrate misbehaves, and must degrade gracefully
//! on degenerate-but-legal populations (single-class labels, constant
//! features, census-sized budgets).

use learning_to_sample::prelude::*;
use lts_sampling::{weighted_sample_es, weighted_sample_fenwick};
use lts_table::table::table_of_floats;
use lts_table::TableError;
use std::sync::Arc;

fn estimators() -> Vec<(&'static str, Box<dyn CountEstimator>)> {
    let learn = LearnPhaseConfig {
        spec: ClassifierSpec::Knn { k: 3 },
        augment: None,
        model_seed: 3,
    };
    vec![
        ("SRS", Box::new(Srs::default())),
        // The problems below expose a single feature column, so the
        // surrogate grid for SSP/SSN is 1-d: both grid axes read it.
        (
            "SSP",
            Box::new(Ssp {
                feature_dims: (0, 0),
                ..Ssp::default()
            }),
        ),
        (
            "SSN",
            Box::new(Ssn {
                feature_dims: (0, 0),
                ..Ssn::default()
            }),
        ),
        ("QLCC", Box::new(Qlcc { learn })),
        ("QLAC", Box::new(Qlac { learn, folds: 4 })),
        (
            "LWS",
            Box::new(Lws {
                learn,
                ..Lws::default()
            }),
        ),
        (
            "LWS-HT",
            Box::new(LwsHt {
                lws: Lws {
                    learn,
                    ..Lws::default()
                },
            }),
        ),
        (
            "LSS",
            Box::new(Lss {
                learn,
                min_pilots_per_stratum: 2,
                ..Lss::default()
            }),
        ),
    ]
}

/// A problem whose predicate fails on a slice of the population.
fn flaky_problem(n: usize, fail_from: usize) -> CountingProblem {
    let xs: Vec<f64> = (0..n).map(|i| f64::from((i % 61) as u32)).collect();
    let table = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
    let q = FnPredicate::new("flaky", move |t: &Table, i: usize| {
        if i >= fail_from {
            return Err(TableError::RowIndexOutOfRange {
                index: i,
                len: fail_from,
            });
        }
        Ok(t.floats("x")?[i] > 30.0)
    });
    CountingProblem::new(table, Arc::new(q), &["x"]).unwrap()
}

fn uniform_problem(n: usize, label: bool) -> CountingProblem {
    let xs: Vec<f64> = (0..n).map(|i| f64::from((i % 61) as u32)).collect();
    let table = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
    let q = FnPredicate::new("const", move |_t: &Table, _i: usize| Ok(label));
    CountingProblem::new(table, Arc::new(q), &["x"]).unwrap()
}

fn constant_feature_problem(n: usize, p: f64) -> CountingProblem {
    // Features carry zero signal; labels depend on the (hidden) index.
    let xs = vec![1.5; n];
    let cut = ((1.0 - p) * n as f64) as usize;
    let table = Arc::new(table_of_floats(&[("x", &xs)]).unwrap());
    let q = FnPredicate::new("hidden", move |_t: &Table, i: usize| Ok(i >= cut));
    CountingProblem::new(table, Arc::new(q), &["x"]).unwrap()
}

#[test]
fn erroring_predicate_propagates_cleanly() {
    // A predicate that fails on 80% of the population: with a large
    // enough budget every estimator must hit a failing object and
    // surface a typed error — never panic, never fabricate an estimate
    // from partial labels.
    let problem = flaky_problem(400, 80);
    for (name, est) in estimators() {
        let mut rng = StdRng::seed_from_u64(5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            est.estimate(&problem, 200, &mut rng)
        }));
        let result = result.unwrap_or_else(|_| panic!("{name} panicked on a flaky predicate"));
        assert!(
            result.is_err(),
            "{name}: 200 labels over a population failing from index 80 \
             must touch a failing object"
        );
    }
}

#[test]
fn all_positive_population_is_handled() {
    // q ≡ true: classifier training sees one class, stratified designs
    // see zero variance everywhere, QLAC's tpr/fpr adjustment
    // degenerates. Everything must still return ≈ N.
    let problem = uniform_problem(400, true);
    for (name, est) in estimators() {
        let mut rng = StdRng::seed_from_u64(7);
        let r = est
            .estimate(&problem, 120, &mut rng)
            .unwrap_or_else(|e| panic!("{name} failed on all-positive population: {e}"));
        assert!(
            (r.count() - 400.0).abs() < 40.0,
            "{name}: estimate {} far from N = 400",
            r.count()
        );
        assert!(r.count().is_finite());
    }
}

#[test]
fn all_negative_population_is_handled() {
    let problem = uniform_problem(400, false);
    for (name, est) in estimators() {
        let mut rng = StdRng::seed_from_u64(9);
        let r = est
            .estimate(&problem, 120, &mut rng)
            .unwrap_or_else(|e| panic!("{name} failed on all-negative population: {e}"));
        assert!(
            r.count().abs() < 40.0,
            "{name}: estimate {} far from 0",
            r.count()
        );
    }
}

#[test]
fn constant_features_degrade_gracefully() {
    // Zero-signal features: the classifier collapses to the prior and
    // LSS/LWS must degrade to ~uniform sampling quality, not error.
    let problem = constant_feature_problem(500, 0.3);
    let truth = problem.exact_count().unwrap() as f64;
    for (name, est) in estimators() {
        let mut rng = StdRng::seed_from_u64(11);
        let r = est
            .estimate(&problem, 150, &mut rng)
            .unwrap_or_else(|e| panic!("{name} failed on constant features: {e}"));
        assert!(
            (r.count() - truth).abs() < 120.0,
            "{name}: estimate {} too far from truth {truth}",
            r.count()
        );
    }
}

#[test]
fn census_budget_is_rejected_or_exact() {
    // budget == N: SRS can take a census (exact answer, zero-width
    // interval); estimators with multi-phase budgets may reject. Either
    // is fine — what's banned is a panic or a wrong answer.
    let problem = uniform_problem(200, true);
    for (name, est) in estimators() {
        let mut rng = StdRng::seed_from_u64(13);
        match est.estimate(&problem, 200, &mut rng) {
            Ok(r) => assert!(
                (r.count() - 200.0).abs() < 20.0,
                "{name}: census-budget estimate {} far from 200",
                r.count()
            ),
            Err(e) => {
                let msg = e.to_string();
                assert!(!msg.is_empty(), "{name}: error must carry a message");
            }
        }
    }
}

#[test]
fn over_budget_is_rejected() {
    let problem = uniform_problem(100, true);
    for (name, est) in estimators() {
        let mut rng = StdRng::seed_from_u64(15);
        assert!(
            est.estimate(&problem, 101, &mut rng).is_err(),
            "{name}: budget > N must be rejected (a census is cheaper)"
        );
        assert!(
            est.estimate(&problem, 0, &mut rng).is_err(),
            "{name}: zero budget must be rejected"
        );
    }
}

#[test]
fn non_finite_weights_are_rejected_by_samplers() {
    let mut rng = StdRng::seed_from_u64(17);
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let weights = vec![1.0, bad, 2.0];
        assert!(
            weighted_sample_fenwick(&mut rng, &weights, 2).is_err(),
            "fenwick sampler accepted weight {bad}"
        );
        assert!(
            weighted_sample_es(&mut rng, &weights, 2).is_err(),
            "E-S sampler accepted weight {bad}"
        );
    }
    // All-zero weights cannot define a distribution.
    assert!(weighted_sample_fenwick(&mut rng, &[0.0, 0.0], 1).is_err());
}

// ---------------------------------------------------------------------
// Network fault injection: every malformed or hostile client behaviour
// must yield a structured JSON error or a clean close — never a panic
// or a wedged worker — and the server must keep serving afterwards.
// ---------------------------------------------------------------------

mod net_faults {
    use learning_to_sample::serve::{NetConfig, NetServer, ReplOptions};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpStream};
    use std::time::Duration;

    fn server(max_line_bytes: usize) -> NetServer {
        NetServer::bind(
            "127.0.0.1:0",
            NetConfig {
                repl: ReplOptions {
                    deterministic: true,
                },
                max_line_bytes,
                ..NetConfig::default()
            },
        )
        .expect("bind")
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        assert!(!resp.is_empty(), "no response to `{line}`");
        resp.trim_end().to_string()
    }

    /// The server answers `stats` after the fault — proof no worker
    /// wedged and the dispatcher is still alive.
    fn assert_still_serving(addr: SocketAddr) {
        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(&mut stream, &mut reader, "stats");
        assert!(
            resp.contains("\"ok\": true"),
            "server must keep serving after the fault: {resp}"
        );
    }

    #[test]
    fn mid_request_disconnect_does_not_wedge_the_server() {
        let srv = server(64 * 1024);
        let addr = srv.local_addr();
        // Fire requests and vanish without reading a single response.
        for _ in 0..4 {
            let (mut stream, _reader) = connect(addr);
            writeln!(stream, "register sports s rows=400 level=M seed=3").expect("send");
            writeln!(stream, "count s budget=80 id=0 :: wins > 10").expect("send");
            drop(stream); // mid-request disconnect
        }
        assert_still_serving(addr);
        srv.shutdown();
        srv.join();
    }

    #[test]
    fn half_written_frame_then_eof_is_an_error_or_clean_close() {
        let srv = server(64 * 1024);
        let addr = srv.local_addr();
        let (mut stream, mut reader) = connect(addr);
        // A frame cut off mid-token, then EOF on the write side. The
        // reader may still collect responses on the read side.
        stream.write_all(b"count s budg").expect("send partial");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        // Either a structured error for the truncated command, or a
        // clean close with no bytes — both are acceptable; a hang or a
        // panic is not.
        if !resp.is_empty() {
            assert!(
                resp.contains("\"ok\": false"),
                "truncated frame must yield a structured error: {resp}"
            );
            resp.clear();
            assert_eq!(reader.read_line(&mut resp).expect("eof"), 0);
        }
        assert_still_serving(addr);
        srv.shutdown();
        srv.join();
    }

    #[test]
    fn oversized_line_yields_structured_error_and_keeps_framing() {
        let srv = server(256);
        let addr = srv.local_addr();
        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(&mut stream, &mut reader, &"y".repeat(4096));
        assert!(
            resp.contains("\"ok\": false") && resp.contains("exceeds"),
            "oversized line must be refused with a structured error: {resp}"
        );
        // Framing survives: the next command on the same connection is
        // parsed from a clean line boundary.
        let resp = roundtrip(&mut stream, &mut reader, "stats");
        assert!(resp.contains("\"ok\": true"), "{resp}");
        assert_still_serving(addr);
        srv.shutdown();
        srv.join();
    }

    #[test]
    fn malformed_utf8_yields_structured_error_not_a_panic() {
        let srv = server(64 * 1024);
        let addr = srv.local_addr();
        let (mut stream, mut reader) = connect(addr);
        stream
            .write_all(&[0xff, 0xfe, 0x80, b'\n'])
            .expect("send bytes");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        assert!(
            resp.contains("\"ok\": false") && resp.contains("UTF-8"),
            "malformed UTF-8 must be refused with a structured error: {resp}"
        );
        // Same connection still usable afterwards.
        let resp = roundtrip(&mut stream, &mut reader, "stats");
        assert!(resp.contains("\"ok\": true"), "{resp}");
        assert_still_serving(addr);
        srv.shutdown();
        srv.join();
    }

    /// Two lines far under `max_line_bytes` that used to overflow the
    /// dispatcher's stack and abort the process for every client: 3 000
    /// nested parentheses (parser recursion) and a flat chain of 4 000
    /// conjuncts (a 4 000-high tree for every pass behind the parser).
    #[test]
    fn condition_nested_or_chained_past_the_bound_is_a_parse_error() {
        let srv = server(64 * 1024);
        let addr = srv.local_addr();
        let (mut stream, mut reader) = connect(addr);
        let resp = roundtrip(
            &mut stream,
            &mut reader,
            "register sports s rows=60 level=M seed=3",
        );
        assert!(resp.contains("\"ok\": true"), "{resp}");
        let nested = format!("{}strikeouts < 120{}", "(".repeat(3_000), ")".repeat(3_000));
        let chained = vec!["wins>1"; 4_000].join(" AND ");
        for condition in [nested, chained] {
            let line = format!("count s budget=50 :: {condition}");
            assert!(line.len() < 64 * 1024);
            let resp = roundtrip(&mut stream, &mut reader, &line);
            assert!(
                resp.contains("\"ok\": false") && resp.contains("nests deeper than 256"),
                "a too-deep condition must be a structured parse error: {resp}"
            );
            // The same connection's next command is answered.
            let resp = roundtrip(&mut stream, &mut reader, "stats");
            assert!(resp.contains("\"ok\": true"), "{resp}");
        }
        assert_still_serving(addr);
        srv.shutdown();
        srv.join();
    }

    #[test]
    fn oversized_garbage_without_newline_then_eof_is_survived() {
        let srv = server(512);
        let addr = srv.local_addr();
        let (mut stream, mut reader) = connect(addr);
        // A flood of bytes with no newline, then EOF: the reader must
        // cap memory at max_line_bytes, answer or close, never wedge.
        let junk = vec![b'z'; 16 * 1024];
        stream.write_all(&junk).expect("send junk");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut all = String::new();
        reader.read_to_string(&mut all).expect("drain");
        for line in all.lines() {
            assert!(
                line.contains("\"ok\": false"),
                "unterminated oversized garbage must only produce errors: {line}"
            );
        }
        assert_still_serving(addr);
        srv.shutdown();
        srv.join();
    }
}

#[test]
fn tiny_populations_do_not_panic() {
    // N = 2..6 with budget 1..N: reject or estimate, never panic.
    for n in 2usize..=6 {
        let problem = uniform_problem(n, true);
        for (name, est) in estimators() {
            for budget in 1..=n {
                let mut rng = StdRng::seed_from_u64(19);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    est.estimate(&problem, budget, &mut rng)
                }));
                assert!(
                    outcome.is_ok(),
                    "{name} panicked at N = {n}, budget = {budget}"
                );
            }
        }
    }
}
