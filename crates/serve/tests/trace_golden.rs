//! Trace-span goldens: with `ServiceConfig::trace` on, the scripted
//! session — responses with embedded trace spans, `trace <id>` ring
//! lookups, the masked `metrics` exposition, and the `slow` log — must
//! reproduce its golden transcript byte-for-byte.
//!
//! Deterministic mode masks every `wall_*` field; all remaining fields
//! are pure functions of (seed, dataset version, canonical query,
//! budget, id), so the transcript is identical at any
//! `RAYON_NUM_THREADS` (CI runs this test under 1 worker and default
//! workers) and on any host.
//!
//! Regenerate after an intentional trace-format change with
//! `UPDATE_GOLDENS=1 cargo test -p lts-serve --test trace_golden`.

use lts_serve::{run_repl, ReplOptions, ServiceConfig};

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn run_script(config: ServiceConfig) -> String {
    let script = include_str!("data/trace_requests.txt");
    let mut out = Vec::new();
    run_repl(
        config,
        ReplOptions {
            deterministic: true,
        },
        script.as_bytes(),
        &mut out,
    )
    .unwrap();
    String::from_utf8(out).unwrap()
}

fn check(golden_file: &str, got: &str) {
    let path = golden_path(golden_file);
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    if got != golden {
        for (i, (g, w)) in golden.lines().zip(got.lines()).enumerate() {
            if g != w {
                panic!(
                    "{golden_file} diverges at line {}:\n golden: {g}\n    got: {w}",
                    i + 1
                );
            }
        }
        panic!(
            "{golden_file} length mismatch: golden {} lines, got {}",
            golden.lines().count(),
            got.lines().count()
        );
    }
}

#[test]
fn traced_session_matches_golden_transcript() {
    let config = ServiceConfig {
        trace: true,
        ..ServiceConfig::default()
    };
    check("trace_responses.golden", &run_script(config));
}

/// A request's span is a function of the request, not of what planned
/// its query first: request 1 counts a decomposed query after nothing,
/// after an `explain` of it, or after request 2 planned it at another
/// budget, and `trace 1` must read the same each time — its
/// `prefilter` event included, although in two of these sessions
/// something else built the query's plan first.
#[test]
fn a_planned_requests_span_does_not_depend_on_arrival_order() {
    let register = "register sports s rows=600 level=M seed=3";
    let query = "strikeouts > 60 AND (SELECT COUNT(*) FROM s WHERE strikeouts >= o.strikeouts \
                 AND wins >= o.wins) < 40";
    let count = |id: u64, budget: usize| format!("count s budget={budget} id={id} :: {query}");
    let explain = format!("explain s budget=60 :: {query}");
    let span_of_request_1 = |lines: &[String]| {
        let script = [&[register.to_string()], lines, &["trace 1".to_string()]]
            .concat()
            .join("\n");
        let mut out = Vec::new();
        let config = ServiceConfig {
            trace: true,
            ..ServiceConfig::default()
        };
        let opts = ReplOptions {
            deterministic: true,
        };
        run_repl(config, opts, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        out.lines().last().unwrap().to_string()
    };
    let count_first = span_of_request_1(&[count(1, 60)]);
    assert!(
        count_first.contains(r#"{"event": "prefilter", "conjuncts": 1, "population": 600"#),
        "{count_first}"
    );
    for (order, lines) in [
        ("explain first", vec![explain.clone(), count(1, 60)]),
        ("budget 60, then 80", vec![count(1, 60), count(2, 80)]),
        ("budget 80, then 60", vec![count(2, 80), count(1, 60)]),
    ] {
        assert_eq!(span_of_request_1(&lines), count_first, "{order}");
    }
}

/// A request refused before the cache probe (here a query that does
/// not parse) still closes a span, `route` (empty, as on the response)
/// then `served` (`error`, no evals): the response carries it and
/// `trace <id>` finds it in the ring.
#[test]
fn a_refused_request_closes_a_span() {
    let script = "register sports s rows=200 level=M seed=3\n\
                  count s budget=60 id=4 :: strikeouts <\n\
                  trace 4";
    let mut out = Vec::new();
    let config = ServiceConfig {
        trace: true,
        ..ServiceConfig::default()
    };
    let opts = ReplOptions {
        deterministic: true,
    };
    run_repl(config, opts, script.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    let span = r#"{"id": 4, "events": [{"event": "route", "route": "", "kind": ""}, {"event": "served", "served": "error", "evals": 0, "wall_micros": 0}]}"#;
    assert_eq!(lines.len(), 3, "{out}");
    assert!(lines[1].contains(r#""ok": false"#), "{}", lines[1]);
    assert!(
        lines[1].contains(&format!(r#""trace": {span}, "error": "#)),
        "{}",
        lines[1]
    );
    assert_eq!(lines[2], format!(r#"{{"ok": true, "trace": {span}}}"#));
}
