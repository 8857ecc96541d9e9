//! Protocol replies over `handle_line` that no golden transcript
//! reaches: dataset names that need escaping, and malformed targets on
//! a population small enough for a census.

use lts_serve::{handle_line, LineOutcome, ReplOptions, Service, ServiceConfig, SessionState};

fn reply(service: &mut Service, line: &str) -> String {
    let mut session = SessionState::default();
    match handle_line(service, &mut session, ReplOptions::default(), line) {
        LineOutcome::Reply(reply) => reply,
        other => panic!("`{line}` yielded {other:?}"),
    }
}

#[test]
fn hostile_dataset_names_are_escaped_in_replies() {
    let mut s = Service::new(ServiceConfig::default());
    for (name, escaped) in [
        ("a\"b", "a\\\"b"),
        ("a\\b", "a\\\\b"),
        ("a\u{1}b", "a\\u0001b"),
    ] {
        let registered = reply(
            &mut s,
            &format!("register sports {name} rows=300 level=M seed=3"),
        );
        assert_eq!(
            registered,
            format!(
                "{{\"ok\": true, \"registered\": \"{escaped}\", \"rows\": 300, \"version\": 0}}"
            )
        );
        assert_eq!(
            reply(&mut s, &format!("invalidate {name}")),
            format!("{{\"ok\": true, \"invalidated\": \"{escaped}\", \"version\": 1}}")
        );
    }
}

#[test]
fn a_malformed_target_is_refused_on_a_population_small_enough_for_a_census() {
    let mut s = Service::new(ServiceConfig::default());
    reply(&mut s, "register sports t rows=60 level=M seed=3");
    for option in ["budget=0", "width=NaN", "width=7", "abswidth=-1"] {
        for command in ["count", "explain"] {
            let line = format!("{command} t {option} :: strikeouts < 120");
            let got = reply(&mut s, &line);
            assert!(got.contains("\"ok\": false"), "`{line}` answered {got}");
        }
    }
    let served = reply(&mut s, "count t budget=10 :: strikeouts < 120");
    assert!(served.contains("\"served\": \"exact\""), "{served}");
}

/// The narrowest width a client can write used to size the *smallest*
/// budget (the closed form overflowed to NaN); it is a census, like any
/// width no sample can meet.
#[test]
fn a_vanishing_width_routes_to_the_census() {
    let mut s = Service::new(ServiceConfig::default());
    reply(&mut s, "register sports s rows=2000 level=M seed=3");
    for option in ["width=1e-300", "abswidth=1e-300", "width=1e-100"] {
        let line = format!("count s {option} fresh :: hits > 3");
        let got = reply(&mut s, &line);
        assert!(
            got.contains("\"served\": \"exact\"") && got.contains("\"evals\": 2000"),
            "`{line}` answered {got}"
        );
    }
}

/// `register … rows=0` used to panic the dispatcher (sports) or report a
/// population the table did not have (neighbors); `rows=<usize::MAX>`
/// panicked with `capacity overflow`. Both are refused before anything
/// is generated, the reply's `rows` is the table's length, and the
/// service answers the next line.
#[test]
fn register_rows_out_of_range_is_refused_and_the_reply_reports_the_table() {
    let mut s = Service::new(ServiceConfig::default());
    for kind in ["sports", "neighbors"] {
        for rows in [0, usize::MAX] {
            assert_eq!(
                reply(&mut s, &format!("register {kind} t rows={rows} level=M seed=3")),
                format!(
                    "{{\"ok\": false, \"error\": \"rows must be between 1 and 100000, got {rows}\"}}"
                )
            );
            let stats = reply(&mut s, "stats");
            assert!(stats.starts_with("{\"ok\": true"), "{stats}");
        }
        assert_eq!(
            reply(&mut s, &format!("register {kind} t rows=60 level=M seed=3")),
            format!(
                "{{\"ok\": true, \"registered\": \"t\", \"rows\": 60, \"version\": {}}}",
                u64::from(kind == "neighbors")
            )
        );
        assert_eq!(s.dataset_len("t"), Some(60));
        let stats = reply(&mut s, "stats");
        assert!(stats.starts_with("{\"ok\": true"), "{stats}");
    }
}
