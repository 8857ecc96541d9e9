//! End-to-end smoke of the query-planning layer: the scripted REPL
//! session must reproduce its golden transcript byte-for-byte.
//!
//! The script (`tests/data/plan_requests.txt`) covers `explain` before
//! and after a prefilter scan (predicted vs observed selectivity), a
//! prefilter+estimate cold start, result-cache aliasing of a commuted
//! spelling, a fresh warm resume of the restricted residual state, an
//! exact-prefilter census, the zero-survivor plan, the monolithic
//! fallback for an unselective prefilter, an undecomposed `explain`,
//! and the re-cold after invalidation. Deterministic mode zeroes wall
//! times; every other field is a pure function of the seed, so the
//! transcript is identical at any `RAYON_NUM_THREADS` (CI runs the
//! serve tests under 1 worker and default workers) and on any host.
//! The CI workflow also pipes the same script through the actual
//! `lts-serve` binary and diffs against the same golden.

use lts_serve::{run_repl, ReplOptions, Request, Service, ServiceConfig, Target};
use std::sync::Arc;

#[test]
fn scripted_plan_session_matches_golden_transcript() {
    let script = include_str!("data/plan_requests.txt");
    let golden = include_str!("data/plan_responses.golden");
    let mut out = Vec::new();
    run_repl(
        ServiceConfig::default(),
        ReplOptions {
            deterministic: true,
        },
        script.as_bytes(),
        &mut out,
    )
    .unwrap();
    let got = String::from_utf8(out).unwrap();
    if got != golden {
        for (i, (g, w)) in golden.lines().zip(got.lines()).enumerate() {
            if g != w {
                panic!(
                    "transcript diverges at line {}:\n golden: {g}\n    got: {w}",
                    i + 1
                );
            }
        }
        panic!(
            "transcript length mismatch: golden {} lines, got {}",
            golden.lines().count(),
            got.lines().count()
        );
    }
}

/// The 600-row sports table as a canonical form names a subquery's.
const SPORTS_600: &str = "[player_id:Int,year:Int,ipouts:Float,strikeouts:Float,\
    walks:Float,hits:Float,wins:Float,losses:Float,era:Float;rows=600]";

/// A planned query whose residual's two conjuncts the prefilter sorts
/// between in the canonical chain, so the residual canonical is no span
/// of the query's and the decomposition keeps its own string: its
/// `explain` line, its response and its state id (the trace's store
/// key, which seeds the prepare) are pinned as a build that kept every
/// residual canonical as a string of its own wrote them. The response's
/// span carries the plan's `prefilter` event although the `explain`
/// built the plan.
#[test]
fn a_residual_the_prefilter_splits_answers_as_pinned() {
    let table = lts_data::sports_scenario(600, lts_data::SelectivityLevel::M, 3)
        .unwrap()
        .table;
    let mut s = Service::new(ServiceConfig {
        trace: true,
        ..ServiceConfig::default()
    });
    s.register_dataset("s", Arc::clone(&table), &["strikeouts", "wins"])
        .unwrap();
    let sent = "(SELECT COUNT(*) FROM s WHERE strikeouts >= o.strikeouts AND wins >= o.wins)";
    let condition = format!("strikeouts > 60 AND {sent} < 40 AND 7 < {sent}");
    let sq = format!(
        "(SELECT Count(*) FROM {SPORTS_600} WHERE ((o.strikeouts <= strikeouts) \
         AND (o.wins <= wins)))"
    );
    let residual = format!("(({sq} < 40.0) AND (7.0 < {sq}))");
    let canonical = format!("((({sq} < 40.0) AND (60.0 < strikeouts)) AND (7.0 < {sq}))");
    assert_eq!(
        s.explain("s", &condition, Target::Budget(60)).unwrap(),
        format!(
            "{{\"explain\": true, \"dataset\": \"s\", \"fingerprint\": \"b2aa760233361813\", \
             \"table_version\": 0, \"canonical\": \"{canonical}\", \"decomposed\": true, \
             \"route\": \"prefilter_estimate\", \"budget\": 60, \"population\": 600, \
             \"prefilter\": \"(60.0 < strikeouts)\", \"residual\": \"{residual}\", \
             \"prefilter_fingerprint\": \"298dd90cc0ecea64\", \
             \"residual_fingerprint\": \"d86e5cb71e23612b\", \"survivors\": 262, \
             \"predicted_selectivity\": null, \"observed_selectivity\": 0.43666666666666665}}"
        )
    );
    let response = s.run(Request {
        id: 7,
        dataset: "s".into(),
        condition,
        target: Target::Budget(60),
        fresh: false,
    });
    let phase = |name: &str, evals: usize| {
        format!("{{\"event\": \"phase\", \"phase\": \"{name}\", \"evals\": {evals}, \"wall_nanos\": 0}}")
    };
    assert_eq!(
        response.to_json(true),
        format!(
            "{{\"id\": 7, \"ok\": true, \"served\": \"cold\", \"route\": \"lss\", \
             \"fingerprint\": \"b2aa760233361813\", \"estimate\": 19.90909090909091, \
             \"std_error\": 12.105366361817193, \"lo\": 5, \"hi\": 44.74725102344134, \
             \"level\": 0.95, \"evals\": 60, \"budget\": 60, \
             \"model_version\": \"1a93464332cd325e\", \"table_version\": 0, \
             \"wall_micros\": 0, \"plan\": {{\"kind\": \"prefilter_estimate\", \
             \"prefilter\": \"(60.0 < strikeouts)\", \"residual\": \"{residual}\", \
             \"population\": 600, \"survivors\": 262, \
             \"selectivity\": 0.43666666666666665}}, \"trace\": {{\"id\": 7, \"events\": [\
             {{\"event\": \"route\", \"route\": \"lss\", \"kind\": \"prefilter_estimate\"}}, \
             {{\"event\": \"prefilter\", \"conjuncts\": 1, \"population\": 600, \"survivors\": 262}}, \
             {{\"event\": \"cache\", \"outcome\": \"miss\"}}, \
             {{\"event\": \"store\", \"outcome\": \"cold-prepare\", \"key\": \"21c5d3d1e172f013\"}}, \
             {}, {}, {}, {}, \
             {{\"event\": \"stage2\", \"evals\": 31, \"wall_nanos\": 0}}, \
             {{\"event\": \"served\", \"served\": \"cold\", \"evals\": 60, \"wall_micros\": 0}}]}}}}",
            phase("train", 15),
            phase("score", 0),
            phase("pilot", 14),
            phase("design", 0),
        )
    );
}
