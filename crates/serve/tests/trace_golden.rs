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
