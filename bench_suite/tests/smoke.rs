//! `run --smoke` on every workload, untraced and traced: a tenth of
//! the ops, one pass, one set-up — the output checks only, no timing
//! claims. Drives the built binary the way `BENCHMARK.json` does.

use std::process::Command;

#[test]
fn smoke_runs_pass_their_output_checks() {
    for workload in ["cold_mono", "cold_planned", "warm_restored", "tcp_hot"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_bench_suite"))
                .args(["run", "--smoke", "--seed", "7", "--seconds", "1"])
                .args(["--workload", workload, "--trace", trace])
                .output()
                .expect("the binary starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {stdout}{stderr}"
            );
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": ")
                    && last.contains("\"failed\": 0, \"metrics\": {"),
                "{workload} trace {trace}: {last}"
            );
        }
    }
    // A run removes its own scratch directory (beside the binary).
    let scratch = std::path::Path::new(env!("CARGO_BIN_EXE_bench_suite")).with_file_name("scratch");
    let left: Vec<_> = std::fs::read_dir(scratch).map_or_else(|_| Vec::new(), |d| d.collect());
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn bad_command_lines_exit_2_without_a_result_line() {
    for args in [
        &[
            "run",
            "--workload",
            "restart",
            "--seed",
            "1",
            "--trace",
            "0",
        ][..],
        &["run", "--workload", "tcp_hot", "--seed", "1"],
        &[
            "run",
            "--workload",
            "tcp_hot",
            "--seed",
            "x",
            "--trace",
            "0",
        ],
        &["compare", "only-one-dir"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_suite"))
            .args(args)
            .output()
            .expect("the binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
