#!/usr/bin/env bash
# Build the suite, run its tests (which include `run --smoke` on every
# workload), then one traced cold_mono run that must close: the
# replayed layers account for >= 90 % of Service::run, and tracing
# costs the ops <= 5 %. Run from anywhere; ready for CI to call.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline --quiet

bin="${CARGO_TARGET_DIR:-target}/release/bench_suite"
out="$("$bin" run --workload cold_mono --seed 1 --trace 1)"
echo "$out" | grep -E '^(bench\.|strata\.design_share)'

metric() { echo "$out" | awk -v m="$1" '$1 == m { print $2 }'; }
check() { # name op bar
    awk -v v="$(metric "$1")" -v bar="$3" -v name="$1" -v op="$2" 'BEGIN {
        ok = (op == ">=") ? (v >= bar) : (v <= bar)
        printf "%s %s %s %s: %s\n", name, v, op, bar, ok ? "ok" : "FAIL"
        exit !ok
    }'
}
check bench.closure_share ">=" 0.90
check bench.trace_overhead_share "<=" 0.05
