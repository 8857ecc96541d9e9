#!/usr/bin/env bash
# Feed one scripted session to the `lts-serve` REPL (release build,
# `--deterministic`) with 1 rayon worker and with the default worker
# count: both transcripts must reproduce the golden byte for byte.
#
# usage: ci/golden_across_threads.sh <requests> <golden> [lts-serve flags...]
#   e.g. ci/golden_across_threads.sh crates/serve/tests/data/trace_requests.txt \
#            crates/serve/tests/data/trace_responses.golden --trace
set -euo pipefail

requests=$1
golden=$2
shift 2

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Runs under whatever RAYON_NUM_THREADS the caller set.
run() { # <label> [lts-serve flags...]
    local label=$1
    shift
    cargo run --release --offline -q -p lts-serve --bin lts-serve -- --deterministic "$@" \
        <"$requests" >"$out/$label.out"
    diff -u "$golden" "$out/$label.out"
}

RAYON_NUM_THREADS=1 run t1 "$@"
run tn "$@"
