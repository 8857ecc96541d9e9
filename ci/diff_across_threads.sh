#!/usr/bin/env bash
# Run one lts-bench binary with 1 rayon worker and with the default
# worker count, mask the wall-derived fields of its BENCH_<artifact>.json
# (every `wall_seconds`, and the `median` of `wall_summary` cells where a
# binary has them), and diff the two: every other field must be identical
# across thread counts. The binary's own in-binary bars run both times.
#
# usage: ci/diff_across_threads.sh <bin> <artifact> [bin args...]
#   e.g. ci/diff_across_threads.sh bench_plan plan --scale 0.5 --trials 3
set -euo pipefail

bin=$1
artifact=$2
shift 2

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Runs under whatever RAYON_NUM_THREADS the caller set.
run() { # <label> [bin args...]
    local label=$1
    shift
    cargo run --release --offline -p lts-bench --bin "$bin" -- "$@" --out "$out/$label"
    sed -e 's/"wall_seconds": [^}]*/"wall_seconds": 0/' \
        -e 's/"cell": "wall_summary", "median": [^,]*/"cell": "wall_summary", "median": 0/' \
        "$out/$label/BENCH_$artifact.json" >"$out/$label.json"
}

RAYON_NUM_THREADS=1 run t1 "$@"
run tn "$@"
diff -u "$out/t1.json" "$out/tn.json"
