#!/usr/bin/env bash
# Run every reproduction experiment small (`repro_all --trials 2
# --scale 0.03`, release build) and compare each CSV it writes, byte for
# byte, with the pinned copy in ci/repro_pin/. fig3.csv is wall time and
# is not pinned; every other figure is a pure function of the seed.
# Under whatever RAYON_NUM_THREADS the caller set: CI runs it at the
# default worker count and at one worker.
#
# usage: ci/repro_pin.sh   (from anywhere inside the repository)
# After an intended change to a figure, copy the new CSVs over the pins
# once and say so in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo run --release --offline -q -p lts-bench --bin repro_all -- \
    --trials 2 --scale 0.03 --out "$out" >/dev/null

status=0
for pin in ci/repro_pin/*.csv; do
    name=$(basename "$pin")
    cmp "$pin" "$out/$name" || status=1
done
for got in "$out"/*.csv; do
    name=$(basename "$got")
    if [[ $name != fig3.csv && ! -e ci/repro_pin/$name ]]; then
        echo "$name is written but not pinned" >&2
        status=1
    fi
done
exit $status
