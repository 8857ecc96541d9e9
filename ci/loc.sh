#!/usr/bin/env bash
# Print the tracked line count (ROADMAP: "line count of crates/*/src is a
# tracked number and should trend down"): the crates/*/src total, each
# crate's share, and bench_suite/src beside them. Counts every line of
# every .rs file, comments and tests included — the same command each
# CHANGES.md entry quotes: find crates/*/src -name '*.rs' | xargs cat | wc -l
#
# usage: ci/loc.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

printf '%7d  crates/*/src\n' "$(count crates/*/src)"
for src in crates/*/src; do
    printf '%7d    %s\n' "$(count "$src")" "$src"
done
printf '%7d  bench_suite/src\n' "$(count bench_suite/src)"
