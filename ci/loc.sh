#!/usr/bin/env bash
# Print the tracked line count (ROADMAP: "line count of crates/*/src is a
# tracked number and should trend down"): the crates/*/src total, each
# crate's share, and bench_suite/src beside them. Counts every line of
# every .rs file, comments and tests included — the same command each
# CHANGES.md entry quotes: find crates/*/src -name '*.rs' | xargs cat | wc -l
#
# usage: ci/loc.sh [--max <n>]   (from anywhere inside the repository)
# With --max, exits 1 when the crates/*/src total is above <n> — the
# ceiling CI passes, lowered to the landed number by each PR that
# shrinks the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

max=
case "${1-}" in
    '') ;;
    --max)
        max=${2-}
        [[ $max =~ ^[0-9]+$ && $# -eq 2 ]] || { echo "usage: ci/loc.sh [--max <n>]" >&2; exit 2; }
        ;;
    *) echo "usage: ci/loc.sh [--max <n>]" >&2; exit 2 ;;
esac

count() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

total=$(count crates/*/src)
printf '%7d  crates/*/src\n' "$total"
for src in crates/*/src; do
    printf '%7d    %s\n' "$(count "$src")" "$src"
done
printf '%7d  bench_suite/src\n' "$(count bench_suite/src)"

if [[ -n $max && $total -gt $max ]]; then
    echo "crates/*/src is $total lines, above the ceiling of $max" >&2
    exit 1
fi
