#!/usr/bin/env bash
# Print the tracked line count (ROADMAP: "line count of crates/*/src is a
# tracked number and should trend down"): the crates/*/src total, each
# crate's share, and bench_suite/src beside them. Counts every line of
# every .rs file, comments and tests included — the same command each
# CHANGES.md entry quotes: find crates/*/src -name '*.rs' | xargs cat | wc -l
# Beside the total it prints the share of those lines inside top-level
# #[cfg(test)] modules (from the attribute to the module's closing brace,
# which rustfmt puts alone at column 0); the ceiling stays on the total.
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
count_tests() {
    find "$@" -name '*.rs' -print0 \
        | xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]$/ { t = 1 } t { n++ } t && /^}$/ { t = 0 }
                        END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }'
}

total=$(count crates/*/src)
tests=$(count_tests crates/*/src)
printf '%7d  crates/*/src  (%d in #[cfg(test)] modules, %s %%)\n' "$total" "$tests" \
    "$(awk -v t="$tests" -v n="$total" 'BEGIN { printf "%.1f", n ? 100 * t / n : 0 }')"
for src in crates/*/src; do
    printf '%7d    %s\n' "$(count "$src")" "$src"
done
printf '%7d  bench_suite/src\n' "$(count bench_suite/src)"

if [[ -n $max && $total -gt $max ]]; then
    echo "crates/*/src is $total lines, above the ceiling of $max" >&2
    exit 1
fi
