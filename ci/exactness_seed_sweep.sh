#!/usr/bin/env bash
# Re-run the five exactness proptests — the design DP against its
# triple-loop oracle, the DP's skipped bounds against one run over the
# whole grid, the bound subquery kernel against row-wise
# `Expr::eval`, the forest's score table against its node walk, the
# forest's trees grown over presorted orders against the per-node-sort
# oracle — in eight other universes of cases (`PROPTEST_SEED` 1…8; the
# plain test runs cover the unseeded one), each at the default worker
# count and at one rayon worker. All five take shortcuts that are exact
# by argument (class minima, bound pointers, class floors and the bounds
# below ns_min or at ns_max left out in the DP; a multiply for
# POWER(·, 2) under a guard band; a lookup over the threshold grid; one
# sort per forest and stable partitions): this is the argument's test.
#
# usage: ci/exactness_seed_sweep.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

sweep() { # <label>; runs under whatever RAYON_NUM_THREADS the caller set
    for seed in 1 2 3 4 5 6 7 8; do
        echo "PROPTEST_SEED=$seed ($1)"
        PROPTEST_SEED=$seed cargo test --release --offline -q -p lts-strata --test proptests dynpgm_matches
        PROPTEST_SEED=$seed cargo test --release --offline -q -p lts-strata --lib dynpgm_pruned_matches_full_grid
        PROPTEST_SEED=$seed cargo test --release --offline -q -p lts-table --test vector_agreement bound_subquery
        PROPTEST_SEED=$seed cargo test --release --offline -q -p lts-learn --test proptests forest_table
        PROPTEST_SEED=$seed cargo test --release --offline -q -p lts-learn --test proptests forest_matches
    done
}

sweep "default threads"
RAYON_NUM_THREADS=1 sweep "RAYON_NUM_THREADS=1"
