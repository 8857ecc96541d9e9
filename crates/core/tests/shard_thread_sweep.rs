//! Sharded-estimation determinism sweep, isolated in its **own test
//! binary** because it mutates the process-wide `RAYON_NUM_THREADS`
//! (sharing a binary with other tests would race, and would silently
//! defeat a pinned-thread CI leg).
//!
//! Contracts pinned here, for shard counts {1, 2, 4, 8}:
//!
//! * prepare digests and merged estimates are **bit-identical** across
//!   1 worker, many workers, and the host default;
//! * the merge is independent of shard execution order: composing the
//!   per-shard reports serially in *reverse* shard order reproduces the
//!   parallel merge bit-for-bit (addition order is fixed by shard
//!   index, not completion order);
//! * the merged interval is exactly the composed-variance interval —
//!   no post-hoc widening.

mod common;

use common::band_problem;
use lts_core::{shard_problems, shard_seed, Lss, ShardPlan, Shardable};
use lts_stats::{compose_independent, Component};

#[test]
fn sharded_estimates_identical_across_threads_and_ordered_merges() {
    let problem = band_problem(2_000, 13);
    let lss = Lss {
        min_pilots_per_stratum: 2,
        ..Lss::default()
    };
    let (budget, seed) = (500, 4242);

    let incoming = std::env::var("RAYON_NUM_THREADS").ok();
    for k in [1usize, 2, 4, 8] {
        let plan = ShardPlan::uniform(problem.n(), k).unwrap();
        let mut runs: Vec<(u64, u64, u64, u64, u64)> = Vec::new();
        for threads in ["1", "5", ""] {
            // The rayon shim reads the var per call, so each leg
            // genuinely runs at the requested worker count.
            if threads.is_empty() {
                std::env::remove_var("RAYON_NUM_THREADS");
            } else {
                std::env::set_var("RAYON_NUM_THREADS", threads);
            }
            let warm = lss.prepare_sharded(&problem, &plan, budget, seed).unwrap();
            let r = lss
                .estimate_prepared_sharded(&problem, &warm, seed)
                .unwrap();
            runs.push((
                warm.digest(),
                r.estimate.count.to_bits(),
                r.estimate.std_error.to_bits(),
                r.estimate.interval.lo.to_bits(),
                r.estimate.interval.hi.to_bits(),
            ));
        }
        for run in &runs[1..] {
            assert_eq!(run, &runs[0], "k={k}: diverged across thread counts");
        }

        // Reverse-order serial recomposition: estimate shards highest
        // index first, then compose in shard order — must equal the
        // parallel merge exactly.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let warm = lss.prepare_sharded(&problem, &plan, budget, seed).unwrap();
        let merged = lss
            .estimate_prepared_sharded(&problem, &warm, seed)
            .unwrap();
        let subs = shard_problems(&problem, &plan).unwrap();
        let mut parts = vec![None; plan.k()];
        for s in (0..plan.k()).rev() {
            let sr = lss
                .estimate_prepared(&subs[s], &warm.shards()[s], shard_seed(seed, s))
                .unwrap();
            parts[s] = Some(Component {
                value: sr.estimate.count,
                variance: sr.estimate.std_error * sr.estimate.std_error,
                df: sr.estimate.df,
            });
        }
        let parts: Vec<Component> = parts.into_iter().map(|p| p.unwrap()).collect();
        let composed = compose_independent(&parts, problem.level()).unwrap();
        assert_eq!(
            merged.estimate.count.to_bits(),
            composed.value.to_bits(),
            "k={k}: merge depends on execution order"
        );
        assert_eq!(
            merged.estimate.std_error.to_bits(),
            composed.std_error.to_bits()
        );
        // No post-hoc widening: the merged interval is the composed
        // interval, clamped to the population only.
        let clamped = composed.interval.clamped(0.0, problem.n() as f64);
        assert_eq!(merged.estimate.interval.lo.to_bits(), clamped.lo.to_bits());
        assert_eq!(merged.estimate.interval.hi.to_bits(), clamped.hi.to_bits());
    }
    match incoming {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
