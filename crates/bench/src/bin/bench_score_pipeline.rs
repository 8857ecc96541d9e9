//! Wall-clock comparison of the shared batched scoring pipeline
//! (`lts_core::scoring::ScoredPopulation`) against the per-row score
//! loop the learned estimators used to run, plus the determinism check
//! CI relies on.
//!
//! Builds a large 2-feature population, trains the paper's two heavy
//! proxies (random forest, MLP) on a small labeled sample, then scores
//! the whole population both ways and:
//!
//! * **asserts** batch scores are bit-identical to the per-row loop and
//!   the `(score, id)` ordering is identical at every partition count
//!   (the scoring pipeline's determinism contract);
//! * reports per-configuration wall times and the speedup of the best
//!   batched run over the per-row loop — the refactor's acceptance bar
//!   is ≥ 4× at full scale (`--full` ⇒ 1M rows; vectorized kernels
//!   alone carry most of it on a single hardware thread, partition
//!   parallelism multiplies it on multi-core hosts);
//! * emits `BENCH_score_pipeline.json` whose estimate fields (`median`
//!   = score sum for scoring configs / FNV-1a ordering digest for the
//!   ordering config, `mean_evals` = rows scored) are identical across
//!   partition **and** thread counts — CI runs this binary under
//!   `RAYON_NUM_THREADS=1` and default threads and diffs everything but
//!   the wall times.
//!
//! Usage: `cargo run --release -p lts-bench --bin bench_score_pipeline
//! -- [--scale F] [--out DIR]` (rows ≈ 1M at `--scale 1.0`).

use lts_bench::{BenchRecord, RunConfig, TextTable};
use lts_core::{CountingProblem, ScoredPopulation};
use lts_learn::{Classifier, Mlp, RandomForest};
use lts_table::table::table_of_floats;
use lts_table::{FnPredicate, ObjectPredicate, Table};
use std::sync::Arc;
use std::time::Instant;

fn build_problem(rows: usize) -> CountingProblem {
    let xs: Vec<f64> = (0..rows).map(|i| (i % 1013) as f64 / 1013.0).collect();
    let ys: Vec<f64> = (0..rows).map(|i| (i % 733) as f64 / 733.0).collect();
    let table = Arc::new(table_of_floats(&[("x", &xs), ("y", &ys)]).expect("valid columns"));
    let q: Arc<dyn ObjectPredicate> = Arc::new(FnPredicate::new("band", |t: &Table, i| {
        Ok(t.floats("x")?[i] + 0.3 * t.floats("y")?[i] < 0.8)
    }));
    CountingProblem::new(table, q, &["x", "y"]).expect("valid problem")
}

/// Train a proxy on a small labeled SRS-like sample (every k-th row).
fn train<M: Classifier>(problem: &CountingProblem, model: &mut M) {
    let ids: Vec<usize> = (0..problem.n())
        .step_by((problem.n() / 300).max(1))
        .collect();
    let labels: Vec<bool> = ids
        .iter()
        .map(|&i| problem.label(i).expect("predicate total"))
        .collect();
    model
        .fit(&problem.features().gather(&ids), &labels)
        .expect("training succeeds");
}

/// Best-of-2 wall time for `f`.
fn time_best<T, F: FnMut() -> T>(mut f: F) -> (T, f64) {
    let t0 = Instant::now();
    drop(f());
    let first = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let value = f();
    (value, first.min(t1.elapsed().as_secs_f64()))
}

/// 32-bit FNV-1a digest of the ordering, exactly representable as f64
/// (thread- and partition-independent by the determinism contract).
fn ordering_digest(order: &[usize]) -> f64 {
    let mut h: u32 = 0x811c9dc5;
    for &id in order {
        for b in (id as u64).to_le_bytes() {
            h ^= u32::from(b);
            h = h.wrapping_mul(16777619);
        }
    }
    f64::from(h)
}

fn main() {
    let cfg = RunConfig::from_env();
    let rows = ((1_000_000.0 * cfg.scale) as usize).max(50_000);
    let threads = rayon::current_num_threads();
    println!("== score pipeline: {rows} rows, {threads} rayon thread(s) ==");

    let problem = build_problem(rows);
    let mut forest = RandomForest::with_trees(50, 7);
    train(&problem, &mut forest);
    let mut mlp = Mlp::with_seed(7);
    train(&problem, &mut mlp);
    let models: [(&str, &dyn Classifier); 2] = [("forest", &forest), ("mlp", &mlp)];

    let partition_counts = [1usize, 2, 4, 8];
    let members: Vec<usize> = (0..rows).collect();
    let mut records = Vec::new();
    let mut out = TextTable::new(&["model", "config", "score sum", "wall (s)", "speedup"]);
    let mut worst_speedup = f64::INFINITY;

    for (name, model) in models {
        // Baseline: the per-row loop the estimators ran before the
        // refactor (one dynamic dispatch + Result per object).
        let features = problem.features();
        let (per_row, per_row_s) = time_best(|| {
            let mut scores = Vec::with_capacity(rows);
            for i in 0..rows {
                scores.push(model.score(features.row(i)).expect("scoring succeeds"));
            }
            scores
        });
        let per_row_sum: f64 = per_row.iter().sum();
        out.row(vec![
            name.into(),
            "per_row".into(),
            format!("{per_row_sum:.4}"),
            format!("{per_row_s:.4}"),
            "1.00x".into(),
        ]);
        records.push(BenchRecord {
            label: name.into(),
            cell: "per_row".into(),
            median: per_row_sum,
            iqr: 0.0,
            mean_evals: rows as f64,
            wall_seconds: per_row_s,
        });

        let mut best_batch_s = f64::INFINITY;
        let mut reference_order: Option<Vec<usize>> = None;
        for parts in partition_counts {
            let (scored, batch_s) = time_best(|| {
                ScoredPopulation::score_members_partitioned(&problem, model, members.clone(), parts)
                    .expect("scoring succeeds")
            });
            // Determinism gate: bit-identical to the per-row loop at
            // every partition count.
            assert_eq!(
                scored.scores().len(),
                per_row.len(),
                "{name}: length diverged at {parts} partitions"
            );
            for (i, (b, r)) in scored.scores().iter().zip(&per_row).enumerate() {
                assert_eq!(
                    b.to_bits(),
                    r.to_bits(),
                    "{name}: score {i} diverged at {parts} partitions — determinism bug"
                );
            }
            best_batch_s = best_batch_s.min(batch_s);
            let speedup = per_row_s / batch_s.max(1e-12);
            out.row(vec![
                name.into(),
                format!("batch_p{parts}"),
                format!("{per_row_sum:.4}"),
                format!("{batch_s:.4}"),
                format!("{speedup:.2}x"),
            ]);
            records.push(BenchRecord {
                label: name.into(),
                cell: format!("batch_p{parts}"),
                median: per_row_sum,
                iqr: 0.0,
                mean_evals: rows as f64,
                wall_seconds: batch_s,
            });

            // Ordering identical at every partition count.
            let ordered = scored.into_ordered();
            match &reference_order {
                None => reference_order = Some(ordered.order().to_vec()),
                Some(reference) => assert_eq!(
                    ordered.order(),
                    reference.as_slice(),
                    "{name}: ordering diverged at {parts} partitions"
                ),
            }
        }
        worst_speedup = worst_speedup.min(per_row_s / best_batch_s.max(1e-12));

        // Full pipeline (score + stable order), recorded once per model
        // with the ordering digest as its determinism fingerprint.
        let (digest, order_s) = time_best(|| {
            let ordered = ScoredPopulation::score_members(&problem, model, members.clone())
                .expect("scoring succeeds")
                .into_ordered();
            ordering_digest(ordered.order())
        });
        out.row(vec![
            name.into(),
            "score+order".into(),
            format!("{digest:.0}"),
            format!("{order_s:.4}"),
            "-".into(),
        ]);
        records.push(BenchRecord {
            label: name.into(),
            cell: "score_order_digest".into(),
            median: digest,
            iqr: 0.0,
            mean_evals: rows as f64,
            wall_seconds: order_s,
        });
    }

    // Design-side stage: locate m pilots in the score order *without*
    // sorting the population — the paper's bucket pass
    // (`pilot_positions_bucket`, O(N log m)) against the O(N log N)
    // argsort reference. `median` = sum of pilot positions (exact in
    // f64 at these sizes; identical across thread counts).
    let scores = ScoredPopulation::score_members(&problem, &forest, members.clone())
        .expect("scoring succeeds")
        .scores()
        .to_vec();
    let ids: Vec<usize> = (0..rows).step_by((rows / 1000).max(1)).collect();
    let (oracle, argsort_s) = time_best(|| lts_strata::pilot_positions_argsort(&scores, &ids));
    let (bucket, bucket_s) = time_best(|| lts_strata::pilot_positions_bucket(&scores, &ids));
    assert_eq!(
        bucket, oracle,
        "bucket pass diverged from the argsort reference"
    );
    let position_sum = oracle.iter().sum::<usize>() as f64;
    for (cell, wall_seconds) in [("argsort", argsort_s), ("bucket", bucket_s)] {
        out.row(vec![
            "pilot".into(),
            cell.into(),
            format!("{position_sum:.0}"),
            format!("{wall_seconds:.4}"),
            format!("{:.2}x", argsort_s / wall_seconds.max(1e-12)),
        ]);
        records.push(BenchRecord {
            label: "pilot".into(),
            cell: cell.into(),
            median: position_sum,
            iqr: 0.0,
            mean_evals: rows as f64,
            wall_seconds,
        });
    }

    print!("{}", out.render());
    println!(
        "   (median field of BENCH_score_pipeline.json = score sum / ordering digest / \
         pilot-position sum; identical across partition AND thread counts)"
    );
    println!(
        "   worst best-batch speedup over the per-row loop: {worst_speedup:.2}x \
         (acceptance bar: ≥ 4x at --full scale; {threads} thread(s) here)"
    );
    lts_bench::emit_records_json(&cfg.out_dir, "score_pipeline", "parallel", &records);
}
