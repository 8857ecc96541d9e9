//! Synthetic KDD-Cup-99-like dataset (the paper's "Neighbors" workload).
//!
//! Connection records drawn from a mixture of dense "normal traffic"
//! clusters and sparse "attack" clusters in a 2-d informative space,
//! padded with correlated and pure-noise columns up to the 41 features
//! of the original data. The few-neighbors query operates on the two
//! informative dimensions (`src_rate`, `dst_rate`), which are also the
//! features the classifiers see — the paper's "attributes referenced in
//! q" heuristic.
//!
//! No served query reads the padding, so it is not generated with the
//! table: the 39 columns `f02..f40` are one deferred block
//! ([`Table::deferred`]), drawn on the first read of any of them. Until
//! then a table holds `3·8·N` bytes of columns (`src_rate`, `dst_rate`,
//! `label`) instead of `42·8·N`. The block draws from a clone of the RNG
//! as the informative loop left it, with the same loop in the same
//! column order, so its bits are exactly those of drawing it eagerly
//! (`tests/generated_bits.rs` pins them).

use lts_table::{Column, DataType, Field, Schema, Table, TableResult};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::gen::{randn, randn_with};

/// Configuration for the Neighbors generator.
#[derive(Debug, Clone, Copy)]
pub struct NeighborsConfig {
    /// Number of records (paper scale = 73 000).
    pub rows: usize,
    /// Total feature columns (paper: 41). At least 2.
    pub features: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NeighborsConfig {
    fn default() -> Self {
        Self {
            rows: 73_000,
            features: 41,
            seed: 0x0DD_1999, // "KDD 1999"-flavoured default seed
        }
    }
}

/// Cluster spec: center, spread, and mixture weight.
struct Cluster {
    cx: f64,
    cy: f64,
    sd: f64,
    weight: f64,
}

/// Generate the synthetic Neighbors table.
///
/// Columns: `src_rate`, `dst_rate` (informative), then
/// `f02..f{features − 1}` (correlated/noise padding, deferred: made on
/// first read), then `label` (0 = normal, 1 = attack; *not* used by the
/// estimators, provided for realism and for classifier sanity checks).
///
/// # Errors
///
/// Propagates table-construction errors.
pub fn neighbors_table(config: &NeighborsConfig) -> TableResult<Table> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.rows.max(1);
    let d = config.features.max(2);

    // Dense normal-traffic clusters + sparse attack clusters: local
    // density varies by an order of magnitude, which is what makes the
    // few-neighbors selectivity tunable across 2%..87%.
    let clusters = [
        Cluster {
            cx: 0.0,
            cy: 0.0,
            sd: 0.6,
            weight: 0.30,
        },
        Cluster {
            cx: 2.5,
            cy: 1.0,
            sd: 0.5,
            weight: 0.22,
        },
        Cluster {
            cx: -1.5,
            cy: 2.2,
            sd: 0.7,
            weight: 0.18,
        },
        Cluster {
            cx: 1.0,
            cy: -2.0,
            sd: 0.9,
            weight: 0.12,
        },
        // Attack-like: sparse, spread out.
        Cluster {
            cx: 6.0,
            cy: 4.0,
            sd: 2.2,
            weight: 0.08,
        },
        Cluster {
            cx: -5.0,
            cy: -4.0,
            sd: 2.8,
            weight: 0.06,
        },
        Cluster {
            cx: 8.0,
            cy: -6.0,
            sd: 3.5,
            weight: 0.04,
        },
    ];
    let total_w: f64 = clusters.iter().map(|c| c.weight).sum();

    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let mut u = rng.random::<f64>() * total_w;
        let mut chosen = &clusters[0];
        let mut attack = false;
        for (ci, c) in clusters.iter().enumerate() {
            if u < c.weight {
                chosen = c;
                attack = ci >= 4;
                break;
            }
            u -= c.weight;
        }
        xs.push(randn_with(&mut rng, chosen.cx, chosen.sd));
        ys.push(randn_with(&mut rng, chosen.cy, chosen.sd));
        labels.push(i64::from(attack));
    }

    // Columns: 2 informative + (d − 2) padding + label. The padding is
    // one deferred block: drawn, from the stream as the loop above left
    // it, only when a padding column is first read.
    let mut fields = vec![
        Field::new("src_rate", DataType::Float),
        Field::new("dst_rate", DataType::Float),
    ];
    fields.extend((2..d).map(|j| Field::new(format!("f{j:02}"), DataType::Float)));
    fields.push(Field::new("label", DataType::Int));
    let mut columns = vec![Some(Column::Float(xs)), Some(Column::Float(ys))];
    columns.extend((2..d).map(|_| None));
    columns.push(Some(Column::Int(labels)));
    Table::deferred(Schema::new(fields)?, columns, move |table| {
        padding(table, rng.clone(), d)
    })
}

/// The padding columns `f02..f{d−1}` of `table`, drawn in column order
/// from `rng`: correlated with `src_rate` or `dst_rate`, or pure noise.
fn padding(table: &Table, mut rng: StdRng, d: usize) -> Vec<Column> {
    let stored = |name| {
        table
            .floats(name)
            .expect("the informative columns are stored")
    };
    let (xs, ys) = (stored("src_rate"), stored("dst_rate"));
    (2..d)
        .map(|j| {
            let col: Vec<f64> = match j % 3 {
                // Correlated with src_rate.
                0 => xs
                    .iter()
                    .map(|&x| 0.8 * x + 0.6 * randn(&mut rng))
                    .collect(),
                // Correlated with dst_rate.
                1 => ys
                    .iter()
                    .map(|&y| -0.5 * y + 0.9 * randn(&mut rng))
                    .collect(),
                // Pure noise.
                _ => (0..table.len()).map(|_| randn(&mut rng) * 1.5).collect(),
            };
            Column::Float(col)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NeighborsConfig {
        NeighborsConfig {
            rows: 4000,
            features: 41,
            seed: 11,
        }
    }

    #[test]
    fn generates_shape() {
        let t = neighbors_table(&small()).unwrap();
        assert_eq!(t.len(), 4000);
        assert_eq!(t.schema().len(), 42); // 41 features + label
        assert!(t.floats("src_rate").is_ok());
        assert!(t.floats("f05").is_ok());
        assert!(t.ints("label").is_ok());
    }

    #[test]
    fn density_varies_between_clusters() {
        // Records near the dense core should have far more close
        // neighbours than records in the sparse attack clusters.
        let t = neighbors_table(&small()).unwrap();
        let xs = t.floats("src_rate").unwrap();
        let ys = t.floats("dst_rate").unwrap();
        let mut core = Vec::new();
        let mut fringe = Vec::new();
        for i in 0..t.len() {
            let c = (0..t.len())
                .filter(|&j| (xs[j] - xs[i]).hypot(ys[j] - ys[i]) <= 0.5)
                .count();
            let r2 = xs[i] * xs[i] + ys[i] * ys[i];
            if r2 < 1.0 {
                core.push(c);
            } else if r2 > 30.0 {
                fringe.push(c);
            }
        }
        assert!(!core.is_empty() && !fringe.is_empty());
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
        assert!(
            mean(&core) > 4.0 * mean(&fringe),
            "core {} vs fringe {}",
            mean(&core),
            mean(&fringe)
        );
    }

    #[test]
    fn attack_fraction_reasonable() {
        let t = neighbors_table(&small()).unwrap();
        let labels = t.ints("label").unwrap();
        let attacks = labels.iter().filter(|&&l| l == 1).count();
        let frac = attacks as f64 / labels.len() as f64;
        assert!((0.1..0.3).contains(&frac), "attack fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = neighbors_table(&small()).unwrap();
        let b = neighbors_table(&small()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn minimum_two_features() {
        let t = neighbors_table(&NeighborsConfig {
            rows: 100,
            features: 2,
            seed: 1,
        })
        .unwrap();
        assert_eq!(t.schema().len(), 3); // 2 features + label
    }
}
