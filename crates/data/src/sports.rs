//! Synthetic MLB-pitching-like dataset (the paper's "Sports" workload).
//!
//! Each row is one player-season of pitching statistics. A latent
//! per-player skill drives correlated, heavy-tailed performance columns,
//! producing a realistic 2-d dominance structure for the k-skyband query
//! over `(strikeouts, wins)`: many dominated journeyman seasons, a thin
//! Pareto frontier of star seasons.
//!
//! No served query reads `walks`, `hits`, `losses` or `era`, so they are
//! one deferred block ([`Table::deferred`]), made on the first read of
//! any of them. Until then a table holds `5·8·N` bytes of columns
//! (`player_id`, `year`, `ipouts`, `strikeouts`, `wins`) instead of
//! `9·8·N`. The four columns' normals are drawn in the middle of each
//! season, so the eager loop still takes their draws from the stream —
//! the same uniforms, the same Box–Muller rejection rule
//! (`gen::skip_randn`) — and skips only the `ln`, `sqrt` and `cos`. The
//! block replays the loop from the seed, computing them, so its bits are
//! exactly those of drawing it eagerly (`tests/generated_bits.rs` pins
//! them).

use lts_table::{Column, DataType, Schema, Table, TableResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{heavy_tail, randn, randn_with, skip_randn};

/// Configuration for the Sports generator.
#[derive(Debug, Clone, Copy)]
pub struct SportsConfig {
    /// Number of player-season rows (paper scale ≈ 47 000).
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SportsConfig {
    fn default() -> Self {
        Self {
            rows: 47_000,
            seed: 0xBA5E_BA11,
        }
    }
}

/// Generate the synthetic Sports table.
///
/// Columns: `player_id`, `year`, `ipouts` (innings-pitched outs),
/// `strikeouts`, `walks`, `hits`, `wins`, `losses`, `era`; `walks`,
/// `hits`, `losses` and `era` are deferred (made on first read).
///
/// # Errors
///
/// Propagates table-construction errors (none expected in practice).
pub fn sports_table(config: &SportsConfig) -> TableResult<Table> {
    let config = *config;
    let [player_id, year, ipouts, strikeouts, wins] = seasons(&config, false).0;
    let float = |name| (name, DataType::Float);
    let schema = Schema::from_pairs(&[
        ("player_id", DataType::Int),
        ("year", DataType::Int),
        float("ipouts"),
        float("strikeouts"),
        float("walks"),
        float("hits"),
        float("wins"),
        float("losses"),
        float("era"),
    ])?;
    let columns = vec![
        Some(player_id),
        Some(year),
        Some(ipouts),
        Some(strikeouts),
        None,
        None,
        Some(wins),
        None,
        None,
    ];
    Table::deferred(schema, columns, move |_| seasons(&config, true).1.into())
}

/// Run the season loop from the seed: the stored columns `player_id`,
/// `year`, `ipouts`, `strikeouts`, `wins`, and — when `deferred` — the
/// deferred ones `walks`, `hits`, `losses`, `era` (schema order both);
/// otherwise their draws are only skipped, and those four are empty.
fn seasons(config: &SportsConfig, deferred: bool) -> ([Column; 5], [Column; 4]) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.rows.max(1);
    // A deferred column's normal: drawn, or its draws taken and skipped.
    let normal = |rng: &mut StdRng| {
        if deferred {
            randn(rng)
        } else {
            skip_randn(rng);
            0.0
        }
    };
    let m = if deferred { n } else { 0 };

    let mut player_id = Vec::with_capacity(n);
    let mut year = Vec::with_capacity(n);
    let mut ipouts = Vec::with_capacity(n);
    let mut strikeouts = Vec::with_capacity(n);
    let mut walks = Vec::with_capacity(m);
    let mut hits = Vec::with_capacity(m);
    let mut wins = Vec::with_capacity(n);
    let mut losses = Vec::with_capacity(m);
    let mut era = Vec::with_capacity(m);

    let mut pid: i64 = 0;
    let mut produced = 0usize;
    while produced < n {
        pid += 1;
        // Career length: geometric-ish, 1..=18 seasons.
        let career = 1 + (heavy_tail(&mut rng, 3.0, 0.7) as usize).min(17);
        // Latent skill, slight career drift.
        let skill = randn(&mut rng) * 0.9;
        // Starter vs reliever role is sticky per player.
        let starter = rng.random::<f64>() < 0.35;
        for season in 0..career {
            if produced >= n {
                break;
            }
            let age_curve = -0.02 * (season as f64 - 5.0).powi(2) + 0.4;
            let s = skill + age_curve + 0.25 * randn(&mut rng);
            // Innings (in outs): starters ~200 IP, relievers ~60 IP.
            let ip = if starter {
                randn_with(&mut rng, 540.0, 130.0)
            } else {
                randn_with(&mut rng, 190.0, 90.0)
            }
            .clamp(9.0, 900.0);
            let innings = ip / 3.0;
            // K/9 baseline 5.5, skill worth ~1.7 K/9 per σ.
            let k9 = (5.5 + 1.7 * s + 0.8 * randn(&mut rng)).clamp(0.5, 15.0);
            let so = (innings * k9 / 9.0).round().max(0.0);
            let bb9 = (3.4 - 0.6 * s + 0.7 * normal(&mut rng)).clamp(0.4, 9.0);
            let h9 = (9.2 - 1.1 * s + 0.8 * normal(&mut rng)).clamp(3.0, 15.0);
            let era_v = (4.3 - 0.9 * s + 0.55 * normal(&mut rng)).clamp(0.4, 15.0);
            // Wins scale with innings and skill; relievers win little.
            let win_rate = (0.55 + 0.12 * s).clamp(0.1, 0.85);
            let decisions = innings / 9.0 * 0.75;
            let w = (decisions * win_rate + 0.8 * randn(&mut rng))
                .round()
                .clamp(0.0, 27.0);
            let l = (decisions * (1.0 - win_rate) + 0.8 * normal(&mut rng))
                .round()
                .clamp(0.0, 25.0);

            player_id.push(pid);
            year.push(1990 + (season as i64 + pid) % 30);
            ipouts.push(ip.round());
            strikeouts.push(so);
            wins.push(w);
            if deferred {
                walks.push((innings * bb9 / 9.0).round().max(0.0));
                hits.push((innings * h9 / 9.0).round().max(0.0));
                losses.push(l);
                era.push(era_v);
            }
            produced += 1;
        }
    }

    let stored = [
        Column::Int(player_id),
        Column::Int(year),
        Column::Float(ipouts),
        Column::Float(strikeouts),
        Column::Float(wins),
    ];
    (stored, [walks, hits, losses, era].map(Column::Float))
}

// `rng.random` comes from RngExt.
use rand::RngExt as _;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_rows_with_sane_ranges() {
        let t = sports_table(&SportsConfig {
            rows: 5000,
            seed: 7,
        })
        .unwrap();
        assert_eq!(t.len(), 5000);
        let so = t.floats("strikeouts").unwrap();
        let w = t.floats("wins").unwrap();
        let era = t.floats("era").unwrap();
        assert!(so.iter().all(|&x| (0.0..=500.0).contains(&x)));
        assert!(w.iter().all(|&x| (0.0..=27.0).contains(&x)));
        assert!(era.iter().all(|&x| (0.4..=15.0).contains(&x)));
        // Strikeouts should be right-skewed (stars exist).
        let mean = so.iter().sum::<f64>() / so.len() as f64;
        let max = so.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(max > mean * 3.0, "max {max} vs mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sports_table(&SportsConfig { rows: 500, seed: 1 }).unwrap();
        let b = sports_table(&SportsConfig { rows: 500, seed: 1 }).unwrap();
        let c = sports_table(&SportsConfig { rows: 500, seed: 2 }).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skill_induces_correlation() {
        // Strikeouts and wins must be positively correlated (both driven
        // by skill × innings) — this is what gives the skyband its shape.
        let t = sports_table(&SportsConfig {
            rows: 8000,
            seed: 3,
        })
        .unwrap();
        let so = t.floats("strikeouts").unwrap();
        let w = t.floats("wins").unwrap();
        let n = so.len() as f64;
        let (ms, mw) = (so.iter().sum::<f64>() / n, w.iter().sum::<f64>() / n);
        let mut cov = 0.0;
        let mut vs = 0.0;
        let mut vw = 0.0;
        for (&a, &b) in so.iter().zip(w) {
            cov += (a - ms) * (b - mw);
            vs += (a - ms) * (a - ms);
            vw += (b - mw) * (b - mw);
        }
        let corr = cov / (vs.sqrt() * vw.sqrt());
        assert!(corr > 0.5, "corr {corr}");
    }
}
