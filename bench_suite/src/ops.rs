//! Inputs: the two generated datasets, the benchmark's own truth for
//! them, and the fixed op list of each workload — all pure functions
//! of `--seed`.
//!
//! Every op is a count request with a known exact answer. Op lists
//! are fixed in length (the sizing constants live in
//! [`crate::workloads`]); nothing about them depends on the clock.

use crate::truth::{count_below, dominator_counts, neighbor_counts};
use lts_data::{neighbors_scenario, sports_scenario, QueryParam, SelectivityLevel};
use lts_serve::{DatasetSpec, Request, Target};
use lts_table::Table;
use std::sync::Arc;
use std::time::Instant;

/// One dataset as the benchmark sees it: the table the service will
/// regenerate from the same recipe, and per-row subquery counts.
pub struct Population {
    /// Registered name, also the generator kind.
    pub name: &'static str,
    /// Feature (and query) columns.
    pub cols: [&'static str; 2],
    /// The generated table.
    pub table: Arc<Table>,
    /// First query column, copied out.
    pub xs: Vec<f64>,
    /// The same column, ascending.
    xs_sorted: Vec<f64>,
    /// Per-row correlated-subquery count (dominators / neighbours).
    pub counts: Vec<u32>,
}

impl Population {
    /// Value of the first query column at quantile `p` (nearest rank).
    pub fn x_quantile(&self, p: f64) -> f64 {
        self.xs_sorted[((self.xs_sorted.len() - 1) as f64 * p).round() as usize]
    }
}

/// Everything a run derives from `--seed` before any set-up starts.
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// Rows per dataset.
    pub rows: usize,
    /// Sports population (skyband queries).
    pub sports: Population,
    /// Neighbors population (few-neighbours queries).
    pub neighbors: Population,
    /// Skyband `k` calibrated to ~29 % selectivity.
    pub sports_k: u32,
    /// Neighbour radius calibrated to ~25 % selectivity at 10 neighbours.
    pub neighbors_d: f64,
    /// Seconds spent in the two `lts_data` scenario generators.
    pub generate_s: f64,
    /// Seconds spent on the O(N²) truth passes.
    pub truth_s: f64,
}

impl Inputs {
    /// Generate both datasets and their truth basis.
    ///
    /// # Panics
    ///
    /// Panics if a generator fails — with fixed sizes that is a bug.
    pub fn generate(seed: u64, rows: usize) -> Inputs {
        let t0 = Instant::now();
        let sports = sports_scenario(rows, SelectivityLevel::M, seed).expect("sports scenario");
        let neighbors =
            neighbors_scenario(rows, SelectivityLevel::M, seed).expect("neighbors scenario");
        let generate_s = t0.elapsed().as_secs_f64();
        let (QueryParam::K(k), QueryParam::D(d)) = (sports.param, neighbors.param) else {
            unreachable!("sports calibrates k, neighbors calibrates d")
        };
        let t1 = Instant::now();
        let column = |t: &Table, c: &str| t.floats(c).expect("float column").to_vec();
        let (sx, sy) = (
            column(&sports.table, "strikeouts"),
            column(&sports.table, "wins"),
        );
        let (nx, ny) = (
            column(&neighbors.table, "src_rate"),
            column(&neighbors.table, "dst_rate"),
        );
        let dom = dominator_counts(&sx, &sy);
        let nbr = neighbor_counts(&nx, &ny, d);
        let truth_s = t1.elapsed().as_secs_f64();
        Inputs {
            seed,
            rows,
            sports: Population {
                name: "sports",
                cols: ["strikeouts", "wins"],
                table: sports.table,
                xs_sorted: crate::stats::sorted(sx.clone()),
                xs: sx,
                counts: dom,
            },
            neighbors: Population {
                name: "neighbors",
                cols: ["src_rate", "dst_rate"],
                table: neighbors.table,
                xs_sorted: crate::stats::sorted(nx.clone()),
                xs: nx,
                counts: nbr,
            },
            sports_k: k as u32,
            neighbors_d: d,
            generate_s,
            truth_s,
        }
    }

    /// The recipe that makes the service regenerate `pop`'s table.
    pub fn spec(&self, pop: &Population) -> DatasetSpec {
        DatasetSpec {
            kind: pop.name.to_string(),
            rows: self.rows,
            level: "M".to_string(),
            seed: self.seed,
        }
    }

    /// Both populations, sports first.
    pub fn populations(&self) -> [&Population; 2] {
        [&self.sports, &self.neighbors]
    }
}

/// One count request with its exact answer.
#[derive(Debug, Clone)]
pub struct Op {
    /// Request id (the replay key of `fresh` requests).
    pub id: u64,
    /// Dataset name.
    pub dataset: &'static str,
    /// Condition text.
    pub condition: String,
    /// Accuracy target or budget.
    pub target: Target,
    /// Bypass the result cache.
    pub fresh: bool,
    /// Exact count of rows satisfying `condition`.
    pub truth: usize,
}

impl Op {
    /// The in-process request.
    pub fn request(&self) -> Request {
        Request {
            id: self.id,
            dataset: self.dataset.to_string(),
            condition: self.condition.clone(),
            target: self.target,
            fresh: self.fresh,
        }
    }

    /// The same request as one line of the wire protocol.
    pub fn line(&self) -> String {
        let target = match self.target {
            Target::Budget(b) => format!("budget={b}"),
            Target::RelWidth(w) => format!("width={w}"),
            Target::AbsWidth(w) => format!("abswidth={w}"),
        };
        format!(
            "count {} {target} {}id={} :: {}",
            self.dataset,
            if self.fresh { "fresh " } else { "" },
            self.id,
            self.condition
        )
    }
}

/// `(SELECT COUNT(*) … dominators of o) < k` over `table`.
pub fn skyband_condition(table: &str, k: u32) -> String {
    format!(
        "(SELECT COUNT(*) FROM {table} WHERE strikeouts >= o.strikeouts AND \
         wins >= o.wins AND (strikeouts > o.strikeouts OR wins > o.wins)) < {k}"
    )
}

/// `(SELECT COUNT(*) … rows within d of o) < k` over `table`.
pub fn neighbors_condition(table: &str, d: f64, k: u32) -> String {
    format!(
        "(SELECT COUNT(*) FROM {table} WHERE SQRT(POWER(o.src_rate - src_rate, 2) + \
         POWER(o.dst_rate - dst_rate, 2)) <= {d}) < {k}"
    )
}

/// `n` strictly increasing thresholds spread over `[lo, hi] × base`.
fn spread(base: u32, n: usize, lo: f64, hi: f64) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::with_capacity(n);
    for i in 0..n {
        let f = lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64;
        let k = (f64::from(base) * f).round().max(1.0) as u32;
        out.push(out.last().map_or(k, |&prev| k.max(prev + 1)));
    }
    out
}

/// The subquery thresholds of `n` distinct queries over `pop`.
fn thresholds(inputs: &Inputs, pop: &Population, n: usize) -> Vec<u32> {
    if pop.name == "sports" {
        spread(inputs.sports_k, n, 0.4, 1.8)
    } else {
        spread(10, n, 0.5, 3.0)
    }
}

fn subquery(inputs: &Inputs, pop: &Population, k: u32) -> String {
    if pop.name == "sports" {
        skyband_condition(pop.name, k)
    } else {
        neighbors_condition(pop.name, inputs.neighbors_d, k)
    }
}

/// One slot of an op mix: the population (0 = sports, 1 = neighbors)
/// and the target of every op that lands on the slot.
pub type Slot = (usize, Target);

/// Op `i` of a list takes slot `i mod len`.
///
/// Subqueries over `neighbors` cost about twice those over `sports`,
/// so an op list is a mixture of cost classes. A percentile that
/// falls *between* two classes interpolates across the gap and moves
/// with a single op's jitter; a mix is therefore weighted so that the
/// median and the p90 of a pass each fall inside one class (README,
/// "Op mixes").
fn slots_of(mix: &[Slot], q: usize) -> impl Iterator<Item = (usize, Slot, usize)> + '_ {
    let mut used = [0usize; 2];
    (0..q).map(move |i| {
        let slot = mix[i % mix.len()];
        let nth = used[slot.0];
        used[slot.0] += 1;
        (i, slot, nth)
    })
}

/// Per population, the distinct thresholds of its share of `q` ops.
fn thresholds_for(inputs: &Inputs, mix: &[Slot], q: usize) -> [Vec<u32>; 2] {
    let mut n = [0usize; 2];
    for (_, (pop, _), _) in slots_of(mix, q) {
        n[pop] += 1;
    }
    let pops = inputs.populations();
    [
        thresholds(inputs, pops[0], n[0]),
        thresholds(inputs, pops[1], n[1]),
    ]
}

/// `q` distinct monolithic correlated-subquery counts following
/// `mix`, thresholds varied within each population.
pub fn monolithic_ops(inputs: &Inputs, q: usize, mix: &[Slot], fresh: bool) -> Vec<Op> {
    let ks = thresholds_for(inputs, mix, q);
    slots_of(mix, q)
        .map(|(i, (p, target), nth)| {
            let pop = inputs.populations()[p];
            let k = ks[p][nth];
            Op {
                id: i as u64,
                dataset: pop.name,
                condition: subquery(inputs, pop, k),
                target,
                fresh,
                truth: count_below(&pop.counts, k, |_| true),
            }
        })
        .collect()
}

/// Shares of rows the cheap conjunct keeps, cycled within each
/// population of the planned ops.
pub const KEEP_SHARES: [f64; 5] = [0.30, 0.20, 0.12, 0.06, 0.025];

/// `q` distinct `cheap_conjunct AND subquery` counts following `mix`:
/// the cheap conjunct is a threshold on the first query column at a
/// percentile of that column (so it keeps a stable share of rows at
/// any seed).
pub fn planned_ops(inputs: &Inputs, q: usize, mix: &[Slot]) -> Vec<Op> {
    let ks = thresholds_for(inputs, mix, q);
    slots_of(mix, q)
        .map(|(i, (p, target), nth)| {
            let pop = inputs.populations()[p];
            let k = ks[p][nth];
            let keep = KEEP_SHARES[nth % KEEP_SHARES.len()];
            // Round-trip the printed threshold so truth applies the
            // number the service parses.
            let text = format!("{:.6}", pop.x_quantile(1.0 - keep));
            let t: f64 = text.parse().expect("printed float parses");
            Op {
                id: i as u64,
                dataset: pop.name,
                condition: format!("{} > {text} AND {}", pop.cols[0], subquery(inputs, pop, k)),
                target,
                fresh: false,
                truth: count_below(&pop.counts, k, |row| pop.xs[row] > t),
            }
        })
        .collect()
}

/// `q` ops cycling over `working_set` (ids `id_base..`, so every pass
/// sends identical requests), each marked `fresh` or not.
pub fn cycle_ops(working_set: &[Op], q: usize, id_base: u64, fresh: bool) -> Vec<Op> {
    (0..q)
        .map(|i| Op {
            id: id_base + i as u64,
            fresh,
            ..working_set[i % working_set.len()].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_strictly_increasing_even_for_tiny_bases() {
        assert_eq!(spread(10, 5, 0.5, 3.0), vec![5, 11, 18, 24, 30]);
        let tiny = spread(2, 6, 0.4, 1.8);
        assert!(tiny.windows(2).all(|w| w[0] < w[1]), "{tiny:?}");
        assert_eq!(spread(7, 1, 0.4, 1.8), vec![3]);
    }

    #[test]
    fn op_lists_are_a_pure_function_of_the_seed() {
        let a = Inputs::generate(3, 300);
        let b = Inputs::generate(3, 300);
        let c = Inputs::generate(4, 300);
        let mix = [
            (0, Target::Budget(200)),
            (0, Target::Budget(300)),
            (1, Target::Budget(200)),
        ];
        let planned = [(0, Target::RelWidth(0.05)), (1, Target::RelWidth(0.05))];
        let list = |i: &Inputs| -> Vec<(String, usize)> {
            monolithic_ops(i, 8, &mix, false)
                .into_iter()
                .chain(planned_ops(i, 8, &planned))
                .map(|op| (op.line(), op.truth))
                .collect()
        };
        assert_eq!(list(&a), list(&b));
        assert_ne!(list(&a), list(&c));
        // Distinct queries, datasets and targets as the mix says.
        let ops = monolithic_ops(&a, 8, &mix, false);
        let mut conditions: Vec<&str> = ops.iter().map(|o| o.condition.as_str()).collect();
        conditions.sort_unstable();
        conditions.dedup();
        assert_eq!(conditions.len(), 8);
        let datasets: Vec<&str> = ops.iter().map(|o| o.dataset).collect();
        assert_eq!(
            datasets,
            [
                "sports",
                "sports",
                "neighbors",
                "sports",
                "sports",
                "neighbors",
                "sports",
                "sports"
            ]
        );
        assert_eq!(ops[4].target, Target::Budget(300));
        assert!(ops[0]
            .line()
            .starts_with("count sports budget=200 id=0 :: (SELECT"));
        // A cycled list repeats its working set with fresh ids.
        let cyc = cycle_ops(&ops[..3], 7, 100, true);
        assert_eq!(cyc[3].condition, ops[0].condition);
        assert_eq!(cyc[6].id, 106);
        assert!(cyc[6].line().contains(" fresh id=106 "));
    }
}
