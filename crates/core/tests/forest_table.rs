//! The forest score table on the service's own forests: the 100-tree
//! proxy of `Lss::default()` (the configuration the service runs),
//! trained on both generated 8 000-row datasets at budgets 200 / 250 /
//! 300 and seeds 1 / 7, scores the population by table — never by
//! walking its trees — and `ScoredPopulation::score_rest` equals the
//! walk bit for bit. A regression to the walk fails here, not
//! only in the benchmark.

use lts_core::warm::train_proxy;
use lts_core::{ClassifierSpec, CountingProblem, Labeler, Lss, ScoredPopulation};
use lts_data::{neighbors_scenario, sports_scenario, SelectivityLevel};
use lts_learn::{Classifier, RandomForest};

const ROWS: usize = 8_000;

/// The node walk summed in tree order.
fn walk(forest: &RandomForest, row: &[f64]) -> f64 {
    let mut sum = 0.0;
    for tree in forest.trees() {
        sum += tree.score(row).unwrap();
    }
    sum / forest.trees().len() as f64
}

fn check(problem: &CountingProblem, name: &str, seed: u64) {
    let lss = Lss::default();
    assert_eq!(
        lss.learn.spec,
        ClassifierSpec::RandomForest { n_trees: 100 }
    );
    for budget in [200, 250, 300] {
        let train = lss.budget_split(budget).unwrap().train;
        let mut labeler = Labeler::new(problem);
        let proxy = train_proxy(problem, &lss.learn, train, seed, &mut labeler).unwrap();
        // The served proxy, rebuilt as its concrete type: every fit
        // re-seeds from the construction seed.
        let mut forest = RandomForest::with_trees(100, proxy.model_seed);
        forest
            .fit(&problem.features().gather(&proxy.labeled), &proxy.labels)
            .unwrap();
        let cells = forest.table_cells();
        assert!(
            cells.is_some(),
            "{name} seed {seed} budget {budget}: no score table"
        );
        let scored =
            ScoredPopulation::score_rest(problem, proxy.model.as_ref(), &proxy.labeled).unwrap();
        assert_eq!(scored.len(), ROWS - train);
        for (&id, &score) in scored.members().iter().zip(scored.scores()) {
            let want = walk(&forest, problem.features().row(id as usize));
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "{name} seed {seed} budget {budget} ({cells:?} cells): object {id}"
            );
        }
    }
}

#[test]
fn served_forests_score_by_table_and_match_the_walk() {
    for seed in [1, 7] {
        let sports = sports_scenario(ROWS, SelectivityLevel::M, seed).unwrap();
        check(&sports.problem, "sports", seed);
        let neighbors = neighbors_scenario(ROWS, SelectivityLevel::M, seed).unwrap();
        check(&neighbors.problem, "neighbors", seed);
    }
}
