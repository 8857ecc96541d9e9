//! Classifier specifications: buildable, seedable descriptions of the
//! classifier families the paper evaluates (Figures 6–7).

use lts_learn::{
    Classifier, GaussianNb, Gbm, GbmConfig, Knn, Logistic, Mlp, RandomForest, RandomScores,
};

/// A buildable classifier description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifierSpec {
    /// k-nearest neighbours.
    Knn {
        /// Number of neighbours.
        k: usize,
    },
    /// Random forest.
    RandomForest {
        /// Number of trees (paper default 100).
        n_trees: usize,
    },
    /// Two-layer (5, 2) neural network.
    Mlp {
        /// Training epochs.
        epochs: usize,
    },
    /// Logistic regression.
    Logistic,
    /// Gaussian Naive Bayes.
    NaiveBayes,
    /// Gradient-boosted trees.
    Gbm {
        /// Number of boosting rounds.
        n_rounds: usize,
    },
    /// Adversarial random scores (§5.4.4 worst case).
    Random,
}

impl Default for ClassifierSpec {
    /// The paper's default: a random forest with 100 estimators.
    fn default() -> Self {
        ClassifierSpec::RandomForest { n_trees: 100 }
    }
}

impl ClassifierSpec {
    /// Instantiate an unfitted classifier with the given seed.
    pub fn build(&self, seed: u64) -> Box<dyn Classifier> {
        match *self {
            ClassifierSpec::Knn { k } => Box::new(Knn::new(k.max(1)).expect("k >= 1")),
            ClassifierSpec::RandomForest { n_trees } => {
                Box::new(RandomForest::with_trees(n_trees.max(1), seed))
            }
            ClassifierSpec::Mlp { epochs } => Box::new(Mlp::new(lts_learn::mlp::MlpConfig {
                epochs: epochs.max(1),
                seed,
                ..lts_learn::mlp::MlpConfig::default()
            })),
            ClassifierSpec::Logistic => Box::new(Logistic::default()),
            ClassifierSpec::NaiveBayes => Box::new(GaussianNb::default()),
            ClassifierSpec::Gbm { n_rounds } => Box::new(Gbm::new(GbmConfig {
                n_rounds: n_rounds.max(1),
                ..GbmConfig::default()
            })),
            ClassifierSpec::Random => Box::new(RandomScores::new(seed)),
        }
    }

    /// The family's display label, as the paper's figures name it.
    pub fn label(&self) -> &'static str {
        match self {
            ClassifierSpec::Knn { .. } => "KNN",
            ClassifierSpec::RandomForest { .. } => "RF",
            ClassifierSpec::Mlp { .. } => "NN",
            ClassifierSpec::Logistic => "LOGIT",
            ClassifierSpec::NaiveBayes => "GNB",
            ClassifierSpec::Gbm { .. } => "GBM",
            ClassifierSpec::Random => "Random",
        }
    }

    /// The specs used in the paper's classifier-comparison figures.
    pub fn paper_lineup() -> Vec<ClassifierSpec> {
        vec![
            ClassifierSpec::Knn { k: 5 },
            ClassifierSpec::Mlp { epochs: 200 },
            ClassifierSpec::RandomForest { n_trees: 100 },
            ClassifierSpec::Random,
        ]
    }

    /// The paper lineup plus this reproduction's extra families
    /// (logistic regression, Gaussian NB, gradient boosting), for the
    /// extended Figure-6/7 sweeps.
    pub fn extended_lineup() -> Vec<ClassifierSpec> {
        let mut lineup = Self::paper_lineup();
        lineup.insert(3, ClassifierSpec::Logistic);
        lineup.insert(4, ClassifierSpec::NaiveBayes);
        lineup.insert(5, ClassifierSpec::Gbm { n_rounds: 50 });
        lineup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_learn::Matrix;

    #[test]
    fn builds_every_kind() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = [false, false, true, true];
        for spec in [
            ClassifierSpec::Knn { k: 3 },
            ClassifierSpec::RandomForest { n_trees: 5 },
            ClassifierSpec::Mlp { epochs: 10 },
            ClassifierSpec::Logistic,
            ClassifierSpec::NaiveBayes,
            ClassifierSpec::Gbm { n_rounds: 5 },
            ClassifierSpec::Random,
        ] {
            let mut c = spec.build(7);
            c.fit(&x, &y).unwrap();
            let s = c.score(&[1.5]).unwrap();
            assert!((0.0..=1.0).contains(&s), "{spec:?}: {s}");
        }
    }

    #[test]
    fn kinds_and_lineup() {
        assert_eq!(ClassifierSpec::default().label(), "RF");
        let lineup = ClassifierSpec::paper_lineup();
        let labels: Vec<&str> = lineup.iter().map(ClassifierSpec::label).collect();
        assert_eq!(labels, ["KNN", "NN", "RF", "Random"]);
        let extended = ClassifierSpec::extended_lineup();
        let labels: Vec<&str> = extended.iter().map(ClassifierSpec::label).collect();
        assert_eq!(
            labels,
            ["KNN", "NN", "RF", "LOGIT", "GNB", "GBM", "Random"],
            "Random stays last as the worst-case anchor"
        );
    }
}
