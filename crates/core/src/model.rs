//! Model selection facade over `pv-ml`.
//!
//! Section III-B3: the paper compares kNN (k = 15, cosine similarity),
//! random forests, and XGBoost. [`ModelKind`] instantiates each with the
//! hyper-parameters used throughout the evaluation.

use serde::{Deserialize, Serialize};

use pv_ml::{
    Distance, GradientBoostingRegressor, KnnRegressor, MaxFeatures, RandomForestRegressor,
    Regressor,
};
use pv_stats::StatsError;

/// Which regression model to use — the second comparison axis of
/// Figs. 4 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// k-nearest neighbours, k = 15, cosine distance (the paper's pick).
    Knn,
    /// Random forest (100 trees, √d features).
    RandomForest,
    /// XGBoost-style gradient boosting.
    XgBoost,
}

impl ModelKind {
    /// All three models, in the paper's presentation order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Knn, ModelKind::RandomForest, ModelKind::XgBoost];

    /// Whether the model wants standardized features. All three do: the
    /// per-second counters span nine orders of magnitude, and cosine
    /// similarity over raw rates would be dominated by the few largest
    /// counters (we measured that variant at ~0.06 worse mean KS — the
    /// higher-moment profile features carry real shape information that
    /// standardization exposes). Tree models are scale-free but keeping
    /// one code path is simpler than special-casing them.
    pub fn wants_standardization(&self) -> bool {
        true
    }

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Knn => "kNN",
            ModelKind::RandomForest => "RandomForest",
            ModelKind::XgBoost => "XGBoost",
        }
    }

    /// The concrete kNN instance whose prediction is a pure function of
    /// its neighbour *set* (the mean of the neighbours' unscaled target
    /// rows, accumulated in ascending row order), or `None` for models whose predictions depend on more
    /// than neighbour identity.
    ///
    /// This is what makes the incremental fold cache's delta path sound
    /// (see [`crate::incremental`]): when a corpus grows, every fold's
    /// standardization — and hence every distance — changes, but if the
    /// held-out query's neighbour set is unchanged, the kNN prediction
    /// (and everything downstream of it) is bit-identical. Must instantiate exactly what [`Self::build`]
    /// builds for [`ModelKind::Knn`]; a unit test pins the two together.
    pub fn neighbor_delta_model(&self) -> Option<KnnRegressor> {
        match self {
            ModelKind::Knn => Some(KnnRegressor::new(15).with_distance(Distance::Cosine)),
            ModelKind::RandomForest | ModelKind::XgBoost => None,
        }
    }

    /// Instantiates an unfitted model with the evaluation
    /// hyper-parameters. `seed` drives any internal randomness (bagging,
    /// feature subsampling); kNN ignores it.
    pub fn build(&self, seed: u64) -> Box<dyn Regressor> {
        match self.build_fitted(seed) {
            FittedModel::Knn(m) => Box::new(m),
            FittedModel::RandomForest(m) => Box::new(m),
            FittedModel::XgBoost(m) => Box::new(m),
        }
    }

    /// [`Self::build`] in concrete, serializable form: the same unfitted
    /// model instance, but as a [`FittedModel`] enum rather than a trait
    /// object, so that after fitting its full state (split thresholds,
    /// stored rows, leaf values) can round-trip through the model
    /// registry. A unit test pins this to `build`.
    ///
    /// Tree models use the histogram (binned) split kernel; its accuracy
    /// against exhaustive exact splits is gated by
    /// `tests/kernel_parity.rs` (DESIGN.md §10).
    pub fn build_fitted(&self, seed: u64) -> FittedModel {
        match self {
            ModelKind::Knn => {
                FittedModel::Knn(KnnRegressor::new(15).with_distance(Distance::Cosine))
            }
            ModelKind::RandomForest => FittedModel::RandomForest(
                RandomForestRegressor::new(100)
                    .with_max_depth(14)
                    .with_max_features(MaxFeatures::Sqrt)
                    .with_binned(true)
                    .with_seed(seed),
            ),
            ModelKind::XgBoost => FittedModel::XgBoost(
                GradientBoostingRegressor::new(80)
                    .with_learning_rate(0.1)
                    .with_max_depth(3)
                    .with_lambda(1.0)
                    .with_subsample(0.9)
                    .with_binned(true)
                    .with_seed(seed),
            ),
        }
    }
}

/// A (possibly fitted) regression model in concrete form.
///
/// A [`crate::Predictor`] holds this instead of a `Box<dyn Regressor>`,
/// so a trained model's state is a plain serde value: the registry
/// serializes it verbatim, and a deserialized copy predicts
/// bit-identically to the original (pinned by
/// `tests/serving_equivalence.rs`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FittedModel {
    /// k-nearest neighbours — stores the (scaled) training rows.
    Knn(KnnRegressor),
    /// Random forest — stores every tree's split structure.
    RandomForest(RandomForestRegressor),
    /// Gradient boosting — stores base scores and per-round trees.
    XgBoost(GradientBoostingRegressor),
}

impl FittedModel {
    /// Which [`ModelKind`] this model is an instance of.
    pub fn kind(&self) -> ModelKind {
        match self {
            FittedModel::Knn(_) => ModelKind::Knn,
            FittedModel::RandomForest(_) => ModelKind::RandomForest,
            FittedModel::XgBoost(_) => ModelKind::XgBoost,
        }
    }

    /// The model as an abstract regressor.
    pub fn regressor(&self) -> &dyn Regressor {
        match self {
            FittedModel::Knn(m) => m,
            FittedModel::RandomForest(m) => m,
            FittedModel::XgBoost(m) => m,
        }
    }

    /// The model as a mutable abstract regressor (for fitting).
    pub fn regressor_mut(&mut self) -> &mut dyn Regressor {
        match self {
            FittedModel::Knn(m) => m,
            FittedModel::RandomForest(m) => m,
            FittedModel::XgBoost(m) => m,
        }
    }
}

impl std::str::FromStr for ModelKind {
    type Err = StatsError;

    /// Parses a display name case-insensitively (`"knn"`,
    /// `"randomforest"` / `"rf"`, `"xgboost"` / `"xgb"`), as used by the
    /// `repro sweep` command line.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "knn" => Ok(ModelKind::Knn),
            "randomforest" | "rf" | "forest" => Ok(ModelKind::RandomForest),
            "xgboost" | "xgb" | "gbt" => Ok(ModelKind::XgBoost),
            _ => Err(StatsError::invalid(
                "ModelKind::from_str",
                format!("unknown model {s:?} (expected kNN, RandomForest, or XGBoost)"),
            )),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pv_ml::{Dataset, DenseMatrix};

    fn tiny_dataset() -> Dataset {
        let x = DenseMatrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.2, 0.8],
        ])
        .unwrap();
        let y = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![1.5], vec![1.2]]).unwrap();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn every_kind_builds_fits_and_predicts() {
        for kind in ModelKind::ALL {
            let mut m = kind.build(7);
            m.fit(&tiny_dataset()).unwrap();
            let p = m.predict(&[0.4, 0.6]).unwrap();
            assert_eq!(p.len(), 1, "{}", kind.name());
            assert!(p[0].is_finite());
        }
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(ModelKind::Knn.name(), "kNN");
        assert_eq!(ModelKind::RandomForest.name(), "RandomForest");
        assert_eq!(ModelKind::XgBoost.name(), "XGBoost");
    }

    #[test]
    fn display_names_parse_back() {
        for kind in ModelKind::ALL {
            assert_eq!(kind.name().parse::<ModelKind>().unwrap(), kind);
        }
        assert_eq!("rf".parse::<ModelKind>().unwrap(), ModelKind::RandomForest);
        assert!("perceptron".parse::<ModelKind>().is_err());
    }

    #[test]
    fn neighbor_delta_model_matches_build() {
        // The delta-path kNN must be the exact model `build` runs, or the
        // incremental cache would verify one model and reuse another's
        // score.
        let data = tiny_dataset();
        let mut built = ModelKind::Knn.build(7);
        built.fit(&data).unwrap();
        let mut delta = ModelKind::Knn.neighbor_delta_model().unwrap();
        delta.fit(&data).unwrap();
        let q = [0.4, 0.6];
        assert_eq!(built.predict(&q).unwrap(), delta.predict(&q).unwrap());
        // Only kNN is neighbour-delta eligible.
        assert!(ModelKind::RandomForest.neighbor_delta_model().is_none());
        assert!(ModelKind::XgBoost.neighbor_delta_model().is_none());
    }

    #[test]
    fn build_fitted_matches_build() {
        // The registry serializes what `build_fitted` fits; it must be
        // the exact model the evaluation path (`build`) runs.
        let data = tiny_dataset();
        let q = [0.4, 0.6];
        for kind in ModelKind::ALL {
            let mut boxed = kind.build(7);
            boxed.fit(&data).unwrap();
            let mut concrete = kind.build_fitted(7);
            assert_eq!(concrete.kind(), kind);
            concrete.regressor_mut().fit(&data).unwrap();
            assert_eq!(
                boxed.predict(&q).unwrap(),
                concrete.regressor().predict(&q).unwrap(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn seeded_models_are_deterministic() {
        for kind in [ModelKind::RandomForest, ModelKind::XgBoost] {
            let mut a = kind.build(3);
            let mut b = kind.build(3);
            a.fit(&tiny_dataset()).unwrap();
            b.fit(&tiny_dataset()).unwrap();
            assert_eq!(
                a.predict(&[0.3, 0.7]).unwrap(),
                b.predict(&[0.3, 0.7]).unwrap(),
                "{}",
                kind.name()
            );
        }
    }
}
