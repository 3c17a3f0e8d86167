//! # pv-ml — from-scratch machine learning for distribution prediction
//!
//! The paper compares three regression models for predicting performance
//! distributions (Section III-B3): **k-nearest neighbours** with cosine
//! similarity (k = 15), **random forests**, and **XGBoost**-style gradient
//! boosting. This crate implements all three from scratch as *multi-output*
//! regressors — the prediction target is a whole feature vector (histogram
//! bins or four moments), not a scalar — plus the supporting machinery:
//!
//! * [`dataset`] — dense row-major feature/target matrices with group
//!   labels (the paper's groups are benchmarks, for leave-one-group-out
//!   cross-validation),
//! * [`scaler`] — feature standardization,
//! * [`distance`] — Euclidean / Manhattan / cosine / Chebyshev metrics,
//! * [`kernel`] — vectorized distance kernels: the blocked batch-kNN
//!   path (lane-order contracts in DESIGN.md),
//! * [`knn`] — multi-output kNN with uniform or inverse-distance weights,
//! * [`tree`] — multi-output CART regression trees (variance-sum
//!   impurity),
//! * [`forest`] — bagged random forests, trained in parallel with rayon,
//! * [`gbt`] — gradient-boosted trees with XGBoost-style L2-regularized
//!   leaf weights and shrinkage,
//! * [`cv`] — leave-one-group-out and k-fold cross-validation,
//! * [`metrics`] — MSE / MAE / R².
//!
//! All models implement the [`Regressor`] trait so the prediction
//! pipelines in `pv-core` can swap them freely.

pub mod cv;
pub mod dataset;
pub mod distance;
pub mod forest;
pub mod gbt;
pub mod importance;
pub mod kernel;
pub mod knn;
pub mod metrics;
pub mod scaler;
pub mod tree;

pub use dataset::{Dataset, DatasetView, DenseMatrix, RowsView};
pub use distance::Distance;
pub use forest::{MaxFeatures, RandomForestRegressor};
pub use gbt::GradientBoostingRegressor;
pub use importance::{forest_importances, permutation_importance};
pub use knn::{KnnRegressor, WeightScheme};
pub use scaler::StandardScaler;
pub use tree::RegressionTree;

/// Result alias re-using the statistical substrate's error type.
pub type Result<T> = std::result::Result<T, pv_stats::StatsError>;

/// A trained multi-output regression model.
///
/// `fit` consumes a [`Dataset`] (features `n×d`, targets `n×t`); `predict`
/// maps one feature row to a `t`-vector.
pub trait Regressor: Send + Sync {
    /// Trains the model on the given dataset.
    ///
    /// # Errors
    /// Fails on shape mismatches or empty data.
    fn fit(&mut self, data: &Dataset) -> Result<()>;

    /// Predicts the target vector for one feature row.
    ///
    /// # Errors
    /// Fails when the model is not fitted or the row width is wrong.
    fn predict(&self, x: &[f64]) -> Result<Vec<f64>>;

    /// Predicts for a batch of rows (default: row-by-row).
    ///
    /// # Errors
    /// Propagates per-row prediction failures.
    fn predict_batch(&self, xs: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = Vec::new();
        let mut width = 0;
        for r in 0..xs.rows() {
            let y = self.predict(xs.row(r))?;
            width = y.len();
            out.extend_from_slice(&y);
        }
        DenseMatrix::from_flat(xs.rows(), width, out)
    }
}
