//! Gradient-boosted regression trees (XGBoost-style).
//!
//! For squared loss the second-order XGBoost objective reduces to fitting
//! each round's tree on the current residuals with L2-regularized leaf
//! weights `w* = Σresidual / (n_leaf + λ)` — exactly what
//! [`crate::tree::TreeConfig::leaf_lambda`] implements. Boosting is
//! multi-output: every round fits one multi-output tree on the full
//! residual matrix, and rounds are damped by the learning rate.

use serde::{Deserialize, Serialize};

use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::{Dataset, DenseMatrix};
use crate::tree::{
    validate_finite, validate_fit_input, BinnedFeatures, FeatureRanks, RegressionTree, TreeConfig,
};
use crate::{Regressor, Result};

/// Gradient-boosting hyper-parameters and fitted state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoostingRegressor {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to every round's contribution.
    pub learning_rate: f64,
    /// Depth of each weak learner (XGBoost default: 6; small data wants
    /// 2–3).
    pub max_depth: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Fraction of rows sampled (without replacement) per round; 1.0
    /// disables subsampling.
    pub subsample: f64,
    /// Root RNG seed (used only when `subsample < 1`).
    pub seed: u64,
    /// Use histogram (pre-binned) split finding in every round's tree;
    /// see [`TreeConfig::binned`]. Off in this constructor's defaults;
    /// the evaluation booster (`pv_core::ModelKind::XgBoost`) turns it
    /// on.
    pub binned: bool,
    base: Vec<f64>,
    trees: Vec<RegressionTree>,
}

impl Default for GradientBoostingRegressor {
    fn default() -> Self {
        GradientBoostingRegressor::new(100)
    }
}

impl GradientBoostingRegressor {
    /// Creates a booster with XGBoost-like defaults (η = 0.1, depth 3,
    /// λ = 1).
    pub fn new(n_rounds: usize) -> Self {
        GradientBoostingRegressor {
            n_rounds,
            learning_rate: 0.1,
            max_depth: 3,
            lambda: 1.0,
            subsample: 1.0,
            seed: 0,
            binned: false,
            base: Vec::new(),
            trees: Vec::new(),
        }
    }

    /// Builder: learning rate.
    pub fn with_learning_rate(mut self, eta: f64) -> Self {
        self.learning_rate = eta;
        self
    }

    /// Builder: weak-learner depth.
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Builder: leaf L2 regularization.
    pub fn with_lambda(mut self, l: f64) -> Self {
        self.lambda = l;
        self
    }

    /// Builder: per-round row subsampling fraction.
    pub fn with_subsample(mut self, s: f64) -> Self {
        self.subsample = s;
        self
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: histogram (pre-binned) split finding on/off.
    pub fn with_binned(mut self, b: bool) -> Self {
        self.binned = b;
        self
    }
}

impl Regressor for GradientBoostingRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        let _timer = pv_obs::timed!("pv.ml.gbt.fit_ns");
        if self.n_rounds == 0 {
            return Err(StatsError::invalid(
                "GradientBoostingRegressor",
                "n_rounds must be ≥ 1",
            ));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate <= 1.0) {
            return Err(StatsError::invalid(
                "GradientBoostingRegressor",
                format!("learning_rate must be in (0,1], got {}", self.learning_rate),
            ));
        }
        if !(0.0 < self.subsample && self.subsample <= 1.0) {
            return Err(StatsError::invalid(
                "GradientBoostingRegressor",
                format!("subsample must be in (0,1], got {}", self.subsample),
            ));
        }
        if data.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "GradientBoostingRegressor::fit",
                needed: 1,
                got: 0,
            });
        }
        validate_fit_input(data)?;
        let n = data.len();
        let t = data.n_outputs();

        // Base prediction: per-output mean.
        let mut base = vec![0.0; t];
        for r in 0..n {
            for (b, &y) in base.iter_mut().zip(data.y.row(r)) {
                *b += y;
            }
        }
        for b in base.iter_mut() {
            *b /= n as f64;
        }

        // Current ensemble prediction per training row.
        let mut current = DenseMatrix::zeros(n, t);
        for r in 0..n {
            current.row_mut(r).copy_from_slice(&base);
        }

        let mut trees = Vec::with_capacity(self.n_rounds);
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        // Residuals change every round but the feature matrix never
        // does, and binning and ranking only read features — so one bin
        // table and one rank table serve all rounds, and each round's
        // tree reads features and residuals through its subsample's row
        // list instead of a per-round copy.
        let shared_bins = self.binned.then(|| BinnedFeatures::build(&data.x));
        let ranks = FeatureRanks::build(&data.x);
        let mut resid = DenseMatrix::zeros(n, t);
        for round in 0..self.n_rounds {
            // Residual matrix for this round.
            for r in 0..n {
                for c in 0..t {
                    resid.set(r, c, data.y.get(r, c) - current.get(r, c));
                }
            }
            validate_finite(&resid)?;
            // Row subsample (without replacement).
            let rows: Vec<usize> = if self.subsample < 1.0 {
                let m = ((n as f64 * self.subsample).round() as usize).clamp(1, n);
                let mut idx: Vec<usize> = (0..n).collect();
                for i in 0..m {
                    let j = rng.gen_range(i..n);
                    idx.swap(i, j);
                }
                idx.truncate(m);
                idx
            } else {
                (0..n).collect()
            };
            let cfg = TreeConfig {
                max_depth: self.max_depth,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: None,
                leaf_lambda: self.lambda,
                seed: derive_stream(self.seed, round as u64),
                binned: self.binned,
            };
            let mut tree = RegressionTree::new(cfg);
            tree.fit_rows(&data.x, &resid, rows, shared_bins.as_ref(), Some(&ranks));
            // Update the running prediction.
            for r in 0..n {
                let p = tree.predict(data.x.row(r))?;
                for (c, v) in p.iter().enumerate() {
                    let updated = current.get(r, c) + self.learning_rate * v;
                    current.set(r, c, updated);
                }
            }
            trees.push(tree);
        }
        self.base = base;
        self.trees = trees;
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>> {
        let _timer = pv_obs::timed!("pv.ml.gbt.predict_ns");
        if self.trees.is_empty() {
            return Err(StatsError::invalid(
                "GradientBoostingRegressor",
                "model not fitted",
            ));
        }
        let mut out = self.base.clone();
        for tree in &self.trees {
            let p = tree.predict(x)?;
            for (o, v) in out.iter_mut().zip(&p) {
                *o += self.learning_rate * v;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_dataset() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![r[0].sin() * 3.0, r[0].cos()])
            .collect();
        Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn fits_nonlinear_function() {
        let mut g = GradientBoostingRegressor::new(200).with_learning_rate(0.2);
        let data = sine_dataset();
        g.fit(&data).unwrap();
        for x in [0.5, 2.0, 4.5] {
            let p = g.predict(&[x]).unwrap();
            assert!(
                (p[0] - x.sin() * 3.0).abs() < 0.2,
                "predict({x}): {} vs {}",
                p[0],
                x.sin() * 3.0
            );
            assert!((p[1] - x.cos()).abs() < 0.15);
        }
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let data = sine_dataset();
        let err = |rounds: usize| {
            let mut g = GradientBoostingRegressor::new(rounds);
            g.fit(&data).unwrap();
            let mut e = 0.0;
            for r in 0..data.len() {
                let p = g.predict(data.x.row(r)).unwrap();
                e += (p[0] - data.y.get(r, 0)).powi(2);
            }
            e
        };
        let (e1, e10, e100) = (err(1), err(10), err(100));
        assert!(e10 < e1);
        assert!(e100 < e10);
    }

    #[test]
    fn zero_rounds_prediction_is_base_mean() {
        // One round with learning_rate → 0 approximates the base.
        let data = sine_dataset();
        let mut g = GradientBoostingRegressor::new(1).with_learning_rate(1e-9);
        g.fit(&data).unwrap();
        let p = g.predict(&[1.0]).unwrap();
        let mean0: f64 = (0..data.len()).map(|r| data.y.get(r, 0)).sum::<f64>() / data.len() as f64;
        assert!((p[0] - mean0).abs() < 1e-6);
    }

    #[test]
    fn heavy_lambda_shrinks_toward_base() {
        let data = sine_dataset();
        let mut light = GradientBoostingRegressor::new(20).with_lambda(0.0);
        let mut heavy = GradientBoostingRegressor::new(20).with_lambda(1e6);
        light.fit(&data).unwrap();
        heavy.fit(&data).unwrap();
        let base: f64 = (0..data.len()).map(|r| data.y.get(r, 0)).sum::<f64>() / 64.0;
        let x = [1.5];
        let dl = (light.predict(&x).unwrap()[0] - base).abs();
        let dh = (heavy.predict(&x).unwrap()[0] - base).abs();
        assert!(dh < dl, "heavy λ must stay closer to the base");
        assert!(dh < 1e-3);
    }

    #[test]
    fn subsampling_is_deterministic_per_seed() {
        let data = sine_dataset();
        let mut g1 = GradientBoostingRegressor::new(30)
            .with_subsample(0.5)
            .with_seed(11);
        let mut g2 = GradientBoostingRegressor::new(30)
            .with_subsample(0.5)
            .with_seed(11);
        g1.fit(&data).unwrap();
        g2.fit(&data).unwrap();
        for x in [0.3, 3.3, 6.0] {
            assert_eq!(g1.predict(&[x]).unwrap(), g2.predict(&[x]).unwrap());
        }
    }

    #[test]
    fn invalid_parameters_error() {
        let data = sine_dataset();
        assert!(GradientBoostingRegressor::new(0).fit(&data).is_err());
        assert!(GradientBoostingRegressor::new(5)
            .with_learning_rate(0.0)
            .fit(&data)
            .is_err());
        assert!(GradientBoostingRegressor::new(5)
            .with_learning_rate(1.5)
            .fit(&data)
            .is_err());
        assert!(GradientBoostingRegressor::new(5)
            .with_subsample(0.0)
            .fit(&data)
            .is_err());
        let g = GradientBoostingRegressor::new(5);
        assert!(g.predict(&[1.0]).is_err()); // unfitted
    }

    #[test]
    fn non_finite_input_is_rejected_at_fit_entry() {
        for (r, c, in_x) in [(9, 0, true), (40, 1, false)] {
            let mut data = sine_dataset();
            if in_x {
                data.x.set(r, c, f64::NAN);
            } else {
                data.y.set(r, c, f64::NAN);
            }
            for binned in [false, true] {
                let err = GradientBoostingRegressor::new(5)
                    .with_subsample(0.5)
                    .with_binned(binned)
                    .fit(&data)
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        StatsError::NonFinite {
                            what: "RegressionTree::fit"
                        }
                    ),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn non_finite_residuals_are_rejected() {
        // Finite but huge targets pass the entry check, then overflow
        // the base mean to inf: the round's residuals are non-finite and
        // must be refused, not fitted.
        let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![if i < 4 { f64::MAX } else { -f64::MAX }])
            .collect();
        let data = Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap();
        let err = GradientBoostingRegressor::new(3)
            .with_learning_rate(1.0)
            .with_lambda(0.0)
            .fit(&data)
            .unwrap_err();
        assert!(
            matches!(
                err,
                StatsError::NonFinite {
                    what: "RegressionTree::fit"
                }
            ),
            "{err:?}"
        );
    }
}
