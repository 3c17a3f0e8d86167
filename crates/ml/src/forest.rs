//! Random forest regression: bootstrap-aggregated CART trees.
//!
//! Trees are trained in parallel with rayon; each tree derives its own RNG
//! stream from `(seed, tree_index)`, so the fitted forest is identical for
//! any thread count.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::tree::{validate_fit_input, BinnedFeatures, RegressionTree, TreeConfig};
use crate::{Regressor, Result};

/// Per-node feature subsampling policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum MaxFeatures {
    /// All features at every node (bagged trees).
    All,
    /// `⌈√d⌉` features per node — the standard forest default.
    #[default]
    Sqrt,
    /// A fixed fraction of the features (clamped to `[1, d]`).
    Fraction(f64),
}

impl MaxFeatures {
    fn resolve(&self, d: usize) -> usize {
        match self {
            MaxFeatures::All => d,
            MaxFeatures::Sqrt => (d as f64).sqrt().ceil() as usize,
            MaxFeatures::Fraction(f) => ((d as f64 * f).round() as usize).clamp(1, d),
        }
        .clamp(1, d)
    }
}

/// A bootstrap-aggregated ensemble of regression trees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestRegressor {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Feature subsampling policy.
    pub max_features: MaxFeatures,
    /// Whether to bootstrap rows (true = classic bagging).
    pub bootstrap: bool,
    /// Use histogram (pre-binned) split finding in every tree; see
    /// [`TreeConfig::binned`]. Off in this constructor's defaults; the
    /// evaluation forest (`pv_core::ModelKind::RandomForest`) turns it
    /// on.
    pub binned: bool,
    /// Root RNG seed.
    pub seed: u64,
    trees: Vec<RegressionTree>,
    n_outputs: usize,
}

impl Default for RandomForestRegressor {
    fn default() -> Self {
        RandomForestRegressor::new(100)
    }
}

impl RandomForestRegressor {
    /// Creates a forest with scikit-learn-like defaults.
    pub fn new(n_trees: usize) -> Self {
        RandomForestRegressor {
            n_trees,
            max_depth: 16,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            binned: false,
            seed: 0,
            trees: Vec::new(),
            n_outputs: 0,
        }
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: maximum depth.
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Builder: feature policy.
    pub fn with_max_features(mut self, m: MaxFeatures) -> Self {
        self.max_features = m;
        self
    }

    /// Builder: row bootstrapping on/off.
    pub fn with_bootstrap(mut self, b: bool) -> Self {
        self.bootstrap = b;
        self
    }

    /// Builder: histogram (pre-binned) split finding on/off.
    pub fn with_binned(mut self, b: bool) -> Self {
        self.binned = b;
        self
    }

    /// The fitted trees (empty when unfitted); used by
    /// [`crate::importance::forest_importances`].
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        let _timer = pv_obs::timed!("pv.ml.forest.fit_ns");
        if self.n_trees == 0 {
            return Err(StatsError::invalid(
                "RandomForestRegressor",
                "n_trees must be ≥ 1",
            ));
        }
        if data.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "RandomForestRegressor::fit",
                needed: 1,
                got: 0,
            });
        }
        validate_fit_input(data)?;
        let n = data.len();
        let d = data.n_features();
        let max_feats = self.max_features.resolve(d);
        let seed = self.seed;
        let bootstrap = self.bootstrap;
        let binned = self.binned;
        let max_depth = self.max_depth;
        let min_leaf = self.min_samples_leaf;

        // One bin table serves the whole forest: binning only reads the
        // feature matrix, and every bootstrap row is a copy of an
        // original row, so each tree reads its rows through its
        // bootstrap draw instead of copying a replicate.
        let shared_bins = binned.then(|| BinnedFeatures::build(&data.x));
        let trees: Vec<RegressionTree> = (0..self.n_trees)
            .into_par_iter()
            .map(|t| {
                let stream = derive_stream(seed, t as u64);
                let mut rng = Xoshiro256pp::seed_from_u64(stream);
                let rows: Vec<usize> = if bootstrap {
                    (0..n).map(|_| rng.gen_range(0..n)).collect()
                } else {
                    (0..n).collect()
                };
                let cfg = TreeConfig {
                    max_depth,
                    min_samples_split: 2 * min_leaf.max(1),
                    min_samples_leaf: min_leaf,
                    max_features: Some(max_feats),
                    leaf_lambda: 0.0,
                    seed: derive_stream(stream, 1),
                    binned,
                };
                let mut tree = RegressionTree::new(cfg);
                tree.fit_rows(&data.x, &data.y, rows, shared_bins.as_ref(), None);
                tree
            })
            .collect();
        self.trees = trees;
        self.n_outputs = data.n_outputs();
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>> {
        let _timer = pv_obs::timed!("pv.ml.forest.predict_ns");
        if self.trees.is_empty() {
            return Err(StatsError::invalid(
                "RandomForestRegressor",
                "model not fitted",
            ));
        }
        let mut acc = vec![0.0; self.n_outputs];
        for tree in &self.trees {
            let p = tree.predict(x)?;
            for (a, v) in acc.iter_mut().zip(&p) {
                *a += v;
            }
        }
        for a in acc.iter_mut() {
            *a /= self.trees.len() as f64;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DenseMatrix;

    /// y = x0 + 2·x1 on a grid, two outputs (second = −first).
    fn grid_dataset() -> Dataset {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let (a, b) = (i as f64, j as f64);
                rows.push(vec![a, b]);
                let v = a + 2.0 * b;
                ys.push(vec![v, -v]);
            }
        }
        Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn fits_a_smooth_function_reasonably() {
        let mut f = RandomForestRegressor::new(60).with_seed(1);
        let data = grid_dataset();
        f.fit(&data).unwrap();
        // In-distribution accuracy: relative error below ~15%.
        for (x, want) in [([3.0, 4.0], 11.0), ([8.0, 2.0], 12.0), ([5.0, 9.0], 23.0)] {
            let p = f.predict(&x).unwrap();
            assert!(
                (p[0] - want).abs() < 0.15 * want + 1.0,
                "predict({x:?}) = {p:?}, want ≈ {want}"
            );
            assert!((p[0] + p[1]).abs() < 1e-9, "outputs must mirror");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = grid_dataset();
        let mut f1 = RandomForestRegressor::new(20).with_seed(42);
        let mut f2 = RandomForestRegressor::new(20).with_seed(42);
        f1.fit(&data).unwrap();
        f2.fit(&data).unwrap();
        for x in [[0.0, 0.0], [7.0, 3.0], [11.0, 11.0]] {
            assert_eq!(f1.predict(&x).unwrap(), f2.predict(&x).unwrap());
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        let data = grid_dataset();
        let mut f1 = RandomForestRegressor::new(10).with_seed(1);
        let mut f2 = RandomForestRegressor::new(10).with_seed(2);
        f1.fit(&data).unwrap();
        f2.fit(&data).unwrap();
        let any_diff = [[1.5, 2.5], [6.5, 8.5], [10.5, 0.5]]
            .iter()
            .any(|x| f1.predict(x).unwrap() != f2.predict(x).unwrap());
        assert!(any_diff);
    }

    #[test]
    fn more_trees_reduce_error() {
        let data = grid_dataset();
        let err = |n_trees: usize| {
            let mut f = RandomForestRegressor::new(n_trees).with_seed(3);
            f.fit(&data).unwrap();
            let mut e = 0.0;
            for i in 0..12 {
                for j in 0..12 {
                    let p = f.predict(&[i as f64, j as f64]).unwrap();
                    e += (p[0] - (i as f64 + 2.0 * j as f64)).powi(2);
                }
            }
            e
        };
        assert!(err(50) < err(1));
    }

    #[test]
    fn without_bootstrap_and_all_features_reproduces_single_tree() {
        let data = grid_dataset();
        let mut f = RandomForestRegressor::new(5)
            .with_bootstrap(false)
            .with_max_features(MaxFeatures::All)
            .with_seed(9);
        f.fit(&data).unwrap();
        // All 5 trees see identical data and features → forest = one tree.
        let mut tree = RegressionTree::default_cart();
        tree.fit(&data).unwrap();
        for x in [[2.0, 2.0], [9.0, 4.0]] {
            let pf = f.predict(&x).unwrap();
            let pt = tree.predict(&x).unwrap();
            for (a, b) in pf.iter().zip(&pt) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Fraction(0.5).resolve(10), 5);
        assert_eq!(MaxFeatures::Fraction(0.0).resolve(10), 1);
        assert_eq!(MaxFeatures::Fraction(2.0).resolve(10), 10);
    }

    #[test]
    fn invalid_usage_errors() {
        let f = RandomForestRegressor::new(10);
        assert!(f.predict(&[1.0]).is_err()); // unfitted
        let mut f = RandomForestRegressor::new(0);
        assert!(f.fit(&grid_dataset()).is_err());
    }

    #[test]
    fn non_finite_input_is_rejected_at_fit_entry() {
        // A NaN anywhere is rejected up front with the tree's error,
        // whether or not any bootstrap draw would have picked its row.
        for (r, c, in_x) in [(5, 1, true), (77, 0, false)] {
            let mut data = grid_dataset();
            if in_x {
                data.x.set(r, c, f64::NAN);
            } else {
                data.y.set(r, c, f64::NAN);
            }
            for binned in [false, true] {
                let err = RandomForestRegressor::new(3)
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
}
