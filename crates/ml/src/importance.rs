//! Feature-importance estimation.
//!
//! Two complementary views, mirroring scikit-learn:
//!
//! * **impurity importance** — trees and forests expose the total split
//!   gain credited to each feature ([`crate::tree::RegressionTree::feature_importances`],
//!   [`forest_importances`]);
//! * **permutation importance** — model-agnostic: how much does the MSE
//!   degrade when one feature column is shuffled? Works for any
//!   [`Regressor`], including kNN, and is the tool a `perfvar` user needs
//!   to ask *"which perf counters actually drive the distribution
//!   prediction?"*.

use pv_stats::rng::{derive_stream, Xoshiro256pp};
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::{Dataset, DenseMatrix};
use crate::forest::RandomForestRegressor;
use crate::metrics::mse;
use crate::{Regressor, Result};

/// Mean impurity importance across a fitted forest's trees (normalized to
/// sum to 1; empty when unfitted).
pub fn forest_importances(forest: &RandomForestRegressor) -> Vec<f64> {
    let trees = forest.trees();
    if trees.is_empty() {
        return Vec::new();
    }
    let d = trees[0].feature_importances().len();
    let mut acc = vec![0.0; d];
    for t in trees {
        for (a, v) in acc.iter_mut().zip(t.feature_importances()) {
            *a += v;
        }
    }
    let total: f64 = acc.iter().sum();
    if total > 0.0 {
        for a in acc.iter_mut() {
            *a /= total;
        }
    }
    acc
}

/// Permutation importance of every feature: the increase in MSE on
/// `data` when that feature's column is shuffled, averaged over
/// `n_repeats` shuffles. Larger = more important; ~0 (or negative) =
/// irrelevant.
///
/// # Errors
/// Propagates prediction failures; fails on an empty dataset.
pub fn permutation_importance<M: Regressor + ?Sized>(
    model: &M,
    data: &Dataset,
    n_repeats: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let base_pred = predict_rows(model, &data.x, data.n_outputs())?;
    let base_err = mse(&data.y, &base_pred)?;
    let n = data.len();
    let d = data.n_features();
    let mut out = vec![0.0; d];
    for (f, slot) in out.iter_mut().enumerate() {
        let mut total = 0.0;
        for rep in 0..n_repeats.max(1) {
            let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(seed, (f * 1009 + rep) as u64));
            // Shuffle column f with Fisher–Yates over a copy of X.
            let mut x = data.x.clone();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                let vi = x.get(i, f);
                let vj = x.get(j, f);
                x.set(i, f, vj);
                x.set(j, f, vi);
            }
            let pred = predict_rows(model, &x, data.n_outputs())?;
            total += mse(&data.y, &pred)? - base_err;
        }
        *slot = total / n_repeats.max(1) as f64;
    }
    Ok(out)
}

/// The model's `width`-wide prediction for every row of `x`, one
/// [`Regressor::predict`] per row.
fn predict_rows<M: Regressor + ?Sized>(
    model: &M,
    x: &DenseMatrix,
    width: usize,
) -> Result<DenseMatrix> {
    let mut out = Vec::with_capacity(x.rows() * width);
    for r in 0..x.rows() {
        out.extend(model.predict(x.row(r))?);
    }
    DenseMatrix::from_flat(x.rows(), width, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::KnnRegressor;
    use crate::tree::RegressionTree;
    use crate::Distance;

    /// y depends only on feature 0; feature 1 is noise.
    fn informative_dataset() -> Dataset {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let x0 = i as f64;
            let noise = ((i * 37) % 11) as f64;
            rows.push(vec![x0, noise]);
            ys.push(vec![3.0 * x0]);
        }
        Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn tree_impurity_importance_finds_the_signal() {
        let mut t = RegressionTree::default_cart();
        let data = informative_dataset();
        t.fit(&data).unwrap();
        let imp = t.feature_importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.9, "importances = {imp:?}");
    }

    #[test]
    fn stump_has_zero_importance() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let y = DenseMatrix::from_rows(&[vec![5.0], vec![5.0]]).unwrap();
        let mut t = RegressionTree::default_cart();
        t.fit(&Dataset::new(x, y).unwrap()).unwrap();
        assert_eq!(t.feature_importances(), &[0.0]);
    }

    #[test]
    fn forest_importance_aggregates_trees() {
        let mut f = RandomForestRegressor::new(20).with_seed(1);
        let data = informative_dataset();
        f.fit(&data).unwrap();
        let imp = forest_importances(&f);
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.7, "importances = {imp:?}");
    }

    #[test]
    fn unfitted_forest_importance_is_empty() {
        let f = RandomForestRegressor::new(5);
        assert!(forest_importances(&f).is_empty());
    }

    #[test]
    fn permutation_importance_ranks_features_for_knn() {
        let data = informative_dataset();
        let mut m = KnnRegressor::new(3).with_distance(Distance::Euclidean);
        m.fit(&data).unwrap();
        let imp = permutation_importance(&m, &data, 3, 7).unwrap();
        assert_eq!(imp.len(), 2);
        assert!(imp[0] > 10.0 * imp[1].max(1e-9), "importances = {imp:?}");
    }

    #[test]
    fn permutation_importance_is_deterministic() {
        let data = informative_dataset();
        let mut m = KnnRegressor::new(3).with_distance(Distance::Euclidean);
        m.fit(&data).unwrap();
        let a = permutation_importance(&m, &data, 2, 9).unwrap();
        let b = permutation_importance(&m, &data, 2, 9).unwrap();
        assert_eq!(a, b);
    }
}
