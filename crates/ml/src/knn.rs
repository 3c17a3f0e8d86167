//! Multi-output k-nearest-neighbour regression.
//!
//! The paper's best model: k = 15 neighbours under cosine distance
//! (Section III-B3), averaging the neighbours' target vectors. Every
//! prediction takes one route: [`KnnRegressor::neighbors`] scores the
//! query against each training row (cosine with the norms cached at fit
//! time) and selects the k nearest, then the selected rows' targets are
//! averaged in ascending row order: the plain mean the paper describes.

use serde::{Deserialize, Serialize};

use pv_stats::StatsError;

use crate::dataset::{Dataset, DenseMatrix};
use crate::distance::{cosine_with_sq_norms, squared_norm, Distance};
use crate::{Regressor, Result};

/// The canonical neighbour *selection* order: ascending distance, ties
/// broken by training-row index. A total order (exact-tie handling
/// independent of scan order) makes the selected k-set deterministic, so
/// the incremental evaluator can compare neighbour sets computed over
/// different corpus generations.
#[inline]
fn canonical(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// k-nearest-neighbour regressor for vector targets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnRegressor {
    /// Number of neighbours (clamped to the training-set size at predict
    /// time).
    pub k: usize,
    /// Distance metric.
    pub distance: Distance,
    train_x: Option<DenseMatrix>,
    train_y: Option<DenseMatrix>,
    /// Per-row `Σx²`, computed once at fit time for cosine distance so
    /// predict stops re-deriving every candidate norm per query. `None`
    /// (other metrics) falls back to the bit-identical naive path.
    train_sq_norms: Option<Vec<f64>>,
}

impl KnnRegressor {
    /// Creates a regressor with the paper's distance, cosine.
    pub fn new(k: usize) -> Self {
        KnnRegressor {
            k,
            distance: Distance::Cosine,
            train_x: None,
            train_y: None,
            train_sq_norms: None,
        }
    }

    /// Builder: distance metric.
    pub fn with_distance(mut self, d: Distance) -> Self {
        self.distance = d;
        self
    }

    /// Indices and distances of the `k` nearest training rows to `x`,
    /// in [`canonical`] order (ascending distance, index-tie-broken).
    ///
    /// # Errors
    /// Fails when unfitted or on feature-width mismatch.
    pub fn neighbors(&self, x: &[f64]) -> Result<Vec<(usize, f64)>> {
        let (tx, _) = self.fitted()?;
        if x.len() != tx.cols() {
            return Err(StatsError::invalid(
                "KnnRegressor::predict",
                format!("row has {} features, model expects {}", x.len(), tx.cols()),
            ));
        }
        let mut dists: Vec<(usize, f64)> = match (self.distance, &self.train_sq_norms) {
            (Distance::Cosine, Some(norms)) => {
                let qn = squared_norm(x);
                (0..tx.rows())
                    .map(|r| (r, cosine_with_sq_norms(x, tx.row(r), qn, norms[r])))
                    .collect()
            }
            _ => (0..tx.rows())
                .map(|r| (r, self.distance.eval(x, tx.row(r))))
                .collect(),
        };
        let k = self.k.min(dists.len());
        // Partial selection then sort of the head: O(n + k log k).
        dists.select_nth_unstable_by(k - 1, canonical);
        dists.truncate(k);
        dists.sort_unstable_by(canonical);
        Ok(dists)
    }

    /// The neighbour row positions alone (no distances), sorted
    /// ascending — the canonical *set* representation the incremental
    /// fold cache stores and compares. Predictions are a pure function
    /// of this set ([`Self::predict`] accumulates in
    /// ascending row order), so two equal lists guarantee bit-identical
    /// predictions even when the distance ranking differs.
    ///
    /// # Errors
    /// Fails when unfitted or on feature-width mismatch.
    pub fn neighbor_indices(&self, x: &[f64]) -> Result<Vec<u32>> {
        let mut idx: Vec<u32> = self
            .neighbors(x)?
            .into_iter()
            .map(|(i, _)| i as u32)
            .collect();
        idx.sort_unstable();
        Ok(idx)
    }

    /// Turns a selected neighbour list into a prediction: the mean of
    /// the neighbours' target rows, summed in ascending row order, not
    /// distance rank. Float addition is commutative but not
    /// associative, so rank-order summation would let near-tie rank
    /// swaps move the prediction's last bits even when the neighbour set
    /// is unchanged. Row order makes the prediction a pure function of
    /// the neighbour set — the property the incremental fold cache's
    /// delta path relies on.
    fn predict_from_neighbors(&self, mut neigh: Vec<(usize, f64)>) -> Result<Vec<f64>> {
        neigh.sort_unstable_by_key(|&(idx, _)| idx);
        let (_, ty) = self.fitted()?;
        let mut out = vec![0.0; ty.cols()];
        for &(idx, _) in &neigh {
            for (o, v) in out.iter_mut().zip(ty.row(idx)) {
                *o += v;
            }
        }
        let count = neigh.len() as f64;
        for o in out.iter_mut() {
            *o /= count;
        }
        Ok(out)
    }

    fn fitted(&self) -> Result<(&DenseMatrix, &DenseMatrix)> {
        match (&self.train_x, &self.train_y) {
            (Some(x), Some(y)) => Ok((x, y)),
            _ => Err(StatsError::invalid("KnnRegressor", "model not fitted")),
        }
    }

    /// Fits on `data`, taking its rows instead of copying them, and
    /// answers one query from a single neighbour search: the prediction
    /// ([`Regressor::predict`]'s bits) and the neighbour row positions,
    /// ascending ([`Self::neighbor_indices`]'s list). A caller that owns
    /// its training set and needs both pays for no copy and one search.
    ///
    /// # Errors
    /// As [`Regressor::fit`], then as [`Self::neighbors`].
    pub fn fit_owned_query(mut self, data: Dataset, query: &[f64]) -> Result<(Vec<f64>, Vec<u32>)> {
        {
            let _timer = pv_obs::timed!("pv.ml.knn.fit_ns");
            self.store(data.x, data.y)?;
        }
        let _timer = pv_obs::timed!("pv.ml.knn.predict_ns");
        let neigh = self.neighbors(query)?;
        let mut idx: Vec<u32> = neigh.iter().map(|&(i, _)| i as u32).collect();
        idx.sort_unstable();
        Ok((self.predict_from_neighbors(neigh)?, idx))
    }

    /// Keeps the training rows (and, for cosine, their squared norms):
    /// the whole of a kNN fit.
    fn store(&mut self, x: DenseMatrix, y: DenseMatrix) -> Result<()> {
        if self.k == 0 {
            return Err(StatsError::invalid("KnnRegressor", "k must be ≥ 1"));
        }
        if x.rows() == 0 {
            return Err(StatsError::EmptyInput {
                what: "KnnRegressor::fit",
                needed: 1,
                got: 0,
            });
        }
        self.train_sq_norms = match self.distance {
            Distance::Cosine => Some((0..x.rows()).map(|r| squared_norm(x.row(r))).collect()),
            _ => None,
        };
        self.train_x = Some(x);
        self.train_y = Some(y);
        Ok(())
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        let _timer = pv_obs::timed!("pv.ml.knn.fit_ns");
        self.store(data.x.clone(), data.y.clone())
    }

    fn predict(&self, x: &[f64]) -> Result<Vec<f64>> {
        let _timer = pv_obs::timed!("pv.ml.knn.predict_ns");
        let neigh = self.neighbors(x)?;
        self.predict_from_neighbors(neigh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // Four points on a line; target = 10x (2 outputs: 10x and -x).
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![10.0, 10.0],
            vec![11.0, 11.0],
        ])
        .unwrap();
        let y = DenseMatrix::from_rows(&[
            vec![10.0, -1.0],
            vec![20.0, -2.0],
            vec![100.0, -10.0],
            vec![110.0, -11.0],
        ])
        .unwrap();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn one_nn_returns_nearest_target() {
        let mut m = KnnRegressor::new(1).with_distance(Distance::Euclidean);
        m.fit(&toy()).unwrap();
        assert_eq!(m.predict(&[1.1, 1.1]).unwrap(), vec![10.0, -1.0]);
        assert_eq!(m.predict(&[10.6, 10.6]).unwrap(), vec![110.0, -11.0]);
    }

    #[test]
    fn two_nn_averages_cluster() {
        let mut m = KnnRegressor::new(2).with_distance(Distance::Euclidean);
        m.fit(&toy()).unwrap();
        let p = m.predict(&[1.5, 1.5]).unwrap();
        assert_eq!(p, vec![15.0, -1.5]);
    }

    #[test]
    fn k_larger_than_dataset_uses_all_points() {
        let mut m = KnnRegressor::new(100).with_distance(Distance::Euclidean);
        m.fit(&toy()).unwrap();
        let p = m.predict(&[5.0, 5.0]).unwrap();
        assert_eq!(p, vec![60.0, -6.0]); // mean of all targets
    }

    #[test]
    fn cosine_distance_ignores_magnitude() {
        // Profiles (1,0) and (0,1); queries scaled arbitrarily.
        let x = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let y = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let mut m = KnnRegressor::new(1).with_distance(Distance::Cosine);
        m.fit(&Dataset::new(x, y).unwrap()).unwrap();
        assert_eq!(m.predict(&[1000.0, 1.0]).unwrap(), vec![1.0]);
        assert_eq!(m.predict(&[0.001, 0.9]).unwrap(), vec![2.0]);
    }

    #[test]
    fn neighbors_are_sorted_by_distance() {
        let mut m = KnnRegressor::new(3).with_distance(Distance::Euclidean);
        m.fit(&toy()).unwrap();
        let n = m.neighbors(&[2.1, 2.1]).unwrap();
        assert_eq!(n.len(), 3);
        assert!(n[0].1 <= n[1].1 && n[1].1 <= n[2].1);
        assert_eq!(n[0].0, 1); // (2,2) is closest
    }

    #[test]
    fn unfitted_and_invalid_usage_errors() {
        let m = KnnRegressor::new(3);
        assert!(m.predict(&[1.0]).is_err());

        let mut m = KnnRegressor::new(0);
        assert!(m.fit(&toy()).is_err());

        let mut m = KnnRegressor::new(2);
        m.fit(&toy()).unwrap();
        assert!(m.predict(&[1.0]).is_err()); // wrong width
    }

    #[test]
    fn cached_norms_predict_matches_naive_path_bitwise() {
        // Irrational-ish features so cosine actually exercises rounding.
        let rows: Vec<Vec<f64>> = (1..40)
            .map(|i| {
                let f = i as f64;
                vec![f.sqrt(), (f * 0.37).sin() + 1.5, f.ln() + 0.1, 1.0 / f]
            })
            .collect();
        let ys: Vec<Vec<f64>> = (1..40)
            .map(|i| vec![i as f64 * 0.31, -(i as f64)])
            .collect();
        let data = Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap();
        let mut cached = KnnRegressor::new(7).with_distance(Distance::Cosine);
        cached.fit(&data).unwrap();
        assert!(cached.train_sq_norms.is_some());
        let mut naive = cached.clone();
        naive.train_sq_norms = None; // what a deserialized model looks like
        for q in &rows {
            let a = cached.predict(q).unwrap();
            let b = naive.predict(q).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(
                cached.neighbor_indices(q).unwrap(),
                naive.neighbor_indices(q).unwrap()
            );
        }
    }

    #[test]
    fn uniform_predict_accumulates_in_row_order() {
        // The prediction must be a pure function of the neighbour set:
        // bit-equal to a manual mean over the selected rows in ascending
        // row order, regardless of their distance ranking.
        let rows: Vec<Vec<f64>> = (1..30)
            .map(|i| {
                let f = i as f64;
                vec![(f * 0.7).sin() + 2.0, f.sqrt(), 1.0 / f]
            })
            .collect();
        let ys: Vec<Vec<f64>> = (1..30)
            .map(|i| vec![(i as f64 * 0.13).cos(), i as f64 * 0.01])
            .collect();
        let data = Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap();
        let mut m = KnnRegressor::new(7).with_distance(Distance::Cosine);
        m.fit(&data).unwrap();
        for q in rows.iter().step_by(5) {
            let idx = m.neighbor_indices(q).unwrap();
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
            let mut want = vec![0.0; 2];
            for &i in &idx {
                for (o, v) in want.iter_mut().zip(&ys[i as usize]) {
                    *o += *v;
                }
            }
            for o in want.iter_mut() {
                *o /= idx.len() as f64;
            }
            let got = m.predict(q).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn owned_fit_query_matches_fit_predict_and_neighbor_indices() {
        let data = wide_dataset(60, 12);
        for q in (0..data.x.rows()).step_by(7) {
            let query = data.x.row(q).to_vec();
            let mut fitted = KnnRegressor::new(15).with_distance(Distance::Cosine);
            fitted.fit(&data).unwrap();
            let (prediction, neighbors) = KnnRegressor::new(15)
                .with_distance(Distance::Cosine)
                .fit_owned_query(data.clone(), &query)
                .unwrap();
            let want = fitted.predict(&query).unwrap();
            assert_eq!(prediction.len(), want.len());
            for (a, b) in prediction.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "query {q}");
            }
            assert_eq!(neighbors, fitted.neighbor_indices(&query).unwrap());
        }
        assert!(KnnRegressor::new(0)
            .fit_owned_query(toy(), &[1.0, 1.0])
            .is_err());
        assert!(KnnRegressor::new(2).fit_owned_query(toy(), &[1.0]).is_err());
    }

    #[test]
    fn exact_distance_ties_break_by_row_index() {
        // Three identical rows: all distances tie exactly; the canonical
        // order must pick ascending indices regardless of k.
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![5.0, 9.0],
        ])
        .unwrap();
        let y = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let mut m = KnnRegressor::new(2).with_distance(Distance::Euclidean);
        m.fit(&Dataset::new(x, y).unwrap()).unwrap();
        assert_eq!(m.neighbor_indices(&[1.0, 2.0]).unwrap(), vec![0, 1]);
    }

    fn wide_dataset(rows: usize, cols: usize) -> Dataset {
        let mut state = 0xD1CE_5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        let xs: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| next()).collect())
            .collect();
        let ys: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..3).map(|_| next()).collect())
            .collect();
        Dataset::new(
            DenseMatrix::from_rows(&xs).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap()
    }
}
