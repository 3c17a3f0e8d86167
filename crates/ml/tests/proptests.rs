//! Property tests for the ML substrate.

use proptest::prelude::*;
use pv_ml::{
    Dataset, DenseMatrix, Distance, GradientBoostingRegressor, KnnRegressor, RandomForestRegressor,
    Regressor, StandardScaler,
};

fn small_dataset() -> impl Strategy<Value = Dataset> {
    // 4..24 rows, 1..5 features, 1..3 outputs, values in a sane range.
    (4usize..24, 1usize..5, 1usize..3).prop_flat_map(|(n, d, t)| {
        (
            prop::collection::vec(-100.0..100.0f64, n * d),
            prop::collection::vec(-100.0..100.0f64, n * t),
        )
            .prop_map(move |(xs, ys)| {
                Dataset::new(
                    DenseMatrix::from_flat(n, d, xs).unwrap(),
                    DenseMatrix::from_flat(n, t, ys).unwrap(),
                )
                .unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn knn_prediction_stays_in_target_hull(data in small_dataset(), q in -120.0..120.0f64) {
        let mut m = KnnRegressor::new(3).with_distance(Distance::Euclidean);
        m.fit(&data).unwrap();
        let query = vec![q; data.n_features()];
        let p = m.predict(&query).unwrap();
        for (c, &pc) in p.iter().enumerate().take(data.n_outputs()) {
            let col = data.y.column(c);
            let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(pc >= lo - 1e-9 && pc <= hi + 1e-9);
        }
    }

    #[test]
    fn forest_prediction_stays_in_target_hull(data in small_dataset()) {
        let mut m = RandomForestRegressor::new(10).with_seed(1);
        m.fit(&data).unwrap();
        let q: Vec<f64> = data.x.row(0).to_vec();
        let p = m.predict(&q).unwrap();
        for (c, &pc) in p.iter().enumerate().take(data.n_outputs()) {
            let col = data.y.column(c);
            let lo = col.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = col.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(pc >= lo - 1e-9 && pc <= hi + 1e-9);
        }
    }

    #[test]
    fn gbt_training_prediction_close_on_pure_targets(n in 4usize..20, v in -50.0..50.0f64) {
        // Constant targets: boosting must recover them (base = mean).
        let x = DenseMatrix::from_flat(n, 1, (0..n).map(|i| i as f64).collect()).unwrap();
        let y = DenseMatrix::from_flat(n, 1, vec![v; n]).unwrap();
        let data = Dataset::new(x, y).unwrap();
        let mut g = GradientBoostingRegressor::new(5);
        g.fit(&data).unwrap();
        let p = g.predict(&[0.0]).unwrap();
        prop_assert!((p[0] - v).abs() < 1e-6);
    }

    #[test]
    fn scaler_roundtrip(data in small_dataset()) {
        let mut s = StandardScaler::new();
        let t = s.fit_transform(&data.x).unwrap();
        for r in 0..data.x.rows() {
            let mut row = t.row(r).to_vec();
            s.inverse_row(&mut row).unwrap();
            for (got, want) in row.iter().zip(data.x.row(r)) {
                prop_assert!((got - want).abs() < 1e-6 * (1.0 + want.abs()));
            }
        }
    }
}
