//! Fitted-model serialization: every regressor (and the scaler) must
//! survive a JSON round trip with its prediction bits intact — the
//! invariant the model registry's serving guarantee rests on. These
//! tests pin the *stored state*, not just behaviour: kNN keeps its
//! training rows verbatim, trees keep their split thresholds.

use pv_ml::{
    Dataset, DenseMatrix, Distance, GradientBoostingRegressor, KnnRegressor, MaxFeatures,
    RandomForestRegressor, Regressor, StandardScaler,
};

/// A small deterministic regression problem: 40 rows, 6 features,
/// 2 targets.
fn dataset() -> Dataset {
    let mut rows = Vec::new();
    let mut targets = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..40 {
        let row: Vec<f64> = (0..6).map(|_| next() * 10.0 - 5.0).collect();
        let y0 = row.iter().sum::<f64>() + next() * 0.1;
        let y1 = row[0] * row[1] - row[2] + next() * 0.1;
        targets.push(vec![y0, y1]);
        rows.push(row);
    }
    let x = DenseMatrix::from_rows(&rows).expect("x");
    let y = DenseMatrix::from_rows(&targets).expect("y");
    Dataset::new(x, y).expect("dataset")
}

fn probes() -> Vec<Vec<f64>> {
    vec![
        vec![0.5, -1.0, 2.0, 0.0, 1.5, -0.5],
        vec![-4.0, 3.0, 0.25, 1.0, -2.0, 0.75],
        vec![1.0; 6],
    ]
}

fn assert_bit_identical<M: Regressor>(fitted: &M, reloaded: &M, tag: &str) {
    for (i, p) in probes().iter().enumerate() {
        assert_eq!(
            fitted.predict(p).expect("predict"),
            reloaded.predict(p).expect("predict"),
            "{tag}: probe {i} prediction changed across serde round trip"
        );
    }
}

#[test]
fn knn_round_trip_preserves_stored_rows_and_predictions() {
    let data = dataset();
    let mut knn = KnnRegressor::new(5).with_distance(Distance::Cosine);
    knn.fit(&data).expect("fit");
    let json = serde_json::to_string(&knn).expect("serialize");
    let reloaded: KnnRegressor = serde_json::from_str(&json).expect("deserialize");
    // The stored training rows are the model: the serialized form must
    // carry them bit-exactly, which the vendored serde shows as full
    // structural equality of the JSON re-serialization.
    assert_eq!(
        json,
        serde_json::to_string(&reloaded).expect("reserialize"),
        "kNN stored state drifted across a round trip"
    );
    for row in [data.x.row(0), data.x.row(17)] {
        assert!(json.contains(&format!("{}", row[0])) || row[0].fract() == 0.0);
    }
    assert_bit_identical(&knn, &reloaded, "knn");
}

#[test]
fn forest_round_trip_preserves_thresholds_and_predictions() {
    let data = dataset();
    let mut forest = RandomForestRegressor::new(12)
        .with_max_depth(6)
        .with_max_features(MaxFeatures::Sqrt)
        .with_seed(7);
    forest.fit(&data).expect("fit");
    let json = serde_json::to_string(&forest).expect("serialize");
    let reloaded: RandomForestRegressor = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(
        json,
        serde_json::to_string(&reloaded).expect("reserialize"),
        "forest split thresholds drifted across a round trip"
    );
    assert_bit_identical(&forest, &reloaded, "forest");
}

#[test]
fn gbt_round_trip_preserves_thresholds_and_predictions() {
    let data = dataset();
    let mut gbt = GradientBoostingRegressor::new(20)
        .with_learning_rate(0.1)
        .with_max_depth(3)
        .with_lambda(1.0)
        .with_subsample(0.9)
        .with_seed(7);
    gbt.fit(&data).expect("fit");
    let json = serde_json::to_string(&gbt).expect("serialize");
    let reloaded: GradientBoostingRegressor = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(
        json,
        serde_json::to_string(&reloaded).expect("reserialize"),
        "boosting ensemble drifted across a round trip"
    );
    assert_bit_identical(&gbt, &reloaded, "gbt");
}

#[test]
fn scaler_round_trip_preserves_moments() {
    let data = dataset();
    let mut scaler = StandardScaler::new();
    scaler.fit(&data.x).expect("fit");
    let json = serde_json::to_string(&scaler).expect("serialize");
    let reloaded: StandardScaler = serde_json::from_str(&json).expect("deserialize");
    let probe = probes().remove(0);
    let mut a = probe.clone();
    let mut b = probe;
    scaler.transform_row(&mut a).expect("transform");
    reloaded.transform_row(&mut b).expect("transform");
    assert_eq!(a, b, "scaler moments drifted across a round trip");
}
