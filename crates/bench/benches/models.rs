//! Benchmarks for the ML substrate: training and prediction of the three
//! model families on realistic problem sizes (59 benchmarks × 272 profile
//! features × 4–15 outputs — the shapes the evaluation actually uses).
//!
//! The `gbt/xgb_fit_19x272_*` cases fit the evaluation booster
//! (`ModelKind::XgBoost`: 80 rounds, depth 3, λ = 1, subsample 0.9,
//! binned splits) at the paper grid's fold shape, 19 training rows ×
//! 272 features, with t = 4 (moment targets) and t = 15 (histogram
//! targets). Fixed sample counts (`sample_size`), so successive runs
//! measure the same work. Presorted split search (each feature ranked
//! once per fit, node blocks stable-partitioned at each split, instead
//! of every node sorting every feature) measured on a 2-vCPU Xeon VM
//! (2.1 GHz), min / mean of 20 samples, best of two alternating runs per
//! commit:
//!
//! | case | before | after | min ratio |
//! |---|---|---|---|
//! | `xgb_fit_19x272_t4` | 28.2 / 35.6 ms | 17.4 / 22.2 ms | 1.62× |
//! | `xgb_fit_19x272_t15` | 57.2 / 61.1 ms | 27.6 / 37.3 ms | 2.07× |
//! | `fit_80rounds_59x272` (exact splits, no subsample) | 136.8 / 166.6 ms | 58.6 / 68.0 ms | 2.33× |
//! | `forest/fit_100trees_59x272` (per-node sort, unchanged) | 12.4 / 18.1 ms | 13.8 / 15.3 ms | within noise |
//!
//! Every fitted tree is bit-identical before and after
//! (`tests/kernel_parity.rs` pins the evaluation booster's prediction
//! bits).
//!
//! Ordering ties by row index (every feature ranked, the tied-feature
//! per-node sort gone from boosting rounds) leaves these shapes' work
//! unchanged: their features are tie-free. Same VM, four alternating
//! runs per commit, the run with the lowest mean, min / mean:
//!
//! | case | before | after |
//! |---|---|---|
//! | `xgb_fit_19x272_t4` | 17.3 / 18.1 ms | 16.6 / 17.2 ms |
//! | `xgb_fit_19x272_t15` | 27.2 / 29.9 ms | 28.6 / 30.7 ms |
//! | `fit_80rounds_59x272` | 54.1 / 57.6 ms | 52.1 / 60.0 ms |
//! | `forest/fit_100trees_59x272` | 13.9 / 15.0 ms | 13.2 / 15.0 ms |
//!
//! The means of single runs spread 17–29 ms (t4) and 30–56 ms (t15) on
//! both commits, so the table shows no change beyond that noise.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pv_core::{FittedModel, ModelKind};
use pv_ml::{
    Dataset, DenseMatrix, Distance, GradientBoostingRegressor, KnnRegressor, MaxFeatures,
    RandomForestRegressor, Regressor,
};
use pv_stats::rng::Xoshiro256pp;
use rand::Rng;
use rand::SeedableRng;

/// Synthetic regression problem with the evaluation's shape.
fn problem(n: usize, d: usize, t: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n * d);
    let mut y = Vec::with_capacity(n * t);
    for _ in 0..n {
        let latent: f64 = rng.gen();
        for j in 0..d {
            x.push(latent * (j % 7) as f64 + rng.gen::<f64>());
        }
        for k in 0..t {
            y.push(latent * (k + 1) as f64 + 0.1 * rng.gen::<f64>());
        }
    }
    Dataset::new(
        DenseMatrix::from_flat(n, d, x).unwrap(),
        DenseMatrix::from_flat(n, t, y).unwrap(),
    )
    .unwrap()
}

fn bench_knn(c: &mut Criterion) {
    let mut g = c.benchmark_group("knn");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    let data = problem(59, 272, 4, 1);
    g.bench_function("fit_59x272", |b| {
        b.iter(|| {
            let mut m = KnnRegressor::new(15).with_distance(Distance::Cosine);
            m.fit(black_box(&data)).unwrap();
            m
        })
    });
    let mut m = KnnRegressor::new(15).with_distance(Distance::Cosine);
    m.fit(&data).unwrap();
    let q: Vec<f64> = data.x.row(0).to_vec();
    g.bench_function("predict_59x272", |b| {
        b.iter(|| m.predict(black_box(&q)).unwrap())
    });
    g.finish();
}

fn bench_forest(c: &mut Criterion) {
    let mut g = c.benchmark_group("forest");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    let data = problem(59, 272, 4, 2);
    g.bench_function("fit_100trees_59x272", |b| {
        b.iter(|| {
            let mut m = RandomForestRegressor::new(100)
                .with_max_depth(14)
                .with_max_features(MaxFeatures::Sqrt)
                .with_seed(3);
            m.fit(black_box(&data)).unwrap();
            m
        })
    });
    let mut m = RandomForestRegressor::new(100).with_seed(3);
    m.fit(&data).unwrap();
    let q: Vec<f64> = data.x.row(1).to_vec();
    g.bench_function("predict_100trees", |b| {
        b.iter(|| m.predict(black_box(&q)).unwrap())
    });
    g.finish();
}

fn bench_gbt(c: &mut Criterion) {
    let mut g = c.benchmark_group("gbt");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    let data = problem(59, 272, 4, 4);
    g.bench_function("fit_80rounds_59x272", |b| {
        b.iter(|| {
            let mut m = GradientBoostingRegressor::new(80)
                .with_max_depth(3)
                .with_seed(5);
            m.fit(black_box(&data)).unwrap();
            m
        })
    });
    g.sample_size(20);
    for t in [4usize, 15] {
        let data = problem(19, 272, t, 6 + t as u64);
        g.bench_function(format!("xgb_fit_19x272_t{t}"), |b| {
            b.iter(|| {
                let FittedModel::XgBoost(mut m) = ModelKind::XgBoost.build_fitted(7) else {
                    unreachable!("XgBoost builds a booster")
                };
                m.fit(black_box(&data)).unwrap();
                m
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_knn, bench_forest, bench_gbt);
criterion_main!(benches);
