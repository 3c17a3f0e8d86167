//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! kNN distance metric and k, histogram bin count, forest size, and the
//! tree-builder's scratch-sort split search. These measure the *cost* side
//! of each choice; the accuracy side is reported by the `repro` harness
//! and EXPERIMENTS.md.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pv_ml::{
    Dataset, DenseMatrix, Distance, KnnRegressor, MaxFeatures, RandomForestRegressor, Regressor,
};
use pv_stats::histogram::Histogram;
use pv_stats::rng::Xoshiro256pp;
use rand::Rng;
use rand::SeedableRng;

fn problem(n: usize, d: usize, t: usize, seed: u64) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let x: Vec<f64> = (0..n * d).map(|_| rng.gen()).collect();
    let y: Vec<f64> = (0..n * t).map(|_| rng.gen()).collect();
    Dataset::new(
        DenseMatrix::from_flat(n, d, x).unwrap(),
        DenseMatrix::from_flat(n, t, y).unwrap(),
    )
    .unwrap()
}

fn bench_distance_metrics(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_distance");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    let data = problem(59, 272, 4, 1);
    let q: Vec<f64> = data.x.row(0).to_vec();
    for dist in [
        Distance::Cosine,
        Distance::Euclidean,
        Distance::Manhattan,
        Distance::Chebyshev,
    ] {
        let mut m = KnnRegressor::new(15).with_distance(dist);
        m.fit(&data).unwrap();
        g.bench_function(format!("{dist:?}"), |b| {
            b.iter(|| m.predict(black_box(&q)).unwrap())
        });
    }
    g.finish();
}

fn bench_k_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_k");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    let data = problem(590, 272, 4, 2);
    let q: Vec<f64> = data.x.row(0).to_vec();
    for k in [1usize, 5, 15, 50] {
        let mut m = KnnRegressor::new(k).with_distance(Distance::Cosine);
        m.fit(&data).unwrap();
        g.bench_with_input(BenchmarkId::new("predict", k), &k, |b, _| {
            b.iter(|| m.predict(black_box(&q)).unwrap())
        });
    }
    g.finish();
}

fn bench_bin_count(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_bins");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let xs: Vec<f64> = (0..1000).map(|_| 0.9 + 0.2 * rng.gen::<f64>()).collect();
    for bins in [10usize, 15, 40, 120] {
        g.bench_with_input(BenchmarkId::new("encode", bins), &bins, |b, &bins| {
            b.iter(|| {
                Histogram::from_data_with_range(black_box(&xs), 0.7, 1.5, bins)
                    .unwrap()
                    .probabilities()
            })
        });
    }
    g.finish();
}

fn bench_forest_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_forest");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    let data = problem(59, 272, 4, 4);
    for (name, feats) in [("sqrt", MaxFeatures::Sqrt), ("all", MaxFeatures::All)] {
        g.bench_function(format!("fit_50trees_{name}"), |b| {
            b.iter(|| {
                let mut m = RandomForestRegressor::new(50)
                    .with_max_features(feats)
                    .with_seed(9);
                m.fit(black_box(&data)).unwrap();
                m
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_distance_metrics,
    bench_k_sweep,
    bench_bin_count,
    bench_forest_width
);
criterion_main!(benches);
