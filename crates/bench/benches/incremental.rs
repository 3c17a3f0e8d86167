//! Incremental fold-cache benchmarks: what a corpus re-evaluation costs
//! cold, on an unchanged rerun (pure fingerprint hits), and after a
//! one-benchmark append (kNN neighbour-delta reuse) — plus the ML
//! hot-kernel comparison between exact and pre-binned forest splits.
//!
//! Honest expectations for the append scenario: with k = 15 neighbours,
//! an appended benchmark enters a surviving fold's neighbourhood with
//! probability ≈ k/n, so at n = 50 roughly a third of the folds (plus
//! the new fold itself) must recompute in full, and the delta check
//! still pays row assembly + scaling per reused fold. That caps the
//! append speedup near 2× at this roster size; the ≥5× regime is the
//! unchanged rerun, where every fold is an exact fingerprint hit and
//! the evaluation reduces to hashing and integrity checks.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pv_bench::uc1_config;
use pv_core::eval::few_runs_spec;
use pv_core::pipeline::EncodedCorpus;
use pv_core::{evaluate_few_runs, evaluate_few_runs_incremental, ModelKind, ReprKind};
use pv_ml::{Dataset, DenseMatrix, RandomForestRegressor, Regressor};
use pv_stats::rng::Xoshiro256pp;
use pv_sysmodel::{Corpus, SystemModel};

/// The paper-scale corpus the fold cache targets: 50 benchmarks kept
/// from the intel roster at campaign depth.
fn corpora() -> (Corpus, Corpus) {
    let mut full = Corpus::collect(&SystemModel::intel(), 1000, 7);
    full.benchmarks.truncate(50);
    let mut base = full.clone();
    base.benchmarks.truncate(49);
    (full, base)
}

fn bench_incremental_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental_eval");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.sample_size(10);

    let (full, base) = corpora();
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    let spec = few_runs_spec(&cfg);
    let enc_base = EncodedCorpus::build(&base, &spec).unwrap();
    let enc_full = EncodedCorpus::build(&full, &spec).unwrap();
    let seeded = evaluate_few_runs_incremental(&enc_base, cfg, &[]).unwrap();
    let warm = evaluate_few_runs_incremental(&enc_full, cfg, &seeded.folds).unwrap();
    // The comparison only means anything if reuse actually happened and
    // reproduced the cold bits.
    let cold = evaluate_few_runs(&full, cfg).unwrap();
    assert_eq!(warm.summary, cold);
    assert!(warm.stats.deltas > 0, "{:?}", warm.stats);
    assert_eq!(warm.stats.hits, 0);

    g.bench_function("cold_logo_50bench", |b| {
        b.iter(|| evaluate_few_runs_incremental(black_box(&enc_full), cfg, &[]).unwrap())
    });
    g.bench_function("rerun_unchanged_all_hits", |b| {
        b.iter(|| evaluate_few_runs_incremental(black_box(&enc_full), cfg, &warm.folds).unwrap())
    });
    g.bench_function("append_one_delta_reuse", |b| {
        b.iter(|| evaluate_few_runs_incremental(black_box(&enc_full), cfg, &seeded.folds).unwrap())
    });
    g.finish();
}

fn bench_forest_split_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("forest_split");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);

    // Dense regression problems bracketing the pipeline's regime: the
    // small shape is folds × windows territory (binned ≈ parity — the
    // hybrid kernel falls back to exact sorts on sub-bin-count nodes),
    // the large shape is where the shared-bin histogram kernel pulls
    // ahead (~1.4–2.4× measured on one core).
    for (shape, rows, cols) in [("400x24", 400usize, 24usize), ("2000x24", 2000, 24)] {
        let mut rng = Xoshiro256pp::from_seed_stream(11, 0);
        let x: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.next_f64() * 10.0).collect())
            .collect();
        let y: Vec<Vec<f64>> = x
            .iter()
            .map(|r| {
                vec![r
                    .iter()
                    .enumerate()
                    .map(|(j, v)| v * (j as f64 + 1.0))
                    .sum::<f64>()]
            })
            .collect();
        let data = Dataset::new(
            DenseMatrix::from_rows(&x).unwrap(),
            DenseMatrix::from_rows(&y).unwrap(),
        )
        .unwrap();

        for (name, binned) in [("exact", false), ("binned", true)] {
            g.bench_function(format!("forest_fit_{name}_{shape}"), |b| {
                b.iter(|| {
                    let mut m = RandomForestRegressor::new(30)
                        .with_max_depth(10)
                        .with_seed(3)
                        .with_binned(binned);
                    m.fit(black_box(&data)).unwrap();
                    m
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_incremental_eval, bench_forest_split_kernels);
criterion_main!(benches);
