//! End-to-end pipeline benchmarks: the costs a user actually pays —
//! collecting a corpus, training a predictor, and producing one
//! distribution prediction. One bench per paper exhibit family.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pv_bench::{uc1_config, uc2_config};
use pv_core::eval::{evaluate_few_runs, few_runs_spec, RECONSTRUCTION_SAMPLES};
use pv_core::incremental::evaluate_few_runs_incremental;
use pv_core::pipeline::EncodedCorpus;
use pv_core::{ModelKind, Predictor, ReprKind};
use pv_stats::ks::ks2_statistic;
use pv_stats::rng::derive_stream;
use pv_sysmodel::{Corpus, SystemModel};

fn bench_corpus_collection(c: &mut Criterion) {
    let mut g = c.benchmark_group("corpus");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    g.bench_function("collect_60x100_intel", |b| {
        b.iter(|| Corpus::collect(black_box(&SystemModel::intel()), 100, 7))
    });
    g.finish();
}

fn bench_use_case_one(c: &mut Criterion) {
    let mut g = c.benchmark_group("usecase1");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    let corpus = Corpus::collect(&SystemModel::intel(), 100, 7);
    let include: Vec<usize> = (1..corpus.len()).collect();
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    g.bench_function("train_knn_pearson", |b| {
        b.iter(|| Predictor::train_few_runs(black_box(&corpus), &include, cfg).unwrap())
    });
    let predictor = Predictor::train_few_runs(&corpus, &include, cfg).unwrap();
    g.bench_function("predict_1000_samples", |b| {
        b.iter(|| {
            predictor
                .predict_distribution(black_box(&corpus.benchmarks[0].runs), 1000, 1)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_use_case_two(c: &mut Criterion) {
    let mut g = c.benchmark_group("usecase2");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    let amd = Corpus::collect(&SystemModel::amd(), 100, 7);
    let intel = Corpus::collect(&SystemModel::intel(), 100, 7);
    let include: Vec<usize> = (1..amd.len()).collect();
    let cfg = uc2_config(ReprKind::PearsonRnd, ModelKind::Knn);
    g.bench_function("train_knn_pearson", |b| {
        b.iter(|| Predictor::train_cross_system(black_box(&amd), &intel, &include, cfg).unwrap())
    });
    let predictor = Predictor::train_cross_system(&amd, &intel, &include, cfg).unwrap();
    g.bench_function("predict_1000_samples", |b| {
        b.iter(|| {
            predictor
                .predict_distribution(black_box(&amd.benchmarks[0].runs), 1000, 1)
                .unwrap()
        })
    });
    g.finish();
}

/// The tentpole speedup: a full LOGO evaluation with profiles/encodings
/// computed once (`EncodedCorpus` + `FoldRunner`) versus the historical
/// shape that trained a fresh predictor per fold, recomputing every
/// profile and encoding ~n times. All three produce bit-identical
/// `EvalSummary`s (asserted in `tests/pipeline_equivalence.rs`).
fn bench_logo_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("logo_eval");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.sample_size(10);
    let corpus = Corpus::collect(&SystemModel::intel(), 100, 7);
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);

    g.bench_function("naive_train_per_fold", |b| {
        use rayon::prelude::*;
        // Parallel over folds exactly like the historical
        // `evaluate_few_runs`, so the delta measured here is the
        // redundant per-fold profile/encoding work alone.
        b.iter(|| {
            let n = corpus.len();
            let last: f64 = (0..n)
                .into_par_iter()
                .map(|held| {
                    let include: Vec<usize> = (0..n).filter(|&i| i != held).collect();
                    let mut fold_cfg = cfg;
                    fold_cfg.seed = derive_stream(cfg.seed, held as u64);
                    let p =
                        Predictor::train_few_runs(black_box(&corpus), &include, fold_cfg).unwrap();
                    let bench = &corpus.benchmarks[held];
                    let predicted = p
                        .predict_distribution(&bench.runs, RECONSTRUCTION_SAMPLES, held as u64)
                        .unwrap();
                    ks2_statistic(&predicted, &bench.runs.rel_times()).unwrap()
                })
                .collect::<Vec<f64>>()
                .iter()
                .sum();
            last
        })
    });
    g.bench_function("pipeline_encode_then_fold", |b| {
        b.iter(|| evaluate_few_runs(black_box(&corpus), cfg).unwrap())
    });
    let enc = EncodedCorpus::build(&corpus, &few_runs_spec(&cfg)).unwrap();
    g.bench_function("pipeline_prebuilt_cache", |b| {
        b.iter(|| evaluate_few_runs_incremental(black_box(&enc), cfg, &[]).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_corpus_collection,
    bench_use_case_one,
    bench_use_case_two,
    bench_logo_eval
);
criterion_main!(benches);
