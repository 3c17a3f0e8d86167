//! Scaled-down versions of the paper's headline claims.
//!
//! The full-size campaign (1,000 runs, 3×3 grids) lives in the `repro`
//! binary; these tests re-check the *directional* claims on a small corpus
//! so regressions in the pipeline are caught by `cargo test`.

use perfvar_suite::core::eval::{evaluate_cross_system, evaluate_few_runs};
use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::usecase2::CrossSystemConfig;
use perfvar_suite::core::{ModelKind, ReprKind};
use perfvar_suite::stats::ks::ks2_statistic;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

const SEED: u64 = 0xC0FFEE;

fn intel() -> Corpus {
    Corpus::collect(&SystemModel::intel(), 120, SEED)
}

fn uc1(repr: ReprKind, s: usize) -> FewRunsConfig {
    FewRunsConfig {
        repr,
        model: ModelKind::Knn,
        n_profile_runs: s,
        profiles_per_benchmark: 1,
        seed: SEED,
    }
}

#[test]
fn predictions_beat_the_uniform_baseline_for_every_representation() {
    // Claim 0 (sanity for everything else): learned predictions carry
    // real information about each benchmark's distribution.
    let corpus = intel();
    let uniform: Vec<f64> = (0..1000).map(|i| 0.7 + 0.8 * i as f64 / 999.0).collect();
    let baseline: f64 = corpus
        .benchmarks
        .iter()
        .map(|b| ks2_statistic(&uniform, &b.runs.rel_times()).unwrap())
        .sum::<f64>()
        / corpus.len() as f64;
    for repr in ReprKind::ALL {
        let summary = evaluate_few_runs(&corpus, uc1(repr, 10)).unwrap();
        assert!(
            summary.mean < baseline - 0.1,
            "{}: {} vs baseline {}",
            repr.name(),
            summary.mean,
            baseline
        );
    }
}

#[test]
fn pearsonrnd_is_the_best_representation_in_use_case_one() {
    // Fig. 4's headline: PearsonRnd gives the best mean KS under kNN.
    let corpus = intel();
    let p = evaluate_few_runs(&corpus, uc1(ReprKind::PearsonRnd, 10)).unwrap();
    let h = evaluate_few_runs(&corpus, uc1(ReprKind::Histogram, 10)).unwrap();
    let m = evaluate_few_runs(&corpus, uc1(ReprKind::PyMaxEnt, 10)).unwrap();
    assert!(
        p.mean < h.mean && p.mean < m.mean,
        "P {} H {} M {}",
        p.mean,
        h.mean,
        m.mean
    );
}

#[test]
fn one_sample_is_worse_than_ten_samples() {
    // Fig. 6's headline: more profile runs help, with the single-sample
    // case clearly worst.
    let corpus = intel();
    let one = evaluate_few_runs(&corpus, uc1(ReprKind::PearsonRnd, 1)).unwrap();
    let ten = evaluate_few_runs(&corpus, uc1(ReprKind::PearsonRnd, 10)).unwrap();
    assert!(
        one.mean > ten.mean,
        "1 sample {} vs 10 samples {}",
        one.mean,
        ten.mean
    );
}

#[test]
fn cross_system_prediction_works_in_both_directions() {
    // Fig. 8: both directions produce usable predictions; AMD→Intel is
    // not harder than Intel→AMD (the paper found it slightly easier).
    let amd = Corpus::collect(&SystemModel::amd(), 120, SEED);
    let intel = intel();
    let cfg = CrossSystemConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        profile_runs: 60,
        seed: SEED,
    };
    let a2i = evaluate_cross_system(&amd, &intel, cfg).unwrap();
    let i2a = evaluate_cross_system(&intel, &amd, cfg).unwrap();
    assert!(a2i.mean < 0.5);
    assert!(i2a.mean < 0.5);
    assert!(
        a2i.mean <= i2a.mean + 0.02,
        "AMD→Intel {} should not be harder than Intel→AMD {}",
        a2i.mean,
        i2a.mean
    );
}

#[test]
fn knn_beats_boosting_in_use_case_two() {
    // Fig. 7's model comparison: kNN clearly ahead of XGBoost. To keep
    // this affordable in a debug build, the comparison runs on every
    // fourth LOGO fold rather than all sixty (the release-mode `repro`
    // harness runs the full grid).
    use perfvar_suite::core::Predictor;
    use perfvar_suite::stats::ks::ks2_statistic;
    let amd = Corpus::collect(&SystemModel::amd(), 120, SEED);
    let intel = intel();
    let mut means = Vec::new();
    for model in [ModelKind::Knn, ModelKind::XgBoost] {
        let cfg = CrossSystemConfig {
            repr: ReprKind::PearsonRnd,
            model,
            profile_runs: 60,
            seed: SEED,
        };
        let mut total = 0.0;
        let mut count = 0.0;
        for held in (0..amd.len()).step_by(4) {
            let include: Vec<usize> = (0..amd.len()).filter(|&i| i != held).collect();
            let p = Predictor::train_cross_system(&amd, &intel, &include, cfg).unwrap();
            let predicted = p
                .predict_distribution(&amd.benchmarks[held].runs, 500, held as u64)
                .unwrap();
            total += ks2_statistic(&predicted, &intel.benchmarks[held].runs.rel_times()).unwrap();
            count += 1.0;
        }
        means.push(total / count);
    }
    // On this reduced corpus (120 runs, 15 folds) the margin can shrink
    // to a statistical tie; require kNN to be at least competitive. The
    // strict ordering (kNN < RF < XGBoost, full 60-fold grid on the
    // 1,000-run campaign) is asserted by `repro fig7` and recorded in
    // EXPERIMENTS.md.
    assert!(
        means[0] < means[1] + 0.01,
        "kNN {} vs XGBoost {}",
        means[0],
        means[1]
    );
}
