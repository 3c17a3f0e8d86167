//! End-to-end integration: measure → train → predict → score, across
//! crates, for both use cases.

use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::usecase2::CrossSystemConfig;
use perfvar_suite::core::{ModelKind, Predictor, Profile, ReprKind};
use perfvar_suite::stats::ks::ks2_statistic;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

fn corpus(sys: SystemModel) -> Corpus {
    Corpus::collect(&sys, 80, 0xAB)
}

#[test]
fn use_case_one_full_pipeline() {
    let intel = corpus(SystemModel::intel());
    // Hold out a benchmark, train on the rest, predict it.
    let held = 17;
    let include: Vec<usize> = (0..intel.len()).filter(|&i| i != held).collect();
    let cfg = FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 10,
        profiles_per_benchmark: 1,
        seed: 1,
    };
    let predictor = Predictor::train_few_runs(&intel, &include, cfg).unwrap();
    let bench = &intel.benchmarks[held];
    let predicted = predictor.predict_distribution(&bench.runs, 500, 0).unwrap();
    assert_eq!(predicted.len(), 500);
    assert!(predicted.iter().all(|x| x.is_finite() && *x > 0.0));

    // The prediction must beat a grossly wrong reference distribution.
    let truth = bench.runs.rel_times();
    let ks_pred = ks2_statistic(&predicted, &truth).unwrap();
    let wrong: Vec<f64> = (0..500).map(|i| 2.0 + i as f64 * 1e-4).collect();
    let ks_wrong = ks2_statistic(&wrong, &truth).unwrap();
    assert!(ks_pred < ks_wrong);
}

#[test]
fn use_case_two_full_pipeline() {
    let amd = corpus(SystemModel::amd());
    let intel = corpus(SystemModel::intel());
    let held = 42;
    let include: Vec<usize> = (0..amd.len()).filter(|&i| i != held).collect();
    let cfg = CrossSystemConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        profile_runs: 40,
        seed: 2,
    };
    let predictor = Predictor::train_cross_system(&amd, &intel, &include, cfg).unwrap();
    let predicted = predictor
        .predict_distribution(&amd.benchmarks[held].runs, 500, 0)
        .unwrap();
    assert_eq!(predicted.len(), 500);
    let truth = intel.benchmarks[held].runs.rel_times();
    let ks = ks2_statistic(&predicted, &truth).unwrap();
    assert!(ks < 0.9, "KS = {ks}");
}

#[test]
fn every_representation_roundtrips_through_the_pipeline() {
    let intel = corpus(SystemModel::intel());
    let include: Vec<usize> = (0..intel.len()).collect();
    for repr in ReprKind::ALL {
        let cfg = FewRunsConfig {
            repr,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: 1,
            seed: 3,
        };
        let p = Predictor::train_few_runs(&intel, &include, cfg).unwrap();
        let out = p
            .predict_distribution(&intel.benchmarks[5].runs, 200, 9)
            .unwrap();
        assert_eq!(out.len(), 200, "{}", repr.name());
        assert!(out.iter().all(|x| x.is_finite()), "{}", repr.name());
    }
}

#[test]
fn predictions_track_distribution_width() {
    // A model trained on the corpus should, across benchmarks, produce
    // wider predicted distributions for benchmarks with wider measured
    // distributions (rank correlation > 0).
    let intel = corpus(SystemModel::intel());
    let include: Vec<usize> = (0..intel.len()).collect();
    let cfg = FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 10,
        profiles_per_benchmark: 1,
        seed: 4,
    };
    let p = Predictor::train_few_runs(&intel, &include, cfg).unwrap();
    let mut true_stds = Vec::new();
    let mut pred_stds = Vec::new();
    for b in intel.benchmarks.iter().step_by(3) {
        let profile = Profile::from_runs(&b.runs, cfg.n_profile_runs).unwrap();
        let features = p.predict_features(&profile, None).unwrap();
        // PearsonRnd feature vector: [mean, std, skew, kurt]
        pred_stds.push(features[1]);
        let m = perfvar_suite::stats::moments::Moments::from_slice(&b.runs.rel_times());
        true_stds.push(m.population_std());
    }
    let rho = perfvar_suite::stats::correlation::spearman(&true_stds, &pred_stds).unwrap();
    assert!(rho > 0.3, "width rank correlation = {rho}");
}
