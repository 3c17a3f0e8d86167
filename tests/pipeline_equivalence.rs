//! The pipeline layer is a pure refactor: evaluations through the cached
//! `EncodedCorpus` + `FoldRunner` must reproduce, bit for bit, what the
//! original train-a-predictor-per-fold loops computed.

use perfvar_suite::core::eval::{
    evaluate_cross_system, evaluate_few_runs, BenchScore, EvalSummary, RECONSTRUCTION_SAMPLES,
};
use perfvar_suite::core::pipeline::{EncodedCorpus, EncodingSpec};
use perfvar_suite::core::profile::Profile;
use perfvar_suite::core::usecase1::{FewRunsConfig, FewRunsPredictor};
use perfvar_suite::core::usecase2::{CrossSystemConfig, CrossSystemPredictor};
use perfvar_suite::core::{ModelKind, ReprKind};
use perfvar_suite::ml::{Dataset, DenseMatrix};
use perfvar_suite::stats::ks::ks2_statistic;
use perfvar_suite::stats::rng::derive_stream;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

/// The original `evaluate_few_runs`: train a fresh predictor per fold
/// with the derived fold seed, predict, score.
fn manual_few_runs(corpus: &Corpus, cfg: FewRunsConfig) -> EvalSummary {
    let n = corpus.len();
    let scores: Vec<BenchScore> = (0..n)
        .map(|held| {
            let include: Vec<usize> = (0..n).filter(|&i| i != held).collect();
            let mut fold_cfg = cfg;
            fold_cfg.seed = derive_stream(cfg.seed, held as u64);
            let predictor = FewRunsPredictor::train(corpus, &include, fold_cfg).unwrap();
            let bench = &corpus.benchmarks[held];
            let predicted = predictor
                .predict_distribution(&bench.runs, RECONSTRUCTION_SAMPLES, held as u64)
                .unwrap();
            let ks = ks2_statistic(&predicted, &bench.runs.rel_times()).unwrap();
            BenchScore { id: bench.id, ks }
        })
        .collect();
    EvalSummary::from_scores(scores).unwrap()
}

/// The original `evaluate_cross_system`, same per-fold shape.
fn manual_cross_system(src: &Corpus, dst: &Corpus, cfg: CrossSystemConfig) -> EvalSummary {
    let n = src.len();
    let scores: Vec<BenchScore> = (0..n)
        .map(|held| {
            let include: Vec<usize> = (0..n).filter(|&i| i != held).collect();
            let mut fold_cfg = cfg;
            fold_cfg.seed = derive_stream(cfg.seed, held as u64);
            let predictor = CrossSystemPredictor::train(src, dst, &include, fold_cfg).unwrap();
            let predicted = predictor
                .predict_distribution(&src.benchmarks[held], RECONSTRUCTION_SAMPLES, held as u64)
                .unwrap();
            let truth = dst.benchmarks[held].runs.rel_times();
            let ks = ks2_statistic(&predicted, &truth).unwrap();
            BenchScore {
                id: dst.benchmarks[held].id,
                ks,
            }
        })
        .collect();
    EvalSummary::from_scores(scores).unwrap()
}

#[test]
fn few_runs_pipeline_reproduces_the_per_fold_loop_exactly() {
    let corpus = Corpus::collect(&SystemModel::intel(), 40, 3);
    for (repr, windows) in [(ReprKind::PearsonRnd, 3), (ReprKind::Histogram, 1)] {
        let cfg = FewRunsConfig {
            repr,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: windows,
            seed: 1,
        };
        let pipeline = evaluate_few_runs(&corpus, cfg).unwrap();
        let manual = manual_few_runs(&corpus, cfg);
        assert_eq!(pipeline, manual, "{}", repr.name());
    }
}

#[test]
fn cross_system_pipeline_reproduces_the_per_fold_loop_exactly() {
    let amd = Corpus::collect(&SystemModel::amd(), 40, 3);
    let intel = Corpus::collect(&SystemModel::intel(), 40, 3);
    let cfg = CrossSystemConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        profile_runs: 20,
        seed: 2,
    };
    let pipeline = evaluate_cross_system(&amd, &intel, cfg).unwrap();
    let manual = manual_cross_system(&amd, &intel, cfg);
    assert_eq!(pipeline, manual);
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// What lets a sweep share folds between cells: the two moment
/// representations encode every benchmark to the same target bits, and
/// kNN predicts the same bits whatever seed it is built with.
#[test]
fn moment_representations_share_targets_and_knn_ignores_its_seed() {
    let corpus = Corpus::collect(&SystemModel::intel(), 40, 3);
    assert_eq!(
        ReprKind::PyMaxEnt.encoding(),
        ReprKind::PearsonRnd.encoding()
    );
    assert_ne!(
        ReprKind::Histogram.encoding(),
        ReprKind::PearsonRnd.encoding()
    );
    let (maxent, pearson) = (ReprKind::PyMaxEnt.build(), ReprKind::PearsonRnd.build());
    let (mut rows, mut targets) = (Vec::new(), Vec::new());
    for bench in &corpus.benchmarks {
        let rel = bench.runs.rel_times();
        let target = maxent.encode(&rel).unwrap();
        assert_eq!(
            bits(&target),
            bits(&pearson.encode(&rel).unwrap()),
            "{}",
            bench.id
        );
        rows.push(Profile::from_runs(&bench.runs, 5).unwrap().features);
        targets.push(target);
    }
    let data = Dataset::ungrouped(
        DenseMatrix::from_rows(&rows[1..]).unwrap(),
        DenseMatrix::from_rows(&targets[1..]).unwrap(),
    )
    .unwrap();
    let predict = |seed: u64| {
        let mut knn = ModelKind::Knn.build(seed);
        knn.fit(&data).unwrap();
        knn.predict(&rows[0]).unwrap()
    };
    assert_eq!(bits(&predict(1)), bits(&predict(0xC0FFEE)));
}

mod cached_encodings {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Cached target encodings and window profiles are bit-identical
        /// to computing them fresh, for every representation kind.
        #[test]
        fn cached_encodings_equal_fresh_ones(
            n_runs in 8usize..24,
            s in 1usize..4,
            seed in any::<u64>(),
        ) {
            let corpus = Corpus::collect(&SystemModel::intel(), n_runs, seed);
            let windows = n_runs / s;
            let mut spec = EncodingSpec::new().profiles(s, windows);
            for repr in ReprKind::ALL {
                spec = spec.target(repr);
            }
            let enc = EncodedCorpus::build(&corpus, &spec).unwrap();
            for (bi, bench) in corpus.benchmarks.iter().enumerate() {
                let rel = bench.runs.rel_times();
                prop_assert_eq!(enc.rel_times(bi), rel.as_slice());
                for repr in ReprKind::ALL {
                    let fresh = repr.build().encode(&rel).unwrap();
                    prop_assert_eq!(enc.target(repr, bi).unwrap(), fresh.as_slice());
                }
                // Window 0 must equal the head profile that prediction
                // queries compute fresh at predict time.
                let fresh = Profile::from_runs(&bench.runs, s).unwrap().features;
                prop_assert_eq!(enc.profile(s, bi, 0).unwrap(), fresh.as_slice());
            }
        }
    }
}
