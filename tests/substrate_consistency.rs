//! Cross-crate consistency: the independent substrates must agree with
//! each other and with closed forms.

use perfvar_suite::maxent::MaxEntDensity;
use perfvar_suite::pearson::PearsonDist;
use perfvar_suite::stats::ks::{ks1_statistic, ks2_statistic};
use perfvar_suite::stats::moments::MomentSummary;
use perfvar_suite::stats::rng::Xoshiro256pp;
use perfvar_suite::stats::samplers::Normal;
use rand::SeedableRng;

#[test]
fn pearson_and_maxent_agree_on_normal_moments() {
    // Two completely independent reconstruction engines given the same
    // four moments of a normal distribution must produce statistically
    // indistinguishable samples.
    let spec = MomentSummary {
        mean: 1.0,
        std: 0.05,
        skewness: 0.0,
        kurtosis: 3.0,
    };
    let pearson = PearsonDist::fit(spec).unwrap();
    let maxent = MaxEntDensity::from_summary(&spec, (0.7, 1.3)).unwrap();
    let mut r1 = Xoshiro256pp::seed_from_u64(1);
    let mut r2 = Xoshiro256pp::seed_from_u64(2);
    let a = pearson.sample_n(&mut r1, 4000);
    let b = maxent.sample_n(&mut r2, 4000);
    let ks = ks2_statistic(&a, &b).unwrap();
    assert!(ks < 0.04, "Pearson vs MaxEnt KS = {ks}");
}

#[test]
fn both_engines_match_the_true_normal_cdf() {
    let spec = MomentSummary::standard_normal();
    let normal = Normal::standard();
    let pearson = PearsonDist::fit(spec).unwrap();
    let maxent = MaxEntDensity::from_summary(&spec, (-6.0, 6.0)).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let ps = pearson.sample_n(&mut rng, 4000);
    let ms = maxent.sample_n(&mut rng, 4000);
    assert!(ks1_statistic(&ps, |x| normal.cdf(x)).unwrap() < 0.03);
    assert!(ks1_statistic(&ms, |x| normal.cdf(x)).unwrap() < 0.03);
}

#[test]
fn reconstruction_moments_roundtrip_for_skewed_specs() {
    // For a feasible skewed spec, both engines must reproduce the
    // requested mean and std from their samples.
    let spec = MomentSummary {
        mean: 2.0,
        std: 0.3,
        skewness: 0.9,
        kurtosis: 4.2,
    };
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let pearson = PearsonDist::fit(spec).unwrap();
    let xs = pearson.sample_n(&mut rng, 50_000);
    let got = MomentSummary::from_sample(&xs).unwrap();
    assert!((got.mean - spec.mean).abs() < 0.01);
    assert!((got.std - spec.std).abs() < 0.01);
    assert!((got.skewness - spec.skewness).abs() < 0.1);

    let maxent = MaxEntDensity::from_summary(&spec, (0.5, 4.5)).unwrap();
    let ys = maxent.sample_n(&mut rng, 50_000);
    let got = MomentSummary::from_sample(&ys).unwrap();
    assert!((got.mean - spec.mean).abs() < 0.01);
    assert!((got.std - spec.std).abs() < 0.01);
    assert!((got.skewness - spec.skewness).abs() < 0.1);
}

#[test]
fn simulator_moments_agree_with_ground_truth_mixture() {
    // The runner's empirical relative times must match the analytic
    // ground-truth mixture it claims to sample.
    use perfvar_suite::sysmodel::{Corpus, SystemModel};
    let corpus = Corpus::collect(&SystemModel::intel(), 2000, 99);
    for bench in corpus.benchmarks.iter().step_by(7) {
        let rel = bench.runs.rel_times();
        let m = MomentSummary::from_sample(&rel).unwrap();
        // Mixture mean is normalized to exactly 1.
        assert!(
            (m.mean - 1.0).abs() < 0.02,
            "{}: mean = {}",
            bench.id,
            m.mean
        );
        // Mode mass fractions match component weights (loose check on the
        // primary mode).
        let gt = &bench.ground_truth;
        let primary_weight = gt.modes[0].weight;
        let primary_count = bench
            .runs
            .records
            .iter()
            .filter(|r| r.component == 0)
            .count() as f64
            / rel.len() as f64;
        assert!(
            (primary_count - primary_weight).abs() < 0.05,
            "{}: primary mode {} vs weight {}",
            bench.id,
            primary_count,
            primary_weight
        );
    }
}

#[test]
fn profile_features_identify_applications() {
    // Nearest-neighbour over profile features must match a benchmark's
    // second profile window to its own first window far more often than
    // chance (the premise of the kNN pipeline).
    use perfvar_suite::core::Profile;
    use perfvar_suite::ml::{Dataset, DenseMatrix};
    use perfvar_suite::ml::{Distance, KnnRegressor, Regressor};
    use perfvar_suite::sysmodel::{Corpus, RunSet, SystemModel};

    let corpus = Corpus::collect(&SystemModel::intel(), 40, 17);
    let window = |b: &perfvar_suite::sysmodel::BenchmarkData, w: usize| -> Vec<f64> {
        let rs = RunSet {
            bench: b.id,
            system: corpus.system,
            records: b.runs.records[w * 10..(w + 1) * 10].to_vec(),
        };
        Profile::from_runs(&rs, 10).unwrap().features
    };
    let train: Vec<Vec<f64>> = corpus.benchmarks.iter().map(|b| window(b, 0)).collect();
    let ids: Vec<Vec<f64>> = (0..train.len()).map(|i| vec![i as f64]).collect();
    let mut knn = KnnRegressor::new(1).with_distance(Distance::Cosine);
    knn.fit(
        &Dataset::new(
            DenseMatrix::from_rows(&train).unwrap(),
            DenseMatrix::from_rows(&ids).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    // Standardize? The pipeline standardizes; raw cosine still identifies
    // strongly because mean rates dominate. Count self-matches.
    let mut hits = 0;
    for (i, b) in corpus.benchmarks.iter().enumerate() {
        let q = window(b, 1);
        let got = knn.predict(&q).unwrap()[0] as usize;
        hits += usize::from(got == i);
    }
    assert!(
        hits >= corpus.len() / 2,
        "only {hits}/60 self-identifications"
    );
}
