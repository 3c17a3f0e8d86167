//! Quickstart: measure a corpus, train a predictor, predict a new
//! application's performance distribution from ten runs, and score it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use perfvar_suite::core::report::overlay;
use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::Predictor;
use perfvar_suite::stats::ks::ks2_statistic;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

fn main() {
    // 1. Measure: 200 runs of every roster benchmark on the (simulated)
    //    Intel system. The paper uses 1,000; 200 keeps the example snappy.
    let corpus = Corpus::collect(&SystemModel::intel(), 200, 42);
    println!(
        "measured {} benchmarks × {} runs on {}",
        corpus.len(),
        corpus.n_runs,
        corpus.system.short_name()
    );

    // 2. Pretend `specomp/376` is the new application: train on everything
    //    else (leave-one-group-out style).
    let target = corpus
        .benchmarks
        .iter()
        .position(|b| b.id.qualified() == "specomp/376")
        .expect("roster benchmark");
    let include: Vec<usize> = (0..corpus.len()).filter(|&i| i != target).collect();

    // 3. Train the paper's best configuration: PearsonRnd representation +
    //    kNN (k = 15, cosine), profiles from 10 runs.
    let cfg = FewRunsConfig {
        n_profile_runs: 10,
        profiles_per_benchmark: 10,
        ..FewRunsConfig::default()
    };
    let predictor = Predictor::train_few_runs(&corpus, &include, cfg).expect("training");

    // 4. Predict the full distribution from just 10 runs of the target.
    let bench = &corpus.benchmarks[target];
    let predicted = predictor
        .predict_distribution(&bench.runs, 1000, 0)
        .expect("prediction");

    // 5. Compare against the measured distribution.
    let measured = bench.runs.rel_times();
    let ks = ks2_statistic(&predicted, &measured).expect("ks");
    println!("\npredicting {} from 10 runs:", bench.id.qualified());
    println!("KS(predicted, measured) = {ks:.3}  (0 = perfect, 1 = disjoint)\n");
    let lo = 0.9;
    let hi = 1.3;
    print!(
        "{}",
        overlay(&measured, &predicted, lo, hi, 64).expect("overlay")
    );
    println!("            (relative time axis: [{lo}, {hi}])");
}
