//! Use case 2 walk-through: predicting how an application behaves on a
//! machine you don't own.
//!
//! The paper's second scenario (Section III-A2): a user considering a new
//! system wants its performance distribution for their application
//! without access to the hardware. The vendor publishes a benchmark
//! corpus measured on the new system; the user measures the same corpus
//! on their current machine, trains a system-to-system model, and
//! predicts.
//!
//! ```text
//! cargo run --release --example cross_system_prediction
//! ```

use perfvar_suite::core::eval::evaluate_cross_system;
use perfvar_suite::core::report::{overlay, violin_row};
use perfvar_suite::core::usecase2::CrossSystemConfig;
use perfvar_suite::core::Predictor;
use perfvar_suite::stats::ks::ks2_statistic;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

fn main() {
    // The machine the user owns (AMD) and the machine they are
    // considering (Intel).
    let owned = Corpus::collect(&SystemModel::amd(), 300, 11);
    let candidate = Corpus::collect(&SystemModel::intel(), 300, 11);
    println!(
        "training corpora: {} benchmarks on {} (owned) and {} (candidate)\n",
        owned.len(),
        owned.system.short_name(),
        candidate.system.short_name()
    );

    // The user's application: pretend it's parsec/streamcluster, held out
    // of training entirely.
    let app = owned
        .benchmarks
        .iter()
        .position(|b| b.id.qualified() == "parsec/streamcluster")
        .expect("roster");
    let include: Vec<usize> = (0..owned.len()).filter(|&i| i != app).collect();

    let cfg = CrossSystemConfig::default(); // PearsonRnd + kNN
    let predictor =
        Predictor::train_cross_system(&owned, &candidate, &include, cfg).expect("training");

    // Predict the candidate-system distribution from the owned-system
    // measurements only.
    let predicted = predictor
        .predict_distribution(&owned.benchmarks[app].runs, 1000, 0)
        .expect("prediction");
    let actual = candidate.benchmarks[app].runs.rel_times();
    let ks = ks2_statistic(&predicted, &actual).expect("ks");

    println!(
        "{} on the candidate {} system (predicted from {} measurements):",
        owned.benchmarks[app].id.qualified(),
        candidate.system.short_name(),
        owned.system.short_name()
    );
    println!("KS(predicted, actual) = {ks:.3}\n");
    print!(
        "{}",
        overlay(&actual, &predicted, 0.9, 1.3, 64).expect("overlay")
    );

    // And the fleet-wide view: how well does this work across the whole
    // roster, in both directions? (Fig. 8.)
    println!("\nleave-one-benchmark-out evaluation, both directions:");
    let a2i = evaluate_cross_system(&owned, &candidate, cfg).expect("eval");
    let i2a = evaluate_cross_system(&candidate, &owned, cfg).expect("eval");
    println!(
        "{}",
        violin_row("AMD -> Intel", &a2i.ks_values(), 40).expect("violin")
    );
    println!(
        "{}",
        violin_row("Intel -> AMD", &i2a.ks_values(), 40).expect("violin")
    );
}
