//! Adaptive measurement: how many runs does each benchmark actually need,
//! and which counters drive the prediction?
//!
//! Two tools from the workspace's "beyond the paper" toolbox:
//!
//! * the [stopping rule](perfvar_suite::stats::stopping) decides per
//!   benchmark when the measured sample is statistically sufficient
//!   (bootstrap CIs of the median and p95 both tight) — heavy-tailed
//!   benchmarks need far more runs than tight ones;
//! * [permutation importance](perfvar_suite::ml::permutation_importance)
//!   reveals which profile features a trained distribution predictor
//!   actually relies on.
//!
//! ```text
//! cargo run --release --example adaptive_measurement
//! ```

use perfvar_suite::core::Profile;
use perfvar_suite::ml::{permutation_importance, Dataset, DenseMatrix, Regressor};
use perfvar_suite::ml::{Distance, KnnRegressor};
use perfvar_suite::stats::rng::Xoshiro256pp;
use perfvar_suite::stats::stopping::StoppingRule;
use perfvar_suite::sysmodel::{Corpus, SystemModel};
use rand::SeedableRng;

fn main() {
    let corpus = Corpus::collect(&SystemModel::intel(), 600, 21);

    // --- 1. adaptive stopping ------------------------------------------
    println!("runs needed per benchmark (95% CIs of median & p95 within 3%):\n");
    let rule = StoppingRule {
        relative_width: 0.03,
        ..StoppingRule::default()
    };
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let mut shown = 0;
    let mut never = 0;
    for bench in corpus.benchmarks.iter().step_by(4) {
        let times = bench.runs.times();
        match rule
            .first_sufficient_prefix(&mut rng, &times, 10)
            .expect("stopping rule")
        {
            Some(n) => {
                if shown < 10 {
                    println!(
                        "  {:<26} {:>4} runs  ({} component(s){})",
                        bench.id.qualified(),
                        n,
                        bench.ground_truth.modes.len(),
                        if bench.ground_truth.tail.is_some() {
                            " + tail"
                        } else {
                            ""
                        }
                    );
                    shown += 1;
                }
            }
            None => never += 1,
        }
    }
    if never > 0 {
        println!("  ({never} sampled benchmarks never satisfied the rule within 600 runs)");
    }

    // --- 2. which counters matter? -------------------------------------
    // Train a small single-output model: profile features → distribution
    // std, then rank features by permutation importance.
    println!("\nmost important profile features for predicting distribution width:\n");
    let mut x_rows = Vec::new();
    let mut y_rows = Vec::new();
    for b in &corpus.benchmarks {
        let p = Profile::from_runs(&b.runs, 10).expect("profile");
        x_rows.push(p.features);
        let m = perfvar_suite::stats::moments::Moments::from_slice(&b.runs.rel_times());
        y_rows.push(vec![m.population_std()]);
    }
    let data = Dataset::new(
        DenseMatrix::from_rows(&x_rows).expect("x"),
        DenseMatrix::from_rows(&y_rows).expect("y"),
    )
    .expect("dataset");
    let mut scaler = perfvar_suite::ml::StandardScaler::new();
    let x = scaler.fit_transform(&data.x).expect("scale");
    let data = Dataset::new(x, data.y.clone()).expect("dataset");
    let mut model = KnnRegressor::new(15).with_distance(Distance::Cosine);
    model.fit(&data).expect("fit");
    let imp = permutation_importance(&model, &data, 2, 3).expect("importance");

    // Feature j corresponds to metric j/4, statistic j%4.
    let stat_names = ["mean", "std", "skew", "kurt"];
    let catalog = corpus.system.catalog();
    let mut ranked: Vec<(usize, f64)> = imp.iter().cloned().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (j, v) in ranked.iter().take(10) {
        println!(
            "  {:<44} ({:>4}) Δmse {:+.2e}",
            catalog[j / 4].name,
            stat_names[j % 4],
            v
        );
    }
    println!(
        "\nNote how per-run *spread* statistics (std) of cause counters rank\n\
         highly: run-to-run counter variation is the channel through which\n\
         a profile reveals the shape of the performance distribution."
    );
}
