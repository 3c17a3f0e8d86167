//! Use case #1: predicting a performance distribution from a few runs on
//! the same system (Section III-A1).
//!
//! A system-specific model is trained on a corpus of benchmarks measured
//! on the system of interest. Each benchmark contributes several training
//! rows: the features are a [`Profile`](crate::profile::Profile) built
//! from a window of `s` runs, and the target is the chosen
//! [representation](crate::repr) of the benchmark's full (1,000-run)
//! relative-time distribution. At prediction time, the user supplies just
//! `s` runs of a *new* application and gets its whole distribution back.

use serde::{Deserialize, Serialize};

use pv_stats::StatsError;
use pv_sysmodel::Corpus;

use crate::eval::few_runs_spec;
use crate::model::ModelKind;
use crate::pipeline::EncodedCorpus;
use crate::predictor::{check_include, Predictor};
use crate::repr::ReprKind;
use crate::sweep::CellConfig;

/// Configuration of a few-runs [`Predictor`].
///
/// All fields are discrete, so the config is `Eq + Hash` and can key
/// sweep-cell sets and caches directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FewRunsConfig {
    /// Distribution representation (prediction target format).
    pub repr: ReprKind,
    /// Regression model.
    pub model: ModelKind,
    /// Number of runs per profile (`s`; the paper's headline uses 10).
    pub n_profile_runs: usize,
    /// Training profiles drawn per benchmark (disjoint windows of `s`
    /// runs).
    pub profiles_per_benchmark: usize,
    /// Root seed for model randomness and reconstruction sampling.
    pub seed: u64,
}

impl Default for FewRunsConfig {
    fn default() -> Self {
        FewRunsConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            n_profile_runs: 10,
            profiles_per_benchmark: 1,
            seed: 0xC0FFEE,
        }
    }
}

impl Predictor {
    /// Trains a few-runs predictor on the benchmarks of `corpus` whose
    /// roster indices are in `include` (pass `0..corpus.len()` for
    /// everything; leave-one-out evaluation passes everything except the
    /// held-out benchmark).
    ///
    /// # Errors
    /// Fails when `include` is empty, windows don't fit in the corpus, or
    /// the underlying encode/fit fails.
    pub fn train_few_runs(
        corpus: &Corpus,
        include: &[usize],
        cfg: FewRunsConfig,
    ) -> Result<Self, StatsError> {
        check_include(include)?;
        if cfg.n_profile_runs == 0 {
            return Err(StatsError::invalid(
                "Predictor::train",
                "n_profile_runs = 0",
            ));
        }
        let enc = EncodedCorpus::build(corpus, &few_runs_spec(&cfg))?;
        Self::train_few_runs_encoded(&enc, include, cfg)
    }

    /// [`Predictor::train_few_runs`] on a prebuilt [`EncodedCorpus`] —
    /// produces a bit-identical model without recomputing profiles or
    /// encodings. The cache must cover `(n_profile_runs,
    /// profiles_per_benchmark)` windows and the target representation.
    ///
    /// # Errors
    /// Fails when `include` is empty or contains bad indices, or the
    /// cache is missing required entries.
    pub fn train_few_runs_encoded(
        enc: &EncodedCorpus,
        include: &[usize],
        cfg: FewRunsConfig,
    ) -> Result<Self, StatsError> {
        check_include(include)?;
        let corpus = enc.corpus();
        let windows = cfg.profiles_per_benchmark.max(1);
        let mut x_rows: Vec<&[f64]> = Vec::with_capacity(include.len() * windows);
        let mut y_rows: Vec<&[f64]> = Vec::with_capacity(include.len() * windows);
        for &bi in include {
            if bi >= corpus.len() {
                return Err(StatsError::invalid("Predictor::train", "bad index"));
            }
            let target = enc.target(cfg.repr, bi)?;
            for w in 0..windows {
                x_rows.push(enc.profile(cfg.n_profile_runs, bi, w)?);
                y_rows.push(target);
            }
        }
        Predictor::fit(
            CellConfig::FewRuns(cfg),
            &x_rows,
            &y_rows,
            corpus.n_metrics(),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pipeline::EncodingSpec;
    use pv_stats::ks::ks2_statistic;
    use pv_sysmodel::SystemModel;

    fn small_corpus() -> Corpus {
        Corpus::collect(&SystemModel::intel(), 60, 5)
    }

    fn cfg() -> FewRunsConfig {
        FewRunsConfig {
            n_profile_runs: 5,
            profiles_per_benchmark: 4,
            ..FewRunsConfig::default()
        }
    }

    #[test]
    fn trains_and_predicts_in_sample() {
        let corpus = small_corpus();
        let all: Vec<usize> = (0..corpus.len()).collect();
        let p = Predictor::train_few_runs(&corpus, &all, cfg()).unwrap();
        // Predicting a benchmark it trained on should be decent.
        let bench = &corpus.benchmarks[0];
        let pred = p.predict_distribution(&bench.runs, 1000, 1).unwrap();
        let ks = ks2_statistic(&pred, &bench.runs.rel_times()).unwrap();
        assert!(ks < 0.6, "in-sample KS = {ks}");
        assert_eq!(pred.len(), 1000);
    }

    #[test]
    fn held_out_prediction_beats_trivial_guess_on_average() {
        let corpus = small_corpus();
        // Hold out benchmark 0; train on the rest.
        let include: Vec<usize> = (1..corpus.len()).collect();
        let p = Predictor::train_few_runs(&corpus, &include, cfg()).unwrap();
        let bench = &corpus.benchmarks[0];
        let pred = p.predict_distribution(&bench.runs, 1000, 2).unwrap();
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn prediction_is_deterministic() {
        let corpus = small_corpus();
        let all: Vec<usize> = (0..corpus.len()).collect();
        let p = Predictor::train_few_runs(&corpus, &all, cfg()).unwrap();
        let a = p
            .predict_distribution(&corpus.benchmarks[3].runs, 100, 9)
            .unwrap();
        let b = p
            .predict_distribution(&corpus.benchmarks[3].runs, 100, 9)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn train_encoded_matches_train() {
        let corpus = small_corpus();
        let include: Vec<usize> = (1..corpus.len()).collect();
        let spec = EncodingSpec::new()
            .profiles(5, 4)
            .target(ReprKind::PearsonRnd);
        let enc = EncodedCorpus::build(&corpus, &spec).unwrap();
        let a = Predictor::train_few_runs(&corpus, &include, cfg()).unwrap();
        let b = Predictor::train_few_runs_encoded(&enc, &include, cfg()).unwrap();
        let pa = a
            .predict_distribution(&corpus.benchmarks[0].runs, 500, 7)
            .unwrap();
        let pb = b
            .predict_distribution(&corpus.benchmarks[0].runs, 500, 7)
            .unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn invalid_configurations_error() {
        let corpus = small_corpus();
        let all: Vec<usize> = (0..corpus.len()).collect();
        assert!(Predictor::train_few_runs(&corpus, &[], cfg()).is_err());
        let mut bad = cfg();
        bad.n_profile_runs = 0;
        assert!(Predictor::train_few_runs(&corpus, &all, bad).is_err());
        let mut too_big = cfg();
        too_big.n_profile_runs = 100; // 4 × 100 > 60 runs
        assert!(Predictor::train_few_runs(&corpus, &all, too_big).is_err());
    }

    #[test]
    fn single_run_profiles_work() {
        let corpus = small_corpus();
        let all: Vec<usize> = (0..corpus.len()).collect();
        let mut c = cfg();
        c.n_profile_runs = 1;
        let p = Predictor::train_few_runs(&corpus, &all, c).unwrap();
        let pred = p
            .predict_distribution(&corpus.benchmarks[7].runs, 200, 3)
            .unwrap();
        assert_eq!(pred.len(), 200);
    }

    #[test]
    fn all_repr_model_combinations_train() {
        let corpus = small_corpus();
        let include: Vec<usize> = (0..corpus.len()).collect();
        for repr in ReprKind::ALL {
            for model in ModelKind::ALL {
                let c = FewRunsConfig {
                    repr,
                    model,
                    n_profile_runs: 5,
                    profiles_per_benchmark: 2,
                    seed: 1,
                };
                let p = Predictor::train_few_runs(&corpus, &include, c).unwrap();
                let pred = p
                    .predict_distribution(&corpus.benchmarks[1].runs, 100, 4)
                    .unwrap();
                assert_eq!(pred.len(), 100, "{} × {}", repr.name(), model.name());
            }
        }
    }
}
