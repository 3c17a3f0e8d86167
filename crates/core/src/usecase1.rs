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

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use pv_ml::{Dataset, DenseMatrix, StandardScaler};
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use pv_sysmodel::{Corpus, RunSet};

use crate::eval::few_runs_spec;
use crate::model::{FittedModel, ModelKind};
use crate::pipeline::EncodedCorpus;
use crate::profile::Profile;
use crate::repr::{DistributionRepr, ReprKind};

/// Configuration of a few-runs predictor.
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

/// A trained few-runs distribution predictor.
pub struct FewRunsPredictor {
    repr: Box<dyn DistributionRepr>,
    model: FittedModel,
    scaler: Option<StandardScaler>,
    cfg: FewRunsConfig,
    n_metrics: usize,
}

/// The serializable state of a [`FewRunsPredictor`] — everything needed
/// to reconstruct it bit-identically (the repr is rebuilt from
/// `config.repr`, which is stateless).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FewRunsArtifact {
    /// Training configuration.
    pub config: FewRunsConfig,
    /// Fitted model state.
    pub model: FittedModel,
    /// Fitted standardization moments, when the model standardizes.
    pub scaler: Option<StandardScaler>,
    /// Metric count of the training corpus (prediction-time validation).
    pub n_metrics: usize,
}

impl FewRunsPredictor {
    /// Trains on the benchmarks of `corpus` whose roster indices are in
    /// `include` (pass `0..corpus.len()` for everything; leave-one-out
    /// evaluation passes everything except the held-out benchmark).
    ///
    /// # Errors
    /// Fails when `include` is empty, windows don't fit in the corpus, or
    /// the underlying encode/fit fails.
    pub fn train(
        corpus: &Corpus,
        include: &[usize],
        cfg: FewRunsConfig,
    ) -> Result<Self, StatsError> {
        if include.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "FewRunsPredictor::train",
                needed: 1,
                got: 0,
            });
        }
        if cfg.n_profile_runs == 0 {
            return Err(StatsError::invalid(
                "FewRunsPredictor::train",
                "n_profile_runs = 0",
            ));
        }
        let enc = EncodedCorpus::build(corpus, &few_runs_spec(&cfg))?;
        Self::train_encoded(&enc, include, cfg)
    }

    /// [`FewRunsPredictor::train`] on a prebuilt [`EncodedCorpus`] —
    /// produces a bit-identical model without recomputing profiles or
    /// encodings. The cache must cover `(n_profile_runs,
    /// profiles_per_benchmark)` windows and the target representation.
    ///
    /// # Errors
    /// Fails when `include` is empty or contains bad indices, or the
    /// cache is missing required entries.
    pub fn train_encoded(
        enc: &EncodedCorpus,
        include: &[usize],
        cfg: FewRunsConfig,
    ) -> Result<Self, StatsError> {
        if include.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "FewRunsPredictor::train",
                needed: 1,
                got: 0,
            });
        }
        let corpus = enc.corpus();
        let s = cfg.n_profile_runs;
        let windows = cfg.profiles_per_benchmark.max(1);
        let repr = cfg.repr.build();
        let mut x_rows: Vec<&[f64]> = Vec::with_capacity(include.len() * windows);
        let mut y_rows: Vec<&[f64]> = Vec::with_capacity(include.len() * windows);
        for &bi in include {
            if bi >= corpus.len() {
                return Err(StatsError::invalid("FewRunsPredictor::train", "bad index"));
            }
            let target = enc.target(cfg.repr, bi)?;
            for w in 0..windows {
                x_rows.push(enc.profile(s, bi, w)?);
                y_rows.push(target);
            }
        }
        let x = DenseMatrix::from_row_refs(&x_rows)?;
        let y = DenseMatrix::from_row_refs(&y_rows)?;
        // kNN runs on raw per-second features (see
        // `ModelKind::wants_standardization`).
        let (scaler, x) = if cfg.model.wants_standardization() {
            let mut sc = StandardScaler::new();
            let x = sc.fit_transform(&x)?;
            (Some(sc), x)
        } else {
            (None, x)
        };
        let data = Dataset::new(x, y)?;
        let mut model = cfg.model.build_fitted(cfg.seed);
        model.regressor_mut().fit(&data)?;
        Ok(FewRunsPredictor {
            repr,
            model,
            scaler,
            cfg,
            n_metrics: corpus.n_metrics(),
        })
    }

    /// The configuration this predictor was trained with.
    pub fn config(&self) -> &FewRunsConfig {
        &self.cfg
    }

    /// Metric count of the training corpus.
    pub fn n_metrics(&self) -> usize {
        self.n_metrics
    }

    /// Extracts the predictor's serializable state (for the model
    /// registry).
    pub fn to_artifact(&self) -> FewRunsArtifact {
        FewRunsArtifact {
            config: self.cfg,
            model: self.model.clone(),
            scaler: self.scaler.clone(),
            n_metrics: self.n_metrics,
        }
    }

    /// Reconstructs a predictor from its serialized state. The result
    /// predicts bit-identically to the predictor the artifact was taken
    /// from.
    ///
    /// # Errors
    /// Fails when the fitted model's kind disagrees with the config.
    pub fn from_artifact(artifact: FewRunsArtifact) -> Result<Self, StatsError> {
        if artifact.model.kind() != artifact.config.model {
            return Err(StatsError::invalid(
                "FewRunsPredictor::from_artifact",
                format!(
                    "artifact model is {}, config says {}",
                    artifact.model.kind().name(),
                    artifact.config.model.name()
                ),
            ));
        }
        Ok(FewRunsPredictor {
            repr: artifact.config.repr.build(),
            model: artifact.model,
            scaler: artifact.scaler,
            cfg: artifact.config,
            n_metrics: artifact.n_metrics,
        })
    }

    /// Predicts the representation feature vector from the first
    /// `n_profile_runs` runs of `runs`.
    ///
    /// # Errors
    /// Fails when fewer runs are supplied than the profile needs.
    pub fn predict_features(&self, runs: &RunSet) -> Result<Vec<f64>, StatsError> {
        let p = Profile::from_runs(runs, self.cfg.n_profile_runs)?;
        self.predict_features_profile(&p)
    }

    /// Predicts the representation feature vector from a prebuilt
    /// [`Profile`] — the serving path, where the client ships the profile
    /// instead of raw runs.
    ///
    /// # Errors
    /// Fails when the profile's metric count or feature length disagrees
    /// with what the model was trained on.
    pub fn predict_features_profile(&self, profile: &Profile) -> Result<Vec<f64>, StatsError> {
        if profile.n_metrics != self.n_metrics {
            return Err(StatsError::invalid(
                "FewRunsPredictor::predict",
                format!(
                    "profile has {} metrics, model expects {}",
                    profile.n_metrics, self.n_metrics
                ),
            ));
        }
        let dim = Profile::feature_dim(self.n_metrics, self.cfg.n_profile_runs);
        if profile.features.len() != dim {
            return Err(StatsError::invalid(
                "FewRunsPredictor::predict",
                format!(
                    "profile has {} features, model expects {dim}",
                    profile.features.len()
                ),
            ));
        }
        let mut features = profile.features.clone();
        if let Some(sc) = &self.scaler {
            sc.transform_row(&mut features)?;
        }
        self.model.regressor().predict(&features)
    }

    /// Predicts and reconstructs the distribution as `n_samples` relative
    /// times.
    ///
    /// # Errors
    /// Propagates prediction/decoding failures.
    pub fn predict_distribution(
        &self,
        runs: &RunSet,
        n_samples: usize,
        sample_seed: u64,
    ) -> Result<Vec<f64>, StatsError> {
        let p = Profile::from_runs(runs, self.cfg.n_profile_runs)?;
        self.predict_distribution_profile(&p, n_samples, sample_seed)
    }

    /// [`Self::predict_distribution`] from a prebuilt [`Profile`].
    ///
    /// # Errors
    /// Propagates prediction/decoding failures.
    pub fn predict_distribution_profile(
        &self,
        profile: &Profile,
        n_samples: usize,
        sample_seed: u64,
    ) -> Result<Vec<f64>, StatsError> {
        let f = self.predict_features_profile(profile)?;
        self.decode_features(&f, n_samples, sample_seed)
    }

    /// Reconstructs `n_samples` relative times from an
    /// already-predicted representation vector — lets a caller that
    /// needs both the vector and the samples predict once.
    ///
    /// # Errors
    /// Propagates decoding failures.
    pub fn decode_features(
        &self,
        features: &[f64],
        n_samples: usize,
        sample_seed: u64,
    ) -> Result<Vec<f64>, StatsError> {
        let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(self.cfg.seed, sample_seed));
        self.repr.decode(features, &mut rng, n_samples)
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
        let p = FewRunsPredictor::train(&corpus, &all, cfg()).unwrap();
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
        let p = FewRunsPredictor::train(&corpus, &include, cfg()).unwrap();
        let bench = &corpus.benchmarks[0];
        let pred = p.predict_distribution(&bench.runs, 1000, 2).unwrap();
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn prediction_is_deterministic() {
        let corpus = small_corpus();
        let all: Vec<usize> = (0..corpus.len()).collect();
        let p = FewRunsPredictor::train(&corpus, &all, cfg()).unwrap();
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
        let a = FewRunsPredictor::train(&corpus, &include, cfg()).unwrap();
        let b = FewRunsPredictor::train_encoded(&enc, &include, cfg()).unwrap();
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
        assert!(FewRunsPredictor::train(&corpus, &[], cfg()).is_err());
        let mut bad = cfg();
        bad.n_profile_runs = 0;
        assert!(FewRunsPredictor::train(&corpus, &all, bad).is_err());
        let mut too_big = cfg();
        too_big.n_profile_runs = 100; // 4 × 100 > 60 runs
        assert!(FewRunsPredictor::train(&corpus, &all, too_big).is_err());
    }

    #[test]
    fn single_run_profiles_work() {
        let corpus = small_corpus();
        let all: Vec<usize> = (0..corpus.len()).collect();
        let mut c = cfg();
        c.n_profile_runs = 1;
        let p = FewRunsPredictor::train(&corpus, &all, c).unwrap();
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
                let p = FewRunsPredictor::train(&corpus, &include, c).unwrap();
                let pred = p
                    .predict_distribution(&corpus.benchmarks[1].runs, 100, 4)
                    .unwrap();
                assert_eq!(pred.len(), 100, "{} × {}", repr.name(), model.name());
            }
        }
    }
}
