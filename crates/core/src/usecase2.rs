//! Use case #2: predicting a performance distribution on a *new* system
//! from a measured distribution on a different system (Section III-A2).
//!
//! A system-to-system model is trained on benchmarks measured on both
//! systems: the features are the application's profile on the source
//! system concatenated with the chosen representation of its *measured*
//! source-system distribution, and the target is the representation of
//! its distribution on the destination system. A user who cannot access
//! the destination machine measures on the machine they own and predicts
//! what they would see on the new one.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use pv_ml::{Dataset, DenseMatrix, StandardScaler};
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use pv_sysmodel::{BenchmarkData, Corpus};

use crate::eval::cross_system_specs;
use crate::model::{FittedModel, ModelKind};
use crate::pipeline::EncodedCorpus;
use crate::profile::Profile;
use crate::repr::{DistributionRepr, ReprKind};

/// Configuration of a cross-system predictor.
///
/// All fields are discrete, so the config is `Eq + Hash` and can key
/// sweep-cell sets and caches directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CrossSystemConfig {
    /// Distribution representation (both the input distribution on the
    /// source system and the predicted one on the destination).
    pub repr: ReprKind,
    /// Regression model.
    pub model: ModelKind,
    /// Number of source-system runs summarized into the profile features.
    pub profile_runs: usize,
    /// Root seed for model randomness and reconstruction sampling.
    pub seed: u64,
}

impl Default for CrossSystemConfig {
    fn default() -> Self {
        CrossSystemConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            profile_runs: 100,
            seed: 0xC0FFEE,
        }
    }
}

/// A trained system-to-system distribution predictor.
pub struct CrossSystemPredictor {
    repr: Box<dyn DistributionRepr>,
    model: FittedModel,
    scaler: Option<StandardScaler>,
    cfg: CrossSystemConfig,
}

/// The serializable state of a [`CrossSystemPredictor`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossSystemArtifact {
    /// Training configuration.
    pub config: CrossSystemConfig,
    /// Fitted model state.
    pub model: FittedModel,
    /// Fitted standardization moments, when the model standardizes.
    pub scaler: Option<StandardScaler>,
}

impl CrossSystemPredictor {
    /// Trains on benchmarks present in both corpora whose roster indices
    /// are in `include`. The corpora must be over the same roster
    /// (`Corpus::collect` guarantees this) but different systems.
    ///
    /// # Errors
    /// Fails on empty `include`, mismatched corpora, or fit failure.
    pub fn train(
        src: &Corpus,
        dst: &Corpus,
        include: &[usize],
        cfg: CrossSystemConfig,
    ) -> Result<Self, StatsError> {
        if include.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "CrossSystemPredictor::train",
                needed: 1,
                got: 0,
            });
        }
        let (src_spec, dst_spec) = cross_system_specs(src, &cfg);
        let src_enc = EncodedCorpus::build(src, &src_spec)?;
        let dst_enc = EncodedCorpus::build(dst, &dst_spec)?;
        Self::train_encoded(&src_enc, &dst_enc, include, cfg)
    }

    /// [`CrossSystemPredictor::train`] on prebuilt caches — produces a
    /// bit-identical model without recomputing profiles or encodings. The
    /// source cache must cover joined rows for the effective profile-run
    /// count (`profile_runs` clamped to the corpus) under `cfg.repr`, the
    /// destination cache target encodings under `cfg.repr`.
    ///
    /// # Errors
    /// Fails on empty `include`, mismatched corpora, missing cache
    /// entries, or fit failure.
    pub fn train_encoded(
        src: &EncodedCorpus,
        dst: &EncodedCorpus,
        include: &[usize],
        cfg: CrossSystemConfig,
    ) -> Result<Self, StatsError> {
        if include.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "CrossSystemPredictor::train",
                needed: 1,
                got: 0,
            });
        }
        let src_corpus = src.corpus();
        let dst_corpus = dst.corpus();
        if src_corpus.len() != dst_corpus.len() {
            return Err(StatsError::invalid(
                "CrossSystemPredictor::train",
                "source and destination corpora cover different rosters",
            ));
        }
        if src_corpus.system == dst_corpus.system {
            return Err(StatsError::invalid(
                "CrossSystemPredictor::train",
                "source and destination are the same system",
            ));
        }
        let s_eff = cfg.profile_runs.min(src_corpus.n_runs).max(1);
        let repr = cfg.repr.build();
        let mut x_rows: Vec<&[f64]> = Vec::with_capacity(include.len());
        let mut y_rows: Vec<&[f64]> = Vec::with_capacity(include.len());
        let mut groups = Vec::with_capacity(include.len());
        for &bi in include {
            let s = src_corpus
                .benchmarks
                .get(bi)
                .ok_or_else(|| StatsError::invalid("CrossSystemPredictor::train", "bad index"))?;
            let d = &dst_corpus.benchmarks[bi];
            if s.id != d.id {
                return Err(StatsError::invalid(
                    "CrossSystemPredictor::train",
                    "corpora rosters are misaligned",
                ));
            }
            x_rows.push(src.joined(s_eff, cfg.repr, bi)?);
            y_rows.push(dst.target(cfg.repr, bi)?);
            groups.push(bi);
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
        let data = Dataset::new(x, y, groups)?;
        let mut model = cfg.model.build_fitted(cfg.seed);
        model.regressor_mut().fit(&data)?;
        Ok(CrossSystemPredictor {
            repr,
            model,
            scaler,
            cfg,
        })
    }

    /// The configuration this predictor was trained with.
    pub fn config(&self) -> &CrossSystemConfig {
        &self.cfg
    }

    /// Extracts the predictor's serializable state (for the model
    /// registry).
    pub fn to_artifact(&self) -> CrossSystemArtifact {
        CrossSystemArtifact {
            config: self.cfg,
            model: self.model.clone(),
            scaler: self.scaler.clone(),
        }
    }

    /// Reconstructs a predictor from its serialized state. The result
    /// predicts bit-identically to the predictor the artifact was taken
    /// from.
    ///
    /// # Errors
    /// Fails when the fitted model's kind disagrees with the config.
    pub fn from_artifact(artifact: CrossSystemArtifact) -> Result<Self, StatsError> {
        if artifact.model.kind() != artifact.config.model {
            return Err(StatsError::invalid(
                "CrossSystemPredictor::from_artifact",
                format!(
                    "artifact model is {}, config says {}",
                    artifact.model.kind().name(),
                    artifact.config.model.name()
                ),
            ));
        }
        Ok(CrossSystemPredictor {
            repr: artifact.config.repr.build(),
            model: artifact.model,
            scaler: artifact.scaler,
            cfg: artifact.config,
        })
    }

    /// Assembles a feature row: source profile ⊕ source distribution
    /// representation.
    fn feature_row(
        repr: &dyn DistributionRepr,
        bench: &BenchmarkData,
        profile_runs: usize,
    ) -> Result<Vec<f64>, StatsError> {
        let s = profile_runs.min(bench.runs.len()).max(1);
        let p = Profile::from_runs(&bench.runs, s)?;
        let mut row = p.features;
        row.extend(repr.encode(&bench.runs.rel_times())?);
        Ok(row)
    }

    /// Predicts the destination-system representation vector for a
    /// benchmark measured on the source system.
    ///
    /// # Errors
    /// Propagates profile/encoding/prediction failures.
    pub fn predict_features(&self, src_bench: &BenchmarkData) -> Result<Vec<f64>, StatsError> {
        let mut row = Self::feature_row(self.repr.as_ref(), src_bench, self.cfg.profile_runs)?;
        if let Some(sc) = &self.scaler {
            sc.transform_row(&mut row)?;
        }
        self.model.regressor().predict(&row)
    }

    /// Predicts the destination representation vector from a prebuilt
    /// source-system [`Profile`] plus the measured source relative times
    /// — the serving path. The profile must cover the same metric set
    /// the model was trained on (the scaler's dimension check catches a
    /// mismatch).
    ///
    /// # Errors
    /// Propagates encoding/standardization/prediction failures.
    pub fn predict_features_profile(
        &self,
        profile: &Profile,
        src_rel_times: &[f64],
    ) -> Result<Vec<f64>, StatsError> {
        let mut row = profile.features.clone();
        row.extend(self.repr.encode(src_rel_times)?);
        if let Some(sc) = &self.scaler {
            sc.transform_row(&mut row)?;
        }
        self.model.regressor().predict(&row)
    }

    /// Predicts and reconstructs the destination distribution as
    /// `n_samples` relative times.
    ///
    /// # Errors
    /// Propagates prediction/decoding failures.
    pub fn predict_distribution(
        &self,
        src_bench: &BenchmarkData,
        n_samples: usize,
        sample_seed: u64,
    ) -> Result<Vec<f64>, StatsError> {
        let f = self.predict_features(src_bench)?;
        let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(self.cfg.seed, sample_seed));
        self.repr.decode(&f, &mut rng, n_samples)
    }

    /// [`Self::predict_distribution`] from a prebuilt profile plus
    /// measured source relative times.
    ///
    /// # Errors
    /// Propagates prediction/decoding failures.
    pub fn predict_distribution_profile(
        &self,
        profile: &Profile,
        src_rel_times: &[f64],
        n_samples: usize,
        sample_seed: u64,
    ) -> Result<Vec<f64>, StatsError> {
        let f = self.predict_features_profile(profile, src_rel_times)?;
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
    use pv_sysmodel::SystemModel;

    fn corpora() -> (Corpus, Corpus) {
        (
            Corpus::collect(&SystemModel::amd(), 60, 5),
            Corpus::collect(&SystemModel::intel(), 60, 5),
        )
    }

    fn cfg() -> CrossSystemConfig {
        CrossSystemConfig {
            profile_runs: 30,
            ..CrossSystemConfig::default()
        }
    }

    #[test]
    fn trains_and_predicts() {
        let (amd, intel) = corpora();
        let all: Vec<usize> = (0..amd.len()).collect();
        let p = CrossSystemPredictor::train(&amd, &intel, &all, cfg()).unwrap();
        let pred = p.predict_distribution(&amd.benchmarks[0], 500, 1).unwrap();
        assert_eq!(pred.len(), 500);
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_same_system_pairs() {
        let (amd, _) = corpora();
        let all: Vec<usize> = (0..amd.len()).collect();
        assert!(CrossSystemPredictor::train(&amd, &amd, &all, cfg()).is_err());
    }

    #[test]
    fn rejects_empty_include() {
        let (amd, intel) = corpora();
        assert!(CrossSystemPredictor::train(&amd, &intel, &[], cfg()).is_err());
    }

    #[test]
    fn train_encoded_matches_train() {
        let (amd, intel) = corpora();
        let include: Vec<usize> = (1..amd.len()).collect();
        let c = cfg();
        let s_eff = c.profile_runs.min(amd.n_runs).max(1);
        let src_enc =
            EncodedCorpus::build(&amd, &EncodingSpec::new().joined(s_eff, c.repr)).unwrap();
        let dst_enc = EncodedCorpus::build(&intel, &EncodingSpec::new().target(c.repr)).unwrap();
        let a = CrossSystemPredictor::train(&amd, &intel, &include, c).unwrap();
        let b = CrossSystemPredictor::train_encoded(&src_enc, &dst_enc, &include, c).unwrap();
        let pa = a.predict_distribution(&amd.benchmarks[0], 400, 5).unwrap();
        let pb = b.predict_distribution(&amd.benchmarks[0], 400, 5).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn held_out_prediction_is_finite_and_deterministic() {
        let (amd, intel) = corpora();
        let include: Vec<usize> = (1..amd.len()).collect();
        let p = CrossSystemPredictor::train(&amd, &intel, &include, cfg()).unwrap();
        let a = p.predict_distribution(&amd.benchmarks[0], 300, 7).unwrap();
        let b = p.predict_distribution(&amd.benchmarks[0], 300, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn both_directions_train() {
        let (amd, intel) = corpora();
        let all: Vec<usize> = (0..amd.len()).collect();
        assert!(CrossSystemPredictor::train(&amd, &intel, &all, cfg()).is_ok());
        assert!(CrossSystemPredictor::train(&intel, &amd, &all, cfg()).is_ok());
    }

    #[test]
    fn all_repr_model_combinations_train() {
        let (amd, intel) = corpora();
        let all: Vec<usize> = (0..amd.len()).collect();
        for repr in ReprKind::ALL {
            for model in ModelKind::ALL {
                let c = CrossSystemConfig {
                    repr,
                    model,
                    profile_runs: 20,
                    seed: 2,
                };
                let p = CrossSystemPredictor::train(&amd, &intel, &all, c).unwrap();
                let pred = p.predict_distribution(&amd.benchmarks[2], 100, 3).unwrap();
                assert_eq!(pred.len(), 100, "{} × {}", repr.name(), model.name());
            }
        }
    }
}
