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

use serde::{Deserialize, Serialize};

use pv_stats::StatsError;
use pv_sysmodel::Corpus;

use crate::eval::{cross_system_specs, source_window};
use crate::model::ModelKind;
use crate::pipeline::EncodedCorpus;
use crate::predictor::{check_include, Predictor};
use crate::repr::ReprKind;
use crate::sweep::CellConfig;

/// Configuration of a cross-system [`Predictor`].
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

impl Predictor {
    /// Trains a cross-system predictor on the benchmarks present in both
    /// corpora whose roster indices are in `include`. The corpora must
    /// be over the same roster (`Corpus::collect` guarantees this) but
    /// different systems.
    ///
    /// # Errors
    /// Fails on empty `include`, mismatched corpora, or fit failure.
    pub fn train_cross_system(
        src: &Corpus,
        dst: &Corpus,
        include: &[usize],
        cfg: CrossSystemConfig,
    ) -> Result<Self, StatsError> {
        check_include(include)?;
        let (src_spec, dst_spec) = cross_system_specs(src, &cfg);
        let src_enc = EncodedCorpus::build(src, &src_spec)?;
        let dst_enc = EncodedCorpus::build(dst, &dst_spec)?;
        Self::train_cross_system_encoded(&src_enc, &dst_enc, include, cfg)
    }

    /// [`Predictor::train_cross_system`] on prebuilt caches — produces a
    /// bit-identical model without recomputing profiles or encodings.
    /// The source cache must cover joined rows for the effective
    /// profile-run count (`profile_runs` clamped to the corpus) under
    /// `cfg.repr`, the destination cache target encodings under
    /// `cfg.repr`.
    ///
    /// # Errors
    /// Fails on empty `include`, mismatched corpora, missing cache
    /// entries, or fit failure.
    pub fn train_cross_system_encoded(
        src: &EncodedCorpus,
        dst: &EncodedCorpus,
        include: &[usize],
        cfg: CrossSystemConfig,
    ) -> Result<Self, StatsError> {
        check_include(include)?;
        let src_corpus = src.corpus();
        let dst_corpus = dst.corpus();
        if src_corpus.len() != dst_corpus.len() {
            return Err(StatsError::invalid(
                "Predictor::train",
                "source and destination corpora cover different rosters",
            ));
        }
        if src_corpus.system == dst_corpus.system {
            return Err(StatsError::invalid(
                "Predictor::train",
                "source and destination are the same system",
            ));
        }
        let s = source_window(&cfg, src_corpus.n_runs);
        let mut x_rows: Vec<&[f64]> = Vec::with_capacity(include.len());
        let mut y_rows: Vec<&[f64]> = Vec::with_capacity(include.len());
        for &bi in include {
            let sb = src_corpus
                .benchmarks
                .get(bi)
                .ok_or_else(|| StatsError::invalid("Predictor::train", "bad index"))?;
            if sb.id != dst_corpus.benchmarks[bi].id {
                return Err(StatsError::invalid(
                    "Predictor::train",
                    "corpora rosters are misaligned",
                ));
            }
            x_rows.push(src.joined(s, cfg.repr, bi)?);
            y_rows.push(dst.target(cfg.repr, bi)?);
        }
        Predictor::fit(
            CellConfig::CrossSystem(cfg),
            &x_rows,
            &y_rows,
            src_corpus.n_metrics(),
        )
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
        let p = Predictor::train_cross_system(&amd, &intel, &all, cfg()).unwrap();
        let pred = p
            .predict_distribution(&amd.benchmarks[0].runs, 500, 1)
            .unwrap();
        assert_eq!(pred.len(), 500);
        assert!(pred.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rejects_same_system_pairs() {
        let (amd, _) = corpora();
        let all: Vec<usize> = (0..amd.len()).collect();
        assert!(Predictor::train_cross_system(&amd, &amd, &all, cfg()).is_err());
    }

    #[test]
    fn rejects_empty_include() {
        let (amd, intel) = corpora();
        assert!(Predictor::train_cross_system(&amd, &intel, &[], cfg()).is_err());
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
        let a = Predictor::train_cross_system(&amd, &intel, &include, c).unwrap();
        let b = Predictor::train_cross_system_encoded(&src_enc, &dst_enc, &include, c).unwrap();
        let pa = a
            .predict_distribution(&amd.benchmarks[0].runs, 400, 5)
            .unwrap();
        let pb = b
            .predict_distribution(&amd.benchmarks[0].runs, 400, 5)
            .unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn held_out_prediction_is_finite_and_deterministic() {
        let (amd, intel) = corpora();
        let include: Vec<usize> = (1..amd.len()).collect();
        let p = Predictor::train_cross_system(&amd, &intel, &include, cfg()).unwrap();
        let a = p
            .predict_distribution(&amd.benchmarks[0].runs, 300, 7)
            .unwrap();
        let b = p
            .predict_distribution(&amd.benchmarks[0].runs, 300, 7)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn both_directions_train() {
        let (amd, intel) = corpora();
        let all: Vec<usize> = (0..amd.len()).collect();
        assert!(Predictor::train_cross_system(&amd, &intel, &all, cfg()).is_ok());
        assert!(Predictor::train_cross_system(&intel, &amd, &all, cfg()).is_ok());
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
                let p = Predictor::train_cross_system(&amd, &intel, &all, c).unwrap();
                let pred = p
                    .predict_distribution(&amd.benchmarks[2].runs, 100, 3)
                    .unwrap();
                assert_eq!(pred.len(), 100, "{} × {}", repr.name(), model.name());
            }
        }
    }
}
