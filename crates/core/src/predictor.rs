//! The trained distribution predictor of both use cases.
//!
//! Use case 1 (Section III-A1) and use case 2 (Section III-A2) are one
//! learning problem that differs only in the feature row: a
//! [`Profile`] of a few runs, or a profile of the source-system runs
//! followed by the representation of their measured distribution. A
//! [`Predictor`] is parameterized by its [`CellConfig`]: training
//! assembles the rows of its use case ([`crate::usecase1`],
//! [`crate::usecase2`]) and hands them to one scale-and-fit, and at
//! prediction time its only per-use-case code is the two-variant
//! feature assembly of [`Predictor::predict_features`].

use rand::SeedableRng;

use pv_ml::{Dataset, DenseMatrix, StandardScaler};
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use pv_sysmodel::RunSet;

use crate::eval::source_window;
use crate::profile::Profile;
use crate::registry::Artifact;
use crate::repr::DistributionRepr;
use crate::sweep::CellConfig;

/// Fails a training call whose include set is empty.
pub(crate) fn check_include(include: &[usize]) -> Result<(), StatsError> {
    if include.is_empty() {
        return Err(StatsError::EmptyInput {
            what: "Predictor::train",
            needed: 1,
            got: 0,
        });
    }
    Ok(())
}

/// A trained distribution predictor: its sealable state and the
/// representation its config names (stateless, so rebuilt rather than
/// stored).
pub struct Predictor {
    repr: Box<dyn DistributionRepr>,
    state: Artifact,
}

impl Predictor {
    /// Standardizes the training rows when the model wants it (every
    /// model does: see [`crate::ModelKind::wants_standardization`]) and
    /// fits the configured model on them. `n_metrics` is the training
    /// corpus' metric count.
    pub(crate) fn fit(
        config: CellConfig,
        x_rows: &[&[f64]],
        y_rows: &[&[f64]],
        n_metrics: usize,
    ) -> Result<Self, StatsError> {
        let x = DenseMatrix::from_row_refs(x_rows)?;
        let y = DenseMatrix::from_row_refs(y_rows)?;
        let (scaler, x) = if config.model().wants_standardization() {
            let mut sc = StandardScaler::new();
            let x = sc.fit_transform(&x)?;
            (Some(sc), x)
        } else {
            (None, x)
        };
        let data = Dataset::new(x, y)?;
        let mut model = config.model().build_fitted(config.seed());
        model.regressor_mut().fit(&data)?;
        Ok(Predictor {
            repr: config.repr().build(),
            state: Artifact {
                config,
                model,
                scaler,
                n_metrics,
            },
        })
    }

    /// The configuration this predictor was trained with.
    pub fn config(&self) -> &CellConfig {
        &self.state.config
    }

    /// Extracts the predictor's serializable state (for the model
    /// registry).
    pub fn to_artifact(&self) -> Artifact {
        self.state.clone()
    }

    /// Reconstructs a predictor from its serialized state. The result
    /// predicts bit-identically to the predictor the artifact was taken
    /// from.
    ///
    /// # Errors
    /// Fails when the fitted model's kind disagrees with the config.
    pub fn from_artifact(artifact: Artifact) -> Result<Self, StatsError> {
        if artifact.model.kind() != artifact.config.model() {
            return Err(StatsError::invalid(
                "Predictor::from_artifact",
                format!(
                    "artifact model is {}, config says {}",
                    artifact.model.kind().name(),
                    artifact.config.model().name()
                ),
            ));
        }
        Ok(Predictor {
            repr: artifact.config.repr().build(),
            state: artifact,
        })
    }

    /// Predicts the representation feature vector of one query: a
    /// profile, plus for a cross-system model the measured source
    /// relative times (a few-runs model ignores them). This is the
    /// serving path, where the client ships the profile instead of raw
    /// runs.
    ///
    /// # Errors
    /// A few-runs model fails when the profile's metric count or feature
    /// length disagrees with what it was trained on; a cross-system
    /// model fails without `src_rel_times` (the scaler's dimension check
    /// catches a profile of another metric set). Encoding,
    /// standardization and prediction failures propagate.
    pub fn predict_features(
        &self,
        profile: &Profile,
        src_rel_times: Option<&[f64]>,
    ) -> Result<Vec<f64>, StatsError> {
        let mut row = match self.state.config {
            CellConfig::FewRuns(cfg) => {
                let n_metrics = self.state.n_metrics;
                if profile.n_metrics != n_metrics {
                    return Err(StatsError::invalid(
                        "Predictor::predict",
                        format!(
                            "profile has {} metrics, model expects {n_metrics}",
                            profile.n_metrics
                        ),
                    ));
                }
                let dim = Profile::feature_dim(n_metrics, cfg.n_profile_runs);
                if profile.features.len() != dim {
                    return Err(StatsError::invalid(
                        "Predictor::predict",
                        format!(
                            "profile has {} features, model expects {dim}",
                            profile.features.len()
                        ),
                    ));
                }
                profile.features.clone()
            }
            CellConfig::CrossSystem(_) => {
                let rel = src_rel_times.ok_or_else(|| {
                    StatsError::invalid(
                        "Predictor::predict",
                        "a cross-system model needs the measured source distribution",
                    )
                })?;
                let mut row = profile.features.clone();
                row.extend(self.repr.encode(rel)?);
                row
            }
        };
        if let Some(sc) = &self.state.scaler {
            sc.transform_row(&mut row)?;
        }
        self.state.model.regressor().predict(&row)
    }

    /// Predicts and reconstructs the distribution of `runs` as
    /// `n_samples` relative times: from a profile of their first
    /// `n_profile_runs` (use case 1), or of their first
    /// `profile_runs` (clamped to the runs there are) plus their whole
    /// measured distribution on the source system (use case 2).
    ///
    /// # Errors
    /// Fails when fewer runs are supplied than a few-runs profile needs;
    /// propagates prediction/decoding failures.
    pub fn predict_distribution(
        &self,
        runs: &RunSet,
        n_samples: usize,
        sample_seed: u64,
    ) -> Result<Vec<f64>, StatsError> {
        let (s, rel) = match self.state.config {
            CellConfig::FewRuns(cfg) => (cfg.n_profile_runs, None),
            CellConfig::CrossSystem(cfg) => {
                (source_window(&cfg, runs.len()), Some(runs.rel_times()))
            }
        };
        let profile = Profile::from_runs(runs, s)?;
        let features = self.predict_features(&profile, rel.as_deref())?;
        self.decode_features(&features, n_samples, sample_seed)
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
        let seed = derive_stream(self.state.config.seed(), sample_seed);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        self.repr.decode(features, &mut rng, n_samples)
    }
}
