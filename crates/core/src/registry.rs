//! On-disk registry of trained model artifacts.
//!
//! The evaluation layer re-trains a model for every fold of every cell;
//! serving must not. This module persists *fitted* predictors — model
//! state, scaler moments, and the config that produced them — as
//! integrity-sealed entries keyed by the same fingerprint scheme as the
//! cell cache: `(corpus fingerprint, CellConfig)` hashed with FNV-1a.
//! A registry directory is the deployable unit the `pv-serve` daemon
//! loads at startup.
//!
//! Unlike the cell cache — where any unreadable entry is silently a
//! miss, because recomputing a summary is always safe — registry loads
//! return **typed errors**: serving a vandalized model silently would be
//! a correctness bug, so corruption surfaces as [`PvError::Invalid`]
//! and environmental failures as [`PvError::CacheIo`]. The
//! [`ModelRegistry::ensure_few_runs`]/[`ModelRegistry::ensure_cross_system`]
//! helpers implement the `repro train` heal policy on top: a verified
//! entry is reused bit-identically, anything else is re-fit and
//! re-sealed.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;
use pv_sysmodel::Corpus;

use crate::eval::{cross_system_specs, few_runs_spec};
use crate::pipeline::EncodedCorpus;
use crate::resilience::PvError;
use crate::sweep::{cross_fingerprint, CellConfig};
use crate::usecase1::{FewRunsArtifact, FewRunsConfig, FewRunsPredictor};
use crate::usecase2::{CrossSystemArtifact, CrossSystemConfig, CrossSystemPredictor};

/// Registry envelope magic; the trailing digits are the format version.
/// Bump on any change to the entry layout or the artifact schema;
/// entries under another magic are rejected (and healed by `repro
/// train`), never reinterpreted. (v2: the vectorized kernel layer — tree
/// models default to binned splits, and artifact keys carry the
/// tree-kernel tag; v3: the sealed envelope of [`crate::store`], and kNN
/// models lost the f32 prescreen fields.)
pub const REGISTRY_MAGIC: &[u8; 8] = b"PVMODEL3";

/// The observability counters the registry emits.
pub const REGISTRY_OBS_COUNTERS: &[&str] = &[
    "pv.core.registry.load",
    "pv.core.registry.store",
    "pv.core.registry.train",
    "pv.core.registry.verify_fail",
];

/// A fitted predictor in serializable form — the payload of a registry
/// entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Artifact {
    /// A use-case-1 (few-runs, same system) predictor.
    FewRuns(FewRunsArtifact),
    /// A use-case-2 (cross-system) predictor.
    CrossSystem(CrossSystemArtifact),
}

impl Artifact {
    /// The cell config this artifact was trained under — the half of
    /// the registry key that isn't the corpus fingerprint.
    pub fn config(&self) -> CellConfig {
        match self {
            Artifact::FewRuns(a) => CellConfig::FewRuns(a.config),
            Artifact::CrossSystem(a) => CellConfig::CrossSystem(a.config),
        }
    }

    /// The kind of model this artifact holds, as a display name.
    pub fn model_name(&self) -> &'static str {
        self.config().model().name()
    }
}

/// The registry key of an artifact: FNV-1a over a domain tag, the format
/// magic, the corpus fingerprint, the tree split kernel's name and the
/// config's canonical JSON — the cell cache's `cell_key` scheme under a
/// serving-specific domain so registry and cache entries can never
/// collide.
///
/// For use case 2 pass [`cross_fingerprint`]`(src, dst)` as the
/// fingerprint, exactly as the sweep layer keys its cross-system cells.
///
/// # Errors
/// Fails when the config cannot be serialized (never happens for the
/// shipped config types).
pub fn artifact_key(fingerprint: u64, cfg: &CellConfig) -> Result<u64, StatsError> {
    let json = serde_json::to_string(cfg)
        .map_err(|e| StatsError::invalid("artifact_key", format!("serialize config: {e}")))?;
    let mut h = Fnv1a::new();
    h.write_str("pv-registry");
    h.write_bytes(REGISTRY_MAGIC);
    h.write_u64(fingerprint);
    // The name of the tree split kernel every key was made with; the
    // kernel is fixed now, and keeping its name keeps the keys.
    h.write_str("binned");
    h.write_str(&json);
    Ok(h.finish())
}

/// A verified artifact together with its registry identity — what
/// `pv-serve` indexes its model table by.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The registry key (`model-<key:016x>.json`).
    pub key: u64,
    /// Corpus fingerprint the model was trained on (for use case 2, the
    /// [`cross_fingerprint`] of the pair).
    pub fingerprint: u64,
    /// The fitted predictor state.
    pub artifact: Artifact,
}

/// A serde-backed on-disk registry of trained models.
///
/// Each entry is a [`crate::store`] envelope under [`REGISTRY_MAGIC`]
/// and the entry's key, whose payload is the JSON pair `[fingerprint,
/// artifact]`. Writes are atomic, so concurrent trainers and a running
/// daemon never observe partial entries.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    dir: PathBuf,
}

impl ModelRegistry {
    /// A registry rooted at `dir`. The directory is created on first
    /// store. Stale temp files leaked by crashed writers are swept on
    /// open (see [`crate::store`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        crate::store::sweep_stale_temps(&dir);
        ModelRegistry { dir }
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of an entry.
    ///
    /// # Errors
    /// Propagates [`artifact_key`] failures.
    pub fn entry_path(&self, fingerprint: u64, cfg: &CellConfig) -> Result<PathBuf, PvError> {
        let key = artifact_key(fingerprint, cfg)?;
        Ok(self.key_path(key))
    }

    fn key_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("model-{key:016x}.json"))
    }

    /// Every registry key currently on disk, ascending. Files that
    /// merely *look* like entries are listed; verification happens at
    /// [`Self::load_key`] time.
    pub fn keys(&self) -> Vec<u64> {
        let Ok(read) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut keys: Vec<u64> = read
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                let hex = name.strip_prefix("model-")?.strip_suffix(".json")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Persists a fitted artifact under `(fingerprint, config)` and
    /// returns its registry key.
    ///
    /// # Errors
    /// [`PvError::CacheIo`] on filesystem failure, [`PvError::Invalid`]
    /// when the artifact cannot be serialized.
    pub fn store(&self, fingerprint: u64, artifact: &Artifact) -> Result<u64, PvError> {
        let key = artifact_key(fingerprint, &artifact.config())?;
        crate::store::write_json(
            &self.key_path(key),
            REGISTRY_MAGIC,
            key,
            &(fingerprint, artifact),
        )?;
        pv_obs::counter_inc!("pv.core.registry.store");
        Ok(key)
    }

    /// Loads and verifies the artifact sealed under `(fingerprint,
    /// config)`.
    ///
    /// # Errors
    /// [`PvError::CacheIo`] when the entry is missing or unreadable;
    /// [`PvError::Invalid`] when it exists but fails verification
    /// (envelope, payload parse, or fingerprint/config identity).
    pub fn load(&self, fingerprint: u64, cfg: &CellConfig) -> Result<Artifact, PvError> {
        let key = artifact_key(fingerprint, cfg)?;
        let entry = self.load_key(key)?;
        if entry.fingerprint != fingerprint || entry.artifact.config() != *cfg {
            pv_obs::counter_inc!("pv.core.registry.verify_fail");
            return Err(PvError::Invalid {
                what: "ModelRegistry::load".into(),
                detail: "entry is sealed for a different corpus or config".into(),
            });
        }
        Ok(entry.artifact)
    }

    /// Loads and verifies the entry stored under `key`.
    ///
    /// # Errors
    /// Same contract as [`Self::load`].
    pub fn load_key(&self, key: u64) -> Result<RegistryEntry, PvError> {
        let entry = crate::store::open(&self.key_path(key), REGISTRY_MAGIC, key)
            .and_then(|sealed| sealed.json::<(u64, Artifact)>())
            .and_then(|(fingerprint, artifact)| {
                if artifact_key(fingerprint, &artifact.config())? != key {
                    return Err(PvError::Invalid {
                        what: "ModelRegistry::load".into(),
                        detail: "entry key disagrees with sealed identity".into(),
                    });
                }
                Ok(RegistryEntry {
                    key,
                    fingerprint,
                    artifact,
                })
            });
        match &entry {
            Ok(_) => pv_obs::counter_inc!("pv.core.registry.load"),
            Err(PvError::Invalid { .. }) => pv_obs::counter_inc!("pv.core.registry.verify_fail"),
            Err(_) => {}
        }
        entry
    }

    /// Loads and verifies every entry in the registry, ascending by
    /// key — the daemon's startup path.
    ///
    /// # Errors
    /// Fails on the first entry that exists but does not verify (a
    /// serving directory must be wholly trustworthy, not best-effort).
    pub fn load_all(&self) -> Result<Vec<RegistryEntry>, PvError> {
        self.keys().into_iter().map(|k| self.load_key(k)).collect()
    }

    /// A verified few-runs predictor for `(corpus, cfg)`: reused from
    /// the registry when a sealed entry verifies, otherwise trained on
    /// the full corpus, stored, and returned. The boolean is `true` when
    /// a (re-)fit happened — corrupt or stale entries are healed, not
    /// fatal.
    ///
    /// The training encoding is built first: its fingerprint (equal to
    /// [`crate::pipeline::corpus_fingerprint`]) keys the lookup and it
    /// feeds the fit, so each benchmark is digested once per call.
    ///
    /// # Errors
    /// Propagates encoding, training and store failures.
    pub fn ensure_few_runs(
        &self,
        corpus: &Corpus,
        cfg: FewRunsConfig,
    ) -> Result<(FewRunsPredictor, bool), PvError> {
        let enc = EncodedCorpus::build(corpus, &few_runs_spec(&cfg))?;
        let fingerprint = enc.fingerprint();
        let cell = CellConfig::FewRuns(cfg);
        if let Ok(Artifact::FewRuns(a)) = self.load(fingerprint, &cell) {
            return Ok((FewRunsPredictor::from_artifact(a)?, false));
        }
        pv_obs::counter_inc!("pv.core.registry.train");
        let include: Vec<usize> = (0..corpus.len()).collect();
        let predictor = FewRunsPredictor::train_encoded(&enc, &include, cfg)?;
        self.store(fingerprint, &Artifact::FewRuns(predictor.to_artifact()))?;
        Ok((predictor, true))
    }

    /// [`Self::ensure_few_runs`] for a cross-system pair, keyed by
    /// [`cross_fingerprint`]`(src, dst)` of the two training encodings.
    ///
    /// # Errors
    /// Propagates encoding, training and store failures.
    pub fn ensure_cross_system(
        &self,
        src: &Corpus,
        dst: &Corpus,
        cfg: CrossSystemConfig,
    ) -> Result<(CrossSystemPredictor, bool), PvError> {
        let (src_spec, dst_spec) = cross_system_specs(src, &cfg);
        let src_enc = EncodedCorpus::build(src, &src_spec)?;
        let dst_enc = EncodedCorpus::build(dst, &dst_spec)?;
        let fingerprint = cross_fingerprint(src_enc.fingerprint(), dst_enc.fingerprint());
        let cell = CellConfig::CrossSystem(cfg);
        if let Ok(Artifact::CrossSystem(a)) = self.load(fingerprint, &cell) {
            return Ok((CrossSystemPredictor::from_artifact(a)?, false));
        }
        pv_obs::counter_inc!("pv.core.registry.train");
        let include: Vec<usize> = (0..src.len().min(dst.len())).collect();
        let predictor = CrossSystemPredictor::train_encoded(&src_enc, &dst_enc, &include, cfg)?;
        self.store(fingerprint, &Artifact::CrossSystem(predictor.to_artifact()))?;
        Ok((predictor, true))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pipeline::corpus_fingerprint;
    use pv_sysmodel::SystemModel;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pv-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_corpus() -> Corpus {
        Corpus::collect(&SystemModel::intel(), 40, 5)
    }

    fn cfg() -> FewRunsConfig {
        FewRunsConfig {
            n_profile_runs: 5,
            profiles_per_benchmark: 2,
            ..FewRunsConfig::default()
        }
    }

    #[test]
    fn store_load_round_trip_preserves_prediction_bits() {
        let dir = tmp_dir("round-trip");
        let reg = ModelRegistry::new(&dir);
        let corpus = small_corpus();
        let include: Vec<usize> = (0..corpus.len()).collect();
        let trained = FewRunsPredictor::train(&corpus, &include, cfg()).unwrap();
        let fp = corpus_fingerprint(&corpus);
        let key = reg
            .store(fp, &Artifact::FewRuns(trained.to_artifact()))
            .unwrap();
        assert_eq!(reg.keys(), vec![key]);
        let loaded = match reg.load(fp, &CellConfig::FewRuns(cfg())).unwrap() {
            Artifact::FewRuns(a) => FewRunsPredictor::from_artifact(a).unwrap(),
            other => panic!("wrong artifact kind: {}", other.model_name()),
        };
        let runs = &corpus.benchmarks[0].runs;
        assert_eq!(
            trained.predict_distribution(runs, 300, 7).unwrap(),
            loaded.predict_distribution(runs, 300, 7).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_typed_cache_io() {
        let dir = tmp_dir("missing");
        let reg = ModelRegistry::new(&dir);
        let err = reg
            .load(1, &CellConfig::FewRuns(cfg()))
            .expect_err("empty registry must miss");
        assert_eq!(err.kind(), "cache-io");
    }

    #[test]
    fn ensure_trains_once_then_reuses() {
        let dir = tmp_dir("ensure");
        let reg = ModelRegistry::new(&dir);
        let corpus = small_corpus();
        let (first, trained) = reg.ensure_few_runs(&corpus, cfg()).unwrap();
        assert!(trained);
        let (second, trained_again) = reg.ensure_few_runs(&corpus, cfg()).unwrap();
        assert!(!trained_again);
        let runs = &corpus.benchmarks[3].runs;
        assert_eq!(
            first.predict_distribution(runs, 200, 1).unwrap(),
            second.predict_distribution(runs, 200, 1).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_a_registry_sweeps_stale_temps() {
        let dir = tmp_dir("startup-sweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("model-00000000000000aa.json.tmp.999999999");
        fs::write(&stale, "{").unwrap();
        let _reg = ModelRegistry::new(&dir);
        assert!(!stale.exists(), "stale temp must be swept at open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_and_cell_cache_keys_never_collide() {
        // Same fingerprint, same config — different domains.
        let cell = CellConfig::FewRuns(cfg());
        assert_ne!(
            artifact_key(42, &cell).unwrap(),
            crate::sweep::cell_key(42, &cell).unwrap()
        );
    }
}
