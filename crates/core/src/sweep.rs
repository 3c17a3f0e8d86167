//! Config-grid sweep service with cached cells.
//!
//! The paper's evaluation is inherently a grid — representations ×
//! models × profile sample counts (× seeds), scored by LOGO/KS — and the
//! [`pipeline`](crate::pipeline) layer already lets every cell of such a
//! grid share one encoded corpus (a [`ShardedCorpus`] at any layout, an
//! [`EncodedCorpus`](crate::pipeline::EncodedCorpus) being the one-shard
//! layout). This module turns the grid into a service:
//!
//! * [`GridSpec`] declares the axes; it expands into [`CellConfig`]s in
//!   a fixed deterministic order and derives the [`EncodingSpec`]s that
//!   cover every cell, so one encode pass serves the whole sweep.
//! * [`Sweep`] answers what it can from the cell cache and hands the
//!   rest to the unit loop of [`crate::incremental`], which runs them as
//!   (group, fold) units across the rayon worker pool — one prepared
//!   fold and one fit for every cell that shares them — streaming each
//!   [`CellResult`] to a callback as soon as its group finishes and
//!   returning all of them (cell order, not completion order) in a
//!   [`SweepReport`].
//! * [`CellCache`] persists every finished cell to disk, one file per
//!   `(corpus fingerprint, cell config)` whatever its outcome.
//!   Re-running a widened grid loads the old cells and computes only the
//!   delta; a stale or corrupted file fails its [`crate::store`]
//!   envelope or its fingerprint/config check and is recomputed rather
//!   than trusted.
//!
//! Cached results are bit-identical to fresh ones: every cell evaluation
//! is a pure function of (corpus, config) independent of thread count
//! ([`FoldRunner`](crate::pipeline::FoldRunner)'s guarantee), the
//! [`corpus_fingerprint`] pins the corpus bit-exactly, and the JSON
//! round-trip preserves every `f64` (shortest-round-trip formatting).
//!
//! Execution is fault tolerant (see [`resilience`](crate::resilience)):
//! each cell is evaluated once, under its own config, behind a
//! panic-isolation boundary. A cell that fails yields a
//! [`CellOutcome::Failed`] — it never sinks the pool — and is recorded
//! as failed in its own cell file (later runs report it
//! [`CellOutcome::Quarantined`] until that file is deleted). The whole
//! run holds an advisory [`CacheLock`] on the cache directory so
//! concurrent sweeps cannot interleave writes.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;
use pv_sysmodel::Corpus;

use crate::eval::{cross_system_specs_for_runs, few_runs_spec, EvalSummary};
use crate::incremental::{
    isolated, lock, run_cells, CellTask, FoldCacheStats, FoldEntry, IncrementalEval,
};
use crate::model::ModelKind;
use crate::pipeline::EncodingSpec;
use crate::repr::{ReprKind, PEARSON_TYPE_COUNTERS};
use crate::resilience::{validate_summary, CacheLock, FaultKind, FaultPlan, PvError};
use crate::shard::{ShardedCorpus, SHARD_OBS_COUNTERS};
use crate::usecase1::FewRunsConfig;
use crate::usecase2::CrossSystemConfig;

/// Cell-cache envelope magic; the trailing digits are the format version.
/// Bump on any change to the cell layout or evaluation semantics to
/// orphan old entries. (v2: entries carry the degraded-fallback marker;
/// v3: entries carry per-fold [`FoldEntry`] scores for the incremental
/// fold cache; v4: the vectorized kernel layer — chunked-lane cosine
/// rounding and the binned-trees default changed evaluation numerics,
/// and cell keys carried the tree-kernel tag; v5: the sealed envelope
/// of [`crate::store`]; v6: a fold entry stores its held-out digest, not
/// its training digests — the cell's folds spell its roster once; v7:
/// one record per cell, failed cells included, with one shape per
/// outcome; stored folds drop their scores, which the summary holds; the
/// key drops the tree-kernel tag; v8: one attempt per cell — no reseeded
/// retries, no degraded fallback, a failed record carries only its
/// error; v9: benchmark digests are eight-lane digests, so every corpus
/// fingerprint and stored `held_fp` moved; v10: tree splits scan tied
/// feature values by row index, so a tree cell fitted on tied features
/// may hold other scores.) A sweep deletes the cell files of older
/// versions.
const CELL_MAGIC: &[u8; 8] = b"PVCELL10";

/// How long a sweep waits for the cache directory's advisory lock
/// before giving up, unless overridden by [`Sweep::with_lock_timeout`].
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(60);

/// The operational counters a sweep pre-registers at run start (when a
/// collector is installed), so metrics snapshots and summary tables list
/// every one of them even at zero — "0 failed" is an observation, a
/// missing row is not. Includes the lock/store/quarantine tallies that
/// were previously visible only when non-zero at exit.
pub const SWEEP_OBS_COUNTERS: &[&str] = &[
    "pv.core.pipeline.fold_cache.delta",
    "pv.core.pipeline.fold_cache.hit",
    "pv.core.pipeline.fold_cache.miss",
    "pv.core.resilience.panic_caught",
    "pv.core.sweep.cache_hit",
    "pv.core.sweep.cache_miss",
    "pv.core.sweep.cache_store_fail",
    "pv.core.sweep.cache_verify_fail",
    "pv.core.sweep.cells",
    "pv.core.sweep.failed",
    "pv.core.sweep.ok",
    "pv.core.sweep.quarantine_skip",
];

/// A declarative config grid: the cross product of the four axes.
///
/// Expansion order is fixed — seeds, then sample counts, then
/// representations, then models, each axis in declaration order with
/// duplicates dropped — so the same spec always yields the same cell
/// list, which is what makes streamed results comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Distribution representations to sweep.
    pub reprs: Vec<ReprKind>,
    /// Regression models to sweep.
    pub models: Vec<ModelKind>,
    /// Profile sample counts: `n_profile_runs` for use case 1,
    /// `profile_runs` for use case 2.
    pub sample_counts: Vec<usize>,
    /// Root seeds to sweep.
    pub seeds: Vec<u64>,
    /// Training profile windows per benchmark (use case 1 only).
    pub profiles_per_benchmark: usize,
}

impl Default for GridSpec {
    /// The paper's headline grid: all representations × all models at
    /// ten profile runs, one window per benchmark, campaign seed.
    fn default() -> Self {
        GridSpec {
            reprs: ReprKind::ALL.to_vec(),
            models: ModelKind::ALL.to_vec(),
            sample_counts: vec![10],
            seeds: vec![FewRunsConfig::default().seed],
            profiles_per_benchmark: 1,
        }
    }
}

/// Deduplicates while preserving first-occurrence order.
fn dedup_in_order<T: PartialEq + Copy>(xs: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(xs.len());
    for &x in xs {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

impl GridSpec {
    /// Whether any axis is empty (the grid expands to no cells).
    pub fn is_degenerate(&self) -> bool {
        self.reprs.is_empty()
            || self.models.is_empty()
            || self.sample_counts.is_empty()
            || self.seeds.is_empty()
    }

    /// Expands the grid into use-case-1 cell configs.
    pub fn few_runs_cells(&self) -> Vec<FewRunsConfig> {
        let mut cells = Vec::new();
        for &seed in &dedup_in_order(&self.seeds) {
            for &s in &dedup_in_order(&self.sample_counts) {
                for &repr in &dedup_in_order(&self.reprs) {
                    for &model in &dedup_in_order(&self.models) {
                        cells.push(FewRunsConfig {
                            repr,
                            model,
                            n_profile_runs: s,
                            profiles_per_benchmark: self.profiles_per_benchmark.max(1),
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Expands the grid into use-case-2 cell configs.
    pub fn cross_system_cells(&self) -> Vec<CrossSystemConfig> {
        let mut cells = Vec::new();
        for &seed in &dedup_in_order(&self.seeds) {
            for &s in &dedup_in_order(&self.sample_counts) {
                for &repr in &dedup_in_order(&self.reprs) {
                    for &model in &dedup_in_order(&self.models) {
                        cells.push(CrossSystemConfig {
                            repr,
                            model,
                            profile_runs: s,
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The encoding spec covering every use-case-1 cell of this grid.
    pub fn few_runs_encoding(&self) -> EncodingSpec {
        // The spec builder is idempotent, so merging per-cell specs
        // unions coverage instead of accumulating duplicates.
        self.few_runs_cells()
            .iter()
            .fold(EncodingSpec::new(), |spec, cfg| {
                spec.merge(&few_runs_spec(cfg))
            })
    }

    /// The (source, destination) encoding specs covering every
    /// use-case-2 cell of this grid. `src` is needed to clamp profile
    /// windows to the source corpus' run count, exactly as evaluation
    /// does.
    pub fn cross_system_encoding(&self, src: &Corpus) -> (EncodingSpec, EncodingSpec) {
        self.cross_system_encoding_for_runs(src.n_runs)
    }

    /// [`GridSpec::cross_system_encoding`] from the source run count
    /// alone — for generated campaigns that never materialize a corpus.
    pub fn cross_system_encoding_for_runs(
        &self,
        src_n_runs: usize,
    ) -> (EncodingSpec, EncodingSpec) {
        self.cross_system_cells().iter().fold(
            (EncodingSpec::new(), EncodingSpec::new()),
            |(src_spec, dst_spec), cfg| {
                let (s, d) = cross_system_specs_for_runs(src_n_runs, cfg);
                (src_spec.merge(&s), dst_spec.merge(&d))
            },
        )
    }
}

/// One cell of a sweep: which evaluation to run with which config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellConfig {
    /// A use-case-1 (few-runs, same system) evaluation.
    FewRuns(FewRunsConfig),
    /// A use-case-2 (cross-system) evaluation.
    CrossSystem(CrossSystemConfig),
}

impl CellConfig {
    /// The cell's representation axis value.
    pub fn repr(&self) -> ReprKind {
        match self {
            CellConfig::FewRuns(c) => c.repr,
            CellConfig::CrossSystem(c) => c.repr,
        }
    }

    /// The cell's model axis value.
    pub fn model(&self) -> ModelKind {
        match self {
            CellConfig::FewRuns(c) => c.model,
            CellConfig::CrossSystem(c) => c.model,
        }
    }

    /// The cell's sample-count axis value.
    pub fn sample_count(&self) -> usize {
        match self {
            CellConfig::FewRuns(c) => c.n_profile_runs,
            CellConfig::CrossSystem(c) => c.profile_runs,
        }
    }

    /// The cell's seed axis value.
    pub fn seed(&self) -> u64 {
        match self {
            CellConfig::FewRuns(c) => c.seed,
            CellConfig::CrossSystem(c) => c.seed,
        }
    }

    /// A compact human-readable label, e.g.
    /// `uc1 PearsonRnd+kNN s=10 seed=0xc0ffee`.
    pub fn label(&self) -> String {
        let uc = match self {
            CellConfig::FewRuns(_) => "uc1",
            CellConfig::CrossSystem(_) => "uc2",
        };
        format!(
            "{uc} {}+{} s={} seed={:#x}",
            self.repr().name(),
            self.model().name(),
            self.sample_count(),
            self.seed(),
        )
    }
}

/// The stable on-disk key of a cell: FNV-1a over the format magic, the
/// corpus fingerprint and the cell config's canonical JSON form.
///
/// # Errors
/// Fails when the config cannot be serialized (never happens for the
/// shipped config types).
pub fn cell_key(fingerprint: u64, cfg: &CellConfig) -> Result<u64, StatsError> {
    let json = serde_json::to_string(cfg)
        .map_err(|e| StatsError::invalid("cell_key", format!("serialize config: {e}")))?;
    let mut h = Fnv1a::new();
    h.write_bytes(CELL_MAGIC);
    h.write_u64(fingerprint);
    h.write_str(&json);
    Ok(h.finish())
}

/// The payload of a cell file, the one on-disk record of a cell. The
/// fingerprint and config are stored alongside the outcome so a hit can
/// be *verified*, not assumed: an entry that carries another corpus'
/// fingerprint or a different config (hash collision, hand-edited file)
/// is treated as a miss and recomputed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CachedCell {
    fingerprint: u64,
    config: CellConfig,
    outcome: StoredOutcome,
}

/// How a stored cell ended, one shape per outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum StoredOutcome {
    /// A healthy cell and its fold entries in fold order (their held-out
    /// digests are the roster the cell was scored on). When the corpus
    /// grows, a later sweep with a *different* fingerprint but the same
    /// config uses them as the incremental fold cache's prior, so only
    /// the folds the growth changed are recomputed. Empty when the
    /// writer stored the summary alone.
    Ok {
        summary: EvalSummary,
        folds: Vec<StoredFold>,
    },
    /// A cell whose evaluation failed. Later sweeps skip it as
    /// [`CellOutcome::Quarantined`] until the file is deleted.
    Failed { error: PvError },
}

impl StoredOutcome {
    /// The outcome a sweep reports for a cell it found on disk: a hit
    /// for a summary, a skip for a recorded failure.
    fn replay(self) -> CellOutcome {
        match self {
            StoredOutcome::Ok { summary, .. } => CellOutcome::Ok { summary },
            StoredOutcome::Failed { error } => CellOutcome::Quarantined {
                error: error.to_string(),
            },
        }
    }
}

/// A [`FoldEntry`] as stored: its score is the summary's score at the
/// same position, so the file holds each KS once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredFold {
    held_fp: u64,
    neighbors: Option<Vec<u32>>,
    check: u64,
}

fn invalid(detail: String) -> PvError {
    PvError::Invalid {
        what: "CellCache".to_string(),
        detail,
    }
}

/// A cell stores no folds or one per score.
fn check_fold_count(folds: usize, scores: usize) -> Result<(), PvError> {
    if folds == 0 || folds == scores {
        Ok(())
    } else {
        Err(invalid(format!("{folds} folds for {scores} scores")))
    }
}

/// The stored form of `folds`, which must be empty or score exactly the
/// summary's benchmarks in order.
fn stored_folds(summary: &EvalSummary, folds: &[FoldEntry]) -> Result<Vec<StoredFold>, PvError> {
    check_fold_count(folds.len(), summary.scores.len())?;
    folds
        .iter()
        .zip(&summary.scores)
        .enumerate()
        .map(|(i, (f, s))| {
            if f.score.id != s.id || f.score.ks.to_bits() != s.ks.to_bits() {
                return Err(invalid(format!(
                    "fold {i} scores differently from the summary"
                )));
            }
            Ok(StoredFold {
                held_fp: f.held_fp,
                neighbors: f.neighbors.clone(),
                check: f.check,
            })
        })
        .collect()
}

/// Rebuilds fold entries from their stored form and the summary's scores.
fn fold_entries(summary: EvalSummary, folds: Vec<StoredFold>) -> Vec<FoldEntry> {
    folds
        .into_iter()
        .zip(summary.scores)
        .map(|(f, score)| FoldEntry {
            held_fp: f.held_fp,
            score,
            neighbors: f.neighbors,
            check: f.check,
        })
        .collect()
}

/// A serde-backed on-disk cache of finished sweep cells.
///
/// Layout: one file per cell, `cell-<key:016x>.json` under the cache
/// directory, where the key is [`cell_key`]: a [`crate::store`]
/// envelope under the magic `PVCELL10` whose payload is the cell's JSON
/// record — ok or failed. Writes are atomic, so concurrent sweeps
/// sharing a directory never observe partial entries.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// A cache rooted at `dir`. The directory is created on first store.
    /// Stale temp files leaked by crashed writers are swept on open (see
    /// [`crate::store`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        crate::store::sweep_stale_temps(&dir);
        CellCache { dir }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of a cell entry.
    ///
    /// # Errors
    /// Propagates [`cell_key`] failures.
    pub fn entry_path(&self, fingerprint: u64, cfg: &CellConfig) -> Result<PathBuf, StatsError> {
        Ok(self.key_path(cell_key(fingerprint, cfg)?))
    }

    fn key_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("cell-{key:016x}.json"))
    }

    /// The keys of every file named like a cell entry, ascending.
    fn keys(&self) -> Vec<u64> {
        let Ok(read) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut keys: Vec<u64> = read
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let hex = name
                    .to_str()?
                    .strip_prefix("cell-")?
                    .strip_suffix(".json")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Opens and parses the entry stored under `key`. A fold list that
    /// does not match the summary's scores one to one is `invalid`.
    fn read(&self, key: u64) -> Result<CachedCell, PvError> {
        let cell: CachedCell = crate::store::open(&self.key_path(key), CELL_MAGIC, key)?.json()?;
        if let StoredOutcome::Ok { summary, folds } = &cell.outcome {
            check_fold_count(folds.len(), summary.scores.len())?;
        }
        Ok(cell)
    }

    /// Every entry on disk that verifies, ascending by key.
    fn verified(&self) -> impl Iterator<Item = (u64, CachedCell)> + '_ {
        self.keys()
            .into_iter()
            .filter_map(|key| self.read(key).ok().map(|cell| (key, cell)))
    }

    /// Number of cell entries currently on disk.
    pub fn entries(&self) -> usize {
        self.keys().len()
    }

    /// Deletes every cell file an older cell format wrote (see
    /// [`crate::store`] "Older formats").
    fn prune_older_formats(&self) {
        crate::store::prune_older_formats(&self.dir, "cell-", ".json", CELL_MAGIC);
    }

    /// The verified record of a cell. A missing file is a plain `None`;
    /// a file that fails any check is a `None` counted as
    /// `pv.core.sweep.cache_verify_fail`.
    fn lookup(&self, fingerprint: u64, cfg: &CellConfig) -> Option<StoredOutcome> {
        let key = cell_key(fingerprint, cfg).ok()?;
        match self.read(key) {
            Ok(cell) if cell.fingerprint == fingerprint && cell.config == *cfg => {
                Some(cell.outcome)
            }
            // No file at all is a plain miss, which the sweep counts.
            Err(PvError::CacheIo { .. }) => None,
            // The entry existed but was corrupt or stale.
            _ => {
                pv_obs::counter_inc!("pv.core.sweep.cache_verify_fail");
                None
            }
        }
    }

    /// Loads a cell's summary if a verified healthy entry exists. A
    /// failed cell's record has no summary: `None`.
    ///
    /// Any failure — missing file, failed envelope, unparsable payload,
    /// fingerprint/config mismatch — is a miss, never an error: the cache
    /// must be safe to point at a stale or vandalized directory.
    pub fn load(&self, fingerprint: u64, cfg: &CellConfig) -> Option<EvalSummary> {
        match self.lookup(fingerprint, cfg)? {
            StoredOutcome::Ok { summary, .. } => Some(summary),
            StoredOutcome::Failed { .. } => None,
        }
    }

    /// The configs of every verified healthy cell stored for
    /// `fingerprint`, deterministically ordered by cell key. This is
    /// what `repro train --from-sweep` scavenges: each config a sweep
    /// completed is a model worth fitting and sealing into the
    /// [model registry](crate::registry). Unreadable or stale files and
    /// failed cells are skipped.
    pub fn configs(&self, fingerprint: u64) -> Vec<CellConfig> {
        self.verified()
            .filter(|(key, cell)| {
                cell.fingerprint == fingerprint
                    && matches!(cell.outcome, StoredOutcome::Ok { .. })
                    && cell_key(fingerprint, &cell.config).ok() == Some(*key)
            })
            .map(|(_, cell)| cell.config)
            .collect()
    }

    /// The best fold-cache donors on disk for corpora *other than*
    /// `fingerprint`: for every config with at least one healthy entry
    /// carrying folds, the entry with the most folds (ties broken by
    /// smaller fingerprint, so the pick is deterministic for any
    /// directory enumeration order).
    ///
    /// This is what turns a corpus append into an incremental sweep:
    /// the grown corpus fingerprints differently, so its cells all miss,
    /// but each cell's evaluation starts from the old corpus' per-fold
    /// scores. Unreadable or stale files are skipped, never trusted —
    /// and each [`FoldEntry`] is integrity-checked again at the point of
    /// consumption.
    pub fn donor_folds(
        &self,
        fingerprint: u64,
    ) -> std::collections::HashMap<CellConfig, Vec<FoldEntry>> {
        let mut best: std::collections::HashMap<CellConfig, (u64, EvalSummary, Vec<StoredFold>)> =
            std::collections::HashMap::new();
        for (_, cell) in self.verified() {
            let StoredOutcome::Ok { summary, folds } = cell.outcome else {
                continue;
            };
            if cell.fingerprint == fingerprint || folds.is_empty() {
                continue;
            }
            let better = match best.get(&cell.config) {
                Some((fp, _, held)) => {
                    folds.len() > held.len()
                        || (folds.len() == held.len() && cell.fingerprint < *fp)
                }
                None => true,
            };
            if better {
                best.insert(cell.config, (cell.fingerprint, summary, folds));
            }
        }
        best.into_iter()
            .map(|(cfg, (_, summary, folds))| (cfg, fold_entries(summary, folds)))
            .collect()
    }

    /// Persists a healthy cell (`folds` are the per-fold entries future
    /// incremental evaluations can reuse). `error` must be `None`: a
    /// cell's record holds its own evaluation or its failure, never a
    /// summary standing in for an error. The parameter stays only for
    /// the benchmark harness, which passes `None`, and goes with the
    /// next change to the benchmark.
    ///
    /// # Errors
    /// [`PvError::Invalid`] when `error` is `Some`, or when `folds` is
    /// neither empty nor one entry per summary score with the same score
    /// in the same order; [`PvError::CacheIo`] on filesystem errors
    /// (unwritable directory, disk full).
    pub fn store(
        &self,
        fingerprint: u64,
        cfg: &CellConfig,
        summary: &EvalSummary,
        error: Option<&PvError>,
        folds: &[FoldEntry],
    ) -> Result<(), PvError> {
        if let Some(error) = error {
            return Err(invalid(format!("a summary stored with an error: {error}")));
        }
        let outcome = StoredOutcome::Ok {
            summary: summary.clone(),
            folds: stored_folds(summary, folds)?,
        };
        self.put(fingerprint, cfg, outcome)
    }

    /// Writes the record of a cell.
    fn put(
        &self,
        fingerprint: u64,
        cfg: &CellConfig,
        outcome: StoredOutcome,
    ) -> Result<(), PvError> {
        let key = cell_key(fingerprint, cfg)?;
        let cell = CachedCell {
            fingerprint,
            config: *cfg,
            outcome,
        };
        crate::store::write_json(&self.key_path(key), CELL_MAGIC, key, &cell)
    }
}

/// The cell-cache fingerprint of a cross-system pair: both corpus
/// fingerprints under a domain tag, identical at every shard layout of
/// the same campaigns.
pub fn cross_fingerprint(src: u64, dst: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("pv-sweep-cross");
    h.write_u64(src);
    h.write_u64(dst);
    h.finish()
}

/// What a sweep evaluates its cells against. Results and cache keys do
/// not depend on the corpora's shard layouts.
#[derive(Clone, Copy)]
pub enum SweepTarget<'a, 'c> {
    /// Use case 1 over one encoded corpus.
    FewRuns(&'a ShardedCorpus<'c>),
    /// Use case 2, source → destination.
    CrossSystem {
        /// The encoded corpus measured on the source system.
        src: &'a ShardedCorpus<'c>,
        /// The encoded corpus measured on the destination system.
        dst: &'a ShardedCorpus<'c>,
    },
}

/// How one cell of a sweep ended.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CellOutcome {
    /// The cell evaluated cleanly.
    Ok {
        /// The evaluation result.
        summary: EvalSummary,
    },
    /// The cell's evaluation failed. With a cache attached, its cell
    /// file records the failure, and later runs report it
    /// [`CellOutcome::Quarantined`] until that file is deleted.
    Failed {
        /// Why the evaluation failed.
        error: PvError,
    },
    /// The cell's file records a failure from an earlier run, so the
    /// cell was skipped without evaluation. Deleting the file
    /// ([`CellCache::entry_path`]) re-arms it.
    Quarantined {
        /// The persisted error description from the failing run.
        error: String,
    },
}

impl CellOutcome {
    /// The summary, if the cell evaluated cleanly.
    pub fn summary(&self) -> Option<&EvalSummary> {
        match self {
            CellOutcome::Ok { summary } => Some(summary),
            _ => None,
        }
    }

    /// Whether the cell evaluated cleanly.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok { .. })
    }

    /// Whether the cell's evaluation failed in this run.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// Whether the cell was skipped for a recorded failure.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, CellOutcome::Quarantined { .. })
    }
}

/// One finished cell, streamed to the callback as it completes and
/// collected (in cell order) into the [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellResult {
    /// Position in the grid's deterministic cell order.
    pub index: usize,
    /// The cell's configuration.
    pub config: CellConfig,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Whether the outcome was loaded from the cache.
    pub from_cache: bool,
}

impl CellResult {
    /// The usable summary, if the cell produced one.
    pub fn summary(&self) -> Option<&EvalSummary> {
        self.outcome.summary()
    }
}

/// Everything a sweep run produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// The corpus fingerprint the cells were keyed under.
    pub fingerprint: u64,
    /// All cells, in grid order (not completion order).
    pub cells: Vec<CellResult>,
    /// Cells served from the cache.
    pub hits: usize,
    /// Cells computed (and, with a cache attached, persisted).
    pub misses: usize,
    /// Cells whose evaluation failed in this run.
    pub failed: usize,
    /// Cells skipped because their file records an earlier failure.
    pub quarantined: usize,
    /// Cache-store failures (non-fatal: the summary was still returned).
    pub store_failures: usize,
    /// Fold-cache tallies aggregated over every cell this run actually
    /// evaluated (cell-level cache hits evaluate no folds and contribute
    /// nothing here).
    pub fold_stats: FoldCacheStats,
}

impl SweepReport {
    /// Whether every cell produced a clean result.
    pub fn is_clean(&self) -> bool {
        self.failed == 0 && self.quarantined == 0
    }
}

/// The sweep service: a target plus an optional cell cache and (for the
/// test tiers) a fault-injection plan.
pub struct Sweep<'a, 'c> {
    target: SweepTarget<'a, 'c>,
    cache: Option<CellCache>,
    faults: FaultPlan,
    lock_timeout: Duration,
}

impl<'a, 'c> Sweep<'a, 'c> {
    /// A use-case-1 sweep over `sh` (any shard layout; an
    /// [`EncodedCorpus`](crate::pipeline::EncodedCorpus) derefs to one).
    pub fn few_runs(sh: &'a ShardedCorpus<'c>) -> Self {
        Self::new(SweepTarget::FewRuns(sh))
    }

    /// Alias of [`Sweep::few_runs`], kept for existing callers.
    pub fn few_runs_sharded(sh: &'a ShardedCorpus<'c>) -> Self {
        Self::few_runs(sh)
    }

    /// A use-case-2 sweep, `src` → `dst`.
    pub fn cross_system(src: &'a ShardedCorpus<'c>, dst: &'a ShardedCorpus<'c>) -> Self {
        Self::new(SweepTarget::CrossSystem { src, dst })
    }

    fn new(target: SweepTarget<'a, 'c>) -> Self {
        Sweep {
            target,
            cache: None,
            faults: FaultPlan::none(),
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
        }
    }

    /// Attaches an on-disk cell cache.
    pub fn with_cache(mut self, cache: CellCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a fault-injection plan (testing and drills only; the
    /// default plan injects nothing).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets how long to wait for the cache directory's advisory lock.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// The fingerprint cells are keyed under: the corpus fingerprint for
    /// use case 1, a combination of both corpora's for use case 2.
    pub fn fingerprint(&self) -> u64 {
        match &self.target {
            SweepTarget::FewRuns(sh) => sh.fingerprint(),
            SweepTarget::CrossSystem { src, dst } => {
                cross_fingerprint(src.fingerprint(), dst.fingerprint())
            }
        }
    }

    /// Expands `grid` into this target's cell list (deterministic
    /// order).
    pub fn cells(&self, grid: &GridSpec) -> Vec<CellConfig> {
        match &self.target {
            SweepTarget::FewRuns(_) => grid
                .few_runs_cells()
                .into_iter()
                .map(CellConfig::FewRuns)
                .collect(),
            SweepTarget::CrossSystem { .. } => grid
                .cross_system_cells()
                .into_iter()
                .map(CellConfig::CrossSystem)
                .collect(),
        }
    }

    /// Runs the grid, discarding the stream.
    ///
    /// # Errors
    /// Fails only on environmental problems that precede cell execution
    /// (the cache directory's advisory lock cannot be acquired). Cell
    /// failures are reported per cell in the [`SweepReport`], never as
    /// an error.
    pub fn run(&self, grid: &GridSpec) -> Result<SweepReport, PvError> {
        self.run_streaming(grid, |_| {})
    }

    /// Runs the grid, invoking `on_cell` as each cell finishes
    /// (completion order; `CellResult::index` recovers grid order).
    ///
    /// Cached cells finish first, straight from their files. The cells
    /// that missed are evaluated by the unit loop of
    /// [`crate::incremental`]: cells that share a use case, features,
    /// model and target encoding form a group, and the unit of work,
    /// spread across the ambient rayon pool, is one fold of one group —
    /// prepared, fitted and truth-loaded once for all of its cells. A
    /// group's cells are validated, stored and streamed as soon as its
    /// last fold finishes, so a slow group (XGBoost) never holds back
    /// the cells of a fast one. The returned report is independent of
    /// thread count and completion order: cell summaries are pure
    /// functions of (corpus, config), and the collected list is in grid
    /// order.
    ///
    /// Execution is fault tolerant: each cell is evaluated once, and a
    /// panicking, non-converging, or NaN-producing cell becomes
    /// [`CellOutcome::Failed`] and (with a cache attached) its file
    /// records the failure at once, so re-runs skip it as
    /// [`CellOutcome::Quarantined`]. A cell with an injected fault runs
    /// in a group of its own, and a failed cell adds no fold tallies to
    /// the report. While it holds the cache lock, the run deletes the
    /// cell files older formats left behind.
    ///
    /// # Errors
    /// Fails only when the cache directory's advisory lock cannot be
    /// acquired within the lock timeout.
    pub fn run_streaming<F>(&self, grid: &GridSpec, on_cell: F) -> Result<SweepReport, PvError>
    where
        F: Fn(&CellResult) + Send + Sync,
    {
        let cells = self.cells(grid);
        let fingerprint = self.fingerprint();
        let _sweep_span = pv_obs::span!("pv.core.sweep.run", cells = cells.len());
        pv_obs::metrics::preregister_counters(SWEEP_OBS_COUNTERS);
        pv_obs::metrics::preregister_counters(&SHARD_OBS_COUNTERS);
        pv_obs::metrics::preregister_counters(&PEARSON_TYPE_COUNTERS);
        pv_obs::gauge_set!("pv.core.sweep.cells_total", cells.len());
        // The advisory lock covers cache reads, writes and pruning; it
        // is held until this function returns.
        let _lock = match &self.cache {
            Some(cache) => Some(CacheLock::acquire(cache.dir(), self.lock_timeout)?),
            None => None,
        };
        // One directory scan up front, after the older formats' files
        // are gone: the best same-config donor folds from *other* corpus
        // fingerprints (i.e. earlier, smaller corpora), feeding the
        // incremental fold cache of every miss.
        let donors = match &self.cache {
            Some(cache) => {
                cache.prune_older_formats();
                cache.donor_folds(fingerprint)
            }
            None => std::collections::HashMap::new(),
        };
        let hits = AtomicUsize::new(0);
        let misses = AtomicUsize::new(0);
        let store_failures = AtomicUsize::new(0);
        let fold_hits = AtomicUsize::new(0);
        let fold_deltas = AtomicUsize::new(0);
        let fold_misses = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<CellResult>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        // Counts a finished cell, streams it and keeps it for the report.
        let finish = |index: usize, outcome: CellOutcome, from_cache: bool| {
            match &outcome {
                CellOutcome::Ok { .. } => pv_obs::counter_inc!("pv.core.sweep.ok"),
                CellOutcome::Failed { .. } => pv_obs::counter_inc!("pv.core.sweep.failed"),
                CellOutcome::Quarantined { .. } => {}
            }
            let result = CellResult {
                index,
                config: cells[index],
                outcome,
                from_cache,
            };
            on_cell(&result);
            *lock(&results[index]) = Some(result);
        };
        // Validates, stores and finishes a cell this run evaluated (or
        // whose injected fault failed it before evaluation).
        let computed = |index: usize, evaluated: Result<IncrementalEval, PvError>| {
            let _cell_span = pv_obs::span!("pv.core.sweep.cell", index = index);
            let config = cells[index];
            let evaluated = evaluated.and_then(|mut eval| {
                if self.faults.eval_fault(index) == Some(FaultKind::NanRun) {
                    eval.summary.mean = f64::NAN;
                }
                validate_summary(&eval.summary)?;
                Ok(eval)
            });
            let (outcome, folds) = match evaluated {
                Ok(eval) => {
                    fold_hits.fetch_add(eval.stats.hits, Ordering::Relaxed);
                    fold_deltas.fetch_add(eval.stats.deltas, Ordering::Relaxed);
                    fold_misses.fetch_add(eval.stats.misses, Ordering::Relaxed);
                    let summary = eval.summary;
                    (CellOutcome::Ok { summary }, eval.folds)
                }
                Err(error) => (CellOutcome::Failed { error }, Vec::new()),
            };
            if let Some(cache) = &self.cache {
                let stored = match &outcome {
                    CellOutcome::Ok { summary } => {
                        cache.store(fingerprint, &config, summary, None, &folds)
                    }
                    CellOutcome::Failed { error } => cache.put(
                        fingerprint,
                        &config,
                        StoredOutcome::Failed {
                            error: error.clone(),
                        },
                    ),
                    CellOutcome::Quarantined { .. } => Ok(()),
                };
                if stored.is_err() {
                    // A failed store must not fail the cell: the summary
                    // is still valid, only the warm-start is lost.
                    store_failures.fetch_add(1, Ordering::Relaxed);
                    pv_obs::counter_inc!("pv.core.sweep.cache_store_fail");
                } else if self.faults.corrupts_store(index) {
                    // Torn-write drill: vandalize the entry we just
                    // stored so the next run's verified load treats it
                    // as a miss.
                    if let Ok(path) = cache.entry_path(fingerprint, &config) {
                        let _ = fs::write(&path, "{ corrupted by fault injection");
                    }
                }
            }
            finish(index, outcome, false);
        };

        // Cache lookups: hits and recorded failures finish at once.
        let missed: Vec<Option<usize>> = (0..cells.len())
            .into_par_iter()
            .map(|index| {
                pv_obs::counter_inc!("pv.core.sweep.cells");
                let stored = self
                    .cache
                    .as_ref()
                    .and_then(|c| c.lookup(fingerprint, &cells[index]));
                let Some(stored) = stored else {
                    misses.fetch_add(1, Ordering::Relaxed);
                    pv_obs::counter_inc!("pv.core.sweep.cache_miss");
                    return Some(index);
                };
                let _cell_span = pv_obs::span!("pv.core.sweep.cell", index = index);
                match stored.replay() {
                    skipped @ CellOutcome::Quarantined { .. } => {
                        // Known-bad from a previous run: skip-and-report
                        // (counted in neither hits nor misses — nothing
                        // was computed).
                        pv_obs::counter_inc!("pv.core.sweep.quarantine_skip");
                        finish(index, skipped, false);
                    }
                    hit => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        pv_obs::counter_inc!("pv.core.sweep.cache_hit");
                        finish(index, hit, true);
                    }
                }
                None
            })
            .collect();

        // An injected panic or non-convergence fails its cell before any
        // evaluation; a cell with any other fault runs alone.
        let mut tasks = Vec::new();
        let mut task_cells = Vec::new();
        for index in missed.into_iter().flatten() {
            let fault = self.faults.eval_fault(index);
            let early = match fault {
                Some(FaultKind::Panic) => isolated(|| -> Result<(), StatsError> {
                    panic!("injected fault: panic in cell {index}")
                })
                .err()
                .map(PvError::from),
                Some(FaultKind::NonConvergence) => Some(PvError::Solver {
                    what: format!("injected fault: non-convergence in cell {index}"),
                    iterations: 0,
                }),
                Some(FaultKind::NanRun | FaultKind::CacheCorruption) | None => None,
            };
            if let Some(error) = early {
                computed(index, Err(error));
                continue;
            }
            let config = cells[index];
            tasks.push(CellTask {
                config,
                prior: donors.get(&config).map(Vec::as_slice).unwrap_or_default(),
                alone: fault.is_some() || self.faults.corrupts_store(index),
            });
            task_cells.push(index);
        }
        run_cells(&self.target, &tasks, |task, evaluated| {
            computed(task_cells[task], evaluated.map_err(PvError::from));
        });

        let mut report = SweepReport {
            fingerprint,
            cells: results
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .expect("every cell finishes once")
                })
                .collect(),
            hits: hits.load(Ordering::Relaxed),
            misses: misses.load(Ordering::Relaxed),
            failed: 0,
            quarantined: 0,
            store_failures: store_failures.load(Ordering::Relaxed),
            fold_stats: FoldCacheStats {
                hits: fold_hits.load(Ordering::Relaxed),
                deltas: fold_deltas.load(Ordering::Relaxed),
                misses: fold_misses.load(Ordering::Relaxed),
            },
        };
        for cell in &report.cells {
            match &cell.outcome {
                CellOutcome::Ok { .. } => {}
                CellOutcome::Failed { .. } => report.failed += 1,
                CellOutcome::Quarantined { .. } => report.quarantined += 1,
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::incremental::evaluate_few_runs_incremental;
    use crate::pipeline::EncodedCorpus;
    use pv_sysmodel::SystemModel;

    fn corpus() -> Corpus {
        Corpus::collect(&SystemModel::intel(), 30, 21)
    }

    fn small_grid() -> GridSpec {
        GridSpec {
            reprs: vec![ReprKind::PearsonRnd, ReprKind::Histogram],
            models: vec![ModelKind::Knn],
            sample_counts: vec![5],
            seeds: vec![3],
            profiles_per_benchmark: 1,
        }
    }

    #[test]
    fn grid_expansion_is_deterministic_and_deduplicated() {
        let mut grid = small_grid();
        grid.sample_counts = vec![5, 10, 5];
        grid.seeds = vec![3, 3];
        let cells = grid.few_runs_cells();
        assert_eq!(cells.len(), 2 * 2); // 2 reprs × 1 model × 2 s × 1 seed
        assert_eq!(cells, grid.few_runs_cells());
        // Fixed nesting: sample count varies slower than repr.
        assert_eq!(cells[0].n_profile_runs, 5);
        assert_eq!(cells[2].n_profile_runs, 10);
        assert!(grid.cross_system_cells().len() == 4);
    }

    #[test]
    fn encoding_specs_cover_every_cell() {
        let c = corpus();
        let mut grid = small_grid();
        grid.sample_counts = vec![5, 10];
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let sweep = Sweep::few_runs(&enc);
        let report = sweep.run(&grid).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.hits, 0);
        assert_eq!(report.misses, 4);
    }

    #[test]
    fn sweep_results_match_direct_evaluation() {
        let c = corpus();
        let grid = small_grid();
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc).run(&grid).unwrap();
        for cell in &report.cells {
            let CellConfig::FewRuns(cfg) = cell.config else {
                panic!("uc1 sweep produced a uc2 cell");
            };
            let direct = crate::eval::evaluate_few_runs(&c, cfg).unwrap();
            assert_eq!(cell.summary().unwrap(), &direct, "{}", cell.config.label());
            assert!(cell.outcome.is_ok());
            assert!(!cell.from_cache);
        }
    }

    #[test]
    fn panicking_cell_is_contained_and_reported() {
        crate::resilience::silence_injected_panics();
        let c = corpus();
        let grid = small_grid();
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc)
            .with_faults(FaultPlan::none().inject(0, FaultKind::Panic))
            .run(&grid)
            .unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.failed, 1);
        let failed = &report.cells[0];
        let CellOutcome::Failed { error } = &failed.outcome else {
            panic!("expected Failed, got {:?}", failed.outcome);
        };
        assert_eq!(error.kind(), "panic");
        // One attempt, under the cell's own index: no reseeded rerun.
        assert_eq!(
            error.to_string(),
            "cell panicked: injected fault: panic in cell 0"
        );
        // The sibling cell is untouched.
        assert!(report.cells[1].outcome.is_ok());
    }

    #[test]
    fn cross_system_sweep_runs() {
        let amd = Corpus::collect(&SystemModel::amd(), 30, 21);
        let intel = corpus();
        let mut grid = small_grid();
        grid.sample_counts = vec![20];
        let (src_spec, dst_spec) = grid.cross_system_encoding(&amd);
        let src = EncodedCorpus::build(&amd, &src_spec).unwrap();
        let dst = EncodedCorpus::build(&intel, &dst_spec).unwrap();
        let report = Sweep::cross_system(&src, &dst).run(&grid).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert!(report
            .cells
            .iter()
            .all(|c| matches!(c.config, CellConfig::CrossSystem(_))));
    }

    #[test]
    fn degenerate_grid_produces_empty_report() {
        let c = corpus();
        let mut grid = small_grid();
        grid.models.clear();
        assert!(grid.is_degenerate());
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc).run(&grid).unwrap();
        assert!(report.cells.is_empty());
        assert_eq!((report.hits, report.misses), (0, 0));
    }

    #[test]
    fn cell_configs_roundtrip_through_json() {
        for cfg in [
            CellConfig::FewRuns(FewRunsConfig::default()),
            CellConfig::CrossSystem(CrossSystemConfig::default()),
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: CellConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(cfg, back);
        }
    }

    #[test]
    fn cell_keys_separate_fingerprints_and_configs() {
        let a = CellConfig::FewRuns(FewRunsConfig::default());
        let b = CellConfig::CrossSystem(CrossSystemConfig::default());
        assert_ne!(cell_key(1, &a).unwrap(), cell_key(2, &a).unwrap());
        assert_ne!(cell_key(1, &a).unwrap(), cell_key(1, &b).unwrap());
        assert_eq!(cell_key(7, &a).unwrap(), cell_key(7, &a).unwrap());
    }

    #[test]
    fn stored_folds_must_match_the_summary_and_failed_records_carry_none() {
        let c = corpus();
        let cfg = FewRunsConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: 1,
            seed: 3,
        };
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg)).unwrap();
        let eval = evaluate_few_runs_incremental(&enc, cfg, &[]).unwrap();
        let (fp, cell) = (enc.fingerprint(), CellConfig::FewRuns(cfg));
        let dir = std::env::temp_dir().join(format!("pv-sweep-record-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = CellCache::new(&dir);

        // Folds that would be dropped or disagree with the summary are
        // refused, typed, and nothing is written.
        let refused = |error: Option<&PvError>, folds: &[FoldEntry]| {
            cache
                .store(fp, &cell, &eval.summary, error, folds)
                .unwrap_err()
                .kind()
        };
        let mut lying = eval.folds.clone();
        lying[2].score.ks += 0.5;
        let panic = PvError::CellPanic {
            message: "boom".into(),
        };
        assert_eq!(refused(None, &lying), "invalid");
        assert_eq!(refused(None, &eval.folds[1..]), "invalid");
        assert_eq!(refused(Some(&panic), &eval.folds), "invalid");
        assert_eq!(refused(Some(&panic), &[]), "invalid");
        assert_eq!(cache.entries(), 0);

        // Stored, the folds come back whole: their scores are the
        // summary's.
        cache
            .store(fp, &cell, &eval.summary, None, &eval.folds)
            .unwrap();
        assert_eq!(cache.donor_folds(fp ^ 1)[&cell], eval.folds);
        assert_eq!(cache.configs(fp), vec![cell]);

        // A stored fold list one short of the scores is invalid.
        let mut short = stored_folds(&eval.summary, &eval.folds).unwrap();
        short.pop();
        let ok = StoredOutcome::Ok {
            summary: eval.summary.clone(),
            folds: short,
        };
        cache.put(fp, &cell, ok).unwrap();
        let key = cell_key(fp, &cell).unwrap();
        assert_eq!(cache.read(key).unwrap_err().kind(), "invalid");
        assert!(cache.load(fp, &cell).is_none());

        // A failed record is read back as such, but it has no summary,
        // donates no folds and is no config worth training.
        let failed = StoredOutcome::Failed {
            error: panic.clone(),
        };
        cache.put(fp, &cell, failed.clone()).unwrap();
        assert_eq!(cache.lookup(fp, &cell), Some(failed));
        assert!(cache.load(fp, &cell).is_none());
        assert!(cache.donor_folds(fp ^ 1).is_empty());
        assert!(cache.configs(fp).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_name_the_axes() {
        let label = CellConfig::FewRuns(FewRunsConfig::default()).label();
        assert!(label.contains("uc1"), "{label}");
        assert!(label.contains("PearsonRnd"), "{label}");
        assert!(label.contains("s=10"), "{label}");
    }
}
