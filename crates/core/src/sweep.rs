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
//! * [`Sweep`] schedules the cells across the rayon worker pool over the
//!   shared cache(s), streaming each [`CellResult`] to a callback the
//!   moment it finishes and returning all of them (cell order, not
//!   completion order) in a [`SweepReport`].
//! * [`CellCache`] persists completed cells to disk, keyed by
//!   `(corpus fingerprint, cell config)`. Re-running a widened grid
//!   loads the old cells and computes only the delta; a stale or
//!   corrupted file fails its [`crate::store`] envelope or its
//!   fingerprint/config check and is recomputed rather than trusted.
//!
//! Cached results are bit-identical to fresh ones: every cell evaluation
//! is a pure function of (corpus, config) independent of thread count
//! ([`FoldRunner`](crate::pipeline::FoldRunner)'s guarantee), the
//! [`corpus_fingerprint`] pins the corpus bit-exactly, and the JSON
//! round-trip preserves every `f64` (shortest-round-trip formatting).
//!
//! Execution is fault tolerant (see [`resilience`](crate::resilience)):
//! each cell attempt runs behind a panic-isolation boundary, failing
//! cells are retried with fresh deterministic sub-seeds, solver failures
//! fall back to the histogram representation with a recorded
//! [`CellOutcome::Degraded`] marker, cells that exhaust their retries
//! are quarantined next to the cache, and the whole run holds an
//! advisory [`CacheLock`] on the cache directory so concurrent sweeps
//! cannot interleave writes. A failing cell yields a
//! [`CellOutcome::Failed`] — it never sinks the pool.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;
use pv_sysmodel::Corpus;

use crate::eval::{cross_system_specs_for_runs, few_runs_spec, EvalSummary};
use crate::incremental::{
    evaluate_cross_system_incremental, evaluate_few_runs_incremental, FoldCacheStats, FoldEntry,
};
use crate::model::ModelKind;
use crate::pipeline::EncodingSpec;
use crate::repr::ReprKind;
use crate::resilience::{
    panic_message, retry_seed, validate_summary, CacheLock, FaultKind, FaultPlan, PvError,
    Quarantine, QuarantineEntry, DEFAULT_MAX_RETRIES,
};
use crate::shard::{ShardedCorpus, SHARD_OBS_COUNTERS};
use crate::usecase1::FewRunsConfig;
use crate::usecase2::CrossSystemConfig;

/// Cell-cache envelope magic; the trailing digits are the format version.
/// Bump on any change to the cell layout or evaluation semantics to
/// orphan old entries. (v2: entries carry the degraded-fallback marker;
/// v3: entries carry per-fold [`FoldEntry`] scores for the incremental
/// fold cache; v4: the vectorized kernel layer — chunked-lane cosine
/// rounding and the binned-trees default changed evaluation numerics,
/// and cell keys now carry the tree-kernel tag; v5: the sealed envelope
/// of [`crate::store`]; v6: a fold entry stores its held-out digest, not
/// its training digests — the cell's folds spell its roster once.)
const CELL_MAGIC: &[u8; 8] = b"PVCELL06";

/// How long a sweep waits for the cache directory's advisory lock
/// before giving up, unless overridden by [`Sweep::with_lock_timeout`].
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(60);

/// The operational counters a sweep pre-registers at run start (when a
/// collector is installed), so metrics snapshots and summary tables list
/// every one of them even at zero — "0 retries" is an observation, a
/// missing row is not. Includes the lock/store/quarantine tallies that
/// were previously visible only when non-zero at exit.
pub const SWEEP_OBS_COUNTERS: &[&str] = &[
    "pv.core.pipeline.fold_cache.delta",
    "pv.core.pipeline.fold_cache.hit",
    "pv.core.pipeline.fold_cache.miss",
    "pv.core.resilience.fallback",
    "pv.core.resilience.panic_caught",
    "pv.core.resilience.retry",
    "pv.core.sweep.cache_hit",
    "pv.core.sweep.cache_miss",
    "pv.core.sweep.cache_store_fail",
    "pv.core.sweep.cache_verify_fail",
    "pv.core.sweep.cells",
    "pv.core.sweep.degraded",
    "pv.core.sweep.failed",
    "pv.core.sweep.lock_steal",
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

    /// The encoding spec covering every use-case-1 cell of this grid,
    /// plus the histogram-representation coverage each cell's degraded
    /// fallback would need — so a MaxEnt cell that falls back mid-sweep
    /// finds its encodings already cached.
    pub fn few_runs_encoding(&self) -> EncodingSpec {
        // The spec builder is idempotent, so merging per-cell specs
        // unions coverage instead of accumulating duplicates.
        self.few_runs_cells()
            .iter()
            .fold(EncodingSpec::new(), |spec, cfg| {
                let fallback = FewRunsConfig {
                    repr: ReprKind::Histogram,
                    ..*cfg
                };
                spec.merge(&few_runs_spec(cfg))
                    .merge(&few_runs_spec(&fallback))
            })
    }

    /// The (source, destination) encoding specs covering every
    /// use-case-2 cell of this grid (plus histogram fallback coverage,
    /// as in [`GridSpec::few_runs_encoding`]). `src` is needed to clamp
    /// profile windows to the source corpus' run count, exactly as
    /// evaluation does.
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
                let fallback = CrossSystemConfig {
                    repr: ReprKind::Histogram,
                    ..*cfg
                };
                let (s, d) = cross_system_specs_for_runs(src_n_runs, cfg);
                let (fs, fd) = cross_system_specs_for_runs(src_n_runs, &fallback);
                (src_spec.merge(&s).merge(&fs), dst_spec.merge(&d).merge(&fd))
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

    /// The same cell with a different seed (used by the retry policy to
    /// re-run a failing cell under a fresh deterministic sub-seed).
    pub fn with_seed(self, seed: u64) -> Self {
        match self {
            CellConfig::FewRuns(c) => CellConfig::FewRuns(FewRunsConfig { seed, ..c }),
            CellConfig::CrossSystem(c) => CellConfig::CrossSystem(CrossSystemConfig { seed, ..c }),
        }
    }

    /// The same cell with a different representation (used by the
    /// degraded fallback to re-run a solver-failed cell on the
    /// histogram representation).
    pub fn with_repr(self, repr: ReprKind) -> Self {
        match self {
            CellConfig::FewRuns(c) => CellConfig::FewRuns(FewRunsConfig { repr, ..c }),
            CellConfig::CrossSystem(c) => CellConfig::CrossSystem(CrossSystemConfig { repr, ..c }),
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
/// corpus fingerprint, the tree-kernel tag (binned vs exact split
/// finding changes tree-model scores, so a `PV_EXACT_TREES` run must
/// never alias a default run's entries), and the cell config's canonical
/// JSON form.
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
    h.write_str(crate::model::tree_kernel_tag());
    h.write_str(&json);
    Ok(h.finish())
}

/// The payload of a cell cache file. The fingerprint and config are
/// stored alongside the summary so a hit can be *verified*, not assumed:
/// an entry that carries another corpus' fingerprint or a different
/// config (hash collision, hand-edited file) is treated as a miss and
/// recomputed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CachedCell {
    fingerprint: u64,
    config: CellConfig,
    summary: EvalSummary,
    /// `Some(error)` when the summary is a degraded histogram fallback
    /// recorded after `error`; `None` for a healthy cell. Persisting the
    /// marker keeps warm re-runs honest — a degraded cell stays visibly
    /// degraded instead of laundering into a clean hit.
    degraded: Option<PvError>,
    /// Per-fold score entries (fold order; their held-out digests are
    /// the roster the cell was scored on). When the corpus grows, a
    /// later sweep with a *different* fingerprint but the same config
    /// uses these as the incremental fold cache's prior, so only the
    /// folds the growth actually changed are recomputed. Empty for
    /// degraded cells and cells recovered by a reseeded retry.
    folds: Vec<FoldEntry>,
}

/// A serde-backed on-disk cache of completed sweep cells.
///
/// Layout: one file per cell, `cell-<key:016x>.json` under the cache
/// directory, where the key is [`cell_key`]: a [`crate::store`]
/// envelope under the magic `PVCELL06` whose payload is the cell's JSON.
/// Writes are atomic, so concurrent sweeps sharing a directory never
/// observe partial entries.
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

    /// Opens and parses the entry stored under `key`.
    fn read(&self, key: u64) -> Result<CachedCell, PvError> {
        crate::store::open(&self.key_path(key), CELL_MAGIC, key)?.json()
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

    /// Loads a cell if a verified entry exists, together with its
    /// degraded-fallback marker (`None` for a healthy cell).
    ///
    /// Any failure — missing file, failed envelope, unparsable payload,
    /// fingerprint/config mismatch — is a miss, never an error: the cache
    /// must be safe to point at a stale or vandalized directory.
    pub fn load(
        &self,
        fingerprint: u64,
        cfg: &CellConfig,
    ) -> Option<(EvalSummary, Option<PvError>)> {
        let key = cell_key(fingerprint, cfg).ok()?;
        match self.read(key) {
            Ok(cell) if cell.fingerprint == fingerprint && cell.config == *cfg => {
                Some((cell.summary, cell.degraded))
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

    /// The configs of every verified, non-degraded cell stored for
    /// `fingerprint`, deterministically ordered by cell key. This is
    /// what `repro train --from-sweep` scavenges: each config a sweep
    /// completed is a model worth fitting and sealing into the
    /// [model registry](crate::registry). Unreadable or stale files are
    /// skipped.
    pub fn configs(&self, fingerprint: u64) -> Vec<CellConfig> {
        self.verified()
            .filter(|(key, cell)| {
                cell.fingerprint == fingerprint
                    && cell.degraded.is_none()
                    && cell_key(fingerprint, &cell.config).ok() == Some(*key)
            })
            .map(|(_, cell)| cell.config)
            .collect()
    }

    /// The best fold-cache donors on disk for corpora *other than*
    /// `fingerprint`: for every config with at least one non-degraded
    /// entry carrying folds, the entry with the most folds (ties broken
    /// by smaller fingerprint, so the pick is deterministic for any
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
        let mut best: std::collections::HashMap<CellConfig, (usize, u64, Vec<FoldEntry>)> =
            std::collections::HashMap::new();
        for (_, cell) in self.verified() {
            if cell.fingerprint == fingerprint || cell.degraded.is_some() || cell.folds.is_empty() {
                continue;
            }
            let candidate = (cell.folds.len(), cell.fingerprint);
            let better = match best.get(&cell.config) {
                Some(&(len, fp, _)) => {
                    candidate.0 > len || (candidate.0 == len && candidate.1 < fp)
                }
                None => true,
            };
            if better {
                best.insert(cell.config, (candidate.0, candidate.1, cell.folds));
            }
        }
        best.into_iter().map(|(k, (_, _, v))| (k, v)).collect()
    }

    /// Persists a completed cell (`degraded` records the error a
    /// degraded-fallback summary stands in for; `folds` are the per-fold
    /// entries future incremental evaluations can reuse).
    ///
    /// # Errors
    /// [`PvError::CacheIo`] on filesystem errors (unwritable directory,
    /// disk full).
    pub fn store(
        &self,
        fingerprint: u64,
        cfg: &CellConfig,
        summary: &EvalSummary,
        degraded: Option<&PvError>,
        folds: &[FoldEntry],
    ) -> Result<(), PvError> {
        let key = cell_key(fingerprint, cfg)?;
        let cell = CachedCell {
            fingerprint,
            config: *cfg,
            summary: summary.clone(),
            degraded: degraded.cloned(),
            folds: folds.to_vec(),
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
        /// Attempts spent (1 for a first-try success, 0 for a cache
        /// hit, more when retries recovered a transient fault).
        attempts: u32,
    },
    /// The configured representation failed its solver; the summary is
    /// a recorded fallback onto `fallback` — usable, but not the
    /// fidelity the cell asked for. Never silently mixed with `Ok`.
    Degraded {
        /// The fallback evaluation result.
        summary: EvalSummary,
        /// Representation the cell fell back to.
        fallback: ReprKind,
        /// The error that forced the fallback.
        error: PvError,
        /// Attempts spent before falling back.
        attempts: u32,
    },
    /// The cell exhausted its retries without a usable result. With a
    /// cache attached the cell is quarantined for subsequent runs.
    Failed {
        /// The error from the final attempt.
        error: PvError,
        /// Attempts spent.
        attempts: u32,
    },
    /// The cell was on the cache directory's quarantine list and was
    /// skipped without evaluation.
    Quarantined {
        /// The persisted error description from the quarantining run.
        error: String,
    },
}

impl CellOutcome {
    /// The usable summary, if the cell produced one (clean or degraded).
    pub fn summary(&self) -> Option<&EvalSummary> {
        match self {
            CellOutcome::Ok { summary, .. } | CellOutcome::Degraded { summary, .. } => {
                Some(summary)
            }
            _ => None,
        }
    }

    /// Attempts spent on this cell in this run.
    pub fn attempts(&self) -> u32 {
        match self {
            CellOutcome::Ok { attempts, .. }
            | CellOutcome::Degraded { attempts, .. }
            | CellOutcome::Failed { attempts, .. } => *attempts,
            CellOutcome::Quarantined { .. } => 0,
        }
    }

    /// Whether the cell evaluated cleanly.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok { .. })
    }

    /// Whether the cell fell back to a degraded representation.
    pub fn is_degraded(&self) -> bool {
        matches!(self, CellOutcome::Degraded { .. })
    }

    /// Whether the cell failed outright.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// Whether the cell was skipped via the quarantine list.
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
    /// Cells that failed after exhausting retries.
    pub failed: usize,
    /// Cells that completed on a degraded fallback representation.
    pub degraded: usize,
    /// Cells skipped via the quarantine list.
    pub quarantined: usize,
    /// Cache-store failures (non-fatal: the summary was still returned).
    pub store_failures: usize,
    /// Fold-cache tallies aggregated over every cell this run actually
    /// evaluated (cell-level cache hits evaluate no folds and contribute
    /// nothing here).
    pub fold_stats: FoldCacheStats,
}

impl SweepReport {
    /// Whether every cell produced a clean (non-degraded) result.
    pub fn is_clean(&self) -> bool {
        self.failed == 0 && self.degraded == 0 && self.quarantined == 0
    }

    /// The cells that did not produce a usable summary (failed or
    /// quarantined), grid order.
    pub fn failures(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.outcome.is_failed() || c.outcome.is_quarantined())
            .collect()
    }
}

/// The sweep service: a target plus an optional cell cache, a retry
/// budget, and (for the test tiers) a fault-injection plan.
pub struct Sweep<'a, 'c> {
    target: SweepTarget<'a, 'c>,
    cache: Option<CellCache>,
    faults: FaultPlan,
    max_retries: u32,
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
            max_retries: DEFAULT_MAX_RETRIES,
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

    /// Sets the per-cell retry budget (attempts = 1 + retries).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets how long to wait for the cache directory's advisory lock.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&CellCache> {
        self.cache.as_ref()
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

    /// Evaluates one cell on the shared encoded corpora, incrementally
    /// against `prior` fold entries (empty prior ⇒ a cold evaluation —
    /// same bits, all folds counted as misses).
    fn eval_cell(
        &self,
        cfg: &CellConfig,
        prior: &[FoldEntry],
    ) -> Result<(EvalSummary, Vec<FoldEntry>, FoldCacheStats), StatsError> {
        let result = match (&self.target, cfg) {
            (SweepTarget::FewRuns(sh), CellConfig::FewRuns(c)) => {
                evaluate_few_runs_incremental(sh, *c, prior)?
            }
            (SweepTarget::CrossSystem { src, dst }, CellConfig::CrossSystem(c)) => {
                evaluate_cross_system_incremental(src, dst, *c, prior)?
            }
            _ => {
                return Err(StatsError::invalid(
                    "Sweep::eval_cell",
                    "cell config does not match the sweep target's use case",
                ))
            }
        };
        Ok((result.summary, result.folds, result.stats))
    }

    /// One panic-isolated, fault-injectable evaluation attempt.
    fn eval_attempt(
        &self,
        index: usize,
        attempt: u32,
        cfg: &CellConfig,
        prior: &[FoldEntry],
    ) -> Result<(EvalSummary, Vec<FoldEntry>, FoldCacheStats), PvError> {
        type AttemptOk = (EvalSummary, Vec<FoldEntry>, FoldCacheStats);
        // catch_unwind wraps the whole attempt (injection included), so
        // a panic anywhere inside the cell becomes a typed error before
        // rayon's scope can observe it and sink the pool.
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<AttemptOk, PvError> {
            match self.faults.eval_fault(index, attempt) {
                Some(FaultKind::Panic) => {
                    panic!("injected fault: panic in cell {index} attempt {attempt}")
                }
                Some(FaultKind::NonConvergence) => {
                    return Err(PvError::Solver {
                        what: format!("injected fault: non-convergence in cell {index}"),
                        iterations: 0,
                    });
                }
                Some(FaultKind::NanRun) => {
                    let (mut summary, folds, stats) = self.eval_cell(cfg, prior)?;
                    summary.mean = f64::NAN;
                    return Ok((summary, folds, stats));
                }
                Some(FaultKind::CacheCorruption) | None => {}
            }
            self.eval_cell(cfg, prior).map_err(PvError::from)
        }));
        match outcome {
            Ok(result) => result.and_then(|(summary, folds, stats)| {
                validate_summary(&summary)?;
                Ok((summary, folds, stats))
            }),
            Err(payload) => {
                pv_obs::counter_inc!("pv.core.resilience.panic_caught");
                Err(PvError::CellPanic {
                    message: panic_message(payload),
                })
            }
        }
    }

    /// Evaluates one cell under the retry/fallback policy. Infallible by
    /// construction: every failure mode is folded into the outcome.
    ///
    /// Alongside the outcome, returns the fold entries worth persisting
    /// (only a first-attempt success produces any: a reseeded retry ran
    /// under a different effective config, and a degraded fallback under
    /// a different representation, so their folds would poison the
    /// original cell's fold cache) and the fold-cache tallies of the
    /// work actually performed.
    fn eval_cell_resilient(
        &self,
        index: usize,
        config: &CellConfig,
        prior: &[FoldEntry],
    ) -> (CellOutcome, Vec<FoldEntry>, FoldCacheStats) {
        let attempts_allowed = self.max_retries.saturating_add(1);
        let mut last_err = PvError::Invalid {
            what: "Sweep".to_string(),
            detail: "cell was given no attempts".to_string(),
        };
        for attempt in 0..attempts_allowed {
            // Attempt 0 runs the configured seed (so an un-faulted cell
            // is bit-identical with or without the retry machinery);
            // later attempts re-seed deterministically.
            if attempt > 0 {
                pv_obs::counter_inc!("pv.core.resilience.retry");
            }
            let cfg = config.with_seed(retry_seed(config.seed(), attempt));
            let attempt_prior = if attempt == 0 { prior } else { &[] };
            match self.eval_attempt(index, attempt, &cfg, attempt_prior) {
                Ok((summary, folds, stats)) => {
                    let outcome = CellOutcome::Ok {
                        summary,
                        attempts: attempt + 1,
                    };
                    let folds = if attempt == 0 { folds } else { Vec::new() };
                    return (outcome, folds, stats);
                }
                Err(e) => last_err = e,
            }
        }
        if last_err.fallback_eligible() && config.repr() != ReprKind::Histogram {
            // Solver non-convergence: fall back to the histogram
            // representation under the original seed — recorded, never
            // silently mixed with clean cells. No fault injection here
            // (the faults model the configured repr's failure), but the
            // panic boundary and numeric validation still apply.
            let fallback_cfg = config.with_repr(ReprKind::Histogram);
            let fallback = catch_unwind(AssertUnwindSafe(|| {
                self.eval_cell(&fallback_cfg, &[]).map_err(PvError::from)
            }));
            if let Ok(Ok((summary, _folds, stats))) = fallback {
                if validate_summary(&summary).is_ok() {
                    pv_obs::counter_inc!("pv.core.resilience.fallback");
                    let outcome = CellOutcome::Degraded {
                        summary,
                        fallback: ReprKind::Histogram,
                        error: last_err,
                        attempts: attempts_allowed,
                    };
                    return (outcome, Vec::new(), stats);
                }
            }
        }
        (
            CellOutcome::Failed {
                error: last_err,
                attempts: attempts_allowed,
            },
            Vec::new(),
            FoldCacheStats::default(),
        )
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
    /// Cells are scheduled across the ambient rayon pool and each cell's
    /// folds parallelize too, so small grids still saturate the machine.
    /// The returned report is independent of thread count and completion
    /// order: cell summaries are pure functions of (corpus, config), and
    /// the collected list is in grid order.
    ///
    /// Execution is fault tolerant: a panicking, non-converging, or
    /// NaN-producing cell is retried up to the retry budget (fresh
    /// deterministic sub-seed per attempt), solver failures fall back to
    /// the histogram representation as [`CellOutcome::Degraded`], and a
    /// cell that exhausts its budget becomes [`CellOutcome::Failed`] and
    /// (with a cache attached) is quarantined so re-runs skip it.
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
        pv_obs::gauge_set!("pv.core.sweep.cells_total", cells.len());
        // The advisory lock covers cache reads, writes, and the
        // quarantine update; it is held until this function returns.
        let _lock = match &self.cache {
            Some(cache) => Some(CacheLock::acquire(cache.dir(), self.lock_timeout)?),
            None => None,
        };
        let quarantine = match &self.cache {
            Some(cache) => Quarantine::load(cache.dir()),
            None => Quarantine::new(),
        };
        // One directory scan up front: the best same-config donor folds
        // from *other* corpus fingerprints (i.e. earlier, smaller
        // corpora), feeding the incremental fold cache of every miss.
        let donors = match &self.cache {
            Some(cache) => cache.donor_folds(fingerprint),
            None => std::collections::HashMap::new(),
        };
        let hits = AtomicUsize::new(0);
        let misses = AtomicUsize::new(0);
        let store_failures = AtomicUsize::new(0);
        let fold_hits = AtomicUsize::new(0);
        let fold_deltas = AtomicUsize::new(0);
        let fold_misses = AtomicUsize::new(0);
        let results: Vec<CellResult> = (0..cells.len())
            .into_par_iter()
            .map(|index| {
                let config = cells[index];
                let _cell_span = pv_obs::span!("pv.core.sweep.cell", index = index);
                pv_obs::counter_inc!("pv.core.sweep.cells");
                if let Some(entry) = cell_key(fingerprint, &config)
                    .ok()
                    .and_then(|k| quarantine.get(k))
                {
                    // Known-bad from a previous run: skip-and-report
                    // (counted in neither hits nor misses — nothing was
                    // looked up or computed).
                    pv_obs::counter_inc!("pv.core.sweep.quarantine_skip");
                    let result = CellResult {
                        index,
                        config,
                        outcome: CellOutcome::Quarantined {
                            error: entry.error.to_string(),
                        },
                        from_cache: false,
                    };
                    on_cell(&result);
                    return result;
                }
                let cached = self
                    .cache
                    .as_ref()
                    .and_then(|c| c.load(fingerprint, &config));
                let (outcome, from_cache) = match cached {
                    Some((summary, degraded)) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        pv_obs::counter_inc!("pv.core.sweep.cache_hit");
                        let outcome = match degraded {
                            Some(error) => CellOutcome::Degraded {
                                summary,
                                fallback: ReprKind::Histogram,
                                error,
                                attempts: 0,
                            },
                            None => CellOutcome::Ok {
                                summary,
                                attempts: 0,
                            },
                        };
                        (outcome, true)
                    }
                    None => {
                        misses.fetch_add(1, Ordering::Relaxed);
                        pv_obs::counter_inc!("pv.core.sweep.cache_miss");
                        let prior = donors.get(&config).map(Vec::as_slice).unwrap_or_default();
                        let (outcome, folds, fstats) =
                            self.eval_cell_resilient(index, &config, prior);
                        fold_hits.fetch_add(fstats.hits, Ordering::Relaxed);
                        fold_deltas.fetch_add(fstats.deltas, Ordering::Relaxed);
                        fold_misses.fetch_add(fstats.misses, Ordering::Relaxed);
                        if let Some(cache) = &self.cache {
                            let stored = match &outcome {
                                CellOutcome::Ok { summary, .. } => {
                                    cache.store(fingerprint, &config, summary, None, &folds)
                                }
                                CellOutcome::Degraded { summary, error, .. } => {
                                    cache.store(fingerprint, &config, summary, Some(error), &[])
                                }
                                _ => Ok(()),
                            };
                            if stored.is_err() {
                                // A failed store must not fail the cell:
                                // the summary is still valid, only the
                                // warm-start is lost.
                                store_failures.fetch_add(1, Ordering::Relaxed);
                                pv_obs::counter_inc!("pv.core.sweep.cache_store_fail");
                            } else if self.faults.corrupts_store(index) {
                                // Torn-write drill: vandalize the entry
                                // we just stored so the next run's
                                // verified load treats it as a miss.
                                if let Ok(path) = cache.entry_path(fingerprint, &config) {
                                    let _ = fs::write(&path, "{ corrupted by fault injection");
                                }
                            }
                        }
                        (outcome, false)
                    }
                };
                match &outcome {
                    CellOutcome::Ok { .. } => pv_obs::counter_inc!("pv.core.sweep.ok"),
                    CellOutcome::Degraded { .. } => {
                        pv_obs::counter_inc!("pv.core.sweep.degraded")
                    }
                    CellOutcome::Failed { .. } => pv_obs::counter_inc!("pv.core.sweep.failed"),
                    CellOutcome::Quarantined { .. } => {}
                }
                let result = CellResult {
                    index,
                    config,
                    outcome,
                    from_cache,
                };
                on_cell(&result);
                result
            })
            .collect();

        if let Some(cache) = &self.cache {
            // Quarantine newly failed cells (grid order → deterministic
            // file content for a given plan, any thread count).
            let mut q = quarantine;
            let mut dirty = false;
            for r in &results {
                if let CellOutcome::Failed { error, attempts } = &r.outcome {
                    if let Ok(key) = cell_key(fingerprint, &r.config) {
                        q.insert(QuarantineEntry {
                            key,
                            label: r.config.label(),
                            error: error.clone(),
                            attempts: *attempts,
                        });
                        dirty = true;
                    }
                }
            }
            if dirty && q.save(cache.dir()).is_err() {
                store_failures.fetch_add(1, Ordering::Relaxed);
                pv_obs::counter_inc!("pv.core.sweep.cache_store_fail");
            }
        }

        let mut report = SweepReport {
            fingerprint,
            cells: results,
            hits: hits.load(Ordering::Relaxed),
            misses: misses.load(Ordering::Relaxed),
            failed: 0,
            degraded: 0,
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
                CellOutcome::Degraded { .. } => report.degraded += 1,
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
            assert_eq!(cell.outcome.attempts(), 1);
        }
    }

    #[test]
    fn config_rewrites_preserve_the_other_axes() {
        let cfg = CellConfig::FewRuns(FewRunsConfig::default());
        let reseeded = cfg.with_seed(99);
        assert_eq!(reseeded.seed(), 99);
        assert_eq!(reseeded.repr(), cfg.repr());
        assert_eq!(reseeded.model(), cfg.model());
        let histo = cfg.with_repr(ReprKind::Histogram);
        assert_eq!(histo.repr(), ReprKind::Histogram);
        assert_eq!(histo.seed(), cfg.seed());
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
        let CellOutcome::Failed { error, attempts } = &failed.outcome else {
            panic!("expected Failed, got {:?}", failed.outcome);
        };
        assert_eq!(error.kind(), "panic");
        assert_eq!(*attempts, DEFAULT_MAX_RETRIES + 1);
        // The sibling cell is untouched.
        assert!(report.cells[1].outcome.is_ok());
    }

    #[test]
    fn nonconvergence_falls_back_to_histogram_as_degraded() {
        let c = corpus();
        let grid = small_grid(); // cells: [PearsonRnd, Histogram] × kNN
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc)
            .with_faults(FaultPlan::none().inject(0, FaultKind::NonConvergence))
            .run(&grid)
            .unwrap();
        assert_eq!(report.degraded, 1);
        assert_eq!(report.failed, 0);
        let CellOutcome::Degraded {
            summary, fallback, ..
        } = &report.cells[0].outcome
        else {
            panic!("expected Degraded, got {:?}", report.cells[0].outcome);
        };
        assert_eq!(*fallback, ReprKind::Histogram);
        // The recorded fallback equals the histogram cell computed under
        // the same seed/model/sample axes — cell 1 of this grid.
        assert_eq!(Some(summary), report.cells[1].summary());
    }

    #[test]
    fn nonconvergence_on_a_histogram_cell_fails_without_fallback() {
        let c = corpus();
        let mut grid = small_grid();
        grid.reprs = vec![ReprKind::Histogram];
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc)
            .with_faults(FaultPlan::none().inject(0, FaultKind::NonConvergence))
            .run(&grid)
            .unwrap();
        // Histogram is already the floor of the degrade ladder.
        assert_eq!(report.failed, 1);
        assert_eq!(report.degraded, 0);
    }

    #[test]
    fn transient_fault_recovers_via_reseeded_retry() {
        crate::resilience::silence_injected_panics();
        let c = corpus();
        let grid = small_grid();
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc)
            .with_faults(FaultPlan::none().inject_transient(0, FaultKind::Panic, 1))
            .run(&grid)
            .unwrap();
        assert!(report.is_clean());
        let CellOutcome::Ok { attempts, .. } = &report.cells[0].outcome else {
            panic!("expected Ok, got {:?}", report.cells[0].outcome);
        };
        assert_eq!(*attempts, 2, "one failed attempt, one recovery");
        // The recovered cell ran under a derived sub-seed, so it may
        // differ from the fault-free value — but it must be the value
        // the derived seed produces, deterministically.
        let CellConfig::FewRuns(cfg) = report.cells[0].config else {
            panic!("uc1 grid");
        };
        let reseeded = FewRunsConfig {
            seed: crate::resilience::retry_seed(cfg.seed, 1),
            ..cfg
        };
        let direct = crate::eval::evaluate_few_runs(&c, reseeded).unwrap();
        assert_eq!(report.cells[0].summary().unwrap(), &direct);
    }

    #[test]
    fn zero_retries_still_yields_one_attempt() {
        let c = corpus();
        let grid = small_grid();
        let enc = EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc)
            .with_max_retries(0)
            .with_faults(FaultPlan::none().inject_transient(0, FaultKind::NanRun, 1))
            .run(&grid)
            .unwrap();
        // No retry budget: the transient fault is fatal for the cell.
        assert_eq!(report.failed, 1);
        assert_eq!(report.cells[0].outcome.attempts(), 1);
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
    fn labels_name_the_axes() {
        let label = CellConfig::FewRuns(FewRunsConfig::default()).label();
        assert!(label.contains("uc1"), "{label}");
        assert!(label.contains("PearsonRnd"), "{label}");
        assert!(label.contains("s=10"), "{label}");
    }
}
