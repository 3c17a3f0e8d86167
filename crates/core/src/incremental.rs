//! Incremental fold-level evaluation: the one evaluation loop, with a
//! per-fold score cache and corpus-append delta recompute.
//!
//! ## The unit loop
//!
//! `run_cells` evaluates a list of cells (a sweep's misses, or the one
//! cell of [`evaluate_few_runs_incremental`] /
//! [`evaluate_cross_system_incremental`]) with the *(group, fold)* pair as
//! the unit of work. A group is the cells that share a use case, a
//! feature spec (`s` and windows, or use case 2's joined spec), a model
//! and a target encoding ([`crate::repr::ReprKind::encoding`]), so its
//! cells train on bit-identical folds and differ only in decoder
//! (PyMaxEnt vs PearsonRnd) and root seed. A unit prepares its fold once
//! (from the corpus's row table), loads the held-out truth once, fits kNN
//! once — the prepared fold moves into the model, and one neighbour
//! search yields both the prediction and the neighbour set — or a tree
//! once per distinct fold seed, then decodes and scores each cell. Units
//! run group-major across the pool; the worker that finishes a group's
//! last unit hands each of its cells to the caller at once. A cell's
//! result is bit-identical to evaluating it alone, at any thread count.
//!
//! ## Fold reuse
//!
//! A LOGO evaluation is a set of independent folds, and each fold's score
//! is a pure function of (config, held-out benchmark, *ordered* training
//! set) — order matters: [`pv_ml::StandardScaler`] accumulates moments in
//! row order, so permuted training sets are not bit-identical. Every fold
//! of one evaluation trains on the same roster minus its own benchmark,
//! so the roster is the one thing a cached evaluation needs to remember:
//! a [`FoldEntry`] stores only its held-out benchmark's content digest,
//! and a prior's entries in fold order spell the roster it was scored on.
//!
//! Reuse is decided once per cell, by comparing the prior's roster with
//! this one's:
//!
//! * **equal** — every fold sees the same training set as before, so
//!   every verified entry is an exact hit;
//! * **strict prefix** (a pure append) — every surviving fold's training
//!   set grew, so entries are reused only through the kNN
//!   neighbour-delta check below;
//! * **anything else** (permuted, changed, shrunk) — nothing is reused.
//!
//! When a corpus *grows*, exact hits never fire. For kNN there is a
//! cheaper truth: the prediction is the mean of the
//! neighbours' unscaled target rows, accumulated in ascending row order —
//! a pure function of the neighbour *set*. If the held-out query's k-set
//! survives the append (standardization shifts every distance and
//! near-ties swap ranks, but membership only changes when the new rows
//! actually enter the neighbourhood — expected rate ≈ k/n per appended
//! benchmark), the prediction — and the decode and KS score behind it,
//! which dominate fold cost — is bit-identical. The **delta path**
//! prepares the fold (cheap: row assembly + scaling), fits the kNN
//! (cheap: it just stores rows), recomputes the canonical neighbour set
//! — once per unit, for every cell of the group — and reuses each cell's
//! cached score on an exact match; any mismatch falls through to a full
//! recompute from the same search's prediction. Soundness rests on three
//! pinned properties:
//!
//! * `ModelKind::neighbor_delta_model` is exactly what `build` runs for
//!   kNN (k = 15, cosine), and kNN accumulates its mean in ascending
//!   row order, so the neighbour set fully
//!   determines the prediction bit-for-bit.
//! * Fold assembly is include-rank-major, so surviving rows keep their
//!   matrix positions when the roster grows and cached `u32` row indices
//!   stay comparable.
//! * kNN neighbour *selection* is canonical — `(distance, row index)`
//!   under `total_cmp` — so the k-set is deterministic, not a
//!   `select_nth` accident, and `neighbor_indices` reports it sorted
//!   ascending.
//!
//! Every entry carries an integrity digest over its own fields, its fold
//! index and the evaluation's config; an entry that fails it — tampered,
//! torn, moved to another fold or made under another config — is
//! recomputed, never trusted (mirroring the sweep cell cache's verified
//! loads).

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;

use crate::eval::{
    cross_system_assemble, few_runs_assemble, fold_truth, logo_runner, source_window,
    validate_cross_system, BenchScore, EvalSummary,
};
use crate::model::ModelKind;
use crate::pipeline::{FoldTruth, FoldView, PreparedFold};
use crate::repr::{DistributionRepr, TargetEncoding};
use crate::resilience::{panic_message, PvError};
use crate::shard::ShardedCorpus;
use crate::sweep::{CellConfig, SweepTarget};
use crate::usecase1::FewRunsConfig;
use crate::usecase2::CrossSystemConfig;

/// One cached fold: its held-out benchmark's digest, its score, and (for
/// kNN) the held-out query's canonical ordered neighbour list. The fold
/// index is the entry's position in its evaluation's fold list. A sweep
/// cell file stores every field but the score, which the cell's summary
/// holds at the same position.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldEntry {
    /// Content digest of the held-out benchmark.
    pub held_fp: u64,
    /// The fold's KS score.
    pub score: BenchScore,
    /// The held-out query's neighbour row indices, ascending (`Some`
    /// only for neighbour-delta-eligible models, i.e. kNN).
    pub neighbors: Option<Vec<u32>>,
    /// Integrity digest over the fields above, the fold index and the
    /// config; an entry that fails it is recomputed, not trusted.
    pub check: u64,
}

impl FoldEntry {
    /// `config` is the evaluation's [`config_digest`] state.
    fn integrity(&self, config: &Fnv1a, index: usize) -> u64 {
        let mut h = config.clone();
        h.write_usize(index);
        h.write_u64(self.held_fp);
        h.write_str(&self.score.id.qualified());
        h.write_f64(self.score.ks);
        match &self.neighbors {
            None => h.write_usize(0),
            Some(n) => {
                h.write_usize(1);
                h.write_usize(n.len());
                for &i in n {
                    h.write_u64(i as u64);
                }
            }
        }
        h.finish()
    }

    /// Seals the entry of fold `index`: stamps the integrity digest.
    fn sealed(mut self, config: &Fnv1a, index: usize) -> Self {
        self.check = self.integrity(config, index);
        self
    }

    /// Whether the entry is fold `index` of an evaluation under `config`,
    /// unaltered.
    fn verify(&self, config: &Fnv1a, index: usize) -> bool {
        self.check == self.integrity(config, index)
    }
}

/// Per-fold cache tallies of one incremental evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldCacheStats {
    /// Folds reused as they were (the prior's roster equals this one).
    pub hits: usize,
    /// Folds reused after a verified kNN neighbour-delta check.
    pub deltas: usize,
    /// Folds recomputed in full.
    pub misses: usize,
}

impl FoldCacheStats {
    /// Total folds the evaluation covered.
    pub fn total(&self) -> usize {
        self.hits + self.deltas + self.misses
    }

    /// Folds served from cache (exact hits + verified deltas).
    pub fn reused(&self) -> usize {
        self.hits + self.deltas
    }

    /// Element-wise sum (for aggregating across sweep cells).
    pub fn add(&mut self, other: &FoldCacheStats) {
        self.hits += other.hits;
        self.deltas += other.deltas;
        self.misses += other.misses;
    }
}

/// An incremental evaluation's full result: the summary (bit-identical
/// to a cold run), the fold entries to persist for the next run, and
/// the hit/delta/miss tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalEval {
    /// The aggregate, bit-identical to the non-incremental evaluation.
    pub summary: EvalSummary,
    /// Per-fold entries (fold order) for the next run's `prior`.
    pub folds: Vec<FoldEntry>,
    /// How the folds were served.
    pub stats: FoldCacheStats,
}

/// Why a cell of [`run_cells`] produced no evaluation.
#[derive(Debug, Clone)]
pub(crate) enum CellFailure {
    /// A fold step returned an error.
    Error(StatsError),
    /// A fold step panicked; the panic's message.
    Panic(String),
}

impl From<CellFailure> for PvError {
    fn from(f: CellFailure) -> Self {
        match f {
            CellFailure::Error(e) => PvError::from(e),
            CellFailure::Panic(message) => PvError::CellPanic { message },
        }
    }
}

/// Runs `f` behind a panic-isolation boundary: a panic becomes
/// [`CellFailure::Panic`] (counted as `pv.core.resilience.panic_caught`)
/// and fails the cells that needed `f`, instead of unwinding into the
/// worker pool and sinking the run.
pub(crate) fn isolated<T>(f: impl FnOnce() -> Result<T, StatsError>) -> Result<T, CellFailure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(CellFailure::Error),
        Err(payload) => {
            pv_obs::counter_inc!("pv.core.resilience.panic_caught");
            Err(CellFailure::Panic(panic_message(payload)))
        }
    }
}

/// One cell handed to [`run_cells`].
pub(crate) struct CellTask<'p> {
    /// What to evaluate; its use case must be the target's.
    pub(crate) config: CellConfig,
    /// Fold entries of an earlier evaluation of the same config, fold
    /// order (empty: a cold run).
    pub(crate) prior: &'p [FoldEntry],
    /// Whether the cell gets a group of its own (a cell with an injected
    /// fault must not change what its neighbours compute).
    pub(crate) alone: bool,
}

/// What every unit of one target reads: the roster the reuse rule
/// compares (one digest per fold) and each fold's held-out truth.
struct Roster<'a> {
    bench_fps: Cow<'a, [u64]>,
    truth: Box<dyn Fn(usize) -> Result<FoldTruth<'a>, StatsError> + Send + Sync + 'a>,
}

impl<'a> Roster<'a> {
    fn new(target: &SweepTarget<'a, '_>) -> Result<Self, StatsError> {
        Ok(match *target {
            SweepTarget::FewRuns(sh) => Roster {
                bench_fps: Cow::Borrowed(sh.bench_fingerprints()),
                truth: Box::new(fold_truth(sh)),
            },
            SweepTarget::CrossSystem { src, dst } => {
                validate_cross_system(src, dst)?;
                // A change on either system is a changed roster.
                let pairs = src
                    .bench_fingerprints()
                    .iter()
                    .zip(dst.bench_fingerprints())
                    .map(|(&s, &d)| {
                        let mut h = Fnv1a::new();
                        h.write_str("pv-bench-pair");
                        h.write_u64(s);
                        h.write_u64(d);
                        h.finish()
                    })
                    .collect();
                Roster {
                    bench_fps: Cow::Owned(pairs),
                    truth: Box::new(fold_truth(dst)),
                }
            }
        })
    }

    fn n_folds(&self) -> usize {
        self.bench_fps.len()
    }
}

/// A fold's training rows, as
/// [`FoldRunner::prepare_fold`](crate::pipeline::FoldRunner::prepare_fold)
/// assembles them.
type Assemble<'a> =
    Box<dyn Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError> + Send + Sync + 'a>;

/// What cells share a unit by: use case, feature rows (window setting and
/// count), model and target encoding. Such cells train on bit-identical
/// folds; they differ only in decoder (PyMaxEnt vs PearsonRnd) and root
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupKey {
    cross_system: bool,
    s: usize,
    windows: usize,
    model: ModelKind,
    encoding: TargetEncoding,
}

/// The cells one (group, fold) unit serves, and the per-fold outcomes its
/// units leave for the unit that finishes the group.
struct Group<'a, 'p> {
    key: GroupKey,
    /// Whether the group is one cell that runs alone.
    alone: bool,
    assemble: Assemble<'a>,
    cells: Vec<GroupCell<'p>>,
    /// Per fold, every cell's outcome, in cell order.
    folds: Vec<Mutex<Vec<FoldOutcome>>>,
    /// Units not yet finished; the unit that takes it to zero finishes
    /// the group.
    pending: AtomicUsize,
}

/// One cell of a [`Group`].
struct GroupCell<'p> {
    /// Position in [`run_cells`]' task list.
    task: usize,
    seed: u64,
    repr: Box<dyn DistributionRepr>,
    /// The config's [`config_digest`] state.
    digest: Fnv1a,
    /// The prior entries the reuse rule admits (empty when it admits
    /// none).
    prior: &'p [FoldEntry],
    /// Whether the prior's roster equals this one (entries are exact
    /// hits).
    exact: bool,
}

/// How a cell's fold was served.
#[derive(Debug, Clone, Copy)]
enum Served {
    Hit,
    Delta,
    Miss,
}

type FoldOutcome = Result<(FoldEntry, Served), CellFailure>;

/// A unit's model, fitted once for all the cells it serves.
enum Fitted {
    /// kNN: the neighbour set and prediction every cell shares (kNN
    /// ignores the seed).
    Knn {
        prediction: Vec<f64>,
        neighbors: Vec<u32>,
    },
    /// Trees: the prepared fold, fitted once per distinct fold seed.
    Trees(PreparedFold),
}

/// Evaluates `tasks` against `target` with the (group, fold) pair as the
/// unit of work, and calls `on_cell(task index, result)` once per task,
/// from the worker that finishes the task's group — as soon as its last
/// fold is scored, not when the run ends.
///
/// Cells that share a [`GroupKey`] share every unit: each unit prepares
/// its fold once (from the row table), loads its held-out truth once,
/// fits kNN once or a tree once per distinct fold seed, then decodes and
/// scores each of its cells. Units run group-major across the pool, so
/// groups finish one after another. Every cell's result is bit-identical
/// to evaluating it alone, at any thread count.
pub(crate) fn run_cells<F>(target: &SweepTarget<'_, '_>, tasks: &[CellTask<'_>], on_cell: F)
where
    F: Fn(usize, Result<IncrementalEval, CellFailure>) + Sync,
{
    let roster = match Roster::new(target) {
        Ok(roster) => roster,
        Err(e) => {
            for task in 0..tasks.len() {
                on_cell(task, Err(CellFailure::Error(e.clone())));
            }
            return;
        }
    };
    let n_folds = roster.n_folds();
    let mut groups: Vec<Group<'_, '_>> = Vec::new();
    for (task, t) in tasks.iter().enumerate() {
        match group_cell(target, t, task, &roster) {
            Ok((key, cell)) => {
                let shared = (!t.alone)
                    .then(|| groups.iter_mut().find(|g| !g.alone && g.key == key))
                    .flatten();
                match shared {
                    Some(group) => group.cells.push(cell),
                    None => groups.push(Group {
                        key,
                        alone: t.alone,
                        assemble: assembler(target, &t.config),
                        cells: vec![cell],
                        folds: (0..n_folds).map(|_| Mutex::new(Vec::new())).collect(),
                        pending: AtomicUsize::new(n_folds),
                    }),
                }
            }
            Err(e) => on_cell(task, Err(CellFailure::Error(e))),
        }
    }
    let _span = pv_obs::span!(
        "pv.core.pipeline.logo_eval",
        groups = groups.len(),
        folds = n_folds
    );
    if n_folds == 0 {
        // No unit will finish these groups.
        for group in &groups {
            finish(group, &on_cell);
        }
        return;
    }
    let units: Vec<(usize, usize)> = (0..groups.len())
        .flat_map(|g| (0..n_folds).map(move |held| (g, held)))
        .collect();
    let _: Vec<()> = units
        .into_par_iter()
        .map(|(g, held)| {
            let group = &groups[g];
            let outcomes = run_unit(&roster, group, held);
            *lock(&group.folds[held]) = outcomes;
            if group.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                finish(group, &on_cell);
            }
        })
        .collect();
}

/// Locks `m`; a poisoned lock is still usable (panics are contained
/// where they happen).
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A task's group key and its [`GroupCell`]: the reuse rule of the module
/// docs applied to its prior.
fn group_cell<'p>(
    target: &SweepTarget<'_, '_>,
    t: &CellTask<'p>,
    task: usize,
    roster: &Roster<'_>,
) -> Result<(GroupKey, GroupCell<'p>), StatsError> {
    let (key, digest) = match (target, &t.config) {
        (SweepTarget::FewRuns(_), CellConfig::FewRuns(c)) => (
            GroupKey {
                cross_system: false,
                s: c.n_profile_runs,
                windows: c.profiles_per_benchmark.max(1),
                model: c.model,
                encoding: c.repr.encoding(),
            },
            config_digest("uc1", c)?,
        ),
        (SweepTarget::CrossSystem { src, .. }, CellConfig::CrossSystem(c)) => (
            GroupKey {
                cross_system: true,
                s: source_window(c, src.n_runs()),
                windows: 1,
                model: c.model,
                encoding: c.repr.encoding(),
            },
            config_digest("uc2", c)?,
        ),
        _ => {
            return Err(StatsError::invalid(
                "run_cells",
                "cell config does not match the sweep target's use case",
            ))
        }
    };
    // The prior's roster (its entries' held digests, fold order) decides
    // reuse once: equal — exact hits; a strict prefix, i.e. a pure
    // append — neighbour-delta checks; anything else — nothing.
    let fps = &roster.bench_fps;
    let prefix = t.prior.len() <= fps.len()
        && t.prior
            .iter()
            .zip(fps.iter())
            .all(|(e, &fp)| e.held_fp == fp);
    let cell = GroupCell {
        task,
        seed: t.config.seed(),
        repr: t.config.repr().build(),
        digest,
        prior: if prefix { t.prior } else { &[] },
        exact: prefix && t.prior.len() == fps.len(),
    };
    Ok((key, cell))
}

/// The fold assembly of a group's cells (any of them: they share it).
fn assembler<'a>(target: &SweepTarget<'a, '_>, config: &CellConfig) -> Assemble<'a> {
    match (*target, *config) {
        (SweepTarget::CrossSystem { src, dst }, CellConfig::CrossSystem(c)) => {
            Box::new(cross_system_assemble(src, dst, c))
        }
        (SweepTarget::FewRuns(sh), CellConfig::FewRuns(c)) => Box::new(few_runs_assemble(sh, c)),
        // `group_cell` admitted only configs of the target's use case.
        _ => unreachable!("cell config does not match the sweep target"),
    }
}

/// Runs fold `held` for every cell of `group`: the reuse rule per cell,
/// then — for the cells it leaves — one prepared fold, one model fit per
/// distinct prediction, one truth load, and a decode and score per cell.
fn run_unit(roster: &Roster<'_>, group: &Group<'_, '_>, held: usize) -> Vec<FoldOutcome> {
    let _span = pv_obs::span!("pv.core.pipeline.fold", held = held);
    let n_folds = roster.n_folds();
    let knn = group.key.model.neighbor_delta_model();
    // Verification at the point of consumption: a prior entry that fails
    // its integrity digest is simply absent.
    let reuse: Vec<Option<&FoldEntry>> = group
        .cells
        .iter()
        .map(|c| c.prior.get(held).filter(|e| e.verify(&c.digest, held)))
        .collect();
    let all_hits = reuse
        .iter()
        .zip(&group.cells)
        .all(|(e, c)| e.is_some() && c.exact);
    let fitted = if all_hits {
        // Nothing this fold observes has changed for any cell.
        None
    } else {
        let first = &group.cells[0];
        let runner = logo_runner(n_folds, first.seed, group.key.model, first.repr.as_ref());
        Some(isolated(|| {
            let prepared = runner.prepare_fold(held, &group.assemble)?;
            Ok(match knn {
                Some(knn) => {
                    // The prepared fold moves into the model: no copy.
                    let (prediction, neighbors) =
                        knn.fit_owned_query(prepared.data, &prepared.query)?;
                    Fitted::Knn {
                        prediction,
                        neighbors,
                    }
                }
                None => Fitted::Trees(prepared),
            })
        }))
    };
    let mut outcomes: Vec<Option<FoldOutcome>> = reuse
        .iter()
        .zip(&group.cells)
        .map(|(entry, cell)| {
            let e = (*entry)?;
            if cell.exact {
                pv_obs::counter_inc!("pv.core.pipeline.fold_cache.hit");
                return Some(Ok((e.clone(), Served::Hit)));
            }
            // Same neighbour set ⇒ same row-ordered mean of the same
            // unscaled target rows ⇒ bit-identical predict, decode and KS.
            let same = match &fitted {
                Some(Ok(Fitted::Knn { neighbors, .. })) => e.neighbors.as_ref() == Some(neighbors),
                _ => false,
            };
            same.then(|| {
                pv_obs::counter_inc!("pv.core.pipeline.fold_cache.delta");
                Ok((e.clone(), Served::Delta))
            })
        })
        .collect();
    let Some(fitted) = fitted.filter(|_| outcomes.iter().any(Option::is_none)) else {
        return outcomes.into_iter().flatten().collect();
    };
    // Everything left recomputes in full against a truth loaded once; kNN
    // entries also record the neighbour list so the next run can take the
    // delta path.
    let scoring = fitted.and_then(|f| Ok((isolated(|| (roster.truth)(held))?, f)));
    let mut tree_fits = Vec::new();
    for (slot, cell) in outcomes.iter_mut().zip(&group.cells) {
        if slot.is_some() {
            continue;
        }
        pv_obs::counter_inc!("pv.core.pipeline.fold_cache.miss");
        let scored = scoring
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(truth, fitted)| {
                let ks = score_cell(group, cell, held, n_folds, fitted, truth, &mut tree_fits)?;
                let neighbors = match fitted {
                    Fitted::Knn { neighbors, .. } => Some(neighbors.clone()),
                    Fitted::Trees(_) => None,
                };
                Ok(FoldEntry {
                    held_fp: roster.bench_fps[held],
                    score: BenchScore { id: truth.id, ks },
                    neighbors,
                    check: 0,
                }
                .sealed(&cell.digest, held))
            });
        *slot = Some(scored.map(|entry| (entry, Served::Miss)));
    }
    outcomes.into_iter().flatten().collect()
}

/// One cell's KS on fold `held`: the unit's kNN prediction, or a tree
/// fitted for the cell's fold seed — once per distinct seed, kept in
/// `tree_fits` — decoded by the cell's representation under that seed.
fn score_cell(
    group: &Group<'_, '_>,
    cell: &GroupCell<'_>,
    held: usize,
    n_folds: usize,
    fitted: &Fitted,
    truth: &FoldTruth<'_>,
    tree_fits: &mut Vec<(u64, Result<Vec<f64>, CellFailure>)>,
) -> Result<f64, CellFailure> {
    let runner = logo_runner(n_folds, cell.seed, group.key.model, cell.repr.as_ref());
    let fold_seed = runner.fold_seed(held);
    let features = match fitted {
        Fitted::Knn { prediction, .. } => prediction,
        Fitted::Trees(prepared) => {
            let at = match tree_fits.iter().position(|(seed, _)| *seed == fold_seed) {
                Some(at) => at,
                None => {
                    tree_fits.push((
                        fold_seed,
                        isolated(|| {
                            let mut model = group.key.model.build(fold_seed);
                            model.fit(&prepared.data)?;
                            model.predict(&prepared.query)
                        }),
                    ));
                    tree_fits.len() - 1
                }
            };
            tree_fits[at].1.as_ref().map_err(Clone::clone)?
        }
    };
    isolated(|| runner.score_prediction(held, fold_seed, features, &truth.rel))
}

/// Turns a finished group's fold outcomes into each cell's evaluation (or
/// its first failure, in fold order) and hands it to `on_cell`.
fn finish<F>(group: &Group<'_, '_>, on_cell: &F)
where
    F: Fn(usize, Result<IncrementalEval, CellFailure>) + Sync,
{
    let mut per_cell: Vec<Vec<FoldOutcome>> = group.cells.iter().map(|_| Vec::new()).collect();
    for fold in &group.folds {
        for (cell, outcome) in per_cell.iter_mut().zip(std::mem::take(&mut *lock(fold))) {
            cell.push(outcome);
        }
    }
    for (cell, outcomes) in group.cells.iter().zip(per_cell) {
        let result = outcomes
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .and_then(|served| {
                let mut stats = FoldCacheStats::default();
                let folds: Vec<FoldEntry> = served
                    .into_iter()
                    .map(|(entry, how)| {
                        match how {
                            Served::Hit => stats.hits += 1,
                            Served::Delta => stats.deltas += 1,
                            Served::Miss => stats.misses += 1,
                        }
                        entry
                    })
                    .collect();
                let summary = EvalSummary::from_scores(folds.iter().map(|f| f.score).collect())
                    .map_err(CellFailure::Error)?;
                Ok(IncrementalEval {
                    summary,
                    folds,
                    stats,
                })
            });
        on_cell(cell.task, result);
    }
}

/// The hasher state every fold entry's integrity digest starts from: a
/// version tag and the config's canonical serde_json form (repr, model,
/// sample count, windows, seed) under its use-case tag.
fn config_digest<C: Serialize>(tag: &str, cfg: &C) -> Result<Fnv1a, StatsError> {
    let json = serde_json::to_string(cfg)
        .map_err(|e| StatsError::invalid("incremental", format!("serialize config: {e}")))?;
    let mut h = Fnv1a::new();
    h.write_str("pv-fold-entry-v2");
    h.write_str(tag);
    h.write_str(&json);
    Ok(h)
}

/// One cell through [`run_cells`]: its evaluation, or its error. A panic
/// in a fold resumes as a panic here.
fn evaluate_one(
    target: &SweepTarget<'_, '_>,
    config: CellConfig,
    prior: &[FoldEntry],
) -> Result<IncrementalEval, StatsError> {
    let result = Mutex::new(None);
    let task = CellTask {
        config,
        prior,
        alone: true,
    };
    run_cells(target, std::slice::from_ref(&task), |_, r| {
        *lock(&result) = Some(r);
    });
    let result = result
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match result.expect("run_cells answers every task") {
        Ok(eval) => Ok(eval),
        Err(CellFailure::Error(e)) => Err(e),
        Err(CellFailure::Panic(message)) => panic!("{message}"),
    }
}

/// Leave-one-group-out evaluation of use case #1 over `sh`, at any shard
/// layout (an [`crate::pipeline::EncodedCorpus`] is the one-shard
/// layout): the summary is bit-identical to a cold run, but folds the
/// reuse rule (module docs) lets verified `prior` entries answer are
/// served from cache. This is the one-cell case of the sweep's unit loop.
///
/// With an empty `prior` this is the cold run, and it additionally
/// returns the fold entries to seed the next one. Rosters are compared
/// by per-benchmark digests, which do not depend on the shard layout,
/// so entries written at one layout serve exact hits and append-deltas
/// at any other. Folds read their training rows from the corpus's row
/// table; a fold faults a shard in only for its held-out truth.
///
/// # Errors
/// Fails when the corpus's spec does not cover
/// [`crate::eval::few_runs_spec`], plus training/prediction failures
/// from any fold.
pub fn evaluate_few_runs_incremental(
    sh: &ShardedCorpus<'_>,
    cfg: FewRunsConfig,
    prior: &[FoldEntry],
) -> Result<IncrementalEval, StatsError> {
    let _span = pv_obs::span!(
        "pv.core.eval.few_runs",
        repr = cfg.repr.name(),
        model = cfg.model.name(),
        s = cfg.n_profile_runs,
    );
    evaluate_one(&SweepTarget::FewRuns(sh), CellConfig::FewRuns(cfg), prior)
}

/// Leave-one-group-out evaluation of use case #2, `src` → `dst`; see
/// [`evaluate_few_runs_incremental`]. The two corpora may use different
/// shard layouts.
///
/// The roster is made of the digests of each source/destination
/// benchmark *pair*, so a change on either system is a changed roster.
///
/// # Errors
/// Fails on mismatched rosters, a shared system, or uncovered specs,
/// plus training/prediction failures from any fold.
pub fn evaluate_cross_system_incremental(
    src: &ShardedCorpus<'_>,
    dst: &ShardedCorpus<'_>,
    cfg: CrossSystemConfig,
    prior: &[FoldEntry],
) -> Result<IncrementalEval, StatsError> {
    let _span = pv_obs::span!(
        "pv.core.eval.cross_system",
        repr = cfg.repr.name(),
        model = cfg.model.name(),
        s = cfg.profile_runs,
    );
    evaluate_one(
        &SweepTarget::CrossSystem { src, dst },
        CellConfig::CrossSystem(cfg),
        prior,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::few_runs_spec;
    use crate::model::ModelKind;
    use crate::pipeline::{EncodedCorpus, EncodingSpec};
    use crate::repr::ReprKind;
    use pv_sysmodel::{Corpus, SystemModel};

    fn corpus(n_runs: usize) -> Corpus {
        Corpus::collect(&SystemModel::intel(), n_runs, 5)
    }

    fn truncated(c: &Corpus, drop: usize) -> Corpus {
        let mut t = c.clone();
        t.benchmarks.truncate(t.benchmarks.len() - drop);
        t
    }

    fn cfg() -> FewRunsConfig {
        FewRunsConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: 1,
            seed: 9,
        }
    }

    /// The plain fold loop ([`FoldRunner::run`]) over the same assembly
    /// and truth: what the incremental loop must reproduce bit for bit.
    fn plain(sh: &ShardedCorpus<'_>, cfg: FewRunsConfig) -> EvalSummary {
        let repr = cfg.repr.build();
        logo_runner(sh.len(), cfg.seed, cfg.model, repr.as_ref())
            .run(
                |fold_seed| cfg.model.build(fold_seed),
                few_runs_assemble(sh, cfg),
                fold_truth(sh),
            )
            .unwrap()
    }

    #[test]
    fn cold_incremental_matches_plain_eval_bitwise() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let inc = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        assert_eq!(inc.summary, plain(&enc, cfg()));
        assert_eq!(inc.stats.misses, c.len());
        assert_eq!(inc.stats.reused(), 0);
        assert_eq!(inc.folds.len(), c.len());
        let config = config_digest("uc1", &cfg()).unwrap();
        assert!(inc
            .folds
            .iter()
            .enumerate()
            .all(|(i, f)| f.verify(&config, i)));
        assert!(inc.folds.iter().all(|f| f.neighbors.is_some()));
    }

    #[test]
    fn same_corpus_rerun_is_all_exact_hits() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let warm = evaluate_few_runs_incremental(&enc, cfg(), &cold.folds).unwrap();
        assert_eq!(warm.summary, cold.summary);
        assert_eq!(warm.stats.hits, c.len());
        assert_eq!(warm.stats.misses, 0);
        assert_eq!(warm.folds, cold.folds);
    }

    #[test]
    fn append_reuses_unchanged_folds_and_stays_bit_identical() {
        let full = corpus(30);
        let small = truncated(&full, 1);
        let spec = few_runs_spec(&cfg());
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, cfg(), &[]).unwrap();

        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let warm = evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds).unwrap();
        let cold = plain(&full_enc, cfg());
        assert_eq!(warm.summary, cold, "reuse must be bit-identical");
        // An append changes every surviving fold's training set, so
        // exact hits cannot fire; reuse comes from the delta path.
        assert_eq!(warm.stats.hits, 0);
        assert!(
            warm.stats.deltas > 0,
            "expected some neighbour-stable folds: {:?}",
            warm.stats
        );
        // The appended benchmark's own fold has no prior entry.
        assert!(warm.stats.misses >= 1);
        assert_eq!(warm.stats.total(), full.len());
    }

    #[test]
    fn append_result_is_thread_count_independent() {
        let full = corpus(30);
        let small = truncated(&full, 1);
        let spec = few_runs_spec(&cfg());
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, cfg(), &[]).unwrap();
        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let baseline = evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds).unwrap();
        for n in [1, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let under = pool
                .install(|| evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds))
                .unwrap();
            assert_eq!(baseline.summary, under.summary, "{n} threads");
            assert_eq!(baseline.stats, under.stats, "{n} threads");
            assert_eq!(baseline.folds, under.folds, "{n} threads");
        }
    }

    #[test]
    fn tampered_prior_entry_is_recomputed_not_trusted() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let mut vandalized = cold.folds.clone();
        // A lying score with a stale integrity digest…
        vandalized[3].score.ks += 0.25;
        // …and a neighbour set a later delta check would trust.
        vandalized[7].neighbors.as_mut().unwrap()[0] ^= 1;
        let warm = evaluate_few_runs_incremental(&enc, cfg(), &vandalized).unwrap();
        // Both tampered folds fail verification and recompute alone (the
        // roster still matches); the summary still comes out
        // bit-identical to the cold run.
        assert_eq!(warm.summary, cold.summary);
        assert_eq!(warm.stats.hits, c.len() - 2);
        assert_eq!(warm.stats.misses, 2);
    }

    #[test]
    fn config_change_invalidates_every_fold() {
        let c = corpus(30);
        let spec = EncodingSpec::new()
            .profiles(5, 1)
            .target(ReprKind::PearsonRnd)
            .target(ReprKind::Histogram);
        let enc = EncodedCorpus::build(&c, &spec).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let other = FewRunsConfig {
            repr: ReprKind::Histogram,
            ..cfg()
        };
        let cross = evaluate_few_runs_incremental(&enc, other, &cold.folds).unwrap();
        // Same corpus, different config: no hit, no delta (the prior
        // entries' integrity digests don't verify under this config).
        assert_eq!(cross.stats.reused(), 0);
        assert_eq!(cross.stats.misses, c.len());
    }

    #[test]
    fn non_knn_models_never_take_the_delta_path() {
        let full = corpus(20);
        let small = truncated(&full, 1);
        let rf = FewRunsConfig {
            model: ModelKind::RandomForest,
            ..cfg()
        };
        let spec = few_runs_spec(&rf);
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, rf, &[]).unwrap();
        assert!(prior.folds.iter().all(|f| f.neighbors.is_none()));
        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let warm = evaluate_few_runs_incremental(&full_enc, rf, &prior.folds).unwrap();
        assert_eq!(warm.stats.reused(), 0);
        assert_eq!(warm.stats.misses, full.len());
        // And it still matches the cold evaluation bitwise.
        assert_eq!(warm.summary, plain(&full_enc, rf));
    }

    #[test]
    fn cross_system_incremental_matches_and_caches() {
        let amd = Corpus::collect(&SystemModel::amd(), 30, 5);
        let intel = corpus(30);
        let uc2 = CrossSystemConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            profile_runs: 15,
            seed: 4,
        };
        let (src_spec, dst_spec) = crate::eval::cross_system_specs(&amd, &uc2);
        let src = EncodedCorpus::build(&amd, &src_spec).unwrap();
        let dst = EncodedCorpus::build(&intel, &dst_spec).unwrap();
        let cold = evaluate_cross_system_incremental(&src, &dst, uc2, &[]).unwrap();
        let repr = uc2.repr.build();
        let plain = logo_runner(src.len(), uc2.seed, uc2.model, repr.as_ref())
            .run(
                |fold_seed| uc2.model.build(fold_seed),
                cross_system_assemble(&src, &dst, uc2),
                fold_truth(&dst),
            )
            .unwrap();
        assert_eq!(cold.summary, plain);
        let warm = evaluate_cross_system_incremental(&src, &dst, uc2, &cold.folds).unwrap();
        assert_eq!(warm.stats.hits, amd.len());
        assert_eq!(warm.summary, plain);
    }
}
