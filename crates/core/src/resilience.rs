//! Fault tolerance for long unattended sweeps.
//!
//! A config-grid sweep is exactly the kind of computation the
//! HPC-variability literature runs for days: hundreds of cells, each a
//! full LOGO evaluation, scheduled across a worker pool. One panicking
//! cell must not sink the campaign. This module supplies the pieces the
//! [`sweep`](crate::sweep) layer threads through its execution path:
//!
//! * [`PvError`] — the typed error taxonomy. Every failure a cell can
//!   produce is classified (solver non-convergence, degenerate input,
//!   numeric domain violation, cache I/O, panic-in-cell) so retry and
//!   fallback policy can dispatch on *kind* instead of string-matching.
//! * [`FaultPlan`] — a deterministic fault-injection harness. Faults are
//!   keyed by cell index and attempt number and the plan is seeded, so a
//!   failing campaign replays exactly — the property the
//!   `tests/fault_injection.rs` tier is built on.
//! * [`ServeFaultPlan`] — the same discipline for the query plane:
//!   faults are keyed by request arrival sequence (slow predictions,
//!   forced sheds) or reload attempt (registry I/O failures), so the
//!   `tests/serve_chaos.rs` tier can pin *exactly-k* shed and timed-out
//!   requests regardless of thread count.
//! * [`Quarantine`] — a persisted list of known-bad cells kept next to
//!   the cell cache; re-runs skip-and-report them instead of burning
//!   retries on a cell that failed deterministically last time.
//! * [`CacheLock`] — an advisory lock (atomic marker file) held for the
//!   duration of a sweep's cache writes, so two concurrent `repro sweep`
//!   invocations sharing a directory cannot interleave temp-file renames.
//! * [`retry_seed`] / [`validate_summary`] — deterministic re-seeding
//!   for retry attempts and the numeric post-condition every computed
//!   summary must satisfy before it is trusted.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;

use crate::eval::EvalSummary;

/// Retries a failing cell gets by default (attempts = 1 + retries).
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Typed error taxonomy for the evaluation and sweep paths.
///
/// Where [`StatsError`] describes *what a statistical routine objected
/// to*, `PvError` describes *what the sweep should do about it*: solver
/// failures are eligible for a degraded fallback, degenerate input and
/// numeric-domain failures are data problems worth quarantining, cache
/// I/O failures are environmental, and a panic is a bug that must be
/// contained but reported loudly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PvError {
    /// An iterative solver failed to converge.
    Solver {
        /// Operation that failed to converge.
        what: String,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The input was structurally degenerate (constant sample, empty
    /// range, NaN observations).
    DegenerateInput {
        /// Operation that was attempted.
        what: String,
        /// Human-readable description of the degeneracy.
        detail: String,
    },
    /// A computed value left its numeric domain (NaN/∞ where a finite
    /// number is required).
    NumericDomain {
        /// Where the violation was detected.
        what: String,
    },
    /// A cell-cache or lock filesystem operation failed.
    CacheIo {
        /// Operation that was attempted.
        what: String,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A cell panicked and was caught at the isolation boundary.
    CellPanic {
        /// The panic payload, stringified.
        message: String,
    },
    /// A parameter or configuration was invalid.
    Invalid {
        /// Operation that was attempted.
        what: String,
        /// Human-readable description of the violated constraint.
        detail: String,
    },
}

impl PvError {
    /// Short kind tag, for failure tables and CSV columns.
    pub fn kind(&self) -> &'static str {
        match self {
            PvError::Solver { .. } => "solver",
            PvError::DegenerateInput { .. } => "degenerate-input",
            PvError::NumericDomain { .. } => "numeric-domain",
            PvError::CacheIo { .. } => "cache-io",
            PvError::CellPanic { .. } => "panic",
            PvError::Invalid { .. } => "invalid",
        }
    }

    /// Whether a degraded-representation fallback is worth attempting:
    /// only solver non-convergence is — the histogram representation has
    /// no solver to fail, whereas degenerate input or a panic would hit
    /// the fallback exactly the same way.
    pub fn fallback_eligible(&self) -> bool {
        matches!(self, PvError::Solver { .. })
    }
}

impl From<StatsError> for PvError {
    fn from(e: StatsError) -> Self {
        match e {
            StatsError::NoConvergence { what, iterations } => PvError::Solver {
                what: what.to_string(),
                iterations,
            },
            StatsError::SingularMatrix { what } => PvError::Solver {
                what: what.to_string(),
                iterations: 0,
            },
            StatsError::NonFinite { what } => PvError::NumericDomain {
                what: what.to_string(),
            },
            StatsError::EmptyInput { what, needed, got } => PvError::DegenerateInput {
                what: what.to_string(),
                detail: format!("needs at least {needed} observation(s), got {got}"),
            },
            StatsError::DegenerateInput { what, detail } => PvError::DegenerateInput {
                what: what.to_string(),
                detail,
            },
            StatsError::InvalidParameter { what, detail } => PvError::Invalid {
                what: what.to_string(),
                detail,
            },
        }
    }
}

impl fmt::Display for PvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PvError::Solver { what, iterations } => {
                write!(f, "{what}: no convergence after {iterations} iterations")
            }
            PvError::DegenerateInput { what, detail } => {
                write!(f, "{what}: degenerate input: {detail}")
            }
            PvError::NumericDomain { what } => {
                write!(f, "{what}: non-finite value in numeric domain")
            }
            PvError::CacheIo { what, detail } => write!(f, "{what}: cache I/O: {detail}"),
            PvError::CellPanic { message } => write!(f, "cell panicked: {message}"),
            PvError::Invalid { what, detail } => write!(f, "{what}: invalid: {detail}"),
        }
    }
}

impl std::error::Error for PvError {}

/// Installs (once, process-wide) a panic hook that suppresses the
/// stderr noise of panics whose payload contains `"injected fault"` —
/// the marker every [`FaultPlan`]-injected panic carries — and defers
/// to the previously installed hook for everything else. Injected
/// panics are caught at the cell isolation boundary anyway; only their
/// hook output is unwanted. Real panics keep their full report.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if message.is_some_and(|m| m.contains("injected fault")) {
                return;
            }
            previous(info);
        }));
    });
}

/// Turns a caught panic payload into a readable message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deterministic sub-seed for retry `attempt` of a cell rooted at
/// `root`. Attempt 0 must use `root` itself (so an un-faulted cell is
/// bit-identical with or without the retry machinery); attempts ≥ 1 get
/// decorrelated fresh streams.
pub fn retry_seed(root: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        root
    } else {
        derive_stream(root, attempt as u64)
    }
}

/// The numeric post-condition a computed [`EvalSummary`] must satisfy
/// before the sweep trusts (and caches) it.
///
/// # Errors
/// Returns [`PvError::NumericDomain`] when the mean, any quantile of the
/// spread, or any per-benchmark KS score is non-finite.
pub fn validate_summary(summary: &EvalSummary) -> Result<(), PvError> {
    let spread = &summary.spread;
    let aggregates = [
        summary.mean,
        spread.min,
        spread.q1,
        spread.median,
        spread.q3,
        spread.max,
        spread.mean,
    ];
    if aggregates.iter().any(|v| !v.is_finite()) {
        return Err(PvError::NumericDomain {
            what: "EvalSummary aggregates".to_string(),
        });
    }
    if summary.scores.iter().any(|s| !s.ks.is_finite()) {
        return Err(PvError::NumericDomain {
            what: "EvalSummary per-benchmark scores".to_string(),
        });
    }
    Ok(())
}

/// What kind of fault to inject at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Panic inside the cell evaluation (exercises `catch_unwind`).
    Panic,
    /// Return a solver non-convergence error (exercises the degraded
    /// histogram fallback).
    NonConvergence,
    /// Poison the computed summary with a NaN (exercises
    /// [`validate_summary`]).
    NanRun,
    /// Corrupt the cell's cache file after it is stored (exercises the
    /// verified-load recovery path on the next run).
    CacheCorruption,
}

impl FaultKind {
    /// Kinds that fire inside the evaluation attempt (as opposed to the
    /// store path).
    pub const EVAL_KINDS: [FaultKind; 3] = [
        FaultKind::Panic,
        FaultKind::NonConvergence,
        FaultKind::NanRun,
    ];

    /// Short name used by the CLI `--inject` spec.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::NonConvergence => "nonconv",
            FaultKind::NanRun => "nan",
            FaultKind::CacheCorruption => "corrupt",
        }
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "nonconv" => Ok(FaultKind::NonConvergence),
            "nan" => Ok(FaultKind::NanRun),
            "corrupt" => Ok(FaultKind::CacheCorruption),
            other => Err(format!(
                "unknown fault kind '{other}' (expected panic|nonconv|nan|corrupt)"
            )),
        }
    }
}

/// One injected fault: `kind` fires at cell `cell` while the attempt
/// number is below `fail_attempts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Grid index of the targeted cell.
    pub cell: usize,
    /// What to inject.
    pub kind: FaultKind,
    /// The fault fires while `attempt < fail_attempts`; `u32::MAX` means
    /// it always fires (a *persistent* fault), small values model
    /// *transient* faults that retries recover from.
    pub fail_attempts: u32,
}

/// A deterministic fault-injection plan.
///
/// Faults are keyed by `(cell index, attempt)`, both of which are
/// deterministic for a fixed grid regardless of thread count or
/// completion order — so a plan replays a failure campaign exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero overhead on the happy path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds a persistent fault at `cell` (fires on every attempt).
    pub fn inject(mut self, cell: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            cell,
            kind,
            fail_attempts: u32::MAX,
        });
        self
    }

    /// Adds a transient fault at `cell`: fires while
    /// `attempt < fail_attempts`, then stops — a retry recovers it.
    pub fn inject_transient(mut self, cell: usize, kind: FaultKind, fail_attempts: u32) -> Self {
        self.faults.push(Fault {
            cell,
            kind,
            fail_attempts,
        });
        self
    }

    /// A seeded random plan: `k` distinct cells out of `n_cells`, each
    /// with a random evaluation fault kind and random persistence (1–3
    /// failing attempts or persistent). Same `(seed, n_cells, k)` →
    /// same plan, which is what the property tests rely on.
    pub fn random(seed: u64, n_cells: usize, k: usize) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(seed, 0x46_41_55_4C_54));
        let mut cells: Vec<usize> = Vec::new();
        let k = k.min(n_cells);
        while cells.len() < k {
            let c = rng.gen_range(0..n_cells);
            if !cells.contains(&c) {
                cells.push(c);
            }
        }
        let mut plan = FaultPlan::none();
        for cell in cells {
            let kind = FaultKind::EVAL_KINDS[rng.gen_range(0..FaultKind::EVAL_KINDS.len())];
            let fail_attempts = if rng.gen_range(0..2) == 0 {
                u32::MAX
            } else {
                rng.gen_range(1..4)
            };
            plan.faults.push(Fault {
                cell,
                kind,
                fail_attempts,
            });
        }
        plan
    }

    /// The evaluation fault (if any) that fires at `(cell, attempt)`.
    /// Cache-corruption faults never fire here — see
    /// [`FaultPlan::corrupts_store`].
    pub fn eval_fault(&self, cell: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| {
                f.cell == cell && f.kind != FaultKind::CacheCorruption && attempt < f.fail_attempts
            })
            .map(|f| f.kind)
    }

    /// Whether the plan corrupts `cell`'s cache file after it is stored.
    pub fn corrupts_store(&self, cell: usize) -> bool {
        self.faults
            .iter()
            .any(|f| f.cell == cell && f.kind == FaultKind::CacheCorruption)
    }

    /// Cells targeted by evaluation faults that never stop firing — the
    /// set a resilient sweep must report as failed or degraded.
    pub fn persistent_eval_cells(&self) -> Vec<usize> {
        let mut cells: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| f.kind != FaultKind::CacheCorruption && f.fail_attempts == u32::MAX)
            .map(|f| f.cell)
            .collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

/// What kind of fault to inject on the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServeFaultKind {
    /// The prediction for the targeted request takes `delay_ms` extra
    /// milliseconds. The delay is *virtual*: it is added arithmetically
    /// to the request's elapsed time for the deadline check, while the
    /// real sleep is capped small — so "slow model blows the deadline"
    /// replays bit-identically at any thread count instead of depending
    /// on scheduler timing.
    SlowPred {
        /// Virtual extra latency in milliseconds.
        delay_ms: u64,
    },
    /// The targeted request is shed at admission as if the queue were
    /// full — the deterministic stand-in for real overload, so
    /// exactly-k shed tests do not depend on reader/batcher races.
    Shed,
    /// The targeted reload attempt fails with a registry I/O error
    /// before any artifact is read (exercises the keep-old-snapshot,
    /// mark-degraded path).
    ReloadIo,
    /// The worker answering the targeted request panics mid-prediction
    /// (exercises the catch-unwind isolation: a typed `panic` error
    /// response, `pv.serve.panic` counted, daemon stays up).
    Panic,
}

/// One injected serving fault: `kind` fires at arrival sequence (or
/// reload attempt) `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeFault {
    /// Global request arrival sequence number (for `SlowPred`/`Shed`) or
    /// reload attempt number (for `ReloadIo`), both counted from 0.
    pub seq: u64,
    /// What to inject.
    pub kind: ServeFaultKind,
}

/// A deterministic fault-injection plan for the serving path.
///
/// Request faults are keyed by the *global arrival sequence* — the order
/// lines are read off connections, which is deterministic for a single
/// pipelined client — and reload faults by the reload attempt counter.
/// Both keys are independent of worker scheduling, so a chaos run
/// replays exactly.
///
/// The CLI spec grammar (`--inject-serve`) is comma-separated:
/// `slow@SEQ:MS` (virtual `MS`-millisecond delay at request `SEQ`),
/// `shed@SEQ` (forced shed at request `SEQ`), `reload-io@N`
/// (registry I/O failure at reload attempt `N`), and `panic@SEQ`
/// (worker panic answering request `SEQ`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeFaultPlan {
    faults: Vec<ServeFault>,
}

impl ServeFaultPlan {
    /// The empty plan: no faults, zero overhead on the happy path.
    pub fn none() -> Self {
        ServeFaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[ServeFault] {
        &self.faults
    }

    /// Adds a virtual `delay_ms`-millisecond slow prediction at request
    /// sequence `seq`.
    pub fn inject_slow(mut self, seq: u64, delay_ms: u64) -> Self {
        self.faults.push(ServeFault {
            seq,
            kind: ServeFaultKind::SlowPred { delay_ms },
        });
        self
    }

    /// Adds a forced admission shed at request sequence `seq`.
    pub fn inject_shed(mut self, seq: u64) -> Self {
        self.faults.push(ServeFault {
            seq,
            kind: ServeFaultKind::Shed,
        });
        self
    }

    /// Adds a registry I/O failure at reload attempt `attempt`.
    pub fn inject_reload_io(mut self, attempt: u64) -> Self {
        self.faults.push(ServeFault {
            seq: attempt,
            kind: ServeFaultKind::ReloadIo,
        });
        self
    }

    /// Adds a worker panic at request sequence `seq`.
    pub fn inject_panic(mut self, seq: u64) -> Self {
        self.faults.push(ServeFault {
            seq,
            kind: ServeFaultKind::Panic,
        });
        self
    }

    /// The virtual delay (ms) injected at request sequence `seq`, if any.
    pub fn slow_at(&self, seq: u64) -> Option<u64> {
        self.faults.iter().find_map(|f| match f.kind {
            ServeFaultKind::SlowPred { delay_ms } if f.seq == seq => Some(delay_ms),
            _ => None,
        })
    }

    /// Whether request sequence `seq` is force-shed at admission.
    pub fn sheds_at(&self, seq: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.seq == seq && f.kind == ServeFaultKind::Shed)
    }

    /// Whether reload attempt `attempt` fails with an injected registry
    /// I/O error.
    pub fn reload_io_at(&self, attempt: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.seq == attempt && f.kind == ServeFaultKind::ReloadIo)
    }

    /// Whether the worker answering request sequence `seq` panics.
    pub fn panics_at(&self, seq: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.seq == seq && f.kind == ServeFaultKind::Panic)
    }
}

impl std::str::FromStr for ServeFaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = ServeFaultPlan::none();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, at) = part
                .split_once('@')
                .ok_or_else(|| format!("bad serve fault '{part}' (expected KIND@SEQ)"))?;
            match kind {
                "slow" => {
                    let (seq, ms) = at
                        .split_once(':')
                        .ok_or_else(|| format!("bad slow fault '{part}' (expected slow@SEQ:MS)"))?;
                    let seq = seq
                        .parse::<u64>()
                        .map_err(|_| format!("bad sequence in '{part}'"))?;
                    let ms = ms
                        .parse::<u64>()
                        .map_err(|_| format!("bad delay in '{part}'"))?;
                    plan = plan.inject_slow(seq, ms);
                }
                "shed" => {
                    let seq = at
                        .parse::<u64>()
                        .map_err(|_| format!("bad sequence in '{part}'"))?;
                    plan = plan.inject_shed(seq);
                }
                "reload-io" => {
                    let attempt = at
                        .parse::<u64>()
                        .map_err(|_| format!("bad attempt in '{part}'"))?;
                    plan = plan.inject_reload_io(attempt);
                }
                "panic" => {
                    let seq = at
                        .parse::<u64>()
                        .map_err(|_| format!("bad sequence in '{part}'"))?;
                    plan = plan.inject_panic(seq);
                }
                other => {
                    return Err(format!(
                        "unknown serve fault kind '{other}' (expected slow|shed|reload-io|panic)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------
// Process liveness

/// Whether `pid` definitely no longer exists. Linux only: a live pid has
/// a `/proc` entry. On other platforms the answer is always `false` —
/// being conservative about another process's death is the safe default
/// for every caller (lock breaking, temp sweeping).
pub fn pid_is_dead(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        !Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

/// A reuse-resistant identity token for `pid`: the process start time
/// (clock ticks since boot, field 22 of `/proc/<pid>/stat`). Two
/// processes that ever share a (pid, token) pair would have to start in
/// the same clock tick after a pid wrap — close enough to impossible for
/// an advisory lock. `None` when the process is gone or the platform has
/// no `/proc`.
pub fn pid_start_token(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The comm field (2) is parenthesized and may itself contain spaces
    // or parens; everything after the *last* ')' is whitespace-split.
    // Start time is field 22 overall = index 19 after state (field 3).
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(19)?.parse::<u64>().ok()
}

/// One quarantined cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The cell's cache key ([`crate::sweep::cell_key`]).
    pub key: u64,
    /// Human-readable cell label at quarantine time.
    pub label: String,
    /// The error that exhausted the cell's retries.
    pub error: PvError,
    /// Attempts spent before giving up.
    pub attempts: u32,
}

/// Quarantine envelope magic; the trailing digits are the format
/// version. The payload is the JSON list of entries, under key 0 (one
/// file per directory).
const QUARANTINE_MAGIC: &[u8; 8] = b"PVQUAR02";

/// Name of the quarantine file inside a cell-cache directory.
pub const QUARANTINE_FILE: &str = "quarantine.json";

/// A persisted list of known-bad cells, kept next to the cell cache.
///
/// A cell lands here when it exhausts its retries without a usable
/// (possibly degraded) result; subsequent sweeps over the same cache
/// directory skip it and report [`CellOutcome::Quarantined`]
/// (see [`crate::sweep::CellOutcome`]) instead of re-burning retries.
/// Like the cell cache, loading is infallible: a missing or corrupt
/// file is simply an empty quarantine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quarantine {
    entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// An empty quarantine.
    pub fn new() -> Self {
        Quarantine::default()
    }

    /// Loads the quarantine stored in `dir`: empty when the file is
    /// missing, and empty with a `pv.core.sweep.cache_verify_fail` count
    /// when it fails verification (a quarantine must never be the thing
    /// that fails; the next save rewrites it).
    pub fn load(dir: &Path) -> Self {
        match crate::store::open(&dir.join(QUARANTINE_FILE), QUARANTINE_MAGIC, 0)
            .and_then(|sealed| sealed.json())
        {
            Ok(entries) => Quarantine { entries },
            Err(e) => {
                if matches!(e, PvError::Invalid { .. }) {
                    pv_obs::counter_inc!("pv.core.sweep.cache_verify_fail");
                }
                Quarantine::default()
            }
        }
    }

    /// Persists the quarantine into `dir` (see [`crate::store`]).
    ///
    /// # Errors
    /// Returns [`PvError::CacheIo`] on filesystem failures.
    pub fn save(&self, dir: &Path) -> Result<(), PvError> {
        crate::store::write_json(
            &dir.join(QUARANTINE_FILE),
            QUARANTINE_MAGIC,
            0,
            &self.entries,
        )
    }

    /// Removes the quarantine file from `dir` (idempotent).
    pub fn clear(dir: &Path) {
        let _ = fs::remove_file(dir.join(QUARANTINE_FILE));
    }

    /// Number of quarantined cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the quarantine is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for cache key `key`, if quarantined.
    pub fn get(&self, key: u64) -> Option<&QuarantineEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Whether cache key `key` is quarantined.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts (or replaces) an entry.
    pub fn insert(&mut self, entry: QuarantineEntry) {
        match self.entries.iter_mut().find(|e| e.key == entry.key) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// All entries, insertion order.
    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }
}

/// Name of the advisory lock file inside a cell-cache directory.
pub const LOCK_FILE: &str = "sweep.lock";

/// An advisory lock on a cell-cache directory, held for the duration of
/// a sweep that writes into it.
///
/// Implemented as an atomic marker file (`create_new` is atomic on every
/// platform we target) holding the owner's `pid start-token` pair (see
/// [`pid_start_token`]). A second sweep on the same directory polls
/// until the lock is released or its timeout expires; a lock whose
/// owner is provably gone — pid dead, *or* pid alive but with a
/// different start token, meaning the pid was recycled by an unrelated
/// process — is broken and re-acquired, so one SIGKILL never wedges a
/// cache directory and pid reuse never lets a stranger's pid pin a
/// stale lock forever. Legacy bare-pid lock files (no token) fall back
/// to pid liveness alone, conservatively. Dropping the guard releases
/// the lock.
#[derive(Debug)]
pub struct CacheLock {
    path: PathBuf,
}

impl CacheLock {
    /// Acquires the lock for `dir`, waiting up to `timeout`.
    ///
    /// # Errors
    /// Returns [`PvError::CacheIo`] when the directory cannot be created
    /// or the lock is still held when the timeout expires.
    pub fn acquire(dir: &Path, timeout: Duration) -> Result<Self, PvError> {
        fs::create_dir_all(dir).map_err(|e| PvError::CacheIo {
            what: "CacheLock::acquire".to_string(),
            detail: format!("create {}: {e}", dir.display()),
        })?;
        let path = dir.join(LOCK_FILE);
        let wait_started = Instant::now();
        let deadline = wait_started + timeout;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    use std::io::Write;
                    let pid = std::process::id();
                    match pid_start_token(pid) {
                        Some(token) => {
                            let _ = write!(file, "{pid} {token}");
                        }
                        None => {
                            let _ = write!(file, "{pid}");
                        }
                    }
                    pv_obs::observe!(
                        "pv.core.sweep.lock_wait_ns",
                        pv_obs::BucketSpec::latency(),
                        wait_started.elapsed().as_nanos() as f64
                    );
                    return Ok(CacheLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Self::holder_is_dead(&path) {
                        // Stale lock from a crashed sweep: break it and
                        // race for re-acquisition on the next iteration.
                        pv_obs::counter_inc!("pv.core.sweep.lock_steal");
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        let holder = fs::read_to_string(&path).unwrap_or_default();
                        return Err(PvError::CacheIo {
                            what: "CacheLock::acquire".to_string(),
                            detail: format!(
                                "{} held by pid {} past {timeout:?}",
                                path.display(),
                                holder.trim()
                            ),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(e) => {
                    return Err(PvError::CacheIo {
                        what: "CacheLock::acquire".to_string(),
                        detail: format!("create {}: {e}", path.display()),
                    });
                }
            }
        }
    }

    /// Whether the process recorded in the lock file is provably gone.
    /// An unreadable or malformed lock file is treated as *live* —
    /// breaking a lock we cannot attribute would be worse than waiting
    /// it out. A recorded start token that no longer matches the live
    /// pid's means the pid was recycled: the original holder is gone.
    fn holder_is_dead(path: &Path) -> bool {
        let Ok(text) = fs::read_to_string(path) else {
            return false;
        };
        let mut parts = text.split_whitespace();
        let Some(Ok(pid)) = parts.next().map(str::parse::<u64>) else {
            return false;
        };
        let Ok(pid) = u32::try_from(pid) else {
            // A pid no platform can issue was never a live holder.
            return true;
        };
        if pid == std::process::id() {
            return false;
        }
        if pid_is_dead(pid) {
            return true;
        }
        // Alive — but is it the *same* process that took the lock?
        match (
            parts.next().and_then(|t| t.parse::<u64>().ok()),
            pid_start_token(pid),
        ) {
            (Some(recorded), Some(current)) => recorded != current,
            // Legacy bare-pid file or token unavailable: conservative.
            _ => false,
        }
    }

    /// The lock file path (visible for tests).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::BenchScore;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pv-resilience-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stats_errors_map_onto_the_taxonomy() {
        let cases: [(StatsError, &str); 5] = [
            (
                StatsError::NoConvergence {
                    what: "solve",
                    iterations: 7,
                },
                "solver",
            ),
            (StatsError::SingularMatrix { what: "lu" }, "solver"),
            (StatsError::NonFinite { what: "ks2" }, "numeric-domain"),
            (
                StatsError::degenerate("hist", "all NaN"),
                "degenerate-input",
            ),
            (StatsError::invalid("cfg", "bins = 0"), "invalid"),
        ];
        for (stats, kind) in cases {
            let pv: PvError = stats.into();
            assert_eq!(pv.kind(), kind, "{pv}");
        }
        // Only solver failures are fallback-eligible.
        let solver: PvError = StatsError::NoConvergence {
            what: "solve",
            iterations: 7,
        }
        .into();
        assert!(solver.fallback_eligible());
        assert!(!PvError::CellPanic {
            message: "boom".into()
        }
        .fallback_eligible());
    }

    #[test]
    fn pv_error_round_trips_through_json() {
        let errors = [
            PvError::Solver {
                what: "solve_maxent".into(),
                iterations: 200,
            },
            PvError::CellPanic {
                message: "injected".into(),
            },
            PvError::CacheIo {
                what: "store".into(),
                detail: "disk full".into(),
            },
        ];
        for e in errors {
            let json = serde_json::to_string(&e).unwrap();
            let back: PvError = serde_json::from_str(&json).unwrap();
            assert_eq!(e, back);
        }
    }

    #[test]
    fn retry_seeds_are_fresh_but_attempt_zero_is_the_root() {
        assert_eq!(retry_seed(42, 0), 42);
        assert_ne!(retry_seed(42, 1), 42);
        assert_ne!(retry_seed(42, 1), retry_seed(42, 2));
        assert_eq!(retry_seed(42, 3), retry_seed(42, 3));
    }

    #[test]
    fn summary_validation_rejects_nan() {
        let roster = pv_sysmodel::roster();
        let good = EvalSummary::from_scores(vec![
            BenchScore {
                id: roster[0],
                ks: 0.2,
            },
            BenchScore {
                id: roster[1],
                ks: 0.4,
            },
        ])
        .unwrap();
        assert!(validate_summary(&good).is_ok());

        let mut poisoned_mean = good.clone();
        poisoned_mean.mean = f64::NAN;
        assert!(validate_summary(&poisoned_mean).is_err());

        let mut poisoned_score = good.clone();
        poisoned_score.scores[1].ks = f64::INFINITY;
        assert!(validate_summary(&poisoned_score).is_err());
    }

    #[test]
    fn fault_plan_fires_by_cell_and_attempt() {
        let plan = FaultPlan::none()
            .inject(3, FaultKind::Panic)
            .inject_transient(5, FaultKind::NanRun, 2);
        assert_eq!(plan.eval_fault(3, 0), Some(FaultKind::Panic));
        assert_eq!(plan.eval_fault(3, 99), Some(FaultKind::Panic));
        assert_eq!(plan.eval_fault(5, 0), Some(FaultKind::NanRun));
        assert_eq!(plan.eval_fault(5, 1), Some(FaultKind::NanRun));
        assert_eq!(plan.eval_fault(5, 2), None);
        assert_eq!(plan.eval_fault(0, 0), None);
        assert_eq!(plan.persistent_eval_cells(), vec![3]);
    }

    #[test]
    fn corruption_faults_never_fire_in_eval() {
        let plan = FaultPlan::none().inject(2, FaultKind::CacheCorruption);
        assert_eq!(plan.eval_fault(2, 0), None);
        assert!(plan.corrupts_store(2));
        assert!(!plan.corrupts_store(1));
        assert!(plan.persistent_eval_cells().is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_and_distinct_cells() {
        let a = FaultPlan::random(9, 20, 6);
        let b = FaultPlan::random(9, 20, 6);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 6);
        let mut cells: Vec<usize> = a.faults().iter().map(|f| f.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 6, "cells must be distinct");
        assert!(cells.iter().all(|&c| c < 20));
        // k is clamped to the cell count.
        assert_eq!(FaultPlan::random(9, 3, 10).faults().len(), 3);
        // Different seeds give different plans (overwhelmingly likely).
        assert_ne!(FaultPlan::random(1, 20, 6), FaultPlan::random(2, 20, 6));
    }

    #[test]
    fn fault_kind_names_round_trip() {
        for kind in [
            FaultKind::Panic,
            FaultKind::NonConvergence,
            FaultKind::NanRun,
            FaultKind::CacheCorruption,
        ] {
            assert_eq!(kind.name().parse::<FaultKind>().unwrap(), kind);
        }
        assert!("gremlin".parse::<FaultKind>().is_err());
    }

    #[test]
    fn quarantine_round_trips_and_tolerates_corruption() {
        let dir = temp_dir("quarantine");
        assert!(Quarantine::load(&dir).is_empty());

        let mut q = Quarantine::new();
        q.insert(QuarantineEntry {
            key: 0xDEAD,
            label: "uc1 PyMaxEnt+kNN s=5".into(),
            error: PvError::CellPanic {
                message: "boom".into(),
            },
            attempts: 3,
        });
        q.save(&dir).unwrap();
        let back = Quarantine::load(&dir);
        assert_eq!(back, q);
        assert!(back.contains(0xDEAD));
        assert!(!back.contains(0xBEEF));
        assert_eq!(back.get(0xDEAD).unwrap().attempts, 3);

        // Inserting the same key replaces the entry.
        let mut q2 = back.clone();
        q2.insert(QuarantineEntry {
            key: 0xDEAD,
            label: "same cell".into(),
            error: PvError::NumericDomain { what: "ks".into() },
            attempts: 1,
        });
        assert_eq!(q2.len(), 1);
        assert_eq!(q2.get(0xDEAD).unwrap().attempts, 1);

        // Corrupt file → empty quarantine, never an error.
        fs::write(dir.join(QUARANTINE_FILE), "not json").unwrap();
        assert!(Quarantine::load(&dir).is_empty());
        Quarantine::clear(&dir);
        assert!(!dir.join(QUARANTINE_FILE).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_lock_excludes_and_releases() {
        let dir = temp_dir("lock");
        let lock = CacheLock::acquire(&dir, Duration::from_secs(5)).unwrap();
        assert!(lock.path().is_file());
        // A second acquisition by this same (live) process times out.
        let contender = CacheLock::acquire(&dir, Duration::from_millis(40));
        assert!(matches!(contender, Err(PvError::CacheIo { .. })));
        drop(lock);
        assert!(!dir.join(LOCK_FILE).exists());
        // Released → immediately acquirable.
        let again = CacheLock::acquire(&dir, Duration::from_millis(40)).unwrap();
        drop(again);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_a_dead_pid_is_broken() {
        let dir = temp_dir("stale-lock");
        fs::create_dir_all(&dir).unwrap();
        // Pid far above any real pid_max: guaranteed dead on Linux.
        fs::write(dir.join(LOCK_FILE), "999999999").unwrap();
        let lock = CacheLock::acquire(&dir, Duration::from_millis(200)).unwrap();
        drop(lock);
        // An unattributable lock file is honored, not broken.
        fs::write(dir.join(LOCK_FILE), "definitely not a pid").unwrap();
        assert!(CacheLock::acquire(&dir, Duration::from_millis(40)).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recycled_pid_lock_is_broken_but_matching_token_is_honored() {
        if pid_start_token(1).is_none() {
            return; // No /proc: the token path is inert on this platform.
        }
        let dir = temp_dir("recycled-lock");
        fs::create_dir_all(&dir).unwrap();
        // Pid 1 is alive, but a token it never had means the recorded
        // holder died and the pid was recycled: break the lock.
        fs::write(dir.join(LOCK_FILE), "1 18446744073709551615").unwrap();
        let lock = CacheLock::acquire(&dir, Duration::from_millis(200)).unwrap();
        drop(lock);
        // The genuine (pid, token) pair of a live process is honored.
        let token = pid_start_token(1).unwrap();
        fs::write(dir.join(LOCK_FILE), format!("1 {token}")).unwrap();
        assert!(CacheLock::acquire(&dir, Duration::from_millis(40)).is_err());
        // Legacy bare-pid file of a live process: conservative, honored.
        fs::write(dir.join(LOCK_FILE), "1").unwrap();
        assert!(CacheLock::acquire(&dir, Duration::from_millis(40)).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn acquired_lock_records_pid_and_start_token() {
        let dir = temp_dir("token-lock");
        let lock = CacheLock::acquire(&dir, Duration::from_secs(5)).unwrap();
        let text = fs::read_to_string(lock.path()).unwrap();
        let mut parts = text.split_whitespace();
        assert_eq!(
            parts.next().unwrap().parse::<u32>().unwrap(),
            std::process::id()
        );
        if let Some(token) = pid_start_token(std::process::id()) {
            assert_eq!(parts.next().unwrap().parse::<u64>().unwrap(), token);
        }
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_fault_plan_keys_by_sequence_and_parses_spec() {
        let plan = ServeFaultPlan::none()
            .inject_slow(2, 60_000)
            .inject_shed(5)
            .inject_reload_io(0);
        assert_eq!(plan.slow_at(2), Some(60_000));
        assert_eq!(plan.slow_at(3), None);
        assert!(plan.sheds_at(5));
        assert!(!plan.sheds_at(2));
        assert!(plan.reload_io_at(0));
        assert!(!plan.reload_io_at(1));
        assert_eq!(plan.faults().len(), 3);

        let parsed: ServeFaultPlan = "slow@2:60000, shed@5,reload-io@0".parse().unwrap();
        assert_eq!(parsed, plan);
        assert!(ServeFaultPlan::none().is_empty());
        assert!("".parse::<ServeFaultPlan>().unwrap().is_empty());
        assert!("slow@2".parse::<ServeFaultPlan>().is_err());
        assert!("gremlin@1".parse::<ServeFaultPlan>().is_err());
        assert!("shed@x".parse::<ServeFaultPlan>().is_err());
    }
}
