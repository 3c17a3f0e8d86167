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
//!   numeric domain violation, cache I/O, panic-in-cell) so reports and
//!   failed-cell records carry a *kind* instead of a bare string.
//! * [`FaultPlan`] — a deterministic fault-injection harness. Faults are
//!   keyed by cell index and the plan is seeded, so a failing campaign
//!   replays exactly — the property the `tests/fault_injection.rs` tier
//!   is built on.
//! * [`ServeFaultPlan`] — the same discipline for the query plane:
//!   faults are keyed by request arrival sequence (slow predictions,
//!   forced sheds) or reload attempt (registry I/O failures), so the
//!   `tests/serve_chaos.rs` tier can pin *exactly-k* shed and timed-out
//!   requests regardless of thread count.
//! * [`CacheLock`] — the kernel's advisory lock on the cache directory,
//!   held for the duration of a sweep's cache writes, so two concurrent
//!   `repro sweep` invocations sharing a directory cannot interleave
//!   temp-file renames.
//! * [`validate_summary`] — the numeric post-condition every computed
//!   summary must satisfy before it is trusted.

use std::fmt;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;

use crate::eval::EvalSummary;

/// Typed error taxonomy for the evaluation and sweep paths.
///
/// Where [`StatsError`] describes *what a statistical routine objected
/// to*, `PvError` describes *what kind of failure a sweep reports*:
/// solver failures, degenerate input and numeric-domain failures are
/// data problems worth quarantining, cache I/O failures are
/// environmental, and a panic is a bug that must be contained but
/// reported loudly.
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
    /// Return a solver non-convergence error (the cell fails with a
    /// `solver` error).
    NonConvergence,
    /// Poison the computed summary with a NaN (exercises
    /// [`validate_summary`]).
    NanRun,
    /// Corrupt the cell's cache file after it is stored (exercises the
    /// verified-load recovery path on the next run).
    CacheCorruption,
}

impl FaultKind {
    /// Kinds that fire inside the cell evaluation (as opposed to the
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

/// One injected fault: `kind` fires whenever cell `cell` is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Grid index of the targeted cell.
    pub cell: usize,
    /// What to inject.
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan.
///
/// Faults are keyed by cell index, which is deterministic for a fixed
/// grid regardless of thread count or completion order — so a plan
/// replays a failure campaign exactly.
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

    /// Adds a fault at `cell`.
    pub fn inject(mut self, cell: usize, kind: FaultKind) -> Self {
        self.faults.push(Fault { cell, kind });
        self
    }

    /// A seeded random plan: `k` distinct cells out of `n_cells`, each
    /// with a random evaluation fault kind. Same `(seed, n_cells, k)` →
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
            plan = plan.inject(cell, kind);
        }
        plan
    }

    /// The evaluation fault (if any) that fires at `cell`.
    /// Cache-corruption faults never fire here — see
    /// [`FaultPlan::corrupts_store`].
    pub fn eval_fault(&self, cell: usize) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.cell == cell && f.kind != FaultKind::CacheCorruption)
            .map(|f| f.kind)
    }

    /// Whether the plan corrupts `cell`'s cache file after it is stored.
    pub fn corrupts_store(&self, cell: usize) -> bool {
        self.faults
            .iter()
            .any(|f| f.cell == cell && f.kind == FaultKind::CacheCorruption)
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
/// for the temp sweep.
pub fn pid_is_dead(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        !Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

/// An advisory lock on a cell-cache directory, held for the duration of
/// a sweep that writes into it.
///
/// The lock is the kernel's: an exclusive [`fs::File::try_lock`] on an
/// open handle of the directory itself, so no lock file is created. A
/// second sweep on the same directory polls until the lock is released
/// or its timeout expires. Dropping the guard closes the handle and
/// releases the lock, and so does the holder's exit, however it dies:
/// a killed sweep never wedges a cache directory, and there is no stale
/// lock to break.
#[derive(Debug)]
pub struct CacheLock {
    _dir: fs::File,
}

impl CacheLock {
    /// Acquires the lock for `dir`, waiting up to `timeout`.
    ///
    /// # Errors
    /// Returns [`PvError::CacheIo`] when the directory cannot be created,
    /// opened or locked, or the lock is still held when the timeout
    /// expires.
    pub fn acquire(dir: &Path, timeout: Duration) -> Result<Self, PvError> {
        let cache_io = |detail: String| PvError::CacheIo {
            what: "CacheLock::acquire".to_string(),
            detail,
        };
        fs::create_dir_all(dir).map_err(|e| cache_io(format!("create {}: {e}", dir.display())))?;
        let handle =
            fs::File::open(dir).map_err(|e| cache_io(format!("open {}: {e}", dir.display())))?;
        let wait_started = Instant::now();
        let deadline = wait_started + timeout;
        loop {
            match handle.try_lock() {
                Ok(()) => {
                    pv_obs::observe!(
                        "pv.core.sweep.lock_wait_ns",
                        pv_obs::BucketSpec::latency(),
                        wait_started.elapsed().as_nanos() as f64
                    );
                    return Ok(CacheLock { _dir: handle });
                }
                Err(fs::TryLockError::WouldBlock) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(fs::TryLockError::WouldBlock) => {
                    return Err(cache_io(format!(
                        "{} locked by another sweep past {timeout:?}",
                        dir.display()
                    )));
                }
                Err(fs::TryLockError::Error(e)) => {
                    return Err(cache_io(format!("lock {}: {e}", dir.display())));
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::BenchScore;
    use std::path::PathBuf;

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
    fn fault_plan_fires_by_cell() {
        let plan = FaultPlan::none()
            .inject(3, FaultKind::Panic)
            .inject(5, FaultKind::NanRun);
        assert_eq!(plan.eval_fault(3), Some(FaultKind::Panic));
        assert_eq!(plan.eval_fault(5), Some(FaultKind::NanRun));
        assert_eq!(plan.eval_fault(0), None);
    }

    #[test]
    fn corruption_faults_never_fire_in_eval() {
        let plan = FaultPlan::none().inject(2, FaultKind::CacheCorruption);
        assert_eq!(plan.eval_fault(2), None);
        assert!(plan.corrupts_store(2));
        assert!(!plan.corrupts_store(1));
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
    fn cache_lock_excludes_and_releases() {
        let dir = temp_dir("lock");
        let lock = CacheLock::acquire(&dir, Duration::from_secs(5)).unwrap();
        // A second acquisition, even by this same process, times out.
        let contender = CacheLock::acquire(&dir, Duration::from_millis(40));
        assert!(matches!(contender, Err(PvError::CacheIo { .. })));
        drop(lock);
        // The lock lives in the kernel: the directory holds no lock file.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        // Released → immediately acquirable.
        let again = CacheLock::acquire(&dir, Duration::from_millis(40)).unwrap();
        drop(again);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_killed_holder_releases_the_lock() {
        use std::io::BufRead;
        use std::process::{Command, Stdio};

        // The holder is this test binary run again for this one test:
        // it takes the lock, says so and waits to be killed.
        const HOLD: &str = "PV_TEST_HOLD_CACHE_LOCK";
        const NAME: &str = "resilience::tests::a_killed_holder_releases_the_lock";
        if let Some(dir) = std::env::var_os(HOLD) {
            let _lock = CacheLock::acquire(Path::new(&dir), Duration::from_secs(5)).unwrap();
            println!("lock held");
            std::thread::sleep(Duration::from_secs(60));
            return;
        }

        /// Kills and reaps the holder however the test ends; it starts
        /// no process of its own.
        struct Holder(std::process::Child);
        impl Drop for Holder {
            fn drop(&mut self) {
                let _ = self.0.kill();
                let _ = self.0.wait();
            }
        }

        let dir = temp_dir("killed-holder");
        let mut holder = Holder(
            Command::new(std::env::current_exe().unwrap())
                .args(["--exact", NAME, "--nocapture", "--test-threads=1"])
                .env(HOLD, &dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap(),
        );
        // libtest may print the test's name on the same line first.
        let stdout = std::io::BufReader::new(holder.0.stdout.take().unwrap());
        let held = stdout
            .lines()
            .map_while(Result::ok)
            .any(|l| l.ends_with("lock held"));
        assert!(held, "the holder never took the lock");
        assert!(CacheLock::acquire(&dir, Duration::from_millis(40)).is_err());

        holder.0.kill().unwrap();
        holder.0.wait().unwrap();
        let started = Instant::now();
        let lock = CacheLock::acquire(&dir, Duration::from_secs(10)).unwrap();
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(2), "waited {waited:?}");
        drop(lock);
        drop(holder);
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
