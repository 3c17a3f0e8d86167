//! Zero-dependency observability for the perfvar workspace.
//!
//! crates-io is unreachable in this build environment, so instead of
//! `tracing`/`metrics` this crate implements the small subset the workspace
//! needs, deterministic by construction:
//!
//! * **Spans** ([`span!`]) — lightweight hierarchical regions with monotonic
//!   timing and thread-id capture. Events land in a per-thread buffer that
//!   drains to a global collector whenever the thread's span stack empties
//!   (every rayon work item is a root span on its worker thread, so buffers
//!   flush at work-item granularity) or the buffer hits a size cap.
//! * **Metrics** ([`metrics`]) — named counters, gauges, and fixed-bucket
//!   histograms behind atomics. Bucketing reuses the equal-width grid of
//!   [`pv_stats::Histogram`]. Counter totals in a snapshot are identical
//!   under any rayon thread count; only float *sums* (and span timings) vary
//!   run to run.
//! * **Exporters** ([`export`]) — JSONL trace files, a metrics-snapshot JSON
//!   document, and a human-readable end-of-run summary table.
//!
//! # Lifecycle
//!
//! Nothing is recorded until a [`Collector`] is installed; every macro
//! short-circuits on one relaxed atomic load, so instrumented hot paths are
//! a near-no-op by default (see the `obs_overhead` bench). The collector is
//! process-global: [`Collector::install`] holds a static mutex for the whole
//! session, so concurrent tests that install collectors serialize instead of
//! corrupting each other's streams.
//!
//! ```
//! let collector = pv_obs::Collector::install();
//! {
//!     let _span = pv_obs::span!("demo.work", items = 3);
//!     pv_obs::counter_add!("pv.demo.items", 3);
//! }
//! let report = collector.finish();
//! assert_eq!(report.metrics.counter("pv.demo.items"), Some(3));
//! assert_eq!(report.events.len(), 2); // enter + exit
//! ```
//!
//! # Determinism contract
//!
//! Timestamps, durations, and thread ids exist **only** in obs output.
//! Instrumented code never feeds an observation back into evaluation:
//! `EvalSummary`s and sweep cell caches are bit-identical with or without a
//! collector installed (enforced by `tests/obs.rs`).

pub mod export;
pub mod metrics;
pub mod span;
pub mod window;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

pub use export::{
    humanize_ns, read_metrics, read_trace, render_summary, write_metrics, write_trace,
};
pub use metrics::{BucketSpec, MetricsSnapshot};
pub use span::TraceEvent;
pub use window::{RollingCounter, RollingHisto, WindowClock, WindowView, WINDOWS};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a [`Collector`] is currently installed. Every macro checks this
/// first; the disabled path is a single relaxed load and a branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Process-wide monotonic epoch: all `t_ns` timestamps are nanoseconds since
/// the first collector install (pinned once, never reset, so ids and
/// timestamps stay monotonic across sessions in one process).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn install_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

/// A live collection session. Recording is active from [`Collector::install`]
/// until [`Collector::finish`], which returns everything captured.
///
/// Holding the session mutex for the collector's whole lifetime serializes
/// overlapping sessions (e.g. parallel tests). Do **not** install a second
/// collector from a thread that already holds one — that self-deadlocks.
pub struct Collector {
    _session: MutexGuard<'static, ()>,
}

impl Collector {
    /// Starts a session: clears any previous trace/metric state, then
    /// enables recording.
    pub fn install() -> Collector {
        let session = install_lock()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        epoch();
        span::clear();
        metrics::registry().reset();
        ENABLED.store(true, Ordering::SeqCst);
        Collector { _session: session }
    }

    /// A point-in-time metrics snapshot **without** ending the session.
    ///
    /// The batch lifecycle (`install` → work → `finish`) cannot serve a
    /// daemon that must answer "what are the counters *now*" mid-run; this
    /// reads the live registry non-destructively, so `{"op":"stats"}` and
    /// periodic telemetry flushes can snapshot while recording continues.
    /// Code that holds no `Collector` handle (worker threads) can use the
    /// free function [`live_metrics_snapshot`] instead.
    pub fn snapshot_now(&self) -> MetricsSnapshot {
        metrics::registry().snapshot()
    }

    /// Ends the session and returns the captured trace and a metrics
    /// snapshot.
    ///
    /// Worker-thread span buffers flush when their root span exits, so by
    /// the time a fork/join region (rayon `par_iter` etc.) has returned to
    /// the caller, all of its events are globally visible; `finish` only
    /// needs to flush the calling thread.
    pub fn finish(self) -> ObsReport {
        ENABLED.store(false, Ordering::SeqCst);
        span::flush_current_thread();
        ObsReport {
            events: span::drain(),
            metrics: metrics::registry().snapshot(),
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // A collector dropped without `finish` (e.g. on an error path) must
        // still stop recording before releasing the session mutex.
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// A live metrics snapshot when a [`Collector`] is installed, else `None`.
///
/// The handle-free counterpart of [`Collector::snapshot_now`] for code
/// (e.g. daemon worker threads) that cannot reach the collector object.
pub fn live_metrics_snapshot() -> Option<MetricsSnapshot> {
    enabled().then(|| metrics::registry().snapshot())
}

/// Everything one collector session captured.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Raw span enter/exit events, in flush order (sort by `t_ns` for a
    /// timeline; see [`export::write_trace`]).
    pub events: Vec<TraceEvent>,
    /// Metric values at `finish` time, sorted by name.
    pub metrics: MetricsSnapshot,
}

/// Opens a span that closes when the returned guard drops.
///
/// `span!("name")` or `span!("name", key = value, ...)` — field values are
/// captured with `Display` and only formatted while a collector is
/// installed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, Vec::new())
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span::SpanGuard::enter(
                $name,
                vec![$((stringify!($key).to_string(), format!("{}", $val))),+],
            )
        } else {
            $crate::span::SpanGuard::noop()
        }
    };
}

/// Adds `delta` to the named counter (no-op without a collector).
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::metrics::counter($name).add($delta);
        }
    };
}

/// Increments the named counter by one (no-op without a collector).
#[macro_export]
macro_rules! counter_inc {
    ($name:expr) => {
        $crate::counter_add!($name, 1)
    };
}

/// Sets the named gauge (no-op without a collector).
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::gauge($name).set($value as f64);
        }
    };
}

/// Records `value` into the named histogram with the given
/// [`BucketSpec`] (no-op without a collector).
#[macro_export]
macro_rules! observe {
    ($name:expr, $spec:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::metrics::histogram($name, $spec).observe($value as f64);
        }
    };
}

/// Times the enclosing scope into a latency histogram: the returned guard
/// records elapsed nanoseconds on drop. Bind it (`let _t = timed!(...)`) or
/// it drops immediately.
#[macro_export]
macro_rules! timed {
    ($name:expr) => {
        $crate::metrics::Timer::start($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_record_nothing() {
        // No collector: guards are inert and the registry stays untouched
        // (run under the session lock so a parallel test's session can't
        // bleed in).
        let collector = Collector::install();
        let report = collector.finish();
        assert!(report.events.is_empty());
        {
            let _s = span!("lib.test.noop", n = 1);
            counter_inc!("pv.obs.test.noop");
            let _t = timed!("pv.obs.test.noop_ns");
        }
        let collector = Collector::install();
        let report = collector.finish();
        assert!(report.events.is_empty());
        assert_eq!(report.metrics.counter("pv.obs.test.noop"), None);
    }

    #[test]
    fn collector_captures_spans_and_metrics() {
        let collector = Collector::install();
        {
            let _outer = span!("lib.test.outer", size = 2);
            let _inner = span!("lib.test.inner");
            counter_add!("pv.obs.test.count", 2);
            gauge_set!("pv.obs.test.gauge", 1.5);
            observe!("pv.obs.test.hist", BucketSpec::linear(0.0, 10.0, 5), 3.0);
        }
        let report = collector.finish();
        assert_eq!(report.events.len(), 4);
        assert_eq!(report.metrics.counter("pv.obs.test.count"), Some(2));
        assert_eq!(report.metrics.gauge("pv.obs.test.gauge"), Some(1.5));
        let h = report.metrics.histogram("pv.obs.test.hist").expect("hist");
        assert_eq!(h.count, 1);
        let inner = report
            .events
            .iter()
            .find(|e| e.name == "lib.test.inner" && e.kind == "enter")
            .expect("inner enter");
        let outer = report
            .events
            .iter()
            .find(|e| e.name == "lib.test.outer" && e.kind == "enter")
            .expect("outer enter");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.fields, vec![("size".to_string(), "2".to_string())]);
    }

    #[test]
    fn sessions_reset_state() {
        let collector = Collector::install();
        counter_inc!("pv.obs.test.reset");
        drop(collector.finish());
        let collector = Collector::install();
        let report = collector.finish();
        assert_eq!(report.metrics.counter("pv.obs.test.reset"), None);
    }
}
