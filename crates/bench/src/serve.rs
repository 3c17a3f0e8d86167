//! The `pv-serve` query protocol and daemon engine.
//!
//! A registry directory (see [`pv_core::registry`]) is the deployable
//! unit; this module turns one into a long-lived query service. The
//! protocol is line-delimited JSON on stdin/stdout or a unix socket:
//!
//! ```text
//! → {"model": "b3e1…", "profile": {"n_runs": 10, "n_metrics": 68, "features": […]}}
//! ← {"ok": true, "model": "b3e1…", "prediction": {"features": […], "samples": […]},
//!    "ks_confidence": null}
//! ```
//!
//! Request fields: `model` (registry key, 16-hex-digit string or
//! integer; required), `profile` (a [`Profile`]; required), `rel_times`
//! (measured relative times; required for cross-system models, and when
//! present also scores `ks_confidence`), `n_samples` (default 1000),
//! `sample_seed` (default 0), `id` (any JSON value, echoed back
//! verbatim), `shutdown` (`true` asks the daemon to ack and exit 0).
//! An `"op"` field selects non-prediction operations: `"health"` (the
//! readiness probe — state plus per-model staleness), `"reload"`
//! (atomically swap in a freshly verified registry snapshot), and
//! `"shutdown"`/`"predict"` as aliases for the field-based forms.
//!
//! Every failure is a *typed response*, never a crash: unparsable or
//! oversized lines get `{"ok": false, "error": {"kind": "bad-request",
//! …}}`, an unknown model key `"not-found"`, a prediction-time failure
//! `"invalid"`, a request that blew its `--deadline-ms` budget
//! `"timeout"`, one shed by the bounded admission queue `"overloaded"`,
//! and one arriving while the daemon drains for shutdown `"draining"`.
//! The daemon micro-batches concurrent queries — whatever is queued
//! when a worker looks, up to a batch cap — across the rayon pool, and
//! exports `pv.serve.*` metrics through `pv-obs`: by construction
//! `pv.serve.request` equals the total response count and the per-kind
//! counters partition it (pinned by `tests/serve_protocol.rs` and
//! `tests/serve_chaos.rs`).
//!
//! # Failure semantics on the serving path
//!
//! * **Deadlines** apply to predictions only (`health`/`reload`/
//!   `shutdown` are exempt): a request whose elapsed time — including
//!   any [`ServeFaultPlan`]-injected *virtual* delay — exceeds the
//!   deadline when a worker picks it up is answered `timeout` without
//!   running the prediction. Virtual delays make "slow model blows the
//!   deadline" deterministic at any thread count.
//! * **Load shedding** happens at admission: the reader rejects a line
//!   with `overloaded` the moment the bounded queue is full, so a
//!   flood degrades into fast typed rejections instead of unbounded
//!   buffering. `pv.serve.shed` counts sheds; `pv.serve.queue_depth` /
//!   `pv.serve.queue_high_watermark` gauge the queue.
//! * **Hot reload** re-verifies every registry entry and atomically
//!   swaps the model table; in-flight requests keep the old snapshot
//!   (each holds an `Arc`). An entry that fails verification keeps its
//!   previously loaded version live (`held_over`) and marks the daemon
//!   `degraded`; an entry deleted from disk is dropped. A reload that
//!   cannot read the registry at all leaves the old snapshot serving.
//! * **Drain**: after a shutdown ack the daemon state becomes
//!   `draining` — already-admitted requests are answered, new lines get
//!   a typed `draining` rejection, then the dispatcher exits.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use serde::Content;

use pv_core::registry::{ModelRegistry, REGISTRY_OBS_COUNTERS};
use pv_core::resilience::{PvError, ServeFaultPlan};
use pv_core::store::write_atomic;
use pv_core::usecase1::FewRunsPredictor;
use pv_core::usecase2::CrossSystemPredictor;
use pv_core::{Artifact, Profile};
use pv_obs::window::{RollingCounter, RollingHisto, WindowClock, WINDOWS};
use pv_obs::{humanize_ns, MetricsSnapshot};
use pv_stats::ks::ks2_test;

/// Default reconstruction sample count per prediction.
pub const DEFAULT_N_SAMPLES: usize = 1000;

/// Hard cap on `n_samples` — a typed refusal beats an allocation stall.
pub const MAX_N_SAMPLES: usize = 100_000;

/// Default micro-batch cap (requests drained per rayon dispatch).
pub const DEFAULT_BATCH: usize = 64;

/// Default maximum request line length in bytes.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// Default admission-queue capacity (queued-but-unanswered requests
/// before the daemon starts shedding). `0` means unbounded.
pub const DEFAULT_QUEUE: usize = 1024;

/// The real sleep cap for an injected slow-prediction fault. The
/// fault's full delay is *virtual* (counted against the deadline
/// arithmetically); only this much wall-clock is actually spent, enough
/// to exercise genuine backpressure without serializing the test tier.
pub const SLOW_FAULT_REAL_CAP: Duration = Duration::from_millis(25);

/// How long the dispatcher keeps answering late-arriving jobs after a
/// shutdown ack before abandoning the queue.
const DRAIN_GRACE: Duration = Duration::from_millis(50);

/// Default flight-recorder ring capacity (last N request events).
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// Default windowed shed/timeout burst size (over the 10s window) that
/// trips the flight recorder. `0` disables the burst triggers.
pub const DEFAULT_ANOMALY_THRESHOLD: u64 = 32;

/// The observability counters the serving layer emits. `pv.serve.request`
/// counts every line answered; the `pv.serve.request.*` counters plus
/// `pv.serve.shutdown` partition it by response kind; `pv.serve.batch`
/// counts rayon dispatches; `pv.serve.shed` counts admission rejections
/// (every shed is also an `overloaded` response); `pv.serve.reload` /
/// `pv.serve.reload.fail` count snapshot swap attempts and whole-reload
/// failures.
pub const SERVE_OBS_COUNTERS: &[&str] = &[
    "pv.serve.batch",
    "pv.serve.panic",
    "pv.serve.recorder.trip",
    "pv.serve.reload",
    "pv.serve.reload.fail",
    "pv.serve.request",
    "pv.serve.request.bad",
    "pv.serve.request.draining",
    "pv.serve.request.error",
    "pv.serve.request.health",
    "pv.serve.request.not_found",
    "pv.serve.request.ok",
    "pv.serve.request.overloaded",
    "pv.serve.request.reload",
    "pv.serve.request.stats",
    "pv.serve.request.timeout",
    "pv.serve.shed",
    "pv.serve.shutdown",
];

/// The gauges the serving layer maintains: instantaneous admission
/// queue depth and its high watermark.
pub const SERVE_OBS_GAUGES: &[&str] = &["pv.serve.queue_depth", "pv.serve.queue_high_watermark"];

/// Every counter and gauge a daemon process can emit (serve + registry
/// loads), preregistered at startup so metrics snapshots list zeros
/// explicitly.
pub fn preregister_serve_counters() {
    pv_obs::metrics::preregister_counters(SERVE_OBS_COUNTERS);
    pv_obs::metrics::preregister_counters(REGISTRY_OBS_COUNTERS);
    for name in SERVE_OBS_GAUGES {
        let _ = pv_obs::metrics::gauge(name);
    }
}

/// A raw JSON value — bridges `serde_json` text to a [`Content`] tree so
/// requests can be picked apart *leniently*: a malformed field yields a
/// typed error response instead of a whole-struct parse failure.
#[derive(Debug, Clone)]
pub struct Json(pub Content);

impl serde::Serialize for Json {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(self.0.clone())
    }
}

impl<'de> serde::Deserialize<'de> for Json {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.take_content().map(Json)
    }
}

/// How a request was answered — the response taxonomy the `pv.serve.*`
/// counters mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A successful prediction.
    Ok,
    /// The request line was unparsable, oversized, or semantically
    /// malformed.
    BadRequest,
    /// The model key is not in the registry.
    NotFound,
    /// The request was well-formed but prediction failed.
    Error,
    /// The request exceeded the per-request deadline before a worker
    /// could answer it.
    Timeout,
    /// The request was shed at admission (queue full or injected shed).
    Overloaded,
    /// The request arrived while the daemon was draining for shutdown.
    Draining,
    /// A health probe, answered.
    Health,
    /// A reload request, attempted (success or failure — the
    /// `pv.serve.reload*` counters carry which).
    Reload,
    /// A shutdown request, acked.
    Shutdown,
    /// A live-telemetry stats probe, answered.
    Stats,
}

impl Outcome {
    /// Every outcome, in the order the telemetry windows index them.
    pub const ALL: [Outcome; 11] = [
        Outcome::Ok,
        Outcome::BadRequest,
        Outcome::NotFound,
        Outcome::Error,
        Outcome::Timeout,
        Outcome::Overloaded,
        Outcome::Draining,
        Outcome::Health,
        Outcome::Reload,
        Outcome::Shutdown,
        Outcome::Stats,
    ];

    /// The counter this outcome increments.
    pub fn counter(&self) -> &'static str {
        match self {
            Outcome::Ok => "pv.serve.request.ok",
            Outcome::BadRequest => "pv.serve.request.bad",
            Outcome::NotFound => "pv.serve.request.not_found",
            Outcome::Error => "pv.serve.request.error",
            Outcome::Timeout => "pv.serve.request.timeout",
            Outcome::Overloaded => "pv.serve.request.overloaded",
            Outcome::Draining => "pv.serve.request.draining",
            Outcome::Health => "pv.serve.request.health",
            Outcome::Reload => "pv.serve.request.reload",
            Outcome::Shutdown => "pv.serve.shutdown",
            Outcome::Stats => "pv.serve.request.stats",
        }
    }

    /// The short key used in stats JSON and access-log lines.
    pub fn key(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::BadRequest => "bad",
            Outcome::NotFound => "not_found",
            Outcome::Error => "error",
            Outcome::Timeout => "timeout",
            Outcome::Overloaded => "overloaded",
            Outcome::Draining => "draining",
            Outcome::Health => "health",
            Outcome::Reload => "reload",
            Outcome::Shutdown => "shutdown",
            Outcome::Stats => "stats",
        }
    }

    fn index(&self) -> usize {
        Outcome::ALL
            .iter()
            .position(|o| o == self)
            .unwrap_or_default()
    }

    /// Whether this outcome answers a request-class line (a prediction
    /// attempt or its typed rejection) rather than an operator verb —
    /// the population the SLO error budget is charged against.
    pub fn slo_eligible(&self) -> bool {
        !matches!(
            self,
            Outcome::Health | Outcome::Reload | Outcome::Shutdown | Outcome::Stats
        )
    }
}

// ---------------------------------------------------------------------
// Request parsing

struct Request {
    id: Option<Content>,
    model: u64,
    profile: Profile,
    rel_times: Option<Vec<f64>>,
    n_samples: usize,
    sample_seed: u64,
}

enum Parsed {
    Predict(Box<Request>),
    Health { id: Option<Content> },
    Reload { id: Option<Content> },
    Shutdown { id: Option<Content> },
    Stats { id: Option<Content> },
}

fn field<'a>(map: &'a [(String, Content)], key: &str) -> Option<&'a Content> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u64(c: &Content) -> Option<u64> {
    match *c {
        Content::I64(v) if v >= 0 => Some(v as u64),
        Content::U64(v) => Some(v),
        _ => None,
    }
}

fn as_f64(c: &Content) -> Option<f64> {
    match *c {
        Content::I64(v) => Some(v as f64),
        Content::U64(v) => Some(v as f64),
        Content::F64(v) => Some(v),
        _ => None,
    }
}

/// Parses the `model` field: a 1–16-digit hex string (the registry
/// filename form) or a plain unsigned integer.
fn parse_model_key(c: &Content) -> Option<u64> {
    match c {
        Content::Str(s) if !s.is_empty() && s.len() <= 16 => u64::from_str_radix(s, 16).ok(),
        other => as_u64(other),
    }
}

fn parse_request(line: &str) -> Result<Parsed, String> {
    let Json(content) =
        serde_json::from_str::<Json>(line).map_err(|e| format!("unparsable JSON: {e}"))?;
    let Content::Map(map) = content else {
        return Err("request must be a JSON object".into());
    };
    let id = field(&map, "id").cloned();
    if matches!(field(&map, "shutdown"), Some(Content::Bool(true))) {
        return Ok(Parsed::Shutdown { id });
    }
    match field(&map, "op") {
        None => {}
        Some(Content::Str(op)) => match op.as_str() {
            "predict" => {}
            "health" => return Ok(Parsed::Health { id }),
            "reload" => return Ok(Parsed::Reload { id }),
            "shutdown" => return Ok(Parsed::Shutdown { id }),
            "stats" => return Ok(Parsed::Stats { id }),
            other => {
                return Err(format!(
                    "unknown op {other:?} (expected predict|health|reload|shutdown|stats)"
                ))
            }
        },
        Some(_) => return Err("bad \"op\": expected a string".into()),
    }
    let model = field(&map, "model")
        .and_then(parse_model_key)
        .ok_or("missing or malformed \"model\" (expected a 16-hex-digit registry key)")?;
    let profile: Profile = match field(&map, "profile") {
        Some(c) => serde::from_content(c.clone()).map_err(|e| format!("bad \"profile\": {e}"))?,
        None => return Err("missing \"profile\"".into()),
    };
    if profile.features.iter().any(|v| !v.is_finite()) {
        return Err("\"profile\" features must be finite".into());
    }
    let rel_times = match field(&map, "rel_times") {
        None | Some(Content::Null) => None,
        Some(Content::Seq(xs)) => {
            let vals: Option<Vec<f64>> = xs.iter().map(as_f64).collect();
            match vals {
                Some(v) if !v.is_empty() && v.iter().all(|x| x.is_finite()) => Some(v),
                _ => {
                    return Err(
                        "bad \"rel_times\": expected a non-empty array of finite numbers".into(),
                    )
                }
            }
        }
        Some(_) => return Err("bad \"rel_times\": expected an array".into()),
    };
    let n_samples = match field(&map, "n_samples") {
        None | Some(Content::Null) => DEFAULT_N_SAMPLES,
        Some(c) => match as_u64(c) {
            Some(n) if n as usize <= MAX_N_SAMPLES => n as usize,
            Some(n) => return Err(format!("n_samples {n} exceeds the cap {MAX_N_SAMPLES}")),
            None => return Err("bad \"n_samples\": expected an unsigned integer".into()),
        },
    };
    let sample_seed = match field(&map, "sample_seed") {
        None | Some(Content::Null) => 0,
        Some(c) => as_u64(c).ok_or("bad \"sample_seed\": expected an unsigned integer")?,
    };
    Ok(Parsed::Predict(Box::new(Request {
        id,
        model,
        profile,
        rel_times,
        n_samples,
        sample_seed,
    })))
}

// ---------------------------------------------------------------------
// Response building

fn render(content: Content) -> String {
    serde_json::to_string(&Json(content)).unwrap_or_else(|_| {
        // A Content tree always serializes; keep the daemon alive anyway.
        "{\"ok\":false,\"error\":{\"kind\":\"invalid\",\"detail\":\"render failure\"}}".into()
    })
}

fn error_response(id: Option<Content>, kind: &str, detail: String) -> String {
    let mut map = Vec::with_capacity(3);
    if let Some(id) = id {
        map.push(("id".to_string(), id));
    }
    map.push(("ok".to_string(), Content::Bool(false)));
    map.push((
        "error".to_string(),
        Content::Map(vec![
            ("kind".to_string(), Content::Str(kind.to_string())),
            ("detail".to_string(), Content::Str(detail)),
        ]),
    ));
    render(Content::Map(map))
}

fn ok_response(
    id: Option<Content>,
    model: u64,
    features: Vec<f64>,
    samples: Vec<f64>,
    ks_confidence: Option<f64>,
) -> String {
    let floats = |xs: Vec<f64>| Content::Seq(xs.into_iter().map(Content::F64).collect());
    let mut map = Vec::with_capacity(5);
    if let Some(id) = id {
        map.push(("id".to_string(), id));
    }
    map.push(("ok".to_string(), Content::Bool(true)));
    map.push(("model".to_string(), Content::Str(format!("{model:016x}"))));
    map.push((
        "prediction".to_string(),
        Content::Map(vec![
            ("features".to_string(), floats(features)),
            ("samples".to_string(), floats(samples)),
        ]),
    ));
    map.push((
        "ks_confidence".to_string(),
        ks_confidence.map_or(Content::Null, Content::F64),
    ));
    render(Content::Map(map))
}

// ---------------------------------------------------------------------
// Live telemetry: tracing, rolling windows, SLO, flight recorder

/// Configuration for the serving telemetry plane. Everything defaults
/// off (no access log, no SLO, no recorder) but the rolling windows are
/// always maintained — they are lock-free atomics, cheap enough to keep
/// hot unconditionally (pinned by `benches/serve_throughput.rs`).
#[derive(Clone)]
pub struct TelemetryOpts {
    /// The clock windowed metrics bucket against. Tests inject
    /// [`WindowClock::manual`] to pin rotation deterministically.
    pub clock: WindowClock,
    /// Per-request JSONL access log path (`--access-log`).
    pub access_log: Option<PathBuf>,
    /// Latency SLO for the error budget (`--slo-ms`); a request-class
    /// line that fails or answers slower than this burns budget.
    pub slo: Option<Duration>,
    /// Flight-recorder dump path (`--flight-recorder`); `None` disables
    /// the recorder entirely.
    pub recorder: Option<PathBuf>,
    /// Ring capacity: the last N request events kept for post-mortem.
    pub recorder_capacity: usize,
    /// Windowed (10s) shed/timeout count that trips an anomaly dump;
    /// `0` disables the burst triggers (panic/reload triggers stay).
    pub anomaly_threshold: u64,
}

impl Default for TelemetryOpts {
    fn default() -> Self {
        TelemetryOpts {
            clock: WindowClock::Monotonic,
            access_log: None,
            slo: None,
            recorder: None,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            anomaly_threshold: DEFAULT_ANOMALY_THRESHOLD,
        }
    }
}

/// The SLO error budget: how many request-class answers were eligible
/// and how many burned budget (non-`ok` outcome or latency over
/// target). Both exact totals and rolling windows, so `{"op":"health"}`
/// can report instantaneous burn rate.
struct SloState {
    target: Duration,
    eligible: RollingCounter,
    violations: RollingCounter,
}

/// One request's footprint in the flight-recorder ring.
#[derive(Debug, Clone)]
struct FlightEvent {
    seq: u64,
    outcome: Outcome,
    model: Option<u64>,
}

/// A bounded ring of the last N request events plus a one-shot dump
/// latch: the first anomaly (shed/timeout burst, worker panic, failed
/// reload) writes the ring to disk as JSONL — a post-mortem of what the
/// daemon was doing when things went wrong — and further anomalies are
/// ignored so the first dump is never overwritten mid-incident.
struct FlightRecorder {
    capacity: usize,
    path: PathBuf,
    threshold: u64,
    events: Mutex<VecDeque<FlightEvent>>,
    tripped: AtomicBool,
}

impl FlightRecorder {
    fn push(&self, event: FlightEvent) {
        let mut ring = lock_mutex(&self.events);
        if ring.len() >= self.capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Dumps the ring (first trigger only). Events are sorted by arrival
    /// sequence so the dump is byte-stable whenever the event *set* is
    /// deterministic (e.g. `--batch 1` plus an injected fault plan).
    fn trip(&self, trigger: &str, seq: u64) {
        if self.tripped.swap(true, Ordering::SeqCst) {
            return;
        }
        pv_obs::counter_inc!("pv.serve.recorder.trip");
        let mut events: Vec<FlightEvent> = lock_mutex(&self.events).iter().cloned().collect();
        events.sort_by_key(|e| e.seq);
        let mut out = format!(
            "{{\"trigger\":\"{trigger}\",\"seq\":{seq},\"events\":{}}}\n",
            events.len()
        );
        for e in &events {
            let model = e
                .model
                .map_or_else(|| "null".to_string(), |m| format!("\"{m:016x}\""));
            out.push_str(&format!(
                "{{\"seq\":{},\"outcome\":\"{}\",\"model\":{}}}\n",
                e.seq,
                e.outcome.key(),
                model
            ));
        }
        if let Err(e) = write_atomic(&self.path, out.as_bytes()) {
            eprintln!("pv-serve: flight-recorder dump failed: {e}");
        }
    }
}

/// Everything the access log needs about one answered request, held by
/// the [`RecordHandle`] until the writer knows the write time.
struct AccessRecord {
    seq: u64,
    outcome: Outcome,
    model: Option<u64>,
    queue_ns: u64,
    predict_ns: u64,
    virtual_ns: u64,
}

/// A pending access-log line: the response is sealed before it is
/// written back, so the handle rides the [`Reply`] to the writer, which
/// calls [`RecordHandle::finish`] with the measured write time after
/// the flush. A handle dropped unfinished (client vanished, writer
/// error) still logs its line with `write_ns: 0` — every counted
/// request gets exactly one access-log line.
pub struct RecordHandle {
    telemetry: Arc<ServeTelemetry>,
    rec: Option<AccessRecord>,
}

impl RecordHandle {
    /// Logs the access line with the measured reply write time.
    pub fn finish(mut self, write_ns: u64) {
        if let Some(rec) = self.rec.take() {
            self.telemetry.log_access(&rec, write_ns);
        }
    }
}

impl Drop for RecordHandle {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            self.telemetry.log_access(&rec, 0);
        }
    }
}

/// A sealed response on its way back to the client: the rendered text,
/// whether it acks a shutdown, and the pending access-log record.
pub struct Reply {
    /// The response line (no trailing newline).
    pub text: String,
    /// `true` when this reply acks a shutdown request.
    pub shutdown: bool,
    /// The pending access-log line, if the log is configured.
    pub record: Option<RecordHandle>,
}

/// An answered line before sealing: the rendered response plus what
/// the telemetry plane needs to attribute it.
struct Answered {
    text: String,
    outcome: Outcome,
    model: Option<u64>,
    virtual_ns: u64,
    panicked: bool,
}

/// The latency breakdown and identity of one answered request, as
/// sealed into the telemetry plane.
pub struct RequestTrace {
    /// Global arrival sequence (the request id in the access log).
    pub seq: u64,
    /// How the request was answered.
    pub outcome: Outcome,
    /// The model key the request named, when it got far enough to
    /// parse one.
    pub model: Option<u64>,
    /// Admission-to-pickup wait.
    pub queue_ns: u64,
    /// Worker time spent answering (parse + predict + render).
    pub predict_ns: u64,
    /// Injected virtual delay counted against the deadline but not
    /// actually slept (see [`SLOW_FAULT_REAL_CAP`]).
    pub virtual_ns: u64,
    /// Whether the worker panicked and the response is the typed
    /// panic error.
    pub panicked: bool,
}

/// The serving telemetry plane: always-on exact totals plus rolling
/// 10s/1m/5m windows for every outcome and latency stage, the SLO
/// error budget, the per-request access log, and the flight recorder.
///
/// Totals here are *independent* of `pv-obs` — plain atomics bumped on
/// exactly the same code paths as the `pv.serve.*` counters — so
/// `{"op":"stats"}` reconciles with the final metrics snapshot by
/// construction, and works even when no obs collector is installed.
pub struct ServeTelemetry {
    clock: WindowClock,
    requests: RollingCounter,
    outcomes: Vec<RollingCounter>,
    latency: RollingHisto,
    queue_wait: RollingHisto,
    predict: RollingHisto,
    slo: Option<SloState>,
    access: Option<Mutex<File>>,
    recorder: Option<FlightRecorder>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        // Default opts configure no file outputs, so this cannot fail.
        ServeTelemetry::new(TelemetryOpts::default()).unwrap_or_else(|_| unreachable!())
    }
}

impl ServeTelemetry {
    /// Builds the telemetry plane, opening (appending to) the access
    /// log when one is configured.
    ///
    /// # Errors
    /// Fails when the access-log file cannot be opened.
    pub fn new(opts: TelemetryOpts) -> io::Result<Self> {
        let clock = opts.clock;
        let access = match &opts.access_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        Ok(ServeTelemetry {
            requests: RollingCounter::new(clock.clone()),
            outcomes: Outcome::ALL
                .iter()
                .map(|_| RollingCounter::new(clock.clone()))
                .collect(),
            latency: RollingHisto::new(clock.clone()),
            queue_wait: RollingHisto::new(clock.clone()),
            predict: RollingHisto::new(clock.clone()),
            slo: opts.slo.map(|target| SloState {
                target,
                eligible: RollingCounter::new(clock.clone()),
                violations: RollingCounter::new(clock.clone()),
            }),
            access,
            recorder: opts.recorder.map(|path| FlightRecorder {
                capacity: opts.recorder_capacity,
                path,
                threshold: opts.anomaly_threshold,
                events: Mutex::new(VecDeque::new()),
                tripped: AtomicBool::new(false),
            }),
            clock,
        })
    }

    /// The clock windowed metrics run on (tests advance a manual one).
    pub fn clock(&self) -> &WindowClock {
        &self.clock
    }

    /// Exact total requests sealed since startup.
    pub fn total_requests(&self) -> u64 {
        self.requests.total()
    }

    /// Exact total for one outcome since startup.
    pub fn total_outcome(&self, outcome: Outcome) -> u64 {
        self.outcomes[outcome.index()].total()
    }

    /// The SLO error-budget block rendered into health/stats responses,
    /// when an SLO is configured: target, eligible/violation totals,
    /// and the burn fraction overall and per rolling window.
    fn slo_content(&self) -> Option<Content> {
        let slo = self.slo.as_ref()?;
        let frac = |violations: u64, eligible: u64| {
            Content::F64(if eligible == 0 {
                0.0
            } else {
                violations as f64 / eligible as f64
            })
        };
        let mut burn = vec![(
            "total".to_string(),
            frac(slo.violations.total(), slo.eligible.total()),
        )];
        for &(label, secs) in &WINDOWS {
            burn.push((
                label.to_string(),
                frac(slo.violations.windowed(secs), slo.eligible.windowed(secs)),
            ));
        }
        Some(Content::Map(vec![
            (
                "target_ms".to_string(),
                Content::U64(slo.target.as_millis() as u64),
            ),
            ("eligible".to_string(), Content::U64(slo.eligible.total())),
            (
                "violations".to_string(),
                Content::U64(slo.violations.total()),
            ),
            ("burn".to_string(), Content::Map(burn)),
        ]))
    }

    /// Seals one answered request into the telemetry plane: windowed
    /// counters, latency histograms, SLO budget, flight-recorder ring
    /// and anomaly triggers. Returns the [`Reply`] carrying the pending
    /// access-log record to the writer.
    fn seal(self: &Arc<Self>, text: String, t: RequestTrace) -> Reply {
        self.requests.inc();
        self.outcomes[t.outcome.index()].inc();
        self.queue_wait.record_ns(t.queue_ns);
        self.predict.record_ns(t.predict_ns);
        self.latency.record_ns(t.queue_ns + t.predict_ns);
        if let Some(slo) = &self.slo {
            if t.outcome.slo_eligible() {
                slo.eligible.inc();
                let served_ns = t.queue_ns + t.predict_ns + t.virtual_ns;
                if t.outcome != Outcome::Ok || served_ns > slo.target.as_nanos() as u64 {
                    slo.violations.inc();
                }
            }
        }
        if let Some(rec) = &self.recorder {
            rec.push(FlightEvent {
                seq: t.seq,
                outcome: t.outcome,
                model: t.model,
            });
            if t.panicked {
                rec.trip("worker-panic", t.seq);
            } else if rec.threshold > 0 {
                let burst = |o: Outcome| self.outcomes[o.index()].windowed(10) >= rec.threshold;
                match t.outcome {
                    Outcome::Overloaded if burst(Outcome::Overloaded) => {
                        rec.trip("shed-burst", t.seq);
                    }
                    Outcome::Timeout if burst(Outcome::Timeout) => {
                        rec.trip("timeout-burst", t.seq);
                    }
                    _ => {}
                }
            }
        }
        let record = self.access.as_ref().map(|_| RecordHandle {
            telemetry: Arc::clone(self),
            rec: Some(AccessRecord {
                seq: t.seq,
                outcome: t.outcome,
                model: t.model,
                queue_ns: t.queue_ns,
                predict_ns: t.predict_ns,
                virtual_ns: t.virtual_ns,
            }),
        });
        Reply {
            text,
            shutdown: t.outcome == Outcome::Shutdown,
            record,
        }
    }

    /// Trips the flight recorder for a non-request anomaly (a failed
    /// reload). No-op without a recorder or after the first trip.
    pub fn trip_recorder(&self, trigger: &str, seq: u64) {
        if let Some(rec) = &self.recorder {
            rec.trip(trigger, seq);
        }
    }

    fn log_access(&self, rec: &AccessRecord, write_ns: u64) {
        let Some(file) = &self.access else { return };
        let model = rec
            .model
            .map_or_else(|| "null".to_string(), |m| format!("\"{m:016x}\""));
        let total_ns = rec.queue_ns + rec.predict_ns + write_ns;
        let line = format!(
            "{{\"req\":{},\"outcome\":\"{}\",\"model\":{},\"queue_ns\":{},\"predict_ns\":{},\"write_ns\":{},\"virtual_ns\":{},\"total_ns\":{}}}\n",
            rec.seq,
            rec.outcome.key(),
            model,
            rec.queue_ns,
            rec.predict_ns,
            write_ns,
            rec.virtual_ns,
            total_ns
        );
        let mut f = lock_mutex(file);
        let _ = f.write_all(line.as_bytes());
    }

    /// A synthesized metrics snapshot from the telemetry plane's own
    /// totals (counters are exact; the latency histogram covers the
    /// trailing 5m window). This is what the periodic Prometheus flush
    /// renders, so it works with or without an obs collector.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut counters = vec![pv_obs::metrics::CounterValue {
            name: "pv.serve.request".into(),
            value: self.requests.total(),
        }];
        for o in Outcome::ALL {
            counters.push(pv_obs::metrics::CounterValue {
                name: o.counter().into(),
                value: self.total_outcome(o),
            });
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let histo = |name: &str, h: &RollingHisto| {
            let (edges, counts, count, sum_ns) = h.windowed_buckets(300);
            pv_obs::metrics::HistogramValue {
                name: name.into(),
                scale: "log10".into(),
                edges,
                counts,
                count,
                sum: sum_ns as f64,
            }
        };
        MetricsSnapshot {
            counters,
            gauges: Vec::new(),
            histograms: vec![
                histo("pv.serve.window.latency_ns", &self.latency),
                histo("pv.serve.window.queue_wait_ns", &self.queue_wait),
                histo("pv.serve.window.predict_ns", &self.predict),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// Engine

/// A predictor reconstructed from a registry artifact.
pub enum ServedModel {
    /// Use case 1: profile → same-system distribution.
    FewRuns(FewRunsPredictor),
    /// Use case 2: profile ⊕ measured distribution → other-system
    /// distribution.
    CrossSystem(CrossSystemPredictor),
}

impl ServedModel {
    /// Rebuilds the servable predictor from its registry artifact.
    ///
    /// # Errors
    /// Propagates artifact reconstruction failures.
    pub fn from_artifact(artifact: Artifact) -> Result<Self, PvError> {
        Ok(match artifact {
            Artifact::FewRuns(a) => ServedModel::FewRuns(FewRunsPredictor::from_artifact(a)?),
            Artifact::CrossSystem(a) => {
                ServedModel::CrossSystem(CrossSystemPredictor::from_artifact(a)?)
            }
        })
    }
}

/// One model in the serving table, with its provenance.
#[derive(Clone)]
struct ModelSlot {
    model: Arc<ServedModel>,
    /// `true` when a reload failed to verify this key and the previous
    /// snapshot's model was kept serving.
    held_over: bool,
    /// When this model version entered the table (staleness anchor).
    loaded: Instant,
}

/// Engine health, as reported by the `{"op":"health"}` probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeState {
    /// Every model current and verified.
    Ok,
    /// Serving, but at least one model is held over from a previous
    /// snapshot or the last reload failed outright.
    Degraded,
    /// A shutdown was acked; queued requests finish, new ones are
    /// rejected.
    Draining,
}

impl ServeState {
    /// The probe's status string.
    pub fn name(&self) -> &'static str {
        match self {
            ServeState::Ok => "ok",
            ServeState::Degraded => "degraded",
            ServeState::Draining => "draining",
        }
    }

    fn from_u8(v: u8) -> ServeState {
        match v {
            2 => ServeState::Draining,
            1 => ServeState::Degraded,
            _ => ServeState::Ok,
        }
    }
}

/// What a reload attempt did.
#[derive(Debug)]
pub struct ReloadReport {
    /// Keys freshly loaded and verified.
    pub loaded: usize,
    /// Keys whose fresh artifact failed verification, with the error.
    /// Each keeps its old model serving when one was loaded before.
    pub held_over: Vec<(u64, PvError)>,
    /// Keys dropped because their entry vanished from disk.
    pub dropped: usize,
    /// A whole-reload failure (registry unreachable); the previous
    /// snapshot stays live.
    pub error: Option<PvError>,
}

impl ReloadReport {
    /// Whether the snapshot swap happened (possibly with held-over
    /// models).
    pub fn swapped(&self) -> bool {
        self.error.is_none()
    }

    /// One-line operator summary (SIGHUP reloads log this to stderr).
    pub fn summary_line(&self) -> String {
        match &self.error {
            Some(e) => format!("reload failed, old snapshot stays live: {e}"),
            None => format!(
                "reload: {} loaded, {} held over, {} dropped",
                self.loaded,
                self.held_over.len(),
                self.dropped
            ),
        }
    }
}

fn lock_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn lock_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

fn lock_mutex<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|p| p.into_inner())
}

/// The query engine: a verified model table behind an atomically
/// swappable snapshot, ready to answer protocol lines from any number
/// of threads, plus the daemon's health state machine and (when backed
/// by a registry) hot reload.
pub struct ServeEngine {
    table: RwLock<Arc<HashMap<u64, ModelSlot>>>,
    registry: Option<ModelRegistry>,
    state: AtomicU8,
    degraded_note: Mutex<Option<String>>,
    reload_attempts: AtomicU64,
    reload_lock: Mutex<()>,
    plan: ServeFaultPlan,
    deadline: Option<Duration>,
    telemetry: Arc<ServeTelemetry>,
    started: Instant,
}

impl ServeEngine {
    fn with_table(table: HashMap<u64, ModelSlot>, registry: Option<ModelRegistry>) -> Self {
        ServeEngine {
            table: RwLock::new(Arc::new(table)),
            registry,
            state: AtomicU8::new(0),
            degraded_note: Mutex::new(None),
            reload_attempts: AtomicU64::new(0),
            reload_lock: Mutex::new(()),
            plan: ServeFaultPlan::none(),
            deadline: None,
            telemetry: Arc::new(ServeTelemetry::default()),
            started: Instant::now(),
        }
    }

    /// Loads and verifies every model in `registry`, keeping a handle
    /// for hot reloads.
    ///
    /// # Errors
    /// Propagates the first registry verification failure — the
    /// *initial* load is strict, a serving directory must start wholly
    /// trustworthy. (Reloads are lenient: see [`Self::reload`].)
    pub fn from_registry(registry: &ModelRegistry) -> Result<Self, PvError> {
        let mut table = HashMap::new();
        for entry in registry.load_all()? {
            table.insert(
                entry.key,
                ModelSlot {
                    model: Arc::new(ServedModel::from_artifact(entry.artifact)?),
                    held_over: false,
                    loaded: Instant::now(),
                },
            );
        }
        Ok(Self::with_table(table, Some(registry.clone())))
    }

    /// An engine over an explicit model table (for tests/benches); not
    /// reloadable.
    pub fn from_models(models: HashMap<u64, ServedModel>) -> Self {
        let table = models
            .into_iter()
            .map(|(k, m)| {
                (
                    k,
                    ModelSlot {
                        model: Arc::new(m),
                        held_over: false,
                        loaded: Instant::now(),
                    },
                )
            })
            .collect();
        Self::with_table(table, None)
    }

    /// Sets the per-request prediction deadline (`None` disables).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Installs a serving chaos plan.
    pub fn with_fault_plan(mut self, plan: ServeFaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Installs a configured telemetry plane (a default one is always
    /// present — this swaps in one with an access log, SLO, recorder,
    /// or injected clock).
    pub fn with_telemetry(mut self, telemetry: ServeTelemetry) -> Self {
        self.telemetry = Arc::new(telemetry);
        self
    }

    /// The serving telemetry plane.
    pub fn telemetry(&self) -> &Arc<ServeTelemetry> {
        &self.telemetry
    }

    /// The installed chaos plan.
    pub fn plan(&self) -> &ServeFaultPlan {
        &self.plan
    }

    /// The per-request deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    fn snapshot(&self) -> Arc<HashMap<u64, ModelSlot>> {
        Arc::clone(&lock_read(&self.table))
    }

    /// Number of models loaded.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether no models are loaded.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The loaded registry keys, ascending.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.snapshot().keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Current health state.
    pub fn state(&self) -> ServeState {
        ServeState::from_u8(self.state.load(Ordering::SeqCst))
    }

    /// Whether the daemon is draining for shutdown.
    pub fn is_draining(&self) -> bool {
        self.state() == ServeState::Draining
    }

    /// Enters the draining state (terminal — reloads cannot leave it).
    pub fn begin_drain(&self) {
        self.state.store(2, Ordering::SeqCst);
    }

    /// Flips between `ok` and `degraded`, never out of `draining`.
    fn set_health(&self, degraded: bool, note: Option<String>) {
        *lock_mutex(&self.degraded_note) = note;
        let target = if degraded { 1 } else { 0 };
        let mut current = self.state.load(Ordering::SeqCst);
        while current != 2 {
            match self
                .state
                .compare_exchange(current, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(now) => current = now,
            }
        }
    }

    /// Re-verifies every registry entry and atomically swaps in the new
    /// model table. In-flight requests finish on the snapshot they
    /// already hold. Verification failures are *lenient* here, unlike
    /// startup: a bad entry keeps its previously loaded model serving
    /// (marked `held_over`) and the daemon goes `degraded`; entries
    /// missing from disk are dropped; a registry that cannot be
    /// enumerated at all (or an injected `reload-io` fault) fails the
    /// whole reload and keeps the old snapshot live. Never panics,
    /// never leaves the daemon without a table.
    pub fn reload(&self) -> ReloadReport {
        let _serialized = lock_mutex(&self.reload_lock);
        let attempt = self.reload_attempts.fetch_add(1, Ordering::SeqCst);
        pv_obs::counter_inc!("pv.serve.reload");
        let whole_failure = |error: PvError, this: &Self| {
            pv_obs::counter_inc!("pv.serve.reload.fail");
            this.telemetry.trip_recorder("reload-failed", attempt);
            this.set_health(true, Some(error.to_string()));
            ReloadReport {
                loaded: 0,
                held_over: Vec::new(),
                dropped: 0,
                error: Some(error),
            }
        };
        let Some(registry) = &self.registry else {
            return whole_failure(
                PvError::Invalid {
                    what: "ServeEngine::reload".into(),
                    detail: "no registry backs this engine".into(),
                },
                self,
            );
        };
        if self.plan.reload_io_at(attempt) {
            return whole_failure(
                PvError::CacheIo {
                    what: "ServeEngine::reload".into(),
                    detail: format!(
                        "injected fault: registry I/O error at reload attempt {attempt}"
                    ),
                },
                self,
            );
        }
        let old = self.snapshot();
        let mut next: HashMap<u64, ModelSlot> = HashMap::new();
        let mut held_over: Vec<(u64, PvError)> = Vec::new();
        let mut loaded = 0usize;
        for key in registry.keys() {
            match registry
                .load_key(key)
                .and_then(|entry| ServedModel::from_artifact(entry.artifact))
            {
                Ok(model) => {
                    next.insert(
                        key,
                        ModelSlot {
                            model: Arc::new(model),
                            held_over: false,
                            loaded: Instant::now(),
                        },
                    );
                    loaded += 1;
                }
                Err(e) => {
                    if let Some(slot) = old.get(&key) {
                        let mut kept = slot.clone();
                        kept.held_over = true;
                        next.insert(key, kept);
                    }
                    held_over.push((key, e));
                }
            }
        }
        let dropped = old.keys().filter(|k| !next.contains_key(k)).count();
        let degraded = !held_over.is_empty();
        let note = degraded.then(|| {
            let keys: Vec<String> = held_over
                .iter()
                .map(|(k, e)| format!("{k:016x} ({})", e.kind()))
                .collect();
            format!("reload kept old versions for: {}", keys.join(", "))
        });
        *lock_write(&self.table) = Arc::new(next);
        self.set_health(degraded, note);
        ReloadReport {
            loaded,
            held_over,
            dropped,
            error: None,
        }
    }

    /// Answers one protocol line: returns the response (without the
    /// trailing newline) and its outcome, and updates the `pv.serve.*`
    /// counters. No deadline or chaos applies on this path (see
    /// [`Self::handle_timed`]).
    pub fn handle_line(&self, line: &str) -> (String, Outcome) {
        let a = self.answer_full(line, false, false);
        (a.text, a.outcome)
    }

    /// Answers one protocol line on the daemon path: applies the chaos
    /// plan's fault for arrival sequence `seq` and the per-request
    /// deadline measured from `arrival`. An injected slow fault adds
    /// its delay *virtually* to the elapsed time for the deadline check
    /// (real sleep capped at [`SLOW_FAULT_REAL_CAP`]), so timeout
    /// behavior is deterministic at any thread count.
    pub fn handle_timed(&self, line: &str, seq: u64, arrival: Instant) -> (String, Outcome) {
        let a = self.timed_full(line, seq, arrival);
        (a.text, a.outcome)
    }

    /// [`Self::handle_timed`] plus telemetry sealing: the full daemon
    /// path. `arrival` doubles as the queue-wait anchor — the elapsed
    /// time when a worker picks the job up is the queue wait, the rest
    /// is worker time.
    pub fn handle_timed_sealed(&self, line: &str, seq: u64, arrival: Instant) -> Reply {
        let queue_ns = arrival.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let a = self.timed_full(line, seq, arrival);
        self.telemetry.seal(
            a.text,
            RequestTrace {
                seq,
                outcome: a.outcome,
                model: a.model,
                queue_ns,
                predict_ns: start.elapsed().as_nanos() as u64,
                virtual_ns: a.virtual_ns,
                panicked: a.panicked,
            },
        )
    }

    fn timed_full(&self, line: &str, seq: u64, arrival: Instant) -> Answered {
        let mut penalty = Duration::ZERO;
        if let Some(delay_ms) = self.plan.slow_at(seq) {
            penalty = Duration::from_millis(delay_ms);
            std::thread::sleep(penalty.min(SLOW_FAULT_REAL_CAP));
        }
        let expired = self
            .deadline
            .is_some_and(|d| arrival.elapsed() + penalty > d);
        let mut a = self.answer_full(line, expired, self.plan.panics_at(seq));
        a.virtual_ns = penalty.as_nanos() as u64;
        a
    }

    /// Answers a line with the worker hardened against panics: a panic
    /// inside prediction (or an injected one) is caught, counted
    /// (`pv.serve.panic`), and answered as a typed `panic` error — one
    /// poisoned request never takes the daemon down.
    fn answer_full(&self, line: &str, expired: bool, inject_panic: bool) -> Answered {
        pv_obs::counter_inc!("pv.serve.request");
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: worker panic");
            }
            self.respond(line, expired)
        }));
        let (text, outcome, model, panicked) = match result {
            Ok((text, outcome, model)) => (text, outcome, model, false),
            Err(_) => {
                pv_obs::counter_inc!("pv.serve.panic");
                (
                    error_response(
                        None,
                        "panic",
                        "worker panicked while answering; request aborted".into(),
                    ),
                    Outcome::Error,
                    None,
                    true,
                )
            }
        };
        pv_obs::observe!(
            "pv.serve.latency_ns",
            pv_obs::metrics::BucketSpec::latency(),
            start.elapsed().as_nanos() as f64
        );
        pv_obs::counter_inc!(outcome.counter());
        Answered {
            text,
            outcome,
            model,
            virtual_ns: 0,
            panicked,
        }
    }

    /// The typed response to a line that exceeded the daemon's length
    /// cap (counted like any other answered request).
    pub fn handle_oversized(&self, max_line: usize) -> (String, Outcome) {
        pv_obs::counter_inc!("pv.serve.request");
        pv_obs::counter_inc!(Outcome::BadRequest.counter());
        (
            error_response(
                None,
                "bad-request",
                format!("request line exceeds {max_line} bytes"),
            ),
            Outcome::BadRequest,
        )
    }

    /// [`Self::handle_oversized`] plus telemetry sealing.
    pub fn handle_oversized_sealed(&self, seq: u64, max_line: usize) -> Reply {
        let (text, outcome) = self.handle_oversized(max_line);
        self.seal_immediate(text, outcome, seq)
    }

    /// Seals a reader-path response (shed, draining, oversized) that
    /// never waited in the queue or reached a worker.
    pub fn seal_immediate(&self, text: String, outcome: Outcome, seq: u64) -> Reply {
        self.telemetry.seal(
            text,
            RequestTrace {
                seq,
                outcome,
                model: None,
                queue_ns: 0,
                predict_ns: 0,
                virtual_ns: 0,
                panicked: false,
            },
        )
    }

    /// The typed response to a request shed at admission — queue full
    /// or an injected shed fault. Sheds are answered by the *reader*,
    /// before the line is ever parsed, so no `id` is echoed.
    pub fn handle_shed(&self, detail: String) -> (String, Outcome) {
        pv_obs::counter_inc!("pv.serve.request");
        pv_obs::counter_inc!("pv.serve.shed");
        pv_obs::counter_inc!(Outcome::Overloaded.counter());
        (
            error_response(None, "overloaded", detail),
            Outcome::Overloaded,
        )
    }

    /// The typed response to a line arriving while the daemon drains.
    pub fn handle_draining(&self) -> (String, Outcome) {
        pv_obs::counter_inc!("pv.serve.request");
        pv_obs::counter_inc!(Outcome::Draining.counter());
        (
            error_response(
                None,
                "draining",
                "daemon is draining for shutdown; request rejected".into(),
            ),
            Outcome::Draining,
        )
    }

    /// Answers a micro-batch across the rayon pool, preserving order.
    pub fn handle_batch(&self, lines: &[&str]) -> Vec<(String, Outcome)> {
        pv_obs::counter_inc!("pv.serve.batch");
        lines
            .to_vec()
            .into_par_iter()
            .map(|l| self.handle_line(l))
            .collect()
    }

    fn health_response(&self, id: Option<Content>) -> (String, Outcome) {
        let snapshot = self.snapshot();
        let mut keys: Vec<u64> = snapshot.keys().copied().collect();
        keys.sort_unstable();
        let models = Content::Seq(
            keys.into_iter()
                .map(|key| {
                    let slot = &snapshot[&key];
                    Content::Map(vec![
                        ("model".to_string(), Content::Str(format!("{key:016x}"))),
                        (
                            "staleness_s".to_string(),
                            Content::F64(slot.loaded.elapsed().as_secs_f64()),
                        ),
                        ("held_over".to_string(), Content::Bool(slot.held_over)),
                    ])
                })
                .collect(),
        );
        let mut map = Vec::with_capacity(5);
        if let Some(id) = id {
            map.push(("id".to_string(), id));
        }
        map.push(("ok".to_string(), Content::Bool(true)));
        map.push(("op".to_string(), Content::Str("health".into())));
        map.push((
            "status".to_string(),
            Content::Str(self.state().name().into()),
        ));
        map.push(("models".to_string(), models));
        if let Some(note) = lock_mutex(&self.degraded_note).clone() {
            map.push(("note".to_string(), Content::Str(note)));
        }
        if let Some(slo) = self.telemetry.slo_content() {
            map.push(("slo".to_string(), slo));
        }
        (render(Content::Map(map)), Outcome::Health)
    }

    /// The `{"op":"stats"}` response: exact per-outcome totals plus
    /// rolling 10s/1m/5m windows (rates, latency quantiles) and the
    /// SLO budget. When an obs collector is live, the raw `pv.serve.*`
    /// counters ride along so clients can reconcile the two planes.
    fn stats_response(&self, id: Option<Content>) -> (String, Outcome) {
        let t = &self.telemetry;
        let mut totals = vec![("requests".to_string(), Content::U64(t.total_requests()))];
        for o in Outcome::ALL {
            totals.push((o.key().to_string(), Content::U64(t.total_outcome(o))));
        }
        let windows = Content::Seq(
            WINDOWS
                .iter()
                .map(|&(label, secs)| {
                    let view = t.latency.view(label, secs);
                    let opt_ns = |v: Option<f64>| {
                        v.map_or(Content::Null, |ns| Content::U64(ns.round() as u64))
                    };
                    let opt_human = |v: Option<f64>| {
                        v.map_or(Content::Null, |ns| Content::Str(humanize_ns(ns)))
                    };
                    Content::Map(vec![
                        ("window".to_string(), Content::Str(label.to_string())),
                        ("secs".to_string(), Content::U64(secs)),
                        (
                            "requests".to_string(),
                            Content::U64(t.requests.windowed(secs)),
                        ),
                        ("rate".to_string(), Content::F64(t.requests.rate(secs))),
                        (
                            "ok".to_string(),
                            Content::U64(t.outcomes[Outcome::Ok.index()].windowed(secs)),
                        ),
                        (
                            "shed".to_string(),
                            Content::U64(t.outcomes[Outcome::Overloaded.index()].windowed(secs)),
                        ),
                        (
                            "timeout".to_string(),
                            Content::U64(t.outcomes[Outcome::Timeout.index()].windowed(secs)),
                        ),
                        (
                            "latency".to_string(),
                            Content::Map(vec![
                                ("count".to_string(), Content::U64(view.count)),
                                ("mean_ns".to_string(), opt_ns(view.mean_ns)),
                                ("mean".to_string(), opt_human(view.mean_ns)),
                                ("p50_ns".to_string(), opt_ns(view.p50_ns)),
                                ("p50".to_string(), opt_human(view.p50_ns)),
                                ("p95_ns".to_string(), opt_ns(view.p95_ns)),
                                ("p95".to_string(), opt_human(view.p95_ns)),
                                ("p99_ns".to_string(), opt_ns(view.p99_ns)),
                                ("p99".to_string(), opt_human(view.p99_ns)),
                            ]),
                        ),
                    ])
                })
                .collect(),
        );
        let mut map = Vec::with_capacity(8);
        if let Some(id) = id {
            map.push(("id".to_string(), id));
        }
        map.push(("ok".to_string(), Content::Bool(true)));
        map.push(("op".to_string(), Content::Str("stats".into())));
        map.push((
            "status".to_string(),
            Content::Str(self.state().name().into()),
        ));
        map.push((
            "uptime_s".to_string(),
            Content::F64(self.started.elapsed().as_secs_f64()),
        ));
        map.push(("totals".to_string(), Content::Map(totals)));
        map.push(("windows".to_string(), windows));
        if let Some(slo) = t.slo_content() {
            map.push(("slo".to_string(), slo));
        }
        if let Some(snapshot) = pv_obs::live_metrics_snapshot() {
            let counters = snapshot
                .counters
                .iter()
                .filter(|c| c.name.starts_with("pv.serve."))
                .map(|c| (c.name.clone(), Content::U64(c.value)))
                .collect();
            map.push(("counters".to_string(), Content::Map(counters)));
        }
        (render(Content::Map(map)), Outcome::Stats)
    }

    /// The stats document as a JSON line — what `--telemetry-out`
    /// flushes periodically.
    pub fn stats_json(&self) -> String {
        self.stats_response(None).0
    }

    /// The Prometheus exposition of the telemetry plane's own snapshot
    /// — what `--telemetry-prom` flushes periodically. Works without an
    /// obs collector.
    pub fn telemetry_prometheus(&self) -> String {
        pv_obs::telemetry::render_prometheus(&self.telemetry.metrics_snapshot())
    }

    fn reload_response(&self, id: Option<Content>) -> (String, Outcome) {
        let report = self.reload();
        let response = match &report.error {
            Some(e) => {
                let mut map = Vec::with_capacity(4);
                if let Some(id) = id {
                    map.push(("id".to_string(), id));
                }
                map.push(("ok".to_string(), Content::Bool(false)));
                map.push(("op".to_string(), Content::Str("reload".into())));
                map.push((
                    "error".to_string(),
                    Content::Map(vec![
                        ("kind".to_string(), Content::Str("reload-failed".into())),
                        ("detail".to_string(), Content::Str(e.to_string())),
                    ]),
                ));
                map.push((
                    "status".to_string(),
                    Content::Str(self.state().name().into()),
                ));
                render(Content::Map(map))
            }
            None => {
                let mut map = Vec::with_capacity(6);
                if let Some(id) = id {
                    map.push(("id".to_string(), id));
                }
                map.push(("ok".to_string(), Content::Bool(true)));
                map.push(("op".to_string(), Content::Str("reload".into())));
                map.push(("loaded".to_string(), Content::U64(report.loaded as u64)));
                map.push((
                    "held_over".to_string(),
                    Content::U64(report.held_over.len() as u64),
                ));
                map.push(("dropped".to_string(), Content::U64(report.dropped as u64)));
                map.push((
                    "status".to_string(),
                    Content::Str(self.state().name().into()),
                ));
                render(Content::Map(map))
            }
        };
        (response, Outcome::Reload)
    }

    fn respond(&self, line: &str, expired: bool) -> (String, Outcome, Option<u64>) {
        let req = match parse_request(line) {
            Ok(Parsed::Shutdown { id }) => {
                let mut map = Vec::with_capacity(3);
                if let Some(id) = id {
                    map.push(("id".to_string(), id));
                }
                map.push(("ok".to_string(), Content::Bool(true)));
                map.push(("shutdown".to_string(), Content::Bool(true)));
                return (render(Content::Map(map)), Outcome::Shutdown, None);
            }
            Ok(Parsed::Health { id }) => {
                let (r, o) = self.health_response(id);
                return (r, o, None);
            }
            Ok(Parsed::Reload { id }) => {
                let (r, o) = self.reload_response(id);
                return (r, o, None);
            }
            Ok(Parsed::Stats { id }) => {
                let (r, o) = self.stats_response(id);
                return (r, o, None);
            }
            Ok(Parsed::Predict(req)) => req,
            Err(detail) => {
                return (
                    error_response(None, "bad-request", detail),
                    Outcome::BadRequest,
                    None,
                )
            }
        };
        if expired {
            let budget = self.deadline.unwrap_or_default();
            return (
                error_response(
                    req.id,
                    "timeout",
                    format!(
                        "deadline of {} ms exceeded before prediction started",
                        budget.as_millis()
                    ),
                ),
                Outcome::Timeout,
                Some(req.model),
            );
        }
        let snapshot = self.snapshot();
        let Some(slot) = snapshot.get(&req.model) else {
            return (
                error_response(
                    req.id,
                    "not-found",
                    format!(
                        "unknown model {:016x} ({} models loaded)",
                        req.model,
                        snapshot.len()
                    ),
                ),
                Outcome::NotFound,
                Some(req.model),
            );
        };
        // Hold the Arc, drop the snapshot reference: a reload swapping
        // the table mid-prediction never invalidates this request.
        let model = Arc::clone(&slot.model);
        drop(snapshot);
        let predicted = match &*model {
            ServedModel::FewRuns(p) => p.predict_features_profile(&req.profile).and_then(|f| {
                let samples = p.decode_features(&f, req.n_samples, req.sample_seed)?;
                Ok((f, samples))
            }),
            ServedModel::CrossSystem(p) => match &req.rel_times {
                Some(rel) => p.predict_features_profile(&req.profile, rel).and_then(|f| {
                    let samples = p.decode_features(&f, req.n_samples, req.sample_seed)?;
                    Ok((f, samples))
                }),
                None => return (
                    error_response(
                        req.id,
                        "bad-request",
                        "cross-system model needs \"rel_times\" (the measured source distribution)"
                            .into(),
                    ),
                    Outcome::BadRequest,
                    Some(req.model),
                ),
            },
        };
        match predicted {
            Ok((features, samples)) => {
                let ks_confidence = req
                    .rel_times
                    .as_deref()
                    .filter(|_| !samples.is_empty())
                    .and_then(|rel| ks2_test(&samples, rel).ok())
                    .map(|k| k.p_value);
                (
                    ok_response(req.id, req.model, features, samples, ks_confidence),
                    Outcome::Ok,
                    Some(req.model),
                )
            }
            Err(e) => (
                error_response(req.id, "invalid", e.to_string()),
                Outcome::Error,
                Some(req.model),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Daemon plumbing

/// One line read from a client, or the marker that it blew the length
/// cap (the payload is discarded, the event still gets a response).
pub enum LineItem {
    /// A complete line within the cap.
    Line(String),
    /// A line that exceeded the cap and was discarded to the newline.
    Oversized,
}

/// A queued request: the line, its global arrival sequence and arrival
/// time (the deadline/chaos keys), and the reply slot its sealed
/// [`Reply`] goes back on.
pub struct Job {
    item: LineItem,
    seq: u64,
    arrival: Instant,
    reply: Sender<Reply>,
}

/// The bounded admission queue: a depth counter the readers enter
/// before enqueueing and the dispatcher leaves on dequeue. When the
/// queue is full, admission fails and the reader sheds the request with
/// a typed `overloaded` response instead of buffering it. Maintains the
/// `pv.serve.queue_depth` and `pv.serve.queue_high_watermark` gauges.
pub struct Admission {
    capacity: usize,
    depth: AtomicUsize,
    high_watermark: AtomicUsize,
}

impl Admission {
    /// A queue admitting up to `capacity` unanswered requests
    /// (`0` = unbounded, never sheds).
    pub fn new(capacity: usize) -> Self {
        Admission {
            capacity,
            depth: AtomicUsize::new(0),
            high_watermark: AtomicUsize::new(0),
        }
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queued-but-unanswered request count.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// The deepest the queue has ever been.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark.load(Ordering::SeqCst)
    }

    /// Tries to admit one request; `false` means the queue is full and
    /// the caller must shed.
    pub fn try_enter(&self) -> bool {
        let mut current = self.depth.load(Ordering::SeqCst);
        loop {
            if self.capacity != 0 && current >= self.capacity {
                return false;
            }
            match self.depth.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    let now = current + 1;
                    let mut hwm = self.high_watermark.load(Ordering::SeqCst);
                    while now > hwm {
                        match self.high_watermark.compare_exchange(
                            hwm,
                            now,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        ) {
                            Ok(_) => break,
                            Err(observed) => hwm = observed,
                        }
                    }
                    pv_obs::gauge_set!("pv.serve.queue_depth", now as f64);
                    pv_obs::gauge_set!(
                        "pv.serve.queue_high_watermark",
                        self.high_watermark.load(Ordering::SeqCst) as f64
                    );
                    return true;
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Marks one admitted request as picked up by the dispatcher.
    pub fn leave(&self) {
        let before = self.depth.fetch_sub(1, Ordering::SeqCst);
        pv_obs::gauge_set!("pv.serve.queue_depth", before.saturating_sub(1) as f64);
    }
}

/// Daemon configuration threaded through the serve loops.
#[derive(Clone)]
pub struct ServeOpts {
    /// Micro-batch cap (requests drained per rayon dispatch).
    pub batch: usize,
    /// Per-request line length cap in bytes.
    pub max_line: usize,
    /// Admission queue capacity (`0` = unbounded).
    pub queue: usize,
    /// When set, the dispatcher polls this flag between batches and
    /// runs a registry reload when it is raised (the SIGHUP hook).
    pub reload_signal: Option<Arc<AtomicBool>>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            batch: DEFAULT_BATCH,
            max_line: DEFAULT_MAX_LINE,
            queue: DEFAULT_QUEUE,
            reload_signal: None,
        }
    }
}

/// The per-daemon serving state every connection shares.
#[derive(Clone)]
pub struct ServeShared {
    engine: Arc<ServeEngine>,
    admission: Arc<Admission>,
    seq: Arc<AtomicU64>,
    jobs: Sender<Job>,
    max_line: usize,
}

impl ServeShared {
    /// Bundles the shared serving state for [`serve_connection`].
    pub fn new(
        engine: Arc<ServeEngine>,
        admission: Arc<Admission>,
        jobs: Sender<Job>,
        max_line: usize,
    ) -> Self {
        ServeShared {
            engine,
            admission,
            seq: Arc::new(AtomicU64::new(0)),
            jobs,
            max_line,
        }
    }
}

/// Reads newline-delimited items from `reader` with a hard per-line
/// byte cap — an oversized line is discarded to its newline and
/// surfaced as [`LineItem::Oversized`], so a hostile client cannot make
/// the daemon buffer unboundedly. Blank lines are skipped. `sink`
/// returns `false` to stop early.
///
/// # Errors
/// Propagates reader I/O failures.
pub fn read_lines_bounded<R: Read>(
    reader: R,
    max_line: usize,
    mut sink: impl FnMut(LineItem) -> bool,
) -> io::Result<()> {
    let mut r = BufReader::new(reader);
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a trailing unterminated line still gets answered.
            if overflowed {
                let _ = sink(LineItem::Oversized);
            } else if !buf.iter().all(u8::is_ascii_whitespace) {
                let _ = sink(LineItem::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !overflowed {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                r.consume(pos + 1);
                let item = if overflowed || buf.len() > max_line {
                    Some(LineItem::Oversized)
                } else if buf.iter().all(u8::is_ascii_whitespace) {
                    None
                } else {
                    Some(LineItem::Line(String::from_utf8_lossy(&buf).into_owned()))
                };
                buf.clear();
                overflowed = false;
                if let Some(item) = item {
                    if !sink(item) {
                        return Ok(());
                    }
                }
            }
            None => {
                if !overflowed {
                    buf.extend_from_slice(chunk);
                    if buf.len() > max_line {
                        overflowed = true;
                        buf = Vec::new();
                    }
                }
                let n = chunk.len();
                r.consume(n);
            }
        }
    }
}

fn process_job(
    engine: &ServeEngine,
    item: &LineItem,
    seq: u64,
    arrival: Instant,
    max_line: usize,
) -> Reply {
    match item {
        LineItem::Line(l) => engine.handle_timed_sealed(l, seq, arrival),
        LineItem::Oversized => engine.handle_oversized_sealed(seq, max_line),
    }
}

/// After the shutdown ack: answer every job already admitted (plus a
/// short grace window for readers that raced the drain flag), then
/// abandon the queue. Every drained job still gets its typed response —
/// a clean drain never silently drops an admitted request.
fn drain_remaining(
    engine: &ServeEngine,
    jobs: &Receiver<Job>,
    admission: &Admission,
    max_line: usize,
) {
    loop {
        match jobs.recv_timeout(DRAIN_GRACE) {
            Ok(job) => {
                admission.leave();
                let reply = process_job(engine, &job.item, job.seq, job.arrival, max_line);
                let _ = job.reply.send(reply);
            }
            Err(_) => return,
        }
    }
}

/// The micro-batching dispatcher: drains whatever is admitted (up to
/// `opts.batch` jobs), answers the batch across the rayon pool, and
/// routes each response back to its connection's reply slot. Polls the
/// reload signal (SIGHUP) between batches. On a shutdown ack it flips
/// the engine to `draining`, answers everything still queued, and
/// exits; otherwise it runs until the job channel closes.
pub fn run_batcher(
    engine: &ServeEngine,
    jobs: &Receiver<Job>,
    admission: &Admission,
    opts: &ServeOpts,
) {
    let batch = opts.batch.max(1);
    loop {
        if let Some(signal) = &opts.reload_signal {
            if signal.swap(false, Ordering::SeqCst) {
                let report = engine.reload();
                eprintln!("pv-serve: SIGHUP {}", report.summary_line());
            }
        }
        let first = match jobs.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let mut pending = vec![first];
        while pending.len() < batch {
            match jobs.try_recv() {
                Ok(job) => pending.push(job),
                Err(_) => break,
            }
        }
        for _ in &pending {
            admission.leave();
        }
        pv_obs::counter_inc!("pv.serve.batch");
        let work: Vec<(&LineItem, u64, Instant)> = pending
            .iter()
            .map(|j| (&j.item, j.seq, j.arrival))
            .collect();
        let results: Vec<Reply> = work
            .into_par_iter()
            .map(|(item, seq, arrival)| process_job(engine, item, seq, arrival, opts.max_line))
            .collect();
        let mut saw_shutdown = false;
        for (job, reply) in pending.iter().zip(results) {
            saw_shutdown |= reply.shutdown;
            // A vanished client already closed its reply channel; fine.
            let _ = job.reply.send(reply);
        }
        if saw_shutdown {
            engine.begin_drain();
            drain_remaining(engine, jobs, admission, opts.max_line);
            return;
        }
    }
}

/// Pumps one client: a reader thread feeds the shared job queue
/// (shedding at admission when the queue is full and rejecting lines
/// once the daemon drains), this thread writes responses back in
/// request order through per-request reply slots. Returns `Ok(true)`
/// when the client's shutdown request was acked (after the ack is
/// flushed, so the flag flip in the caller cannot race the write).
///
/// # Errors
/// Propagates writer I/O failures (a vanished client).
pub fn serve_connection<R, W>(reader: R, mut writer: W, shared: ServeShared) -> io::Result<bool>
where
    R: Read + Send + 'static,
    W: Write,
{
    // A channel of per-request reply slots: the reader creates one slot
    // per line *in arrival order*; shed/draining responses are answered
    // into their slot immediately while admitted jobs are answered by
    // the dispatcher — the writer consumes slots in order either way,
    // so pipelined clients always see responses in request order.
    let (slots_tx, slots_rx) = mpsc::channel::<Receiver<Reply>>();
    let ServeShared {
        engine,
        admission,
        seq,
        jobs,
        max_line,
    } = shared;
    std::thread::spawn(move || {
        let _ = read_lines_bounded(reader, max_line, |item| {
            let seq = seq.fetch_add(1, Ordering::SeqCst);
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            if slots_tx.send(reply_rx).is_err() {
                return false; // Writer is gone; stop reading.
            }
            let immediate = if engine.is_draining() {
                Some(engine.handle_draining())
            } else if engine.plan().sheds_at(seq) {
                Some(engine.handle_shed(format!("injected shed at arrival sequence {seq}")))
            } else if !admission.try_enter() {
                Some(engine.handle_shed(format!(
                    "admission queue full ({} queued)",
                    admission.capacity()
                )))
            } else {
                None
            };
            match immediate {
                Some((response, outcome)) => {
                    let _ = reply_tx.send(engine.seal_immediate(response, outcome, seq));
                    true
                }
                None => jobs
                    .send(Job {
                        item,
                        seq,
                        arrival: Instant::now(),
                        reply: reply_tx,
                    })
                    .is_ok(),
            }
        });
    });
    for slot in slots_rx {
        let Ok(reply) = slot.recv() else {
            // The job's reply sender was dropped unanswered — the
            // daemon is coming down; stop writing.
            return Ok(false);
        };
        let write_start = Instant::now();
        if reply.shutdown {
            // Best-effort ack: the client may legitimately hang up the
            // moment it has read the ack bytes, racing our trailing
            // newline/flush into an EPIPE. The daemon is coming down
            // either way, so a failed ack write must not eat the
            // shutdown signal.
            let _ = writer.write_all(reply.text.as_bytes());
            let _ = writer.write_all(b"\n");
            let _ = writer.flush();
            if let Some(record) = reply.record {
                record.finish(write_start.elapsed().as_nanos() as u64);
            }
            return Ok(true);
        }
        writer.write_all(reply.text.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if let Some(record) = reply.record {
            record.finish(write_start.elapsed().as_nanos() as u64);
        }
    }
    Ok(false)
}

/// Serves stdin/stdout until EOF or a shutdown request.
///
/// # Errors
/// Propagates stdout failures.
pub fn run_stdio(engine: Arc<ServeEngine>, opts: ServeOpts) -> io::Result<()> {
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let admission = Arc::new(Admission::new(opts.queue));
    let batcher = {
        let engine = Arc::clone(&engine);
        let admission = Arc::clone(&admission);
        let opts = opts.clone();
        std::thread::spawn(move || run_batcher(&engine, &jobs_rx, &admission, &opts))
    };
    let shared = ServeShared::new(engine, admission, jobs_tx, opts.max_line);
    let result = serve_connection(io::stdin(), io::stdout(), shared);
    // EOF: the job senders are dropped, the batcher drains and exits.
    // Shutdown: the batcher finishes its drain within the grace window.
    let _ = batcher.join();
    result.map(|_| ())
}

/// Serves a unix socket until a shutdown request, accepting any number
/// of concurrent clients.
///
/// # Errors
/// Fails when the socket cannot be bound.
pub fn run_socket(engine: Arc<ServeEngine>, path: &Path, opts: ServeOpts) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let admission = Arc::new(Admission::new(opts.queue));
    let batcher = {
        let engine = Arc::clone(&engine);
        let admission = Arc::clone(&admission);
        let opts = opts.clone();
        std::thread::spawn(move || run_batcher(&engine, &jobs_rx, &admission, &opts))
    };
    let shared = ServeShared::new(engine, admission, jobs_tx, opts.max_line);
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    if let Ok(true) = serve_connection(read_half, &stream, shared) {
                        shutdown.store(true, Ordering::SeqCst);
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    if shutdown.load(Ordering::SeqCst) {
        // The dispatcher finished (or is finishing) its drain; wait so
        // the final metrics snapshot sees every counted response.
        let _ = batcher.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{uc1_config, CAMPAIGN_SEED};
    use pv_core::registry::{artifact_key, Artifact as RegistryArtifact, ModelRegistry};
    use pv_core::sweep::CellConfig;
    use pv_core::{ModelKind, ReprKind};
    use pv_sysmodel::{Corpus, SystemModel};

    fn tiny_engine() -> (ServeEngine, u64, Corpus) {
        let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
        let mut cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
        cfg.seed = CAMPAIGN_SEED;
        let include: Vec<usize> = (0..corpus.len()).collect();
        let p = FewRunsPredictor::train(&corpus, &include, cfg).expect("train");
        let key = artifact_key(1, &CellConfig::FewRuns(cfg)).expect("key");
        let mut models = HashMap::new();
        models.insert(key, ServedModel::FewRuns(p));
        (ServeEngine::from_models(models), key, corpus)
    }

    fn request_line(key: u64, profile: &Profile) -> String {
        format!(
            "{{\"model\": \"{key:016x}\", \"profile\": {}, \"n_samples\": 50, \"sample_seed\": 1}}",
            serde_json::to_string(profile).expect("profile json")
        )
    }

    #[test]
    fn well_formed_request_gets_ok_with_samples() {
        let (engine, key, corpus) = tiny_engine();
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let (resp, outcome) = engine.handle_line(&request_line(key, &profile));
        assert_eq!(outcome, Outcome::Ok, "{resp}");
        assert!(
            resp.contains("\"ok\": true") || resp.contains("\"ok\":true"),
            "{resp}"
        );
        assert!(resp.contains("samples"), "{resp}");
    }

    #[test]
    fn malformed_and_unknown_requests_get_typed_errors() {
        let (engine, key, corpus) = tiny_engine();
        let (resp, outcome) = engine.handle_line("this is not json");
        assert_eq!(outcome, Outcome::BadRequest);
        assert!(resp.contains("bad-request"), "{resp}");
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let (resp, outcome) = engine.handle_line(&request_line(key ^ 1, &profile));
        assert_eq!(outcome, Outcome::NotFound);
        assert!(resp.contains("not-found"), "{resp}");
    }

    #[test]
    fn bounded_reader_flags_oversized_lines_and_recovers() {
        let input = format!("{}\nshort\n", "x".repeat(100));
        let mut items = Vec::new();
        read_lines_bounded(input.as_bytes(), 10, |item| {
            items.push(matches!(item, LineItem::Oversized));
            true
        })
        .expect("read");
        assert_eq!(items, vec![true, false]);
    }

    #[test]
    fn shutdown_request_is_acked() {
        let (engine, _, _) = tiny_engine();
        let (resp, outcome) = engine.handle_line("{\"shutdown\": true, \"id\": 7}");
        assert_eq!(outcome, Outcome::Shutdown);
        assert!(resp.contains("shutdown"), "{resp}");
        assert!(resp.contains('7'), "{resp}");
        let (resp, outcome) = engine.handle_line("{\"op\": \"shutdown\", \"id\": 9}");
        assert_eq!(outcome, Outcome::Shutdown);
        assert!(resp.contains('9'), "{resp}");
    }

    #[test]
    fn expired_deadline_yields_typed_timeout_with_id_echo() {
        let (engine, key, corpus) = tiny_engine();
        let engine = engine.with_deadline(Some(Duration::ZERO));
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = format!(
            "{{\"id\": 42, \"model\": \"{key:016x}\", \"profile\": {}}}",
            serde_json::to_string(&profile).expect("json")
        );
        let (resp, outcome) = engine.handle_timed(&line, 0, Instant::now());
        assert_eq!(outcome, Outcome::Timeout, "{resp}");
        assert!(resp.contains("timeout"), "{resp}");
        assert!(resp.contains("42"), "{resp}");
        // Ops are exempt from the deadline.
        let (resp, outcome) = engine.handle_timed("{\"op\": \"health\"}", 1, Instant::now());
        assert_eq!(outcome, Outcome::Health, "{resp}");
    }

    #[test]
    fn virtual_slow_fault_blows_the_deadline_without_the_real_sleep() {
        let (engine, key, corpus) = tiny_engine();
        let engine = engine
            .with_deadline(Some(Duration::from_secs(3600)))
            .with_fault_plan(ServeFaultPlan::none().inject_slow(5, 86_400_000));
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = request_line(key, &profile);
        // Un-faulted sequence: well within the deadline.
        let started = Instant::now();
        let (_, outcome) = engine.handle_timed(&line, 4, Instant::now());
        assert_eq!(outcome, Outcome::Ok);
        // Faulted sequence: a day of virtual delay versus an hour of
        // deadline — times out, but only ~SLOW_FAULT_REAL_CAP of real
        // time passes.
        let (resp, outcome) = engine.handle_timed(&line, 5, Instant::now());
        assert_eq!(outcome, Outcome::Timeout, "{resp}");
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn admission_queue_sheds_at_capacity_and_tracks_watermark() {
        let q = Admission::new(2);
        assert!(q.try_enter());
        assert!(q.try_enter());
        assert!(!q.try_enter(), "third admit must shed");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.high_watermark(), 2);
        q.leave();
        assert!(q.try_enter(), "a freed slot re-admits");
        q.leave();
        q.leave();
        assert_eq!(q.depth(), 0);
        assert_eq!(q.high_watermark(), 2, "watermark never recedes");
        // Capacity 0 is unbounded.
        let unbounded = Admission::new(0);
        for _ in 0..10_000 {
            assert!(unbounded.try_enter());
        }
    }

    #[test]
    fn shed_and_draining_responses_are_typed() {
        let (engine, _, _) = tiny_engine();
        let (resp, outcome) = engine.handle_shed("queue full".into());
        assert_eq!(outcome, Outcome::Overloaded);
        assert!(resp.contains("overloaded"), "{resp}");
        assert!(!engine.is_draining());
        engine.begin_drain();
        assert!(engine.is_draining());
        let (resp, outcome) = engine.handle_draining();
        assert_eq!(outcome, Outcome::Draining);
        assert!(resp.contains("draining"), "{resp}");
    }

    #[test]
    fn health_probe_reports_state_and_models() {
        let (engine, key, _) = tiny_engine();
        let (resp, outcome) = engine.handle_line("{\"op\": \"health\", \"id\": 3}");
        assert_eq!(outcome, Outcome::Health, "{resp}");
        assert!(resp.contains("\"status\": \"ok\"") || resp.contains("\"status\":\"ok\""));
        assert!(resp.contains(&format!("{key:016x}")), "{resp}");
        assert!(resp.contains("staleness_s"), "{resp}");
        engine.begin_drain();
        let (resp, _) = engine.handle_line("{\"op\": \"health\"}");
        assert!(resp.contains("draining"), "{resp}");
    }

    #[test]
    fn reload_without_a_registry_is_a_typed_failure() {
        let (engine, _, _) = tiny_engine();
        let (resp, outcome) = engine.handle_line("{\"op\": \"reload\"}");
        assert_eq!(outcome, Outcome::Reload, "{resp}");
        assert!(resp.contains("reload-failed"), "{resp}");
        assert_eq!(engine.state(), ServeState::Degraded);
    }

    fn registry_with_model(tag: &str) -> (ModelRegistry, std::path::PathBuf, u64, Corpus) {
        let dir = std::env::temp_dir().join(format!("pv-serve-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = ModelRegistry::new(&dir);
        let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
        let mut cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
        cfg.seed = CAMPAIGN_SEED;
        let include: Vec<usize> = (0..corpus.len()).collect();
        let p = FewRunsPredictor::train(&corpus, &include, cfg).expect("train");
        let fp = pv_core::corpus_fingerprint(&corpus);
        let key = registry
            .store(fp, &RegistryArtifact::FewRuns(p.to_artifact()))
            .expect("store");
        (registry, dir, key, corpus)
    }

    #[test]
    fn reload_swaps_in_new_entries_and_keeps_old_on_corruption() {
        let (registry, dir, key, corpus) = registry_with_model("reload");
        let engine = ServeEngine::from_registry(&registry).expect("load");
        assert_eq!(engine.keys(), vec![key]);
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = request_line(key, &profile);
        let (before, outcome) = engine.handle_line(&line);
        assert_eq!(outcome, Outcome::Ok);

        // A clean reload keeps serving bit-identically.
        let report = engine.reload();
        assert!(report.swapped());
        assert_eq!(report.loaded, 1);
        assert_eq!(engine.state(), ServeState::Ok);
        let (after, _) = engine.handle_line(&line);
        assert_eq!(before, after);

        // Corrupt the entry on disk: the reload keeps the old model
        // serving, marks it held over, and degrades the daemon.
        let entry_path = dir.join(format!("model-{key:016x}.json"));
        std::fs::write(&entry_path, "{\"vandalized\": true}").expect("corrupt");
        let report = engine.reload();
        assert!(report.swapped());
        assert_eq!(report.loaded, 0);
        assert_eq!(report.held_over.len(), 1);
        assert_eq!(engine.state(), ServeState::Degraded);
        let (after_corrupt, outcome) = engine.handle_line(&line);
        assert_eq!(outcome, Outcome::Ok, "old model must keep serving");
        assert_eq!(before, after_corrupt);
        let (health, _) = engine.handle_line("{\"op\": \"health\"}");
        assert!(health.contains("degraded"), "{health}");
        assert!(health.contains("\"held_over\": true") || health.contains("\"held_over\":true"));

        // Delete the entry: the model is dropped on the next reload.
        std::fs::remove_file(&entry_path).expect("rm");
        let report = engine.reload();
        assert!(report.swapped());
        assert_eq!(report.dropped, 1);
        assert!(engine.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_reload_io_fault_keeps_old_snapshot_until_retry() {
        let (registry, dir, key, corpus) = registry_with_model("reload-io");
        let engine = ServeEngine::from_registry(&registry)
            .expect("load")
            .with_fault_plan(ServeFaultPlan::none().inject_reload_io(0));
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = request_line(key, &profile);
        let (before, _) = engine.handle_line(&line);

        let report = engine.reload();
        assert!(!report.swapped());
        assert_eq!(engine.state(), ServeState::Degraded);
        let (during, outcome) = engine.handle_line(&line);
        assert_eq!(outcome, Outcome::Ok, "old snapshot must keep serving");
        assert_eq!(before, during);

        // The fault was keyed to attempt 0; attempt 1 recovers.
        let report = engine.reload();
        assert!(report.swapped());
        assert_eq!(engine.state(), ServeState::Ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn parse(text: &str) -> Content {
        let Json(content) =
            serde_json::from_str(text).unwrap_or_else(|e| panic!("bad json {e}: {text}"));
        content
    }

    /// Walks a dotted path through nested [`Content`] maps.
    fn get<'a>(doc: &'a Content, path: &str) -> &'a Content {
        let mut cur = doc;
        for key in path.split('.') {
            let Content::Map(map) = cur else {
                panic!("{path}: {key} is not inside a map: {cur:?}")
            };
            cur = &map
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{path}: missing key {key} in {map:?}"))
                .1;
        }
        cur
    }

    fn get_u64(doc: &Content, path: &str) -> u64 {
        match get(doc, path) {
            Content::U64(v) => *v,
            Content::I64(v) => *v as u64,
            other => panic!("{path}: not an integer: {other:?}"),
        }
    }

    fn get_f64(doc: &Content, path: &str) -> f64 {
        match get(doc, path) {
            Content::F64(v) => *v,
            Content::U64(v) => *v as f64,
            Content::I64(v) => *v as f64,
            other => panic!("{path}: not a number: {other:?}"),
        }
    }

    fn get_str<'a>(doc: &'a Content, path: &str) -> &'a str {
        match get(doc, path) {
            Content::Str(s) => s.as_str(),
            other => panic!("{path}: not a string: {other:?}"),
        }
    }

    #[test]
    fn stats_op_reports_totals_windows_and_counts_itself() {
        let (engine, key, corpus) = tiny_engine();
        let engine = Arc::new(engine);
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = request_line(key, &profile);
        for seq in 0..3 {
            let reply = engine.handle_timed_sealed(&line, seq, Instant::now());
            assert!(reply.text.contains("\"ok\":true"), "{}", reply.text);
        }
        let reply = engine.handle_timed_sealed("{\"op\": \"stats\", \"id\": 8}", 3, Instant::now());
        let doc = parse(&reply.text);
        assert_eq!(get(&doc, "ok"), &Content::Bool(true), "{doc:?}");
        assert_eq!(get_str(&doc, "op"), "stats");
        assert_eq!(get_u64(&doc, "id"), 8);
        assert_eq!(get_str(&doc, "status"), "ok");
        // The stats reply is rendered before its own seal: 3 sealed.
        assert_eq!(get_u64(&doc, "totals.requests"), 3);
        assert_eq!(get_u64(&doc, "totals.ok"), 3);
        assert_eq!(get_u64(&doc, "totals.timeout"), 0);
        let Content::Seq(windows) = get(&doc, "windows") else {
            panic!("windows is not a list: {doc:?}")
        };
        assert_eq!(windows.len(), WINDOWS.len());
        for w in windows {
            assert_eq!(get_u64(w, "requests"), 3, "{w:?}");
            assert_eq!(get_u64(w, "ok"), 3, "{w:?}");
            assert_eq!(get_u64(w, "latency.count"), 3, "{w:?}");
            assert!(get_u64(w, "latency.p50_ns") > 0, "{w:?}");
            assert!(get_f64(w, "rate") > 0.0, "{w:?}");
        }
        // Afterwards the stats request itself is sealed too.
        assert_eq!(engine.telemetry().total_requests(), 4);
        assert_eq!(engine.telemetry().total_outcome(Outcome::Stats), 1);
        // The deadline never applies to stats.
        let engine2 = ServeEngine::from_models(HashMap::new()).with_deadline(Some(Duration::ZERO));
        let (resp, outcome) = engine2.handle_timed("{\"op\": \"stats\"}", 0, Instant::now());
        assert_eq!(outcome, Outcome::Stats, "{resp}");
    }

    #[test]
    fn injected_worker_panic_is_caught_typed_and_isolated() {
        pv_core::resilience::silence_injected_panics();
        let (engine, key, corpus) = tiny_engine();
        let engine = Arc::new(engine.with_fault_plan(ServeFaultPlan::none().inject_panic(1)));
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = request_line(key, &profile);
        let before = engine.handle_timed_sealed(&line, 0, Instant::now());
        assert!(before.text.contains("\"ok\":true"), "{}", before.text);
        let panicked = engine.handle_timed_sealed(&line, 1, Instant::now());
        let doc = parse(&panicked.text);
        assert_eq!(get(&doc, "ok"), &Content::Bool(false), "{doc:?}");
        assert_eq!(get_str(&doc, "error.kind"), "panic", "{doc:?}");
        // The engine keeps serving bit-identically after the panic.
        let after = engine.handle_timed_sealed(&line, 2, Instant::now());
        assert_eq!(before.text, after.text);
        assert_eq!(engine.telemetry().total_requests(), 3);
        assert_eq!(engine.telemetry().total_outcome(Outcome::Error), 1);
        assert_eq!(engine.telemetry().total_outcome(Outcome::Ok), 2);
    }

    #[test]
    fn slo_budget_burns_on_failures_and_skips_ops() {
        let (engine, key, corpus) = tiny_engine();
        let telemetry = ServeTelemetry::new(TelemetryOpts {
            slo: Some(Duration::from_secs(3600)),
            ..TelemetryOpts::default()
        })
        .expect("telemetry");
        let engine = Arc::new(engine.with_telemetry(telemetry));
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = request_line(key, &profile);
        for seq in 0..4 {
            engine.handle_timed_sealed(&line, seq, Instant::now());
        }
        // A bad request burns budget; ops never enter the budget.
        engine.handle_timed_sealed("this is not json", 4, Instant::now());
        engine.handle_timed_sealed("{\"op\": \"health\"}", 5, Instant::now());
        let (health, _) = engine.handle_line("{\"op\": \"health\"}");
        let doc = parse(&health);
        assert_eq!(get_u64(&doc, "slo.target_ms"), 3_600_000, "{doc:?}");
        assert_eq!(get_u64(&doc, "slo.eligible"), 5, "{doc:?}");
        assert_eq!(get_u64(&doc, "slo.violations"), 1, "{doc:?}");
        let burn = get_f64(&doc, "slo.burn.total");
        assert!((burn - 0.2).abs() < 1e-12, "{doc:?}");
        // The stats document carries the same block.
        let stats = parse(&engine.stats_json());
        assert_eq!(get_u64(&stats, "slo.eligible"), 5, "{stats:?}");
    }

    #[test]
    fn slo_violation_when_latency_exceeds_target() {
        let (engine, key, corpus) = tiny_engine();
        let telemetry = ServeTelemetry::new(TelemetryOpts {
            slo: Some(Duration::from_millis(1)),
            ..TelemetryOpts::default()
        })
        .expect("telemetry");
        // A 10-minute virtual delay with a generous deadline: the
        // request still answers `ok`, but far over the 1ms target.
        let engine = Arc::new(
            engine
                .with_deadline(Some(Duration::from_secs(3600)))
                .with_fault_plan(ServeFaultPlan::none().inject_slow(0, 600_000))
                .with_telemetry(telemetry),
        );
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let reply = engine.handle_timed_sealed(&request_line(key, &profile), 0, Instant::now());
        assert!(reply.text.contains("\"ok\":true"), "{}", reply.text);
        let doc = parse(&engine.stats_json());
        assert_eq!(get_u64(&doc, "slo.eligible"), 1, "{doc:?}");
        assert_eq!(get_u64(&doc, "slo.violations"), 1, "{doc:?}");
    }

    #[test]
    fn flight_recorder_trips_once_on_shed_burst() {
        let dump = std::env::temp_dir().join(format!(
            "pv-serve-unit-recorder-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&dump);
        let (engine, _, _) = tiny_engine();
        let telemetry = ServeTelemetry::new(TelemetryOpts {
            recorder: Some(dump.clone()),
            recorder_capacity: 4,
            anomaly_threshold: 2,
            ..TelemetryOpts::default()
        })
        .expect("telemetry");
        let engine = Arc::new(engine.with_telemetry(telemetry));
        assert!(!dump.exists(), "recorder must not dump before an anomaly");
        for seq in 0..2 {
            let (text, outcome) = engine.handle_shed("queue full".into());
            engine.seal_immediate(text, outcome, seq);
        }
        assert!(dump.exists(), "two sheds in 10s must trip the recorder");
        let first = std::fs::read_to_string(&dump).expect("dump");
        let mut lines = first.lines();
        let header = parse(lines.next().expect("header"));
        assert_eq!(get_str(&header, "trigger"), "shed-burst", "{header:?}");
        assert_eq!(get_u64(&header, "seq"), 1, "{header:?}");
        assert_eq!(get_u64(&header, "events"), 2, "{header:?}");
        let ring: Vec<Content> = lines.map(parse).collect();
        assert_eq!(ring.len(), 2, "{first}");
        assert_eq!(get_u64(&ring[0], "seq"), 0);
        assert_eq!(get_str(&ring[0], "outcome"), "overloaded");
        assert_eq!(get_u64(&ring[1], "seq"), 1);
        // The latch is one-shot: later anomalies never overwrite the
        // first post-mortem.
        let (text, outcome) = engine.handle_shed("queue full".into());
        engine.seal_immediate(text, outcome, 2);
        engine.telemetry().trip_recorder("reload-failed", 9);
        assert_eq!(std::fs::read_to_string(&dump).expect("dump"), first);
        let _ = std::fs::remove_file(&dump);
    }

    #[test]
    fn access_log_writes_exactly_one_reconciling_line_per_request() {
        let log =
            std::env::temp_dir().join(format!("pv-serve-unit-access-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&log);
        let (engine, key, corpus) = tiny_engine();
        let telemetry = ServeTelemetry::new(TelemetryOpts {
            access_log: Some(log.clone()),
            ..TelemetryOpts::default()
        })
        .expect("telemetry");
        let engine = Arc::new(engine.with_telemetry(telemetry));
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        let line = request_line(key, &profile);
        // finish() logs the measured write time; a dropped handle (the
        // client vanished) still logs its line with write_ns 0.
        let finished = engine.handle_timed_sealed(&line, 0, Instant::now());
        finished.record.expect("record").finish(77);
        let dropped = engine.handle_timed_sealed("not json", 1, Instant::now());
        drop(dropped);
        let text = std::fs::read_to_string(&log).expect("access log");
        let entries: Vec<Content> = text.lines().map(parse).collect();
        assert_eq!(entries.len(), 2, "{text}");
        assert_eq!(get_u64(&entries[0], "req"), 0);
        assert_eq!(get_str(&entries[0], "outcome"), "ok");
        assert_eq!(get_str(&entries[0], "model"), format!("{key:016x}"));
        assert_eq!(get_u64(&entries[0], "write_ns"), 77);
        assert_eq!(get_u64(&entries[1], "req"), 1);
        assert_eq!(get_str(&entries[1], "outcome"), "bad");
        assert_eq!(get(&entries[1], "model"), &Content::Null);
        assert_eq!(get_u64(&entries[1], "write_ns"), 0);
        for e in &entries {
            let total = get_u64(e, "queue_ns") + get_u64(e, "predict_ns") + get_u64(e, "write_ns");
            assert_eq!(get_u64(e, "total_ns"), total, "{e:?}");
        }
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn telemetry_prometheus_renders_without_a_collector() {
        let (engine, key, corpus) = tiny_engine();
        let engine = Arc::new(engine);
        let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
        engine.handle_timed_sealed(&request_line(key, &profile), 0, Instant::now());
        let prom = engine.telemetry_prometheus();
        assert!(
            prom.contains("pv_serve_request 1"),
            "exact totals must render without an obs collector:\n{prom}"
        );
        assert!(prom.contains("pv_serve_request_ok 1"), "{prom}");
        assert!(
            prom.contains("pv_serve_window_latency_ns_count 1"),
            "{prom}"
        );
        assert!(prom.contains("pv_serve_window_latency_ns_bucket"), "{prom}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// One engine for every case: training dominates a case's cost.
        fn engine() -> &'static (ServeEngine, String) {
            static ENGINE: OnceLock<(ServeEngine, String)> = OnceLock::new();
            ENGINE.get_or_init(|| {
                let (engine, key, corpus) = tiny_engine();
                let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
                (engine, request_line(key, &profile))
            })
        }

        /// The reply contract for any line: one JSON document carrying a
        /// boolean `ok`, and a typed `error.kind` whenever `ok` is false.
        fn assert_typed_reply(line: &str) -> Result<(), TestCaseError> {
            let (reply, _) = engine().0.handle_line(line);
            let Ok(Json(doc)) = serde_json::from_str::<Json>(&reply) else {
                return Err(TestCaseError::fail(format!("not JSON: {reply}")));
            };
            match get(&doc, "ok") {
                Content::Bool(true) => {}
                Content::Bool(false) => {
                    prop_assert!(
                        matches!(get(&doc, "error.kind"), Content::Str(k) if !k.is_empty()),
                        "untyped error: {reply}"
                    );
                }
                other => prop_assert!(false, "ok is {other:?}: {reply}"),
            }
            Ok(())
        }

        fn line_of(bytes: &[u8]) -> String {
            // The daemon splits on newlines and decodes lossily.
            String::from_utf8_lossy(bytes).replace('\n', " ")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn random_byte_lines_get_one_typed_reply(
                bytes in prop::collection::vec(any::<u8>(), 0..300),
            ) {
                assert_typed_reply(&line_of(&bytes))?;
            }

            /// A valid request with one byte overwritten, cut short, a
            /// span deleted, or a run of brackets spliced in.
            #[test]
            fn mutated_requests_get_one_typed_reply(
                mode in 0u8..4,
                pos in any::<usize>(),
                byte in any::<u8>(),
                len in 0usize..400,
            ) {
                let mut bytes = engine().1.clone().into_bytes();
                let at = pos % bytes.len();
                match mode {
                    0 => bytes[at] = byte,
                    1 => bytes.truncate(at),
                    2 => {
                        bytes.drain(at..(at + len % 24).min(bytes.len()));
                    }
                    _ => {
                        let open = [b'[', b'{'][usize::from(byte) % 2];
                        bytes.splice(at..at, std::iter::repeat_n(open, len));
                    }
                }
                assert_typed_reply(&line_of(&bytes))?;
            }
        }
    }
}
