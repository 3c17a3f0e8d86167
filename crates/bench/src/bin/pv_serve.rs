//! `pv-serve` — a long-lived query daemon over a trained-model registry.
//!
//! Loads every verified entry of a [`ModelRegistry`] once at startup and
//! answers line-delimited JSON prediction requests until EOF or a
//! `{"shutdown": true}` request. Speaks stdin/stdout by default or a
//! unix socket with `--socket`; concurrent queries are micro-batched
//! across the rayon pool. Diagnostics go to stderr — stdout is the
//! protocol channel.
//!
//! Production resilience: `--deadline-ms` bounds every prediction with
//! a typed `timeout` response, `--queue` bounds admission with typed
//! `overloaded` shedding, `{"op": "reload"}` (or SIGHUP) hot-swaps a
//! freshly verified registry snapshot without dropping in-flight
//! requests, and `{"op": "health"}` reports `ok|degraded|draining`
//! readiness. `--inject-serve` installs a deterministic chaos plan for
//! testing.
//!
//! ```text
//! cargo run -p pv-bench --release --bin repro -- train --registry target/registry
//! cargo run -p pv-bench --release --bin pv-serve -- --registry target/registry \
//!     --socket /tmp/pv-serve.sock --deadline-ms 2000 --metrics-out METRICS.json
//! ```

#![warn(clippy::unwrap_used)]

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pv_bench::cli::{usage, Args, CliError, Command};
use pv_bench::serve::{
    preregister_serve_counters, run_socket, run_stdio, ServeEngine, ServeOpts, ServeTelemetry,
    TelemetryOpts, DEFAULT_BATCH, DEFAULT_MAX_LINE, DEFAULT_QUEUE,
};
use pv_core::registry::ModelRegistry;
use pv_core::resilience::ServeFaultPlan;
use pv_core::store::write_atomic;

const HELP: &str = "\
pv-serve — answer prediction queries from a trained-model registry

USAGE:
    pv-serve --registry DIR [OPTIONS]

OPTIONS:
    --registry DIR     model registry directory (required; see `repro train`)
    --socket PATH      serve a unix socket instead of stdin/stdout
    --batch N          micro-batch size across the rayon pool (default 64)
    --max-line BYTES   per-request line cap (default 1048576)
    --deadline-ms MS   per-request prediction deadline; expired requests
                       get a typed timeout response (0 = off, default)
    --queue N          admission queue capacity; a full queue sheds with
                       typed overloaded responses (default 1024, 0 = unbounded)
    --inject-serve SPEC  deterministic serving chaos plan, e.g.
                       \"slow@3:5000,shed@7,reload-io@0,panic@9\" (slow/shed/
                       panic key on request arrival sequence, reload-io on
                       reload attempt)
    --slo-ms MS        latency SLO: request-class answers slower than this
                       (or failed) burn error budget, reported by
                       {\"op\": \"health\"} and {\"op\": \"stats\"}
    --access-log FILE  append one JSONL line per answered request with the
                       outcome, model key, and queue/predict/write latency
                       breakdown
    --telemetry-out FILE        periodically flush the stats document
                       (same JSON as {\"op\": \"stats\"}) via temp+rename
    --telemetry-prom FILE       periodically flush a Prometheus exposition
                       of the serving counters and latency windows
    --telemetry-interval-ms MS  flush cadence (default 1000)
    --flight-recorder FILE      arm the post-mortem flight recorder: on the
                       first anomaly (shed/timeout burst, worker panic,
                       failed reload) dump the last N request events as JSONL
    --recorder-capacity N       flight-recorder ring size (default 256)
    --anomaly-threshold N       10s-windowed shed/timeout count that trips
                       the recorder (default 32, 0 = burst triggers off)
    --trace-out FILE   write the JSONL span trace at exit
    --metrics-out FILE write the metrics snapshot at exit
    --obs-summary      print the observability summary at exit
    --help             show this help

PROTOCOL (one JSON object per line, one JSON reply per line):
    {\"profile\": {...}, \"model\": \"<16-hex-key>\", \"n_samples\": 1000,
     \"sample_seed\": 0, \"rel_times\": [...]}   -> {\"ok\": true, \"prediction\":
    {\"features\": [...], \"samples\": [...]}, \"ks_confidence\": ...}
    {\"op\": \"health\"}                          -> readiness + model staleness
    {\"op\": \"stats\"}                           -> live totals, 10s/1m/5m windows,
                                                  latency quantiles, SLO budget
    {\"op\": \"reload\"}                          -> re-verify registry, atomic swap
    {\"shutdown\": true}                         -> ack, drain, then exit 0

SIGHUP triggers the same hot reload as {\"op\": \"reload\"}: entries that
fail verification keep their previously loaded version serving and mark
the daemon degraded — a bad deploy can never crash the serving path.
Malformed requests get a typed error reply, never a crash; an unknown
model key gets a not-found reply listing how many models are loaded.";

const SERVE: Command = Command {
    name: "pv-serve",
    help: HELP,
    values: "--registry --socket --batch --max-line --deadline-ms --queue --inject-serve --slo-ms \
             --access-log --telemetry-out --telemetry-prom --telemetry-interval-ms \
             --flight-recorder --recorder-capacity --anomaly-threshold",
    switches: "",
    operands: false,
    main: serve,
};

/// Writes the stats document and/or the Prometheus exposition via
/// temp+rename, so scrapers never read a torn file.
fn flush_telemetry(engine: &ServeEngine, stats: Option<&Path>, prom: Option<&Path>) {
    if let Some(path) = stats {
        let doc = format!("{}\n", engine.stats_json());
        if let Err(e) = write_atomic(path, doc.as_bytes()) {
            eprintln!("pv-serve: telemetry flush failed: {e}");
        }
    }
    if let Some(path) = prom {
        if let Err(e) = write_atomic(path, engine.telemetry_prometheus().as_bytes()) {
            eprintln!("pv-serve: prometheus flush failed: {e}");
        }
    }
}

/// Raised by the SIGHUP handler, polled by the dispatcher between
/// batches (plain flag — all the reload work happens on the dispatcher
/// thread, the handler itself is async-signal-safe).
static RELOAD_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sighup() {
    // glibc is already linked; declare `signal` directly rather than
    // growing a libc dependency for one call.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_sighup(_signum: i32) {
        RELOAD_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGHUP: i32 = 1;
    unsafe {
        signal(SIGHUP, on_sighup);
    }
}

#[cfg(not(unix))]
fn install_sighup() {}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    SERVE.run(&argv);
}

fn serve(args: &Args) -> Result<(), CliError> {
    let registry_dir = args
        .path("--registry")
        .ok_or_else(|| usage("--registry DIR is required"))?;
    let millis = |flag: &str| -> Result<Option<Duration>, CliError> {
        let ms: u64 = args.get(flag, 0)?;
        Ok((ms > 0).then(|| Duration::from_millis(ms)))
    };
    let defaults = TelemetryOpts::default();
    let telemetry = TelemetryOpts {
        access_log: args.path("--access-log"),
        slo: millis("--slo-ms")?,
        recorder: args.path("--flight-recorder"),
        recorder_capacity: args
            .get("--recorder-capacity", defaults.recorder_capacity)?
            .max(1),
        anomaly_threshold: args.get("--anomaly-threshold", defaults.anomaly_threshold)?,
        ..defaults
    };
    let mut opts = ServeOpts {
        batch: args.get("--batch", DEFAULT_BATCH)?.max(1),
        max_line: args.get("--max-line", DEFAULT_MAX_LINE)?.max(64),
        queue: args.get("--queue", DEFAULT_QUEUE)?,
        reload_signal: None,
    };
    let deadline = millis("--deadline-ms")?;
    let plan: ServeFaultPlan = args.get("--inject-serve", ServeFaultPlan::none())?;
    let (stats_out, prom_out) = (args.path("--telemetry-out"), args.path("--telemetry-prom"));
    let interval = Duration::from_millis(args.get("--telemetry-interval-ms", 1000u64)?.max(10));

    let collector = args.install_obs();
    preregister_serve_counters();

    let registry = ModelRegistry::new(&registry_dir);
    let engine = match ServeEngine::from_registry(&registry) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!(
                "pv-serve: cannot load registry {}: [{}] {e}",
                registry_dir.display(),
                e.kind()
            );
            std::process::exit(1);
        }
    };
    let telemetry = match ServeTelemetry::new(telemetry) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pv-serve: cannot open access log: {e}");
            std::process::exit(1);
        }
    };
    let engine = engine
        .with_deadline(deadline)
        .with_fault_plan(plan)
        .with_telemetry(telemetry);
    if engine.is_empty() {
        eprintln!(
            "pv-serve: warning: registry {} holds no models; every query will 404",
            registry_dir.display()
        );
    } else {
        eprintln!(
            "pv-serve: {} model(s) loaded from {}",
            engine.len(),
            registry_dir.display()
        );
        for key in engine.keys() {
            eprintln!("pv-serve:   model-{key:016x}");
        }
    }
    if !engine.plan().is_empty() {
        eprintln!(
            "pv-serve: chaos plan armed with {} fault(s)",
            engine.plan().faults().len()
        );
    }

    install_sighup();
    // A static can't hold the Arc the serve loop wants; bridge via a
    // forwarder that the dispatcher polls.
    let reload_flag = Arc::new(AtomicBool::new(false));
    {
        let reload_flag = Arc::clone(&reload_flag);
        std::thread::spawn(move || loop {
            if RELOAD_REQUESTED.swap(false, Ordering::SeqCst) {
                reload_flag.store(true, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    opts.reload_signal = Some(reload_flag);

    let engine = Arc::new(engine);
    // Periodic telemetry flusher; a final flush lands after the serve loop.
    let flusher = (stats_out.is_some() || prom_out.is_some()).then(|| {
        let engine = Arc::clone(&engine);
        let (stats_out, prom_out) = (stats_out.clone(), prom_out.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                flush_telemetry(&engine, stats_out.as_deref(), prom_out.as_deref());
            }
        });
        (stop, handle)
    });
    let served = match args.path("--socket") {
        Some(path) => {
            eprintln!("pv-serve: listening on {}", path.display());
            run_socket(Arc::clone(&engine), &path, opts)
        }
        None => run_stdio(Arc::clone(&engine), opts),
    };
    if let Some((stop, handle)) = flusher {
        stop.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }
    // Final flush so the files on disk reflect the complete run.
    flush_telemetry(&engine, stats_out.as_deref(), prom_out.as_deref());
    if let Err(e) = served {
        eprintln!("pv-serve: serve loop failed: {e}");
        std::process::exit(1);
    }
    eprintln!("pv-serve: shutting down");
    args.finalize_obs(collector, pv_bench::serve::SERVE_OBS_COUNTERS);
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn pv_serve_accepts_exactly_the_flags_its_help_names() {
        let shared = ["--trace-out", "--metrics-out", "--obs-summary", "--help"];
        let mut documented: Vec<&str> = HELP
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2 && !shared.contains(w))
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let flags = SERVE.values.split_whitespace();
        let mut table: Vec<&str> = flags.chain(SERVE.switches.split_whitespace()).collect();
        table.sort_unstable();
        assert_eq!(documented, table);
    }
}
