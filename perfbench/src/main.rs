//! `perfbench` — the perfvar benchmark. See `README.md` for the
//! workloads, the metrics and the output checks.
//!
//! ```text
//! python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `run.py` builds this binary and `pv-serve` in release mode and runs
//! it with the same flags plus `--pv-serve PATH`. The last line of
//! stdout is the JSON result; the exit code is 1 when any output check
//! fails and 2 on a usage or environment error.

mod batch;
mod calib;
mod reference;
mod serve;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use stats::Tally;

/// Campaign seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = pv_bench::CAMPAIGN_SEED;

/// End-to-end metrics (reported with `--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("throughput", "1/s"),
    ("peak_heap_mb", "MB"),
    ("ks_mean", "ks"),
];

/// Per-layer metrics (reported with `--trace 1`), with units. A layer a
/// workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sysmodel.collect_ms", "ms"),
    ("pipeline.encode_ms", "ms"),
    ("shard.build_ms", "ms"),
    ("registry.seal_ms", "ms"),
    ("registry.verify_ms", "ms"),
    ("pipeline.folds", "count"),
    ("pipeline.prepare_ms", "ms"),
    ("ml.fit_ms.forest", "ms"),
    ("ml.fit_ms.gbt", "ms"),
    ("ml.fit_ms.knn", "ms"),
    ("ml.predict_ms.knn", "ms"),
    ("repr.decode_ms.histogram", "ms"),
    ("repr.decode_ms.maxent", "ms"),
    ("repr.decode_ms.pearson", "ms"),
    ("maxent.solves", "count"),
    ("maxent.converged_ratio", "ratio"),
    ("maxent.iterations_mean", "count"),
    ("stats.ks_ms", "ms"),
    ("sweep.cache_store_ms", "ms"),
    ("sweep.cache_load_ms", "ms"),
    ("sweep.cache_bytes", "bytes"),
    ("sweep.hit_ratio", "ratio"),
    ("incremental.delta_ratio", "ratio"),
    ("incremental.recomputed", "count"),
    ("shard.loads", "count"),
    ("shard.load_ms", "ms"),
    ("shard.load_ms.p99", "ms"),
    ("shard.spill_bytes", "bytes"),
    ("serve.handle_us.p50", "us"),
    ("serve.handle_us.p99", "us"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.worker_ms.p50", "ms"),
    ("serve.worker_ms.p99", "ms"),
    ("serve.write_ms.p50", "ms"),
    ("serve.write_ms.p99", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.daemon_rss_mb", "MB"),
    ("serve.shed", "count"),
    ("serve.timeout", "count"),
    ("serve.p50_ms_low", "ms"),
    ("serve.p99_ms_low", "ms"),
    ("serve.p50_ms_high", "ms"),
    ("serve.p99_ms_high", "ms"),
    ("serve.max_rps", "1/s"),
    ("gen.lag_ms.p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("fail_ratio", "ratio"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    KnnAppend,
    ScaleSharded,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::KnnAppend,
        Workload::ScaleSharded,
        Workload::ServeOpen,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::KnnAppend => "knn_append",
            Workload::ScaleSharded => "scale_sharded",
            Workload::ServeOpen => "serve_open",
        }
    }
}

/// Everything a workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's own scratch directory (caches, registry, spill).
    pub dir: PathBuf,
    pub threads: usize,
    pub sizes: batch::Sizes,
    pub pv_serve: Option<PathBuf>,
}

/// What a workload run found: metric values, operation tally, failed
/// checks and notes for the human-readable log.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn failure(e: String) -> Report {
        Report {
            errors: vec![e],
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.errors.push(what);
        }
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// The result line: every metric of the run's kind, by name and unit.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::new();
        for (name, unit) in list {
            let value = match (self.metrics.get(*name), trace) {
                (Some(v), _) => *v,
                (None, true) if *name == "fail_ratio" => self.tally.fail_ratio(),
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.errors.is_empty() && self.tally.failed == 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed,
            parts.join(", ")
        ))
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(read) = std::fs::read_dir(dir) else {
        return 0;
    };
    read.filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The high-water resident set of process `pid`, in MB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time this process has used so far (user + system, every thread,
/// finished ones included), from `/proc/self/stat`; 0 when unreadable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// The host's CPU accounting at the start of a measurement, for the
/// log line that says how much of the machine the run got.
pub struct HostClock {
    cpu: Vec<u64>,
}

impl HostClock {
    fn read() -> Vec<u64> {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("cpu "))?.to_string();
                Some(line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect())
            })
            .unwrap_or_default()
    }

    pub fn now() -> Self {
        HostClock { cpu: Self::read() }
    }

    /// The host-speed scale factors of the measured intervals, with
    /// their meter sample counts, and the share of the machine's CPU
    /// time the hypervisor stole since [`HostClock::now`].
    pub fn describe(&self, scales: &[(f64, usize)]) -> String {
        let now = Self::read();
        let delta: Vec<u64> = now
            .iter()
            .zip(&self.cpu)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let total: u64 = delta.iter().take(8).sum();
        let steal = delta.get(7).copied().unwrap_or(0);
        let mut f: Vec<f64> = scales.iter().map(|s| s.0).collect();
        f.sort_by(f64::total_cmp);
        format!(
            "host: speed scale median {:.3} (min {:.3}, max {:.3}) over {} intervals, {} meter samples; steal {:.1}% of CPU time",
            stats::median(&f).unwrap_or(f64::NAN),
            f.first().copied().unwrap_or(f64::NAN),
            f.last().copied().unwrap_or(f64::NAN),
            f.len(),
            scales.iter().map(|s| s.1).sum::<usize>(),
            100.0 * steal as f64 / total.max(1) as f64
        )
    }
}

/// The system allocator, counting live heap bytes and their high-water
/// mark. Unlike the resident-set high-water mark, live bytes do not
/// depend on how much freed memory the allocator's per-thread arenas
/// happen to retain, which varied by 30% between identical runs.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters are statistics that publish no
// other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts the live-heap high-water mark from the bytes live now.
pub fn heap_reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The live-heap high-water mark since the last reset, in MB.
pub fn heap_peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\n\nusage: perfbench --workload {{paper_grid|knn_append|scale_sharded|serve_open}} \
         [--seed N] [--seconds S] [--trace 0|1] [--pv-serve PATH] [--commit ID]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace_on = false;
    let mut pv_serve = None;
    let mut commit = "unknown".to_string();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| usage("a flag needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let v = value(&mut i);
                workload = Workload::ALL.into_iter().find(|w| w.name() == v);
                if workload.is_none() {
                    usage(&format!("unknown workload {v:?}"));
                }
            }
            "--seed" => {
                seed = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed wants an integer"))
            }
            "--seconds" => {
                seconds = value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds wants a number"))
            }
            "--trace" => {
                trace_on = match value(&mut i).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                }
            }
            "--pv-serve" => pv_serve = Some(PathBuf::from(value(&mut i))),
            "--commit" => commit = value(&mut i),
            other => usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    // The tree kernel switch changes evaluation numerics and cache keys;
    // the benchmark measures the default build only.
    if std::env::var_os("PV_EXACT_TREES").is_some() {
        eprintln!("perfbench: refusing to run with PV_EXACT_TREES set");
        std::process::exit(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir =
        PathBuf::from(".bench_run").join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace: trace_on,
        dir: dir.clone(),
        threads,
        sizes: batch::Sizes::full(),
        pv_serve,
    };
    println!(
        "perfbench: workload={} seed={seed} seconds={seconds} trace={} nproc={threads} threads={threads} commit={commit} profile={}",
        workload.name(),
        u8::from(trace_on),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored pool builder cannot fail");
    let report = pool.install(|| run(workload, &ctx));
    let _ = std::fs::remove_dir_all(&dir);
    for note in &report.notes {
        println!("  {note}");
    }
    for e in &report.errors {
        println!("  CHECK FAILED: {e}");
    }
    for (name, value) in &report.metrics {
        println!("  {name:<28} {value:.6}");
    }
    println!(
        "  attempted {} failed {} (fail_ratio {:.4})",
        report.tally.attempted,
        report.tally.failed,
        report.tally.fail_ratio()
    );
    match report.result_json(trace_on) {
        Ok(line) => {
            let correct = report.errors.is_empty() && report.tally.failed == 0;
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload on the pinned pool.
pub fn run(w: Workload, ctx: &Ctx) -> Report {
    match w {
        Workload::ServeOpen => serve::run(ctx),
        _ => batch::run(w, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_by_name_and_unit() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.metric(name, 1.5);
        }
        r.tally = Tally {
            attempted: 10,
            failed: 0,
        };
        let line = r.result_json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        // Per-layer metrics a workload never touched read 0; fail_ratio
        // comes from the tally.
        let line = r.result_json(true).unwrap();
        assert!(line.contains("\"fail_ratio\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
        r.metrics.remove("wall_s");
        assert!(r.result_json(false).is_err());
        r.check(false, "mismatch".into());
        r.metric("wall_s", 1.0);
        assert!(r
            .result_json(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    /// Every batch workload, smoke-sized, both untraced and traced: the
    /// output checks pass and the traced replay matches the sweep.
    #[test]
    fn smoke_batch_workloads_pass_their_checks() {
        let _lock = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for w in [
            Workload::PaperGrid,
            Workload::KnnAppend,
            Workload::ScaleSharded,
        ] {
            for traced in [false, true] {
                let dir = std::env::temp_dir().join(format!(
                    "perfbench-smoke-{}-{traced}-{}",
                    w.name(),
                    std::process::id()
                ));
                let ctx = Ctx {
                    seed: 7,
                    seconds: 0.0,
                    trace: traced,
                    dir: dir.clone(),
                    threads: 2,
                    sizes: batch::Sizes::smoke(),
                    pv_serve: None,
                };
                let r = run(w, &ctx);
                let _ = std::fs::remove_dir_all(&dir);
                assert!(
                    r.errors.is_empty(),
                    "{} traced={traced}: {:?}",
                    w.name(),
                    r.errors
                );
                assert_eq!(r.tally.failed, 0);
                if traced {
                    assert!(r.metrics["pipeline.folds"] > 0.0);
                } else {
                    assert!(r.metrics["wall_s"] > 0.0 && r.metrics["ks_mean"] > 0.0);
                }
            }
        }
    }
}
