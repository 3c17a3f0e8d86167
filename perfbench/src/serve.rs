//! `serve_open`: an open-loop request stream against the `pv-serve`
//! daemon over a unix socket.
//!
//! The served models are trained on the paper's campaign; the workload
//! seed drives the arrival schedule, the request mix and each request's
//! reconstruction seed.
//!
//! The generator is one process with one connection, one writer thread
//! and one reader thread. The writer sends on a seeded Poisson schedule;
//! every request is timed from when it was due, so a stall also charges
//! the requests queued behind it, and the writer records how late it
//! sent each one. Replies come back in request order on the one
//! connection, so the reader pairs each reply with its request.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::SeedableRng;

use pv_bench::serve::ServeEngine;
use pv_core::registry::{artifact_key, ModelRegistry};
use pv_core::sweep::{cross_fingerprint, CellConfig};
use pv_core::{corpus_fingerprint, ModelKind, Profile, ReprKind};
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_sysmodel::{Corpus, SystemModel};

use crate::calib::Meter;
use crate::stats::{ladder_max_rate, median, probe_passes, quantile, tail, Tally, TAIL_BEYOND};
use crate::trace::{self, timed};
use crate::{peak_rss_mb, Ctx, HostClock, Report};

const NONE: u32 = u32::MAX;
/// Latency limit the capacity search holds the 90th percentile to.
pub const LIMIT_MS: f64 = 25.0;
/// Fixed offered rates, requests per second.
pub const LOW_RPS: f64 = 300.0;
pub const HIGH_RPS: f64 = 900.0;
/// Share of requests that are use-case-2 lines (1,000 `rel_times`).
const UC2_SHARE: f64 = 0.1;
/// A phase whose generator ran later than this at p99 is not a
/// measurement.
const LAG_BOUND_MS: f64 = 50.0;
/// Requests per burst, at least this many bursts, for this share of
/// `--seconds`.
const BURST: usize = 1000;
const MIN_BURSTS: usize = 3;
const BURST_SHARE: f64 = 0.8;
/// Shares of `--seconds` the traced run's low- and high-rate phases and
/// each capacity probe run for.
const LOW_SHARE: f64 = 0.15;
const HIGH_SHARE: f64 = 0.12;
const PROBE_SHARE: f64 = 0.03;
/// The capacity ladder: rates 4% apart, from this share of the
/// closed-loop burst capacity, at most this many probes.
const LADDER_START: f64 = 0.7;
const LADDER_STEP: f64 = 1.04;
const LADDER_PROBES: usize = 20;

/// The request lines: one use-case-1 and one use-case-2 line per
/// benchmark, then the stats probe.
struct Lines {
    text: Vec<Vec<u8>>,
    n_bench: usize,
    /// Sorted measured Intel relative times per benchmark: the truth a
    /// prediction for that benchmark is scored against.
    truth: Vec<Vec<f64>>,
    /// The workload seed the request schedules derive from.
    seed: u64,
}

impl Lines {
    fn stats(&self) -> usize {
        self.text.len() - 1
    }
}

/// A running daemon; killed and reaped if dropped while still running.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Setup {
    daemon: Daemon,
    registry: PathBuf,
    lines: Lines,
    secs: f64,
}

fn collect(system: SystemModel, runs: usize, seed: u64) -> Corpus {
    timed("sysmodel.collect", NONE, NONE, || {
        Corpus::collect(&system, runs, seed)
    })
}

/// Collect both campaigns, train and seal the two served models into a
/// fresh registry, start the daemon and wait until it answers.
fn setup(ctx: &Ctx, k: usize, logs: Option<(&Path, &Path)>) -> Result<Setup, String> {
    let exe = ctx
        .pv_serve
        .as_ref()
        .ok_or("serve_open needs --pv-serve PATH (run.py passes it)")?;
    let runs = ctx.sizes.runs;
    let t = Instant::now();
    let intel = collect(SystemModel::intel(), runs, pv_bench::CAMPAIGN_SEED);
    let amd = collect(SystemModel::amd(), runs, pv_bench::CAMPAIGN_SEED);
    let dir = ctx.dir.join(format!("registry-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::new(&dir);
    let mut uc1 = pv_bench::uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    uc1.profiles_per_benchmark = uc1.profiles_per_benchmark.min(runs / 10).max(1);
    let uc2 = pv_bench::uc2_config(ReprKind::PearsonRnd, ModelKind::Knn);
    timed("registry.seal", NONE, NONE, || -> Result<(), String> {
        registry
            .ensure_few_runs(&intel, uc1)
            .map_err(|e| format!("train uc1: {e}"))?;
        registry
            .ensure_cross_system(&amd, &intel, uc2)
            .map_err(|e| format!("train uc2: {e}"))?;
        Ok(())
    })?;
    let socket = ctx.dir.join(format!("pv-{k}.sock"));
    let mut cmd = Command::new(exe);
    cmd.arg("--registry").arg(&dir).arg("--socket").arg(&socket);
    if let Some((access, metrics)) = logs {
        cmd.arg("--access-log")
            .arg(access)
            .arg("--metrics-out")
            .arg(metrics);
    }
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let daemon = Daemon { child, socket };
    wait_ready(&daemon.socket)?;
    let secs = t.elapsed().as_secs_f64();
    let lines = build_lines(&intel, &amd, uc1, uc2, ctx.seed)?;
    Ok(Setup {
        daemon,
        registry: dir,
        lines,
        secs,
    })
}

/// Polls until the daemon answers a health probe (30 s at most).
fn wait_ready(socket: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut s) = UnixStream::connect(socket) {
            s.write_all(b"{\"op\":\"health\"}\n")
                .map_err(|e| format!("health probe: {e}"))?;
            let mut reply = String::new();
            BufReader::new(&s)
                .read_line(&mut reply)
                .map_err(|e| format!("health probe: {e}"))?;
            return if reply.contains("\"ok\":true") {
                Ok(())
            } else {
                Err(format!("daemon not healthy: {}", reply.trim()))
            };
        }
        if Instant::now() > deadline {
            return Err("daemon socket never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn build_lines(
    intel: &Corpus,
    amd: &Corpus,
    uc1: pv_core::usecase1::FewRunsConfig,
    uc2: pv_core::usecase2::CrossSystemConfig,
    seed: u64,
) -> Result<Lines, String> {
    // Per-request reconstruction seeds, from the workload seed.
    let sample_seed = |bi: usize| derive_stream(seed, bi as u64) >> 12;
    let err = |e: pv_stats::StatsError| e.to_string();
    let key1 = artifact_key(corpus_fingerprint(intel), &CellConfig::FewRuns(uc1)).map_err(err)?;
    let fp2 = cross_fingerprint(corpus_fingerprint(amd), corpus_fingerprint(intel));
    let key2 = artifact_key(fp2, &CellConfig::CrossSystem(uc2)).map_err(err)?;
    let json = |p: &Profile| serde_json::to_string(p).map_err(|e| e.to_string());
    let mut text = Vec::new();
    for (bi, b) in intel.benchmarks.iter().enumerate() {
        let profile = Profile::from_runs(&b.runs, uc1.n_profile_runs).map_err(err)?;
        text.push(format!(
            "{{\"id\": {bi}, \"model\": \"{key1:016x}\", \"profile\": {}, \"n_samples\": 1000, \"sample_seed\": {}}}\n",
            json(&profile)?,
            sample_seed(bi)
        ));
    }
    for (bi, b) in amd.benchmarks.iter().enumerate() {
        let profile =
            Profile::from_runs(&b.runs, uc2.profile_runs.min(b.runs.len())).map_err(err)?;
        let rel = serde_json::to_string(&b.runs.rel_times()).map_err(|e| e.to_string())?;
        text.push(format!(
            "{{\"id\": {}, \"model\": \"{key2:016x}\", \"profile\": {}, \"rel_times\": {rel}, \"n_samples\": 1000, \"sample_seed\": {}}}\n",
            1000 + bi,
            json(&profile)?,
            sample_seed(bi)
        ));
    }
    text.push("{\"op\":\"stats\"}\n".to_string());
    let truth = intel
        .benchmarks
        .iter()
        .map(|b| {
            let mut r = b.runs.rel_times();
            r.sort_by(f64::total_cmp);
            r
        })
        .collect();
    Ok(Lines {
        text: text.into_iter().map(String::into_bytes).collect(),
        n_bench: intel.len(),
        truth,
        seed,
    })
}

/// The request mix: a uniformly drawn benchmark, as a use-case-2 line
/// with probability [`UC2_SHARE`].
fn pick(rng: &mut Xoshiro256pp, lines: &Lines) -> usize {
    let bi = ((rng.next_f64() * lines.n_bench as f64) as usize).min(lines.n_bench - 1);
    if rng.next_f64() < UC2_SHARE {
        lines.n_bench + bi
    } else {
        bi
    }
}

/// A seeded open-loop schedule: Poisson arrivals at `rate` for `secs`
/// seconds (due offset in seconds, line index), plus one stats probe
/// per second.
fn schedule(lines: &Lines, tag: u64, rate: f64, secs: f64) -> Vec<(f64, usize)> {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(lines.seed, tag));
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut next_probe = 1.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            break;
        }
        while next_probe <= t {
            out.push((next_probe, lines.stats()));
            next_probe += 1.0;
        }
        out.push((t, pick(&mut rng, lines)));
    }
    out
}

/// `n` requests of the same mix, all due at once.
fn burst(lines: &Lines, tag: u64, n: usize) -> Vec<(f64, usize)> {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(lines.seed, tag));
    (0..n).map(|_| (0.0, pick(&mut rng, lines))).collect()
}

/// What one phase measured.
#[derive(Debug, Default)]
struct Phase {
    /// Request latencies from due time, ms, in send order.
    latency_ms: Vec<f64>,
    tally: Tally,
    /// How late the writer sent each line, ms.
    lag_ms: Vec<f64>,
    /// First send to last reply, seconds.
    wall_s: f64,
    /// Replies to stats probes that were not ok.
    probe_failures: u64,
    /// Lines written (requests and probes).
    sent: u64,
}

impl Phase {
    fn lag_p99(&self) -> f64 {
        tail(&self.lag_ms, TAIL_BEYOND).map_or(0.0, |t| t.value)
    }
}

/// Sends `items` on `stream` (all at once when `burst`), reading replies
/// on a second thread.
fn run_phase(
    stream: &UnixStream,
    lines: &Lines,
    items: &[(f64, usize)],
    burst: bool,
) -> Result<Phase, String> {
    let reader_stream = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut writer = stream;
    let (tx, rx) = mpsc::channel::<(Instant, usize)>();
    let start = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> Result<Phase, String> {
            let mut phase = Phase::default();
            let mut r = BufReader::new(reader_stream);
            let mut reply = String::new();
            for (due, idx) in rx {
                reply.clear();
                match r.read_line(&mut reply) {
                    Ok(n) if n > 0 => {}
                    _ => return Err("connection closed mid-phase".into()),
                }
                let ok = reply.contains("\"ok\":true");
                if idx == lines.stats() {
                    phase.probe_failures += u64::from(!ok);
                    continue;
                }
                phase.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                phase.tally.add(Tally {
                    attempted: 1,
                    failed: u64::from(!ok),
                });
            }
            phase.wall_s = start.elapsed().as_secs_f64();
            Ok(phase)
        });
        let mut lag = Vec::with_capacity(items.len());
        let mut write_err = None;
        for &(offset, idx) in items {
            let due = if burst {
                start
            } else {
                start + Duration::from_secs_f64(offset)
            };
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if tx.send((due, idx)).is_err() {
                break;
            }
            lag.push(due.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = writer.write_all(&lines.text[idx]) {
                write_err = Some(format!("write: {e}"));
                break;
            }
        }
        drop(tx);
        let mut phase = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())??;
        if let Some(e) = write_err {
            return Err(e);
        }
        phase.sent = lag.len() as u64;
        phase.lag_ms = lag;
        Ok(phase)
    })
}

/// A fixed-rate phase, repeated (up to twice more) while the generator
/// itself ran later than its bound. `sent` counts every line written on
/// the connection; the returned phase's lines follow the first `sent`
/// on return minus its own.
fn fixed_phase(
    stream: &UnixStream,
    lines: &Lines,
    tag: u64,
    rate: f64,
    secs: f64,
    sent: &mut u64,
    report: &mut Report,
) -> Result<Phase, String> {
    for attempt in 0..3 {
        let items = schedule(lines, tag + attempt, rate, secs);
        let phase = run_phase(stream, lines, &items, false)?;
        *sent += phase.sent;
        if phase.lag_p99() <= LAG_BOUND_MS {
            return Ok(phase);
        }
        report.note(format!(
            "{rate} req/s phase invalid: generator lag p99 {:.2} ms > {LAG_BOUND_MS} ms",
            phase.lag_p99()
        ));
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(format!(
        "generator could not hold {rate} req/s within its lag bound"
    ))
}

/// Sends every distinct request line once, in order, and compares each
/// reply byte for byte with the in-process `ServeEngine::handle_line`
/// answer. Returns the mean KS of the predictions against the measured
/// Intel distributions.
fn check_replies(
    stream: &UnixStream,
    lines: &Lines,
    engine: &ServeEngine,
    report: &mut Report,
) -> Result<f64, String> {
    let mut r = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut w = stream;
    let mut ks = Vec::new();
    let mut mismatches = 0;
    for (idx, line) in lines.text[..lines.stats()].iter().enumerate() {
        w.write_all(line).map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        r.read_line(&mut reply).map_err(|e| format!("read: {e}"))?;
        let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
        let (expected, _) = engine.handle_line(text.trim_end());
        if reply.trim_end() != expected {
            mismatches += 1;
        }
        let samples = parse_samples(&reply).ok_or("reply without prediction samples")?;
        let mut samples = samples;
        samples.sort_by(f64::total_cmp);
        let truth = &lines.truth[idx % lines.n_bench];
        ks.push(pv_stats::ks::ks2_statistic_presorted(&samples, truth).map_err(|e| e.to_string())?);
    }
    report.tally.add(Tally {
        attempted: lines.stats() as u64,
        failed: mismatches,
    });
    report.check(
        mismatches == 0,
        format!("{mismatches} daemon replies differ from handle_line"),
    );
    Ok(ks.iter().sum::<f64>() / ks.len() as f64)
}

/// The `"samples":[…]` array of a prediction reply.
fn parse_samples(reply: &str) -> Option<Vec<f64>> {
    let start = reply.find("\"samples\":[")? + "\"samples\":[".len();
    let end = start + reply[start..].find(']')?;
    reply[start..end]
        .split(',')
        .map(|x| x.trim().parse().ok())
        .collect()
}

/// The open-loop capacity: the highest offered rate on a ladder of
/// rates 4% apart that answers every request ok with p90 ≤ [`LIMIT_MS`]
/// and no growing backlog. The ladder starts below the closed-loop
/// capacity of a pipelined burst measured first, so its steps can be
/// fine without climbing for long.
fn capacity_ladder(
    stream: &UnixStream,
    lines: &Lines,
    ctx: &Ctx,
    report: &mut Report,
) -> Result<f64, String> {
    let probe_burst = run_phase(stream, lines, &burst(lines, 9, BURST), true)?;
    report.tally.add(probe_burst.tally);
    let start = (LADDER_START * BURST as f64 / probe_burst.wall_s).max(LOW_RPS);
    let mut tag = 300;
    let mut probe_log = Vec::new();
    let mut probe_err = None;
    let max_rps = ladder_max_rate(start, LADDER_STEP, LADDER_PROBES, |rate| {
        tag += 1;
        let items = schedule(lines, tag, rate, PROBE_SHARE * ctx.seconds);
        match run_phase(stream, lines, &items, false) {
            Ok(p) => {
                let pass =
                    probe_passes(&p.latency_ms, p.tally, LIMIT_MS) && p.lag_p99() <= LAG_BOUND_MS;
                probe_log.push(format!(
                    "{rate:.0}:{}(p90 {:.1}ms)",
                    if pass { "ok" } else { "miss" },
                    quantile(&p.latency_ms, 0.9).unwrap_or(f64::NAN)
                ));
                std::thread::sleep(Duration::from_millis(50));
                pass
            }
            Err(e) => {
                probe_err = Some(e);
                false
            }
        }
    });
    if let Some(e) = probe_err {
        return Err(e);
    }
    report.note(format!(
        "capacity ladder (p90 ≤ {LIMIT_MS} ms): {}",
        probe_log.join(" ")
    ));
    Ok(max_rps)
}

/// The request lines of the low-rate phase's schedule.
fn low_rate_requests<'l>(lines: &'l Lines, ctx: &Ctx) -> Result<Vec<&'l str>, String> {
    schedule(lines, 100, LOW_RPS, LOW_SHARE * ctx.seconds)
        .iter()
        .filter(|&&(_, idx)| idx != lines.stats())
        .map(|&(_, idx)| std::str::from_utf8(&lines.text[idx]).map(str::trim_end))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

/// Answers `requests` in-process through `ServeEngine::handle_line`,
/// each call in a span when `spans` is set. Returns the wall time and
/// each call's time in microseconds.
fn replay(engine: &ServeEngine, requests: &[&str], spans: bool) -> (f64, Vec<f64>) {
    trace::set_enabled(spans);
    let t = Instant::now();
    let mut us = Vec::with_capacity(requests.len());
    for (i, line) in requests.iter().enumerate() {
        let t1 = Instant::now();
        let _ = timed("serve.handle_line", NONE, i as u32, || {
            engine.handle_line(line)
        });
        us.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    let wall = t.elapsed().as_secs_f64();
    trace::set_enabled(false);
    (wall, us)
}

/// Asks the daemon to shut down; checks the ack and a clean exit.
fn shutdown(mut d: Daemon, report: &mut Report) -> Result<(), String> {
    let mut s = UnixStream::connect(&d.socket).map_err(|e| format!("connect for shutdown: {e}"))?;
    s.write_all(b"{\"shutdown\": true}\n")
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut ack = String::new();
    BufReader::new(&s)
        .read_line(&mut ack)
        .map_err(|e| format!("shutdown ack: {e}"))?;
    report.check(
        ack.contains("\"ok\":true"),
        format!("shutdown not acked: {}", ack.trim()),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match d.child.try_wait() {
            Ok(Some(status)) => {
                report.check(status.success(), format!("daemon exited with {status}"));
                return Ok(());
            }
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => return Err("daemon did not exit after its shutdown ack".into()),
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_inner(ctx, &mut report) {
        report.errors.push(e);
    }
    report
}

fn run_inner(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    if ctx.trace {
        return traced(ctx, report);
    }
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..ctx.sizes.setups {
        let meter = Meter::start();
        let s = setup(ctx, k, None)?;
        setup_s.push(s.secs * meter.finish().0);
        if let Some(previous) = kept.replace(s) {
            shutdown(previous.daemon, report)?;
        }
    }
    let Setup {
        daemon,
        registry,
        lines,
        ..
    } = kept.expect("at least one set-up");
    let engine = ServeEngine::from_registry(&ModelRegistry::new(&registry))
        .map_err(|e| format!("load registry: {e}"))?;
    let stream = UnixStream::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;

    // Pipelined bursts until the window is spent: the daemon's
    // saturation throughput and the latency a pipelining client sees.
    // Each burst is scaled to the reference host speed (see `calib`).
    let mut walls = Vec::new();
    let mut raw = Vec::new();
    let mut latency_ms = Vec::new();
    let mut scales = Vec::new();
    let host = HostClock::now();
    let t = Instant::now();
    while walls.len() < MIN_BURSTS || t.elapsed().as_secs_f64() < BURST_SHARE * ctx.seconds {
        let items = burst(&lines, 10 + walls.len() as u64, BURST);
        let meter = Meter::start();
        let phase = run_phase(&stream, &lines, &items, true)?;
        let scale = meter.finish();
        scales.push(scale);
        let scale = scale.0;
        report.tally.add(phase.tally);
        raw.push(phase.wall_s);
        walls.push(phase.wall_s * scale);
        latency_ms.extend(phase.latency_ms.iter().map(|l| l * scale));
    }
    report.note(host.describe(&scales));
    let ks_mean = check_replies(&stream, &lines, &engine, report)?;
    drop(stream);
    shutdown(daemon, report)?;
    // The serving engine's own memory: the live-heap high-water mark
    // while it answers the low-rate stream in-process.
    crate::heap_reset_peak();
    replay(&engine, &low_rate_requests(&lines, ctx)?, false);
    let heap_mb = crate::heap_peak_mb();

    let wall = median(&walls).unwrap_or(f64::NAN);
    let lt = tail(&latency_ms, TAIL_BEYOND).ok_or("no burst replies")?;
    report.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    report.metric("wall_s", wall);
    report.metric("p50_ms", median(&latency_ms).unwrap_or(f64::NAN));
    report.metric("throughput", BURST as f64 / wall);
    report.metric("peak_heap_mb", heap_mb);
    report.metric("ks_mean", ks_mean);
    report.note(format!(
        "{} bursts of {BURST}: wall median {wall:.3} s scaled ({:.3} s raw); latency n={} p50 {:.3} ms, p{:.1} {:.3} ms",
        walls.len(),
        median(&raw).unwrap_or(f64::NAN),
        lt.n,
        median(&latency_ms).unwrap_or(f64::NAN),
        lt.pct,
        lt.value
    ));
    Ok(())
}

/// The traced run: the daemon writes its access log and metrics while
/// the open-loop phases (300 and 900 req/s) and the capacity ladder run,
/// then the low-rate request lines are replayed in-process through
/// `ServeEngine::handle_line`, alternately untraced and with spans, for
/// per-request handling time and the tracing overhead.
fn traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let access = ctx.dir.join("access.jsonl");
    let metrics = ctx.dir.join("metrics.json");
    trace::set_enabled(true);
    let set_up = setup(ctx, 0, Some((&access, &metrics)));
    let engine = set_up.as_ref().ok().map(|s| {
        timed("registry.verify", NONE, NONE, || {
            ServeEngine::from_registry(&ModelRegistry::new(&s.registry))
        })
    });
    trace::set_enabled(false);
    let setup_spans = trace::drain();
    let Setup { daemon, lines, .. } = set_up?;
    let engine = engine
        .expect("set-up succeeded")
        .map_err(|e| format!("load registry: {e}"))?;

    let stream = UnixStream::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
    let s = ctx.seconds;
    // The daemon numbers lines from 0 across connections; the readiness
    // probe was line 0.
    let mut sent = 1;
    let low = fixed_phase(
        &stream,
        &lines,
        100,
        LOW_RPS,
        LOW_SHARE * s,
        &mut sent,
        report,
    )?;
    let high = fixed_phase(
        &stream,
        &lines,
        200,
        HIGH_RPS,
        HIGH_SHARE * s,
        &mut sent,
        report,
    )?;
    let high_seqs = sent - high.sent..sent;
    for p in [&low, &high] {
        report.tally.add(p.tally);
        report.check(
            p.probe_failures == 0,
            format!("{} stats probes failed", p.probe_failures),
        );
    }
    let max_rps = capacity_ladder(&stream, &lines, ctx, report)?;
    drop(stream);
    let daemon_rss = peak_rss_mb(daemon.child.id());
    shutdown(daemon, report)?;

    // Daemon-side split of the high-rate phase from the access log.
    let log = std::fs::read_to_string(&access).map_err(|e| format!("access log: {e}"))?;
    let (mut queue, mut worker, mut write) = (Vec::new(), Vec::new(), Vec::new());
    for line in log.lines() {
        let field = |k: &str| -> Option<f64> {
            let at = line.find(&format!("\"{k}\":"))? + k.len() + 3;
            let rest = &line[at..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].parse().ok()
        };
        let (Some(req), Some(q), Some(p), Some(wr)) = (
            field("req"),
            field("queue_ns"),
            field("predict_ns"),
            field("write_ns"),
        ) else {
            continue;
        };
        if high_seqs.contains(&(req as u64)) && line.contains("\"outcome\":\"ok\"") {
            queue.push(q / 1e6);
            worker.push(p / 1e6);
            write.push(wr / 1e6);
        }
    }
    let snapshot = pv_obs::export::read_metrics(&metrics)?;
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    };

    // In-process replay of the low-rate phase's request lines, spans
    // off and on alternately; the overhead compares the medians.
    let requests = low_rate_requests(&lines, ctx)?;
    let mut plain = Vec::new();
    let mut traced_walls = Vec::new();
    let mut handle_us = Vec::new();
    let mut spans = Vec::new();
    for _ in 0..2 {
        plain.push(replay(&engine, &requests, false).0);
        let (wall, us) = replay(&engine, &requests, true);
        traced_walls.push(wall);
        handle_us = us;
        spans = trace::drain();
    }
    let plain_wall = median(&plain).unwrap_or(f64::NAN);
    let wall = median(&traced_walls).unwrap_or(f64::NAN);
    let busy: u64 = trace::self_times(&spans).iter().map(|&(_, s)| s).sum();
    let coverage = busy as f64 / (traced_walls[1] * 1e9);
    let mut all = setup_spans.clone();
    all.extend(spans);
    std::fs::write(
        ctx.dir
            .parent()
            .unwrap_or(&ctx.dir)
            .join("trace-serve_open.jsonl"),
        trace::to_jsonl(&all),
    )
    .map_err(|e| format!("write trace: {e}"))?;

    let setup_names = trace::by_name(&setup_spans);
    let total = |n: &str| {
        setup_names
            .get(n)
            .map_or(0.0, |e| e.2.iter().sum::<u64>() as f64 / 1e6)
    };
    let p = |xs: &[f64], q: f64| quantile(xs, q).unwrap_or(0.0);
    let t = |xs: &[f64]| tail(xs, TAIL_BEYOND).map_or(0.0, |t| t.value);
    report.metric("sysmodel.collect_ms", total("sysmodel.collect"));
    report.metric("registry.seal_ms", total("registry.seal"));
    report.metric("registry.verify_ms", total("registry.verify"));
    report.metric("serve.handle_us.p50", p(&handle_us, 0.5));
    report.metric("serve.handle_us.p99", t(&handle_us));
    report.metric("serve.queue_ms.p50", p(&queue, 0.5));
    report.metric("serve.queue_ms.p99", t(&queue));
    report.metric("serve.worker_ms.p50", p(&worker, 0.5));
    report.metric("serve.worker_ms.p99", t(&worker));
    report.metric("serve.write_ms.p50", p(&write, 0.5));
    report.metric("serve.write_ms.p99", t(&write));
    let batches = counter("pv.serve.batch");
    report.metric(
        "serve.batch_mean",
        if batches > 0.0 {
            counter("pv.serve.request") / batches
        } else {
            0.0
        },
    );
    report.metric("serve.shed", counter("pv.serve.shed"));
    report.metric("serve.timeout", counter("pv.serve.request.timeout"));
    report.metric("serve.p50_ms_low", p(&low.latency_ms, 0.5));
    report.metric("serve.p99_ms_low", t(&low.latency_ms));
    report.metric("serve.p50_ms_high", p(&high.latency_ms, 0.5));
    report.metric("serve.p99_ms_high", t(&high.latency_ms));
    report.metric("serve.max_rps", max_rps);
    report.metric("gen.lag_ms.p99", low.lag_p99().max(high.lag_p99()));
    report.metric("serve.daemon_rss_mb", daemon_rss.unwrap_or(0.0));
    report.metric(
        "trace.overhead_pct",
        100.0 * (wall - plain_wall) / plain_wall,
    );
    report.metric("trace.coverage", coverage);
    report.check(
        (0.5..=1.02).contains(&coverage),
        format!("handle_line spans cover {coverage:.3} of the replay wall (tolerance 0.5–1.02)"),
    );
    report.check(
        !queue.is_empty(),
        "access log holds no high-rate requests".into(),
    );
    report.note(format!(
        "access log: {} high-rate requests; replay {:.3}s traced vs {plain_wall:.3}s untraced",
        queue.len(),
        wall
    ));
    Ok(())
}
