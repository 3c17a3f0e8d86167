//! Serve-chaos tier: the real `pv-serve` binary under deterministic
//! fault injection. Injected slow predictions blow the deadline on
//! exactly the planned requests, injected sheds produce exactly-k typed
//! `overloaded` responses, hot reload swaps registry snapshots without
//! dropping in-flight work (and a corrupt artifact keeps the old
//! version serving, degraded, never crashed), and shutdown drains every
//! admitted request before exit 0. Successful responses must be
//! byte-identical to a chaos-free run at any batch width — chaos is
//! keyed by request arrival sequence, not by timing races.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

mod common;

use common::{serve_binary, wait_exit_ok, Daemon, TempDir};
use perfvar_suite::core::registry::{artifact_key, ModelRegistry};
use perfvar_suite::core::sweep::CellConfig;
use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::{corpus_fingerprint, ModelKind, Predictor, Profile, ReprKind};
use perfvar_suite::obs::read_metrics;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

const RUNS: usize = 30;
const SEED: u64 = 11;

fn cfg() -> FewRunsConfig {
    FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 5,
        profiles_per_benchmark: 2,
        ..FewRunsConfig::default()
    }
}

fn tmp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("pv-serve-chaos-{tag}"))
}

/// Seals one model and returns (corpus, registry key).
fn seed_registry(dir: &Path) -> (Corpus, u64) {
    let corpus = Corpus::collect(&SystemModel::intel(), RUNS, SEED);
    let registry = ModelRegistry::new(dir);
    let fp = corpus_fingerprint(&corpus);
    let include: Vec<usize> = (0..corpus.len()).collect();
    let trained = Predictor::train_few_runs(&corpus, &include, cfg()).expect("train");
    registry.store(fp, &trained.to_artifact()).expect("store");
    let key = artifact_key(fp, &CellConfig::FewRuns(cfg())).expect("key");
    (corpus, key)
}

fn request_line(key: u64, corpus: &Corpus, bench: usize, id: usize) -> String {
    let profile =
        Profile::from_runs(&corpus.benchmarks[bench].runs, cfg().n_profile_runs).expect("profile");
    format!(
        "{{\"id\": {id}, \"model\": \"{key:016x}\", \"profile\": {}, \
         \"n_samples\": 40, \"sample_seed\": {id}}}",
        serde_json::to_string(&profile).expect("json")
    )
}

fn counter(metrics: &Path, name: &str) -> u64 {
    read_metrics(metrics)
        .expect("metrics snapshot")
        .counter(name)
        .unwrap_or_else(|| panic!("counter {name} missing from {}", metrics.display()))
}

/// Spawns pv-serve in stdio mode with extra flags, returning the child
/// plus its protocol handles.
fn spawn_stdio(dir: &Path, extra: &[&str]) -> (Daemon, ChildStdin, BufReader<ChildStdout>) {
    let mut child = Daemon::spawn(
        Command::new(serve_binary())
            .args(["--registry"])
            .arg(dir)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null()),
    );
    let stdin = child.stdin.take().expect("stdin");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));
    (child, stdin, stdout)
}

/// Writes every line, then collects every reply until EOF.
fn session(mut stdin: ChildStdin, stdout: BufReader<ChildStdout>, lines: &[String]) -> Vec<String> {
    for line in lines {
        stdin.write_all(line.as_bytes()).expect("write");
        stdin.write_all(b"\n").expect("write");
    }
    stdin.flush().expect("flush");
    drop(stdin);
    stdout.lines().map(|l| l.expect("read reply")).collect()
}

fn send(stdin: &mut ChildStdin, line: &str) {
    stdin.write_all(line.as_bytes()).expect("write");
    stdin.write_all(b"\n").expect("write");
    stdin.flush().expect("flush");
}

fn recv(stdout: &mut BufReader<ChildStdout>) -> String {
    let mut reply = String::new();
    stdout.read_line(&mut reply).expect("read reply");
    assert!(!reply.is_empty(), "daemon hung up mid-session");
    reply.trim_end().to_string()
}

/// Injected slow predictions blow a generous deadline on exactly the
/// planned arrival sequences — typed `timeout` responses with the id
/// echoed — while every other response is byte-identical to a
/// chaos-free run, at the default batch width and at `--batch 1`.
#[test]
fn injected_slow_faults_time_out_exactly_k_requests() {
    let dir = tmp_dir("deadline");
    let (corpus, key) = seed_registry(&dir);
    let mut lines: Vec<String> = (0..8)
        .map(|i| request_line(key, &corpus, i % corpus.len(), i))
        .collect();
    lines.push("{\"shutdown\": true, \"id\": 99}".to_string());

    // Control: no chaos, no deadline.
    let (child, stdin, stdout) = spawn_stdio(&dir, &[]);
    let control = session(stdin, stdout, &lines);
    wait_exit_ok(child);
    assert_eq!(control.len(), 9, "{control:?}");
    assert!(control.iter().take(8).all(|r| r.contains("\"ok\":true")));

    // Chaos: ten-minute virtual delays on arrival sequences 2 and 5
    // versus a ten-second deadline. Exactly those two time out.
    let metrics = dir.join("METRICS-chaos.json");
    for batch_flags in [&[][..], &["--batch", "1"][..]] {
        let mut flags = vec![
            "--deadline-ms",
            "10000",
            "--inject-serve",
            "slow@2:600000,slow@5:600000",
        ];
        flags.extend_from_slice(batch_flags);
        let with_metrics = batch_flags.is_empty();
        if with_metrics {
            flags.push("--metrics-out");
        }
        let metrics_str = metrics.to_string_lossy().into_owned();
        if with_metrics {
            flags.push(&metrics_str);
        }
        let (child, stdin, stdout) = spawn_stdio(&dir, &flags);
        let chaotic = session(stdin, stdout, &lines);
        wait_exit_ok(child);
        assert_eq!(chaotic.len(), 9, "{chaotic:?}");
        for (i, reply) in chaotic.iter().enumerate() {
            if i == 2 || i == 5 {
                assert!(reply.contains("\"timeout\""), "seq {i}: {reply}");
                assert!(reply.contains(&format!("\"id\":{i}")), "seq {i}: {reply}");
                assert!(reply.contains("\"ok\":false"), "seq {i}: {reply}");
            } else {
                assert_eq!(
                    reply, &control[i],
                    "non-faulted response {i} must be byte-identical under chaos"
                );
            }
        }
    }
    assert_eq!(counter(&metrics, "pv.serve.request"), 9);
    assert_eq!(counter(&metrics, "pv.serve.request.ok"), 6);
    assert_eq!(counter(&metrics, "pv.serve.request.timeout"), 2);
    assert_eq!(counter(&metrics, "pv.serve.shutdown"), 1);
    assert_eq!(counter(&metrics, "pv.serve.shed"), 0);
}

/// Injected sheds produce exactly-k typed `overloaded` responses at the
/// planned arrival sequences; every other response is byte-identical to
/// the chaos-free run and the shed counters match exactly.
#[test]
fn injected_sheds_are_exactly_k_typed_overloaded_responses() {
    let dir = tmp_dir("shed");
    let (corpus, key) = seed_registry(&dir);
    let mut lines: Vec<String> = (0..6)
        .map(|i| request_line(key, &corpus, i % corpus.len(), i))
        .collect();
    lines.push("{\"shutdown\": true}".to_string());

    let (child, stdin, stdout) = spawn_stdio(&dir, &[]);
    let control = session(stdin, stdout, &lines);
    wait_exit_ok(child);
    assert_eq!(control.len(), 7, "{control:?}");

    let metrics = dir.join("METRICS.json");
    let metrics_str = metrics.to_string_lossy().into_owned();
    let (child, stdin, stdout) = spawn_stdio(
        &dir,
        &[
            "--inject-serve",
            "shed@1,shed@4",
            "--metrics-out",
            &metrics_str,
        ],
    );
    let chaotic = session(stdin, stdout, &lines);
    wait_exit_ok(child);
    assert_eq!(chaotic.len(), 7, "{chaotic:?}");
    for (i, reply) in chaotic.iter().enumerate() {
        if i == 1 || i == 4 {
            assert!(reply.contains("\"overloaded\""), "seq {i}: {reply}");
            assert!(reply.contains("\"ok\":false"), "seq {i}: {reply}");
        } else {
            assert_eq!(
                reply, &control[i],
                "non-shed response {i} must be byte-identical under chaos"
            );
        }
    }
    assert_eq!(counter(&metrics, "pv.serve.request"), 7);
    assert_eq!(counter(&metrics, "pv.serve.request.ok"), 4);
    assert_eq!(counter(&metrics, "pv.serve.request.overloaded"), 2);
    assert_eq!(counter(&metrics, "pv.serve.shed"), 2);
    assert_eq!(counter(&metrics, "pv.serve.shutdown"), 1);
}

/// Hot reload: a model stored after startup is picked up by
/// `{"op": "reload"}` without restarting; predictions against the
/// original model stay byte-identical across the swap. Then a corrupt
/// artifact at the next reload keeps the previously loaded version
/// serving (`held_over`), flips health to `degraded`, and never crashes
/// the daemon.
#[test]
fn hot_reload_swaps_snapshots_and_corruption_degrades_without_dropping() {
    let dir = tmp_dir("reload");
    let (corpus, key_a) = seed_registry(&dir);
    let (child, mut stdin, mut stdout) = spawn_stdio(&dir, &[]);

    let predict_a = request_line(key_a, &corpus, 0, 1);
    send(&mut stdin, &predict_a);
    let before = recv(&mut stdout);
    assert!(before.contains("\"ok\":true"), "{before}");

    // Deploy a second model into the live registry directory.
    let registry = ModelRegistry::new(dir.to_path_buf());
    let fp = corpus_fingerprint(&corpus);
    let cfg_b = FewRunsConfig {
        n_profile_runs: 7,
        ..cfg()
    };
    let include: Vec<usize> = (0..corpus.len()).collect();
    let trained_b = Predictor::train_few_runs(&corpus, &include, cfg_b).expect("train b");
    let key_b = registry
        .store(fp, &trained_b.to_artifact())
        .expect("store b");
    assert_ne!(key_a, key_b);

    // The daemon has not seen B yet.
    let predict_b = request_line(key_b, &corpus, 1, 2);
    send(&mut stdin, &predict_b);
    let miss = recv(&mut stdout);
    assert!(miss.contains("not-found"), "{miss}");

    // Reload: both models verified and swapped in atomically.
    send(&mut stdin, "{\"op\": \"reload\", \"id\": 10}");
    let reload = recv(&mut stdout);
    assert!(reload.contains("\"ok\":true"), "{reload}");
    assert!(reload.contains("\"loaded\":2"), "{reload}");
    assert!(reload.contains("\"held_over\":0"), "{reload}");
    assert!(reload.contains("\"status\":\"ok\""), "{reload}");
    assert!(reload.contains("\"id\":10"), "{reload}");

    send(&mut stdin, &predict_b);
    let hit_b = recv(&mut stdout);
    assert!(hit_b.contains("\"ok\":true"), "{hit_b}");
    send(&mut stdin, &predict_a);
    let after = recv(&mut stdout);
    assert_eq!(
        before, after,
        "model A must predict bit-identically across the swap"
    );

    // Vandalize B's artifact on disk: the reload keeps the old B
    // serving, marks it held over, and degrades the daemon.
    let entry_b = dir.join(format!("model-{key_b:016x}.json"));
    fs::write(&entry_b, "{\"vandalized\": true}").expect("corrupt");
    send(&mut stdin, "{\"op\": \"reload\"}");
    let degraded_reload = recv(&mut stdout);
    assert!(degraded_reload.contains("\"ok\":true"), "{degraded_reload}");
    assert!(
        degraded_reload.contains("\"held_over\":1"),
        "{degraded_reload}"
    );
    assert!(
        degraded_reload.contains("\"status\":\"degraded\""),
        "{degraded_reload}"
    );

    send(&mut stdin, "{\"op\": \"health\"}");
    let health = recv(&mut stdout);
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"held_over\":true"), "{health}");
    assert!(health.contains(&format!("{key_b:016x}")), "{health}");
    assert!(health.contains("staleness_s"), "{health}");

    send(&mut stdin, &predict_b);
    let held_b = recv(&mut stdout);
    assert_eq!(
        hit_b, held_b,
        "held-over B must keep serving bit-identically"
    );

    send(&mut stdin, "{\"shutdown\": true}");
    let ack = recv(&mut stdout);
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    drop(stdin);
    wait_exit_ok(child);
}

/// An injected registry I/O fault fails the whole reload with a typed
/// response and marks the daemon degraded — but the old snapshot keeps
/// serving bit-identically, and the next (un-faulted) reload recovers
/// health to `ok`.
#[test]
fn failed_reload_keeps_old_snapshot_serving_and_recovers_on_retry() {
    let dir = tmp_dir("reload-io");
    let (corpus, key) = seed_registry(&dir);
    let (child, mut stdin, mut stdout) = spawn_stdio(&dir, &["--inject-serve", "reload-io@0"]);

    let predict = request_line(key, &corpus, 0, 1);
    send(&mut stdin, &predict);
    let before = recv(&mut stdout);
    assert!(before.contains("\"ok\":true"), "{before}");

    // Reload attempt 0 hits the injected I/O fault.
    send(&mut stdin, "{\"op\": \"reload\", \"id\": 5}");
    let failed = recv(&mut stdout);
    assert!(failed.contains("\"ok\":false"), "{failed}");
    assert!(failed.contains("reload-failed"), "{failed}");
    assert!(failed.contains("\"status\":\"degraded\""), "{failed}");
    assert!(failed.contains("\"id\":5"), "{failed}");
    assert!(failed.contains("injected fault"), "{failed}");

    send(&mut stdin, &predict);
    let during = recv(&mut stdout);
    assert_eq!(
        before, during,
        "old snapshot must serve across a failed reload"
    );

    // Attempt 1 is clean: health recovers.
    send(&mut stdin, "{\"op\": \"reload\"}");
    let recovered = recv(&mut stdout);
    assert!(recovered.contains("\"ok\":true"), "{recovered}");
    assert!(recovered.contains("\"status\":\"ok\""), "{recovered}");
    send(&mut stdin, "{\"op\": \"health\"}");
    let health = recv(&mut stdout);
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    send(&mut stdin, "{\"shutdown\": true}");
    let ack = recv(&mut stdout);
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    drop(stdin);
    wait_exit_ok(child);
}

/// Clean drain: a client floods slow (chaos-delayed) requests, another
/// client asks for shutdown while they grind — every admitted request
/// still gets its response before the daemon exits 0, and the counters
/// account for every line.
#[test]
fn shutdown_drains_every_admitted_request() {
    use std::os::unix::net::UnixStream;

    const FLOOD: usize = 30;
    let dir = tmp_dir("drain");
    let (corpus, key) = seed_registry(&dir);
    let socket = dir.join("pv-serve.sock");
    let metrics = dir.join("METRICS.json");
    // 20ms of real injected delay per request, batch 1: the queue
    // stays busy long enough for the shutdown to land amid the flood.
    let plan: Vec<String> = (0..FLOOD as u64).map(|s| format!("slow@{s}:20")).collect();
    let child = Daemon::spawn(
        Command::new(serve_binary())
            .args(["--registry"])
            .arg(&dir)
            .args(["--socket"])
            .arg(&socket)
            .args(["--batch", "1", "--inject-serve", &plan.join(",")])
            .args(["--metrics-out"])
            .arg(&metrics)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    let stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for i in 0..FLOOD {
        let line = request_line(key, &corpus, i % corpus.len(), i);
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
    }
    writer.flush().expect("flush");

    // While the flood grinds (~FLOOD * 20ms), a second client asks the
    // daemon to stop.
    std::thread::sleep(Duration::from_millis(100));
    let y = UnixStream::connect(&socket).expect("connect y");
    let mut y_reader = BufReader::new(y.try_clone().expect("clone y"));
    let mut y_writer = y;
    y_writer
        .write_all(b"{\"shutdown\": true}\n")
        .expect("write y");
    y_writer.flush().expect("flush y");

    // Every flooded request was admitted before the shutdown, so every
    // one must be answered — a clean drain drops nothing.
    let mut oks = 0usize;
    for _ in 0..FLOOD {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read flood reply");
        assert!(!reply.is_empty(), "daemon dropped an admitted request");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        oks += 1;
    }
    assert_eq!(oks, FLOOD);
    let mut ack = String::new();
    y_reader.read_line(&mut ack).expect("read ack");
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    wait_exit_ok(child);

    assert_eq!(counter(&metrics, "pv.serve.request"), FLOOD as u64 + 1);
    assert_eq!(counter(&metrics, "pv.serve.request.ok"), FLOOD as u64);
    assert_eq!(counter(&metrics, "pv.serve.shutdown"), 1);
}

/// A malformed flood from a client that disconnects without reading a
/// single reply must not wedge the daemon: a later client predicts
/// fine and a clean shutdown still exits 0.
#[test]
fn malformed_flood_and_vanishing_client_do_not_wedge_the_daemon() {
    use std::os::unix::net::UnixStream;

    let dir = tmp_dir("flood");
    let (corpus, key) = seed_registry(&dir);
    let socket = dir.join("pv-serve.sock");
    let child = Daemon::spawn(
        Command::new(serve_binary())
            .args(["--registry"])
            .arg(&dir)
            .args(["--socket"])
            .arg(&socket)
            .args(["--queue", "64"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    {
        let mut flood = UnixStream::connect(&socket).expect("connect flood");
        for _ in 0..200 {
            let _ = flood.write_all(b"this is not json\n");
        }
        let _ = flood.flush();
        // Drop without reading anything: the daemon's reply writes race
        // our close into EPIPE.
    }
    std::thread::sleep(Duration::from_millis(200));

    let stream = UnixStream::connect(&socket).expect("connect after flood");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let line = request_line(key, &corpus, 0, 7);
    writer.write_all(line.as_bytes()).expect("write");
    writer.write_all(b"\n").expect("write");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(
        reply.contains("\"ok\":true"),
        "daemon wedged by flood: {reply}"
    );
    assert!(reply.contains("\"id\":7"), "{reply}");

    writer.write_all(b"{\"shutdown\": true}\n").expect("write");
    writer.flush().expect("flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    wait_exit_ok(child);
}

/// Extracts the integer following `"key":` from a flat JSON line the
/// daemon rendered (no nested maps between the key and its value).
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + pat.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not an integer in {line}"))
}

/// Extracts the string following `"key":"` from a rendered JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":\"");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + pat.len()..];
    &rest[..rest
        .find('"')
        .unwrap_or_else(|| panic!("unterminated {key} in {line}"))]
}

/// `{"op":"stats"}` under deterministic chaos: windowed counts and
/// exact totals reconcile three ways — the stats document, the JSONL
/// access log tally, and the exported `pv.serve.*` counters all
/// describe the same 10 requests, and every access-log latency
/// breakdown sums to its own total.
#[test]
fn stats_verb_reconciles_with_access_log_and_counters_under_chaos() {
    let dir = tmp_dir("stats");
    let (corpus, key) = seed_registry(&dir);
    let metrics = dir.join("METRICS.json");
    let access = dir.join("access.jsonl");
    let metrics_str = metrics.to_string_lossy().into_owned();
    let access_str = access.to_string_lossy().into_owned();
    let (child, mut stdin, mut stdout) = spawn_stdio(
        &dir,
        &[
            "--batch",
            "1",
            "--deadline-ms",
            "10000",
            "--slo-ms",
            "10000",
            "--inject-serve",
            "slow@2:600000,shed@4",
            "--metrics-out",
            &metrics_str,
            "--access-log",
            &access_str,
        ],
    );

    // One-at-a-time so arrival sequence == reply order, deterministic.
    for i in 0..8 {
        send(&mut stdin, &request_line(key, &corpus, i % corpus.len(), i));
        let reply = recv(&mut stdout);
        match i {
            2 => assert!(reply.contains("\"timeout\""), "seq {i}: {reply}"),
            4 => assert!(reply.contains("\"overloaded\""), "seq {i}: {reply}"),
            _ => assert!(reply.contains("\"ok\":true"), "seq {i}: {reply}"),
        }
    }

    send(&mut stdin, "{\"op\": \"stats\", \"id\": 50}");
    let stats = recv(&mut stdout);
    assert!(stats.contains("\"op\":\"stats\""), "{stats}");
    assert!(stats.contains("\"id\":50"), "{stats}");
    // Exact totals at render time: the 8 predicts, sealed in order.
    let totals_at = stats.find("\"totals\":{").expect("totals block");
    let totals = &stats[totals_at..stats[totals_at..].find('}').unwrap() + totals_at];
    assert_eq!(field_u64(totals, "requests"), 8, "{stats}");
    assert_eq!(field_u64(totals, "ok"), 6, "{stats}");
    assert_eq!(field_u64(totals, "timeout"), 1, "{stats}");
    assert_eq!(field_u64(totals, "overloaded"), 1, "{stats}");
    assert_eq!(field_u64(totals, "stats"), 0, "{stats}");
    // The 5m window has seen the whole session.
    let w5_at = stats.find("\"window\":\"5m\"").expect("5m window");
    let w5 = &stats[w5_at..];
    assert_eq!(field_u64(w5, "requests"), 8, "{stats}");
    assert_eq!(field_u64(w5, "ok"), 6, "{stats}");
    assert_eq!(field_u64(w5, "shed"), 1, "{stats}");
    assert_eq!(field_u64(w5, "timeout"), 1, "{stats}");
    // SLO budget: all 8 predicts eligible, timeout + shed burned it.
    let slo_at = stats.find("\"slo\":{").expect("slo block");
    let slo = &stats[slo_at..];
    assert_eq!(field_u64(slo, "eligible"), 8, "{stats}");
    assert_eq!(field_u64(slo, "violations"), 2, "{stats}");

    send(&mut stdin, "{\"shutdown\": true}");
    let ack = recv(&mut stdout);
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    drop(stdin);
    wait_exit_ok(child);

    // The access log: exactly one line per request, in arrival order,
    // each breakdown summing to its own total.
    let log = fs::read_to_string(&access).expect("access log");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 10, "{log}");
    let mut tally: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(field_u64(line, "req"), i as u64, "{line}");
        *tally.entry(field_str(line, "outcome")).or_default() += 1;
        let sum = field_u64(line, "queue_ns")
            + field_u64(line, "predict_ns")
            + field_u64(line, "write_ns");
        assert_eq!(field_u64(line, "total_ns"), sum, "{line}");
    }
    assert_eq!(tally.get("ok"), Some(&6), "{tally:?}");
    assert_eq!(tally.get("timeout"), Some(&1), "{tally:?}");
    assert_eq!(tally.get("overloaded"), Some(&1), "{tally:?}");
    assert_eq!(tally.get("stats"), Some(&1), "{tally:?}");
    assert_eq!(tally.get("shutdown"), Some(&1), "{tally:?}");
    // The faulted request carries its virtual (injected) delay.
    assert_eq!(
        field_u64(lines[2], "virtual_ns"),
        600_000 * 1_000_000,
        "{}",
        lines[2]
    );

    // And the exported counters agree with both.
    assert_eq!(counter(&metrics, "pv.serve.request"), 10);
    assert_eq!(counter(&metrics, "pv.serve.request.ok"), 6);
    assert_eq!(counter(&metrics, "pv.serve.request.timeout"), 1);
    assert_eq!(counter(&metrics, "pv.serve.request.overloaded"), 1);
    assert_eq!(counter(&metrics, "pv.serve.request.stats"), 1);
    assert_eq!(counter(&metrics, "pv.serve.shutdown"), 1);
    assert_eq!(counter(&metrics, "pv.serve.shed"), 1);
}

/// A shed burst over the anomaly threshold trips the flight recorder
/// exactly once; the post-mortem dump pins the ring contents and is
/// byte-identical across a rerun of the same deterministic chaos plan.
#[test]
fn flight_recorder_dump_is_byte_stable_across_reruns() {
    let dir = tmp_dir("recorder");
    let (corpus, key) = seed_registry(&dir);
    let mut lines: Vec<String> = (0..4)
        .map(|i| request_line(key, &corpus, i % corpus.len(), i))
        .collect();
    lines.push("{\"shutdown\": true}".to_string());

    let mut dumps = Vec::new();
    for run in 0..2 {
        let dump = dir.join(format!("flight-{run}.jsonl"));
        let dump_str = dump.to_string_lossy().into_owned();
        let (child, stdin, stdout) = spawn_stdio(
            &dir,
            &[
                "--batch",
                "1",
                "--inject-serve",
                "shed@0,shed@1,shed@2",
                "--flight-recorder",
                &dump_str,
                "--anomaly-threshold",
                "3",
                "--recorder-capacity",
                "8",
            ],
        );
        let replies = session(stdin, stdout, &lines);
        wait_exit_ok(child);
        assert_eq!(replies.len(), 5, "{replies:?}");
        for reply in &replies[..3] {
            assert!(reply.contains("\"overloaded\""), "{reply}");
        }
        assert!(replies[3].contains("\"ok\":true"), "{}", replies[3]);
        dumps.push(fs::read_to_string(&dump).expect("flight dump"));
    }
    assert_eq!(
        dumps[0], dumps[1],
        "the post-mortem must be byte-stable across reruns"
    );
    let dump: Vec<&str> = dumps[0].lines().collect();
    assert_eq!(dump.len(), 4, "{}", dumps[0]);
    assert_eq!(field_str(dump[0], "trigger"), "shed-burst", "{}", dump[0]);
    assert_eq!(field_u64(dump[0], "seq"), 2, "{}", dump[0]);
    assert_eq!(field_u64(dump[0], "events"), 3, "{}", dump[0]);
    for (i, event) in dump[1..].iter().enumerate() {
        assert_eq!(field_u64(event, "seq"), i as u64, "{event}");
        assert_eq!(field_str(event, "outcome"), "overloaded", "{event}");
        assert!(event.contains("\"model\":null"), "{event}");
    }
}

/// An injected worker panic is caught per-request: the victim gets a
/// typed `panic` error, the daemon survives to answer the next request
/// bit-identically, the panic counter ticks, and the flight recorder
/// trips with the `worker-panic` trigger.
#[test]
fn injected_panic_is_survived_typed_and_trips_the_recorder() {
    let dir = tmp_dir("panic");
    let (corpus, key) = seed_registry(&dir);
    let metrics = dir.join("METRICS.json");
    let dump = dir.join("flight.jsonl");
    let metrics_str = metrics.to_string_lossy().into_owned();
    let dump_str = dump.to_string_lossy().into_owned();
    let (child, mut stdin, mut stdout) = spawn_stdio(
        &dir,
        &[
            "--batch",
            "1",
            "--inject-serve",
            "panic@1",
            "--metrics-out",
            &metrics_str,
            "--flight-recorder",
            &dump_str,
        ],
    );

    let line = request_line(key, &corpus, 0, 7);
    send(&mut stdin, &line);
    let before = recv(&mut stdout);
    assert!(before.contains("\"ok\":true"), "{before}");

    send(&mut stdin, &request_line(key, &corpus, 1, 8));
    let crashed = recv(&mut stdout);
    assert!(crashed.contains("\"ok\":false"), "{crashed}");
    assert!(crashed.contains("\"panic\""), "{crashed}");

    // The worker pool survives: the same request answers bit-identically.
    send(&mut stdin, &line);
    let after = recv(&mut stdout);
    assert_eq!(before, after, "daemon must serve identically after a panic");

    send(&mut stdin, "{\"shutdown\": true}");
    let ack = recv(&mut stdout);
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    drop(stdin);
    wait_exit_ok(child);

    let post_mortem = fs::read_to_string(&dump).expect("flight dump");
    let first = post_mortem.lines().next().expect("header");
    assert_eq!(field_str(first, "trigger"), "worker-panic", "{post_mortem}");
    assert_eq!(field_u64(first, "seq"), 1, "{post_mortem}");

    assert_eq!(counter(&metrics, "pv.serve.request"), 4);
    assert_eq!(counter(&metrics, "pv.serve.request.ok"), 2);
    assert_eq!(counter(&metrics, "pv.serve.request.error"), 1);
    assert_eq!(counter(&metrics, "pv.serve.panic"), 1);
    assert_eq!(counter(&metrics, "pv.serve.recorder.trip"), 1);
}

/// SIGHUP reloads the registry like `{"op": "reload"}`: a model sealed
/// into the live directory after startup shows up in the health probe
/// without a restart, and the daemon still shuts down cleanly.
#[test]
fn sighup_reloads_a_model_sealed_after_startup() {
    use std::os::unix::net::UnixStream;

    // glibc is already linked; declare `kill` directly rather than
    // growing a libc dependency for one call.
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGHUP: i32 = 1;

    let dir = tmp_dir("sighup");
    let (corpus, _) = seed_registry(&dir);
    let socket = dir.join("pv-serve.sock");
    let child = Daemon::spawn(
        Command::new(serve_binary())
            .args(["--registry"])
            .arg(&dir)
            .args(["--socket"])
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    );
    // The handler is installed before the socket is bound.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    let registry = ModelRegistry::new(dir.to_path_buf());
    let cfg_b = FewRunsConfig {
        n_profile_runs: 7,
        ..cfg()
    };
    let include: Vec<usize> = (0..corpus.len()).collect();
    let trained_b = Predictor::train_few_runs(&corpus, &include, cfg_b).expect("train b");
    registry
        .store(corpus_fingerprint(&corpus), &trained_b.to_artifact())
        .expect("store b");

    // SAFETY: `kill` only sends a signal to the child we spawned.
    let sent = unsafe { kill(child.id() as i32, SIGHUP) };
    assert_eq!(sent, 0, "kill -HUP failed");

    let stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        writer.write_all(b"{\"op\": \"health\"}\n").expect("write");
        writer.flush().expect("flush");
        let mut health = String::new();
        reader.read_line(&mut health).expect("read health");
        if health.matches("\"model\":").count() == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "SIGHUP never reloaded the second model: {health}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    writer.write_all(b"{\"shutdown\": true}\n").expect("write");
    writer.flush().expect("flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    wait_exit_ok(child);
}
