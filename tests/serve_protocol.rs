//! Protocol robustness of the real `pv-serve` binary: malformed input,
//! unknown keys, oversized lines, interleaved concurrent clients, and
//! clean shutdown — every one a typed JSON reply and exit status 0,
//! with the exported `pv.serve.*` counters exactly matching the
//! response tally.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use perfvar_suite::core::registry::{artifact_key, Artifact, ModelRegistry};
use perfvar_suite::core::sweep::CellConfig;
use perfvar_suite::core::usecase1::{FewRunsConfig, FewRunsPredictor};
use perfvar_suite::core::{corpus_fingerprint, ModelKind, Profile, ReprKind};
use perfvar_suite::obs::read_metrics;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

const RUNS: usize = 30;
const SEED: u64 = 11;

/// Locates the workspace `pv-serve` binary next to this test
/// executable (`target/<profile>/deps/<test>` → `target/<profile>/`),
/// building it on demand — `cargo test` for the facade package does not
/// build other members' binaries.
fn serve_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test exe path");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("target profile dir")
        .to_path_buf();
    let bin = profile_dir.join("pv-serve");
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "-p", "pv-bench", "--bin", "pv-serve"]);
        if profile_dir.file_name().map(|n| n == "release") == Some(true) {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo build");
        assert!(status.success(), "building pv-serve failed");
    }
    assert!(bin.exists(), "no pv-serve binary at {}", bin.display());
    bin
}

fn cfg() -> FewRunsConfig {
    FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 5,
        profiles_per_benchmark: 2,
        ..FewRunsConfig::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv-serve-proto-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Seals one model and returns (corpus, registry key).
fn seed_registry(dir: &Path) -> (Corpus, u64) {
    let corpus = Corpus::collect(&SystemModel::intel(), RUNS, SEED);
    let registry = ModelRegistry::new(dir);
    let fp = corpus_fingerprint(&corpus);
    let include: Vec<usize> = (0..corpus.len()).collect();
    let trained = FewRunsPredictor::train(&corpus, &include, cfg()).expect("train");
    registry
        .store(fp, &Artifact::FewRuns(trained.to_artifact()))
        .expect("store");
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

fn wait_exit_ok(mut child: Child) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "pv-serve exited with {status}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("pv-serve did not exit within 30s");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn counter(metrics: &Path, name: &str) -> u64 {
    read_metrics(metrics)
        .expect("metrics snapshot")
        .counter(name)
        .unwrap_or_else(|| panic!("counter {name} missing from {}", metrics.display()))
}

/// stdin/stdout mode: a valid request, malformed JSON, an unknown
/// model key, a non-object line, and a shutdown — five typed replies in
/// order, exit 0, and counters that partition the request tally.
#[test]
fn stdio_session_answers_everything_typed_and_counts_match() {
    let dir = tmp_dir("stdio");
    let (corpus, key) = seed_registry(&dir);
    let metrics = dir.join("METRICS.json");
    let mut child = Command::new(serve_binary())
        .args(["--registry"])
        .arg(&dir)
        .args(["--metrics-out"])
        .arg(&metrics)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pv-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let lines = [
        request_line(key, &corpus, 0, 1),
        "this is not json".to_string(),
        format!(
            "{{\"id\": 3, \"model\": \"{:016x}\", \"profile\": {}, \"n_samples\": 10}}",
            key ^ 0xDEAD,
            serde_json::to_string(&Profile::from_runs(&corpus.benchmarks[1].runs, 5).unwrap())
                .unwrap()
        ),
        "[1, 2, 3]".to_string(),
        "{\"shutdown\": true, \"id\": 99}".to_string(),
    ];
    for line in &lines {
        stdin.write_all(line.as_bytes()).expect("write");
        stdin.write_all(b"\n").expect("write");
    }
    stdin.flush().expect("flush");

    let replies: Vec<String> = stdout.lines().map(|l| l.expect("read reply")).collect();
    assert_eq!(replies.len(), 5, "{replies:?}");
    assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
    assert!(replies[0].contains("\"id\":1"), "{}", replies[0]);
    assert!(replies[0].contains("\"samples\""), "{}", replies[0]);
    assert!(replies[1].contains("\"ok\":false"), "{}", replies[1]);
    assert!(replies[1].contains("bad-request"), "{}", replies[1]);
    assert!(replies[2].contains("not-found"), "{}", replies[2]);
    assert!(replies[2].contains("\"id\":3"), "{}", replies[2]);
    assert!(replies[3].contains("bad-request"), "{}", replies[3]);
    assert!(replies[4].contains("\"shutdown\":true"), "{}", replies[4]);
    assert!(replies[4].contains("\"id\":99"), "{}", replies[4]);
    drop(stdin);
    wait_exit_ok(child);

    assert_eq!(counter(&metrics, "pv.serve.request"), 5);
    assert_eq!(counter(&metrics, "pv.serve.request.ok"), 1);
    assert_eq!(counter(&metrics, "pv.serve.request.bad"), 2);
    assert_eq!(counter(&metrics, "pv.serve.request.not_found"), 1);
    assert_eq!(counter(&metrics, "pv.serve.request.error"), 0);
    assert_eq!(counter(&metrics, "pv.serve.shutdown"), 1);
    assert!(counter(&metrics, "pv.serve.batch") >= 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A line exceeding `--max-line` gets a typed bad-request reply (the
/// payload is discarded, not buffered), and the daemon keeps serving.
#[test]
fn oversized_line_is_rejected_not_fatal() {
    let dir = tmp_dir("oversize");
    let (corpus, key) = seed_registry(&dir);
    let mut child = Command::new(serve_binary())
        .args(["--registry"])
        .arg(&dir)
        .args(["--max-line", "512"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pv-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let huge = format!("{{\"padding\": \"{}\"}}", "x".repeat(4096));
    // A real request is far larger than 512 bytes too, so probe
    // liveness with a small not-found request instead.
    assert!(request_line(key, &corpus, 0, 1).len() > 512);
    let probe = "{\"id\": 2, \"model\": \"00000000000000aa\", \"profile\": {\"n_runs\": 1, \"n_metrics\": 1, \"features\": [1.0]}}";
    for line in [huge.as_str(), probe, "{\"shutdown\": true}"] {
        stdin.write_all(line.as_bytes()).expect("write");
        stdin.write_all(b"\n").expect("write");
    }
    stdin.flush().expect("flush");

    let replies: Vec<String> = stdout.lines().map(|l| l.expect("read reply")).collect();
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(replies[0].contains("bad-request"), "{}", replies[0]);
    assert!(replies[0].contains("exceeds 512 bytes"), "{}", replies[0]);
    assert!(replies[1].contains("not-found"), "{}", replies[1]);
    assert!(replies[2].contains("\"shutdown\":true"), "{}", replies[2]);
    drop(stdin);
    wait_exit_ok(child);
    let _ = fs::remove_dir_all(&dir);
}

/// A line of nothing but opening brackets, far under the line cap, is a
/// typed `bad-request` and the daemon keeps answering: the JSON parser
/// caps nesting instead of recursing until the stack overflows (which
/// aborts the process; no panic handler can catch it).
#[test]
fn deeply_nested_line_is_a_typed_error_not_a_crash() {
    let dir = tmp_dir("deep");
    seed_registry(&dir);
    let mut child = Command::new(serve_binary())
        .args(["--registry"])
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pv-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let deep = "[".repeat(20_000);
    for line in [deep.as_str(), "{\"op\":\"health\"}", "{\"shutdown\": true}"] {
        stdin.write_all(line.as_bytes()).expect("write");
        stdin.write_all(b"\n").expect("write");
    }
    stdin.flush().expect("flush");

    let replies: Vec<String> = stdout.lines().map(|l| l.expect("read reply")).collect();
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(replies[0].contains("bad-request"), "{}", replies[0]);
    assert!(replies[0].contains("recursion limit"), "{}", replies[0]);
    assert!(replies[1].contains("\"op\":\"health\""), "{}", replies[1]);
    assert!(replies[1].contains("\"ok\":true"), "{}", replies[1]);
    assert!(replies[2].contains("\"shutdown\":true"), "{}", replies[2]);
    drop(stdin);
    wait_exit_ok(child);
    let _ = fs::remove_dir_all(&dir);
}

/// A client that sends shutdown and hangs up without reading the ack
/// must still stop the daemon (regression: the EPIPE from the ack
/// write used to eat the shutdown signal and leave the accept loop
/// spinning forever).
#[test]
fn shutdown_from_vanishing_client_still_stops_the_daemon() {
    use std::os::unix::net::UnixStream;

    let dir = tmp_dir("vanish");
    let _ = seed_registry(&dir);
    let socket = dir.join("pv-serve.sock");
    let child = Command::new(serve_binary())
        .args(["--registry"])
        .arg(&dir)
        .args(["--socket"])
        .arg(&socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pv-serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    {
        let mut stream = UnixStream::connect(&socket).expect("connect");
        stream.write_all(b"{\"shutdown\": true}\n").expect("write");
        stream.flush().expect("flush");
        // Drop without reading: the daemon's ack write races our close.
    }
    wait_exit_ok(child);
    let _ = fs::remove_dir_all(&dir);
}

/// Unix-socket mode: three clients interleave pipelined requests; each
/// gets its own replies back in its own order (ids echo through), a
/// shutdown from one client stops the daemon with exit 0, and the
/// exported counters equal the combined response tally.
#[test]
fn socket_clients_interleave_without_crosstalk() {
    use std::os::unix::net::UnixStream;

    let dir = tmp_dir("socket");
    let (corpus, key) = seed_registry(&dir);
    let socket = dir.join("pv-serve.sock");
    let metrics = dir.join("METRICS.json");
    let child = Command::new(serve_binary())
        .args(["--registry"])
        .arg(&dir)
        .args(["--socket"])
        .arg(&socket)
        .args(["--metrics-out"])
        .arg(&metrics)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pv-serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    const PER_CLIENT: usize = 12;
    let results: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|c| {
                let corpus = &corpus;
                let socket = &socket;
                scope.spawn(move || {
                    let stream = UnixStream::connect(socket).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut writer = stream;
                    let mut answered = 0usize;
                    for i in 0..PER_CLIENT {
                        let id = c * 1000 + i;
                        let line = request_line(key, corpus, (c + i) % corpus.len(), id);
                        writer.write_all(line.as_bytes()).expect("write");
                        writer.write_all(b"\n").expect("write");
                        writer.flush().expect("flush");
                        let mut reply = String::new();
                        reader.read_line(&mut reply).expect("read");
                        assert!(reply.contains("\"ok\":true"), "{reply}");
                        assert!(
                            reply.contains(&format!("\"id\":{id}")),
                            "client {c} got someone else's reply: {reply}"
                        );
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    assert_eq!(results, vec![PER_CLIENT; 3]);

    // A fourth client asks the daemon to stop.
    let stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writer.write_all(b"{\"shutdown\": true}\n").expect("write");
    writer.flush().expect("flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    assert!(ack.contains("\"shutdown\":true"), "{ack}");
    wait_exit_ok(child);
    assert!(!socket.exists(), "socket file must be removed on shutdown");

    assert_eq!(
        counter(&metrics, "pv.serve.request"),
        3 * PER_CLIENT as u64 + 1
    );
    assert_eq!(
        counter(&metrics, "pv.serve.request.ok"),
        3 * PER_CLIENT as u64
    );
    assert_eq!(counter(&metrics, "pv.serve.shutdown"), 1);
    assert_eq!(counter(&metrics, "pv.serve.request.bad"), 0);
    assert_eq!(counter(&metrics, "pv.serve.request.not_found"), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// `{"op":"stats"}` is a first-class protocol verb: it answers with the
/// live totals/windows document (id echoed through), never burns the
/// deadline budget, shows up in the advertised op list, and lands in
/// its own counter so the outcome partition still sums to the request
/// tally.
#[test]
fn stats_verb_returns_live_windows_and_joins_the_partition() {
    let dir = tmp_dir("stats");
    let (corpus, key) = seed_registry(&dir);
    let metrics = dir.join("METRICS.json");
    let mut child = Command::new(serve_binary())
        .args(["--registry"])
        .arg(&dir)
        .args(["--metrics-out"])
        .arg(&metrics)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pv-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout")).lines();
    let mut send = |line: &str| {
        stdin.write_all(line.as_bytes()).expect("write");
        stdin.write_all(b"\n").expect("write");
        stdin.flush().expect("flush");
    };

    // Jobs of one batch run in parallel, and `totals.requests` counts
    // the requests sealed *before* the stats probe, so the predict reply
    // must be read before the probe is written, and the probe's reply
    // before the unknown op (sealed in the same batch, it could land in
    // the totals first).
    send(&request_line(key, &corpus, 0, 1));
    let mut replies = vec![stdout.next().expect("predict reply").expect("read reply")];
    send("{\"op\": \"stats\", \"id\": 4}");
    replies.push(stdout.next().expect("stats reply").expect("read reply"));
    for line in ["{\"op\": \"no-such-op\"}", "{\"shutdown\": true}"] {
        send(line);
    }
    replies.extend(stdout.map(|l| l.expect("read reply")));
    assert_eq!(replies.len(), 4, "{replies:?}");
    assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
    let stats = &replies[1];
    assert!(stats.contains("\"op\":\"stats\""), "{stats}");
    assert!(stats.contains("\"id\":4"), "{stats}");
    assert!(stats.contains("\"totals\""), "{stats}");
    assert!(stats.contains("\"requests\":1"), "{stats}");
    assert!(stats.contains("\"window\":\"10s\""), "{stats}");
    assert!(stats.contains("\"window\":\"1m\""), "{stats}");
    assert!(stats.contains("\"window\":\"5m\""), "{stats}");
    assert!(stats.contains("\"p99_ns\""), "{stats}");
    assert!(stats.contains("uptime_s"), "{stats}");
    // The verb is advertised to clients probing an unknown op.
    assert!(replies[2].contains("bad-request"), "{}", replies[2]);
    assert!(
        replies[2].contains("predict|health|reload|shutdown|stats"),
        "{}",
        replies[2]
    );
    assert!(replies[3].contains("\"shutdown\":true"), "{}", replies[3]);
    drop(stdin);
    wait_exit_ok(child);

    assert_eq!(counter(&metrics, "pv.serve.request"), 4);
    assert_eq!(counter(&metrics, "pv.serve.request.ok"), 1);
    assert_eq!(counter(&metrics, "pv.serve.request.stats"), 1);
    assert_eq!(counter(&metrics, "pv.serve.request.bad"), 1);
    assert_eq!(counter(&metrics, "pv.serve.shutdown"), 1);
    let _ = fs::remove_dir_all(&dir);
}
