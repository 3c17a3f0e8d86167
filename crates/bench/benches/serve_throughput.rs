//! Serving-path throughput: the `pv-serve` engine answering prediction
//! requests in-process, single-line vs micro-batched.
//!
//! The engine carries the campaign's default use-case-1 model
//! (pearsonrnd + kNN at s = 10) exactly as `repro train` seals it; each
//! request decodes `n_samples = 100` reconstruction samples, so the
//! numbers are end-to-end (parse → predict → decode → render → seal),
//! not model-predict alone. Every request goes through
//! `ServeEngine::answer`, the daemon's one reply path. After the
//! criterion runs, the bench asserts the acceptance floor: sustained
//! batched throughput must clear 2,000 predictions/second on each of
//! the three engines.
//!
//! The `render` group times a reply's bytes alone: 1,000 reply-shaped
//! floats (one UC1 prediction's samples) through
//! `serde_json::write_f64`, and the whole UC1 ok reply (those samples,
//! the four Pearson features, the id and the framing) through
//! `serve::ok_reply`. Means on 2 vCPUs: `floats_1000` 39.6 µs and
//! `uc1_ok_reply` 37.7 µs. Before the in-repo shortest-digit writer and
//! the direct reply, core's `Display` took 94–98 µs for 1,000 such
//! floats (min of 300 timings in a standalone loop, beside 38–40 µs for
//! `write_f64`), and the reply, a `Content` tree cloned and written
//! with `Display`, took 116–132 µs (DESIGN §9, against 40–50 µs written
//! directly).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pv_bench::serve::{ok_reply, Incoming, Outcome, ServeEngine, ServeTelemetry, TelemetryOpts};
use pv_bench::{uc1_config, CAMPAIGN_SEED};
use pv_core::registry::artifact_key;
use pv_core::sweep::CellConfig;
use pv_core::{corpus_fingerprint, ModelKind, Predictor, Profile, ReprKind};
use pv_sysmodel::{Corpus, SystemModel};
use rayon::prelude::*;

/// The telemetry engine's scratch directory (access log and flight
/// recorder), removed when dropped — when the bench ends, panics
/// included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Three engines (plain, resilience-enabled, and full-telemetry) plus a
/// ring of pre-rendered request lines. 200 runs per benchmark keeps
/// setup to a few seconds while leaving the serving path identical to
/// production. Fields drop in order, so the engines are gone before
/// their scratch directory is removed.
struct Fixture {
    engine: ServeEngine,
    resilient: ServeEngine,
    telemetered: ServeEngine,
    lines: Vec<String>,
    /// One UC1 prediction at 1,000 samples: its features and samples.
    reply: (Vec<f64>, Vec<f64>),
    _scratch: Scratch,
}

fn fixture() -> Fixture {
    let corpus = Corpus::collect(&SystemModel::intel(), 200, CAMPAIGN_SEED);
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    let include: Vec<usize> = (0..corpus.len()).collect();
    let predictor = Predictor::train_few_runs(&corpus, &include, cfg).expect("train");
    let key = artifact_key(corpus_fingerprint(&corpus), &CellConfig::FewRuns(cfg)).expect("key");
    let engine_for = |p: Predictor| ServeEngine::from_models(HashMap::from([(key, p)]));
    let twin = || Predictor::from_artifact(predictor.to_artifact()).expect("artifact roundtrip");
    let resilient = engine_for(twin()).with_deadline(Some(Duration::from_secs(5)));
    // The full telemetry plane as an operator would run it: rolling
    // windows (always on), an SLO budget, the flight recorder, and
    // a real JSONL access log on disk.
    let scratch =
        Scratch(std::env::temp_dir().join(format!("pv-serve-throughput-{}", std::process::id())));
    let _ = std::fs::create_dir_all(&scratch.0);
    let telemetry = ServeTelemetry::new(TelemetryOpts {
        access_log: Some(scratch.0.join("access.jsonl")),
        slo: Some(Duration::from_millis(250)),
        recorder: Some(scratch.0.join("flight.jsonl")),
        ..TelemetryOpts::default()
    })
    .expect("telemetry");
    let telemetered = engine_for(twin())
        .with_deadline(Some(Duration::from_secs(5)))
        .with_telemetry(telemetry);
    let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
    let features = predictor
        .predict_features(&profile, None)
        .expect("features");
    let samples = predictor
        .decode_features(&features, 1000, 1)
        .expect("samples");
    let engine = engine_for(predictor);
    let lines: Vec<String> = corpus
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let profile = Profile::from_runs(&b.runs, 10).expect("profile");
            format!(
                "{{\"id\": {i}, \"model\": \"{key:016x}\", \"profile\": {}, \
                 \"n_samples\": 100, \"sample_seed\": {i}}}",
                serde_json::to_string(&profile).expect("json")
            )
        })
        .collect();
    Fixture {
        engine,
        resilient,
        telemetered,
        lines,
        reply: (features, samples),
        _scratch: scratch,
    }
}

/// Answers a batch across the rayon pool the way the daemon's batcher
/// does — one arrival time for the batch, arrival sequence = position —
/// finishing each pending access-log record as the writer would.
/// Returns how many replies were `ok`.
fn answer_batch(engine: &ServeEngine, batch: &[&str]) -> usize {
    let now = Instant::now();
    let work: Vec<(usize, &str)> = batch.iter().copied().enumerate().collect();
    let ok: Vec<bool> = work
        .into_par_iter()
        .map(|(k, line)| {
            let reply = engine.answer(Incoming::Line(black_box(line)), k as u64, now);
            if let Some(record) = reply.record {
                record.finish(0);
            }
            reply.outcome == Outcome::Ok
        })
        .collect();
    ok.into_iter().filter(|&ok| ok).count()
}

fn bench_serve_throughput(c: &mut Criterion) {
    let fx = fixture();
    let (engine, resilient, telemetered, lines) =
        (&fx.engine, &fx.resilient, &fx.telemetered, &fx.lines);
    let batch: Vec<&str> = (0..64).map(|i| lines[i % lines.len()].as_str()).collect();
    // Bare; with the resilience layer (per-request deadline checks);
    // and with the full telemetry plane (windows + SLO + recorder +
    // a real JSONL access log).
    let engines = [
        ("bare", "batched_64", engine),
        ("resilient", "resilient_batched_64", resilient),
        ("telemetry", "telemetry_batched_64", telemetered),
    ];
    let mut g = c.benchmark_group("serve_throughput");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));

    g.bench_function("single_line", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let line = &lines[i % lines.len()];
            i += 1;
            let (resp, outcome) = engine.handle_line(black_box(line));
            assert_eq!(outcome, Outcome::Ok, "{resp}");
            resp
        })
    });

    for (_, name, engine) in engines {
        g.bench_function(name, |b| {
            b.iter(|| {
                let ok = answer_batch(engine, &batch);
                assert_eq!(ok, batch.len());
                ok
            })
        });
    }

    g.finish();

    let (features, samples) = &fx.reply;
    let mut r = c.benchmark_group("render");
    r.bench_function("floats_1000", |b| {
        let mut out = String::with_capacity(24 * samples.len());
        b.iter(|| {
            out.clear();
            for &x in samples {
                serde_json::write_f64(&mut out, black_box(x));
                out.push(',');
            }
            out.len()
        })
    });
    r.bench_function("uc1_ok_reply", |b| {
        let id = serde::Content::I64(7);
        b.iter(|| {
            ok_reply(
                Some(&id),
                0x1234,
                black_box(features),
                black_box(samples),
                None,
            )
        })
    });
    r.finish();

    // Acceptance floor: the batched path must sustain >= 2,000
    // predictions/second on every engine. Checked outside criterion's
    // sampler so a regression fails the bench run loudly instead of
    // only shifting a tracked number.
    for (label, _, engine) in engines {
        let started = Instant::now();
        let mut answered = 0usize;
        while started.elapsed() < Duration::from_secs(2) {
            let ok = answer_batch(engine, &batch);
            assert_eq!(ok, batch.len(), "[{label}] non-ok replies");
            answered += ok;
        }
        let rate = answered as f64 / started.elapsed().as_secs_f64();
        println!("serve_throughput[{label}]: sustained {rate:.0} predictions/sec (floor 2000)");
        assert!(
            rate >= 2000.0,
            "serving throughput [{label}] {rate:.0} predictions/sec is below the 2,000/sec floor"
        );
    }
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
