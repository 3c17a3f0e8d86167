//! Observability overhead: the `logo_eval` workload with the collector
//! off versus on.
//!
//! The contract this bench documents (ISSUE 4): with **no collector
//! installed** every `pv_obs` macro must reduce to one relaxed atomic
//! load and a branch, so `collector_off` must stay within noise of the
//! same workload before pv-obs existed — the `logo_eval` and
//! `sweep_warm_vs_cold` benches pin that externally. FAIL LOUDLY: if
//! `collector_off` ever regresses more than ~5% against
//! `logo_eval/pipeline_prebuilt_cache`, the disabled path has grown real
//! work and must be fixed, not re-baselined. `collector_on` is expected
//! to cost a few percent more (span buffering + atomic counters); it
//! quantifies what `--trace-out`/`--metrics-out` actually costs.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pv_bench::uc1_config;
use pv_core::eval::few_runs_spec;
use pv_core::incremental::evaluate_few_runs_incremental;
use pv_core::pipeline::EncodedCorpus;
use pv_core::{ModelKind, ReprKind};
use pv_obs::Collector;
use pv_sysmodel::{Corpus, SystemModel};

fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    g.sample_size(10);
    let corpus = Corpus::collect(&SystemModel::intel(), 100, 7);
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    let enc = EncodedCorpus::build(&corpus, &few_runs_spec(&cfg)).unwrap();

    // Identical workload to logo_eval/pipeline_prebuilt_cache: every
    // span!/timed! site is compiled in, no collector installed.
    g.bench_function("collector_off", |b| {
        b.iter(|| evaluate_few_runs_incremental(black_box(&enc), cfg, &[]).unwrap())
    });

    // Same workload recording: spans buffer + flush, timers feed latency
    // histograms. Draining per iteration keeps the trace buffer from
    // growing monotonically across samples.
    g.bench_function("collector_on", |b| {
        b.iter(|| {
            let collector = Collector::install();
            let summary = evaluate_few_runs_incremental(black_box(&enc), cfg, &[]).unwrap();
            let report = collector.finish();
            black_box((summary, report.events.len()))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
