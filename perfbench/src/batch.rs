//! The three batch workloads — `paper_grid`, `knn_append`,
//! `scale_sharded` — driven through `pv_core::sweep::Sweep` exactly as
//! `repro sweep` drives them, plus the traced replay that times each
//! layer by wrapping the benchmark's own calls into its public
//! functions.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::SeedableRng;
use rayon::prelude::*;

use pv_core::eval::{BenchScore, EvalSummary, RECONSTRUCTION_SAMPLES};
use pv_core::pipeline::{EncodedCorpus, FoldRunner, FoldView, PreparedFold, SeedMode};
use pv_core::shard::{CampaignSource, EncodedShard, ShardSource, ShardedCorpus};
use pv_core::sweep::{CellCache, CellConfig, GridSpec, Sweep, SweepReport};
use pv_core::usecase1::FewRunsConfig;
use pv_core::usecase2::CrossSystemConfig;
use pv_core::{ModelKind, ReprKind};
use pv_stats::ks::ks2_statistic_presorted;
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use pv_sysmodel::{Corpus, SystemModel};

use crate::calib::Meter;
use crate::stats::{median, tail, Tally, TAIL_BEYOND};
use crate::trace::{self, span, timed};
use crate::{dir_bytes, Ctx, HostClock, Report, Workload};

const NONE: u32 = u32::MAX;

/// Every batch workload evaluates the paper's campaign. The workload
/// seed drives the evaluation seeds (model randomness, fold seeds,
/// reconstruction sampling): a different campaign changes how much work
/// a pass does — which folds the delta path can reuse, how many MaxEnt
/// solves converge — by up to 70%, which would make the run-to-run
/// spread a property of the inputs rather than of the code.
const CAMPAIGN: u64 = pv_bench::CAMPAIGN_SEED;

/// Workload sizes. `full` is what the benchmark measures; `smoke` is a
/// seconds-scale version for the package's own tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Runs per benchmark in every campaign.
    pub runs: usize,
    /// Benchmarks of the Intel/AMD rosters the paper grid keeps.
    pub grid_benchmarks: usize,
    /// Benchmarks of the corpus-growth campaign (full roster = 60).
    pub append_benchmarks: usize,
    /// Benchmarks the growth scenario appends.
    pub append: usize,
    /// Profile sample counts of the growth grid.
    pub append_samples: Vec<usize>,
    /// Root seeds of the growth grid (the first is the workload seed).
    pub append_seeds: usize,
    /// Benchmarks of the synthetic scale campaign.
    pub scale_benchmarks: usize,
    /// Benchmarks per shard of the scale campaign.
    pub scale_shard_size: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setups: usize,
    /// Minimum measured passes (more run while time remains).
    pub min_passes: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            runs: pv_bench::CAMPAIGN_RUNS,
            grid_benchmarks: 20,
            append_benchmarks: 60,
            append: 2,
            append_samples: vec![1, 2, 5, 10, 25, 50],
            append_seeds: 2,
            scale_benchmarks: 200,
            scale_shard_size: 16,
            setups: 5,
            min_passes: 3,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Self {
        Sizes {
            runs: 200,
            grid_benchmarks: 18,
            append_benchmarks: 24,
            append: 2,
            append_samples: vec![3],
            append_seeds: 1,
            scale_benchmarks: 40,
            scale_shard_size: 8,
            setups: 1,
            min_passes: 1,
        }
    }
}

/// One measured pass: its wall time, its live-heap high-water mark,
/// when each cell's result reached the caller (seconds since the pass
/// started), and the cells.
struct Pass {
    wall_s: f64,
    heap_mb: f64,
    done_s: Vec<f64>,
    cells: Vec<CellOut>,
    fold_deltas: usize,
    fold_misses: usize,
    hits: usize,
}

/// What the output checks compare for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    pub label: String,
    pub mean_bits: u64,
    pub folds: usize,
    pub clean: bool,
}

fn cells_of(report: &SweepReport) -> Vec<CellOut> {
    report
        .cells
        .iter()
        .map(|c| CellOut {
            label: c.config.label(),
            mean_bits: c.summary().map_or(u64::MAX, |s| s.mean.to_bits()),
            folds: c.summary().map_or(0, |s| s.scores.len()),
            clean: c.outcome.is_ok(),
        })
        .collect()
}

/// Runs a sweep, recording when each cell's result arrives.
fn timed_sweep(
    sweep: &Sweep<'_, '_>,
    grid: &GridSpec,
    t0: Instant,
    done: &Mutex<Vec<f64>>,
) -> Result<SweepReport, String> {
    sweep
        .run_streaming(grid, |_| {
            let at = t0.elapsed().as_secs_f64();
            done.lock().expect("completion list lock").push(at);
        })
        .map_err(|e| format!("sweep: {e}"))
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    dir.to_path_buf()
}

fn copy_dir_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if name.to_string_lossy().starts_with("cell-") {
            std::fs::copy(entry.path(), to.join(name))?;
        }
    }
    Ok(())
}

fn collect(system: SystemModel, runs: usize, seed: u64, keep: usize) -> Corpus {
    timed("sysmodel.collect", NONE, NONE, || {
        let mut c = Corpus::collect(&system, runs, seed);
        c.benchmarks.truncate(keep);
        c
    })
}

fn encode<'c>(
    corpus: &'c Corpus,
    spec: &pv_core::EncodingSpec,
) -> Result<EncodedCorpus<'c>, String> {
    timed("pipeline.encode", NONE, NONE, || {
        EncodedCorpus::build(corpus, spec)
    })
    .map_err(|e| format!("encode: {e}"))
}

/// A corpus kept for the rest of the process (the encoded corpora that
/// the passes share borrow from it).
fn keep(c: Corpus) -> &'static Corpus {
    Box::leak(Box::new(c))
}

/// The Fig. 4 grid: 3 representations × 3 models at s = 10.
fn fig4_grid(seed: u64) -> GridSpec {
    GridSpec {
        reprs: ReprKind::ALL.to_vec(),
        models: ModelKind::ALL.to_vec(),
        sample_counts: vec![10],
        seeds: vec![seed],
        profiles_per_benchmark: pv_bench::PROFILES_PER_BENCHMARK,
    }
}

/// The Fig. 7 kNN column: 3 representations × kNN, AMD → Intel.
fn fig7_grid(seed: u64) -> GridSpec {
    GridSpec {
        reprs: ReprKind::ALL.to_vec(),
        models: vec![ModelKind::Knn],
        sample_counts: vec![pv_bench::UC2_PROFILE_RUNS],
        seeds: vec![seed],
        profiles_per_benchmark: 1,
    }
}

fn append_grid(sz: &Sizes, seed: u64) -> GridSpec {
    GridSpec {
        reprs: ReprKind::ALL.to_vec(),
        models: vec![ModelKind::Knn],
        sample_counts: sz.append_samples.clone(),
        seeds: (0..sz.append_seeds as u64)
            .map(|i| if i == 0 { seed } else { derive_stream(seed, i) })
            .collect(),
        profiles_per_benchmark: pv_bench::PROFILES_PER_BENCHMARK,
    }
}

fn scale_grid(seed: u64) -> GridSpec {
    GridSpec {
        reprs: vec![ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![10],
        seeds: vec![seed],
        profiles_per_benchmark: pv_bench::PROFILES_PER_BENCHMARK,
    }
}

/// The prepared inputs of one batch workload.
enum Prepared {
    Grid {
        uc1: EncodedCorpus<'static>,
        src: EncodedCorpus<'static>,
        dst: EncodedCorpus<'static>,
    },
    Append {
        full: EncodedCorpus<'static>,
        seeded: PathBuf,
    },
    Scale {
        sh: ShardedCorpus<'static>,
        spill: PathBuf,
    },
}

/// Set-up: collect and encode (or shard) the campaign. Returns the
/// inputs and the set-up wall time. `last` keeps the corpora alive.
fn setup(w: Workload, ctx: &Ctx, k: usize, last: bool) -> Result<(Option<Prepared>, f64), String> {
    let sz = &ctx.sizes;
    let t = Instant::now();
    let prepared = match w {
        Workload::PaperGrid => {
            let intel = collect(SystemModel::intel(), sz.runs, CAMPAIGN, sz.grid_benchmarks);
            let amd = collect(SystemModel::amd(), sz.runs, CAMPAIGN, sz.grid_benchmarks);
            if !last {
                encode_grid(&intel, &amd, ctx.seed)?;
                return Ok((None, t.elapsed().as_secs_f64()));
            }
            let (uc1, src, dst) = encode_grid(keep(intel), keep(amd), ctx.seed)?;
            Prepared::Grid { uc1, src, dst }
        }
        Workload::KnnAppend => {
            let full = collect(
                SystemModel::intel(),
                sz.runs,
                CAMPAIGN,
                sz.append_benchmarks,
            );
            let spec = append_grid(sz, ctx.seed).few_runs_encoding();
            if !last {
                encode(&full, &spec)?;
                return Ok((None, t.elapsed().as_secs_f64()));
            }
            Prepared::Append {
                full: encode(keep(full), &spec)?,
                seeded: ctx.dir.join(format!("append-seed-{k}")),
            }
        }
        Workload::ScaleSharded => {
            let spill = fresh_dir(&ctx.dir.join(format!("spill-{k}")));
            let source = ShardSource::Campaign(CampaignSource {
                system: SystemModel::intel(),
                n_benchmarks: sz.scale_benchmarks,
                n_runs: sz.runs,
                seed: CAMPAIGN,
            });
            let sh = timed("shard.build", NONE, NONE, || {
                ShardedCorpus::builder(source, &scale_grid(ctx.seed).few_runs_encoding())
                    .shard_size(sz.scale_shard_size)
                    .spill_dir(&spill)
                    .build()
            })
            .map_err(|e| format!("shard build: {e}"))?;
            Prepared::Scale { sh, spill }
        }
        Workload::ServeOpen => unreachable!("serve_open is not a batch workload"),
    };
    let secs = t.elapsed().as_secs_f64();
    Ok((last.then_some(prepared), secs))
}

type Encoded<'c> = (EncodedCorpus<'c>, EncodedCorpus<'c>, EncodedCorpus<'c>);

/// The paper grid's encodings: Intel for Fig. 4, AMD → Intel for Fig. 7.
fn encode_grid<'c>(intel: &'c Corpus, amd: &'c Corpus, seed: u64) -> Result<Encoded<'c>, String> {
    let (src_spec, dst_spec) = fig7_grid(seed).cross_system_encoding(amd);
    Ok((
        encode(intel, &fig4_grid(seed).few_runs_encoding())?,
        encode(amd, &src_spec)?,
        encode(intel, &dst_spec)?,
    ))
}

/// Phase 1 of the growth scenario: sweep the corpus minus its last
/// benchmarks into the seed cache every pass copies. Not timed as
/// set-up; its time is reported as a per-layer count.
fn seed_append_cache(
    ctx: &Ctx,
    full: &EncodedCorpus<'static>,
    seeded: &Path,
) -> Result<SweepReport, String> {
    let sz = &ctx.sizes;
    let mut base = full.corpus().clone();
    base.benchmarks.truncate(sz.append_benchmarks - sz.append);
    let base = keep(base);
    let enc = encode(base, &append_grid(sz, ctx.seed).few_runs_encoding())?;
    Sweep::few_runs(&enc)
        .with_cache(CellCache::new(fresh_dir(seeded)))
        .run(&append_grid(sz, ctx.seed))
        .map_err(|e| format!("append phase 1: {e}"))
}

/// One measured pass over fresh caches.
fn pass(ctx: &Ctx, p: &Prepared, k: usize) -> Result<Pass, String> {
    let done = Mutex::new(Vec::new());
    let dir = fresh_dir(&ctx.dir.join(format!("pass-{k}")));
    let mut cells = Vec::new();
    let (mut deltas, mut misses, mut hits) = (0, 0, 0);
    crate::heap_reset_peak();
    let t0;
    match p {
        Prepared::Grid { uc1, src, dst } => {
            let a = CellCache::new(dir.join("uc1"));
            let b = CellCache::new(dir.join("uc2"));
            t0 = Instant::now();
            let r1 = timed_sweep(
                &Sweep::few_runs(uc1).with_cache(a),
                &fig4_grid(ctx.seed),
                t0,
                &done,
            )?;
            let r2 = timed_sweep(
                &Sweep::cross_system(src, dst).with_cache(b),
                &fig7_grid(ctx.seed),
                t0,
                &done,
            )?;
            for r in [&r1, &r2] {
                cells.extend(cells_of(r));
                hits += r.hits;
            }
        }
        Prepared::Append { full, seeded } => {
            copy_dir_files(seeded, &dir).map_err(|e| format!("copy seed cache: {e}"))?;
            let cache = CellCache::new(&dir);
            t0 = Instant::now();
            let r = timed_sweep(
                &Sweep::few_runs(full).with_cache(cache),
                &append_grid(&ctx.sizes, ctx.seed),
                t0,
                &done,
            )?;
            cells = cells_of(&r);
            deltas = r.fold_stats.deltas;
            misses = r.fold_stats.misses;
            hits = r.hits + r.fold_stats.hits;
        }
        Prepared::Scale { sh, .. } => {
            t0 = Instant::now();
            let r = timed_sweep(
                &Sweep::few_runs_sharded(sh),
                &scale_grid(ctx.seed),
                t0,
                &done,
            )?;
            cells = cells_of(&r);
            hits = r.hits;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let heap_mb = crate::heap_peak_mb();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pass {
        wall_s,
        heap_mb,
        done_s: done.into_inner().expect("completion list lock"),
        cells,
        fold_deltas: deltas,
        fold_misses: misses,
        hits,
    })
}

/// Runs a batch workload: set-up, measured passes, output checks, and
/// with `ctx.trace` the traced replay.
pub fn run(w: Workload, ctx: &Ctx) -> Report {
    match run_inner(w, ctx) {
        Ok(r) => r,
        Err(e) => Report::failure(e),
    }
}

fn run_inner(w: Workload, ctx: &Ctx) -> Result<Report, String> {
    let sz = &ctx.sizes;
    let mut report = Report::default();
    let setups = if ctx.trace { 1 } else { sz.setups };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    trace::set_enabled(ctx.trace);
    for k in 0..setups {
        let meter = Meter::start();
        let (p, secs) = setup(w, ctx, k, k + 1 == setups)?;
        setup_s.push(secs * meter.finish().0);
        if p.is_some() {
            prepared = p;
        }
    }
    trace::set_enabled(false);
    let setup_spans = trace::drain();
    let prepared = prepared.expect("the last set-up keeps its inputs");
    if let Prepared::Append { full, seeded } = &prepared {
        let t = Instant::now();
        let seeded_report = seed_append_cache(ctx, full, seeded)?;
        report.note(format!(
            "append phase 1: {} cells, {} folds seeded in {:.2}s",
            seeded_report.misses,
            seeded_report.fold_stats.misses + seeded_report.fold_stats.deltas,
            t.elapsed().as_secs_f64()
        ));
    }
    if let Prepared::Scale { sh, spill } = &prepared {
        let spilled = std::fs::read_dir(spill).map_or(0, |d| d.count());
        report.check(
            spilled == sh.layout().n_shards(),
            format!(
                "{spilled} spill files for {} shards",
                sh.layout().n_shards()
            ),
        );
    }

    if ctx.trace {
        traced(w, ctx, &prepared, &setup_spans, &mut report)?;
        return Ok(report);
    }

    let mut passes = Vec::new();
    let mut scales = Vec::new();
    let mut cpu = Vec::new();
    let host = HostClock::now();
    let t = Instant::now();
    while passes.len() < sz.min_passes || t.elapsed().as_secs_f64() < ctx.seconds {
        let c = crate::process_cpu_s();
        let meter = Meter::start();
        passes.push(pass(ctx, &prepared, passes.len())?);
        scales.push(meter.finish());
        cpu.push(crate::process_cpu_s() - c);
    }
    check_passes(w, ctx, &passes, &mut report);

    let raw: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let walls: Vec<f64> = raw.iter().zip(&scales).map(|(w, s)| w * s.0).collect();
    let heaps: Vec<f64> = passes.iter().map(|p| p.heap_mb).collect();
    let done_ms: Vec<f64> = passes
        .iter()
        .zip(&scales)
        .flat_map(|(p, s)| p.done_s.iter().map(move |d| d * s.0 * 1e3))
        .collect();
    let folds: usize = passes[0].cells.iter().map(|c| c.folds).sum();
    let wall = median(&walls).unwrap_or(f64::NAN);
    let t = tail(&done_ms, TAIL_BEYOND).expect("every pass completes cells");
    report.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    report.metric("wall_s", wall);
    report.metric("p50_ms", median(&done_ms).unwrap_or(f64::NAN));
    report.metric("throughput", folds as f64 / wall);
    report.metric("peak_heap_mb", median(&heaps).unwrap_or(f64::NAN));
    report.metric("ks_mean", ks_mean(&passes[0].cells));
    report.note(format!(
        "{} passes, wall median {wall:.3}s scaled ({:.3}s raw, cpu {:.3}s); time-to-result tail p{:.1} of n={}; {folds} folds per pass",
        passes.len(),
        median(&raw).unwrap_or(f64::NAN),
        median(&cpu).unwrap_or(f64::NAN),
        t.pct,
        t.n
    ));
    report.note(host.describe(&scales));
    Ok(report)
}

fn ks_mean(cells: &[CellOut]) -> f64 {
    cells
        .iter()
        .map(|c| f64::from_bits(c.mean_bits))
        .sum::<f64>()
        / cells.len() as f64
}

/// Output checks: every pass identical and clean, deterministic counts,
/// and on the default seed the recorded reference values.
fn check_passes(w: Workload, ctx: &Ctx, passes: &[Pass], report: &mut Report) {
    let first = &passes[0];
    for p in passes {
        let unclean = p.cells.iter().filter(|c| !c.clean).count() as u64;
        report.tally.add(Tally {
            attempted: p.cells.len() as u64,
            failed: unclean,
        });
        report.check(
            p.cells == first.cells,
            "cell results differ between passes".into(),
        );
        report.check(p.hits == 0, format!("{} cache hits on a cold pass", p.hits));
        report.check(
            (p.fold_deltas, p.fold_misses) == (first.fold_deltas, first.fold_misses),
            "fold-cache counts differ between passes".into(),
        );
    }
    if w == Workload::KnnAppend {
        let folds: usize = first.cells.iter().map(|c| c.folds).sum();
        report.check(
            first.fold_deltas + first.fold_misses == folds && first.fold_deltas > 0,
            format!(
                "append: {} delta-verified + {} recomputed != {folds} folds",
                first.fold_deltas, first.fold_misses
            ),
        );
        report.note(format!(
            "append phase 2: {} delta-verified, {} recomputed",
            first.fold_deltas, first.fold_misses
        ));
    }
    crate::reference::check(
        w,
        ctx,
        &first.cells,
        (first.fold_deltas, first.fold_misses),
        report,
    );
}

// ---------------------------------------------------------------------
// Traced run

/// The traced run: one instrumented sweep pass under the program's own
/// `pv_obs` collector (for the counts it already exports), then the
/// fold replay twice — spans off, then on — for self times and the
/// tracing overhead. The replay's KS must be bit-identical to the pass.
fn traced(
    w: Workload,
    ctx: &Ctx,
    p: &Prepared,
    setup_spans: &[trace::Span],
    report: &mut Report,
) -> Result<(), String> {
    let collector = pv_obs::Collector::install();
    let counted = pass(ctx, p, 0)?;
    let obs = collector.finish().metrics;
    let counter = |name: &str| {
        obs.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    };
    check_passes(w, ctx, std::slice::from_ref(&counted), report);

    let cache_dir = ctx.dir.join("replay-cache");
    let replay_once = |on: bool| -> Result<(f64, Vec<CellOut>, Vec<trace::Span>), String> {
        let cache = CellCache::new(fresh_dir(&cache_dir));
        trace::set_enabled(on);
        let t = Instant::now();
        let cells = replay(ctx, p, &cache);
        let wall = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        Ok((wall, cells?, trace::drain()))
    };
    // Spans off and on alternately; the overhead compares the medians.
    let same = |a: &[CellOut]| {
        a.len() == counted.cells.len()
            && a.iter()
                .zip(&counted.cells)
                .all(|(x, y)| x.mean_bits == y.mean_bits && x.label == y.label)
    };
    let (mut plain, mut traced_walls, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2 {
        let (plain_wall, plain_cells, _) = replay_once(false)?;
        let (wall, cells, s) = replay_once(true)?;
        report.check(
            same(&cells) && same(&plain_cells),
            "replayed KS differs from the sweep pass".into(),
        );
        plain.push(plain_wall);
        traced_walls.push(wall);
        spans = s;
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    let plain_wall = median(&plain).unwrap_or(f64::NAN);
    let wall = median(&traced_walls).unwrap_or(f64::NAN);
    let last_wall = traced_walls[1];

    let mut all = setup_spans.to_vec();
    all.extend(spans.iter().cloned());
    std::fs::write(
        ctx.dir
            .parent()
            .unwrap_or(&ctx.dir)
            .join(format!("trace-{}.jsonl", w.name())),
        trace::to_jsonl(&all),
    )
    .map_err(|e| format!("write trace: {e}"))?;

    let names = trace::by_name(&spans);
    let setup_names = trace::by_name(setup_spans);
    let total_ms = |m: &BTreeMap<&'static str, (u64, u64, Vec<u64>)>, n: &str| {
        m.get(n)
            .map_or(0.0, |e| e.2.iter().sum::<u64>() as f64 / 1e6)
    };
    let self_ms = |n: &str| names.get(n).map_or(0.0, |e| e.1 as f64 / 1e6);
    let count = |n: &str| names.get(n).map_or(0.0, |e| e.0 as f64);
    let busy_ns: u64 = trace::self_times(&spans).iter().map(|&(_, s)| s).sum();
    let coverage = busy_ns as f64 / (last_wall * 1e9 * ctx.threads as f64);

    report.metric(
        "sysmodel.collect_ms",
        total_ms(&setup_names, "sysmodel.collect"),
    );
    report.metric(
        "pipeline.encode_ms",
        total_ms(&setup_names, "pipeline.encode"),
    );
    report.metric("shard.build_ms", total_ms(&setup_names, "shard.build"));
    report.metric("pipeline.folds", count("pipeline.fold"));
    report.metric("pipeline.prepare_ms", self_ms("pipeline.prepare"));
    report.metric("ml.fit_ms.forest", self_ms("ml.fit.forest"));
    report.metric("ml.fit_ms.gbt", self_ms("ml.fit.gbt"));
    report.metric("ml.fit_ms.knn", self_ms("ml.fit.knn"));
    report.metric("ml.predict_ms.knn", self_ms("ml.predict.knn"));
    report.metric("repr.decode_ms.histogram", self_ms("repr.decode.histogram"));
    report.metric("repr.decode_ms.maxent", self_ms("repr.decode.maxent"));
    report.metric("repr.decode_ms.pearson", self_ms("repr.decode.pearson"));
    report.metric("stats.ks_ms", self_ms("stats.ks"));
    report.metric("sweep.cache_store_ms", self_ms("sweep.cache_store"));
    report.metric("sweep.cache_load_ms", self_ms("sweep.cache_load"));
    report.metric("shard.load_ms", self_ms("shard.get"));
    let shard_ms: Vec<f64> = names.get("shard.get").map_or(Vec::new(), |e| {
        e.2.iter().map(|&ns| ns as f64 / 1e6).collect()
    });
    report.metric(
        "shard.load_ms.p99",
        tail(&shard_ms, TAIL_BEYOND).map_or(0.0, |t| t.value),
    );

    let converged = counter("pv.maxent.solver.converged");
    let solves = converged + counter("pv.maxent.solver.failed");
    report.metric("maxent.solves", solves);
    report.metric(
        "maxent.converged_ratio",
        if solves > 0.0 {
            converged / solves
        } else {
            0.0
        },
    );
    let iters = obs
        .histograms
        .iter()
        .find(|h| h.name == "pv.maxent.solver.iterations")
        .and_then(|h| h.mean())
        .unwrap_or(0.0);
    report.metric("maxent.iterations_mean", iters);
    let cells = counted.cells.len() as f64;
    report.metric(
        "sweep.hit_ratio",
        counter("pv.core.sweep.cache_hit") / cells,
    );
    let fold_total = counter("pv.core.pipeline.fold_cache.hit")
        + counter("pv.core.pipeline.fold_cache.delta")
        + counter("pv.core.pipeline.fold_cache.miss");
    let delta = counter("pv.core.pipeline.fold_cache.delta");
    report.metric(
        "incremental.delta_ratio",
        if fold_total > 0.0 {
            delta / fold_total
        } else {
            0.0
        },
    );
    report.metric(
        "incremental.recomputed",
        counter("pv.core.pipeline.fold_cache.miss"),
    );
    report.metric("shard.loads", counter("pv.core.shard.load"));
    let (cache_bytes, spill_bytes) = match p {
        Prepared::Append { seeded, .. } => (dir_bytes(seeded), 0),
        Prepared::Scale { spill, .. } => (0, dir_bytes(spill)),
        Prepared::Grid { .. } => (0, 0),
    };
    report.metric("sweep.cache_bytes", cache_bytes as f64);
    report.metric("shard.spill_bytes", spill_bytes as f64);
    report.metric(
        "trace.overhead_pct",
        100.0 * (wall - plain_wall) / plain_wall,
    );
    report.metric("trace.coverage", coverage);
    report.check(
        (0.5..=1.02).contains(&coverage),
        format!("layer self times cover {coverage:.3} of wall × threads (tolerance 0.5–1.02)"),
    );
    if w == Workload::ScaleSharded {
        let encodes = counter("pv.core.shard.encode");
        report.note(format!(
            "counted pass: {} shard loads, {encodes} encodes, {} spills",
            counter("pv.core.shard.load"),
            counter("pv.core.shard.spill")
        ));
        report.check(
            encodes == 0.0,
            format!("{encodes} shard re-encodes during the pass (spills failed verification)"),
        );
    }
    report.note(format!(
        "replay: {:.3}s traced vs {plain_wall:.3}s untraced on {} threads; self times cover {:.1}% of wall × threads",
        wall,
        ctx.threads,
        100.0 * coverage
    ));
    Ok(())
}

/// Replays every cell of one pass through the layers' public functions,
/// folds in parallel on the same pool, cells in sequence.
fn replay(ctx: &Ctx, p: &Prepared, cache: &CellCache) -> Result<Vec<CellOut>, String> {
    let mut out = Vec::new();
    let err = |e: StatsError| format!("replay: {e}");
    match p {
        Prepared::Grid { uc1, src, dst } => {
            for cfg in fig4_grid(ctx.seed).few_runs_cells() {
                let cell = out.len() as u32;
                let summary = replay_few_runs(Mono(uc1), cfg, cell).map_err(err)?;
                store(
                    cache,
                    uc1.fingerprint(),
                    CellConfig::FewRuns(cfg),
                    &summary,
                    cell,
                );
                out.push(cell_out(CellConfig::FewRuns(cfg), &summary));
            }
            for cfg in fig7_grid(ctx.seed).cross_system_cells() {
                let cell = out.len() as u32;
                let summary = replay_cross_system(src, dst, cfg, cell).map_err(err)?;
                let fp = pv_core::cross_fingerprint(src.fingerprint(), dst.fingerprint());
                store(cache, fp, CellConfig::CrossSystem(cfg), &summary, cell);
                out.push(cell_out(CellConfig::CrossSystem(cfg), &summary));
            }
        }
        Prepared::Append { full, seeded } => {
            let donors = CellCache::new(seeded);
            let fp = full.fingerprint();
            let donor_folds = timed("sweep.cache_load", NONE, NONE, || donors.donor_folds(fp));
            for cfg in append_grid(&ctx.sizes, ctx.seed).few_runs_cells() {
                let cell = out.len() as u32;
                let config = CellConfig::FewRuns(cfg);
                let hit = timed("sweep.cache_load", cell, NONE, || donors.load(fp, &config));
                if hit.is_some() || !donor_folds.contains_key(&config) {
                    return Err(format!(
                        "replay: unexpected cache state for {}",
                        config.label()
                    ));
                }
                let summary = replay_few_runs(Mono(full), cfg, cell).map_err(err)?;
                store(cache, fp, config, &summary, cell);
                out.push(cell_out(config, &summary));
            }
        }
        Prepared::Scale { sh, .. } => {
            for cfg in scale_grid(ctx.seed).few_runs_cells() {
                let cell = out.len() as u32;
                let summary = replay_few_runs(Sharded(sh), cfg, cell).map_err(err)?;
                out.push(cell_out(CellConfig::FewRuns(cfg), &summary));
            }
        }
    }
    Ok(out)
}

fn cell_out(cfg: CellConfig, s: &EvalSummary) -> CellOut {
    CellOut {
        label: cfg.label(),
        mean_bits: s.mean.to_bits(),
        folds: s.scores.len(),
        clean: true,
    }
}

fn store(cache: &CellCache, fp: u64, cfg: CellConfig, s: &EvalSummary, cell: u32) {
    // The sweep also stores per-fold entries; the replay stores the
    // summary alone (the cell-file write is the measured cost).
    let _ = timed("sweep.cache_store", cell, NONE, || {
        cache.store(fp, &cfg, s, None, &[])
    });
}

/// The encoded rows a use-case-1 fold assembles from, behind the
/// public accessors of either corpus layout.
trait Rows: Sync {
    fn len(&self) -> usize;
    fn id(&self, bi: usize) -> pv_sysmodel::BenchmarkId;
    fn truth(&self, bi: usize, cell: u32) -> Result<Vec<f64>, StatsError>;
    fn query(
        &self,
        s: usize,
        repr: ReprKind,
        held: usize,
        cell: u32,
    ) -> Result<(Vec<f64>, usize), StatsError>;
    /// Streams `(profile window, target, group)` rows of `include`.
    fn visit(
        &self,
        cfg: FewRunsConfig,
        include: &[usize],
        cell: u32,
        held: usize,
        sink: &mut pv_core::RowSink<'_>,
    ) -> Result<(), StatsError>;
}

struct Mono<'a>(&'a EncodedCorpus<'static>);
struct Sharded<'a>(&'a ShardedCorpus<'static>);

impl Rows for Mono<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn id(&self, bi: usize) -> pv_sysmodel::BenchmarkId {
        self.0.corpus().benchmarks[bi].id
    }
    fn truth(&self, bi: usize, _cell: u32) -> Result<Vec<f64>, StatsError> {
        Ok(self.0.rel_times_sorted(bi).to_vec())
    }
    fn query(
        &self,
        s: usize,
        repr: ReprKind,
        held: usize,
        _cell: u32,
    ) -> Result<(Vec<f64>, usize), StatsError> {
        Ok((
            self.0.profile(s, held, 0)?.to_vec(),
            self.0.target(repr, held)?.len(),
        ))
    }
    fn visit(
        &self,
        cfg: FewRunsConfig,
        include: &[usize],
        _cell: u32,
        _held: usize,
        sink: &mut pv_core::RowSink<'_>,
    ) -> Result<(), StatsError> {
        for &bi in include {
            let target = self.0.target(cfg.repr, bi)?;
            for w in 0..cfg.profiles_per_benchmark.max(1) {
                sink(self.0.profile(cfg.n_profile_runs, bi, w)?, target, bi)?;
            }
        }
        Ok(())
    }
}

impl Sharded<'_> {
    fn shard_of(&self, bi: usize, cell: u32, fold: usize) -> Result<Arc<EncodedShard>, StatsError> {
        let si = self.0.layout().shard_of(bi);
        timed("shard.get", cell, fold as u32, || self.0.shard(si))
    }
}

impl Rows for Sharded<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn id(&self, bi: usize) -> pv_sysmodel::BenchmarkId {
        self.0.id(bi)
    }
    fn truth(&self, bi: usize, cell: u32) -> Result<Vec<f64>, StatsError> {
        Ok(self.shard_of(bi, cell, bi)?.rel_times_sorted(bi)?.to_vec())
    }
    fn query(
        &self,
        s: usize,
        repr: ReprKind,
        held: usize,
        cell: u32,
    ) -> Result<(Vec<f64>, usize), StatsError> {
        let shard = self.shard_of(held, cell, held)?;
        Ok((
            shard.profile(s, held, 0)?.to_vec(),
            shard.target(repr, held)?.len(),
        ))
    }
    fn visit(
        &self,
        cfg: FewRunsConfig,
        include: &[usize],
        cell: u32,
        held: usize,
        sink: &mut pv_core::RowSink<'_>,
    ) -> Result<(), StatsError> {
        // One shard pinned at a time, rows in ascending benchmark order.
        let mut cur: Option<Arc<EncodedShard>> = None;
        for &bi in include {
            if !cur.as_ref().is_some_and(|sh| sh.range().contains(&bi)) {
                cur = Some(self.shard_of(bi, cell, held)?);
            }
            let shard = cur.as_ref().expect("pinned above");
            let target = shard.target(cfg.repr, bi)?;
            for w in 0..cfg.profiles_per_benchmark.max(1) {
                sink(shard.profile(cfg.n_profile_runs, bi, w)?, target, bi)?;
            }
        }
        Ok(())
    }
}

fn model_tag(m: ModelKind) -> (&'static str, &'static str) {
    match m {
        ModelKind::Knn => ("ml.fit.knn", "ml.predict.knn"),
        ModelKind::RandomForest => ("ml.fit.forest", "ml.predict.forest"),
        ModelKind::XgBoost => ("ml.fit.gbt", "ml.predict.gbt"),
    }
}

fn decode_tag(r: ReprKind) -> &'static str {
    match r {
        ReprKind::Histogram => "repr.decode.histogram",
        ReprKind::PyMaxEnt => "repr.decode.maxent",
        ReprKind::PearsonRnd => "repr.decode.pearson",
    }
}

/// Fit, predict, decode and score one prepared fold — the steps of
/// `FoldRunner::score_fold`, each in its own span.
fn score(
    runner: &FoldRunner<'_>,
    model: ModelKind,
    repr: ReprKind,
    held: usize,
    prepared: &PreparedFold,
    truth: &[f64],
    cell: u32,
) -> Result<f64, StatsError> {
    let fold = held as u32;
    let (fit, predict) = model_tag(model);
    let mut m = model.build(prepared.fold_seed);
    timed(fit, cell, fold, || m.fit(&prepared.data))?;
    let features = timed(predict, cell, fold, || m.predict(&prepared.query))?;
    let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(prepared.fold_seed, held as u64));
    let mut predicted = timed(decode_tag(repr), cell, fold, || {
        runner.repr.decode(&features, &mut rng, runner.n_samples)
    })?;
    predicted.sort_by(f64::total_cmp);
    timed("stats.ks", cell, fold, || {
        ks2_statistic_presorted(&predicted, truth)
    })
}

fn runner_for<'r>(
    n_folds: usize,
    seed: u64,
    model: ModelKind,
    repr: &'r dyn pv_core::DistributionRepr,
) -> FoldRunner<'r> {
    FoldRunner {
        n_folds,
        seed,
        seed_mode: SeedMode::PerFold,
        standardize: model.wants_standardization(),
        n_samples: RECONSTRUCTION_SAMPLES,
        repr,
    }
}

fn replay_few_runs(
    rows: impl Rows,
    cfg: FewRunsConfig,
    cell: u32,
) -> Result<EvalSummary, StatsError> {
    let repr = cfg.repr.build();
    let runner = runner_for(rows.len(), cfg.seed, cfg.model, repr.as_ref());
    let rows = &rows;
    let windows = cfg.profiles_per_benchmark.max(1);
    let assemble = |held: usize, include: Vec<usize>| -> Result<FoldView<'_>, StatsError> {
        let (query, y_dim) = rows.query(cfg.n_profile_runs, cfg.repr, held, cell)?;
        let x_dim = query.len();
        Ok(FoldView::new(
            include.len() * windows,
            x_dim,
            y_dim,
            query,
            move |sink| rows.visit(cfg, &include, cell, held, sink),
        ))
    };
    let scores: Result<Vec<BenchScore>, StatsError> = (0..rows.len())
        .into_par_iter()
        .map(|held| {
            let _fold = span("pipeline.fold", cell, held as u32);
            let prepared = timed("pipeline.prepare", cell, held as u32, || {
                runner.prepare_fold(held, &assemble)
            })?;
            let truth = rows.truth(held, cell)?;
            let ks = score(&runner, cfg.model, cfg.repr, held, &prepared, &truth, cell)?;
            Ok(BenchScore {
                id: rows.id(held),
                ks,
            })
        })
        .collect();
    EvalSummary::from_scores(scores?)
}

fn replay_cross_system(
    src: &EncodedCorpus<'static>,
    dst: &EncodedCorpus<'static>,
    cfg: CrossSystemConfig,
    cell: u32,
) -> Result<EvalSummary, StatsError> {
    let repr = cfg.repr.build();
    let runner = runner_for(src.len(), cfg.seed, cfg.model, repr.as_ref());
    let s_eff = cfg.profile_runs.min(src.corpus().n_runs).max(1);
    let assemble = |held: usize, include: Vec<usize>| -> Result<FoldView<'_>, StatsError> {
        let query = src.joined(s_eff, cfg.repr, held)?.to_vec();
        let x_dim = query.len();
        let y_dim = dst.target(cfg.repr, held)?.len();
        Ok(FoldView::new(
            include.len(),
            x_dim,
            y_dim,
            query,
            move |sink| {
                for &bi in &include {
                    sink(
                        src.joined(s_eff, cfg.repr, bi)?,
                        dst.target(cfg.repr, bi)?,
                        bi,
                    )?;
                }
                Ok(())
            },
        ))
    };
    let scores: Result<Vec<BenchScore>, StatsError> = (0..src.len())
        .into_par_iter()
        .map(|held| {
            let _fold = span("pipeline.fold", cell, held as u32);
            let prepared = timed("pipeline.prepare", cell, held as u32, || {
                runner.prepare_fold(held, &assemble)
            })?;
            let ks = score(
                &runner,
                cfg.model,
                cfg.repr,
                held,
                &prepared,
                dst.rel_times_sorted(held),
                cell,
            )?;
            Ok(BenchScore {
                id: dst.corpus().benchmarks[held].id,
                ks,
            })
        })
        .collect();
    EvalSummary::from_scores(scores?)
}
