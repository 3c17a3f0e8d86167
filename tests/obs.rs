//! Observability tier: span-tree well-formedness under rayon, counter
//! totals invariant across thread counts, lossless exporter round-trips,
//! exact counter/report agreement on fault-injected sweeps, the
//! bit-identity of evaluation results with a collector installed, the
//! MaxEnt constraint-level and solver-outcome counters of a decode, and
//! the Pearson type counters partitioning a sweep's PearsonRnd decodes.
//!
//! Every test takes [`exclusive`] first: the collector and the metrics
//! registry are process-global, so a test running instrumented code
//! while another test's session is live would leak events into it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use perfvar_suite::core::pipeline::EncodedCorpus;
use perfvar_suite::core::resilience::{silence_injected_panics, FaultKind, FaultPlan};
use perfvar_suite::core::sweep::{CellCache, GridSpec, Sweep, SweepReport, SWEEP_OBS_COUNTERS};
use perfvar_suite::core::{ModelKind, ReprKind};
use perfvar_suite::obs::metrics::MetricsSnapshot;
use perfvar_suite::obs::{Collector, ObsReport, TraceEvent};
use perfvar_suite::sysmodel::{Corpus, SystemModel};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests in this file; the obs collector is process-wide.
fn exclusive() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unique, self-cleaning cache directory per test.
struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pv-obs-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCache { dir }
    }

    fn cache(&self) -> CellCache {
        CellCache::new(&self.dir)
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Grid order (reprs vary fastest): Histogram s5, PyMaxEnt s5,
/// PearsonRnd s5, Histogram s10, PyMaxEnt s10, PearsonRnd s10.
fn six_cell_grid() -> GridSpec {
    GridSpec {
        reprs: vec![
            ReprKind::Histogram,
            ReprKind::PyMaxEnt,
            ReprKind::PearsonRnd,
        ],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5, 10],
        seeds: vec![17],
        profiles_per_benchmark: 1,
    }
}

/// Runs `grid` uncached under a live collector and returns both reports.
fn observed_sweep(corpus: &Corpus, grid: &GridSpec, faults: FaultPlan) -> (SweepReport, ObsReport) {
    let collector = Collector::install();
    let enc = EncodedCorpus::build(corpus, &grid.few_runs_encoding()).unwrap();
    let report = Sweep::few_runs(&enc).with_faults(faults).run(grid).unwrap();
    (report, collector.finish())
}

#[test]
fn span_tree_is_well_formed_across_rayon_threads() {
    let _guard = exclusive();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    let (report, obs) = observed_sweep(&corpus, &six_cell_grid(), FaultPlan::none());
    assert!(report.is_clean());

    let enters: HashMap<u64, &TraceEvent> = obs
        .events
        .iter()
        .filter(|e| e.kind == "enter")
        .map(|e| (e.id, e))
        .collect();
    let exits: HashMap<u64, &TraceEvent> = obs
        .events
        .iter()
        .filter(|e| e.kind == "exit")
        .map(|e| (e.id, e))
        .collect();
    assert_eq!(
        enters.len() + exits.len(),
        obs.events.len(),
        "only enter/exit kinds exist"
    );
    assert_eq!(enters.len(), exits.len(), "every enter has an exit");

    for exit in exits.values() {
        let enter = enters.get(&exit.id).expect("exit without a matching enter");
        assert_eq!(enter.name, exit.name);
        assert_eq!(enter.thread, exit.thread, "a span may not migrate threads");
        assert!(enter.dur_ns.is_none(), "enters carry no duration");
        assert!(exit.dur_ns.is_some(), "exits carry the duration");
    }

    // Parent links are strictly thread-local, and a child's lifetime is
    // contained in its parent's: work stolen onto another thread must
    // appear as a root there, never as a cross-thread child.
    for event in &obs.events {
        let Some(parent_id) = event.parent else {
            continue;
        };
        let parent_enter = enters.get(&parent_id).expect("parent span recorded");
        let parent_exit = exits.get(&parent_id).expect("parent span closed");
        assert_eq!(
            parent_enter.thread, event.thread,
            "{}: parent {} lives on another thread",
            event.name, parent_enter.name
        );
        assert!(parent_enter.t_ns <= event.t_ns && event.t_ns <= parent_exit.t_ns);
    }

    let count = |name: &str| {
        obs.events
            .iter()
            .filter(|e| e.kind == "enter" && e.name == name)
            .count()
    };
    assert_eq!(count("pv.core.sweep.run"), 1);
    assert_eq!(count("pv.core.sweep.cell"), report.cells.len());
    // The cells that missed run as one unit loop, one unit per fold of
    // each group of cells sharing their folds: Histogram and the two
    // moment representations at each of the two sample counts.
    assert_eq!(count("pv.core.pipeline.logo_eval"), 1);
    assert_eq!(count("pv.core.pipeline.fold"), 2 * 2 * corpus.len());
}

#[test]
fn counter_totals_are_invariant_under_thread_count() {
    let _guard = exclusive();
    let corpus = Corpus::collect(&SystemModel::intel(), 24, 5);
    let grid = six_cell_grid();

    let run_with_threads = |n: usize| -> MetricsSnapshot {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap();
        let collector = Collector::install();
        pool.install(|| {
            let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
            Sweep::few_runs(&enc).run(&grid).unwrap()
        });
        collector.finish().metrics
    };

    let base = run_with_threads(1);
    assert_eq!(base.counter("pv.core.sweep.cells"), Some(6));
    for n in [2, 8] {
        let snap = run_with_threads(n);
        assert_eq!(
            snap.counters, base.counters,
            "counters diverged at {n} threads"
        );
        // Iteration counts are seeded per cell, so even the histogram's
        // bucket occupancy is thread-count independent (unlike the
        // wall-clock latency histograms, which are excluded here).
        assert_eq!(
            snap.histogram("pv.maxent.solver.iterations"),
            base.histogram("pv.maxent.solver.iterations"),
        );
    }
}

#[test]
fn exporters_round_trip_losslessly_through_files() {
    let _guard = exclusive();
    let tmp = TempCache::new("roundtrip");
    std::fs::create_dir_all(&tmp.dir).unwrap();
    let corpus = Corpus::collect(&SystemModel::intel(), 24, 5);
    let (report, obs) = observed_sweep(&corpus, &six_cell_grid(), FaultPlan::none());
    assert!(report.is_clean());
    assert!(!obs.events.is_empty());

    let trace_path = tmp.dir.join("trace.jsonl");
    perfvar_suite::obs::write_trace(&trace_path, &obs.events).unwrap();
    let mut sorted = obs.events.clone();
    sorted.sort_by_key(|e| (e.t_ns, e.id));
    assert_eq!(
        perfvar_suite::obs::read_trace(&trace_path).unwrap(),
        sorted,
        "trace must survive the JSONL round trip, in time order"
    );
    // Line-by-line: every line is one standalone JSON event.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert_eq!(text.lines().count(), obs.events.len());

    let metrics_path = tmp.dir.join("metrics.json");
    perfvar_suite::obs::write_metrics(&metrics_path, &obs.metrics).unwrap();
    assert_eq!(
        perfvar_suite::obs::read_metrics(&metrics_path).unwrap(),
        obs.metrics
    );
}

#[test]
fn fault_injected_counters_match_the_sweep_report_exactly() {
    let _guard = exclusive();
    silence_injected_panics();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);

    // Three faults, each failing its cell's one evaluation: a panic on
    // cell 0 (Histogram), non-convergence on cell 1 (PyMaxEnt) and NaN
    // results on cell 3 (Histogram).
    let plan = FaultPlan::none()
        .inject(0, FaultKind::Panic)
        .inject(1, FaultKind::NonConvergence)
        .inject(3, FaultKind::NanRun);
    let (report, obs) = observed_sweep(&corpus, &six_cell_grid(), plan);
    assert_eq!((report.failed, report.quarantined), (3, 0));

    let counter = |name: &str| {
        obs.metrics
            .counter(name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("pv.core.sweep.cells"), report.cells.len() as u64);
    assert_eq!(counter("pv.core.sweep.ok"), 3);
    assert_eq!(counter("pv.core.sweep.failed"), 3);
    assert_eq!(counter("pv.core.sweep.failed"), report.failed as u64);
    assert_eq!(counter("pv.core.sweep.cache_hit"), report.hits as u64);
    assert_eq!(counter("pv.core.sweep.cache_miss"), report.misses as u64);
    assert_eq!(counter("pv.core.sweep.quarantine_skip"), 0);
    // The panicking cell ran once: one panic caught, no rerun.
    assert_eq!(counter("pv.core.resilience.panic_caught"), 1);

    // The full counter roster is pre-registered, so even the all-zero
    // ones appear in the snapshot and the summary table.
    for name in SWEEP_OBS_COUNTERS {
        assert!(
            obs.metrics.counter(name).is_some(),
            "{name} must be present even at zero"
        );
    }
    let rendered = perfvar_suite::obs::render_summary(&obs, SWEEP_OBS_COUNTERS);
    for name in SWEEP_OBS_COUNTERS {
        assert!(rendered.contains(name), "summary table must list {name}");
    }
}

#[test]
fn fold_cache_counters_match_incremental_stats_exactly() {
    use perfvar_suite::core::eval::few_runs_spec;
    use perfvar_suite::core::{evaluate_few_runs_incremental, FewRunsConfig};

    let _guard = exclusive();
    let full = Corpus::collect(&SystemModel::intel(), 24, 5);
    let mut base = full.clone();
    base.benchmarks.truncate(full.len() - 1);
    let cfg = FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 5,
        profiles_per_benchmark: 1,
        seed: 5,
    };
    let spec = few_runs_spec(&cfg);
    let base_enc = EncodedCorpus::build(&base, &spec).unwrap();
    let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
    let seeded = evaluate_few_runs_incremental(&base_enc, cfg, &[]).unwrap();

    // One appended-corpus pass (deltas + misses) and one unchanged
    // rerun (pure exact hits), both under the collector: the fold-cache
    // counters must agree with the returned stats to the unit.
    let collector = Collector::install();
    let warm = evaluate_few_runs_incremental(&full_enc, cfg, &seeded.folds).unwrap();
    let rerun = evaluate_few_runs_incremental(&full_enc, cfg, &warm.folds).unwrap();
    let obs = collector.finish();

    assert_eq!(warm.stats.hits, 0);
    assert!(warm.stats.deltas > 0, "{:?}", warm.stats);
    assert_eq!(rerun.stats.hits, full.len());
    let counter = |name: &str| {
        obs.metrics
            .counter(name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(
        counter("pv.core.pipeline.fold_cache.hit"),
        (warm.stats.hits + rerun.stats.hits) as u64
    );
    assert_eq!(
        counter("pv.core.pipeline.fold_cache.delta"),
        (warm.stats.deltas + rerun.stats.deltas) as u64
    );
    assert_eq!(
        counter("pv.core.pipeline.fold_cache.miss"),
        (warm.stats.misses + rerun.stats.misses) as u64
    );
}

/// Cells that differ only in PyMaxEnt vs PearsonRnd train on the same
/// folds, so a tree grid fits each model once per fold and target
/// encoding — Histogram and moments, 2 × folds — and every cell still
/// equals its own evaluation bit for bit.
#[test]
fn tree_grid_fits_each_model_once_per_fold_and_encoding() {
    use perfvar_suite::core::eval::evaluate_few_runs;
    use perfvar_suite::core::sweep::CellConfig;

    let _guard = exclusive();
    let mut corpus = Corpus::collect(&SystemModel::intel(), 24, 5);
    corpus.benchmarks.truncate(12);
    let grid = GridSpec {
        reprs: ReprKind::ALL.to_vec(),
        models: vec![ModelKind::RandomForest, ModelKind::XgBoost],
        sample_counts: vec![5],
        seeds: vec![3],
        profiles_per_benchmark: 1,
    };
    let (report, obs) = observed_sweep(&corpus, &grid, FaultPlan::none());
    let fits = |name: &str| obs.metrics.histogram(name).map_or(0, |h| h.count);
    let folds = corpus.benchmarks.len() as u64;
    assert_eq!(fits("pv.ml.forest.fit_ns"), 2 * folds);
    assert_eq!(fits("pv.ml.gbt.fit_ns"), 2 * folds);
    assert_eq!(report.cells.len(), 6);
    for cell in &report.cells {
        let CellConfig::FewRuns(cfg) = cell.config else {
            panic!("uc1 sweep produced a uc2 cell");
        };
        let alone = evaluate_few_runs(&corpus, cfg).unwrap();
        assert_eq!(cell.summary(), Some(&alone), "{}", cell.config.label());
    }
}

#[test]
fn evaluation_is_bit_identical_with_and_without_a_collector() {
    let _guard = exclusive();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    let grid = six_cell_grid();

    let bare = {
        let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
        Sweep::few_runs(&enc).run(&grid).unwrap()
    };
    let (observed, obs) = observed_sweep(&corpus, &grid, FaultPlan::none());
    assert!(!obs.events.is_empty(), "the collector did record the run");

    assert_eq!(bare.fingerprint, observed.fingerprint);
    assert_eq!(bare.cells.len(), observed.cells.len());
    for (b, o) in bare.cells.iter().zip(&observed.cells) {
        assert_eq!(b.config, o.config);
        assert_eq!(b.summary(), o.summary(), "{}", b.config.label());
        assert!(b.summary().is_some());
    }
}

#[test]
fn warm_cache_rerun_reports_every_cell_as_a_hit() {
    let _guard = exclusive();
    let corpus = Corpus::collect(&SystemModel::intel(), 24, 5);
    let grid = six_cell_grid();
    let tmp = TempCache::new("warm");

    let run = |faults: FaultPlan| {
        let collector = Collector::install();
        let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
        let report = Sweep::few_runs(&enc)
            .with_cache(tmp.cache())
            .with_faults(faults)
            .run(&grid)
            .unwrap();
        (report, collector.finish())
    };

    let (cold, cold_obs) = run(FaultPlan::none());
    assert_eq!((cold.hits, cold.misses), (0, 6));
    assert_eq!(cold_obs.metrics.counter("pv.core.sweep.cache_hit"), Some(0));
    assert_eq!(
        cold_obs.metrics.counter("pv.core.sweep.cache_miss"),
        Some(6)
    );

    let (warm, warm_obs) = run(FaultPlan::none());
    assert_eq!((warm.hits, warm.misses), (6, 0));
    assert_eq!(warm_obs.metrics.counter("pv.core.sweep.cache_hit"), Some(6));
    assert_eq!(
        warm_obs.metrics.counter("pv.core.sweep.cache_miss"),
        Some(0)
    );
    assert_eq!(warm_obs.metrics.counter("pv.core.sweep.ok"), Some(6));
    for (c, w) in cold.cells.iter().zip(&warm.cells) {
        assert_eq!(c.summary(), w.summary());
    }
}

#[test]
fn maxent_counters_report_the_constraint_level_of_every_decode() {
    use perfvar_suite::core::repr::MaxEntRepr;
    use perfvar_suite::core::DistributionRepr;
    use perfvar_suite::stats::rng::Xoshiro256pp;
    use rand::SeedableRng;

    let _guard = exclusive();
    let collector = Collector::install();
    let repr = MaxEntRepr::default();
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    // A feasible summary keeps all four moments; kurtosis 17.4 at skew
    // 2.3 is above what the μ ± 3.5σ support can carry
    // (12.25 − 2.3²/11.25 ≈ 11.78), so its four-moment target is
    // rejected before Newton and the two-moment solve answers.
    for features in [[1.0, 0.04, 0.7, 3.8], [1.0, 0.05, 2.3, 17.4]] {
        assert_eq!(repr.decode(&features, &mut rng, 64).unwrap().len(), 64);
    }
    let obs = collector.finish();

    let counter = |name: &str| obs.metrics.counter(name).unwrap_or(0);
    assert_eq!(counter("pv.maxent.constraints.4"), 1);
    assert_eq!(counter("pv.maxent.constraints.2"), 1);
    assert_eq!(counter("pv.maxent.constraints.0"), 0);
    assert_eq!(counter("pv.maxent.solver.infeasible"), 1);
    assert_eq!(counter("pv.maxent.solver.failed"), 0);
    assert_eq!(counter("pv.maxent.solver.converged"), 2);
}

/// Every successful PearsonRnd decode bumps exactly one
/// `pv.pearson.type.*` counter, so over one uncached sweep the nine
/// counters (all pre-registered, zeros included) sum to the PearsonRnd
/// cells' folds, and PyMaxEnt and Histogram decodes count in none.
#[test]
fn pearson_type_counters_partition_the_pearson_decodes_of_a_sweep() {
    use perfvar_suite::core::repr::PEARSON_TYPE_COUNTERS;

    let _guard = exclusive();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    let (report, obs) = observed_sweep(&corpus, &six_cell_grid(), FaultPlan::none());
    assert!(report.is_clean());
    let pearson_folds: usize = report
        .cells
        .iter()
        .filter(|c| c.config.repr() == ReprKind::PearsonRnd)
        .map(|c| c.summary().expect("clean cell").scores.len())
        .sum();
    assert_eq!(pearson_folds, 2 * corpus.len());
    let counts: Vec<u64> = PEARSON_TYPE_COUNTERS
        .iter()
        .map(|name| {
            obs.metrics
                .counter(name)
                .unwrap_or_else(|| panic!("{name} is not registered"))
        })
        .collect();
    assert_eq!(
        counts.iter().sum::<u64>(),
        pearson_folds as u64,
        "{counts:?}"
    );
}
