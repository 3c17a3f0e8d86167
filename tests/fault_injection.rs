//! Deterministic fault-injection tier: a sweep with k injected faults
//! completes, reports exactly k failed cells, each evaluated once, and
//! every healthy cell is bit-identical to a fault-free run. Also covers
//! failed-cell records across runs, re-armed cells whose files match a
//! fault-free cache byte for byte, cache-corruption healing, and the
//! thread-count independence of outcomes under random fault plans.

use std::path::PathBuf;

use perfvar_suite::core::incremental::FoldCacheStats;
use perfvar_suite::core::pipeline::EncodedCorpus;
use perfvar_suite::core::resilience::{silence_injected_panics, FaultKind, FaultPlan};
use perfvar_suite::core::sweep::{CellCache, CellOutcome, GridSpec, Sweep, SweepReport};
use perfvar_suite::core::{ModelKind, ReprKind};
use perfvar_suite::sysmodel::{Corpus, SystemModel};

/// A unique, self-cleaning cache directory per test.
struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pv-fault-test-{}-{name}", std::process::id()));
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

/// Grid order: reprs vary fastest — Histogram s5, PyMaxEnt s5,
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

fn run_with(corpus: &Corpus, grid: &GridSpec, faults: FaultPlan) -> SweepReport {
    let enc = EncodedCorpus::build(corpus, &grid.few_runs_encoding()).unwrap();
    Sweep::few_runs(&enc).with_faults(faults).run(grid).unwrap()
}

#[test]
fn k_injected_faults_mean_exactly_k_affected_cells_and_healthy_cells_are_bit_identical() {
    silence_injected_panics();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    let grid = six_cell_grid();

    let baseline = run_with(&corpus, &grid, FaultPlan::none());
    assert!(baseline.is_clean());

    // Three faults on distinct cells, each failing its cell's one
    // evaluation with its own error kind: a panic on a Histogram cell,
    // non-convergence on a PyMaxEnt cell, and NaN results on the other
    // PyMaxEnt cell (rejected by validation).
    let plan = FaultPlan::none()
        .inject(0, FaultKind::Panic)
        .inject(1, FaultKind::NonConvergence)
        .inject(4, FaultKind::NanRun);
    let report = run_with(&corpus, &grid, plan);

    assert_eq!(report.cells.len(), 6);
    assert_eq!((report.failed, report.quarantined), (3, 0));
    for (i, kind) in [(0, "panic"), (1, "solver"), (4, "numeric-domain")] {
        match &report.cells[i].outcome {
            CellOutcome::Failed { error } => assert_eq!(error.kind(), kind, "cell {i}"),
            other => panic!("cell {i}: expected a failed cell, got {other:?}"),
        }
    }

    // Healthy cells reproduce the fault-free run bit for bit.
    for i in [2usize, 3, 5] {
        assert!(
            report.cells[i].outcome.is_ok(),
            "cell {i} should be healthy"
        );
        let got = report.cells[i].summary().unwrap();
        let want = baseline.cells[i].summary().unwrap();
        assert_eq!(got, want, "cell {i} diverged from the fault-free run");
        assert_eq!(got.mean.to_bits(), want.mean.to_bits());
    }
}

/// A fault takes its cell out of the group it would share folds with:
/// the group mate (PearsonRnd beside PyMaxEnt, same model, same folds)
/// comes out of a faulted sweep bit-identical to a fault-free one, and
/// the fold tallies count the healthy cell's folds alone.
#[test]
fn a_faulted_cell_leaves_its_group_mate_bit_identical() {
    silence_injected_panics();
    let mut corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    corpus.benchmarks.truncate(16);
    let folds = corpus.benchmarks.len();
    let grid = GridSpec {
        reprs: vec![ReprKind::PyMaxEnt, ReprKind::PearsonRnd],
        models: vec![ModelKind::RandomForest],
        sample_counts: vec![5],
        seeds: vec![17],
        profiles_per_benchmark: 1,
    };
    let baseline = run_with(&corpus, &grid, FaultPlan::none());
    assert!(baseline.is_clean());
    assert_eq!(baseline.fold_stats.misses, 2 * folds);

    for kind in FaultKind::EVAL_KINDS {
        let report = run_with(&corpus, &grid, FaultPlan::none().inject(0, kind));
        let tallies = (report.misses, report.failed, report.quarantined);
        assert_eq!(tallies, (2, 1, 0), "{kind:?}");
        assert!(report.cells[0].outcome.is_failed(), "{kind:?}");
        assert_eq!(report.cells[1], baseline.cells[1], "{kind:?}");
        let healthy = FoldCacheStats {
            hits: 0,
            deltas: 0,
            misses: folds,
        };
        assert_eq!(report.fold_stats, healthy, "{kind:?}");
    }
}

#[test]
fn failed_cells_are_quarantined_across_runs_until_cleared() {
    silence_injected_panics();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    let grid = six_cell_grid();
    let tmp = TempCache::new("quarantine");
    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();

    let faulty = Sweep::few_runs(&enc)
        .with_cache(tmp.cache())
        .with_faults(FaultPlan::none().inject(0, FaultKind::Panic));
    let first = faulty.run(&grid).unwrap();
    assert_eq!(first.failed, 1);
    let record = tmp
        .cache()
        .entry_path(first.fingerprint, &first.cells[0].config)
        .unwrap();
    assert!(record.is_file(), "the failed cell's file records it");

    // A later fault-free run must not re-evaluate the poisoned cell: it
    // comes back quarantined, everything else from the cache.
    let clean = Sweep::few_runs(&enc).with_cache(tmp.cache());
    let second = clean.run(&grid).unwrap();
    assert_eq!(second.quarantined, 1);
    assert!(second.cells[0].outcome.is_quarantined());
    assert_eq!((second.hits, second.misses), (5, 0));

    // Deleting the cell's file lets the cell recompute — successfully,
    // now that no fault is armed.
    std::fs::remove_file(&record).unwrap();
    let third = clean.run(&grid).unwrap();
    assert!(third.is_clean());
    assert!(third.cells[0].outcome.is_ok());
    assert_eq!((third.hits, third.misses), (5, 1));
}

/// The cell files of a directory, by name.
fn cell_files(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("cell-"))
        .map(|e| (e.file_name(), std::fs::read(e.path()).unwrap()))
        .collect();
    files.sort();
    files
}

/// A failed cell re-armed by deleting its record and rerun without the
/// fault is the cell a fault-free sweep computes: the cache it leaves is
/// byte-identical to a fault-free sweep's, so every hit is its own
/// config's evaluation.
#[test]
fn rearmed_cells_leave_a_cache_byte_identical_to_a_fault_free_one() {
    silence_injected_panics();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    let grid = six_cell_grid();
    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let (healed, fresh) = (TempCache::new("healed"), TempCache::new("fresh"));

    let faulty = Sweep::few_runs(&enc)
        .with_cache(healed.cache())
        .with_faults(
            FaultPlan::none()
                .inject(0, FaultKind::Panic)
                .inject(1, FaultKind::NanRun),
        );
    let first = faulty.run(&grid).unwrap();
    assert_eq!((first.failed, first.misses), (2, 6));
    for cell in &first.cells[..2] {
        let record = healed
            .cache()
            .entry_path(first.fingerprint, &cell.config)
            .unwrap();
        std::fs::remove_file(record).unwrap();
    }
    let rerun = Sweep::few_runs(&enc)
        .with_cache(healed.cache())
        .run(&grid)
        .unwrap();
    assert!(rerun.is_clean());
    assert_eq!((rerun.hits, rerun.misses), (4, 2));

    let clean = Sweep::few_runs(&enc)
        .with_cache(fresh.cache())
        .run(&grid)
        .unwrap();
    assert!(clean.is_clean());
    let (got, want) = (cell_files(&healed.dir), cell_files(&fresh.dir));
    assert_eq!(want.len(), 6);
    assert!(
        got == want,
        "a re-armed cell's file differs from a fault-free sweep's"
    );
}

#[test]
fn corrupted_cache_store_is_healed_by_recompute() {
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 7);
    let grid = six_cell_grid();
    let tmp = TempCache::new("corrupt-store");
    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();

    // The corruption fault vandalizes cell 3's cache file after the
    // (successful) store; the in-memory result is unaffected.
    let sweep = Sweep::few_runs(&enc)
        .with_cache(tmp.cache())
        .with_faults(FaultPlan::none().inject(3, FaultKind::CacheCorruption));
    let first = sweep.run(&grid).unwrap();
    assert!(first.is_clean());

    // The corrupt entry reads back as a miss and recomputes to the same
    // bits; the healed entry then hits.
    let clean = Sweep::few_runs(&enc).with_cache(tmp.cache());
    let second = clean.run(&grid).unwrap();
    assert_eq!((second.hits, second.misses), (5, 1));
    assert_eq!(second.cells[3].summary(), first.cells[3].summary());
    let third = clean.run(&grid).unwrap();
    assert_eq!((third.hits, third.misses), (6, 0));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Under any random fault plan, no healthy cell is lost or
        /// perturbed, and outcomes do not depend on the thread count.
        #[test]
        fn random_fault_plans_never_lose_healthy_cells(
            seed in any::<u64>(),
            k in 0usize..4,
        ) {
            silence_injected_panics();
            let corpus = Corpus::collect(&SystemModel::amd(), 20, 5);
            let grid = GridSpec {
                reprs: vec![ReprKind::Histogram, ReprKind::PearsonRnd],
                models: vec![ModelKind::Knn],
                sample_counts: vec![3, 5],
                seeds: vec![5],
                profiles_per_benchmark: 1,
            };
            let n_cells = 4;
            let plan = FaultPlan::random(seed, n_cells, k);
            let faulted: Vec<usize> = plan.faults().iter().map(|f| f.cell).collect();

            let baseline = run_with(&corpus, &grid, FaultPlan::none());
            let report = run_with(&corpus, &grid, plan.clone());
            prop_assert_eq!(report.cells.len(), n_cells);
            for (i, cell) in report.cells.iter().enumerate() {
                if faulted.contains(&i) {
                    continue;
                }
                prop_assert!(cell.outcome.is_ok(), "healthy cell {} was lost: {:?}", i, cell.outcome);
                prop_assert_eq!(cell.summary(), baseline.cells[i].summary());
            }
            // Every faulted cell is reported failed, not dropped or
            // replaced by another computation.
            for &i in &faulted {
                prop_assert!(
                    report.cells[i].outcome.is_failed(),
                    "fault on cell {} went unreported: {:?}", i, report.cells[i].outcome
                );
            }

            // Same plan, different pool widths: identical outcomes.
            let pool = |threads: usize| {
                let plan = plan.clone();
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| run_with(&corpus, &grid, plan))
            };
            let one = pool(1);
            let two = pool(2);
            for i in 0..n_cells {
                prop_assert_eq!(&one.cells[i].outcome, &report.cells[i].outcome);
                prop_assert_eq!(&two.cells[i].outcome, &report.cells[i].outcome);
            }
        }
    }
}

/// Release-mode replay on a larger grid: a random plan over nine cells
/// behaves exactly like the small-grid property, end to end. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow in debug; exercised by the release CI job"]
fn release_replay_random_plan_on_a_nine_cell_grid() {
    silence_injected_panics();
    let corpus = Corpus::collect(&SystemModel::intel(), 100, 0xC0FFEE);
    let grid = GridSpec {
        reprs: vec![
            ReprKind::Histogram,
            ReprKind::PyMaxEnt,
            ReprKind::PearsonRnd,
        ],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5, 10, 25],
        seeds: vec![0xC0FFEE],
        profiles_per_benchmark: 1,
    };
    let plan = FaultPlan::random(0xFA17, 9, 3);
    let faulted: Vec<usize> = plan.faults().iter().map(|f| f.cell).collect();

    let baseline = run_with(&corpus, &grid, FaultPlan::none());
    let a = run_with(&corpus, &grid, plan.clone());
    let b = run_with(&corpus, &grid, plan);
    assert_eq!(a.cells.len(), 9);
    for i in 0..9 {
        assert_eq!(
            a.cells[i].outcome, b.cells[i].outcome,
            "replay diverged at cell {i}"
        );
        if faulted.contains(&i) {
            assert!(a.cells[i].outcome.is_failed(), "cell {i} was not failed");
        } else {
            assert!(a.cells[i].outcome.is_ok());
            let (got, want) = (
                a.cells[i].summary().unwrap(),
                baseline.cells[i].summary().unwrap(),
            );
            assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "cell {i} moved");
            assert_eq!(got, want);
        }
    }
}
