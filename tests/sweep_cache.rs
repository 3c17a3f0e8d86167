//! Sweep cell-cache guarantees: verified hits, delta-only recompute on a
//! widened grid, and tolerance of corrupted or stale cache directories.

use std::path::PathBuf;

use perfvar_suite::core::pipeline::EncodedCorpus;
use perfvar_suite::core::sweep::{CellCache, GridSpec, Sweep};
use perfvar_suite::core::{ModelKind, ReprKind};
use perfvar_suite::sysmodel::{Corpus, SystemModel};

/// A unique, self-cleaning cache directory per test.
struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pv-sweep-test-{}-{name}", std::process::id()));
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

/// The cheapest non-trivial grid: one cell.
fn one_cell_grid() -> GridSpec {
    GridSpec {
        reprs: vec![ReprKind::Histogram],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5],
        seeds: vec![11],
        profiles_per_benchmark: 1,
    }
}

#[test]
fn cached_cell_is_bit_identical_to_a_fresh_single_threaded_run() {
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
    let grid = one_cell_grid();
    let tmp = TempCache::new("bitident");

    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let sweep = Sweep::few_runs(&enc).with_cache(tmp.cache());
    let cold = sweep.run(&grid).unwrap();
    assert_eq!((cold.hits, cold.misses), (0, 1));
    let warm = sweep.run(&grid).unwrap();
    assert_eq!((warm.hits, warm.misses), (1, 0));
    assert!(warm.cells[0].from_cache);

    // The hit must reproduce the computed cell bit for bit — and both
    // must equal an uncached run under a single-threaded pool, since
    // evaluations are pure functions of (corpus, config).
    let fresh = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
            Sweep::few_runs(&enc).run(&grid).unwrap()
        });
    assert_eq!(warm.cells[0].summary(), cold.cells[0].summary());
    assert_eq!(warm.cells[0].summary(), fresh.cells[0].summary());
    assert!(warm.cells[0].summary().is_some());
    assert_eq!(warm.fingerprint, fresh.fingerprint);
}

#[test]
fn widened_grid_recomputes_only_the_delta() {
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
    let tmp = TempCache::new("widen");

    let narrow = one_cell_grid();
    let wide = GridSpec {
        reprs: vec![ReprKind::Histogram, ReprKind::PearsonRnd],
        sample_counts: vec![5, 10],
        ..one_cell_grid()
    };

    let enc = EncodedCorpus::build(&corpus, &narrow.few_runs_encoding()).unwrap();
    let first = Sweep::few_runs(&enc)
        .with_cache(tmp.cache())
        .run(&narrow)
        .unwrap();
    assert_eq!((first.hits, first.misses), (0, 1));

    // The wide grid needs its own (superset) encoding; the narrow cell
    // must come back from the cache, everything else is computed.
    let enc = EncodedCorpus::build(&corpus, &wide.few_runs_encoding()).unwrap();
    let second = Sweep::few_runs(&enc)
        .with_cache(tmp.cache())
        .run(&wide)
        .unwrap();
    assert_eq!(second.cells.len(), 4);
    assert_eq!((second.hits, second.misses), (1, 3));

    let shared = second
        .cells
        .iter()
        .find(|c| c.config == first.cells[0].config)
        .expect("narrow cell present in wide grid");
    assert!(shared.from_cache);
    assert_eq!(shared.summary(), first.cells[0].summary());
    assert_eq!(tmp.cache().entries(), 4);
}

#[test]
fn corrupted_cache_entry_is_a_miss_and_gets_recomputed() {
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
    let grid = one_cell_grid();
    let tmp = TempCache::new("corrupt");

    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let sweep = Sweep::few_runs(&enc).with_cache(tmp.cache());
    let first = sweep.run(&grid).unwrap();
    assert_eq!(first.misses, 1);

    // Vandalize the entry in place: same path, unparsable content.
    let path = tmp
        .cache()
        .entry_path(sweep.fingerprint(), &first.cells[0].config)
        .unwrap();
    assert!(path.is_file());
    std::fs::write(&path, "{ this is not a cached cell").unwrap();

    let second = sweep.run(&grid).unwrap();
    assert_eq!((second.hits, second.misses), (0, 1));
    assert_eq!(second.cells[0].summary(), first.cells[0].summary());

    // The recompute healed the entry.
    let third = sweep.run(&grid).unwrap();
    assert_eq!((third.hits, third.misses), (1, 0));
}

#[test]
fn stale_fingerprint_is_detected_and_recomputed() {
    // Two corpora that differ only in collection seed share the same
    // grid, cell configs, and cache directory — but not fingerprints.
    let a = Corpus::collect(&SystemModel::intel(), 30, 3);
    let b = Corpus::collect(&SystemModel::intel(), 30, 4);
    let grid = one_cell_grid();
    let tmp = TempCache::new("stale");

    let enc_a = EncodedCorpus::build(&a, &grid.few_runs_encoding()).unwrap();
    let sweep_a = Sweep::few_runs(&enc_a).with_cache(tmp.cache());
    let report_a = sweep_a.run(&grid).unwrap();

    let enc_b = EncodedCorpus::build(&b, &grid.few_runs_encoding()).unwrap();
    let sweep_b = Sweep::few_runs(&enc_b).with_cache(tmp.cache());
    assert_ne!(sweep_a.fingerprint(), sweep_b.fingerprint());

    // Plant corpus A's entry at the path corpus B would look up, as if
    // the corpus changed under a kept cache directory. The stored
    // fingerprint gives the staleness away; the load must miss.
    let cfg = first_cell_config(&report_a);
    let cache = tmp.cache();
    let path_a = cache.entry_path(sweep_a.fingerprint(), &cfg).unwrap();
    let path_b = cache.entry_path(sweep_b.fingerprint(), &cfg).unwrap();
    std::fs::copy(&path_a, &path_b).unwrap();
    assert!(cache.load(sweep_b.fingerprint(), &cfg).is_none());

    let report_b = sweep_b.run(&grid).unwrap();
    assert_eq!((report_b.hits, report_b.misses), (0, 1));
    assert!(!report_b.cells[0].from_cache);
    // Different corpus, different result — the stale value was not reused.
    assert_ne!(report_b.cells[0].summary(), report_a.cells[0].summary());
}

#[test]
fn concurrent_sweeps_on_one_cache_dir_are_serialized_by_the_lock() {
    use perfvar_suite::core::resilience::{CacheLock, PvError};
    use std::time::Duration;

    let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
    let grid = one_cell_grid();
    let tmp = TempCache::new("lock");

    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let sweep = Sweep::few_runs(&enc)
        .with_cache(tmp.cache())
        .with_lock_timeout(Duration::from_millis(80));

    // Another process (simulated by holding the lock in this one) is
    // mid-sweep on the same cache directory: our run must refuse to
    // interleave rather than mix half-written entries.
    let held = CacheLock::acquire(&tmp.dir, Duration::from_millis(80)).unwrap();
    let err = sweep.run(&grid).unwrap_err();
    assert!(
        matches!(err, PvError::CacheIo { .. }),
        "expected a cache-io lock timeout, got {err:?}"
    );
    drop(held);

    // Once the holder releases, the same sweep proceeds and the lock
    // file does not outlive the run.
    let report = sweep.run(&grid).unwrap();
    assert_eq!((report.hits, report.misses), (0, 1));
    assert!(!tmp.dir.join("sweep.lock").exists());
}

/// A sweep deletes the cell files an older format left behind (they
/// would be counted as entries and read whole by every donor scan) and
/// leaves current and newer formats' files alone.
#[test]
fn older_format_cell_files_are_deleted_by_the_next_sweep() {
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
    let grid = one_cell_grid();
    let tmp = TempCache::new("prune");

    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let sweep = Sweep::few_runs(&enc).with_cache(tmp.cache());
    let first = sweep.run(&grid).unwrap();
    let live = tmp
        .cache()
        .entry_path(first.fingerprint, &first.cells[0].config)
        .unwrap();
    let bytes = std::fs::read(&live).unwrap();
    assert_eq!(&bytes[..8], b"PVCELL10");
    let restamped = |version: &[u8; 2], name: &str| {
        let mut copy = bytes.clone();
        copy[6..8].copy_from_slice(version);
        let path = tmp.dir.join(name);
        std::fs::write(&path, copy).unwrap();
        path
    };
    let older = restamped(b"06", "cell-0000000000000006.json");
    let newer = restamped(b"11", "cell-0000000000000011.json");
    assert_eq!(tmp.cache().entries(), 3);

    let second = sweep.run(&grid).unwrap();
    assert_eq!((second.hits, second.misses), (1, 0));
    assert!(
        !older.exists(),
        "the older format's file survived the sweep"
    );
    assert!(newer.exists(), "the newer format's file was deleted");
    assert!(live.exists());
    assert_eq!(tmp.cache().entries(), 2);
}

fn first_cell_config(
    report: &perfvar_suite::core::sweep::SweepReport,
) -> perfvar_suite::core::sweep::CellConfig {
    report.cells[0].config
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// For any small grid, a warm re-run hits every cell and streams
        /// results identical to the cold run.
        #[test]
        fn warm_rerun_hits_every_cell_and_matches(
            n_runs in 12usize..24,
            samples in prop::collection::vec(2usize..6, 1..3),
            seed in any::<u64>(),
        ) {
            let corpus = Corpus::collect(&SystemModel::amd(), n_runs, seed);
            let grid = GridSpec {
                reprs: vec![ReprKind::Histogram],
                models: vec![ModelKind::Knn],
                sample_counts: samples,
                seeds: vec![seed],
                profiles_per_benchmark: 1,
            };
            let tmp = TempCache::new(&format!("prop-{seed:016x}"));
            let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
            let sweep = Sweep::few_runs(&enc).with_cache(tmp.cache());

            let cold = sweep.run(&grid).unwrap();
            let warm = sweep.run(&grid).unwrap();
            prop_assert_eq!(cold.misses, cold.cells.len());
            prop_assert_eq!(cold.hits, 0);
            prop_assert_eq!(warm.hits, warm.cells.len());
            prop_assert_eq!(warm.misses, 0);
            prop_assert_eq!(&cold.cells.len(), &warm.cells.len());
            for (c, w) in cold.cells.iter().zip(&warm.cells) {
                prop_assert_eq!(&c.config, &w.config);
                prop_assert_eq!(c.summary(), w.summary());
                prop_assert!(c.summary().is_some());
            }
        }
    }
}

/// Release-mode golden values: the exact bit patterns of every cell mean
/// for a fixed corpus and grid. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow in debug; exercised by the release CI job"]
fn golden_sweep_cell_means_are_pinned() {
    let corpus = Corpus::collect(&SystemModel::intel(), 100, 0xC0FFEE);
    let grid = GridSpec {
        reprs: vec![ReprKind::Histogram, ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5, 10],
        seeds: vec![0xC0FFEE],
        profiles_per_benchmark: 1,
    };
    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let report = Sweep::few_runs(&enc).run(&grid).unwrap();

    // Cells in grid order: Histogram s=5, PearsonRnd s=5, Histogram
    // s=10, PearsonRnd s=10 (all kNN, seed 0xC0FFEE).
    const EXPECTED_MEAN_BITS: [u64; 4] = [
        0x3fcd24ba3b416645, // 0.2277...
        0x3fc8af4f0d844d02, // 0.1928...
        0x3fcd1fcff0b550fa, // 0.2275...
        0x3fc9194237fa89e9, // 0.1960...
    ];
    let got: Vec<u64> = report
        .cells
        .iter()
        .map(|c| c.summary().expect("healthy cell").mean.to_bits())
        .collect();
    let labels: Vec<String> = report.cells.iter().map(|c| c.config.label()).collect();
    assert_eq!(
        got, EXPECTED_MEAN_BITS,
        "golden cell means moved; cells: {labels:?}, bits: {got:#018x?}"
    );
}

/// The tree-model sibling of [`golden_sweep_cell_means_are_pinned`]: the
/// exact bit patterns of RandomForest and XGBoost cell means on the same
/// 100-run campaign, so any change to the tree split kernels that moves
/// a fitted split shows here. Run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow in debug; exercised by the release CI job"]
fn golden_tree_sweep_cell_means_are_pinned() {
    let corpus = Corpus::collect(&SystemModel::intel(), 100, 0xC0FFEE);
    let grid = GridSpec {
        reprs: vec![ReprKind::Histogram, ReprKind::PearsonRnd],
        models: vec![ModelKind::RandomForest, ModelKind::XgBoost],
        sample_counts: vec![10],
        seeds: vec![0xC0FFEE],
        profiles_per_benchmark: 1,
    };
    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let report = Sweep::few_runs(&enc).run(&grid).unwrap();

    // Cells in grid order: Histogram+RandomForest, Histogram+XGBoost,
    // PearsonRnd+RandomForest, PearsonRnd+XGBoost (all s=10, seed
    // 0xC0FFEE).
    const EXPECTED_MEAN_BITS: [u64; 4] = [
        0x3fccba3b41664374, // 0.2244...
        0x3fcca0045e7b272f, // 0.2236...
        0x3fcb69d0369d036a, // 0.2141...
        0x3fccb17e4b17e4b1, // 0.2241...
    ];
    let got: Vec<u64> = report
        .cells
        .iter()
        .map(|c| c.summary().expect("healthy cell").mean.to_bits())
        .collect();
    let labels: Vec<String> = report.cells.iter().map(|c| c.config.label()).collect();
    assert_eq!(
        got, EXPECTED_MEAN_BITS,
        "golden cell means moved; cells: {labels:?}, bits: {got:#018x?}"
    );
}
