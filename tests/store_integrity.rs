//! Adversarial tier for every on-disk format: shard spill, sweep cell,
//! quarantine list and registry artifact.
//!
//! Each format seals one small entry, then goes through every single
//! byte flip, every truncation, and one paired bit-7 flip inside the
//! payload (two bytes of one digest lane). Every case must reach the
//! format's own load function and come back a miss that is counted and
//! healed — for the registry, a typed `invalid` error — never a panic and
//! never a wrong value. After each case the healing write must leave the
//! file byte-identical to the pristine one.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use perfvar_suite::core::eval::few_runs_spec;
use perfvar_suite::core::incremental::evaluate_few_runs_incremental;
use perfvar_suite::core::pipeline::{EncodedCorpus, EncodingSpec};
use perfvar_suite::core::registry::{Artifact, ModelRegistry};
use perfvar_suite::core::resilience::{silence_injected_panics, QUARANTINE_FILE};
use perfvar_suite::core::shard::{CampaignSource, ShardSource, ShardedCorpus};
use perfvar_suite::core::sweep::{CellCache, CellConfig, CellOutcome, GridSpec, Sweep};
use perfvar_suite::core::usecase1::{FewRunsConfig, FewRunsPredictor};
use perfvar_suite::core::{corpus_fingerprint, FaultKind, FaultPlan, ModelKind, ReprKind};
use perfvar_suite::obs::Collector;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

/// The obs metrics registry is process-global: one format at a time, so
/// each counts only its own verify failures.
static OBS_SERIAL: Mutex<()> = Mutex::new(());

fn obs_serial() -> MutexGuard<'static, ()> {
    OBS_SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Four benchmarks keep every entry at a few KB.
fn small_corpus() -> Corpus {
    let mut corpus = Corpus::collect(&SystemModel::intel(), 30, 5);
    corpus.benchmarks.truncate(4);
    corpus
}

fn knn_cfg() -> FewRunsConfig {
    FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 5,
        profiles_per_benchmark: 1,
        ..FewRunsConfig::default()
    }
}

/// Every single-byte flip, every truncation, and one paired flip of bit
/// 7 of the first and last whole payload words (magic and key take 16
/// bytes, the digest trailer 8) — the top bit of two little-endian words,
/// which a word-wise xor-then-multiply digest would cancel. Built one at
/// a time: `2 × len + 1` cases.
fn tampered(pristine: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let words = (pristine.len() - 24) / 8;
    assert!(words >= 3, "entry too small for a paired flip");
    let flips = (0..pristine.len()).map(|i| {
        let mut bytes = pristine.to_vec();
        bytes[i] ^= 0xFF;
        bytes
    });
    let truncations = (0..pristine.len()).map(|len| pristine[..len].to_vec());
    let paired = std::iter::once_with(move || {
        let mut bytes = pristine.to_vec();
        bytes[16 + 8 + 7] ^= 0x80;
        bytes[16 + 8 * (words - 1) + 7] ^= 0x80;
        bytes
    });
    flips.chain(truncations).chain(paired)
}

/// Writes every tampered case of `path` and runs `load_and_heal`, which
/// loads through the format's own load function, asserts a miss (or a
/// typed error) and heals. Each case must bump `counter` exactly once
/// and leave the file as it was.
fn every_case(name: &str, path: &Path, counter: &str, mut load_and_heal: impl FnMut(usize)) {
    let pristine = fs::read(path).unwrap();
    let collector = Collector::install();
    for (k, bytes) in tampered(&pristine).enumerate() {
        fs::write(path, bytes).unwrap();
        load_and_heal(k);
        assert!(
            fs::read(path).unwrap() == pristine,
            "{name} case {k}: not healed"
        );
    }
    let obs = collector.finish();
    assert_eq!(
        obs.metrics.counter(counter),
        Some(2 * pristine.len() as u64 + 1),
        "{name}: every tampered file must be a counted miss"
    );
}

/// One spill file of 3 benchmarks × 50 runs (truths and one target
/// encoding, ~1.5 KB), so each of its ~3,000 cases can afford the
/// recompute that heals it.
#[test]
fn every_flip_and_truncation_of_a_spill_file_is_a_counted_healed_miss() {
    let _guard = obs_serial();
    let dir = tmp_dir("spill");
    let source = CampaignSource {
        system: SystemModel::intel(),
        n_benchmarks: 4,
        n_runs: 50,
        seed: 11,
    };
    let spec = EncodingSpec::new().target(ReprKind::PearsonRnd);
    let sh = ShardedCorpus::builder(ShardSource::Campaign(source), &spec)
        .shard_size(3)
        .spill_dir(&dir)
        .resident_shards(1)
        .build()
        .unwrap();
    assert_eq!(sh.layout().n_shards(), 2);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let want = sh.shard_fingerprints()[0];
    every_case("spill", &files[0], "pv.core.shard.verify_fail", |k| {
        // Budget 1: touching shard 1 evicts shard 0, so the next access
        // faults it in through the tampered file (and rewrites it).
        sh.shard(1).unwrap();
        assert_eq!(sh.shard(0).unwrap().fingerprint(), want, "case {k}");
    });
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_flip_and_truncation_of_a_cell_entry_is_a_counted_healed_miss() {
    let _guard = obs_serial();
    let dir = tmp_dir("cell");
    let corpus = small_corpus();
    let cfg = knn_cfg();
    let enc = EncodedCorpus::build(&corpus, &few_runs_spec(&cfg)).unwrap();
    let eval = evaluate_few_runs_incremental(&enc, cfg, &[]).unwrap();
    let (fp, cell) = (enc.fingerprint(), CellConfig::FewRuns(cfg));
    let cache = CellCache::new(&dir);
    let heal = || {
        cache
            .store(fp, &cell, &eval.summary, None, &eval.folds)
            .unwrap()
    };
    heal();
    assert_eq!(
        cache.load(fp, &cell).map(|(s, _)| s).as_ref(),
        Some(&eval.summary)
    );
    let path = cache.entry_path(fp, &cell).unwrap();
    every_case("cell", &path, "pv.core.sweep.cache_verify_fail", |k| {
        assert!(cache.load(fp, &cell).is_none(), "case {k}: a hit");
        heal();
    });
    let _ = fs::remove_dir_all(&dir);
}

/// The quarantine heals through the sweep itself: cell 0 always panics,
/// so a tampered list is a counted miss, the cell re-runs, fails, and is
/// quarantined again. No case may skip cell 1 instead.
#[test]
fn every_flip_and_truncation_of_a_quarantine_is_a_counted_healed_miss() {
    let _guard = obs_serial();
    silence_injected_panics();
    let dir = tmp_dir("quarantine");
    let corpus = small_corpus();
    let grid = GridSpec {
        reprs: vec![ReprKind::Histogram],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5, 10],
        seeds: vec![3],
        profiles_per_benchmark: 1,
    };
    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let sweep = Sweep::few_runs(&enc)
        .with_cache(CellCache::new(&dir))
        .with_faults(FaultPlan::none().inject(0, FaultKind::Panic));
    let first = sweep.run(&grid).unwrap();
    assert_eq!((first.failed, first.quarantined), (1, 0));
    let skipped = sweep.run(&grid).unwrap();
    assert!(matches!(
        skipped.cells[0].outcome,
        CellOutcome::Quarantined { .. }
    ));
    every_case(
        "quarantine",
        &dir.join(QUARANTINE_FILE),
        "pv.core.sweep.cache_verify_fail",
        |k| {
            let report = sweep.run(&grid).unwrap();
            assert_eq!((report.failed, report.quarantined), (1, 0), "case {k}");
            assert!(report.cells[1].from_cache, "case {k}");
        },
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The registry's policy differs: every tampered entry must be a typed
/// `invalid` error, never an artifact. The registry never rewrites a bad
/// entry itself (`ensure_*` re-fits, see `tests/registry.rs`), so each
/// case puts the pristine bytes back. One training row keeps the kNN
/// artifact (272 features a row, plus the scaler) at ~8 KB.
#[test]
fn every_flip_and_truncation_of_a_registry_entry_is_typed_invalid() {
    let _guard = obs_serial();
    let dir = tmp_dir("registry");
    let corpus = small_corpus();
    let fp = corpus_fingerprint(&corpus);
    let artifact = Artifact::FewRuns(
        FewRunsPredictor::train(&corpus, &[0], knn_cfg())
            .unwrap()
            .to_artifact(),
    );
    let registry = ModelRegistry::new(&dir);
    registry.store(fp, &artifact).unwrap();
    let cell = CellConfig::FewRuns(knn_cfg());
    let path = registry.entry_path(fp, &cell).unwrap();
    registry
        .load(fp, &cell)
        .expect("the pristine entry verifies");
    let pristine = fs::read(&path).unwrap();
    every_case("registry", &path, "pv.core.registry.verify_fail", |k| {
        let err = registry
            .load(fp, &cell)
            .expect_err("tampered entry verified");
        assert_eq!(err.kind(), "invalid", "case {k}: {err}");
        fs::write(&path, &pristine).unwrap();
    });
    let _ = fs::remove_dir_all(&dir);
}
