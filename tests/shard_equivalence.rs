//! The shard layout is a pure re-layering: evaluating a `ShardedCorpus`
//! split into many shards must reproduce, bit for bit, the one-shard
//! layout (`EncodedCorpus`, which `evaluate_few_runs` and
//! `evaluate_cross_system` run on) — at every layout, at any thread
//! count, whether shards stay resident, get evicted and recomputed, or
//! round-trip through spill files (including tampered ones).

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use perfvar_suite::core::eval::{
    cross_system_specs, evaluate_cross_system, evaluate_few_runs, few_runs_spec, EvalSummary,
};
use perfvar_suite::core::incremental::{
    evaluate_cross_system_incremental, evaluate_few_runs_incremental,
};
use perfvar_suite::core::shard::{CampaignSource, ShardLayout, ShardSource, ShardedCorpus};
use perfvar_suite::core::sweep::{CellCache, GridSpec, Sweep};
use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::usecase2::CrossSystemConfig;
use perfvar_suite::core::{ModelKind, ReprKind};
use perfvar_suite::obs::Collector;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

const RUNS: usize = 40;
const SEED: u64 = 11;

/// Serializes the counter-sensitive tests: the obs metrics registry is
/// process-global, so the hammer test (which pins `verify_fail == 0`
/// under a live collector) must not overlap the tamper test (which
/// generates genuine verify failures).
static OBS_SERIAL: Mutex<()> = Mutex::new(());

fn obs_serial() -> MutexGuard<'static, ()> {
    OBS_SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn corpus(sys: SystemModel) -> Corpus {
    Corpus::collect(&sys, RUNS, SEED)
}

fn uc1_cfg(model: ModelKind) -> FewRunsConfig {
    FewRunsConfig {
        model,
        n_profile_runs: 5,
        profiles_per_benchmark: 2,
        ..FewRunsConfig::default()
    }
}

fn uc2_cfg(model: ModelKind) -> CrossSystemConfig {
    CrossSystemConfig {
        model,
        profile_runs: 20,
        ..CrossSystemConfig::default()
    }
}

fn sharded<'c>(c: &'c Corpus, cfg: &FewRunsConfig, shard_size: usize) -> ShardedCorpus<'c> {
    ShardedCorpus::builder(ShardSource::Corpus(c), &few_runs_spec(cfg))
        .shard_size(shard_size)
        .build()
        .unwrap()
}

/// A cold use-case-1 evaluation of `sh`, whatever its layout.
fn eval_uc1(sh: &ShardedCorpus<'_>, cfg: FewRunsConfig) -> EvalSummary {
    evaluate_few_runs_incremental(sh, cfg, &[]).unwrap().summary
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv-shard-eq-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Shard sizes {1, 7, 16, corpus − 1}: every multi-shard boundary shape,
/// from one-benchmark shards to a one-benchmark tail shard, yields the
/// exact one-shard summary, for both a standardizing kNN fold and a
/// random forest fold.
#[test]
fn uc1_sharded_matches_monolithic_at_every_shard_size() {
    let c = corpus(SystemModel::intel());
    for model in [ModelKind::Knn, ModelKind::RandomForest] {
        let cfg = uc1_cfg(model);
        let one_shard = evaluate_few_runs(&c, cfg).unwrap();
        for shard_size in [1, 7, 16, c.len() - 1] {
            let sh = sharded(&c, &cfg, shard_size);
            assert!(sh.layout().n_shards() > 1, "shard_size={shard_size}");
            let summary = eval_uc1(&sh, cfg);
            assert_eq!(summary, one_shard, "{model:?} shard_size={shard_size}");
        }
    }
}

/// Use case 2 with *different* shard layouts on the source and the
/// destination corpora still reproduces the one-shard summary.
#[test]
fn uc2_sharded_matches_monolithic_with_mismatched_layouts() {
    let src = corpus(SystemModel::amd());
    let dst = corpus(SystemModel::intel());
    let cfg = uc2_cfg(ModelKind::Knn);
    let one_shard = evaluate_cross_system(&src, &dst, cfg).unwrap();
    let (src_spec, dst_spec) = cross_system_specs(&src, &cfg);
    for (ss, ds) in [(7, 13), (1, 64), (64, 1)] {
        let src_sh = ShardedCorpus::builder(ShardSource::Corpus(&src), &src_spec)
            .shard_size(ss)
            .build()
            .unwrap();
        let dst_sh = ShardedCorpus::builder(ShardSource::Corpus(&dst), &dst_spec)
            .shard_size(ds)
            .build()
            .unwrap();
        let summary = evaluate_cross_system_incremental(&src_sh, &dst_sh, cfg, &[])
            .unwrap()
            .summary;
        assert_eq!(summary, one_shard, "src={ss} dst={ds}");
    }
}

/// Thread-count independence survives the sharded path: one worker and
/// five workers produce identical bits, even with a resident budget so
/// tight that parallel folds constantly evict each other's shards.
#[test]
fn sharded_eval_is_thread_count_independent() {
    let c = corpus(SystemModel::intel());
    let cfg = uc1_cfg(ModelKind::Knn);
    let run = |threads: usize| -> EvalSummary {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &few_runs_spec(&cfg))
                    .shard_size(5)
                    .resident_shards(2)
                    .build()
                    .unwrap();
                eval_uc1(&sh, cfg)
            })
    };
    let single = run(1);
    let multi = run(5);
    assert_eq!(single, multi);
    assert_eq!(single, evaluate_few_runs(&c, cfg).unwrap());
}

/// A campaign generated shard-by-shard (never materialized as a corpus)
/// is indistinguishable from a collected corpus: same fingerprint, same
/// evaluation bits.
#[test]
fn campaign_source_evaluates_identically_to_collected_corpus() {
    let c = corpus(SystemModel::intel());
    let cfg = uc1_cfg(ModelKind::Knn);
    let sh = ShardedCorpus::builder(
        ShardSource::Campaign(CampaignSource {
            system: SystemModel::intel(),
            n_benchmarks: c.len(),
            n_runs: RUNS,
            seed: SEED,
        }),
        &few_runs_spec(&cfg),
    )
    .shard_size(16)
    .resident_shards(2)
    .build()
    .unwrap();
    assert_eq!(
        sh.fingerprint(),
        perfvar_suite::core::corpus_fingerprint(&c)
    );
    assert_eq!(eval_uc1(&sh, cfg), evaluate_few_runs(&c, cfg).unwrap());
}

/// Tampered, truncated, or garbage spill files are silently recomputed —
/// the evaluation still produces exact bits, never an error, and the
/// healed spill file verifies again afterwards.
#[test]
fn tampered_spill_files_recover_silently() {
    let _guard = obs_serial();
    let dir = tmp_dir("tamper");
    let c = corpus(SystemModel::intel());
    let cfg = uc1_cfg(ModelKind::Knn);
    let one_shard = evaluate_few_runs(&c, cfg).unwrap();
    let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &few_runs_spec(&cfg))
        .shard_size(8)
        .spill_dir(&dir)
        .resident_shards(1)
        .build()
        .unwrap();
    // Corrupt every spill file a different way: bit-flip payload bytes,
    // truncate, and replace with garbage.
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), sh.layout().n_shards());
    for (i, path) in files.iter().enumerate() {
        match i % 3 {
            0 => {
                let mut bytes = fs::read(path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                fs::write(path, bytes).unwrap();
            }
            1 => {
                let bytes = fs::read(path).unwrap();
                fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
            }
            _ => fs::write(path, b"not a shard").unwrap(),
        }
    }
    // Budget 1 forces every fold to fault shards back in through the
    // corrupted files.
    assert_eq!(eval_uc1(&sh, cfg), one_shard);
    // Recomputed shards were re-spilled; a fresh build warm-loads them.
    let warm = ShardedCorpus::builder(ShardSource::Corpus(&c), &few_runs_spec(&cfg))
        .shard_size(8)
        .spill_dir(&dir)
        .build()
        .unwrap();
    assert_eq!(warm.shard_fingerprints(), sh.shard_fingerprints());
    let _ = fs::remove_dir_all(&dir);
}

/// Eight threads hammering a spill-backed `ShardedCorpus` with a
/// residency budget of one — every access evicts someone else's shard —
/// still read bit-identical rows — the sorted truths each shard fills on
/// first use included — and the spill round-trips never produce a single
/// verification failure (`pv.core.shard.verify_fail` stays 0 under a
/// live collector).
#[test]
fn concurrent_eviction_hammer_reads_identical_bits_with_zero_verify_fails() {
    let _guard = obs_serial();
    let dir = tmp_dir("hammer");
    let c = corpus(SystemModel::intel());
    let cfg = uc1_cfg(ModelKind::Knn);
    let spec = few_runs_spec(&cfg);

    let collector = Collector::install();
    let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec)
        .shard_size(3)
        .spill_dir(&dir)
        .resident_shards(1)
        .build()
        .unwrap();
    assert!(sh.layout().n_shards() > 4, "need real eviction churn");

    // Expected bits, read once up front (through the same evicting
    // corpus — equivalence to the one-shard layout is pinned elsewhere).
    let expected: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = (0..c.len())
        .map(|bi| {
            let shard = sh.shard(sh.layout().shard_of(bi)).unwrap();
            let rel = shard.rel_times(bi).unwrap().to_vec();
            let mut sorted = rel.clone();
            sorted.sort_by(f64::total_cmp);
            (rel, shard.target(cfg.repr, bi).unwrap().to_vec(), sorted)
        })
        .collect();

    let n = c.len();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let sh = &sh;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for k in 0..n {
                        // Each thread walks the corpus from its own
                        // offset so concurrent faults constantly evict
                        // each other's shards.
                        let bi = (k + t * 7 + round) % n;
                        let shard = sh.shard(sh.layout().shard_of(bi)).unwrap();
                        assert_eq!(
                            shard.rel_times(bi).unwrap(),
                            expected[bi].0.as_slice(),
                            "thread {t} read different rel_times bits for benchmark {bi}"
                        );
                        assert_eq!(
                            shard.target(cfg.repr, bi).unwrap(),
                            expected[bi].1.as_slice(),
                            "thread {t} read different target bits for benchmark {bi}"
                        );
                        assert_eq!(
                            shard.rel_times_sorted(bi).unwrap(),
                            expected[bi].2.as_slice(),
                            "thread {t} read different sorted truth bits for benchmark {bi}"
                        );
                    }
                }
            });
        }
    });

    let obs = collector.finish();
    assert_eq!(
        obs.metrics
            .counter("pv.core.shard.verify_fail")
            .unwrap_or(0),
        0,
        "spill round-trips under concurrent eviction must never fail verification"
    );
    assert!(
        obs.metrics.counter("pv.core.shard.load").unwrap_or(0) > 0,
        "budget 1 must have faulted shards back in from spill"
    );
    assert!(
        obs.metrics.counter("pv.core.shard.evict").unwrap_or(0) > 0,
        "budget 1 must have evicted shards"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Folds read their training rows from the row table and fault a shard
/// in only for the held-out truth, so a sweep over 13 spilled shards
/// under a 4-shard budget loads each shard about once — at most one load
/// per shard plus one per worker — and matches the one-shard layout.
#[test]
fn spilled_sweep_loads_each_shard_about_once() {
    let _guard = obs_serial();
    let dir = tmp_dir("loads");
    let grid = GridSpec {
        reprs: vec![ReprKind::PyMaxEnt, ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5],
        seeds: vec![SEED],
        profiles_per_benchmark: 1,
    };
    let campaign = |shard_size: usize| {
        let source = ShardSource::Campaign(CampaignSource {
            system: SystemModel::intel(),
            n_benchmarks: 65,
            n_runs: RUNS,
            seed: SEED,
        });
        ShardedCorpus::builder(source, &grid.few_runs_encoding()).shard_size(shard_size)
    };
    let one_shard = Sweep::few_runs(&campaign(65).build().unwrap())
        .run(&grid)
        .unwrap();
    let sh = campaign(5)
        .spill_dir(&dir)
        .resident_shards(4)
        .build()
        .unwrap();
    assert_eq!(sh.layout().n_shards(), 13);

    let collector = Collector::install();
    let report = Sweep::few_runs(&sh).run(&grid).unwrap();
    let metrics = collector.finish().metrics;
    let loads = metrics.counter("pv.core.shard.load").unwrap_or(0);
    let bound = 13 + rayon::current_num_threads() as u64;
    assert!(loads <= bound, "{loads} shard loads, bound {bound}");
    assert!(report.is_clean());
    assert_eq!(report.cells, one_shard.cells);
    let _ = fs::remove_dir_all(&dir);
}

/// Spill I/O failures surface as the typed `cache-io` error kind, not a
/// panic or a stringly error.
#[test]
fn unusable_spill_dir_is_typed_cache_io() {
    let file = std::env::temp_dir().join(format!("pv-shard-eq-file-{}", std::process::id()));
    fs::write(&file, b"occupied").unwrap();
    let c = corpus(SystemModel::intel());
    let cfg = uc1_cfg(ModelKind::Knn);
    let err = ShardedCorpus::builder(ShardSource::Corpus(&c), &few_runs_spec(&cfg))
        .spill_dir(&file)
        .build()
        .err()
        .expect("a file as spill dir must fail");
    assert_eq!(err.kind(), "cache-io");
    let _ = fs::remove_file(&file);
}

/// Sweep-level interop: a one-shard sweep and a multi-shard sweep over
/// the same campaign share one cell cache — whichever runs second gets
/// pure hits and identical summaries.
#[test]
fn sharded_and_monolithic_sweeps_share_the_cell_cache() {
    let dir = tmp_dir("sweep-interop");
    let c = corpus(SystemModel::intel());
    let grid = GridSpec {
        reprs: vec![ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5],
        ..GridSpec::default()
    };
    let enc =
        perfvar_suite::core::pipeline::EncodedCorpus::build(&c, &grid.few_runs_encoding()).unwrap();
    let one_shard = Sweep::few_runs(&enc)
        .with_cache(CellCache::new(&dir))
        .run(&grid)
        .unwrap();
    assert_eq!(one_shard.misses, 1);
    let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &grid.few_runs_encoding())
        .shard_size(9)
        .build()
        .unwrap();
    let sharded = Sweep::few_runs(&sh)
        .with_cache(CellCache::new(&dir))
        .run(&grid)
        .unwrap();
    assert_eq!(
        sharded.hits, 1,
        "multi-shard sweep must hit the one-shard cell"
    );
    assert_eq!(sharded.fingerprint, one_shard.fingerprint);
    assert_eq!(
        sharded.cells[0].summary().unwrap(),
        one_shard.cells[0].summary().unwrap()
    );
    let _ = fs::remove_dir_all(&dir);
}

mod boundary_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random shard boundaries never change fold assembly: any cut
        /// set over the corpus produces the one-shard evaluation bits.
        #[test]
        fn random_boundaries_never_change_fold_assembly(
            cuts in prop::collection::vec(0usize..60, 0..12),
        ) {
            let c = corpus(SystemModel::intel());
            let cfg = uc1_cfg(ModelKind::Knn);
            let layout = ShardLayout::from_boundaries(c.len(), &cuts);
            let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &few_runs_spec(&cfg))
                .layout(layout)
                .resident_shards(3)
                .build()
                .unwrap();
            prop_assert_eq!(eval_uc1(&sh, cfg), evaluate_few_runs(&c, cfg).unwrap());
        }
    }
}
