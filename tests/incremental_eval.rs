//! Incremental-evaluation tier: corpus-append fold reuse through the
//! public facade, fold-fingerprint algebra, and recovery from tampered
//! cached folds — every path bit-identical to a cold evaluation.

use std::path::PathBuf;

use perfvar_suite::core::eval::few_runs_spec;
use perfvar_suite::core::pipeline::EncodedCorpus;
use perfvar_suite::core::shard::{ShardSource, ShardedCorpus};
use perfvar_suite::core::sweep::{CellCache, GridSpec, Sweep};
use perfvar_suite::core::{
    evaluate_few_runs, evaluate_few_runs_incremental, fold_fingerprint, FewRunsConfig, ModelKind,
    ReprKind,
};
use perfvar_suite::sysmodel::{Corpus, SystemModel};

/// A unique, self-cleaning cache directory per test.
struct TempCache {
    dir: PathBuf,
}

impl TempCache {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pv-inc-test-{}-{name}", std::process::id()));
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

fn knn_cfg() -> FewRunsConfig {
    FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 5,
        profiles_per_benchmark: 1,
        seed: 17,
    }
}

/// A corpus and the same corpus minus its last `drop` benchmarks — the
/// shape a roster append produces (collection is per-benchmark seeded,
/// so the surviving prefix is bit-identical).
fn grown_pair(n_runs: usize, drop: usize) -> (Corpus, Corpus) {
    let full = Corpus::collect(&SystemModel::intel(), n_runs, 23);
    let mut base = full.clone();
    base.benchmarks.truncate(full.len() - drop);
    (full, base)
}

/// `corpus` encoded for `cfg` at `shard_size` benchmarks per shard
/// (`None`: the one-shard layout, sized to the corpus).
fn layout<'c>(
    corpus: &'c Corpus,
    cfg: &FewRunsConfig,
    shard_size: Option<usize>,
) -> ShardedCorpus<'c> {
    ShardedCorpus::builder(ShardSource::Corpus(corpus), &few_runs_spec(cfg))
        .shard_size(shard_size.unwrap_or(corpus.len()))
        .build()
        .unwrap()
}

/// Fold entries seeded at one shard layout serve the grown corpus at
/// another: at every (base, grown) layout pair the warm summary equals a
/// cold run and the hit/delta/miss tallies are the same.
#[test]
fn append_serves_unchanged_folds_from_the_delta_path() {
    let (full, base) = grown_pair(30, 1);
    let cfg = knn_cfg();
    let cold = evaluate_few_runs(&full, cfg).unwrap();
    let mut tallies = Vec::new();
    for (base_size, full_size) in [(None, None), (None, Some(7)), (Some(5), Some(13))] {
        let pair = format!("{base_size:?} -> {full_size:?}");
        let base_sh = layout(&base, &cfg, base_size);
        let seeded = evaluate_few_runs_incremental(&base_sh, cfg, &[]).unwrap();
        assert_eq!(seeded.stats.misses, base.len(), "cold seed is all misses");

        let full_sh = layout(&full, &cfg, full_size);
        let warm = evaluate_few_runs_incremental(&full_sh, cfg, &seeded.folds).unwrap();
        assert_eq!(
            warm.summary, cold,
            "append reuse must be bit-identical ({pair})"
        );

        // Every surviving fold's training set grew, so exact hits cannot
        // fire; reuse is the kNN neighbour-delta path, and only folds
        // whose neighbourhood the new benchmark actually entered
        // (expected rate ≈ k/n) plus the new benchmark's own fold
        // recompute.
        assert_eq!(warm.stats.hits, 0, "{pair}");
        assert!(
            warm.stats.deltas > 0,
            "no neighbour-stable folds ({pair}): {:?}",
            warm.stats
        );
        assert!(warm.stats.misses >= 1, "the new fold has no prior entry");
        assert_eq!(warm.stats.total(), full.len());

        // A rerun on the unchanged full corpus is pure fingerprint hits.
        let rerun = evaluate_few_runs_incremental(&full_sh, cfg, &warm.folds).unwrap();
        assert_eq!(rerun.stats.hits, full.len(), "{pair}");
        assert_eq!(rerun.stats.reused(), full.len());
        assert_eq!(rerun.summary, cold);
        tallies.push((warm.stats, pair));
    }
    for (stats, pair) in &tallies[1..] {
        assert_eq!(
            *stats, tallies[0].0,
            "tallies moved with the layout: {pair}"
        );
    }
}

#[test]
fn sweep_append_reuses_donor_folds_across_corpus_fingerprints() {
    let (full, base) = grown_pair(30, 1);
    let grid = GridSpec {
        reprs: vec![ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5],
        seeds: vec![17],
        profiles_per_benchmark: 1,
    };
    let tmp = TempCache::new("donor");

    let base_enc = EncodedCorpus::build(&base, &grid.few_runs_encoding()).unwrap();
    let seeded = Sweep::few_runs(&base_enc)
        .with_cache(tmp.cache())
        .run(&grid)
        .unwrap();
    assert_eq!(seeded.fold_stats.misses, base.len());

    // The grown corpus fingerprints differently: every cell misses, but
    // each evaluation starts from the base corpus' per-fold entries.
    let full_enc = EncodedCorpus::build(&full, &grid.few_runs_encoding()).unwrap();
    let grown = Sweep::few_runs(&full_enc)
        .with_cache(tmp.cache())
        .run(&grid)
        .unwrap();
    assert_eq!((grown.hits, grown.misses), (0, 1));
    assert_eq!(grown.fold_stats.hits, 0);
    assert!(grown.fold_stats.deltas > 0, "{:?}", grown.fold_stats);
    assert_eq!(grown.fold_stats.total(), full.len());

    // Bit-identical to an uncached sweep of the full corpus.
    let cold = Sweep::few_runs(&full_enc).run(&grid).unwrap();
    assert_eq!(grown.cells[0].summary(), cold.cells[0].summary());
    assert!(grown.cells[0].summary().is_some());
}

#[test]
fn tampered_donor_folds_are_recomputed_and_stay_bit_identical() {
    let (full, base) = grown_pair(30, 1);
    let grid = GridSpec {
        reprs: vec![ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5],
        seeds: vec![17],
        profiles_per_benchmark: 1,
    };
    let tmp = TempCache::new("tamper");

    let base_enc = EncodedCorpus::build(&base, &grid.few_runs_encoding()).unwrap();
    let base_sweep = Sweep::few_runs(&base_enc).with_cache(tmp.cache());
    let seeded = base_sweep.run(&grid).unwrap();

    // Vandalize the stored folds: a lying score whose integrity digest
    // no longer matches, re-stored at the same cache slot.
    let full_enc = EncodedCorpus::build(&full, &grid.few_runs_encoding()).unwrap();
    let full_fp = Sweep::few_runs(&full_enc).fingerprint();
    let cache = tmp.cache();
    let donors = cache.donor_folds(full_fp);
    let (cfg, mut folds) = donors.into_iter().next().expect("donor entry present");
    assert_eq!(folds.len(), base.len());
    assert!(folds.iter().all(|f| f.verify()));
    folds[2].score.ks += 0.5;
    assert!(!folds[2].verify(), "tamper must break the integrity digest");
    let summary = seeded.cells[0].summary().unwrap().clone();
    cache
        .store(base_sweep.fingerprint(), &cfg, &summary, None, &folds)
        .unwrap();

    // The grown sweep consumes the tampered donor: the bad fold is
    // simply absent (recomputed), the rest still delta, and the result
    // is bit-identical to an uncached run.
    let grown = Sweep::few_runs(&full_enc)
        .with_cache(tmp.cache())
        .run(&grid)
        .unwrap();
    let cold = Sweep::few_runs(&full_enc).run(&grid).unwrap();
    assert_eq!(grown.cells[0].summary(), cold.cells[0].summary());
    assert!(grown.fold_stats.misses >= 2, "{:?}", grown.fold_stats);
    assert!(grown.fold_stats.deltas > 0, "{:?}", grown.fold_stats);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// An order-sensitive reference implementation: the fingerprint must
    /// separate any two (held, held_fp, train_fps) tuples that differ
    /// anywhere, including pure permutations of the training digests.
    fn inputs_differ(a: &(usize, u64, Vec<u64>), b: &(usize, u64, Vec<u64>)) -> bool {
        a != b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Same inputs, same fingerprint — across calls and regardless
        /// of how the digest vector was built.
        #[test]
        fn fold_fingerprint_is_deterministic(
            held in 0usize..64,
            held_fp in any::<u64>(),
            train in prop::collection::vec(any::<u64>(), 1..20),
        ) {
            let a = fold_fingerprint("cfg", held, held_fp, &train);
            let b = fold_fingerprint("cfg", held, held_fp, &train.clone());
            prop_assert_eq!(a, b);
        }

        /// Permuting the training digests changes the fingerprint: the
        /// scaler accumulates moments in row order, so a permuted
        /// training set is a *different* fold even with equal content.
        #[test]
        fn fold_fingerprint_is_order_sensitive(
            held in 0usize..64,
            held_fp in any::<u64>(),
            train in prop::collection::vec(any::<u64>(), 2..20),
            rot in 1usize..19,
        ) {
            let mut permuted = train.clone();
            permuted.rotate_left(rot % train.len());
            prop_assume!(inputs_differ(
                &(held, held_fp, train.clone()),
                &(held, held_fp, permuted.clone()),
            ));
            let a = fold_fingerprint("cfg", held, held_fp, &train);
            let b = fold_fingerprint("cfg", held, held_fp, &permuted);
            prop_assert!(a != b);
        }

        /// Each fingerprint input is load-bearing: config, fold index,
        /// held digest, and any single training digest all separate.
        #[test]
        fn fold_fingerprint_separates_every_input(
            held in 0usize..64,
            held_fp in any::<u64>(),
            train in prop::collection::vec(any::<u64>(), 1..20),
            flip in any::<usize>(),
        ) {
            let base = fold_fingerprint("cfg", held, held_fp, &train);
            prop_assert!(base != fold_fingerprint("cfg2", held, held_fp, &train));
            prop_assert!(base != fold_fingerprint("cfg", held + 1, held_fp, &train));
            prop_assert!(base != fold_fingerprint("cfg", held, held_fp ^ 1, &train));
            let mut bumped = train.clone();
            let i = flip % bumped.len();
            bumped[i] ^= 1;
            prop_assert!(base != fold_fingerprint("cfg", held, held_fp, &bumped));
            // Growing the set separates too (an append is never a hit).
            let mut grown = train.clone();
            grown.push(held_fp);
            prop_assert!(base != fold_fingerprint("cfg", held, held_fp, &grown));
        }
    }
}
