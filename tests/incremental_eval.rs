//! Incremental-evaluation tier: corpus-append fold reuse through the
//! public facade, the roster reuse rule case by case, linear cell
//! entries, and recovery from tampered cached folds — every path
//! bit-identical to a cold evaluation.

use std::path::PathBuf;

use perfvar_suite::core::eval::few_runs_spec;
use perfvar_suite::core::pipeline::EncodedCorpus;
use perfvar_suite::core::shard::{ShardSource, ShardedCorpus};
use perfvar_suite::core::sweep::{CellCache, CellConfig, GridSpec, Sweep};
use perfvar_suite::core::{
    evaluate_few_runs, evaluate_few_runs_incremental, FewRunsConfig, FoldCacheStats, FoldEntry,
    ModelKind, ReprKind,
};
use perfvar_suite::sysmodel::{Corpus, SystemModel};
use serde::Content;

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

        // A rerun on the unchanged full corpus is pure exact hits.
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

    // A stored fold holds no score of its own (the summary does), so a
    // lying score cannot even be stored: the store refuses it, typed.
    let full_enc = EncodedCorpus::build(&full, &grid.few_runs_encoding()).unwrap();
    let full_fp = Sweep::few_runs(&full_enc).fingerprint();
    let cache = tmp.cache();
    let donors = cache.donor_folds(full_fp);
    let (cfg, mut folds) = donors.into_iter().next().expect("donor entry present");
    assert_eq!(folds.len(), base.len());
    let summary = seeded.cells[0].summary().unwrap().clone();
    let mut lying = folds.clone();
    lying[2].score.ks += 0.5;
    let refused = cache
        .store(base_sweep.fingerprint(), &cfg, &summary, None, &lying)
        .unwrap_err();
    assert_eq!(refused.kind(), "invalid", "{refused}");

    // Vandalize a field a stored fold does carry: one neighbour index,
    // whose integrity digest no longer matches, re-stored at the same
    // cache slot.
    folds[2].neighbors.as_mut().unwrap()[0] ^= 1;
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

/// A stored cell grows linearly with the roster: each fold entry holds
/// one benchmark digest (its held-out benchmark's), so doubling the
/// roster about doubles the entry.
#[test]
fn stored_cell_grows_linearly_with_the_roster() {
    let full = Corpus::collect(&SystemModel::intel(), 30, 23);
    let grid = GridSpec {
        reprs: vec![ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5],
        seeds: vec![17],
        profiles_per_benchmark: 1,
    };
    let tmp = TempCache::new("linear");
    let mut sizes = Vec::new();
    for n in [30, 60] {
        let mut corpus = full.clone();
        corpus.benchmarks.truncate(n);
        let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
        let sweep = Sweep::few_runs(&enc).with_cache(tmp.cache());
        let report = sweep.run(&grid).unwrap();
        assert_eq!(report.fold_stats.total(), n);
        let path = tmp
            .cache()
            .entry_path(sweep.fingerprint(), &CellConfig::FewRuns(knn_cfg()))
            .unwrap();
        sizes.push(std::fs::metadata(path).unwrap().len() as f64);
    }
    assert!(
        sizes[1] < 2.5 * sizes[0],
        "60-benchmark entry is {:.2}x the 30-benchmark one ({sizes:?} bytes)",
        sizes[1] / sizes[0]
    );
}

/// Any JSON value, as the parsed tree.
struct Tree(Content);

impl<'de> serde::Deserialize<'de> for Tree {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_content().map(Tree)
    }
}

/// The number of `"ks"` keys anywhere in `value`.
fn count_ks(value: &Content) -> usize {
    match value {
        Content::Map(fields) => fields
            .iter()
            .map(|(k, v)| usize::from(k == "ks") + count_ks(v))
            .sum(),
        Content::Seq(items) => items.iter().map(count_ks).sum(),
        _ => 0,
    }
}

/// A stored ok cell holds each fold's KS once: in the summary's scores,
/// which the stored folds' scores are rebuilt from.
#[test]
fn stored_cell_holds_each_ks_once() {
    let mut corpus = Corpus::collect(&SystemModel::intel(), 30, 23);
    corpus.benchmarks.truncate(20);
    let grid = GridSpec {
        reprs: vec![ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![5],
        seeds: vec![17],
        profiles_per_benchmark: 1,
    };
    let tmp = TempCache::new("ks-once");
    let enc = EncodedCorpus::build(&corpus, &grid.few_runs_encoding()).unwrap();
    let sweep = Sweep::few_runs(&enc).with_cache(tmp.cache());
    let report = sweep.run(&grid).unwrap();
    assert_eq!(report.fold_stats.total(), corpus.len());
    let path = tmp
        .cache()
        .entry_path(sweep.fingerprint(), &CellConfig::FewRuns(knn_cfg()))
        .unwrap();
    // The sealed envelope: 16 header bytes, the JSON payload, an 8-byte
    // digest trailer.
    let bytes = std::fs::read(path).unwrap();
    let text = std::str::from_utf8(&bytes[16..bytes.len() - 8]).unwrap();
    let Tree(payload) = serde_json::from_str(text).unwrap();
    assert_eq!(count_ks(&payload), corpus.len());
    // The folds still come back whole, scores included.
    let donors = tmp.cache().donor_folds(sweep.fingerprint() ^ 1);
    let folds = &donors[&CellConfig::FewRuns(knn_cfg())];
    let scores: Vec<_> = folds.iter().map(|f| f.score).collect();
    assert_eq!(scores, report.cells[0].summary().unwrap().scores);
}

/// The reuse rule, case by case: a prior's roster (its entries' held
/// digests, fold order) must equal the evaluated roster for exact hits
/// or be a strict prefix of it for neighbour-delta checks, under the
/// same config, entry by verified entry. Anything else reuses nothing.
/// Every case runs at 1 and 8 threads with the same tallies and a
/// summary bit-identical to a cold evaluation.
mod reuse_rule {
    use super::*;

    /// The first 20 benchmarks of a 30-run campaign.
    fn roster() -> Corpus {
        let mut c = Corpus::collect(&SystemModel::intel(), 30, 23);
        c.benchmarks.truncate(20);
        c
    }

    /// The fold entries a cold evaluation of `corpus` under `cfg` seeds.
    fn prior(corpus: &Corpus, cfg: FewRunsConfig) -> Vec<FoldEntry> {
        evaluate_few_runs_incremental(&layout(corpus, &cfg, None), cfg, &[])
            .unwrap()
            .folds
    }

    /// Evaluates `corpus` against `prior` at 1 and 8 threads and returns
    /// the (thread-count-independent) tallies.
    fn reuse(corpus: &Corpus, prior: &[FoldEntry]) -> FoldCacheStats {
        let cfg = knn_cfg();
        let sh = layout(corpus, &cfg, None);
        let cold = evaluate_few_runs(corpus, cfg).unwrap();
        let mut tallies = Vec::new();
        for n in [1, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let warm = pool
                .install(|| evaluate_few_runs_incremental(&sh, cfg, prior))
                .unwrap();
            assert_eq!(
                warm.summary, cold,
                "reuse must be bit-identical ({n} threads)"
            );
            tallies.push(warm.stats);
        }
        assert_eq!(
            tallies[0], tallies[1],
            "tallies moved with the thread count"
        );
        tallies[0]
    }

    fn tally(hits: usize, deltas: usize, misses: usize) -> FoldCacheStats {
        FoldCacheStats {
            hits,
            deltas,
            misses,
        }
    }

    #[test]
    fn equal_roster_reuses_every_fold() {
        let c = roster();
        assert_eq!(reuse(&c, &prior(&c, knn_cfg())), tally(c.len(), 0, 0));
    }

    #[test]
    fn appended_roster_reuses_only_through_the_neighbour_check() {
        let c = roster();
        let mut base = c.clone();
        base.benchmarks.pop();
        let stats = reuse(&c, &prior(&base, knn_cfg()));
        assert_eq!(stats.hits, 0, "a grown roster is never an exact hit");
        assert!(stats.deltas > 0, "no neighbour-stable folds: {stats:?}");
        assert!(stats.misses >= 1, "the new fold has no prior entry");
        assert_eq!(stats.total(), c.len());
    }

    /// The scaler accumulates moments in row order, so a permuted
    /// training set is a different fold even with equal content.
    #[test]
    fn permuted_roster_reuses_nothing() {
        let c = roster();
        let mut permuted = c.clone();
        permuted.benchmarks.swap(9, 10);
        assert_eq!(
            reuse(&permuted, &prior(&c, knn_cfg())),
            tally(0, 0, c.len())
        );
    }

    /// A remeasured middle benchmark, a shrunk roster and a prior made
    /// under another config each leave no fold reusable.
    #[test]
    fn changed_shrunk_or_reconfigured_prior_reuses_nothing() {
        let c = roster();
        let prior_c = prior(&c, knn_cfg());
        let remeasured = Corpus::collect(&SystemModel::intel(), 30, 24);
        let mut changed = c.clone();
        changed.benchmarks[10] = remeasured.benchmarks[10].clone();
        assert_eq!(reuse(&changed, &prior_c), tally(0, 0, c.len()));

        let mut shrunk = c.clone();
        shrunk.benchmarks.pop();
        assert_eq!(reuse(&shrunk, &prior_c), tally(0, 0, shrunk.len()));

        let other = FewRunsConfig {
            seed: 18,
            ..knn_cfg()
        };
        assert_eq!(reuse(&c, &prior(&c, other)), tally(0, 0, c.len()));
    }

    /// A lying score fails its entry's integrity digest: that fold is
    /// recomputed and every other fold is still an exact hit.
    #[test]
    fn tampered_fold_recomputes_alone() {
        let c = roster();
        let mut vandalized = prior(&c, knn_cfg());
        vandalized[5].score.ks += 0.25;
        assert_eq!(reuse(&c, &vandalized), tally(c.len() - 1, 0, 1));
    }
}
