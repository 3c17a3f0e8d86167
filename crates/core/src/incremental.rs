//! Incremental fold-level evaluation: per-fold score cache with
//! corpus-append delta recompute.
//!
//! A LOGO evaluation is a set of independent folds, and each fold's score
//! is a pure function of (config, held-out benchmark, *ordered* training
//! set) — order matters: [`pv_ml::StandardScaler`] accumulates moments in
//! row order, so permuted training sets are not bit-identical. Every fold
//! of one evaluation trains on the same roster minus its own benchmark,
//! so the roster is the one thing a cached evaluation needs to remember:
//! a [`FoldEntry`] stores only its held-out benchmark's content digest,
//! and a prior's entries in fold order spell the roster it was scored on.
//!
//! Reuse is decided once per evaluation, by comparing the prior's roster
//! with this one's:
//!
//! * **equal** — every fold sees the same training set as before, so
//!   every verified entry is an exact hit;
//! * **strict prefix** (a pure append) — every surviving fold's training
//!   set grew, so entries are reused only through the kNN
//!   neighbour-delta check below;
//! * **anything else** (permuted, changed, shrunk) — nothing is reused.
//!
//! When a corpus *grows*, exact hits never fire. For uniform-weight kNN
//! there is a cheaper truth: the prediction is the mean of the
//! neighbours' unscaled target rows, accumulated in ascending row order —
//! a pure function of the neighbour *set*. If the held-out query's k-set
//! survives the append (standardization shifts every distance and
//! near-ties swap ranks, but membership only changes when the new rows
//! actually enter the neighbourhood — expected rate ≈ k/n per appended
//! benchmark), the prediction — and the decode and KS score behind it,
//! which dominate fold cost — is bit-identical. The **delta path**
//! prepares the fold (cheap: row assembly + scaling), fits the kNN
//! (cheap: it just stores rows), recomputes the canonical neighbour set,
//! and reuses the cached score on an exact match; any mismatch falls
//! through to a full recompute. Soundness rests on three pinned
//! properties:
//!
//! * `ModelKind::neighbor_delta_model` is exactly what `build` runs for
//!   kNN (uniform weights, k = 15, cosine), and uniform-kNN accumulates
//!   its mean in ascending row order, so the neighbour set fully
//!   determines the prediction bit-for-bit.
//! * Fold assembly is include-rank-major, so surviving rows keep their
//!   matrix positions when the roster grows and cached `u32` row indices
//!   stay comparable.
//! * kNN neighbour *selection* is canonical — `(distance, row index)`
//!   under `total_cmp` — so the k-set is deterministic, not a
//!   `select_nth` accident, and `neighbor_indices` reports it sorted
//!   ascending.
//!
//! Every entry carries an integrity digest over its own fields, its fold
//! index and the evaluation's config; an entry that fails it — tampered,
//! torn, moved to another fold or made under another config — is
//! recomputed, never trusted (mirroring the sweep cell cache's verified
//! loads).

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pv_ml::{KnnRegressor, Regressor};
use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;

use crate::eval::{
    cross_system_assemble, few_runs_assemble, fold_truth, logo_runner, validate_cross_system,
    BenchScore, EvalSummary,
};
use crate::pipeline::{FoldRunner, FoldTruth, FoldView};
use crate::shard::ShardedCorpus;
use crate::usecase1::FewRunsConfig;
use crate::usecase2::CrossSystemConfig;

/// One cached fold: its held-out benchmark's digest, its score, and (for
/// kNN) the held-out query's canonical ordered neighbour list. The fold
/// index is the entry's position in its evaluation's fold list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldEntry {
    /// Content digest of the held-out benchmark.
    pub held_fp: u64,
    /// The fold's KS score.
    pub score: BenchScore,
    /// The held-out query's neighbour row indices, ascending (`Some`
    /// only for neighbour-delta-eligible models, i.e. kNN).
    pub neighbors: Option<Vec<u32>>,
    /// Integrity digest over the fields above, the fold index and the
    /// config; an entry that fails it is recomputed, not trusted.
    pub check: u64,
}

impl FoldEntry {
    /// `config` is the evaluation's [`config_digest`] state.
    fn integrity(&self, config: &Fnv1a, index: usize) -> u64 {
        let mut h = config.clone();
        h.write_usize(index);
        h.write_u64(self.held_fp);
        h.write_str(&self.score.id.qualified());
        h.write_f64(self.score.ks);
        match &self.neighbors {
            None => h.write_usize(0),
            Some(n) => {
                h.write_usize(1);
                h.write_usize(n.len());
                for &i in n {
                    h.write_u64(i as u64);
                }
            }
        }
        h.finish()
    }

    /// Seals the entry of fold `index`: stamps the integrity digest.
    fn sealed(mut self, config: &Fnv1a, index: usize) -> Self {
        self.check = self.integrity(config, index);
        self
    }

    /// Whether the entry is fold `index` of an evaluation under `config`,
    /// unaltered.
    fn verify(&self, config: &Fnv1a, index: usize) -> bool {
        self.check == self.integrity(config, index)
    }
}

/// Per-fold cache tallies of one incremental evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldCacheStats {
    /// Folds reused as they were (the prior's roster equals this one).
    pub hits: usize,
    /// Folds reused after a verified kNN neighbour-delta check.
    pub deltas: usize,
    /// Folds recomputed in full.
    pub misses: usize,
}

impl FoldCacheStats {
    /// Total folds the evaluation covered.
    pub fn total(&self) -> usize {
        self.hits + self.deltas + self.misses
    }

    /// Folds served from cache (exact hits + verified deltas).
    pub fn reused(&self) -> usize {
        self.hits + self.deltas
    }

    /// Element-wise sum (for aggregating across sweep cells).
    pub fn add(&mut self, other: &FoldCacheStats) {
        self.hits += other.hits;
        self.deltas += other.deltas;
        self.misses += other.misses;
    }
}

/// An incremental evaluation's full result: the summary (bit-identical
/// to a cold run), the fold entries to persist for the next run, and
/// the hit/delta/miss tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalEval {
    /// The aggregate, bit-identical to the non-incremental evaluation.
    pub summary: EvalSummary,
    /// Per-fold entries (fold order) for the next run's `prior`.
    pub folds: Vec<FoldEntry>,
    /// How the folds were served.
    pub stats: FoldCacheStats,
}

/// The cache-side inputs of [`run_folds`]: everything reuse decisions
/// read, as opposed to the evaluation closures.
struct FoldReuse<'p> {
    /// Per-benchmark content digests, roster order.
    bench_fps: &'p [u64],
    /// The config's [`config_digest`], folded into every entry's
    /// integrity digest.
    config: Fnv1a,
    /// The neighbour-delta probe model, when the config's model is
    /// delta-eligible (kNN).
    delta_model: Option<KnnRegressor>,
    /// Fold entries of a previous evaluation (any corpus state), fold
    /// order.
    prior: &'p [FoldEntry],
}

/// The generic incremental fold loop shared by both use cases: the
/// module docs' reuse rule, reusing a prior entry only if it verifies as
/// its fold under this config. Folds run in parallel; rayon preserves
/// order, and every reuse is bit-identical by construction, so the
/// summary is independent of both thread count and cache state.
fn run_folds<'a, M, A, T>(
    runner: &FoldRunner<'_>,
    build_model: M,
    assemble: A,
    truth: T,
    reuse: FoldReuse<'_>,
) -> Result<IncrementalEval, StatsError>
where
    M: Fn(u64) -> Box<dyn Regressor> + Send + Sync,
    A: Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError> + Send + Sync,
    T: Fn(usize) -> Result<FoldTruth<'a>, StatsError> + Send + Sync,
{
    let FoldReuse {
        bench_fps,
        config,
        delta_model,
        prior,
    } = reuse;
    let _span = pv_obs::span!("pv.core.pipeline.logo_eval", folds = runner.n_folds);
    // The prior's roster (its entries' held digests, fold order) decides
    // reuse once: equal — exact hits; a strict prefix, i.e. a pure
    // append — neighbour-delta checks; anything else — nothing.
    let prefix = prior.len() <= bench_fps.len()
        && prior.iter().zip(bench_fps).all(|(e, &fp)| e.held_fp == fp);
    let exact = prefix && prior.len() == bench_fps.len();
    let prior = if prefix { prior } else { &[] };
    let hits = AtomicUsize::new(0);
    let deltas = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);
    let folds: Result<Vec<FoldEntry>, StatsError> = (0..runner.n_folds)
        .into_par_iter()
        .map(|held| {
            let _fold_span = pv_obs::span!("pv.core.pipeline.fold", held = held);
            let held_fp = bench_fps[held];
            // Verification at the point of consumption: a prior entry
            // that fails its integrity digest is simply absent.
            if let Some(e) = prior.get(held).filter(|e| e.verify(&config, held)) {
                if exact {
                    // Nothing this fold observes has changed.
                    pv_obs::counter_inc!("pv.core.pipeline.fold_cache.hit");
                    hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(e.clone());
                }
                if let (Some(knn), Some(old_neighbors)) = (&delta_model, e.neighbors.as_ref()) {
                    let prepared = runner.prepare_fold(held, &assemble)?;
                    let mut knn = knn.clone();
                    knn.fit(&prepared.data)?;
                    let neighbors = knn.neighbor_indices(&prepared.query)?;
                    if &neighbors == old_neighbors {
                        // Same neighbour set ⇒ same row-ordered mean of
                        // the same unscaled target rows ⇒ bit-identical
                        // predict, decode, and KS. Skip all three.
                        pv_obs::counter_inc!("pv.core.pipeline.fold_cache.delta");
                        deltas.fetch_add(1, Ordering::Relaxed);
                        return Ok(e.clone());
                    }
                    // The append disturbed the neighbourhood: pay for
                    // the back half on the already-prepared fold.
                    pv_obs::counter_inc!("pv.core.pipeline.fold_cache.miss");
                    misses.fetch_add(1, Ordering::Relaxed);
                    let score = runner.score_fold(held, &prepared, &build_model, &truth)?;
                    return Ok(FoldEntry {
                        held_fp,
                        score,
                        neighbors: Some(neighbors),
                        check: 0,
                    }
                    .sealed(&config, held));
                }
            }

            // Full recompute; for delta-eligible models also record the
            // canonical neighbour list so the *next* run can delta.
            pv_obs::counter_inc!("pv.core.pipeline.fold_cache.miss");
            misses.fetch_add(1, Ordering::Relaxed);
            let prepared = runner.prepare_fold(held, &assemble)?;
            let neighbors = match &delta_model {
                Some(knn) => {
                    let mut knn = knn.clone();
                    knn.fit(&prepared.data)?;
                    Some(knn.neighbor_indices(&prepared.query)?)
                }
                None => None,
            };
            let score = runner.score_fold(held, &prepared, &build_model, &truth)?;
            Ok(FoldEntry {
                held_fp,
                score,
                neighbors,
                check: 0,
            }
            .sealed(&config, held))
        })
        .collect();
    let folds = folds?;
    let summary = EvalSummary::from_scores(folds.iter().map(|f| f.score).collect())?;
    Ok(IncrementalEval {
        summary,
        folds,
        stats: FoldCacheStats {
            hits: hits.load(Ordering::Relaxed),
            deltas: deltas.load(Ordering::Relaxed),
            misses: misses.load(Ordering::Relaxed),
        },
    })
}

/// The hasher state every fold entry's integrity digest starts from: a
/// version tag and the config's canonical serde_json form (repr, model,
/// sample count, windows, seed) under its use-case tag.
fn config_digest<C: Serialize>(tag: &str, cfg: &C) -> Result<Fnv1a, StatsError> {
    let json = serde_json::to_string(cfg)
        .map_err(|e| StatsError::invalid("incremental", format!("serialize config: {e}")))?;
    let mut h = Fnv1a::new();
    h.write_str("pv-fold-entry-v2");
    h.write_str(tag);
    h.write_str(&json);
    Ok(h)
}

/// Leave-one-group-out evaluation of use case #1 over `sh`, at any shard
/// layout (an [`crate::pipeline::EncodedCorpus`] is the one-shard
/// layout): the summary is bit-identical to a cold run, but folds the
/// reuse rule (module docs) lets verified `prior` entries answer are
/// served from cache.
///
/// With an empty `prior` this is the cold run, and it additionally
/// returns the fold entries to seed the next one. Rosters are compared
/// by per-benchmark digests, which do not depend on the shard layout,
/// so entries written at one layout serve exact hits and append-deltas
/// at any other. Peak memory is bounded by the corpus's resident-shard
/// budget, not the corpus size.
///
/// # Errors
/// Fails when the corpus's spec does not cover
/// [`crate::eval::few_runs_spec`], plus training/prediction failures
/// from any fold.
pub fn evaluate_few_runs_incremental(
    sh: &ShardedCorpus<'_>,
    cfg: FewRunsConfig,
    prior: &[FoldEntry],
) -> Result<IncrementalEval, StatsError> {
    let _span = pv_obs::span!(
        "pv.core.eval.few_runs",
        repr = cfg.repr.name(),
        model = cfg.model.name(),
        s = cfg.n_profile_runs,
    );
    let config = config_digest("uc1", &cfg)?;
    let repr = cfg.repr.build();
    let runner = logo_runner(sh.len(), cfg.seed, cfg.model, repr.as_ref());
    run_folds(
        &runner,
        |fold_seed| cfg.model.build(fold_seed),
        few_runs_assemble(sh, cfg),
        fold_truth(sh),
        FoldReuse {
            bench_fps: sh.bench_fingerprints(),
            config,
            delta_model: cfg.model.neighbor_delta_model(),
            prior,
        },
    )
}

/// Leave-one-group-out evaluation of use case #2, `src` → `dst`; see
/// [`evaluate_few_runs_incremental`]. The two corpora may use different
/// shard layouts.
///
/// The roster is made of the digests of each source/destination
/// benchmark *pair*, so a change on either system is a changed roster.
///
/// # Errors
/// Fails on mismatched rosters, a shared system, or uncovered specs,
/// plus training/prediction failures from any fold.
pub fn evaluate_cross_system_incremental(
    src: &ShardedCorpus<'_>,
    dst: &ShardedCorpus<'_>,
    cfg: CrossSystemConfig,
    prior: &[FoldEntry],
) -> Result<IncrementalEval, StatsError> {
    let _span = pv_obs::span!(
        "pv.core.eval.cross_system",
        repr = cfg.repr.name(),
        model = cfg.model.name(),
        s = cfg.profile_runs,
    );
    validate_cross_system(src, dst)?;
    let config = config_digest("uc2", &cfg)?;
    let bench_fps: Vec<u64> = src
        .bench_fingerprints()
        .iter()
        .zip(dst.bench_fingerprints())
        .map(|(&s, &d)| {
            let mut h = Fnv1a::new();
            h.write_str("pv-bench-pair");
            h.write_u64(s);
            h.write_u64(d);
            h.finish()
        })
        .collect();
    let repr = cfg.repr.build();
    let runner = logo_runner(src.len(), cfg.seed, cfg.model, repr.as_ref());
    run_folds(
        &runner,
        |fold_seed| cfg.model.build(fold_seed),
        cross_system_assemble(src, dst, cfg),
        fold_truth(dst),
        FoldReuse {
            bench_fps: &bench_fps,
            config,
            delta_model: cfg.model.neighbor_delta_model(),
            prior,
        },
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::few_runs_spec;
    use crate::model::ModelKind;
    use crate::pipeline::{EncodedCorpus, EncodingSpec};
    use crate::repr::ReprKind;
    use pv_sysmodel::{Corpus, SystemModel};

    fn corpus(n_runs: usize) -> Corpus {
        Corpus::collect(&SystemModel::intel(), n_runs, 5)
    }

    fn truncated(c: &Corpus, drop: usize) -> Corpus {
        let mut t = c.clone();
        t.benchmarks.truncate(t.benchmarks.len() - drop);
        t
    }

    fn cfg() -> FewRunsConfig {
        FewRunsConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: 1,
            seed: 9,
        }
    }

    /// The plain fold loop ([`FoldRunner::run`]) over the same assembly
    /// and truth: what the incremental loop must reproduce bit for bit.
    fn plain(sh: &ShardedCorpus<'_>, cfg: FewRunsConfig) -> EvalSummary {
        let repr = cfg.repr.build();
        logo_runner(sh.len(), cfg.seed, cfg.model, repr.as_ref())
            .run(
                |fold_seed| cfg.model.build(fold_seed),
                few_runs_assemble(sh, cfg),
                fold_truth(sh),
            )
            .unwrap()
    }

    #[test]
    fn cold_incremental_matches_plain_eval_bitwise() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let inc = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        assert_eq!(inc.summary, plain(&enc, cfg()));
        assert_eq!(inc.stats.misses, c.len());
        assert_eq!(inc.stats.reused(), 0);
        assert_eq!(inc.folds.len(), c.len());
        let config = config_digest("uc1", &cfg()).unwrap();
        assert!(inc
            .folds
            .iter()
            .enumerate()
            .all(|(i, f)| f.verify(&config, i)));
        assert!(inc.folds.iter().all(|f| f.neighbors.is_some()));
    }

    #[test]
    fn same_corpus_rerun_is_all_exact_hits() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let warm = evaluate_few_runs_incremental(&enc, cfg(), &cold.folds).unwrap();
        assert_eq!(warm.summary, cold.summary);
        assert_eq!(warm.stats.hits, c.len());
        assert_eq!(warm.stats.misses, 0);
        assert_eq!(warm.folds, cold.folds);
    }

    #[test]
    fn append_reuses_unchanged_folds_and_stays_bit_identical() {
        let full = corpus(30);
        let small = truncated(&full, 1);
        let spec = few_runs_spec(&cfg());
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, cfg(), &[]).unwrap();

        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let warm = evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds).unwrap();
        let cold = plain(&full_enc, cfg());
        assert_eq!(warm.summary, cold, "reuse must be bit-identical");
        // An append changes every surviving fold's training set, so
        // exact hits cannot fire; reuse comes from the delta path.
        assert_eq!(warm.stats.hits, 0);
        assert!(
            warm.stats.deltas > 0,
            "expected some neighbour-stable folds: {:?}",
            warm.stats
        );
        // The appended benchmark's own fold has no prior entry.
        assert!(warm.stats.misses >= 1);
        assert_eq!(warm.stats.total(), full.len());
    }

    #[test]
    fn append_result_is_thread_count_independent() {
        let full = corpus(30);
        let small = truncated(&full, 1);
        let spec = few_runs_spec(&cfg());
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, cfg(), &[]).unwrap();
        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let baseline = evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds).unwrap();
        for n in [1, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let under = pool
                .install(|| evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds))
                .unwrap();
            assert_eq!(baseline.summary, under.summary, "{n} threads");
            assert_eq!(baseline.stats, under.stats, "{n} threads");
            assert_eq!(baseline.folds, under.folds, "{n} threads");
        }
    }

    #[test]
    fn tampered_prior_entry_is_recomputed_not_trusted() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let mut vandalized = cold.folds.clone();
        // A lying score with a stale integrity digest…
        vandalized[3].score.ks += 0.25;
        // …and a neighbour set a later delta check would trust.
        vandalized[7].neighbors.as_mut().unwrap()[0] ^= 1;
        let warm = evaluate_few_runs_incremental(&enc, cfg(), &vandalized).unwrap();
        // Both tampered folds fail verification and recompute alone (the
        // roster still matches); the summary still comes out
        // bit-identical to the cold run.
        assert_eq!(warm.summary, cold.summary);
        assert_eq!(warm.stats.hits, c.len() - 2);
        assert_eq!(warm.stats.misses, 2);
    }

    #[test]
    fn config_change_invalidates_every_fold() {
        let c = corpus(30);
        let spec = EncodingSpec::new()
            .profiles(5, 1)
            .target(ReprKind::PearsonRnd)
            .target(ReprKind::Histogram);
        let enc = EncodedCorpus::build(&c, &spec).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let other = FewRunsConfig {
            repr: ReprKind::Histogram,
            ..cfg()
        };
        let cross = evaluate_few_runs_incremental(&enc, other, &cold.folds).unwrap();
        // Same corpus, different config: no hit, no delta (the prior
        // entries' integrity digests don't verify under this config).
        assert_eq!(cross.stats.reused(), 0);
        assert_eq!(cross.stats.misses, c.len());
    }

    #[test]
    fn non_knn_models_never_take_the_delta_path() {
        let full = corpus(20);
        let small = truncated(&full, 1);
        let rf = FewRunsConfig {
            model: ModelKind::RandomForest,
            ..cfg()
        };
        let spec = few_runs_spec(&rf);
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, rf, &[]).unwrap();
        assert!(prior.folds.iter().all(|f| f.neighbors.is_none()));
        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let warm = evaluate_few_runs_incremental(&full_enc, rf, &prior.folds).unwrap();
        assert_eq!(warm.stats.reused(), 0);
        assert_eq!(warm.stats.misses, full.len());
        // And it still matches the cold evaluation bitwise.
        assert_eq!(warm.summary, plain(&full_enc, rf));
    }

    #[test]
    fn cross_system_incremental_matches_and_caches() {
        let amd = Corpus::collect(&SystemModel::amd(), 30, 5);
        let intel = corpus(30);
        let uc2 = CrossSystemConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            profile_runs: 15,
            seed: 4,
        };
        let (src_spec, dst_spec) = crate::eval::cross_system_specs(&amd, &uc2);
        let src = EncodedCorpus::build(&amd, &src_spec).unwrap();
        let dst = EncodedCorpus::build(&intel, &dst_spec).unwrap();
        let cold = evaluate_cross_system_incremental(&src, &dst, uc2, &[]).unwrap();
        let repr = uc2.repr.build();
        let plain = logo_runner(src.len(), uc2.seed, uc2.model, repr.as_ref())
            .run(
                |fold_seed| uc2.model.build(fold_seed),
                cross_system_assemble(&src, &dst, uc2),
                fold_truth(&dst),
            )
            .unwrap();
        assert_eq!(cold.summary, plain);
        let warm = evaluate_cross_system_incremental(&src, &dst, uc2, &cold.folds).unwrap();
        assert_eq!(warm.stats.hits, amd.len());
        assert_eq!(warm.summary, plain);
    }
}
