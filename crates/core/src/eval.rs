//! Leave-one-group-out evaluation of both use cases.
//!
//! Section IV-E / V: every benchmark is held out once; a model trained on
//! the remaining 59 predicts the held-out distribution; the prediction is
//! reconstructed into samples and scored with the two-sample KS statistic
//! against the measured (1,000-run) distribution. Violin plots in the
//! paper are KDEs over these 60 per-benchmark scores.
//!
//! Both evaluations run on the shared [`pipeline`](crate::pipeline)
//! layer: profiles and target encodings are computed once per corpus and
//! each fold is assembled by row streaming inside a [`FoldRunner`]. This
//! module holds the one fold assembly per use case, reading rows from a
//! [`ShardedCorpus`]'s row table (an [`EncodedCorpus`] is its one-shard
//! layout), and the one truth closure, the only fold read that needs a
//! shard. The evaluation loop itself is [`crate::incremental`]'s unit
//! loop: [`evaluate_few_runs`] and [`evaluate_cross_system`] run it cold
//! on a collected corpus, [`evaluate_few_runs_incremental`] /
//! [`evaluate_cross_system_incremental`] run one cell over an encoded
//! corpus (an empty prior is a cold run), and
//! [`Sweep`](crate::sweep::Sweep) runs a whole grid's cells through it.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use pv_stats::descriptive::FiveNumber;
use pv_stats::StatsError;
use pv_sysmodel::{BenchmarkId, Corpus};

use crate::incremental::{evaluate_cross_system_incremental, evaluate_few_runs_incremental};
use crate::model::ModelKind;
use crate::pipeline::{EncodedCorpus, EncodingSpec, FoldRunner, FoldTruth, FoldView, SeedMode};
use crate::repr::DistributionRepr;
use crate::shard::ShardedCorpus;
use crate::usecase1::FewRunsConfig;
use crate::usecase2::CrossSystemConfig;

/// Number of samples drawn when reconstructing a predicted distribution
/// for scoring (matches the 1,000-run measurement campaign).
pub const RECONSTRUCTION_SAMPLES: usize = 1000;

/// KS score of one held-out benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchScore {
    /// The held-out benchmark.
    pub id: BenchmarkId,
    /// Two-sample KS statistic, predicted vs. measured.
    pub ks: f64,
}

/// Aggregate of a leave-one-group-out evaluation.
///
/// Serializes losslessly (shortest-round-trip floats), so a summary that
/// round-trips through the sweep service's on-disk cell cache compares
/// bit-identical to the freshly computed value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Per-benchmark scores, roster order.
    pub scores: Vec<BenchScore>,
    /// Mean KS across benchmarks (the paper's headline number per cell).
    pub mean: f64,
    /// Five-number summary of the scores (violin skeleton).
    pub spread: FiveNumber,
}

impl EvalSummary {
    /// Builds the aggregate from per-benchmark scores.
    ///
    /// # Errors
    /// Fails on an empty score list.
    pub fn from_scores(scores: Vec<BenchScore>) -> Result<Self, StatsError> {
        let values: Vec<f64> = scores.iter().map(|s| s.ks).collect();
        let spread = FiveNumber::from_sample(&values)?;
        Ok(EvalSummary {
            mean: values.iter().sum::<f64>() / values.len() as f64,
            scores,
            spread,
        })
    }

    /// The raw KS values (for violin rendering).
    pub fn ks_values(&self) -> Vec<f64> {
        self.scores.iter().map(|s| s.ks).collect()
    }
}

/// The cache spec [`evaluate_few_runs`] needs for a given configuration.
///
/// Use this to prebuild an [`EncodedCorpus`] shared across several
/// configurations (merge specs by chaining the builder).
pub fn few_runs_spec(cfg: &FewRunsConfig) -> EncodingSpec {
    EncodingSpec::new()
        .profiles(cfg.n_profile_runs, cfg.profiles_per_benchmark.max(1))
        .target(cfg.repr)
}

/// Leave-one-group-out evaluation of use case #1 on one corpus.
///
/// Folds run in parallel; each fold derives its own seeds, so the result
/// is independent of thread count.
///
/// # Errors
/// Propagates training/prediction failures from any fold.
pub fn evaluate_few_runs(corpus: &Corpus, cfg: FewRunsConfig) -> Result<EvalSummary, StatsError> {
    let enc = EncodedCorpus::build(corpus, &few_runs_spec(&cfg))?;
    Ok(evaluate_few_runs_incremental(&enc, cfg, &[])?.summary)
}

/// The cache specs (source, destination) [`evaluate_cross_system`] needs.
pub fn cross_system_specs(src: &Corpus, cfg: &CrossSystemConfig) -> (EncodingSpec, EncodingSpec) {
    cross_system_specs_for_runs(src.n_runs, cfg)
}

/// [`cross_system_specs`] from the source run count alone — for sharded
/// campaigns that never materialize a [`Corpus`].
pub fn cross_system_specs_for_runs(
    src_n_runs: usize,
    cfg: &CrossSystemConfig,
) -> (EncodingSpec, EncodingSpec) {
    let s_eff = source_window(cfg, src_n_runs);
    (
        EncodingSpec::new().joined(s_eff, cfg.repr),
        EncodingSpec::new().target(cfg.repr),
    )
}

/// The profile window use case 2 trains on: the configured profile runs,
/// clamped to the source corpus' run count.
pub(crate) fn source_window(cfg: &CrossSystemConfig, src_n_runs: usize) -> usize {
    cfg.profile_runs.min(src_n_runs).max(1)
}

/// Leave-one-group-out evaluation of use case #2 (source → destination).
///
/// # Errors
/// Propagates training/prediction failures from any fold.
pub fn evaluate_cross_system(
    src: &Corpus,
    dst: &Corpus,
    cfg: CrossSystemConfig,
) -> Result<EvalSummary, StatsError> {
    let (src_spec, dst_spec) = cross_system_specs(src, &cfg);
    let src_enc = EncodedCorpus::build(src, &src_spec)?;
    let dst_enc = EncodedCorpus::build(dst, &dst_spec)?;
    Ok(evaluate_cross_system_incremental(&src_enc, &dst_enc, cfg, &[])?.summary)
}

/// The [`FoldRunner`] both use cases evaluate with: per-fold seeds from
/// `seed`, standardization when `model` wants it, and
/// [`RECONSTRUCTION_SAMPLES`] decoded samples per fold.
pub(crate) fn logo_runner(
    n_folds: usize,
    seed: u64,
    model: ModelKind,
    repr: &dyn DistributionRepr,
) -> FoldRunner<'_> {
    FoldRunner {
        n_folds,
        seed,
        seed_mode: SeedMode::PerFold,
        standardize: model.wants_standardization(),
        n_samples: RECONSTRUCTION_SAMPLES,
        repr,
    }
}

/// The fold-assembly closure of use case 1: `windows` profile rows per
/// included benchmark, all mapping to the benchmark's target encoding,
/// read from the corpus's row table (no shard is touched).
///
/// Row order is include-rank-major (`rank × windows + w`, benchmarks
/// ascending), at every shard layout — so when the corpus grows,
/// surviving rows keep their positions and only new rows append, the
/// property the kNN delta path in [`crate::incremental`] relies on.
pub(crate) fn few_runs_assemble<'a>(
    sh: &'a ShardedCorpus<'_>,
    cfg: FewRunsConfig,
) -> impl Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError> + Send + Sync + 'a {
    let s = cfg.n_profile_runs;
    let windows = cfg.profiles_per_benchmark.max(1);
    move |held, include| {
        let query = sh.profile(s, held, 0)?.to_vec();
        let y_dim = sh.target(cfg.repr, held)?.len();
        Ok(FoldView::new(
            include.len() * windows,
            query.len(),
            y_dim,
            query,
            move |sink| {
                for &bi in &include {
                    let target = sh.target(cfg.repr, bi)?;
                    for w in 0..windows {
                        sink(sh.profile(s, bi, w)?, target, bi)?;
                    }
                }
                Ok(())
            },
        ))
    }
}

/// The fold-assembly closure of use case 2: one joined source row per
/// included benchmark mapping to its destination target encoding,
/// ascending include order (see [`few_runs_assemble`]), read from the two
/// corpora's row tables (their shard layouts may differ).
pub(crate) fn cross_system_assemble<'a>(
    src: &'a ShardedCorpus<'_>,
    dst: &'a ShardedCorpus<'_>,
    cfg: CrossSystemConfig,
) -> impl Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError> + Send + Sync + 'a {
    let s_eff = source_window(&cfg, src.n_runs());
    move |held, include| {
        let query = src.joined(s_eff, cfg.repr, held)?.to_vec();
        let y_dim = dst.target(cfg.repr, held)?.len();
        Ok(FoldView::new(
            include.len(),
            query.len(),
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
    }
}

/// The fold-truth closure of both use cases: score against the held-out
/// benchmark's measured relative times in `sh` (the destination corpus
/// for use case 2) — the one read of a fold that needs its shard. The
/// times are copied out of the shard (owned `Cow`) so scoring never
/// depends on the shard staying resident; the copy is taken from the
/// shard's presorted cache so scoring skips the per-fold truth sort.
pub(crate) fn fold_truth<'a>(
    sh: &'a ShardedCorpus<'_>,
) -> impl Fn(usize) -> Result<FoldTruth<'a>, StatsError> + Send + Sync + 'a {
    move |held| {
        let shard = sh.shard(sh.layout().shard_of(held))?;
        Ok(FoldTruth {
            id: sh.id(held),
            rel: Cow::Owned(shard.rel_times_sorted(held)?.to_vec()),
        })
    }
}

/// Validates a use-case-2 pair: aligned rosters on two distinct systems
/// (shard layouts may differ — folds pin source and destination shards
/// independently).
pub(crate) fn validate_cross_system(
    src: &ShardedCorpus<'_>,
    dst: &ShardedCorpus<'_>,
) -> Result<(), StatsError> {
    if src.len() != dst.len() || src.ids() != dst.ids() {
        return Err(StatsError::invalid(
            "evaluate_cross_system",
            "source and destination corpora cover different rosters",
        ));
    }
    if src.system() == dst.system() {
        return Err(StatsError::invalid(
            "evaluate_cross_system",
            "source and destination are the same system",
        ));
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::repr::ReprKind;
    use pv_stats::ks::ks2_statistic;
    use pv_sysmodel::SystemModel;

    fn tiny_corpus(sys: SystemModel) -> Corpus {
        Corpus::collect(&sys, 40, 3)
    }

    fn uc1_cfg() -> FewRunsConfig {
        FewRunsConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: 3,
            seed: 1,
        }
    }

    #[test]
    fn few_runs_eval_produces_sixty_scores_in_unit_range() {
        let corpus = tiny_corpus(SystemModel::intel());
        let summary = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        assert_eq!(summary.scores.len(), 60);
        assert!(summary.scores.iter().all(|s| (0.0..=1.0).contains(&s.ks)));
        assert!(summary.mean > 0.0 && summary.mean < 1.0);
        assert!(summary.spread.min <= summary.mean && summary.mean <= summary.spread.max);
    }

    #[test]
    fn few_runs_eval_is_deterministic() {
        let corpus = tiny_corpus(SystemModel::intel());
        let a = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        let b = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn few_runs_eval_is_thread_count_independent() {
        let corpus = tiny_corpus(SystemModel::intel());
        let baseline = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        for n in [1, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let under_pool = pool.install(|| evaluate_few_runs(&corpus, uc1_cfg()).unwrap());
            assert_eq!(baseline, under_pool, "{n} threads");
        }
    }

    #[test]
    fn few_runs_predictions_beat_a_mismatched_baseline() {
        // The predicted distribution for each benchmark should, on
        // average, be closer to its own measured distribution than a
        // fixed ultra-wide uniform baseline is.
        let corpus = tiny_corpus(SystemModel::intel());
        let summary = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        let baseline: Vec<f64> = (0..1000).map(|i| 0.7 + 0.8 * i as f64 / 999.0).collect();
        let baseline_mean: f64 = corpus
            .benchmarks
            .iter()
            .map(|b| ks2_statistic(&baseline, &b.runs.rel_times()).unwrap())
            .sum::<f64>()
            / corpus.len() as f64;
        assert!(
            summary.mean < baseline_mean,
            "prediction mean {} vs uniform baseline {}",
            summary.mean,
            baseline_mean
        );
    }

    #[test]
    fn shared_cache_reproduces_per_call_results() {
        // One cache built for the widest config serves narrower ones.
        let corpus = tiny_corpus(SystemModel::intel());
        let wide = uc1_cfg();
        let narrow = FewRunsConfig {
            profiles_per_benchmark: 1,
            ..wide
        };
        let enc = EncodedCorpus::build(&corpus, &few_runs_spec(&wide)).unwrap();
        for cfg in [wide, narrow] {
            let cached = evaluate_few_runs_incremental(&enc, cfg, &[]).unwrap();
            let fresh = evaluate_few_runs(&corpus, cfg).unwrap();
            assert_eq!(cached.summary, fresh);
        }
    }

    #[test]
    fn cross_system_eval_runs_both_directions() {
        let amd = tiny_corpus(SystemModel::amd());
        let intel = tiny_corpus(SystemModel::intel());
        let cfg = CrossSystemConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            profile_runs: 20,
            seed: 2,
        };
        let a2i = evaluate_cross_system(&amd, &intel, cfg).unwrap();
        let i2a = evaluate_cross_system(&intel, &amd, cfg).unwrap();
        assert_eq!(a2i.scores.len(), 60);
        assert_eq!(i2a.scores.len(), 60);
        assert!(a2i.mean > 0.0 && a2i.mean < 1.0);
        assert!(i2a.mean > 0.0 && i2a.mean < 1.0);
    }

    #[test]
    fn cross_system_rejects_mismatched_pairs() {
        let amd = tiny_corpus(SystemModel::amd());
        let cfg = CrossSystemConfig::default();
        assert!(evaluate_cross_system(&amd, &amd, cfg).is_err());
    }

    #[test]
    fn eval_summary_rejects_empty() {
        assert!(EvalSummary::from_scores(vec![]).is_err());
    }
}
