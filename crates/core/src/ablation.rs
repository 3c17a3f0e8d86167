//! Accuracy-side ablations of the paper's inline design choices.
//!
//! Section III-B3 justifies two choices without showing data: cosine
//! similarity ("as opposed to the Euclidean distance or other distance
//! metrics which did not perform as well") and k = 15. This module makes
//! both claims reproducible experiments, plus two ablations of our own
//! knobs: histogram bin count and the reconstruction floor (how well each
//! representation does when handed the *true* encoding — the irreducible
//! error of the representation itself, with no model in the loop).

use std::borrow::Cow;

use rand::SeedableRng;

use pv_ml::{Distance, KnnRegressor, Regressor};
use pv_stats::ks::ks2_statistic;
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use pv_sysmodel::Corpus;

use crate::eval::{BenchScore, EvalSummary, RECONSTRUCTION_SAMPLES};
use crate::pipeline::{EncodedCorpus, EncodingSpec, FoldRunner, FoldTruth, FoldView, SeedMode};
use crate::repr::{DistributionRepr, HistogramRepr, ReprKind, REL_TIME_RANGE};

/// Leave-one-out kNN evaluation with an explicit distance metric and `k`,
/// PearsonRnd representation, `s`-run profiles. This is the engine behind
/// the distance and k ablations.
///
/// Runs on the shared [`pipeline`](crate::pipeline) layer with
/// [`SeedMode::Shared`], which preserves this module's historical seed
/// chain (decode streams derive directly from `seed`), so scores are
/// bit-identical to the original serial fold loop — now in parallel.
///
/// # Errors
/// Propagates training/encoding failures.
pub fn evaluate_knn_variant(
    corpus: &Corpus,
    distance: Distance,
    k: usize,
    s: usize,
    seed: u64,
) -> Result<EvalSummary, StatsError> {
    let spec = EncodingSpec::new()
        .profiles(s, 1)
        .target(ReprKind::PearsonRnd);
    let enc = EncodedCorpus::build(corpus, &spec)?;
    evaluate_knn_variant_encoded(&enc, distance, k, s, seed)
}

/// [`evaluate_knn_variant`] on a prebuilt cache (the k/distance grids
/// reuse one cache per `s`).
///
/// # Errors
/// Fails when the cache is missing `s`-run profiles or PearsonRnd
/// targets, plus anything [`evaluate_knn_variant`] can fail with.
pub fn evaluate_knn_variant_encoded(
    enc: &EncodedCorpus,
    distance: Distance,
    k: usize,
    s: usize,
    seed: u64,
) -> Result<EvalSummary, StatsError> {
    let repr = ReprKind::PearsonRnd.build();
    let corpus = enc.corpus();
    let runner = FoldRunner {
        n_folds: enc.len(),
        seed,
        seed_mode: SeedMode::Shared,
        standardize: true,
        n_samples: RECONSTRUCTION_SAMPLES,
        repr: repr.as_ref(),
    };
    runner.run(
        |_fold_seed| Box::new(KnnRegressor::new(k).with_distance(distance)) as Box<dyn Regressor>,
        |held, include| {
            let query = enc.profile(s, held, 0)?.to_vec();
            let x_dim = query.len();
            let y_dim = enc.target(ReprKind::PearsonRnd, held)?.len();
            Ok(FoldView::new(
                include.len(),
                x_dim,
                y_dim,
                query,
                move |sink| {
                    for (rank, &i) in include.iter().enumerate() {
                        // The historical loop used `Dataset::ungrouped`, so
                        // groups are include ranks, not benchmark indices.
                        sink(
                            enc.profile(s, i, 0)?,
                            enc.target(ReprKind::PearsonRnd, i)?,
                            rank,
                        )?;
                    }
                    Ok(())
                },
            ))
        },
        |held| {
            Ok(FoldTruth {
                id: corpus.benchmarks[held].id,
                rel: Cow::Borrowed(enc.rel_times_sorted(held)),
            })
        },
    )
}

/// The reconstruction floor of a representation: encode each benchmark's
/// *measured* distribution and decode it straight back (oracle
/// prediction). The resulting KS is the error attributable to the
/// representation alone.
///
/// # Errors
/// Propagates encoding/decoding failures.
pub fn reconstruction_floor(
    corpus: &Corpus,
    repr: &dyn DistributionRepr,
    seed: u64,
) -> Result<EvalSummary, StatsError> {
    let scores = corpus
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let rel = b.runs.rel_times();
            let f = repr.encode(&rel)?;
            let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(seed, i as u64));
            let back = repr.decode(&f, &mut rng, RECONSTRUCTION_SAMPLES)?;
            let ks = ks2_statistic(&back, &rel)?;
            Ok(BenchScore { id: b.id, ks })
        })
        .collect::<Result<Vec<_>, StatsError>>()?;
    EvalSummary::from_scores(scores)
}

/// Reconstruction floor of a histogram with an explicit bin count.
///
/// # Errors
/// Propagates encoding/decoding failures.
pub fn histogram_floor(corpus: &Corpus, bins: usize, seed: u64) -> Result<EvalSummary, StatsError> {
    let repr = HistogramRepr {
        n_bins: bins,
        range: REL_TIME_RANGE,
    };
    reconstruction_floor(corpus, &repr, seed)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use pv_ml::{Dataset, DenseMatrix, StandardScaler};
    use pv_sysmodel::SystemModel;

    fn corpus() -> Corpus {
        Corpus::collect(&SystemModel::intel(), 100, 0xC0FFEE)
    }

    /// The pre-pipeline implementation, verbatim: a serial fold loop over
    /// cloned rows. Kept as the ground truth the parallel runner must
    /// reproduce bit for bit.
    fn serial_reference(
        corpus: &Corpus,
        distance: Distance,
        k: usize,
        s: usize,
        seed: u64,
    ) -> EvalSummary {
        let repr = ReprKind::PearsonRnd.build();
        let n = corpus.len();
        let mut features: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut targets: Vec<Vec<f64>> = Vec::with_capacity(n);
        for b in &corpus.benchmarks {
            features.push(Profile::from_runs(&b.runs, s).unwrap().features);
            targets.push(repr.encode(&b.runs.rel_times()).unwrap());
        }
        let scores = (0..n)
            .map(|held| {
                let train_idx: Vec<usize> = (0..n).filter(|&i| i != held).collect();
                let x_rows: Vec<Vec<f64>> =
                    train_idx.iter().map(|&i| features[i].clone()).collect();
                let y_rows: Vec<Vec<f64>> = train_idx.iter().map(|&i| targets[i].clone()).collect();
                let x = DenseMatrix::from_rows(&x_rows).unwrap();
                let y = DenseMatrix::from_rows(&y_rows).unwrap();
                let mut scaler = StandardScaler::new();
                let x = scaler.fit_transform(&x).unwrap();
                let mut model = KnnRegressor::new(k).with_distance(distance);
                model.fit(&Dataset::ungrouped(x, y).unwrap()).unwrap();
                let mut q = features[held].clone();
                scaler.transform_row(&mut q).unwrap();
                let predicted_features = model.predict(&q).unwrap();
                let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(seed, held as u64));
                let predicted = repr
                    .decode(&predicted_features, &mut rng, RECONSTRUCTION_SAMPLES)
                    .unwrap();
                let ks =
                    ks2_statistic(&predicted, &corpus.benchmarks[held].runs.rel_times()).unwrap();
                BenchScore {
                    id: corpus.benchmarks[held].id,
                    ks,
                }
            })
            .collect::<Vec<_>>();
        EvalSummary::from_scores(scores).unwrap()
    }

    #[test]
    fn parallel_runner_matches_serial_reference() {
        let c = Corpus::collect(&SystemModel::intel(), 40, 7);
        for (distance, k, s, seed) in [
            (Distance::Cosine, 15, 10, 1),
            (Distance::Manhattan, 5, 5, 9),
        ] {
            let parallel = evaluate_knn_variant(&c, distance, k, s, seed).unwrap();
            let serial = serial_reference(&c, distance, k, s, seed);
            assert_eq!(parallel, serial, "{distance:?} k={k} s={s}");
        }
    }

    #[test]
    fn knn_variant_produces_scores_for_all_benchmarks() {
        let c = corpus();
        let s = evaluate_knn_variant(&c, Distance::Cosine, 15, 10, 1).unwrap();
        assert_eq!(s.scores.len(), 60);
        assert!(s.mean > 0.0 && s.mean < 1.0);
    }

    #[test]
    fn extreme_k_is_worse_than_moderate_k() {
        // k = n−1 predicts the population average for everyone; that must
        // lose to a moderate neighbourhood.
        let c = corpus();
        let k15 = evaluate_knn_variant(&c, Distance::Cosine, 15, 10, 1).unwrap();
        let kall = evaluate_knn_variant(&c, Distance::Cosine, 59, 10, 1).unwrap();
        assert!(
            k15.mean < kall.mean,
            "k=15 {} vs k=59 {}",
            k15.mean,
            kall.mean
        );
    }

    #[test]
    fn reconstruction_floor_is_below_predicted_error() {
        // Oracle encodings must score at least as well as predictions.
        let c = corpus();
        let repr = ReprKind::PearsonRnd.build();
        let floor = reconstruction_floor(&c, repr.as_ref(), 2).unwrap();
        let predicted = evaluate_knn_variant(&c, Distance::Cosine, 15, 10, 2).unwrap();
        assert!(floor.mean <= predicted.mean + 0.01);
    }

    #[test]
    fn histogram_floor_improves_with_resolution() {
        let c = corpus();
        let coarse = histogram_floor(&c, 5, 3).unwrap();
        let fine = histogram_floor(&c, 80, 3).unwrap();
        assert!(fine.mean < coarse.mean);
    }

    #[test]
    fn variant_evaluation_is_deterministic() {
        let c = corpus();
        let a = evaluate_knn_variant(&c, Distance::Manhattan, 5, 5, 9).unwrap();
        let b = evaluate_knn_variant(&c, Distance::Manhattan, 5, 5, 9).unwrap();
        assert_eq!(a, b);
    }
}
