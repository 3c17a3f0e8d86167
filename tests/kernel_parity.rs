//! Kernel-parity tier: enforces the bit-or-tolerance contracts of the
//! vectorized kernel layer (DESIGN.md "Kernel contracts").
//!
//! Three families of pins:
//!
//! 1. chunked-lane kernels vs a scalar element-order reference —
//!    *bitwise* where the contract says bitwise (Chebyshev max, the
//!    norm/dot chain identity of the two cosine routes), *tolerance*
//!    where reassociation is real (sums, dots, central moments);
//! 2. exact-vs-binned tree splits — the accuracy thresholds that gate
//!    the binned kernel the evaluation models use, with the exact scan
//!    as the reference, at the evaluation level;
//! 3. the evaluation XGBoost's prediction bits on fixed datasets, so a
//!    change to the split search that moves any fitted split shows.

use std::borrow::Cow;

use perfvar_suite::core::eval::{few_runs_spec, RECONSTRUCTION_SAMPLES};
use perfvar_suite::core::pipeline::{EncodedCorpus, FoldRunner, FoldTruth, FoldView, SeedMode};
use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::{evaluate_few_runs, EvalSummary, FittedModel, ModelKind, ReprKind};
use perfvar_suite::ml::dataset::Dataset;
use perfvar_suite::ml::distance::{cosine_with_sq_norms, squared_norm, Distance};
use perfvar_suite::ml::{DenseMatrix, GradientBoostingRegressor, Regressor};
use perfvar_suite::stats::fingerprint::Fnv1a;
use perfvar_suite::stats::kernel::{
    central_sums4, dot4, max_abs_diff4, sq_norm4, sum4, sum_abs_diff4, sum_sq_diff4,
};
use perfvar_suite::sysmodel::{Corpus, SystemModel};

/// Deterministic pseudo-random values in [-2, 2).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    }
}

fn vecs(n: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut next = lcg(seed);
    (0..n)
        .map(|_| (0..width).map(|_| next()).collect())
        .collect()
}

// -----------------------------------------------------------------
// 1. chunked kernels vs scalar element-order reference
// -----------------------------------------------------------------

#[test]
fn chunked_kernels_match_scalar_reference_within_tolerance() {
    // Reassociated sums are NOT bit-identical to element-order scalar
    // loops; the contract is relative tolerance (DESIGN.md pins 1e-12
    // for the widths this workspace uses).
    for width in [1usize, 4, 7, 68, 300] {
        for (i, pair) in vecs(8, width, width as u64).chunks(2).enumerate() {
            let (a, b) = (&pair[0], &pair[1]);
            let scalar_sum: f64 = a.iter().sum();
            let scalar_dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let scalar_sq: f64 = a.iter().map(|x| x * x).sum();
            let scalar_ssd: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            let scalar_sad: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
            let close = |got: f64, want: f64, what: &str| {
                let scale = want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= 1e-12 * scale,
                    "{what} width {width} pair {i}: {got} vs {want}"
                );
            };
            close(sum4(a), scalar_sum, "sum4");
            close(dot4(a, b), scalar_dot, "dot4");
            close(sq_norm4(a), scalar_sq, "sq_norm4");
            close(sum_sq_diff4(a, b), scalar_ssd, "sum_sq_diff4");
            close(sum_abs_diff4(a, b), scalar_sad, "sum_abs_diff4");
        }
    }
}

#[test]
fn chebyshev_is_bitwise_equal_to_the_scalar_fold() {
    // max is commutative and associative: lane order cannot change it.
    for width in [1usize, 5, 68] {
        for pair in vecs(6, width, 77).chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let scalar = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0_f64, f64::max);
            assert_eq!(max_abs_diff4(a, b).to_bits(), scalar.to_bits());
            assert_eq!(Distance::Chebyshev.eval(a, b).to_bits(), scalar.to_bits());
        }
    }
}

#[test]
fn central_sums_match_scalar_reference_within_tolerance() {
    for width in [2usize, 9, 300] {
        for xs in vecs(4, width, 99) {
            let mean = sum4(&xs) / xs.len() as f64;
            let (m2, m3, m4) = central_sums4(&xs, mean);
            let (mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0);
            for &x in &xs {
                let d = x - mean;
                s2 += d * d;
                s3 += d * d * d;
                s4 += d * d * d * d;
            }
            for (got, want, what) in [(m2, s2, "m2"), (m3, s3, "m3"), (m4, s4, "m4")] {
                let scale = want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= 1e-11 * scale,
                    "{what} width {width}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn all_cosine_routes_agree_bitwise() {
    // eval and the cached-norm route must be the same chain.
    let rows = vecs(12, 68, 5150);
    let norms: Vec<f64> = rows.iter().map(|r| squared_norm(r)).collect();
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            let naive = Distance::Cosine.eval(&rows[i], &rows[j]);
            let cached = cosine_with_sq_norms(&rows[i], &rows[j], norms[i], norms[j]);
            assert_eq!(naive.to_bits(), cached.to_bits(), "({i},{j})");
        }
    }
}

// -----------------------------------------------------------------
// 2. exact vs binned trees: the thresholds gating the binned kernel
// -----------------------------------------------------------------

/// A few-runs evaluation (one profile window per benchmark) through the
/// public [`FoldRunner`], as `pv_core::ablation` runs its grids, with
/// the evaluation forest switched to the binned or the exact kernel.
fn forest_eval(enc: &EncodedCorpus, cfg: FewRunsConfig, binned: bool) -> EvalSummary {
    let repr = cfg.repr.build();
    let runner = FoldRunner {
        n_folds: enc.len(),
        seed: cfg.seed,
        seed_mode: SeedMode::PerFold,
        standardize: cfg.model.wants_standardization(),
        n_samples: RECONSTRUCTION_SAMPLES,
        repr: repr.as_ref(),
    };
    let s = cfg.n_profile_runs;
    runner
        .run(
            |fold_seed| {
                let FittedModel::RandomForest(rf) = cfg.model.build_fitted(fold_seed) else {
                    unreachable!("RandomForest builds a forest")
                };
                Box::new(rf.with_binned(binned)) as Box<dyn Regressor>
            },
            |held, include| {
                let query = enc.profile(s, held, 0)?.to_vec();
                let x_dim = query.len();
                let y_dim = enc.target(cfg.repr, held)?.len();
                Ok(FoldView::new(
                    include.len(),
                    x_dim,
                    y_dim,
                    query,
                    move |sink| {
                        for &bi in &include {
                            sink(enc.profile(s, bi, 0)?, enc.target(cfg.repr, bi)?, bi)?;
                        }
                        Ok(())
                    },
                ))
            },
            |held| {
                Ok(FoldTruth {
                    id: enc.corpus().benchmarks[held].id,
                    rel: Cow::Borrowed(enc.rel_times_sorted(held)),
                })
            },
        )
        .unwrap()
}

#[test]
fn binned_eval_summary_is_within_the_documented_threshold_of_exact() {
    // The gate for the binned kernel (DESIGN.md "Kernel contracts"): a
    // full few-runs RandomForest evaluation under binned splits must
    // land within |Δ mean KS| ≤ 0.02 of exhaustive exact splits.
    let corpus = Corpus::collect(&SystemModel::intel(), 24, 0x51);
    let cfg = FewRunsConfig {
        repr: ReprKind::Histogram,
        model: ModelKind::RandomForest,
        n_profile_runs: 5,
        profiles_per_benchmark: 1,
        seed: 9,
    };
    let enc = EncodedCorpus::build(&corpus, &few_runs_spec(&cfg)).unwrap();
    let binned = forest_eval(&enc, cfg, true);
    // The binned run is the evaluation path itself, bit for bit.
    assert_eq!(binned, evaluate_few_runs(&corpus, cfg).unwrap());
    let exact = forest_eval(&enc, cfg, false);
    let delta = (binned.mean - exact.mean).abs();
    assert!(
        delta <= 0.02,
        "binned mean KS {} vs exact {} (Δ {delta})",
        binned.mean,
        exact.mean
    );
}

#[test]
fn binned_gbt_predictions_stay_close_to_exact_fits() {
    // Model-level gate for the boosted path: same data, same seed, the
    // binned fit's predictions track the exact fit within the DESIGN.md
    // tolerance (mean |Δ| ≤ 5% of the target's scale).
    let xs = vecs(120, 30, 31);
    let ys = vecs(120, 4, 32);
    let data = Dataset::new(
        DenseMatrix::from_rows(&xs).unwrap(),
        DenseMatrix::from_rows(&ys).unwrap(),
    )
    .unwrap();
    let build = |binned: bool| {
        let mut m = GradientBoostingRegressor::new(40)
            .with_learning_rate(0.1)
            .with_max_depth(3)
            .with_seed(4)
            .with_binned(binned);
        m.fit(&data).unwrap();
        m
    };
    let exact = build(false);
    let binned = build(true);
    let (mut err, mut n) = (0.0, 0);
    for q in xs.iter().step_by(7) {
        let a = exact.predict(q).unwrap();
        let b = binned.predict(q).unwrap();
        for (x, y) in a.iter().zip(&b) {
            err += (x - y).abs();
            n += 1;
        }
    }
    let mean_abs_delta = err / n as f64;
    assert!(
        mean_abs_delta <= 0.05 * 2.0, // targets span [-2, 2)
        "mean |Δ| = {mean_abs_delta}"
    );
}

// -----------------------------------------------------------------
// 3. the evaluation XGBoost: pinned prediction bits
// -----------------------------------------------------------------

/// `rows × width` integers in `0..levels`, as `f64`: every feature has
/// at most `levels` distinct values, so nodes larger than that take the
/// histogram branch of the binned kernel (the root always does).
fn integer_rows(rows: usize, width: usize, levels: u64, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    (0..rows)
        .map(|_| {
            (0..width)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % levels) as f64
                })
                .collect()
        })
        .collect()
}

/// Fits `ModelKind::XgBoost.build_fitted(seed)` on `(xs, ys)` and hashes
/// the bits of its predictions on every training row and five fresh
/// queries.
fn xgb_prediction_digest(xs: &[Vec<f64>], ys: &[Vec<f64>], seed: u64) -> u64 {
    let data = Dataset::new(
        DenseMatrix::from_rows(xs).unwrap(),
        DenseMatrix::from_rows(ys).unwrap(),
    )
    .unwrap();
    let FittedModel::XgBoost(mut m) = ModelKind::XgBoost.build_fitted(seed) else {
        unreachable!("XgBoost builds a booster")
    };
    assert!(m.binned, "the pins are recorded on the binned kernel");
    m.fit(&data).unwrap();
    let mut h = Fnv1a::new();
    for q in xs.iter().chain(&vecs(5, xs[0].len(), seed + 1000)) {
        h.write_f64s(&m.predict(q).unwrap());
    }
    h.finish()
}

#[test]
fn xgboost_prediction_bits_are_pinned() {
    // Tie-free features at the paper grid's fold shape (19 rows × 272
    // features, t = 4 moments and t = 15 histogram bins), then integer
    // features with heavy ties (≤ 6 distinct values each, so the
    // histogram branch runs at the root and at every large node).
    const WANT: [u64; 3] = [0x9193ef591afdf01d, 0xea7a6e048b1a4c10, 0x42c1c57468663a99];
    let got = [
        xgb_prediction_digest(&vecs(19, 272, 101), &vecs(19, 4, 102), 11),
        xgb_prediction_digest(&vecs(19, 272, 103), &vecs(19, 15, 104), 12),
        xgb_prediction_digest(&integer_rows(300, 12, 6, 105), &vecs(300, 4, 106), 13),
    ];
    assert_eq!(
        got, WANT,
        "XGBoost prediction digests moved (tie-free t=4, tie-free t=15, \
         integer ties t=4): {got:#018x?}"
    );
}
