//! Distance metrics for the kNN regressor.
//!
//! The paper found cosine distance to outperform Euclidean and other
//! metrics for application-profile neighbourhoods (Section III-B3); all
//! four common options are provided so the ablation benches can reproduce
//! that comparison.
//!
//! Every metric accumulates through the chunked four-lane kernels of
//! [`pv_stats::kernel`] (lane-order contracts in DESIGN.md "Kernel
//! contracts"). Cosine has two routes — [`Distance::eval`] from scratch
//! and [`cosine_with_sq_norms`] with both norms precomputed — and both
//! end in one finishing expression, which is what makes them
//! bit-identical.

use serde::{Deserialize, Serialize};

use pv_stats::kernel::{dot4, max_abs_diff4, sq_norm4, sum_abs_diff4, sum_sq_diff4};

/// Distance metric between feature rows.
///
/// `Hash` (alongside `Eq`/serde) lets ablation-grid configs that carry a
/// distance axis key cell sets and caches the same way the core sweep
/// configs do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Distance {
    /// `√Σ(aᵢ−bᵢ)²`.
    Euclidean,
    /// `Σ|aᵢ−bᵢ|`.
    Manhattan,
    /// `1 − cos(a, b)`; the paper's choice for profile features.
    #[default]
    Cosine,
    /// `max|aᵢ−bᵢ|`.
    Chebyshev,
}

impl Distance {
    /// Evaluates the distance between two equal-length rows.
    ///
    /// Rows are assumed finite and equal length (the kNN regressor
    /// validates at fit/predict boundaries); in debug builds a mismatch
    /// panics.
    ///
    /// Cosine keeps `dot`, `na`, `nb` as three independent chunked
    /// chains, so the norm-hoisted [`cosine_with_sq_norms`] stays
    /// bit-identical to this path.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Distance::Euclidean => sum_sq_diff4(a, b).sqrt(),
            Distance::Manhattan => sum_abs_diff4(a, b),
            Distance::Cosine => cosine_finish(dot4(a, b), sq_norm4(a), sq_norm4(b)),
            Distance::Chebyshev => max_abs_diff4(a, b),
        }
    }
}

/// `Σxᵢ²` of a row, accumulated in the chunked lane order of
/// [`pv_stats::kernel::sq_norm4`] — the quantity cosine recomputes for
/// both rows on every pair. Callers that score one query against many
/// candidates (kNN) compute it once per row and pass it to
/// [`cosine_with_sq_norms`].
#[inline]
pub fn squared_norm(v: &[f64]) -> f64 {
    sq_norm4(v)
}

/// Cosine distance with both squared norms precomputed.
///
/// Bit-identical to [`Distance::Cosine`]'s `eval`: both paths compute
/// `dot`, `na`, `nb` through the same chunked kernels as three
/// independent chains, so hoisting the norm chains out changes no
/// rounding (asserted in `cached_norms_match_naive_cosine_bitwise`).
/// The norms must come from [`squared_norm`] for the guarantee to hold.
#[inline]
pub fn cosine_with_sq_norms(a: &[f64], b: &[f64], na: f64, nb: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    cosine_finish(dot4(a, b), na, nb)
}

/// The one cosine finishing expression both routes end in.
#[inline]
fn cosine_finish(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        // A zero vector has no direction: maximally distant.
        return 1.0;
    }
    (1.0 - (dot / (na.sqrt() * nb.sqrt()))).clamp(0.0, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [1.0, 2.0, 3.0];
    const B: [f64; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn euclidean() {
        // √(9 + 16 + 0) = 5
        assert!((Distance::Euclidean.eval(&A, &B) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn manhattan() {
        assert!((Distance::Manhattan.eval(&A, &B) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn chebyshev() {
        assert!((Distance::Chebyshev.eval(&A, &B) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_identical_rows_are_distance_zero() {
        assert!(Distance::Cosine.eval(&A, &A).abs() < 1e-12);
    }

    #[test]
    fn cosine_scaled_rows_are_distance_zero() {
        let scaled: Vec<f64> = A.iter().map(|x| x * 7.0).collect();
        assert!(Distance::Cosine.eval(&A, &scaled).abs() < 1e-12);
    }

    #[test]
    fn cosine_opposite_rows_are_distance_two() {
        let neg: Vec<f64> = A.iter().map(|x| -x).collect();
        assert!((Distance::Cosine.eval(&A, &neg) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_maximally_distant() {
        assert_eq!(Distance::Cosine.eval(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn all_metrics_are_zero_on_identical_and_nonnegative() {
        for d in [
            Distance::Euclidean,
            Distance::Manhattan,
            Distance::Cosine,
            Distance::Chebyshev,
        ] {
            assert!(d.eval(&A, &A).abs() < 1e-12, "{d:?}");
            assert!(d.eval(&A, &B) >= 0.0, "{d:?}");
        }
    }

    #[test]
    fn default_is_cosine() {
        assert_eq!(Distance::default(), Distance::Cosine);
    }

    #[test]
    fn cached_norms_match_naive_cosine_bitwise() {
        // Deterministic pseudo-random rows (LCG) across widths, plus the
        // zero-vector edge case: the cached-norm path must reproduce the
        // naive interleaved loop to the last bit.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for width in [1usize, 3, 8, 33] {
            for _ in 0..16 {
                let a: Vec<f64> = (0..width).map(|_| next()).collect();
                let b: Vec<f64> = (0..width).map(|_| next()).collect();
                let naive = Distance::Cosine.eval(&a, &b);
                let cached = cosine_with_sq_norms(&a, &b, squared_norm(&a), squared_norm(&b));
                assert_eq!(naive.to_bits(), cached.to_bits());
            }
        }
        let z = vec![0.0; 4];
        let b: Vec<f64> = (0..4).map(|_| next()).collect();
        assert_eq!(
            Distance::Cosine.eval(&z, &b).to_bits(),
            cosine_with_sq_norms(&z, &b, squared_norm(&z), squared_norm(&b)).to_bits()
        );
    }
}
