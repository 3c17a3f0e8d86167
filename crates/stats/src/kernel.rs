//! Portable vectorized accumulation kernels.
//!
//! Every reducing loop in the workspace's hot paths — dot products and
//! norms for cosine distance, absolute/squared difference sums for the
//! other metrics, central-moment power sums — is memory-light and
//! add-latency-bound: a single scalar accumulator serializes one `fadd`
//! (≈4 cycles) per element. These kernels break that chain with **four
//! independent f64 accumulator lanes**, letting the compiler keep
//! multiple additions in flight and auto-vectorize the lane updates,
//! without any platform intrinsics.
//!
//! ## Lane order (the contract every caller pins against)
//!
//! All kernels share one accumulation order, fixed and documented so
//! that two code paths computing the same quantity through this module
//! are **bit-identical by construction**:
//!
//! 1. The input is walked in `chunks_exact(4)`; lane `j` accumulates
//!    element `j` of each chunk (`acc[j] += f(chunk[j])`).
//! 2. Lanes reduce as `(acc0 + acc1) + (acc2 + acc3)`.
//! 3. Remainder elements (`len % 4`) are added to that scalar in element
//!    order.
//!
//! Chunked sums are **not** bit-identical to a naive single-accumulator
//! scalar loop (float addition is not associative); callers that need a
//! bitwise guarantee must route *every* path through the same kernel.
//! `max_abs_diff4` is the exception: `max` is commutative and
//! associative for finite values, so the chunked Chebyshev reduction is
//! bit-identical to the scalar fold. See DESIGN.md "Kernel contracts".

/// Σxᵢ over four lanes in the documented lane order.
#[inline]
pub fn sum4(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in chunks.by_ref() {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in chunks.remainder() {
        s += x;
    }
    s
}

/// Σaᵢbᵢ over four lanes in the documented lane order.
///
/// Debug-asserts equal lengths; release builds truncate to the shorter
/// slice like `zip` would.
#[inline]
pub fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

/// Σxᵢ² over four lanes — `dot4(v, v)` with a single stream of loads.
/// Bit-identical to `dot4(v, v)` (same products, same lane order).
#[inline]
pub fn sq_norm4(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut chunks = v.chunks_exact(4);
    for c in chunks.by_ref() {
        acc[0] += c[0] * c[0];
        acc[1] += c[1] * c[1];
        acc[2] += c[2] * c[2];
        acc[3] += c[3] * c[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in chunks.remainder() {
        s += x * x;
    }
    s
}

/// Σ(aᵢ−bᵢ)² over four lanes (squared Euclidean distance).
#[inline]
pub fn sum_sq_diff4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        let d0 = x[0] - y[0];
        let d1 = x[1] - y[1];
        let d2 = x[2] - y[2];
        let d3 = x[3] - y[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Σ|aᵢ−bᵢ| over four lanes (Manhattan distance).
#[inline]
pub fn sum_abs_diff4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        acc[0] += (x[0] - y[0]).abs();
        acc[1] += (x[1] - y[1]).abs();
        acc[2] += (x[2] - y[2]).abs();
        acc[3] += (x[3] - y[3]).abs();
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += (x - y).abs();
    }
    s
}

/// max|aᵢ−bᵢ| over four lanes (Chebyshev distance).
///
/// Unlike the summing kernels this IS bit-identical to the scalar fold
/// `iter().fold(0.0, f64::max)` for finite inputs: `max` is commutative
/// and associative, so lane order cannot change the result.
#[inline]
pub fn max_abs_diff4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        acc[0] = acc[0].max((x[0] - y[0]).abs());
        acc[1] = acc[1].max((x[1] - y[1]).abs());
        acc[2] = acc[2].max((x[2] - y[2]).abs());
        acc[3] = acc[3].max((x[3] - y[3]).abs());
    }
    let mut m = (acc[0].max(acc[1])).max(acc[2].max(acc[3]));
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        m = m.max((x - y).abs());
    }
    m
}

/// Central power sums `(Σd², Σd³, Σd⁴)` with `d = xᵢ − mean`, each over
/// four lanes in the documented lane order.
///
/// The building block of the chunked two-pass moment kernel
/// ([`crate::Moments::from_slice_chunked`]): compute the mean with
/// [`sum4`], then the central sums in one more pass. Carries a relative
/// tolerance (not bitwise) contract against the streaming Pébay
/// reference.
#[inline]
pub fn central_sums4(xs: &[f64], mean: f64) -> (f64, f64, f64) {
    let mut s2 = [0.0f64; 4];
    let mut s3 = [0.0f64; 4];
    let mut s4 = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in chunks.by_ref() {
        for j in 0..4 {
            let d = c[j] - mean;
            let d2 = d * d;
            s2[j] += d2;
            s3[j] += d2 * d;
            s4[j] += d2 * d2;
        }
    }
    let mut m2 = (s2[0] + s2[1]) + (s2[2] + s2[3]);
    let mut m3 = (s3[0] + s3[1]) + (s3[2] + s3[3]);
    let mut m4 = (s4[0] + s4[1]) + (s4[2] + s4[3]);
    for &x in chunks.remainder() {
        let d = x - mean;
        let d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    (m2, m3, m4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            })
            .collect()
    }

    /// The documented lane order, spelled out by hand for a 7-element
    /// input (one full chunk + 3-element tail). If this test fails, the
    /// lane-order contract in the module docs — and every bitwise
    /// guarantee built on it — is broken.
    #[test]
    fn lane_order_is_pinned() {
        let xs = series(7, 1);
        let manual = ((xs[0] + xs[1]) + (xs[2] + xs[3])) + xs[4] + xs[5] + xs[6];
        assert_eq!(sum4(&xs).to_bits(), manual.to_bits());

        let ys = series(7, 2);
        let manual_dot = ((xs[0] * ys[0] + xs[1] * ys[1]) + (xs[2] * ys[2] + xs[3] * ys[3]))
            + xs[4] * ys[4]
            + xs[5] * ys[5]
            + xs[6] * ys[6];
        assert_eq!(dot4(&xs, &ys).to_bits(), manual_dot.to_bits());
    }

    #[test]
    fn sq_norm_matches_dot_with_self_bitwise() {
        for n in [0usize, 1, 3, 4, 5, 8, 33, 300] {
            let xs = series(n, n as u64 + 3);
            assert_eq!(sq_norm4(&xs).to_bits(), dot4(&xs, &xs).to_bits(), "n={n}");
        }
    }

    #[test]
    fn chunked_sums_match_scalar_within_tolerance() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 68, 300, 1000] {
            let a = series(n, 11);
            let b = series(n, 13);
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * (1.0 + x.abs().max(y.abs()));
            assert!(close(sum4(&a), a.iter().sum::<f64>()), "sum n={n}");
            assert!(
                close(dot4(&a, &b), a.iter().zip(&b).map(|(x, y)| x * y).sum()),
                "dot n={n}"
            );
            assert!(
                close(
                    sum_sq_diff4(&a, &b),
                    a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum()
                ),
                "l2 n={n}"
            );
            assert!(
                close(
                    sum_abs_diff4(&a, &b),
                    a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum()
                ),
                "l1 n={n}"
            );
        }
    }

    #[test]
    fn chebyshev_is_bit_identical_to_scalar_fold() {
        for n in [1usize, 3, 4, 7, 8, 68, 301] {
            let a = series(n, 17);
            let b = series(n, 19);
            let scalar = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            assert_eq!(max_abs_diff4(&a, &b).to_bits(), scalar.to_bits(), "n={n}");
        }
    }

    #[test]
    fn central_sums_match_scalar_within_tolerance() {
        let xs = series(501, 23);
        let mean = sum4(&xs) / xs.len() as f64;
        let (m2, m3, m4) = central_sums4(&xs, mean);
        let r2: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
        let r3: f64 = xs.iter().map(|x| (x - mean).powi(3)).sum();
        let r4: f64 = xs.iter().map(|x| (x - mean).powi(4)).sum();
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-10 * (1.0 + x.abs().max(y.abs()));
        assert!(close(m2, r2));
        assert!(close(m3, r3));
        assert!(close(m4, r4));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(sum4(&[]), 0.0);
        assert_eq!(dot4(&[], &[]), 0.0);
        assert_eq!(sq_norm4(&[]), 0.0);
        assert_eq!(max_abs_diff4(&[], &[]), 0.0);
        assert_eq!(central_sums4(&[], 0.0), (0.0, 0.0, 0.0));
        assert_eq!(sum4(&[2.5]), 2.5);
    }
}
