//! Vectorized distance kernels for the kNN hot path.
//!
//! Two layers, both sharing the lane-order contract of
//! [`pv_stats::kernel`] so that every route to a given distance value is
//! bit-identical (see DESIGN.md "Kernel contracts"):
//!
//! * **Per-pair kernels** — chunked four-lane accumulation behind
//!   [`crate::distance::Distance::eval`], `squared_norm`, and
//!   `cosine_with_sq_norms`. One set of primitives, three callers.
//! * **Blocked batch path** — [`cosine_distance_matrix`] computes an
//!   all-pairs query-tile × train-tile distance matrix. The per-pair
//!   arithmetic is exactly the per-pair kernel, so the matrix is
//!   bit-identical to row-at-a-time scoring at *any* tile shape; the
//!   tiling exists purely to keep a train tile hot in cache across a
//!   whole query tile.
//!
//! Dispatch counters (`pv.ml.kernel.*`) record which path served each
//! query so obs artifacts show what actually ran.

use pv_stats::kernel::{dot4, sq_norm4};

use crate::dataset::DenseMatrix;

/// Query rows per tile of the blocked batch path.
pub const TILE_Q: usize = 8;
/// Training rows per tile of the blocked batch path.
pub const TILE_T: usize = 64;

/// Shared cosine finalization: every cosine path (naive, cached-norm,
/// batch) funnels through this one expression, which is
/// what makes them mutually bit-identical.
#[inline]
pub(crate) fn cosine_finish(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        // A zero vector has no direction: maximally distant.
        return 1.0;
    }
    (1.0 - (dot / (na.sqrt() * nb.sqrt()))).clamp(0.0, 2.0)
}

/// Cosine distance from scratch: chunked dot and both chunked norms.
#[inline]
pub(crate) fn cosine(a: &[f64], b: &[f64]) -> f64 {
    cosine_finish(dot4(a, b), sq_norm4(a), sq_norm4(b))
}

/// Cosine distance with both squared norms precomputed (by [`sq_norm4`],
/// or this is no longer the same chain).
#[inline]
pub(crate) fn cosine_cached(a: &[f64], b: &[f64], na: f64, nb: f64) -> f64 {
    cosine_finish(dot4(a, b), na, nb)
}

/// All-pairs cosine distances between `queries` (with precomputed
/// [`sq_norm4`] norms `q_norms`) and `train` (norms `t_norms`), written
/// row-major into a `queries.rows() × train.rows()` buffer.
///
/// Walks the pair space in `tile_q × tile_t` blocks so a train tile
/// stays cache-resident across a whole query tile. The per-pair value is
/// [`cosine_cached`] verbatim — bit-identical to the row-at-a-time loop
/// for every tile shape (pinned by `tests/kernel_parity.rs`).
pub fn cosine_distance_matrix(
    queries: &DenseMatrix,
    q_norms: &[f64],
    train: &DenseMatrix,
    t_norms: &[f64],
    tile_q: usize,
    tile_t: usize,
) -> Vec<f64> {
    debug_assert_eq!(queries.cols(), train.cols());
    debug_assert_eq!(q_norms.len(), queries.rows());
    debug_assert_eq!(t_norms.len(), train.rows());
    let (nq, nt) = (queries.rows(), train.rows());
    let (tile_q, tile_t) = (tile_q.max(1), tile_t.max(1));
    let mut out = vec![0.0; nq * nt];
    let mut q0 = 0;
    while q0 < nq {
        let q1 = (q0 + tile_q).min(nq);
        let mut t0 = 0;
        while t0 < nt {
            let t1 = (t0 + tile_t).min(nt);
            pv_obs::counter_inc!("pv.ml.kernel.batch_tiles");
            for q in q0..q1 {
                let qrow = queries.row(q);
                let qn = q_norms[q];
                let dst = &mut out[q * nt + t0..q * nt + t1];
                for (d, t) in dst.iter_mut().zip(t0..t1) {
                    *d = cosine_cached(qrow, train.row(t), qn, t_norms[t]);
                }
            }
            t0 = t1;
        }
        q0 = q1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        DenseMatrix::from_flat(rows, cols, data).expect("matrix")
    }

    #[test]
    fn batch_matrix_matches_per_pair_kernel_at_odd_tile_shapes() {
        let q = matrix(5, 37, 1);
        let t = matrix(23, 37, 2);
        let qn: Vec<f64> = (0..q.rows()).map(|r| sq_norm4(q.row(r))).collect();
        let tn: Vec<f64> = (0..t.rows()).map(|r| sq_norm4(t.row(r))).collect();
        let mut want = Vec::new();
        for (i, &qni) in qn.iter().enumerate() {
            for (j, &tnj) in tn.iter().enumerate() {
                want.push(cosine_cached(q.row(i), t.row(j), qni, tnj));
            }
        }
        for (tq, tt) in [(1, 1), (2, 7), (8, 64), (100, 100)] {
            let got = cosine_distance_matrix(&q, &qn, &t, &tn, tq, tt);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "tile ({tq},{tt})");
            }
        }
    }
}
