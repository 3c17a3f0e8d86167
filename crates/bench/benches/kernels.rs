//! Benchmarks for the vectorized kernel layer (`pv_stats::kernel`,
//! `pv_ml::kernel`): chunked-lane primitives against scalar
//! element-order references, and the blocked batch-kNN scoring path
//! against row-at-a-time scalar scoring.
//!
//! Fixed sample counts (`sample_size`) so successive runs measure the
//! same work and the headline ratio below is reproducible.
//!
//! Headline (release, this container, 59 queries × 472 train × 272
//! features, k = 15): batched cosine kNN scoring
//! (`knn_score/batch_59q_472t`) runs **≥ 2×** faster than the
//! row-at-a-time scalar loop (`knn_score/scalar_rows_59q_472t`) —
//! measured ~2.0–2.7× across runs (scalar ~6.0–6.6 ms vs batch
//! ~2.4–3.0 ms per pass; the cached-norm chunked row loop sits in
//! between at ~3.0 ms). The `kernel_parity` tier pins that all paths
//! select bit-identical neighbour sets.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pv_ml::distance::{cosine_with_sq_norms, squared_norm};
use pv_ml::kernel::{cosine_distance_matrix, TILE_Q, TILE_T};
use pv_ml::DenseMatrix;
use pv_stats::kernel::{central_sums4, dot4, sum4};
use pv_stats::ks::{ks2_statistic, ks2_statistic_presorted};
use pv_stats::rng::Xoshiro256pp;
use pv_stats::Moments;
use rand::Rng;
use rand::SeedableRng;

fn matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.gen::<f64>() * 4.0 - 2.0)
        .collect();
    DenseMatrix::from_flat(rows, cols, data).unwrap()
}

/// Scalar element-order cosine distance: the pre-kernel reference loop
/// the chunked path replaced.
fn scalar_cosine(a: &[f64], b: &[f64]) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    (1.0 - (dot / (na.sqrt() * nb.sqrt()))).clamp(0.0, 2.0)
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(50);
    let m = matrix(2, 272, 1);
    let (a, b) = (m.row(0).to_vec(), m.row(1).to_vec());
    g.bench_function("dot_scalar_272", |bch| {
        bch.iter(|| {
            let mut acc = 0.0;
            for (x, y) in black_box(&a).iter().zip(black_box(&b)) {
                acc += x * y;
            }
            acc
        })
    });
    g.bench_function("dot_chunked_272", |bch| {
        bch.iter(|| dot4(black_box(&a), black_box(&b)))
    });
    g.bench_function("sum_chunked_272", |bch| bch.iter(|| sum4(black_box(&a))));
    g.bench_function("central_sums_chunked_272", |bch| {
        let mean = sum4(&a) / a.len() as f64;
        bch.iter(|| central_sums4(black_box(&a), mean))
    });
    g.finish();
}

fn bench_knn_scoring(c: &mut Criterion) {
    // The evaluation's fold shape, scaled up: score every query against
    // every training row and keep the k best. Three variants over the
    // identical pair space — the headline ratio in the file header.
    let mut g = c.benchmark_group("knn_score");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(30);
    let (nq, nt, d, k) = (59usize, 472usize, 272usize, 15usize);
    let queries = matrix(nq, d, 2);
    let train = matrix(nt, d, 3);
    let tn: Vec<f64> = (0..nt).map(|r| squared_norm(train.row(r))).collect();

    g.bench_function("scalar_rows_59q_472t", |bch| {
        bch.iter(|| {
            let mut out = 0usize;
            for q in 0..nq {
                let qrow = queries.row(q);
                let mut dists: Vec<(usize, f64)> = (0..nt)
                    .map(|r| (r, scalar_cosine(qrow, train.row(r))))
                    .collect();
                dists.select_nth_unstable_by(k - 1, |x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
                out += dists[k - 1].0;
            }
            out
        })
    });

    g.bench_function("chunked_rows_59q_472t", |bch| {
        bch.iter(|| {
            let mut out = 0usize;
            for q in 0..nq {
                let qrow = queries.row(q);
                let qn = squared_norm(qrow);
                let mut dists: Vec<(usize, f64)> = (0..nt)
                    .map(|r| (r, cosine_with_sq_norms(qrow, train.row(r), qn, tn[r])))
                    .collect();
                dists.select_nth_unstable_by(k - 1, |x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
                out += dists[k - 1].0;
            }
            out
        })
    });

    g.bench_function("batch_59q_472t", |bch| {
        bch.iter(|| {
            let qn: Vec<f64> = (0..nq).map(|r| squared_norm(queries.row(r))).collect();
            let dmat = cosine_distance_matrix(&queries, &qn, &train, &tn, TILE_Q, TILE_T);
            let mut out = 0usize;
            for q in 0..nq {
                let mut dists: Vec<(usize, f64)> = dmat[q * nt..(q + 1) * nt]
                    .iter()
                    .copied()
                    .enumerate()
                    .collect();
                dists.select_nth_unstable_by(k - 1, |x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
                out += dists[k - 1].0;
            }
            out
        })
    });

    g.finish();
}

fn bench_ks_and_moments(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats_kernel");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(50);
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let xs: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>()).collect();
    let ys: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>()).collect();
    let mut xs_sorted = xs.clone();
    xs_sorted.sort_by(f64::total_cmp);
    let mut ys_sorted = ys.clone();
    ys_sorted.sort_by(f64::total_cmp);
    g.bench_function("ks2_allocating_1000", |bch| {
        bch.iter(|| ks2_statistic(black_box(&xs), black_box(&ys)).unwrap())
    });
    g.bench_function("ks2_presorted_1000", |bch| {
        bch.iter(|| ks2_statistic_presorted(black_box(&xs_sorted), black_box(&ys_sorted)).unwrap())
    });
    g.bench_function("moments_streaming_1000", |bch| {
        bch.iter(|| Moments::from_slice(black_box(&xs)))
    });
    g.bench_function("moments_chunked_1000", |bch| {
        bch.iter(|| Moments::from_slice_chunked(black_box(&xs)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_knn_scoring,
    bench_ks_and_moments
);
criterion_main!(benches);
