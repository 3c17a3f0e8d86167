//! Benchmarks for the distribution-reconstruction engines: Pearson-system
//! fitting/sampling (`pearsrnd`) and the maximum-entropy Newton solver.
//!
//! `maxent/solve_above_ceiling` poses a four-moment target (γ₁ 2.3,
//! β₂ 17.4) on the μ ± 3.5σ support `MaxEntRepr::decode` uses, whose
//! kurtosis ceiling is 12.25 − γ₁²/11.25 ≈ 11.78: the solver used to run
//! ~200 damped Newton iterations before failing and now rejects it with a
//! 2×2 localizing-matrix test. `maxent/solve_two_moment` is the fallback
//! solve that answers instead; it used to spend most of its time building
//! the 96-point Gauss–Legendre rule, now built once per process. Measured
//! on a 2-vCPU Xeon VM (2.0 GHz), 20 samples, min / mean, two alternating
//! runs per commit:
//!
//! | case | before | after |
//! |---|---|---|
//! | `solve_above_ceiling` | 5.17 / 6.24 ms, 6.03 / 7.17 ms | 1.15 / 1.27 µs, 0.76 / 1.04 µs |
//! | `solve_two_moment` | 141.3 / 157.1 µs, 144.7 / 151.5 µs | 21.1 / 21.7 µs, 15.8 / 20.2 µs |
//! | `solve_quad96` (converged, four moments) | 154.6 / 174.0 µs, 151.9 / 163.1 µs | 36.9 / 38.2 µs, 36.8 / 39.1 µs |
//!
//! `pearson/fit_typeIV` builds the 4,097-point angle-grid CDF of a type IV
//! fit, which used to evaluate `cos` and `ln` twice and `exp` once per
//! grid point; it now reads `ln cos φ` from one process-wide angle table
//! and computes each point's log-density once. `pearson/sample_1000_typeIV`
//! finds each sample's grid interval through a 4,096-bucket guide table
//! instead of a binary search. Both are bit-identical (DESIGN.md §10).
//! Same machine, default sample count, min / mean, two alternating runs
//! per commit:
//!
//! | case | before | after |
//! |---|---|---|
//! | `fit_typeIV` | 153.2 / 193.2 µs, 166.4 / 211.1 µs | 34.8 / 50.5 µs, 34.2 / 39.8 µs |
//! | `sample_1000_typeIV` | 85.4 / 94.0 µs, 117.2 / 123.8 µs | 28.4 / 41.4 µs, 29.7 / 42.2 µs |
//! | `fit_type0` | 11.4 / 14.0 ns, 13.4 / 16.5 ns | 11.7 / 12.4 ns, 11.7 / 12.2 ns |
//! | `fit_typeI` | 16.9 / 19.5 ns, 19.3 / 32.6 ns | 17.4 / 18.8 ns, 17.3 / 28.2 ns |
//! | `fit_typeVI` | 26.1 / 33.0 ns, 28.1 / 40.3 ns | 34.5 / 46.7 ns, 26.4 / 29.0 ns |

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pv_maxent::{MaxEntDensity, MaxEntOptions};
use pv_pearson::PearsonDist;
use pv_stats::moments::MomentSummary;
use pv_stats::rng::Xoshiro256pp;
use rand::SeedableRng;

fn spec(skew: f64, kurt: f64) -> MomentSummary {
    MomentSummary {
        mean: 1.0,
        std: 0.05,
        skewness: skew,
        kurtosis: kurt,
    }
}

fn bench_pearson(c: &mut Criterion) {
    let mut g = c.benchmark_group("pearson");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    for (name, s) in [
        ("fit_type0", spec(0.0, 3.0)),
        ("fit_typeI", spec(0.6, 2.9)),
        ("fit_typeIV", spec(0.8, 5.0)),
        ("fit_typeVI", spec(1.8, 9.0)),
    ] {
        g.bench_function(name, |b| b.iter(|| PearsonDist::fit(black_box(s)).unwrap()));
    }
    let d = PearsonDist::fit(spec(0.8, 5.0)).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    g.bench_function("sample_1000_typeIV", |b| {
        b.iter(|| d.sample_n(&mut rng, black_box(1000)))
    });
    let d0 = PearsonDist::fit(spec(0.0, 3.0)).unwrap();
    g.bench_function("sample_1000_type0", |b| {
        b.iter(|| d0.sample_n(&mut rng, black_box(1000)))
    });
    g.finish();
}

fn bench_maxent(c: &mut Criterion) {
    let mut g = c.benchmark_group("maxent");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(20);
    for (name, s) in [
        ("solve_normal", spec(0.0, 3.0)),
        ("solve_skewed", spec(0.7, 3.8)),
        ("solve_platykurtic", spec(0.0, 1.9)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| MaxEntDensity::from_summary(black_box(&s), (0.8, 1.25)).unwrap())
        });
    }
    // Quadrature-order sensitivity of the solver.
    let s = spec(0.4, 3.4);
    let mu = pv_maxent::central_to_raw_moments(&s);
    for order in [32usize, 96] {
        let opts = MaxEntOptions {
            quad_order: order,
            ..MaxEntOptions::default()
        };
        g.bench_function(format!("solve_quad{order}"), |b| {
            b.iter(|| pv_maxent::solve_maxent(black_box(&mu), 0.8, 1.25, &opts).unwrap())
        });
    }
    // The two shapes of a `MaxEntRepr::decode` on its μ ± 3.5σ support: a
    // four-moment target above the kurtosis ceiling (rejected), and the
    // two-moment solve that answers instead.
    let s = spec(2.3, 17.4);
    let support = (s.mean - 3.5 * s.std, s.mean + 3.5 * s.std);
    g.bench_function("solve_above_ceiling", |b| {
        b.iter(|| MaxEntDensity::from_summary(black_box(&s), support).is_err())
    });
    let mu = pv_maxent::central_to_raw_moments(&s);
    let opts = MaxEntOptions::default();
    g.bench_function("solve_two_moment", |b| {
        b.iter(|| {
            pv_maxent::solve_maxent(black_box(&mu[..3]), support.0, support.1, &opts).unwrap()
        })
    });
    let d = MaxEntDensity::from_summary(&spec(0.3, 3.2), (0.8, 1.25)).unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    g.bench_function("sample_1000", |b| {
        b.iter(|| d.sample_n(&mut rng, black_box(1000)))
    });
    g.finish();
}

criterion_group!(benches, bench_pearson, bench_maxent);
criterion_main!(benches);
