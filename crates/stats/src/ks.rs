//! Kolmogorov–Smirnov statistics.
//!
//! The paper's accuracy metric (Section IV-E): the KS statistic between the
//! predicted and measured performance distributions, where 0 is a perfect
//! match and values grow toward 1 as agreement degrades. We provide the
//! two-sample statistic (predicted sample set vs. measured sample set — the
//! form the evaluation uses), the one-sample statistic against an arbitrary
//! CDF (used to validate samplers and reconstructions against closed
//! forms), and the asymptotic p-value via the Kolmogorov distribution.

use crate::ecdf::Ecdf;
use crate::error::{ensure_finite, ensure_len};
use crate::Result;

/// Result of a KS comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The KS statistic `D = sup |F₁ - F₂|`, in `[0, 1]`.
    pub statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution).
    pub p_value: f64,
}

/// Two-sample KS statistic between samples `a` and `b`.
///
/// Runs in `O(n log n + m log m)` (sorting) plus a linear merge sweep.
///
/// # Errors
/// Fails when either sample is empty or contains non-finite values.
pub fn ks2_statistic(a: &[f64], b: &[f64]) -> Result<f64> {
    ensure_len("ks2", a, 1)?;
    ensure_len("ks2", b, 1)?;
    ensure_finite("ks2", a)?;
    ensure_finite("ks2", b)?;
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    // total_cmp rather than partial_cmp().expect(): the finiteness guard
    // above makes them equivalent today, but a sort must never be the
    // thing that panics a sweep cell if the guard and this line drift.
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    Ok(merge_sweep(&xs, &ys))
}

/// Two-sample KS statistic for samples that are **already sorted
/// ascending** — no allocation, no sort.
///
/// `D` depends only on the two multisets, so for any orderings of the
/// same data this is bit-identical to [`ks2_statistic`]; the eval loop
/// uses it to score freshly-sorted predicted samples against measured
/// samples the encode cache sorted once, instead of copying and
/// re-sorting both sides on every fold.
///
/// Sortedness is debug-asserted; a release-build violation returns a
/// well-defined but meaningless statistic, never a panic.
///
/// # Errors
/// Fails when either sample is empty or contains non-finite values.
pub fn ks2_statistic_presorted(a: &[f64], b: &[f64]) -> Result<f64> {
    ensure_len("ks2", a, 1)?;
    ensure_len("ks2", b, 1)?;
    ensure_finite("ks2", a)?;
    ensure_finite("ks2", b)?;
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "a must be sorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "b must be sorted");
    Ok(merge_sweep(a, b))
}

/// The linear merge sweep over two sorted samples shared by both entry
/// points: advance past ties in each sample so both ECDFs are evaluated
/// at the same point `t`, tracking the largest gap.
fn merge_sweep(xs: &[f64], ys: &[f64]) -> f64 {
    let (n, m) = (xs.len(), ys.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < n && j < m {
        let x = xs[i];
        let y = ys[j];
        let t = x.min(y);
        while i < n && xs[i] <= t {
            i += 1;
        }
        while j < m && ys[j] <= t {
            j += 1;
        }
        let f1 = i as f64 / n as f64;
        let f2 = j as f64 / m as f64;
        d = d.max((f1 - f2).abs());
    }
    d
}

/// Two-sample KS test with asymptotic p-value.
///
/// # Errors
/// Fails when either sample is empty or contains non-finite values.
pub fn ks2_test(a: &[f64], b: &[f64]) -> Result<KsResult> {
    let d = ks2_statistic(a, b)?;
    let n = a.len() as f64;
    let m = b.len() as f64;
    let ne = n * m / (n + m);
    Ok(KsResult {
        statistic: d,
        p_value: kolmogorov_sf((ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d),
    })
}

/// One-sample KS statistic of `xs` against a theoretical CDF `f`.
///
/// # Errors
/// Fails on empty or non-finite input.
pub fn ks1_statistic<F: Fn(f64) -> f64>(xs: &[f64], f: F) -> Result<f64> {
    ensure_len("ks1", xs, 1)?;
    ensure_finite("ks1", xs)?;
    let e = Ecdf::new(xs)?;
    let n = e.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in e.sorted_values().iter().enumerate() {
        let fx = f(x).clamp(0.0, 1.0);
        let hi = (i + 1) as f64 / n - fx;
        let lo = fx - i as f64 / n;
        d = d.max(hi.max(lo));
    }
    Ok(d)
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{j≥1} (-1)^{j-1} exp(-2 j² λ²)`.
pub fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    if lambda < 1.18 {
        // The alternating series converges too slowly for small λ; use the
        // Jacobi theta-function transformation instead (as SciPy does).
        let w = (2.0 * std::f64::consts::PI).sqrt() / lambda;
        let t = std::f64::consts::PI * std::f64::consts::PI / (8.0 * lambda * lambda);
        let cdf = w * ((-t).exp() + (-9.0 * t).exp() + (-25.0 * t).exp() + (-49.0 * t).exp());
        return (1.0 - cdf).clamp(0.0, 1.0);
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    let l2 = lambda * lambda;
    for j in 1..=100 {
        let term = (-2.0 * (j * j) as f64 * l2).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;
    use crate::samplers::{Normal, Sampler};
    use rand::SeedableRng;

    #[test]
    fn identical_samples_have_zero_statistic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks2_statistic(&xs, &xs).unwrap(), 0.0);
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert_eq!(ks2_statistic(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn statistic_is_symmetric() {
        let a = [1.0, 3.0, 5.0, 7.0];
        let b = [2.0, 4.0, 6.0];
        assert_eq!(
            ks2_statistic(&a, &b).unwrap(),
            ks2_statistic(&b, &a).unwrap()
        );
    }

    #[test]
    fn known_small_case() {
        // F_a jumps at 1, 2; F_b jumps at 1.5. At t=1: |0.5 - 0| = 0.5;
        // at t=1.5: |0.5 - 1| = 0.5; at t=2: 0. → D = 0.5
        let a = [1.0, 2.0];
        let b = [1.5];
        assert!((ks2_statistic(&a, &b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn handles_ties_across_samples() {
        let a = [1.0, 1.0, 2.0, 2.0];
        let b = [1.0, 2.0];
        // CDFs agree at every breakpoint → D = 0.
        assert_eq!(ks2_statistic(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn same_distribution_gives_small_statistic_and_large_p() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let mut r1 = Xoshiro256pp::seed_from_u64(1);
        let mut r2 = Xoshiro256pp::seed_from_u64(2);
        let a = d.sample_n(&mut r1, 3000);
        let b = d.sample_n(&mut r2, 3000);
        let r = ks2_test(&a, &b).unwrap();
        assert!(r.statistic < 0.05, "D = {}", r.statistic);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn shifted_distribution_is_detected() {
        let d1 = Normal::new(0.0, 1.0).unwrap();
        let d2 = Normal::new(1.0, 1.0).unwrap();
        let mut r1 = Xoshiro256pp::seed_from_u64(3);
        let mut r2 = Xoshiro256pp::seed_from_u64(4);
        let a = d1.sample_n(&mut r1, 2000);
        let b = d2.sample_n(&mut r2, 2000);
        let r = ks2_test(&a, &b).unwrap();
        // Theoretical D for unit shift of unit normals: 2Φ(0.5) - 1 ≈ 0.383
        assert!((r.statistic - 0.383).abs() < 0.05, "D = {}", r.statistic);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn one_sample_against_true_cdf_is_small() {
        let d = Normal::new(2.0, 3.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let xs = d.sample_n(&mut rng, 5000);
        let stat = ks1_statistic(&xs, |x| d.cdf(x)).unwrap();
        assert!(stat < 0.03, "D = {stat}");
    }

    #[test]
    fn one_sample_against_wrong_cdf_is_large() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let wrong = Normal::new(2.0, 1.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let xs = d.sample_n(&mut rng, 2000);
        let stat = ks1_statistic(&xs, |x| wrong.cdf(x)).unwrap();
        assert!(stat > 0.5, "D = {stat}");
    }

    #[test]
    fn kolmogorov_sf_known_values() {
        // Q(0.828) ≈ 0.5 (median of Kolmogorov distribution)
        assert!((kolmogorov_sf(0.8276) - 0.5).abs() < 1e-3);
        // Q(1.36) ≈ 0.049 (the classic 5% critical value)
        assert!((kolmogorov_sf(1.36) - 0.049).abs() < 2e-3);
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(5.0) < 1e-10);
    }

    #[test]
    fn statistic_bounded_in_unit_interval() {
        let a = [1.0, 5.0, 2.0, 8.0, 3.0];
        let b = [0.5, 6.0, 6.5];
        let d = ks2_statistic(&a, &b).unwrap();
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(ks2_statistic(&[], &[1.0]).is_err());
        assert!(ks2_statistic(&[1.0], &[]).is_err());
        assert!(ks1_statistic(&[], |_| 0.5).is_err());
    }

    #[test]
    fn rejects_nan_input_instead_of_panicking() {
        assert!(ks2_statistic(&[1.0, f64::NAN], &[1.0]).is_err());
        assert!(ks2_statistic(&[1.0], &[f64::NEG_INFINITY]).is_err());
        assert!(ks1_statistic(&[f64::NAN], |_| 0.5).is_err());
    }

    #[test]
    fn presorted_matches_allocating_path_bitwise() {
        // Any ordering of the same multisets must give the same D bits.
        let d = Normal::new(0.3, 1.7).unwrap();
        let mut r1 = Xoshiro256pp::seed_from_u64(7);
        let mut r2 = Xoshiro256pp::seed_from_u64(8);
        for (na, nb) in [(1usize, 1usize), (5, 3), (100, 251), (1000, 59)] {
            let a = d.sample_n(&mut r1, na);
            let b = d.sample_n(&mut r2, nb);
            let want = ks2_statistic(&a, &b).unwrap();
            let mut sa = a.clone();
            let mut sb = b.clone();
            sa.sort_by(f64::total_cmp);
            sb.sort_by(f64::total_cmp);
            let got = ks2_statistic_presorted(&sa, &sb).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "n=({na},{nb})");
        }
    }

    #[test]
    fn presorted_validates_like_the_allocating_path() {
        assert!(ks2_statistic_presorted(&[], &[1.0]).is_err());
        assert!(ks2_statistic_presorted(&[1.0], &[]).is_err());
        assert!(ks2_statistic_presorted(&[1.0, f64::NAN], &[1.0]).is_err());
        assert_eq!(
            ks2_statistic_presorted(&[1.0, 2.0], &[1.0, 2.0]).unwrap(),
            0.0
        );
    }

    #[test]
    fn constant_samples_give_finite_statistic() {
        // A constant sample is degenerate but well-defined for the KS
        // statistic: two equal constants agree, different ones disjoint.
        assert_eq!(ks2_statistic(&[3.0; 5], &[3.0; 7]).unwrap(), 0.0);
        assert_eq!(ks2_statistic(&[3.0; 5], &[4.0; 7]).unwrap(), 1.0);
        let d = ks1_statistic(&[3.0; 5], |x| if x < 3.0 { 0.0 } else { 1.0 }).unwrap();
        assert!(d.is_finite());
    }
}
