//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use pv_stats::correlation::cosine_similarity;
use pv_stats::descriptive::{quantile, FiveNumber};
use pv_stats::ecdf::Ecdf;
use pv_stats::histogram::Histogram;
use pv_stats::ks::{kolmogorov_sf, ks2_statistic};
use pv_stats::moments::{MomentSummary, Moments};

/// Strategy: a non-empty vector of "reasonable" finite floats.
fn sample(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..max_len)
}

proptest! {
    #[test]
    fn moments_merge_matches_sequential(xs in sample(200), split in 0usize..200) {
        let split = split.min(xs.len());
        let seq = Moments::from_slice(&xs);
        let mut a = Moments::from_slice(&xs[..split]);
        let b = Moments::from_slice(&xs[split..]);
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean() - seq.mean()).abs() <= 1e-6 * (1.0 + seq.mean().abs()));
        prop_assert!(
            (a.population_variance() - seq.population_variance()).abs()
                <= 1e-6 * (1.0 + seq.population_variance().abs())
        );
    }

    #[test]
    fn mean_lies_between_min_and_max(xs in sample(100)) {
        let m = Moments::from_slice(&xs);
        prop_assert!(m.mean() >= m.min() - 1e-9);
        prop_assert!(m.mean() <= m.max() + 1e-9);
    }

    #[test]
    fn kurtosis_respects_skewness_bound(xs in sample(100)) {
        // β₂ ≥ β₁ + 1 holds for every real distribution / sample.
        let m = Moments::from_slice(&xs);
        if m.population_variance() > 1e-12 {
            prop_assert!(m.kurtosis() >= m.skewness().powi(2) + 1.0 - 1e-6);
        }
    }

    #[test]
    fn moment_summary_is_always_feasible(xs in sample(100)) {
        let s = MomentSummary::from_sample(&xs).unwrap();
        if s.std > 1e-9 {
            prop_assert!(s.is_feasible());
        }
        // Clamp is idempotent on feasible summaries.
        let c = s.clamped_feasible(0.0);
        prop_assert!(c.is_feasible() || s.std <= 1e-9);
    }

    #[test]
    fn quantiles_are_monotone_in_q(xs in sample(100), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, lo).unwrap() <= quantile(&xs, hi).unwrap() + 1e-12);
    }

    #[test]
    fn five_number_ordering(xs in sample(100)) {
        let f = FiveNumber::from_sample(&xs).unwrap();
        prop_assert!(f.min <= f.q1 + 1e-12);
        prop_assert!(f.q1 <= f.median + 1e-12);
        prop_assert!(f.median <= f.q3 + 1e-12);
        prop_assert!(f.q3 <= f.max + 1e-12);
    }

    #[test]
    fn histogram_probabilities_sum_to_one(xs in sample(150), bins in 1usize..40) {
        let h = Histogram::from_data(&xs, bins).unwrap();
        let total: f64 = h.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_cdf_monotone(xs in sample(150), bins in 1usize..40) {
        let h = Histogram::from_data(&xs, bins).unwrap();
        let mut prev = -1e-12;
        for i in 0..=20 {
            let x = h.lo() + (h.hi() - h.lo()) * i as f64 / 20.0;
            let c = h.cdf(x);
            prop_assert!(c >= prev - 1e-9);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn ecdf_is_bounded_monotone(xs in sample(100)) {
        let e = Ecdf::new(&xs).unwrap();
        let lo = e.sorted_values()[0];
        let hi = *e.sorted_values().last().unwrap();
        let mut prev = 0.0;
        for i in 0..=16 {
            let x = lo + (hi - lo) * i as f64 / 16.0;
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        prop_assert_eq!(e.eval(hi), 1.0);
    }

    #[test]
    fn ks_statistic_properties(a in sample(80), b in sample(80)) {
        let d_ab = ks2_statistic(&a, &b).unwrap();
        let d_ba = ks2_statistic(&b, &a).unwrap();
        prop_assert!((d_ab - d_ba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0).contains(&d_ab), "bounded");
        prop_assert_eq!(ks2_statistic(&a, &a).unwrap(), 0.0, "identity");
    }

    #[test]
    fn kolmogorov_sf_is_decreasing(l1 in 0.0..4.0f64, l2 in 0.0..4.0f64) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        prop_assert!(kolmogorov_sf(lo) >= kolmogorov_sf(hi) - 1e-12);
    }

    #[test]
    fn cosine_similarity_bounded(a in sample(50)) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let c = cosine_similarity(&a, &b).unwrap();
        prop_assert!((-1.0..=1.0).contains(&c));
        // Self-similarity is 1 for any nonzero vector.
        if a.iter().any(|&x| x != 0.0) {
            prop_assert!((cosine_similarity(&a, &a).unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cosine_scale_invariance(a in sample(50), k in 0.001..1e3f64) {
        if a.iter().any(|&x| x != 0.0) {
            let b: Vec<f64> = a.iter().map(|x| x * k).collect();
            prop_assert!((cosine_similarity(&a, &b).unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_sampling_stays_in_range(xs in sample(60), bins in 1usize..20, n in 1usize..200) {
        use rand::SeedableRng;
        let h = Histogram::from_data(&xs, bins).unwrap();
        let mut rng = pv_stats::rng::Xoshiro256pp::seed_from_u64(7);
        for v in h.sample_n(&mut rng, n) {
            prop_assert!(v >= h.lo() - 1e-9 && v <= h.hi() + 1e-9);
        }
    }
}
