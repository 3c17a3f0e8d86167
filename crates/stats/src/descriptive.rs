//! Order statistics and robust descriptive summaries.
//!
//! Quantiles use the R-7 (linear interpolation) definition, which is the
//! default in NumPy, pandas, and R — i.e. what the paper's Python pipeline
//! computed. The interquartile range is the robust spread the KDE
//! bandwidth rules and the automatic histogram binning use.

use crate::error::{ensure_finite, ensure_len};
use crate::Result;

/// Returns a sorted copy of the input (NaNs rejected upstream).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("non-finite input"));
    v
}

/// Quantile of *sorted* data using the R-7 rule.
///
/// `q` must lie in `[0, 1]`; `xs` must be non-empty and ascending.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    debug_assert!(!xs.is_empty());
    debug_assert!((0.0..=1.0).contains(&q));
    let n = xs.len();
    if n == 1 {
        return xs[0];
    }
    let h = (n - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    xs[lo] + frac * (xs[hi] - xs[lo])
}

/// Quantile (R-7 / linear interpolation) of unsorted data.
///
/// # Errors
/// Fails on empty input, non-finite values, or `q ∉ [0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    ensure_len("quantile", xs, 1)?;
    ensure_finite("quantile", xs)?;
    if !(0.0..=1.0).contains(&q) {
        return Err(crate::StatsError::invalid(
            "quantile",
            format!("q must be in [0,1], got {q}"),
        ));
    }
    Ok(quantile_sorted(&sorted(xs), q))
}

/// Median (50th percentile).
///
/// # Errors
/// Fails on empty or non-finite input.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Interquartile range `Q3 - Q1`.
///
/// # Errors
/// Fails on empty or non-finite input.
pub fn iqr(xs: &[f64]) -> Result<f64> {
    ensure_len("iqr", xs, 1)?;
    ensure_finite("iqr", xs)?;
    let s = sorted(xs);
    Ok(quantile_sorted(&s, 0.75) - quantile_sorted(&s, 0.25))
}

/// Minimum of a sample.
///
/// # Errors
/// Fails on empty or non-finite input.
pub fn min(xs: &[f64]) -> Result<f64> {
    ensure_len("min", xs, 1)?;
    ensure_finite("min", xs)?;
    Ok(xs.iter().cloned().fold(f64::INFINITY, f64::min))
}

/// Maximum of a sample.
///
/// # Errors
/// Fails on empty or non-finite input.
pub fn max(xs: &[f64]) -> Result<f64> {
    ensure_len("max", xs, 1)?;
    ensure_finite("max", xs)?;
    Ok(xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
}

/// `max - min`.
///
/// # Errors
/// Fails on empty or non-finite input.
pub fn range(xs: &[f64]) -> Result<f64> {
    Ok(max(xs)? - min(xs)?)
}

/// A five-number-plus summary used by reports: min, Q1, median, Q3, max,
/// mean.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FiveNumber {
    /// Minimum observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl FiveNumber {
    /// Computes the summary of a sample.
    ///
    /// # Errors
    /// Fails on empty or non-finite input.
    pub fn from_sample(xs: &[f64]) -> Result<Self> {
        ensure_len("five-number summary", xs, 1)?;
        ensure_finite("five-number summary", xs)?;
        let s = sorted(xs);
        Ok(FiveNumber {
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_numpy_linear_rule() {
        // np.quantile([1,2,3,4], [0, .25, .5, .75, 1]) = [1, 1.75, 2.5, 3.25, 4]
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 3.25).abs() < 1e-12);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
    }

    #[test]
    fn quantile_is_order_independent() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.1, 0.33, 0.5, 0.9] {
            assert_eq!(quantile(&a, q).unwrap(), quantile(&b, q).unwrap());
        }
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[7.0], 0.3).unwrap(), 7.0);
    }

    #[test]
    fn quantile_rejects_bad_q() {
        assert!(quantile(&[1.0], -0.1).is_err());
        assert!(quantile(&[1.0], 1.1).is_err());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }

    #[test]
    fn iqr_of_uniform_grid() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        assert!((iqr(&xs).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_range() {
        let xs = [3.0, -1.0, 7.5, 2.0];
        assert_eq!(min(&xs).unwrap(), -1.0);
        assert_eq!(max(&xs).unwrap(), 7.5);
        assert_eq!(range(&xs).unwrap(), 8.5);
    }

    #[test]
    fn five_number_summary() {
        let xs: Vec<f64> = (1..=5).map(|i| i as f64).collect();
        let f = FiveNumber::from_sample(&xs).unwrap();
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.max, 5.0);
        assert_eq!(f.mean, 3.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.q3, 4.0);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(median(&[]).is_err());
        assert!(iqr(&[]).is_err());
        assert!(min(&[]).is_err());
        assert!(FiveNumber::from_sample(&[]).is_err());
    }
}
