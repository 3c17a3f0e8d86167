//! Empirical cumulative distribution functions.

use crate::error::{ensure_finite, ensure_len};
use crate::Result;

/// An empirical CDF built from a sample.
///
/// Stores the sorted sample; evaluation is a binary search. `Ecdf` is the
/// common currency of the [KS statistic](crate::ks).
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample.
    ///
    /// # Errors
    /// Fails on empty or non-finite input.
    pub fn new(xs: &[f64]) -> Result<Self> {
        ensure_len("Ecdf", xs, 1)?;
        ensure_finite("Ecdf", xs)?;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ok(Ecdf { sorted })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted underlying sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Right-continuous evaluation: `F(x) = #{xᵢ ≤ x} / n`.
    pub fn eval(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile (inverse CDF) using the left-continuous
    /// generalized inverse: smallest `xᵢ` with `F(xᵢ) ≥ q`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if q <= 0.0 {
            return self.sorted[0];
        }
        let k = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_values_are_correct() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn handles_ties() {
        let e = Ecdf::new(&[2.0, 2.0, 2.0, 5.0]).unwrap();
        assert_eq!(e.eval(1.9), 0.0);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(5.0), 1.0);
    }

    #[test]
    fn monotone_nondecreasing() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 61) % 47) as f64).collect();
        let e = Ecdf::new(&xs).unwrap();
        let mut prev = -1.0;
        for i in -10..60 {
            let v = e.eval(i as f64);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn quantile_inverts_eval() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.21), 20.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
    }

    #[test]
    fn quantile_clamps_q() {
        let e = Ecdf::new(&[1.0, 2.0]).unwrap();
        assert_eq!(e.quantile(-0.5), 1.0);
        assert_eq!(e.quantile(1.5), 2.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Ecdf::new(&[]).is_err());
        assert!(Ecdf::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn sorted_values_are_sorted() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.sorted_values(), &[1.0, 2.0, 3.0]);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }
}
