//! Numerical integration: Gauss–Legendre rules.
//!
//! The maximum-entropy reconstruction (`pv-maxent`) evaluates moment
//! integrals `∫ xᵏ exp(Σ λⱼ xʲ) dx` thousands of times inside a Newton
//! loop; a fixed-order Gauss–Legendre rule on the support interval is both
//! fast and accurate for these smooth integrands.

use crate::{Result, StatsError};

/// A Gauss–Legendre quadrature rule: nodes and weights on `[-1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussLegendre {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussLegendre {
    /// Computes the `n`-point rule via Newton iteration on the Legendre
    /// polynomial `P_n` (nodes are its roots; weights follow from `P'_n`).
    ///
    /// # Errors
    /// Fails when `n == 0`.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(StatsError::invalid("GaussLegendre", "order must be ≥ 1"));
        }
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Chebyshev-based initial guess for the i-th root.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut dp = 0.0;
            for _ in 0..100 {
                // Evaluate P_n(x) and P'_n(x) by the three-term recurrence.
                let mut p0 = 1.0;
                let mut p1 = x;
                if n == 1 {
                    p1 = x;
                }
                let pn = if n == 1 {
                    p1
                } else {
                    let mut pj = p1;
                    let mut pjm1 = p0;
                    for j in 2..=n {
                        let pjp1 =
                            ((2.0 * j as f64 - 1.0) * x * pj - (j as f64 - 1.0) * pjm1) / j as f64;
                        pjm1 = pj;
                        pj = pjp1;
                    }
                    p0 = pjm1;
                    p1 = pj;
                    pj
                };
                dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
                let dx = pn / dp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        // Odd order: the middle node is exactly 0; recompute its weight
        // cleanly (the loop already handles it, but pin it for symmetry).
        if n % 2 == 1 {
            nodes[n / 2] = 0.0;
        }
        Ok(GaussLegendre { nodes, weights })
    }

    /// Number of quadrature points.
    pub fn order(&self) -> usize {
        self.nodes.len()
    }

    /// Integrates `f` over `[a, b]`.
    pub fn integrate<F: FnMut(f64) -> f64>(&self, a: f64, b: f64, mut f: F) -> f64 {
        let c = 0.5 * (b - a);
        let d = 0.5 * (b + a);
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(c * x + d))
            .sum::<f64>()
            * c
    }

    /// The nodes mapped to `[a, b]` together with scaled weights — handy
    /// when the same grid is reused for many integrands (the MaxEnt Newton
    /// loop does exactly this).
    pub fn mapped(&self, a: f64, b: f64) -> Vec<(f64, f64)> {
        let c = 0.5 * (b - a);
        let d = 0.5 * (b + a);
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| (c * x + d, w * c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_symmetric_and_weights_sum_to_two() {
        for n in [1, 2, 3, 5, 8, 16, 32, 64] {
            let gl = GaussLegendre::new(n).unwrap();
            assert_eq!(gl.order(), n);
            let wsum: f64 = gl.weights.iter().sum();
            assert!((wsum - 2.0).abs() < 1e-12, "n={n}: Σw = {wsum}");
            for i in 0..n {
                assert!(
                    (gl.nodes[i] + gl.nodes[n - 1 - i]).abs() < 1e-12,
                    "n={n}: node symmetry"
                );
            }
        }
    }

    #[test]
    fn exact_for_polynomials_up_to_degree_2n_minus_1() {
        let gl = GaussLegendre::new(5).unwrap();
        // Degree 9 polynomial: ∫_{-1}^{1} x^8 dx = 2/9; x^9 integrates to 0.
        assert!((gl.integrate(-1.0, 1.0, |x| x.powi(8)) - 2.0 / 9.0).abs() < 1e-13);
        assert!(gl.integrate(-1.0, 1.0, |x| x.powi(9)).abs() < 1e-13);
    }

    #[test]
    fn integrates_transcendental_functions() {
        let gl = GaussLegendre::new(32).unwrap();
        // ∫_0^π sin x dx = 2
        assert!((gl.integrate(0.0, std::f64::consts::PI, f64::sin) - 2.0).abs() < 1e-12);
        // ∫_0^1 e^x dx = e - 1
        assert!((gl.integrate(0.0, 1.0, f64::exp) - (std::f64::consts::E - 1.0)).abs() < 1e-13);
    }

    #[test]
    fn gaussian_integral() {
        let gl = GaussLegendre::new(64).unwrap();
        // ∫_{-6}^{6} φ(x) dx = 1 - 2Φ(-6) ≈ 1 - 1.97e-9
        let v = gl.integrate(-6.0, 6.0, crate::special::normal_pdf);
        assert!((v - 1.0).abs() < 1e-8, "v = {v}");
    }

    #[test]
    fn mapped_grid_matches_integrate() {
        let gl = GaussLegendre::new(16).unwrap();
        let f = |x: f64| x * x + 1.0;
        let direct = gl.integrate(2.0, 5.0, f);
        let via_grid: f64 = gl.mapped(2.0, 5.0).iter().map(|&(x, w)| w * f(x)).sum();
        assert!((direct - via_grid).abs() < 1e-12);
    }

    #[test]
    fn order_one_is_midpoint_rule() {
        let gl = GaussLegendre::new(1).unwrap();
        // One-point rule: 2·f(0) on [-1,1].
        assert!((gl.integrate(-1.0, 1.0, |x| x + 3.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_order() {
        assert!(GaussLegendre::new(0).is_err());
    }
}
