//! Damped Newton solver for the maximum-entropy moment problem.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pv_stats::linalg::{lu_solve, Matrix};
use pv_stats::moments::MomentSummary;
use pv_stats::quadrature::GaussLegendre;
use pv_stats::StatsError;

use crate::Result;

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct MaxEntOptions {
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the residual ∞-norm (moments are O(1) on
    /// the mapped support, so this is effectively a relative tolerance).
    pub tol: f64,
    /// Gauss–Legendre order for the moment integrals.
    pub quad_order: usize,
    /// Ridge added to the Hankel Jacobian when it is near-singular.
    pub ridge: f64,
}

impl Default for MaxEntOptions {
    fn default() -> Self {
        MaxEntOptions {
            max_iter: 200,
            tol: 1e-10,
            quad_order: 96,
            ridge: 1e-10,
        }
    }
}

/// Converts the paper's four-moment summary into raw moments
/// `[1, μ₁, μ₂, μ₃, μ₄]`.
///
/// Raw moments follow from the central ones by the binomial expansion:
/// `μ₂ = m² + σ²`, `μ₃ = m³ + 3mσ² + γ₁σ³`,
/// `μ₄ = m⁴ + 6m²σ² + 4mγ₁σ³ + β₂σ⁴`.
pub fn central_to_raw_moments(s: &MomentSummary) -> [f64; 5] {
    let m = s.mean;
    let v = s.std * s.std;
    let c3 = s.skewness * s.std.powi(3);
    let c4 = s.kurtosis * v * v;
    [
        1.0,
        m,
        m * m + v,
        m.powi(3) + 3.0 * m * v + c3,
        m.powi(4) + 6.0 * m * m * v + 4.0 * m * c3 + c4,
    ]
}

/// Maps raw moments of `x` on `[a, b]` to raw moments of the standardized
/// variable `u = (x − c)/h` on `[-1, 1]`, where `c = (a+b)/2`,
/// `h = (b−a)/2`.
fn map_moments_to_unit(mu: &[f64], a: f64, b: f64) -> Vec<f64> {
    let c = 0.5 * (a + b);
    let h = 0.5 * (b - a);
    let k = mu.len();
    let mut out = vec![0.0; k];
    // E[u^n] = h^{-n} Σ_j C(n, j) μ_j (−c)^{n−j}
    for (n, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        let mut binom = 1.0f64;
        for (j, &mu_j) in mu.iter().enumerate().take(n + 1) {
            if j > 0 {
                binom *= (n - j + 1) as f64 / j as f64;
            }
            acc += binom * mu_j * (-c).powi((n - j) as i32);
        }
        *slot = acc / h.powi(n as i32);
    }
    out
}

/// Solves for the Lagrange multipliers of the max-entropy density on
/// `[a, b]` matching raw moments `mu` (with `mu[0] = 1`).
///
/// Returns the multipliers `lambda` **in the mapped `[-1, 1]`
/// coordinate** — [`crate::MaxEntDensity`] owns the transformation back to
/// `x`-space.
///
/// # Errors
/// Fails when the moments are non-finite, the support is invalid, the
/// target moments are infeasible on the support, or Newton fails to
/// converge.
pub fn solve_maxent(mu: &[f64], a: f64, b: f64, opts: &MaxEntOptions) -> Result<Vec<f64>> {
    let _timer = pv_obs::timed!("pv.maxent.solver.solve_ns");
    let target = unit_target(mu, a, b)?;
    if let Err(e) = certify_feasible(&target, opts.tol) {
        // Infeasible targets never enter the Newton loop and do not count
        // against the solver.
        pv_obs::counter_inc!("pv.maxent.solver.infeasible");
        return Err(e);
    }
    match newton(&target, &unit_rule(opts.quad_order)?, opts) {
        Ok((lambda, iterations)) => {
            pv_obs::counter_inc!("pv.maxent.solver.converged");
            pv_obs::observe!(
                "pv.maxent.solver.iterations",
                ITERATION_BUCKETS,
                iterations as f64
            );
            Ok(lambda)
        }
        Err(e) => {
            if let StatsError::NoConvergence { iterations, .. } = e {
                pv_obs::counter_inc!("pv.maxent.solver.failed");
                pv_obs::observe!(
                    "pv.maxent.solver.iterations",
                    ITERATION_BUCKETS,
                    iterations as f64
                );
            }
            Err(e)
        }
    }
}

/// Bucket layout for the Newton-iteration histogram: unit-ish bins over
/// the default 200-iteration budget.
const ITERATION_BUCKETS: pv_obs::BucketSpec = pv_obs::BucketSpec::Linear {
    lo: 0.0,
    hi: 200.0,
    bins: 40,
};

/// Validates raw moments `mu` on `[a, b]` and maps them to the `[-1, 1]`
/// coordinate the solver works in.
fn unit_target(mu: &[f64], a: f64, b: f64) -> Result<Vec<f64>> {
    if mu.len() < 2 {
        return Err(StatsError::invalid(
            "solve_maxent",
            "need at least two moments (including μ₀)",
        ));
    }
    if mu.iter().any(|m| !m.is_finite()) {
        return Err(StatsError::NonFinite {
            what: "solve_maxent",
        });
    }
    if !(a.is_finite() && b.is_finite() && a < b) {
        return Err(StatsError::invalid(
            "solve_maxent",
            format!("invalid support [{a}, {b}]"),
        ));
    }
    if (mu[0] - 1.0).abs() > 1e-8 {
        return Err(StatsError::invalid(
            "solve_maxent",
            format!("μ₀ must be 1, got {}", mu[0]),
        ));
    }
    Ok(map_moments_to_unit(mu, a, b))
}

/// Rejects mapped moments that no density on `[-1, 1]` has, in O(1).
///
/// Two screens, both necessary conditions:
///
/// * the mean lies inside `(−1, 1)` and the variance in `(0, 1]`
///   (Popoviciu's bound);
/// * with four moments, the localizing matrix of `1 − u²`,
///   `H1 = [[m₀−m₂, m₁−m₃], [m₁−m₃, m₂−m₄]]`, is positive semidefinite.
///   On a `μ ± kσ` support this is the kurtosis ceiling
///   `β₂ ≤ k² − γ₁²/(k² − 1)`.
///
/// The second screen tests `H1 + εI` with `ε = 10⁴·tol`. Newton accepts an
/// iterate only when its residual ∞-norm is below `100·tol`; the iterate's
/// moments come from a positive measure on Gauss–Legendre nodes inside
/// `(−1, 1)`, so its `H1` is PSD, and `H1` is linear in the moments, so its
/// smallest eigenvalue moves by at most four times the residual. Any
/// target Newton can accept thus has `λ_min(H1) ≥ −400·tol`, and `ε`
/// leaves a 25× margin: every target rejected here is one the Newton loop
/// would fail on too.
fn certify_feasible(target: &[f64], tol: f64) -> Result<()> {
    let infeasible = |detail: String| {
        Err(StatsError::invalid(
            "solve_maxent",
            format!("moments infeasible on support: {detail}"),
        ))
    };
    if target.len() >= 3 {
        let mean = target[1];
        let var = target[2] - mean * mean;
        if mean.abs() >= 1.0 || var <= 0.0 || var > 1.0 {
            return infeasible(format!("mapped mean={mean}, var={var}"));
        }
    }
    if target.len() >= 5 {
        let eps = 1e4 * tol;
        let a = target[0] - target[2] + eps;
        let d = target[2] - target[4] + eps;
        let b = target[1] - target[3];
        if a < 0.0 || d < 0.0 || a * d < b * b {
            return infeasible(format!(
                "localizing matrix of 1 − u² not PSD: a={a}, b={b}, d={d}, ε={eps}"
            ));
        }
    }
    Ok(())
}

/// The `n`-point Gauss–Legendre rule on `[-1, 1]` as `(node, weight)`
/// pairs, built once per process and shared by every solve of that order.
///
/// A process-wide memo rather than a thread-local one: parallel callers
/// run on short-lived worker threads, which would rebuild a thread-local
/// rule on every parallel call. Every update pushes a finished rule, so a
/// poisoned lock still guards a valid memo.
fn unit_rule(n: usize) -> Result<Arc<[(f64, f64)]>> {
    type Rules = Mutex<Vec<(usize, Arc<[(f64, f64)]>)>>;
    static RULES: OnceLock<Rules> = OnceLock::new();
    let mut rules = RULES
        .get_or_init(Rules::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some((_, rule)) = rules.iter().find(|(order, _)| *order == n) {
        return Ok(Arc::clone(rule));
    }
    let rule: Arc<[(f64, f64)]> = GaussLegendre::new(n)?.mapped(-1.0, 1.0).into();
    rules.push((n, Arc::clone(&rule)));
    Ok(rule)
}

/// Damped Newton on the multipliers of the density on `[-1, 1]` whose
/// moments are `target`, integrating on `grid`. Returns the multipliers
/// and the Newton iterations run; a failure carries the iterations run
/// before the loop gave up.
fn newton(target: &[f64], grid: &[(f64, f64)], opts: &MaxEntOptions) -> Result<(Vec<f64>, usize)> {
    let k = target.len();

    // Start from the uniform density on [-1, 1]: λ = (ln ½, 0, …, 0).
    let mut lambda = vec![0.0; k];
    lambda[0] = (0.5f64).ln();

    let moments_of = |lam: &[f64]| -> Vec<f64> {
        // All 2k−1 power moments of p(u) = exp(Σ λ_j u^j) in one sweep.
        let mut mom = vec![0.0; 2 * k - 1];
        for &(u, w) in grid {
            let mut e = 0.0;
            let mut up = 1.0;
            for &l in lam {
                e += l * up;
                up *= u;
            }
            let p = e.exp();
            let mut upow = 1.0;
            for m in mom.iter_mut() {
                *m += w * p * upow;
                upow *= u;
            }
        }
        mom
    };

    let residual_norm = |mom: &[f64]| -> f64 {
        (0..k)
            .map(|i| (mom[i] - target[i]).abs())
            .fold(0.0f64, f64::max)
    };

    let mut mom = moments_of(&lambda);
    let mut err = residual_norm(&mom);
    let mut iterations = 0;
    for _ in 0..opts.max_iter {
        if err < opts.tol {
            return Ok((lambda, iterations));
        }
        iterations += 1;
        // Newton step: H δ = −(G − target), H_{ij} = moment_{i+j}.
        let mut h = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                h[(i, j)] = mom[i + j];
            }
        }
        h.add_ridge(opts.ridge);
        let rhs: Vec<f64> = (0..k).map(|i| target[i] - mom[i]).collect();
        let delta = match lu_solve(h, &rhs) {
            Ok(d) => d,
            Err(_) => {
                return Err(StatsError::NoConvergence {
                    what: "solve_maxent (singular Hessian)",
                    iterations,
                })
            }
        };
        // Damped update: halve the step until the residual decreases (or
        // give up after 30 halvings — a sign of infeasibility).
        let mut step = 1.0;
        let mut improved = false;
        for _ in 0..30 {
            let trial: Vec<f64> = lambda
                .iter()
                .zip(&delta)
                .map(|(l, d)| l + step * d)
                .collect();
            let tm = moments_of(&trial);
            let te = residual_norm(&tm);
            if te.is_finite() && te < err {
                lambda = trial;
                mom = tm;
                err = te;
                improved = true;
                break;
            }
            step *= 0.5;
        }
        if !improved {
            break;
        }
    }
    if err < opts.tol * 100.0 {
        // Accept near-converged solutions: the downstream KS comparison
        // operates at the 1e-3 level, so 1e-8 moment residuals are fine.
        return Ok((lambda, iterations));
    }
    Err(StatsError::NoConvergence {
        what: "solve_maxent",
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_to_raw_roundtrip_for_normal() {
        let s = MomentSummary {
            mean: 0.0,
            std: 1.0,
            skewness: 0.0,
            kurtosis: 3.0,
        };
        let mu = central_to_raw_moments(&s);
        assert_eq!(mu, [1.0, 0.0, 1.0, 0.0, 3.0]);
    }

    #[test]
    fn central_to_raw_with_shift() {
        // Shifted normal N(2, 1): μ₁=2, μ₂=5, μ₃=14, μ₄=43.
        let s = MomentSummary {
            mean: 2.0,
            std: 1.0,
            skewness: 0.0,
            kurtosis: 3.0,
        };
        let mu = central_to_raw_moments(&s);
        assert!((mu[1] - 2.0).abs() < 1e-12);
        assert!((mu[2] - 5.0).abs() < 1e-12);
        assert!((mu[3] - 14.0).abs() < 1e-12);
        assert!((mu[4] - 43.0).abs() < 1e-12);
    }

    #[test]
    fn mapped_moments_of_centered_interval_are_identity() {
        let mu = [1.0, 0.0, 0.25];
        let mapped = map_moments_to_unit(&mu, -1.0, 1.0);
        assert!((mapped[0] - 1.0).abs() < 1e-12);
        assert!((mapped[1]).abs() < 1e-12);
        assert!((mapped[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mapped_moments_handle_shift_and_scale() {
        // X uniform on [0, 2]: μ = [1, 1, 4/3]. Mapped u = x − 1 on [−1,1]:
        // E[u] = 0, E[u²] = 1/3.
        let mu = [1.0, 1.0, 4.0 / 3.0];
        let mapped = map_moments_to_unit(&mu, 0.0, 2.0);
        assert!(mapped[1].abs() < 1e-12);
        assert!((mapped[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_moments_give_flat_density() {
        // Moments of U[-1,1]: [1, 0, 1/3, 0, 1/5]
        let lam = solve_maxent(
            &[1.0, 0.0, 1.0 / 3.0, 0.0, 0.2],
            -1.0,
            1.0,
            &MaxEntOptions::default(),
        )
        .unwrap();
        // Density exp(Σ λ u^j) must be ≈ 0.5 everywhere → λ₀ ≈ ln ½,
        // higher λ ≈ 0.
        assert!((lam[0] - 0.5f64.ln()).abs() < 1e-5, "λ₀ = {}", lam[0]);
        for l in &lam[1..] {
            assert!(l.abs() < 1e-5, "λ = {lam:?}");
        }
    }

    #[test]
    fn solver_matches_requested_moments() {
        // A skewed spec; verify the solution's moments numerically.
        let s = MomentSummary {
            mean: 0.2,
            std: 0.5,
            skewness: 0.6,
            kurtosis: 3.2,
        };
        let mu = central_to_raw_moments(&s);
        let opts = MaxEntOptions::default();
        let (a, b) = (-3.0, 4.0);
        let lam = solve_maxent(&mu, a, b, &opts).unwrap();
        // Integrate u-moments on [-1,1] and map back to x to verify.
        let gl = GaussLegendre::new(128).unwrap();
        let c = 0.5 * (a + b);
        let h = 0.5 * (b - a);
        let pdf_u = |u: f64| -> f64 {
            let mut e = 0.0;
            let mut up = 1.0;
            for &l in &lam {
                e += l * up;
                up *= u;
            }
            e.exp()
        };
        for (k, &mu_k) in mu.iter().enumerate().take(5) {
            let got = gl.integrate(-1.0, 1.0, |u| (c + h * u).powi(k as i32) * pdf_u(u));
            assert!(
                (got - mu_k).abs() < 1e-6 * (1.0 + mu_k.abs()),
                "moment {k}: {got} vs {mu_k}"
            );
        }
    }

    #[test]
    fn infeasible_moments_are_rejected() {
        let o = MaxEntOptions::default();
        let infeasible = |mu: &[f64], a: f64, b: f64| match solve_maxent(mu, a, b, &o) {
            Err(StatsError::InvalidParameter { detail, .. }) => {
                detail.starts_with("moments infeasible on support")
            }
            _ => false,
        };
        // Mean outside the support.
        assert!(infeasible(&[1.0, 5.0, 26.0], -1.0, 1.0));
        // Variance above the Popoviciu bound for the support.
        assert!(infeasible(&[1.0, 0.0, 50.0], -1.0, 1.0));
        // Kurtosis above the μ ± 3.5σ ceiling; the first three moments
        // still solve.
        for (skew, kurt) in [(2.3, 17.4), (0.0, 12.5), (-3.1, 28.0)] {
            let mu = central_to_raw_moments(&MomentSummary {
                mean: 1.0,
                std: 0.05,
                skewness: skew,
                kurtosis: kurt,
            });
            assert!(infeasible(&mu, 0.825, 1.175), "γ₁ {skew}, β₂ {kurt}");
            assert!(solve_maxent(&mu[..3], 0.825, 1.175, &o).is_ok());
        }
    }

    /// The μ ± 3.5σ support of `MaxEntRepr::decode` carries kurtosis up
    /// to `12.25 − γ₁²/11.25`.
    fn ceiling(skew: f64) -> f64 {
        12.25 - skew * skew / 11.25
    }

    /// Mapped moments of the summary (mean 1, σ 0.05, `skew`, `kurt`) on
    /// its μ ± 3.5σ support, as `MaxEntRepr::decode` poses them.
    fn ceiling_target(skew: f64, kurt: f64) -> Vec<f64> {
        let s = MomentSummary {
            mean: 1.0,
            std: 0.05,
            skewness: skew,
            kurtosis: kurt,
        };
        unit_target(&central_to_raw_moments(&s), 0.825, 1.175).unwrap()
    }

    /// Runs the certificate and the unscreened Newton loop on every
    /// `(skew, kurt)` target; asserts that no target the certificate
    /// rejects is one Newton solves, and returns how many were rejected
    /// and how many solved.
    fn certificate_soundness(grid: &[(f64, f64)], opts: &MaxEntOptions) -> (usize, usize) {
        let rule = unit_rule(opts.quad_order).unwrap();
        let (mut rejected, mut solved) = (0, 0);
        for &(skew, kurt) in grid {
            let target = ceiling_target(skew, kurt);
            let reject = certify_feasible(&target, opts.tol).is_err();
            let solve = newton(&target, &rule, opts).is_ok();
            assert!(
                !(reject && solve),
                "γ₁ {skew}, β₂ {kurt} (ceiling {}): rejected, yet Newton solves it at tol {}",
                ceiling(skew),
                opts.tol
            );
            rejected += usize::from(reject);
            solved += usize::from(solve);
        }
        (rejected, solved)
    }

    /// How many `(skew, kurt)` targets lie above the ceiling.
    fn above_ceiling(grid: &[(f64, f64)]) -> usize {
        grid.iter().filter(|&&(g, b)| b > ceiling(g)).count()
    }

    /// `(skew, kurt)` targets for every skew: kurtosis at the offsets
    /// `near` from the ceiling, then `far` evenly spaced steps from the
    /// last of them up to 35.
    fn straddling_grid(skews: &[f64], near: &[f64], far: usize) -> Vec<(f64, f64)> {
        let mut grid = Vec::new();
        for &skew in skews {
            let c = ceiling(skew);
            grid.extend(near.iter().map(|d| (skew, c + d)));
            let top = c + near.last().copied().unwrap_or(0.0);
            grid.extend((1..=far).map(|i| (skew, top + (35.0 - top) * i as f64 / far as f64)));
        }
        grid
    }

    #[test]
    fn certificate_only_rejects_targets_newton_fails() {
        let skews: Vec<f64> = (0..=8).map(|i| f64::from(i) * 0.5).collect();
        let grid = straddling_grid(&skews, &[-0.5, -0.05, 0.05], 3);
        let (rejected, solved) = certificate_soundness(&grid, &MaxEntOptions::default());
        // At the default tol, ε is far below the grid's kurtosis steps:
        // every target above the ceiling is caught before Newton.
        assert_eq!(rejected, above_ceiling(&grid));
        assert!(solved >= 10, "{solved} solved");
        // The derived ε follows a looser tolerance.
        let loose = MaxEntOptions {
            tol: 1e-7,
            ..MaxEntOptions::default()
        };
        let grid = straddling_grid(&[0.0, 1.716], &[-0.05, -0.005, 0.005, 0.05], 2);
        let (rejected, solved) = certificate_soundness(&grid, &loose);
        assert!(
            rejected >= 4 && solved >= 2,
            "{rejected} rejected, {solved} solved"
        );
    }

    #[test]
    #[ignore = "dense grid, ~1,650 Newton runs; run in release"]
    fn certificate_only_rejects_targets_newton_fails_dense() {
        let skews: Vec<f64> = (0..=40).map(|i| f64::from(i) * 0.1).collect();
        let near = [
            -0.5, -0.2, -0.1, -0.05, -0.02, -0.01, -0.005, 0.0, 0.005, 0.01, 0.02, 0.05, 0.1,
        ];
        let grid = straddling_grid(&skews, &near, 24);
        let (rejected, solved) = certificate_soundness(&grid, &MaxEntOptions::default());
        assert_eq!(rejected, above_ceiling(&grid));
        assert!(solved >= 100, "{solved} solved");
        for tol in [1e-7, 1e-9] {
            let opts = MaxEntOptions {
                tol,
                ..MaxEntOptions::default()
            };
            let grid = straddling_grid(&[0.0, 0.8, 1.716, 2.5], &near, 4);
            certificate_soundness(&grid, &opts);
        }
    }

    #[test]
    fn a_newton_failure_reports_the_iterations_it_ran() {
        // Just under the ceiling (11.988): the certificate admits it, and
        // the damped step stops improving long before the budget runs out.
        let s = MomentSummary {
            mean: 1.0,
            std: 0.05,
            skewness: 1.716,
            kurtosis: 11.976,
        };
        let opts = MaxEntOptions::default();
        match solve_maxent(&central_to_raw_moments(&s), 0.825, 1.175, &opts) {
            Err(StatsError::NoConvergence { iterations, .. }) => {
                assert!(
                    iterations > 0 && iterations < opts.max_iter,
                    "{iterations} iterations"
                )
            }
            other => panic!("expected a Newton failure, got {other:?}"),
        }
    }

    #[test]
    fn the_quadrature_rule_is_built_once_per_order() {
        let first = unit_rule(96).unwrap();
        assert!(Arc::ptr_eq(&first, &unit_rule(96).unwrap()));
        assert_eq!(*first, *GaussLegendre::new(96).unwrap().mapped(-1.0, 1.0));
        let other = unit_rule(32).unwrap();
        assert_eq!(other.len(), 32);
        assert!(Arc::ptr_eq(&other, &unit_rule(32).unwrap()));
        assert!(unit_rule(0).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let o = MaxEntOptions::default();
        assert!(solve_maxent(&[1.0], -1.0, 1.0, &o).is_err());
        assert!(solve_maxent(&[2.0, 0.0, 0.3], -1.0, 1.0, &o).is_err());
        assert!(solve_maxent(&[1.0, f64::NAN, 0.3], -1.0, 1.0, &o).is_err());
        assert!(solve_maxent(&[1.0, 0.0, 0.3], 1.0, -1.0, &o).is_err());
    }
}
