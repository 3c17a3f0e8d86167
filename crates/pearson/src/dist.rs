//! Fitting, sampling, and density evaluation for Pearson distributions.
//!
//! Everything is done in two coordinate systems: the family parameters are
//! recovered for the *standardized* variable (zero mean, unit variance,
//! target skewness/kurtosis) exactly as MATLAB's `pearsrnd` does, and the
//! public API shifts/scales back to the caller's mean and standard
//! deviation.

use std::sync::OnceLock;

use rand::Rng;

use pv_stats::moments::MomentSummary;
use pv_stats::samplers::{standard_normal, Beta, Gamma, Sampler};
use pv_stats::special::{ln_beta, ln_gamma};
use pv_stats::StatsError;

use crate::classify::{classify, pearson_coeffs, PearsonType};
use crate::Result;

/// Number of grid intervals used by the type IV inverse-CDF sampler.
const TYPE4_GRID: usize = 4096;

/// Buckets of the type IV sampler's guide table. A power of two, so the
/// bucket of `u`, `(u · GUIDE_BUCKETS) as usize`, is exact.
const GUIDE_BUCKETS: usize = 4096;

/// Standardized-family parameters, one variant per Pearson type.
#[derive(Debug, Clone)]
enum StdKind {
    /// Point mass at zero (σ = 0 input).
    Degenerate,
    /// Standard normal.
    Normal,
    /// Beta(p, q) stretched onto `[a1, a2]` (types I and II).
    BetaOn { a1: f64, a2: f64, p: f64, q: f64 },
    /// `sign · (Gamma(shape, 1) − shape) / √shape` (type III).
    GammaShifted { shape: f64, sign: f64 },
    /// Type IV: density ∝ `[1+((x−λ)/a)²]^{−m} e^{−ν arctan((x−λ)/a)}`,
    /// sampled by inverse CDF on the compact angle substitution
    /// `φ = arctan((x−λ)/a)`.
    TypeIv {
        m: f64,
        nu: f64,
        a: f64,
        lambda: f64,
        /// The φ-space CDF on the shared angle grid.
        cdf: AngleCdf,
        /// Normalization constant of the φ-space density.
        norm: f64,
    },
    /// Inverse gamma: `x = scale / Gamma(shape, 1) − shift` (type V).
    InvGamma { shape: f64, scale: f64, shift: f64 },
    /// Beta-prime: `x = sign · (a2 + (a2 − a1) · W)`, `W ~ β′(α, β)`
    /// (type VI).
    BetaPrime {
        a1: f64,
        a2: f64,
        alpha: f64,
        beta: f64,
        sign: f64,
    },
    /// Scaled Student-t: `x = √((ν−2)/ν) · t_ν` (type VII).
    ScaledT { nu: f64 },
}

/// A fitted Pearson-system distribution in the caller's coordinates.
///
/// Fit via [`PearsonDist::fit`]; then [`PearsonDist::sample_n`] is the
/// `pearsrnd` call and [`PearsonDist::pdf`] evaluates the density (used by
/// tests and plotting).
#[derive(Debug, Clone)]
pub struct PearsonDist {
    mean: f64,
    std: f64,
    ptype: PearsonType,
    kind: StdKind,
}

impl PearsonDist {
    /// Fits the Pearson family member with the given four moments.
    ///
    /// Infeasible specifications (kurtosis below the hard bound
    /// `skew² + 1`) are projected to the closest feasible point first —
    /// regression models routinely predict such vectors and the pipeline
    /// must still reconstruct a distribution.
    ///
    /// # Errors
    /// Fails when the moments are non-finite.
    pub fn fit(spec: MomentSummary) -> Result<Self> {
        if !(spec.mean.is_finite()
            && spec.std.is_finite()
            && spec.skewness.is_finite()
            && spec.kurtosis.is_finite())
        {
            return Err(StatsError::NonFinite {
                what: "PearsonDist::fit",
            });
        }
        let spec = spec.clamped_feasible(1e-3);
        let ptype = classify(&spec);
        let kind = match ptype {
            PearsonType::Degenerate => StdKind::Degenerate,
            PearsonType::Zero => StdKind::Normal,
            PearsonType::I | PearsonType::II => fit_beta_on(&spec)?,
            PearsonType::III => StdKind::GammaShifted {
                shape: 4.0 / (spec.skewness * spec.skewness),
                sign: spec.skewness.signum(),
            },
            PearsonType::IV => fit_type_iv(&spec)?,
            PearsonType::V => fit_type_v(&spec)?,
            PearsonType::VI => fit_type_vi(&spec)?,
            PearsonType::VII => StdKind::ScaledT {
                nu: 4.0 + 6.0 / (spec.kurtosis - 3.0),
            },
        };
        Ok(PearsonDist {
            mean: spec.mean,
            std: spec.std,
            ptype,
            kind,
        })
    }

    /// The Pearson type the moments classified into.
    pub fn pearson_type(&self) -> PearsonType {
        self.ptype
    }

    /// Target mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Target standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * self.sample_std(rng)
    }

    /// Draws `n` variates — the `pearsrnd(mu, sigma, skew, kurt, n, 1)`
    /// equivalent.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Density at `x` in the caller's coordinates. The degenerate
    /// distribution reports `+∞` at its atom and 0 elsewhere.
    pub fn pdf(&self, x: f64) -> f64 {
        if matches!(self.kind, StdKind::Degenerate) {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        let z = (x - self.mean) / self.std;
        self.pdf_std(z) / self.std
    }

    fn sample_std<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match &self.kind {
            StdKind::Degenerate => 0.0,
            StdKind::Normal => standard_normal(rng),
            StdKind::BetaOn { a1, a2, p, q } => {
                let b = Beta {
                    alpha: *p,
                    beta: *q,
                };
                a1 + (a2 - a1) * b.sample(rng)
            }
            StdKind::GammaShifted { shape, sign } => {
                let g = Gamma {
                    shape: *shape,
                    scale: 1.0,
                };
                sign * (g.sample(rng) - shape) / shape.sqrt()
            }
            StdKind::TypeIv { a, lambda, cdf, .. } => {
                let u: f64 = rng.gen();
                lambda + a * cdf.inverse(u).tan()
            }
            StdKind::InvGamma {
                shape,
                scale,
                shift,
            } => {
                let g = Gamma {
                    shape: *shape,
                    scale: 1.0,
                };
                let z = g.sample(rng).max(1e-300);
                scale / z - shift
            }
            StdKind::BetaPrime {
                a1,
                a2,
                alpha,
                beta,
                sign,
            } => {
                let gx = Gamma {
                    shape: *alpha,
                    scale: 1.0,
                }
                .sample(rng);
                let gy = Gamma {
                    shape: *beta,
                    scale: 1.0,
                }
                .sample(rng)
                .max(1e-300);
                let w = gx / gy;
                sign * (a2 + (a2 - a1) * w)
            }
            StdKind::ScaledT { nu } => {
                let z = standard_normal(rng);
                let w = Gamma {
                    shape: nu / 2.0,
                    scale: 2.0,
                }
                .sample(rng)
                .max(1e-300);
                ((nu - 2.0) / nu).sqrt() * z / (w / nu).sqrt()
            }
        }
    }

    /// Standardized density.
    fn pdf_std(&self, z: f64) -> f64 {
        match &self.kind {
            StdKind::Degenerate => 0.0,
            StdKind::Normal => pv_stats::special::normal_pdf(z),
            StdKind::BetaOn { a1, a2, p, q } => {
                if z <= *a1 || z >= *a2 {
                    return 0.0;
                }
                let u = (z - a1) / (a2 - a1);
                let ln_pdf = (p - 1.0) * u.ln() + (q - 1.0) * (1.0 - u).ln()
                    - ln_beta(*p, *q)
                    - (a2 - a1).ln();
                ln_pdf.exp()
            }
            StdKind::GammaShifted { shape, sign } => {
                // y = shape + sign·z·√shape ~ Gamma(shape, 1)
                let y = shape + sign * z * shape.sqrt();
                if y <= 0.0 {
                    return 0.0;
                }
                let ln_pdf = (shape - 1.0) * y.ln() - y - ln_gamma(*shape);
                ln_pdf.exp() * shape.sqrt()
            }
            StdKind::TypeIv {
                m,
                nu,
                a,
                lambda,
                norm,
                ..
            } => {
                let t = (z - lambda) / a;
                let ln_pdf = -m * (1.0 + t * t).ln() - nu * t.atan();
                ln_pdf.exp() / (norm * a)
            }
            StdKind::InvGamma {
                shape,
                scale,
                shift,
            } => {
                // z = scale/y − shift with y ~ Gamma(shape, 1)
                let y = scale / (z + shift);
                if y <= 0.0 {
                    return 0.0;
                }
                let ln_gpdf = (shape - 1.0) * y.ln() - y - ln_gamma(*shape);
                // |dy/dz| = scale/(z+shift)² = y²/scale
                ln_gpdf.exp() * y * y / scale.abs()
            }
            StdKind::BetaPrime {
                a1,
                a2,
                alpha,
                beta,
                sign,
            } => {
                let zz = sign * z;
                let w = (zz - a2) / (a2 - a1);
                if w <= 0.0 {
                    return 0.0;
                }
                let ln_pdf = (alpha - 1.0) * w.ln()
                    - (alpha + beta) * (1.0 + w).ln()
                    - ln_beta(*alpha, *beta)
                    - (a2 - a1).ln();
                ln_pdf.exp()
            }
            StdKind::ScaledT { nu } => {
                let s = ((nu - 2.0) / nu).sqrt();
                let t = z / s;
                let ln_pdf = ln_gamma((nu + 1.0) / 2.0)
                    - ln_gamma(nu / 2.0)
                    - 0.5 * (nu * std::f64::consts::PI).ln()
                    - (nu + 1.0) / 2.0 * (1.0 + t * t / nu).ln();
                ln_pdf.exp() / s
            }
        }
    }
}

/// Types I and II: roots of the Pearson quadratic give the support, the
/// partial-fraction exponents give the beta shapes.
fn fit_beta_on(spec: &MomentSummary) -> Result<StdKind> {
    let (b0, b1, b2, denom) = pearson_coeffs(spec.skewness, spec.kurtosis);
    let disc = b1 * b1 - 4.0 * b0 * b2;
    if disc <= 0.0 || b2 == 0.0 {
        return Err(StatsError::invalid(
            "PearsonDist::fit(type I)",
            format!("no real roots: b=({b0}, {b1}, {b2})"),
        ));
    }
    let sq = disc.sqrt();
    let r1 = (-b1 - sq) / (2.0 * b2);
    let r2 = (-b1 + sq) / (2.0 * b2);
    let (a1, a2) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
    // Denominator-free exponent formulas: mᵢ = (b1 + aᵢ·denom)/(b2·span).
    // Exact for every (β₁, β₂), including the denom = 0 line the uniform
    // distribution sits on.
    let span = a2 - a1;
    let m1 = (b1 + a1 * denom) / (b2 * span);
    let m2 = -(b1 + a2 * denom) / (b2 * span);
    // Beta shapes; exponents can graze −1 near the feasibility boundary,
    // clamp to keep the sampler valid.
    let p = (m1 + 1.0).max(1e-4);
    let q = (m2 + 1.0).max(1e-4);
    Ok(StdKind::BetaOn { a1, a2, p, q })
}

/// Type IV: Heinrich's parametrization plus a precomputed inverse-CDF grid
/// on the angle substitution.
fn fit_type_iv(spec: &MomentSummary) -> Result<StdKind> {
    let beta1 = spec.skewness * spec.skewness;
    let beta2 = spec.kurtosis;
    let denom = 2.0 * beta2 - 3.0 * beta1 - 6.0;
    let r = 6.0 * (beta2 - beta1 - 1.0) / denom;
    let m = 1.0 + r / 2.0;
    let disc = 16.0 * (r - 1.0) - beta1 * (r - 2.0) * (r - 2.0);
    if disc <= 0.0 || disc.is_nan() || r <= 2.0 || r.is_nan() {
        return Err(StatsError::invalid(
            "PearsonDist::fit(type IV)",
            format!("invalid parameters: r={r}, disc={disc}"),
        ));
    }
    let nu = -r * (r - 2.0) * spec.skewness / disc.sqrt();
    let a = disc.sqrt() / 4.0;
    let lambda = -(r - 2.0) * spec.skewness / 4.0;

    let (cdf, norm) = angle_cdf(r, nu)?;
    Ok(StdKind::TypeIv {
        m,
        nu,
        a,
        lambda,
        cdf,
        norm,
    })
}

/// The CDF of the φ-space density g(φ) ∝ cos^r(φ) · e^{−νφ} on the
/// shared angle grid, and the normalization constant ∫ cos^r φ e^{−νφ} dφ.
/// The support (−π/2, π/2) is compact, so a trapezoid CDF grid is exact
/// enough for sampling. The log-density `r · ln cos φ − νφ` is computed
/// once per grid point, with its peak subtracted for numerical stability.
fn angle_cdf(r: f64, nu: f64) -> Result<(AngleCdf, f64)> {
    let angles = angle_grid();
    let mut cdf: Vec<f64> = angles
        .ln_cos
        .iter()
        .zip(&angles.phi)
        .map(|(ln_cos, phi)| r * ln_cos - nu * phi)
        .collect();
    let peak = cdf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    let mut prev_g = 0.0;
    for (i, c) in cdf.iter_mut().enumerate() {
        let g = (*c - peak).exp();
        if i > 0 {
            total += 0.5 * (g + prev_g) * angles.h;
        }
        *c = total;
        prev_g = g;
    }
    if total <= 0.0 || total.is_nan() {
        return Err(StatsError::invalid(
            "PearsonDist::fit(type IV)",
            "degenerate angle density",
        ));
    }
    for c in cdf.iter_mut() {
        *c /= total;
    }
    // Normalization constant for pdf(): ∫ cos^r φ e^{−νφ} dφ = total·e^peak
    Ok((AngleCdf::new(cdf), total * peak.exp()))
}

/// The type IV angle grid `φᵢ = −π/2 + i·h`, `h = π / TYPE4_GRID`, and
/// `ln cos φᵢ` (cosine floored at 1e-300). It depends on no parameter, so
/// one process-wide table serves every fit.
struct AngleGrid {
    h: f64,
    phi: Vec<f64>,
    ln_cos: Vec<f64>,
}

fn angle_grid() -> &'static AngleGrid {
    static GRID: OnceLock<AngleGrid> = OnceLock::new();
    GRID.get_or_init(|| {
        let half_pi = std::f64::consts::FRAC_PI_2;
        let h = 2.0 * half_pi / TYPE4_GRID as f64;
        let phi: Vec<f64> = (0..=TYPE4_GRID).map(|i| -half_pi + i as f64 * h).collect();
        let ln_cos = phi.iter().map(|p| p.cos().max(1e-300).ln()).collect();
        AngleGrid { h, phi, ln_cos }
    })
}

/// A normalized CDF column over the angle grid, non-decreasing from 0 to
/// 1, with its guide table: `guide[j]` is the first index past the
/// origin whose CDF reaches `j / GUIDE_BUCKETS`.
#[derive(Debug, Clone)]
struct AngleCdf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl AngleCdf {
    fn new(cdf: Vec<f64>) -> Self {
        let last = cdf.len() - 1;
        let mut i = 1;
        let guide = (0..=GUIDE_BUCKETS)
            .map(|j| {
                let edge = j as f64 / GUIDE_BUCKETS as f64;
                while i < last && cdf[i] < edge {
                    i += 1;
                }
                i as u32
            })
            .collect();
        AngleCdf { cdf, guide }
    }

    /// The upper end of the grid interval `u` falls in: the first index
    /// past the origin whose CDF reaches `u`, or the last index. `u` must
    /// lie in [0, 1].
    fn bracket(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut hi = self.guide[(u * GUIDE_BUCKETS as f64) as usize] as usize;
        while hi < last && self.cdf[hi] < u {
            hi += 1;
        }
        hi
    }

    /// Linear-interpolated inverse: the angle at which the CDF reaches `u`.
    fn inverse(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let hi = self.bracket(u);
        let phi = &angle_grid().phi;
        let (x0, c0) = (phi[hi - 1], self.cdf[hi - 1]);
        let (x1, c1) = (phi[hi], self.cdf[hi]);
        if c1 <= c0 {
            return x0;
        }
        x0 + (x1 - x0) * (u - c0) / (c1 - c0)
    }
}

/// Type V (κ = 1): the Pearson quadratic is a perfect square; the density
/// reduces to an inverse gamma in the shifted coordinate.
fn fit_type_v(spec: &MomentSummary) -> Result<StdKind> {
    let (_, b1, b2, denom) = pearson_coeffs(spec.skewness, spec.kurtosis);
    if b2 == 0.0 || denom == 0.0 {
        return Err(StatsError::invalid(
            "PearsonDist::fit(type V)",
            "degenerate coefficients",
        ));
    }
    let c1 = b1 / denom;
    let c2 = b2 / denom;
    let c1_half = c1 / (2.0 * c2);
    let shape = 1.0 / c2 - 1.0;
    let scale = -(c1 - c1_half) / c2;
    if shape <= 0.0 || shape.is_nan() {
        return Err(StatsError::invalid(
            "PearsonDist::fit(type V)",
            format!("non-positive shape {shape}"),
        ));
    }
    Ok(StdKind::InvGamma {
        shape,
        scale,
        shift: c1_half,
    })
}

/// Type VI (κ > 1): both quadratic roots on the same side; beta-prime in
/// the shifted/scaled coordinate. Negative skew is handled by mirroring.
fn fit_type_vi(spec: &MomentSummary) -> Result<StdKind> {
    let sign = if spec.skewness < 0.0 { -1.0 } else { 1.0 };
    let skew = spec.skewness.abs();
    let (b0, b1, b2, denom) = pearson_coeffs(skew, spec.kurtosis);
    let disc = b1 * b1 - 4.0 * b0 * b2;
    if disc <= 0.0 || b2 == 0.0 {
        return Err(StatsError::invalid(
            "PearsonDist::fit(type VI)",
            format!("no real roots: b=({b0}, {b1}, {b2})"),
        ));
    }
    let sq = disc.sqrt();
    let r1 = (-b1 - sq) / (2.0 * b2);
    let r2 = (-b1 + sq) / (2.0 * b2);
    let (a1, a2) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
    let span = a2 - a1;
    let m1 = (b1 + a1 * denom) / (b2 * span);
    let m2 = -(b1 + a2 * denom) / (b2 * span);
    let alpha = (m2 + 1.0).max(1e-4);
    let beta = (-(m1 + m2) - 1.0).max(1e-4);
    Ok(StdKind::BetaPrime {
        a1,
        a2,
        alpha,
        beta,
        sign,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_stats::rng::Xoshiro256pp;
    use rand::{Rng, SeedableRng};

    const N: usize = 200_000;

    fn spec(mean: f64, std: f64, skew: f64, kurt: f64) -> MomentSummary {
        MomentSummary {
            mean,
            std,
            skewness: skew,
            kurtosis: kurt,
        }
    }

    /// Fit, sample, and verify that the sample moments round-trip.
    fn roundtrip(s: MomentSummary, seed: u64, tol_mk: (f64, f64, f64, f64)) {
        let d = PearsonDist::fit(s).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let xs = d.sample_n(&mut rng, N);
        assert!(xs.iter().all(|x| x.is_finite()), "non-finite samples");
        let got = MomentSummary::from_sample(&xs).unwrap();
        let (tm, ts, tg, tk) = tol_mk;
        assert!(
            (got.mean - s.mean).abs() < tm,
            "{:?}: mean {} vs {}",
            d.pearson_type(),
            got.mean,
            s.mean
        );
        assert!(
            (got.std - s.std).abs() / s.std < ts,
            "{:?}: std {} vs {}",
            d.pearson_type(),
            got.std,
            s.std
        );
        assert!(
            (got.skewness - s.skewness).abs() < tg,
            "{:?}: skew {} vs {}",
            d.pearson_type(),
            got.skewness,
            s.skewness
        );
        assert!(
            (got.kurtosis - s.kurtosis).abs() < tk,
            "{:?}: kurt {} vs {}",
            d.pearson_type(),
            got.kurtosis,
            s.kurtosis
        );
    }

    #[test]
    fn type_zero_roundtrip() {
        roundtrip(spec(2.0, 0.5, 0.0, 3.0), 1, (0.01, 0.01, 0.05, 0.1));
    }

    #[test]
    fn type_one_roundtrip() {
        // Beta(2,5) moments: skew ≈ 0.5962, kurt ≈ 2.8776
        roundtrip(spec(0.0, 1.0, 0.5962, 2.8776), 2, (0.01, 0.01, 0.05, 0.1));
    }

    #[test]
    fn type_one_strongly_bimodal_edge() {
        // Near the β₂ = β₁ + 1 boundary: U-shaped beta.
        roundtrip(spec(1.0, 0.2, 0.0, 1.3), 3, (0.005, 0.02, 0.05, 0.1));
    }

    #[test]
    fn type_two_roundtrip() {
        // Uniform-like: kurtosis 1.8.
        roundtrip(spec(5.0, 2.0, 0.0, 1.8), 4, (0.02, 0.01, 0.05, 0.05));
    }

    #[test]
    fn type_three_roundtrip() {
        // Gamma line with k = 4: skew = 1, kurt = 4.5.
        roundtrip(spec(0.0, 1.0, 1.0, 4.5), 5, (0.01, 0.02, 0.1, 0.4));
    }

    #[test]
    fn type_three_negative_skew() {
        roundtrip(spec(0.0, 1.0, -1.0, 4.5), 6, (0.01, 0.02, 0.1, 0.4));
    }

    #[test]
    fn type_four_roundtrip() {
        roundtrip(spec(0.0, 1.0, 0.8, 4.5), 7, (0.02, 0.02, 0.1, 0.4));
    }

    #[test]
    fn type_four_negative_skew() {
        roundtrip(spec(10.0, 3.0, -0.8, 4.5), 8, (0.05, 0.02, 0.1, 0.4));
    }

    #[test]
    fn type_six_roundtrip() {
        // Log-normal-ish moments (σ² = 0.25): skew ≈ 1.7502, kurt ≈ 8.898.
        roundtrip(spec(0.0, 1.0, 1.7502, 8.898), 9, (0.02, 0.05, 0.3, 2.5));
    }

    #[test]
    fn type_six_negative_skew() {
        roundtrip(spec(0.0, 1.0, -1.7502, 8.898), 10, (0.02, 0.05, 0.3, 2.5));
    }

    #[test]
    fn type_seven_roundtrip() {
        // kurt 4 → ν = 10: all four moments exist comfortably.
        roundtrip(spec(0.0, 1.0, 0.0, 4.0), 11, (0.01, 0.02, 0.1, 0.5));
    }

    #[test]
    fn degenerate_spec_yields_constant() {
        let d = PearsonDist::fit(spec(3.0, 0.0, 0.0, 3.0)).unwrap();
        assert_eq!(d.pearson_type(), PearsonType::Degenerate);
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let xs = d.sample_n(&mut rng, 100);
        assert!(xs.iter().all(|&x| x == 3.0));
        assert_eq!(d.pdf(2.9), 0.0);
        assert_eq!(d.pdf(3.0), f64::INFINITY);
    }

    #[test]
    fn infeasible_moments_are_projected_not_rejected() {
        // kurt < skew² + 1 is impossible; fit must still succeed.
        let d = PearsonDist::fit(spec(0.0, 1.0, 2.0, 2.0)).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let xs = d.sample_n(&mut rng, 10_000);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn non_finite_moments_are_rejected() {
        assert!(PearsonDist::fit(spec(f64::NAN, 1.0, 0.0, 3.0)).is_err());
        assert!(PearsonDist::fit(spec(0.0, f64::INFINITY, 0.0, 3.0)).is_err());
    }

    #[test]
    fn pdf_integrates_to_one_for_each_type() {
        let cases = [
            spec(0.0, 1.0, 0.0, 3.0),       // 0
            spec(0.0, 1.0, 0.5962, 2.8776), // I
            spec(0.0, 1.0, 0.0, 2.0),       // II
            spec(0.0, 1.0, 1.0, 4.5),       // III
            spec(0.0, 1.0, 0.8, 4.5),       // IV
            spec(0.0, 1.0, 1.7502, 8.898),  // VI
            spec(0.0, 1.0, 0.0, 4.0),       // VII
        ];
        for s in cases {
            let d = PearsonDist::fit(s).unwrap();
            // Integrate the pdf over a generous range.
            let (lo, hi, n) = (-30.0, 30.0, 60_000);
            let h = (hi - lo) / n as f64;
            let integral: f64 = (0..n).map(|i| d.pdf(lo + (i as f64 + 0.5) * h) * h).sum();
            assert!(
                (integral - 1.0).abs() < 0.02,
                "{:?}: ∫pdf = {integral}",
                d.pearson_type()
            );
        }
    }

    #[test]
    fn pdf_matches_sample_histogram_for_type_iv() {
        let s = spec(0.0, 1.0, 0.8, 4.5);
        let d = PearsonDist::fit(s).unwrap();
        assert_eq!(d.pearson_type(), PearsonType::IV);
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let xs = d.sample_n(&mut rng, N);
        let h = pv_stats::histogram::Histogram::from_data_with_range(&xs, -4.0, 4.0, 40).unwrap();
        // Compare a few interior bins' empirical density to the pdf.
        for i in [10, 20, 30] {
            let x = h.bin_center(i);
            let emp = h.density_at(x) * (xs.len() as f64 / h.total()); // correct clamped mass
            assert!(
                (emp - d.pdf(x)).abs() < 0.03 + 0.1 * d.pdf(x),
                "bin {i}: emp {emp} vs pdf {}",
                d.pdf(x)
            );
        }
    }

    #[test]
    fn negative_skew_mirrors_positive() {
        let dp = PearsonDist::fit(spec(0.0, 1.0, 1.2, 5.5)).unwrap();
        let dn = PearsonDist::fit(spec(0.0, 1.0, -1.2, 5.5)).unwrap();
        assert_eq!(dp.pearson_type(), dn.pearson_type());
        for x in [-2.0, -1.0, 0.0, 0.5, 1.5] {
            assert!(
                (dp.pdf(x) - dn.pdf(-x)).abs() < 1e-9,
                "pdf mirror at {x}: {} vs {}",
                dp.pdf(x),
                dn.pdf(-x)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = PearsonDist::fit(spec(1.0, 0.1, 0.5, 3.5)).unwrap();
        let mut r1 = Xoshiro256pp::seed_from_u64(42);
        let mut r2 = Xoshiro256pp::seed_from_u64(42);
        assert_eq!(d.sample_n(&mut r1, 100), d.sample_n(&mut r2, 100));
    }

    #[test]
    fn inverse_cdf_interpolates_on_the_angle_grid() {
        let half_pi = std::f64::consts::FRAC_PI_2;
        let uniform = AngleCdf::new(
            (0..=TYPE4_GRID)
                .map(|i| i as f64 / TYPE4_GRID as f64)
                .collect(),
        );
        assert_eq!(uniform.inverse(0.0), -half_pi);
        assert_eq!(uniform.inverse(1.0), angle_grid().phi[TYPE4_GRID]);
        assert!((uniform.inverse(0.25) + 0.5 * half_pi).abs() < 1e-12);
        assert!((uniform.inverse(0.6) - 0.2 * half_pi).abs() < 1e-12);
    }

    /// The grid the angle table replaced: `r · ln cos φ − νφ` evaluated
    /// point by point (once for the peak, once for the CDF), as every type
    /// IV fit computed it before the table existed.
    fn per_point_grid(r: f64, nu: f64) -> (Vec<f64>, f64) {
        let half_pi = std::f64::consts::FRAC_PI_2;
        let n = TYPE4_GRID;
        let h = 2.0 * half_pi / n as f64;
        let ln_g = |phi: f64| r * phi.cos().max(1e-300).ln() - nu * phi;
        let peak = (0..=n)
            .map(|i| ln_g(-half_pi + i as f64 * h))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut cdf = Vec::with_capacity(n + 1);
        let mut total = 0.0;
        let mut prev_g = 0.0;
        for i in 0..=n {
            let phi = -half_pi + i as f64 * h;
            let g = (ln_g(phi) - peak).exp();
            if i > 0 {
                total += 0.5 * (g + prev_g) * h;
            }
            cdf.push(total);
            prev_g = g;
        }
        let cdf = cdf.into_iter().map(|c| c / total).collect();
        (cdf, total * peak.exp())
    }

    /// The binary search the guide table replaced: the upper end of the
    /// bracket `(lo, hi)` with `cdf[lo] < u ≤ cdf[hi]`.
    fn bisection_bracket(cdf: &[f64], u: f64) -> usize {
        let mut lo = 0usize;
        let mut hi = cdf.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if cdf[mid] < u {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// `(r, ν)` of a fitted type IV distribution.
    fn type_iv_shape(s: MomentSummary) -> (f64, f64) {
        match PearsonDist::fit(s).unwrap().kind {
            StdKind::TypeIv { m, nu, .. } => (2.0 * (m - 1.0), nu),
            other => panic!("{s:?} fitted {other:?}"),
        }
    }

    /// Type IV summaries at the edges the sampler must survive: next to
    /// the IV/VI boundary (κ → 1⁻, |ν| up to ~4·10⁵, where the angle
    /// log-density peaks at the last grid point), at β₁ just past the
    /// symmetric tolerance, and mirrored.
    fn type_iv_edges() -> Vec<MomentSummary> {
        vec![
            spec(1.0, 0.05, 1.0, 4.970388366322377),
            spec(1.0, 0.05, 2.0, 12.134446500564898),
            spec(1.0, 0.05, -2.0, 12.134446500564898),
            spec(1.0, 0.05, 0.5, 3.474633967767722),
            spec(1.0, 0.05, 2e-10, 4.0),
            spec(1.0, 0.05, 0.8, 5.0),
        ]
    }

    /// A seeded spread of type IV shapes: random summaries that classify
    /// as type IV, plus the edge summaries.
    fn type_iv_spread() -> Vec<(f64, f64)> {
        let mut rng = Xoshiro256pp::seed_from_u64(25);
        let mut shapes: Vec<(f64, f64)> = type_iv_edges().into_iter().map(type_iv_shape).collect();
        while shapes.len() < 64 {
            let skew: f64 = rng.gen_range(-3.0..3.0);
            let kurt = skew * skew + 1.0 + rng.gen_range(0.0..40.0);
            let s = spec(1.0, 0.05, skew, kurt);
            if classify(&s) == PearsonType::IV {
                shapes.push(type_iv_shape(s));
            }
        }
        shapes
    }

    #[test]
    fn angle_table_grid_is_bit_identical_to_the_per_point_formula() {
        let (r, nu) = type_iv_shape(spec(1.0, 0.05, 2.0, 12.134446500564898));
        let ln_g: Vec<f64> = angle_grid()
            .phi
            .iter()
            .map(|phi| r * phi.cos().max(1e-300).ln() - nu * phi)
            .collect();
        let argmax = (0..ln_g.len()).fold(0, |best, i| if ln_g[i] > ln_g[best] { i } else { best });
        assert_eq!(
            argmax, TYPE4_GRID,
            "the edge summary must peak at the grid end"
        );
        for (r, nu) in type_iv_spread() {
            let (table, norm) = angle_cdf(r, nu).unwrap();
            let (reference, reference_norm) = per_point_grid(r, nu);
            assert_eq!(table.cdf.len(), reference.len());
            for (i, (a, b)) in table.cdf.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "r {r}, nu {nu}: grid point {i}");
            }
            assert_eq!(norm.to_bits(), reference_norm.to_bits(), "r {r}, nu {nu}");
        }
    }

    #[test]
    fn guide_lookup_returns_the_bisection_bracket() {
        for (r, nu) in type_iv_spread() {
            let (table, _) = angle_cdf(r, nu).unwrap();
            let edges = (0..=GUIDE_BUCKETS).map(|j| j as f64 / GUIDE_BUCKETS as f64);
            let probes = [0.0, 1.0]
                .into_iter()
                .chain(edges)
                .chain(table.cdf.iter().copied());
            for u in probes {
                assert_eq!(
                    table.bracket(u),
                    bisection_bracket(&table.cdf, u),
                    "r {r}, nu {nu}, u {u}"
                );
            }
            let mut rng = Xoshiro256pp::seed_from_u64(26);
            for _ in 0..10_000 {
                let u: f64 = rng.gen();
                assert_eq!(table.bracket(u), bisection_bracket(&table.cdf, u));
            }
        }
    }

    /// Classify, fit and sample at the edges of the Pearson plane:
    /// β₁ → 0 on both sides of `BOUNDARY_TOL`, the type III line, κ → 1
    /// (type V), the type I J-shape band where a beta exponent is clamped
    /// at 1e-4, and type IV next to the IV/VI boundary.
    #[test]
    fn edges_classify_fit_and_sample_finitely() {
        use PearsonType::*;
        let below_tol = 0.5 * crate::classify::BOUNDARY_TOL;
        let above_tol = 2.0 * crate::classify::BOUNDARY_TOL;
        let mut cases = vec![
            (spec(1.0, 0.05, below_tol, 2.5), II),
            (spec(1.0, 0.05, below_tol, 3.0), Zero),
            (spec(1.0, 0.05, -below_tol, 4.0), VII),
            (spec(1.0, 0.05, above_tol, 2.5), I),
            (spec(1.0, 0.05, above_tol, 3.0), III),
            (spec(1.0, 0.05, -above_tol, 4.0), IV),
            (spec(1.0, 0.05, 1.0, 4.5), III),
            (
                spec(1.0, 0.05, -1.0, 4.5 + 0.4 * crate::classify::BOUNDARY_TOL),
                III,
            ),
            (spec(1.0, 0.05, 2.0 / 0.5f64.sqrt(), 3.0 + 6.0 / 0.5), III),
            (spec(1.0, 0.05, 1.0, 4.970388365322377), V),
            (spec(1.0, 0.05, 2.0, 12.134446499564898), V),
            (spec(1.0, 0.05, 1.0, 4.970388365322377 - 1e-6), VI),
            (spec(1.0, 0.05, 2.0, 5.001), I),
            (spec(1.0, 0.05, 2.5, 7.251), I),
            (spec(1.0, 0.05, -2.5, 7.251), I),
            (spec(1.0, 0.05, 3.0, 10.001), I),
        ];
        cases.extend(type_iv_edges().into_iter().map(|s| (s, IV)));
        let mut clamped = 0;
        for (s, want) in cases {
            assert_eq!(classify(&s), want, "{s:?}");
            let d = PearsonDist::fit(s).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            assert_eq!(d.pearson_type(), want, "{s:?}");
            if let StdKind::BetaOn { p, q, .. } = d.kind {
                clamped += usize::from(p == 1e-4 || q == 1e-4);
            }
            let mut rng = Xoshiro256pp::seed_from_u64(27);
            let xs = d.sample_n(&mut rng, 10_000);
            assert!(xs.iter().all(|x| x.is_finite()), "{s:?}: non-finite sample");
        }
        assert_eq!(clamped, 3, "beta exponents clamped in the J-shape band");
    }
}
