//! Distribution representations: how a performance distribution becomes a
//! prediction target and how a predicted vector becomes a distribution.
//!
//! Section III-B2 considers three designs, all reproduced here:
//!
//! * [`HistogramRepr`] — the feature vector is the bin masses of a
//!   fixed-range histogram of relative time (a discretized PDF);
//!   reconstruction samples from the predicted histogram.
//! * [`MaxEntRepr`] ("PyMaxEnt") — the feature vector is the first four
//!   moments; reconstruction solves the maximum-entropy problem for a
//!   density with those moments.
//! * [`PearsonRepr`] ("PearsonRnd") — the feature vector is the same four
//!   moments; reconstruction draws random numbers from the Pearson-system
//!   member with those moments (MATLAB `pearsrnd`), then treats the draws
//!   as the distribution.
//!
//! All three implement [`DistributionRepr`]; predicted vectors coming out
//! of a regression model can be mildly invalid (negative bin masses,
//! infeasible moments) and every `decode` is written to degrade
//! gracefully rather than panic.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use pv_maxent::MaxEntDensity;
use pv_pearson::PearsonDist;
use pv_stats::histogram::Histogram;
use pv_stats::moments::MomentSummary;
use pv_stats::StatsError;

/// Relative-time range shared by all fixed-range encodings. Ground-truth
/// relative times concentrate near 1 (mean-normalized); [0.7, 1.5] covers
/// every mode structure the simulator produces, and real outliers clamp
/// into the edge bins exactly as the paper's fixed-range histograms do.
pub const REL_TIME_RANGE: (f64, f64) = (0.7, 1.5);

/// A distribution representation: encode samples → feature vector, decode
/// a (possibly predicted) feature vector → reconstructed sample set.
pub trait DistributionRepr: Send + Sync {
    /// Human-readable name used in reports ("Histogram", "PyMaxEnt",
    /// "PearsonRnd").
    fn name(&self) -> &'static str;

    /// Width of the feature vector.
    fn dim(&self) -> usize;

    /// Encodes a measured sample of relative times.
    ///
    /// # Errors
    /// Fails on empty or non-finite input.
    fn encode(&self, rel_times: &[f64]) -> Result<Vec<f64>, StatsError>;

    /// Decodes a feature vector into `n` reconstructed samples.
    ///
    /// # Errors
    /// Fails when the vector has the wrong width or is beyond repair
    /// (e.g. all-zero histogram masses).
    fn decode(
        &self,
        features: &[f64],
        rng: &mut dyn RngCore,
        n: usize,
    ) -> Result<Vec<f64>, StatsError>;
}

/// Which representation to use — the unit of comparison in Figs. 4 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReprKind {
    /// Discretized PDF.
    Histogram,
    /// Moments + maximum-entropy reconstruction.
    PyMaxEnt,
    /// Moments + Pearson-system sampling.
    PearsonRnd,
}

impl ReprKind {
    /// All three representations, in the paper's presentation order.
    pub const ALL: [ReprKind; 3] = [
        ReprKind::Histogram,
        ReprKind::PyMaxEnt,
        ReprKind::PearsonRnd,
    ];

    /// Instantiates the representation with its default configuration.
    pub fn build(&self) -> Box<dyn DistributionRepr> {
        match self {
            ReprKind::Histogram => Box::new(HistogramRepr::default()),
            ReprKind::PyMaxEnt => Box::new(MaxEntRepr::default()),
            ReprKind::PearsonRnd => Box::new(PearsonRepr),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ReprKind::Histogram => "Histogram",
            ReprKind::PyMaxEnt => "PyMaxEnt",
            ReprKind::PearsonRnd => "PearsonRnd",
        }
    }

    /// The target encoding the representation trains on. Kinds with the
    /// same encoding encode every sample to the same bits, so their
    /// training sets, and every model fitted to them, are identical; only
    /// their decoders differ.
    pub fn encoding(&self) -> TargetEncoding {
        match self {
            ReprKind::Histogram => TargetEncoding::Histogram,
            ReprKind::PyMaxEnt | ReprKind::PearsonRnd => TargetEncoding::Moments,
        }
    }
}

/// How a representation encodes a measured sample (see
/// [`ReprKind::encoding`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetEncoding {
    /// Fixed-range bin masses ([`HistogramRepr`]).
    Histogram,
    /// The first four moments ([`MaxEntRepr`] and [`PearsonRepr`] alike).
    Moments,
}

impl std::str::FromStr for ReprKind {
    type Err = StatsError;

    /// Parses a display name case-insensitively (`"histogram"`,
    /// `"pymaxent"` / `"maxent"`, `"pearsonrnd"` / `"pearson"`), as used
    /// by the `repro sweep` command line.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "histogram" | "hist" => Ok(ReprKind::Histogram),
            "pymaxent" | "maxent" => Ok(ReprKind::PyMaxEnt),
            "pearsonrnd" | "pearson" => Ok(ReprKind::PearsonRnd),
            _ => Err(StatsError::invalid(
                "ReprKind::from_str",
                format!(
                    "unknown representation {s:?} (expected Histogram, PyMaxEnt, or PearsonRnd)"
                ),
            )),
        }
    }
}

/// Histogram representation: bin masses over [`REL_TIME_RANGE`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramRepr {
    /// Number of bins.
    pub n_bins: usize,
    /// Fixed range of the relative-time axis.
    pub range: (f64, f64),
}

impl Default for HistogramRepr {
    fn default() -> Self {
        HistogramRepr {
            n_bins: 15,
            range: REL_TIME_RANGE,
        }
    }
}

impl DistributionRepr for HistogramRepr {
    fn name(&self) -> &'static str {
        "Histogram"
    }

    fn dim(&self) -> usize {
        self.n_bins
    }

    fn encode(&self, rel_times: &[f64]) -> Result<Vec<f64>, StatsError> {
        if rel_times.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "HistogramRepr::encode",
                needed: 1,
                got: 0,
            });
        }
        let h =
            Histogram::from_data_with_range(rel_times, self.range.0, self.range.1, self.n_bins)?;
        Ok(h.probabilities())
    }

    fn decode(
        &self,
        features: &[f64],
        rng: &mut dyn RngCore,
        n: usize,
    ) -> Result<Vec<f64>, StatsError> {
        if features.len() != self.n_bins {
            return Err(StatsError::invalid(
                "HistogramRepr::decode",
                format!("expected {} bins, got {}", self.n_bins, features.len()),
            ));
        }
        // `from_masses` clips negative / NaN masses from the regressor.
        let h = Histogram::from_masses(features, self.range.0, self.range.1)?;
        Ok(h.sample_n(rng, n))
    }
}

/// Shared moment encoding for the two moment-based representations.
fn encode_moments(rel_times: &[f64]) -> Result<Vec<f64>, StatsError> {
    Ok(MomentSummary::from_sample(rel_times)?.to_vec())
}

fn summary_from_features(
    features: &[f64],
    what: &'static str,
) -> Result<MomentSummary, StatsError> {
    if features.len() != 4 {
        return Err(StatsError::invalid(
            what,
            format!("expected 4 moments, got {}", features.len()),
        ));
    }
    let mut s = MomentSummary::from_vec(features)?;
    if !s.mean.is_finite() || !s.std.is_finite() {
        return Err(StatsError::NonFinite { what });
    }
    // Regressors can predict a (slightly) negative spread.
    if s.std < 1e-6 {
        s.std = 1e-6;
    }
    Ok(s.clamped_feasible(1e-3))
}

/// Maximum-entropy representation ("PyMaxEnt").
///
/// Like PyMaxEnt's continuous reconstruction, the support is derived from
/// the moments themselves: `[μ − kσ, μ + kσ]` with `k =`
/// [`MaxEntRepr::support_sigmas`]. This is the representation's honest
/// weak spot — when the predicted σ understates the true spread (tight
/// neighbour consensus, far-out modes, long tails), real probability mass
/// falls outside the assumed support and the reconstruction cannot ever
/// recover it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaxEntRepr {
    /// Half-width of the reconstruction support in predicted standard
    /// deviations.
    pub support_sigmas: f64,
}

impl Default for MaxEntRepr {
    fn default() -> Self {
        MaxEntRepr {
            support_sigmas: 3.5,
        }
    }
}

impl DistributionRepr for MaxEntRepr {
    fn name(&self) -> &'static str {
        "PyMaxEnt"
    }

    fn dim(&self) -> usize {
        4
    }

    fn encode(&self, rel_times: &[f64]) -> Result<Vec<f64>, StatsError> {
        encode_moments(rel_times)
    }

    fn decode(
        &self,
        features: &[f64],
        rng: &mut dyn RngCore,
        n: usize,
    ) -> Result<Vec<f64>, StatsError> {
        let s = summary_from_features(features, "MaxEntRepr::decode")?;
        // Moment-derived support, as PyMaxEnt assumes for continuous
        // reconstructions.
        let k = self.support_sigmas.max(1.5);
        let lo = s.mean - k * s.std;
        let hi = s.mean + k * s.std;
        if let Ok(d) = MaxEntDensity::from_summary(&s, (lo, hi)) {
            pv_obs::counter_inc!("pv.maxent.constraints.4");
            return Ok(d.sample_n(rng, n));
        }
        // The four-moment problem has no solution on this support (tail
        // moments a bounded density cannot carry — kurtosis above
        // k² − γ₁²/(k² − 1) — or Newton divergence; the same failure modes
        // PyMaxEnt exhibits). Degrade by dropping constraints: the
        // two-moment max-ent density (a truncated Gaussian), and as a last
        // resort the zero-constraint one (the uniform density on the
        // support).
        let mu = pv_maxent::central_to_raw_moments(&s);
        if let Ok(d) = MaxEntDensity::from_raw_moments(&mu[..3], (lo, hi)) {
            pv_obs::counter_inc!("pv.maxent.constraints.2");
            return Ok(d.sample_n(rng, n));
        }
        pv_obs::counter_inc!("pv.maxent.constraints.0");
        Ok((0..n)
            .map(|_| {
                use rand::Rng;
                lo + (hi - lo) * rng.gen::<f64>()
            })
            .collect())
    }
}

/// Pearson-system representation ("PearsonRnd").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PearsonRepr;

impl DistributionRepr for PearsonRepr {
    fn name(&self) -> &'static str {
        "PearsonRnd"
    }

    fn dim(&self) -> usize {
        4
    }

    fn encode(&self, rel_times: &[f64]) -> Result<Vec<f64>, StatsError> {
        encode_moments(rel_times)
    }

    fn decode(
        &self,
        features: &[f64],
        rng: &mut dyn RngCore,
        n: usize,
    ) -> Result<Vec<f64>, StatsError> {
        let s = summary_from_features(features, "PearsonRepr::decode")?;
        let d = PearsonDist::fit(s)?;
        Ok(d.sample_n(rng, n))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pv_stats::ks::ks2_statistic;
    use pv_stats::rng::Xoshiro256pp;
    use pv_stats::samplers::{Normal, Sampler};
    use rand::SeedableRng;

    fn normal_sample(n: usize, seed: u64) -> Vec<f64> {
        let d = Normal::new(1.0, 0.03).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        d.sample_n(&mut rng, n)
    }

    #[test]
    fn display_names_parse_back() {
        for kind in ReprKind::ALL {
            assert_eq!(kind.name().parse::<ReprKind>().unwrap(), kind);
        }
        assert_eq!("maxent".parse::<ReprKind>().unwrap(), ReprKind::PyMaxEnt);
        assert!("spline".parse::<ReprKind>().is_err());
    }

    #[test]
    fn all_kinds_roundtrip_a_normal_distribution() {
        // encode → decode of a measured sample must approximately recover
        // the distribution (KS below 0.1 with 1000-vs-1000 samples).
        let xs = normal_sample(1000, 1);
        for kind in ReprKind::ALL {
            let repr = kind.build();
            let f = repr.encode(&xs).unwrap();
            assert_eq!(f.len(), repr.dim(), "{}", repr.name());
            let mut rng = Xoshiro256pp::seed_from_u64(2);
            let ys = repr.decode(&f, &mut rng, 1000).unwrap();
            let ks = ks2_statistic(&xs, &ys).unwrap();
            assert!(ks < 0.1, "{}: KS = {ks}", repr.name());
        }
    }

    #[test]
    fn histogram_preserves_bimodality_but_moments_cannot() {
        // Bimodal sample: two tight modes.
        let mut xs = Vec::new();
        let d1 = Normal::new(0.97, 0.004).unwrap();
        let d2 = Normal::new(1.07, 0.004).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        xs.extend(d1.sample_n(&mut rng, 700));
        xs.extend(d2.sample_n(&mut rng, 300));

        // A fine-grained histogram can always out-resolve a four-moment
        // family on *true* bin masses; use explicit high resolution so the
        // property is about representation capability, not the default
        // bin count (which trades resolution against predictability).
        let hist: Box<dyn DistributionRepr> = Box::new(HistogramRepr {
            n_bins: 40,
            range: REL_TIME_RANGE,
        });
        let pear = ReprKind::PearsonRnd.build();
        let fh = hist.encode(&xs).unwrap();
        let fp = pear.encode(&xs).unwrap();
        let mut r1 = Xoshiro256pp::seed_from_u64(4);
        let mut r2 = Xoshiro256pp::seed_from_u64(4);
        let yh = hist.decode(&fh, &mut r1, 1000).unwrap();
        let yp = pear.decode(&fp, &mut r2, 1000).unwrap();
        let ks_h = ks2_statistic(&xs, &yh).unwrap();
        let ks_p = ks2_statistic(&xs, &yp).unwrap();
        // The histogram sees the modes; a four-moment family cannot
        // (given *true* moments — the paper's advantage for PearsonRnd
        // comes from moments being easier to *predict*).
        assert!(ks_h < ks_p, "hist {ks_h} vs pearson {ks_p}");
    }

    #[test]
    fn histogram_decode_tolerates_negative_masses() {
        let repr = HistogramRepr::default();
        let mut f = vec![0.0; repr.n_bins];
        f[10] = 0.5;
        f[11] = -0.2; // regression artifact
        f[12] = 0.5;
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let ys = repr.decode(&f, &mut rng, 500).unwrap();
        assert_eq!(ys.len(), 500);
        assert!(ys.iter().all(|&y| (0.7..=1.5).contains(&y)));
    }

    #[test]
    fn moment_reprs_tolerate_infeasible_predictions() {
        for kind in [ReprKind::PyMaxEnt, ReprKind::PearsonRnd] {
            let repr = kind.build();
            // skew² + 1 > kurtosis: impossible moments.
            let f = vec![1.0, 0.05, 2.0, 2.0];
            let mut rng = Xoshiro256pp::seed_from_u64(6);
            let ys = repr.decode(&f, &mut rng, 200).unwrap();
            assert_eq!(ys.len(), 200, "{}", repr.name());
            assert!(ys.iter().all(|y| y.is_finite()));
        }
    }

    #[test]
    fn moment_reprs_tolerate_negative_std() {
        for kind in [ReprKind::PyMaxEnt, ReprKind::PearsonRnd] {
            let repr = kind.build();
            let f = vec![1.0, -0.01, 0.0, 3.0];
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            assert!(repr.decode(&f, &mut rng, 100).is_ok(), "{}", repr.name());
        }
    }

    #[test]
    fn wrong_width_features_error() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        assert!(HistogramRepr::default()
            .decode(&[0.1, 0.2], &mut rng, 10)
            .is_err());
        assert!(PearsonRepr.decode(&[1.0, 0.1], &mut rng, 10).is_err());
        assert!(MaxEntRepr::default().decode(&[1.0], &mut rng, 10).is_err());
    }

    #[test]
    fn encode_rejects_empty_input() {
        for kind in ReprKind::ALL {
            assert!(kind.build().encode(&[]).is_err());
        }
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(ReprKind::Histogram.name(), "Histogram");
        assert_eq!(ReprKind::PyMaxEnt.name(), "PyMaxEnt");
        assert_eq!(ReprKind::PearsonRnd.name(), "PearsonRnd");
        for kind in ReprKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    /// Sample digests of `MaxEntRepr::decode`: three summaries above the
    /// μ ± 3.5σ kurtosis ceiling `β₂ ≤ 12.25 − γ₁²/11.25` (the four-moment
    /// solve fails and the two-moment fallback answers) and one feasible
    /// summary (all four moments hold). Rejecting an infeasible target
    /// before Newton must not move a single sample.
    #[test]
    fn maxent_decode_samples_are_pinned() {
        use pv_stats::fingerprint::Fnv1a;
        let cases: [([f64; 4], u64); 4] = [
            ([1.0, 0.05, 2.3, 17.4], 0x0cf6_1eac_853d_c033),
            ([1.02, 0.03, 0.4, 13.0], 0x545b_1804_b0ba_e0c6),
            ([0.98, 0.08, -3.1, 28.0], 0xff35_ea03_a902_7f2c),
            ([1.0, 0.04, 0.7, 3.8], 0xb624_1af2_a6db_cf9d),
        ];
        let got: Vec<String> = cases
            .iter()
            .map(|(features, _)| {
                let mut rng = Xoshiro256pp::seed_from_u64(11);
                let ys = MaxEntRepr::default()
                    .decode(features, &mut rng, 256)
                    .unwrap();
                let mut h = Fnv1a::new();
                h.write_f64s(&ys);
                format!("{:#018x}", h.finish())
            })
            .collect();
        let want: Vec<String> = cases.iter().map(|(_, d)| format!("{d:#018x}")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn maxent_fallback_path_produces_clamped_normal() {
        let repr = MaxEntRepr::default();
        // Extreme kurtosis that max-ent on a narrow support cannot honor.
        let f = vec![1.0, 0.02, 0.0, 500.0];
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let ys = repr.decode(&f, &mut rng, 400).unwrap();
        assert!(ys.iter().all(|&y| (0.7..=1.5).contains(&y)));
    }
}
