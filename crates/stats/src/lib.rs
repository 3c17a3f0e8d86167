//! # pv-stats — statistical substrate for the `perfvar` workspace
//!
//! This crate provides every statistical primitive the reproduction of
//! *Predicting Performance Variability* (IPPS 2025) needs, implemented from
//! scratch on top of [`rand`] only:
//!
//! * numerically stable, mergeable [moment accumulators](moments) (mean,
//!   variance, skewness, kurtosis) — the paper's feature and target space,
//! * [descriptive statistics](descriptive) (quantiles, IQR, five-number
//!   summaries),
//! * [histograms](histogram) with the classic automatic binning rules,
//! * [Gaussian kernel density estimation](kde) with Silverman/Scott
//!   bandwidths — the paper visualizes every distribution as a KDE,
//! * [empirical CDFs](ecdf) and the [Kolmogorov–Smirnov statistic](ks) —
//!   the paper's accuracy metric,
//! * [random samplers](samplers) for the standard distribution families
//!   (normal, gamma, beta, Student-t, …) needed by the Pearson system and
//!   the system simulator,
//! * [special functions](special) (ln Γ, erf, regularized incomplete
//!   gamma/beta),
//! * [Gauss–Legendre quadrature](quadrature) used by the maximum-entropy
//!   reconstruction,
//! * a tiny [dense linear-algebra kernel](linalg) (LU solve) for Newton
//!   steps,
//! * [correlation measures](correlation) including the cosine similarity
//!   used by the paper's kNN model,
//! * [bootstrap resampling](bootstrap),
//! * stable content [fingerprints](fingerprint) (FNV-1a) for on-disk
//!   cache keying, and
//! * a deterministic, splittable [PRNG](rng) so that every experiment in
//!   the workspace is reproducible independently of thread count.
//!
//! Everything is `f64`; inputs are slices, outputs are plain values or small
//! owned structs. Functions that can fail (empty input, invalid parameters)
//! return [`StatsError`].

pub mod bootstrap;
pub mod correlation;
pub mod descriptive;
pub mod ecdf;
pub mod error;
pub mod fingerprint;
pub mod histogram;
pub mod kde;
pub mod kernel;
pub mod ks;
pub mod linalg;
pub mod moments;
pub mod quadrature;
pub mod rng;
pub mod samplers;
pub mod special;
pub mod stopping;

pub use error::StatsError;
pub use moments::{MomentSummary, Moments};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
