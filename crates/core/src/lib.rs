//! # pv-core — predicting performance variability
//!
//! The primary contribution of *Predicting Performance Variability*
//! (IPPS 2025), reproduced in Rust: given profiles and measured
//! performance distributions of many benchmarks, train models that predict
//! the full performance **distribution** of a *new* application — either
//! from a few runs on the same system (use case 1) or from a measured
//! distribution on a different system (use case 2).
//!
//! ## Pipeline anatomy
//!
//! | Paper section | Module |
//! |---|---|
//! | III-B1 application profiles | [`profile`] |
//! | III-B2 distribution representations (Histogram / PyMaxEnt / PearsonRnd) | [`repr`] |
//! | III-B3 models (kNN / random forest / XGBoost) | [`model`] |
//! | III-A1 few-runs prediction (config, training rows) | [`usecase1`] |
//! | III-A2 cross-system prediction (config, training rows) | [`usecase2`] |
//! | the one trained predictor of both use cases | [`predictor`] |
//! | IV-E / V KS-scored leave-one-group-out evaluation | [`eval`] |
//! | shared encode-once cache + LOGO fold runner | [`pipeline`] |
//! | sharded corpora: shard layouts, the row table, LRU residency, verified spill | [`shard`] |
//! | the one LOGO loop, (group, fold) units, per-fold score cache + append delta | [`incremental`] |
//! | config-grid sweep service with cached cells | [`sweep`] |
//! | trained-model registry (sealed fitted artifacts for serving) | [`registry`] |
//! | fault tolerance: error taxonomy, fault injection, cache lock | [`resilience`] |
//! | the on-disk contract: sealed envelope, atomic writer | [`store`] |
//! | figure/table rendering | [`report`] |
//!
//! Every evaluation path — both use cases, the kNN ablation grid, and the
//! baselines — runs on the [`pipeline`] layer: an encoded corpus computes
//! profiles and target encodings once (in parallel), and a
//! [`pipeline::FoldRunner`] owns the leave-one-group-out scaffolding, so a
//! fold is row streaming plus a model fit. Results are bit-identical to
//! training each fold from scratch, for any thread count.
//!
//! Both use cases have one evaluation loop, the unit loop of
//! [`incremental`]: a [`sweep::Sweep`] runs a grid's cells through it,
//! sharing each fold's preparation and fit among the cells that train on
//! it, and [`evaluate_few_runs_incremental`] and
//! [`evaluate_cross_system_incremental`] are its one-cell case over a
//! [`shard::ShardedCorpus`] at any shard layout, with an optional prior
//! of cached folds (empty for a cold run). A whole in-memory corpus is the one-shard layout,
//! [`pipeline::EncodedCorpus`], which derefs to its `ShardedCorpus`;
//! [`evaluate_few_runs`] and [`evaluate_cross_system`] run the same loop
//! cold on a collected [`pv_sysmodel::Corpus`].
//!
//! ## Sixty-second example
//!
//! ```
//! use pv_core::eval::evaluate_few_runs;
//! use pv_core::usecase1::FewRunsConfig;
//! use pv_sysmodel::{Corpus, SystemModel};
//!
//! // Measure a (small) corpus on the simulated Intel system…
//! let corpus = Corpus::collect(&SystemModel::intel(), 50, 42);
//! // …and evaluate the paper's best configuration with LOGO CV.
//! let cfg = FewRunsConfig { n_profile_runs: 5, profiles_per_benchmark: 4,
//!                           ..FewRunsConfig::default() };
//! let summary = evaluate_few_runs(&corpus, cfg).unwrap();
//! assert_eq!(summary.scores.len(), 60);
//! assert!(summary.mean < 0.6);
//! ```

// Panics on the evaluation/sweep paths sink whole campaigns; failures
// must travel as typed `resilience::PvError` values instead. Spots
// where a panic really is an invariant carry an explicit `#[allow]`.
#![warn(clippy::unwrap_used)]

pub mod ablation;
pub mod baseline;
pub mod eval;
pub mod incremental;
pub mod model;
pub mod pipeline;
pub mod predictor;
pub mod profile;
pub mod registry;
pub mod report;
pub mod repr;
pub mod resilience;
pub mod shard;
pub mod store;
pub mod sweep;
pub mod usecase1;
pub mod usecase2;

pub use baseline::{
    empirical_baseline, empirical_baseline_encoded, population_baseline,
    population_baseline_encoded,
};
pub use eval::{evaluate_cross_system, evaluate_few_runs, BenchScore, EvalSummary};
pub use incremental::{
    evaluate_cross_system_incremental, evaluate_few_runs_incremental, FoldCacheStats, FoldEntry,
    IncrementalEval,
};
pub use model::{FittedModel, ModelKind};
pub use pipeline::{
    bench_fingerprints, corpus_fingerprint, EncodedCorpus, EncodingSpec, FoldRunner, FoldTruth,
    FoldView, PreparedFold, RowSink, SeedMode,
};
pub use predictor::Predictor;
pub use profile::Profile;
pub use registry::{
    artifact_key, Artifact, ModelRegistry, RegistryEntry, REGISTRY_MAGIC, REGISTRY_OBS_COUNTERS,
};
pub use repr::{DistributionRepr, ReprKind};
pub use resilience::{FaultKind, FaultPlan, PvError};
pub use shard::{
    CampaignSource, EncodedShard, ShardLayout, ShardSource, ShardedCorpus, ShardedCorpusBuilder,
    SHARD_OBS_COUNTERS,
};
pub use sweep::{
    cell_key, cross_fingerprint, CellCache, CellConfig, CellOutcome, CellResult, GridSpec, Sweep,
    SweepReport, SweepTarget,
};
pub use usecase1::FewRunsConfig;
pub use usecase2::CrossSystemConfig;
