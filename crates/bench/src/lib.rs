//! # pv-bench — benchmarks and the figure-reproduction harness
//!
//! Two deliverables live here:
//!
//! * the `repro` binary (`cargo run -p pv-bench --release --bin repro -- all`)
//!   regenerates every table and figure of the paper's evaluation from the
//!   simulated testbed, printing text renditions and writing CSVs under
//!   `target/repro/`;
//! * the `benches/` directory holds criterion microbenchmarks for every
//!   performance-relevant component (moments, KDE, KS, Pearson sampling,
//!   MaxEnt solves, kNN/forest/boosting, end-to-end pipelines) plus
//!   ablation benches for the design choices called out in DESIGN.md.
//!
//! The library part hosts the experiment configuration shared by both,
//! plus the [`serve`] protocol engine behind the `pv-serve` daemon and
//! the [`cli`] flag parser shared by every workspace binary.

// The serving path is a long-lived daemon: every failure must be a
// typed response or a handled error, never a panic.
#![warn(clippy::unwrap_used)]

pub mod cli;
pub mod serve;

use std::sync::OnceLock;

use pv_core::pipeline::EncodingSpec;
use pv_core::registry::artifact_key;
use pv_core::sweep::{cross_fingerprint, CellConfig, GridSpec};
use pv_core::usecase1::FewRunsConfig;
use pv_core::usecase2::CrossSystemConfig;
use pv_core::{corpus_fingerprint, ModelKind, ReprKind};
use pv_sysmodel::{Corpus, SystemId, SystemModel};

/// Root seed of the entire reproduction campaign.
pub const CAMPAIGN_SEED: u64 = 0xC0FFEE;

/// Runs per benchmark in the full campaign (the paper uses 1,000).
pub const CAMPAIGN_RUNS: usize = 1000;

/// Profile windows per benchmark used for training in use case 1. One
/// row per benchmark matches the paper's setup (each application
/// contributes its profile and its measured distribution once) and puts
/// kNN's k = 15 in the regime where it averages fifteen *distinct*
/// applications.
pub const PROFILES_PER_BENCHMARK: usize = 1;

/// Profile-run counts swept by the use-case-1 exhibits (Fig. 6 axis;
/// Fig. 1/4/5 use the 10-run entry, the baselines a subset).
pub const UC1_SAMPLE_COUNTS: [usize; 8] = [1, 2, 3, 5, 10, 25, 50, 100];

/// Source-system runs summarized into the use-case-2 profile.
pub const UC2_PROFILE_RUNS: usize = 100;

/// Collects the full Intel campaign (60 benchmarks × 1,000 runs).
pub fn intel_corpus() -> Corpus {
    Corpus::collect(&SystemModel::intel(), CAMPAIGN_RUNS, CAMPAIGN_SEED)
}

/// Collects the full AMD campaign.
pub fn amd_corpus() -> Corpus {
    Corpus::collect(&SystemModel::amd(), CAMPAIGN_RUNS, CAMPAIGN_SEED)
}

/// The Intel campaign, collected once per process and shared by every
/// exhibit/benchmark that asks.
pub fn intel_campaign() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(intel_corpus)
}

/// The AMD campaign, collected once per process.
pub fn amd_campaign() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(amd_corpus)
}

/// The encoding spec covering every campaign exhibit on one corpus:
/// profile windows for each swept `s`, target encodings for all three
/// representations (the grids), and use-case-2 joined rows. Build one
/// [`EncodedCorpus`](pv_core::pipeline::EncodedCorpus) per corpus from
/// this and every figure/table shares it.
pub fn campaign_spec() -> EncodingSpec {
    let mut spec = EncodingSpec::new();
    for &s in &UC1_SAMPLE_COUNTS {
        spec = spec.profiles(
            s,
            PROFILES_PER_BENCHMARK.min(CAMPAIGN_RUNS / s.max(1)).max(1),
        );
    }
    for repr in ReprKind::ALL {
        spec = spec
            .target(repr)
            .joined(UC2_PROFILE_RUNS.clamp(1, CAMPAIGN_RUNS), repr);
    }
    spec
}

/// The use-case-1 configuration for a given representation/model cell at
/// `s` profile runs.
pub fn uc1_config(repr: ReprKind, model: ModelKind, s: usize) -> FewRunsConfig {
    FewRunsConfig {
        repr,
        model,
        n_profile_runs: s,
        profiles_per_benchmark: PROFILES_PER_BENCHMARK.min(CAMPAIGN_RUNS / s.max(1)),
        seed: CAMPAIGN_SEED,
    }
}

/// The use-case-2 configuration for a representation/model cell.
pub fn uc2_config(repr: ReprKind, model: ModelKind) -> CrossSystemConfig {
    CrossSystemConfig {
        repr,
        model,
        profile_runs: UC2_PROFILE_RUNS,
        seed: CAMPAIGN_SEED,
    }
}

/// The sweep grid of campaign cells: every `reprs` × `models` ×
/// `samples` combination under the campaign seed with
/// [`PROFILES_PER_BENCHMARK`] windows. Its use-case-1 cells are
/// [`uc1_config`]'s, and at `samples = [UC2_PROFILE_RUNS]` its
/// use-case-2 cells are [`uc2_config`]'s.
pub fn campaign_grid(reprs: &[ReprKind], models: &[ModelKind], samples: &[usize]) -> GridSpec {
    GridSpec {
        reprs: reprs.to_vec(),
        models: models.to_vec(),
        sample_counts: samples.to_vec(),
        seeds: vec![CAMPAIGN_SEED],
        profiles_per_benchmark: PROFILES_PER_BENCHMARK,
    }
}

/// The registry cell of a served use-case-`uc` model. Use case 1 clamps
/// its profile windows to a corpus of `runs` runs per benchmark.
pub fn served_cell(
    uc: usize,
    repr: ReprKind,
    model: ModelKind,
    s: usize,
    runs: usize,
) -> CellConfig {
    let mut cfg = uc1_config(repr, model, s);
    cfg.profiles_per_benchmark = cfg.profiles_per_benchmark.min(runs / s.max(1)).max(1);
    match uc {
        1 => CellConfig::FewRuns(cfg),
        _ => CellConfig::CrossSystem(uc2_config(repr, model)),
    }
}

/// The campaigns served models train on: use case 2 runs `src` → `dst`,
/// AMD → Intel or (reversed) Intel → AMD, and use case 1 trains on
/// Intel. `repro train` seals models against them and `repro load-gen`
/// derives the same registry keys from them.
pub struct ServedCorpora {
    /// The use-case-2 source campaign.
    pub src: Corpus,
    /// The use-case-2 destination campaign.
    pub dst: Corpus,
    /// The fingerprints registry keys are computed under: Intel's for
    /// use case 1, then the pair's for use case 2.
    pub fingerprints: [u64; 2],
}

impl ServedCorpora {
    /// Collects both campaigns at `runs` runs per benchmark.
    pub fn collect(runs: usize, reverse: bool) -> Self {
        let [amd, intel] = [SystemModel::amd(), SystemModel::intel()]
            .map(|sys| Corpus::collect(&sys, runs, CAMPAIGN_SEED));
        let (src, dst) = if reverse { (intel, amd) } else { (amd, intel) };
        let [src_fp, dst_fp] = [&src, &dst].map(corpus_fingerprint);
        let intel_fp = if reverse { src_fp } else { dst_fp };
        let fingerprints = [intel_fp, cross_fingerprint(src_fp, dst_fp)];
        ServedCorpora {
            src,
            dst,
            fingerprints,
        }
    }

    /// The campaign `cell`'s model trains on and is queried with: Intel
    /// for use case 1, the source for use case 2.
    pub fn training(&self, cell: &CellConfig) -> &Corpus {
        match cell {
            CellConfig::FewRuns(_) if self.src.system != SystemId::IntelXeon8358 => &self.dst,
            _ => &self.src,
        }
    }

    /// The fingerprint and registry key `cell`'s model is sealed under.
    pub fn key(&self, cell: &CellConfig) -> (u64, u64) {
        let fp = self.fingerprints[usize::from(matches!(cell, CellConfig::CrossSystem(_)))];
        (
            fp,
            artifact_key(fp, cell).expect("campaign cell configs serialize"),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn uc1_config_windows_fit_in_campaign() {
        for s in [1, 2, 3, 5, 10, 25, 50, 100] {
            let c = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, s);
            assert!(c.profiles_per_benchmark * s <= CAMPAIGN_RUNS, "s = {s}");
            assert!(c.profiles_per_benchmark >= 1);
        }
    }

    #[test]
    fn configs_carry_the_campaign_seed() {
        assert_eq!(
            uc1_config(ReprKind::Histogram, ModelKind::Knn, 10).seed,
            CAMPAIGN_SEED
        );
        assert_eq!(
            uc2_config(ReprKind::Histogram, ModelKind::Knn).seed,
            CAMPAIGN_SEED
        );
    }

    #[test]
    fn exhibit_grids_expand_to_the_campaign_configs_in_grid_order() {
        use ModelKind::Knn;
        use ReprKind::PearsonRnd;
        // Figs. 4 and 7: the 3×3 grid, representation-major.
        let pairs: Vec<(ReprKind, ModelKind)> = ReprKind::ALL
            .iter()
            .flat_map(|&r| ModelKind::ALL.iter().map(move |&m| (r, m)))
            .collect();
        let fig4: Vec<FewRunsConfig> = pairs.iter().map(|&(r, m)| uc1_config(r, m, 10)).collect();
        let grid = campaign_grid(&ReprKind::ALL, &ModelKind::ALL, &[10]);
        assert_eq!(grid.few_runs_cells(), fig4);
        let fig7: Vec<CrossSystemConfig> = pairs.iter().map(|&(r, m)| uc2_config(r, m)).collect();
        let grid = campaign_grid(&ReprKind::ALL, &ModelKind::ALL, &[UC2_PROFILE_RUNS]);
        assert_eq!(grid.cross_system_cells(), fig7);
        // Fig. 6 and the baselines: one PearsonRnd × kNN cell per count.
        for samples in [&UC1_SAMPLE_COUNTS[..], &[2, 5, 10, 25, 100]] {
            let cells: Vec<FewRunsConfig> = samples
                .iter()
                .map(|&s| uc1_config(PearsonRnd, Knn, s))
                .collect();
            assert_eq!(
                campaign_grid(&[PearsonRnd], &[Knn], samples).few_runs_cells(),
                cells
            );
        }
    }

    #[test]
    fn campaign_spec_covers_every_exhibit() {
        use pv_core::pipeline::EncodedCorpus;
        // A 100-run corpus admits every window the spec asks for (the
        // largest is 1 × 100 runs), so this exercises the real spec
        // without collecting the full campaign.
        let c = Corpus::collect(&SystemModel::intel(), 100, 1);
        let enc = EncodedCorpus::build(&c, &campaign_spec()).unwrap();
        for &s in &UC1_SAMPLE_COUNTS {
            assert!(enc.profile(s, 0, 0).is_ok(), "s = {s}");
        }
        for repr in ReprKind::ALL {
            assert!(enc.target(repr, 0).is_ok(), "{}", repr.name());
            assert!(
                enc.joined(UC2_PROFILE_RUNS, repr, 0).is_ok(),
                "{}",
                repr.name()
            );
        }
    }
}
