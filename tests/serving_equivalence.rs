//! Serving equivalence: a predictor that round-trips through the model
//! registry must answer queries **bit-identically** to the in-memory
//! predictor it was sealed from — for every model kind, every
//! representation, and at any rayon thread count (the forest predicts
//! across the pool, so thread-shape bugs would surface here first).

use std::collections::BTreeMap;

mod common;

use common::TempDir;

use perfvar_suite::core::registry::{artifact_key, Artifact, ModelRegistry};
use perfvar_suite::core::sweep::{cross_fingerprint, CellConfig};
use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::usecase2::CrossSystemConfig;
use perfvar_suite::core::{corpus_fingerprint, ModelKind, Predictor, Profile, ReprKind};
use perfvar_suite::stats::fingerprint::lane_digest;
use perfvar_suite::sysmodel::{Corpus, SystemModel};
use proptest::prelude::*;
use pv_bench::serve::{Outcome, ServeEngine};

const RUNS: usize = 40;
const SEED: u64 = 11;
const THREADS: [usize; 3] = [1, 2, 8];

fn corpus(sys: SystemModel) -> Corpus {
    Corpus::collect(&sys, RUNS, SEED)
}

fn uc1_cfg(repr: ReprKind, model: ModelKind) -> FewRunsConfig {
    FewRunsConfig {
        repr,
        model,
        n_profile_runs: 5,
        profiles_per_benchmark: 2,
        ..FewRunsConfig::default()
    }
}

fn in_pool<T: Send>(threads: usize, op: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(op)
}

/// Every model kind × representation: train, seal, reload, and compare
/// feature vectors and full reconstructed distributions bit for bit —
/// with the registry-loaded predictor answering from rayon pools of
/// 1, 2, and 8 threads against the in-memory predictor's default pool.
#[test]
fn uc1_registry_round_trip_is_bit_identical_at_any_thread_count() {
    let dir = TempDir::new("pv-serve-eq-uc1");
    let registry = ModelRegistry::new(dir.to_path_buf());
    let corpus = corpus(SystemModel::intel());
    let fp = corpus_fingerprint(&corpus);
    let include: Vec<usize> = (0..corpus.len()).collect();
    for repr in ReprKind::ALL {
        for model in ModelKind::ALL {
            let cfg = uc1_cfg(repr, model);
            let trained = Predictor::train_few_runs(&corpus, &include, cfg).expect("train");
            registry.store(fp, &trained.to_artifact()).expect("store");
            let loaded = registry.load(fp, &CellConfig::FewRuns(cfg)).expect("load");
            let loaded = Predictor::from_artifact(loaded).expect("rebuild");
            for bi in [0, 7, 29] {
                let runs = &corpus.benchmarks[bi].runs;
                let profile = Profile::from_runs(runs, cfg.n_profile_runs).expect("profile");
                let want_features = trained.predict_features(&profile, None).expect("features");
                let want_dist = trained.predict_distribution(runs, 200, 3).expect("dist");
                for threads in THREADS {
                    let (got_features, got_dist) = in_pool(threads, || {
                        let features = loaded.predict_features(&profile, None).expect("features");
                        let dist = loaded.decode_features(&features, 200, 3).expect("dist");
                        (features, dist)
                    });
                    assert_eq!(
                        want_features,
                        got_features,
                        "{}/{} bench {bi} at {threads} thread(s)",
                        repr.name(),
                        model.name()
                    );
                    assert_eq!(
                        want_dist,
                        got_dist,
                        "{}/{} bench {bi} at {threads} thread(s)",
                        repr.name(),
                        model.name()
                    );
                }
            }
        }
    }
}

/// The cross-system artifact round-trips the same way: every model kind
/// (one representation per kind keeps this affordable) reproduces the
/// in-memory prediction bits from a registry reload at every thread
/// count.
#[test]
fn uc2_registry_round_trip_is_bit_identical_at_any_thread_count() {
    let dir = TempDir::new("pv-serve-eq-uc2");
    let registry = ModelRegistry::new(dir.to_path_buf());
    let src = corpus(SystemModel::amd());
    let dst = corpus(SystemModel::intel());
    let include: Vec<usize> = (0..src.len().min(dst.len())).collect();
    for (repr, model) in [
        (ReprKind::Histogram, ModelKind::Knn),
        (ReprKind::PearsonRnd, ModelKind::RandomForest),
        (ReprKind::PyMaxEnt, ModelKind::XgBoost),
    ] {
        let cfg = CrossSystemConfig {
            repr,
            model,
            profile_runs: 20,
            ..CrossSystemConfig::default()
        };
        let trained = Predictor::train_cross_system(&src, &dst, &include, cfg).expect("train");
        // Cross-system cells are keyed by the pair fingerprint; any u64
        // works for a single-entry equivalence check.
        let fp = 0xA11CE;
        registry.store(fp, &trained.to_artifact()).expect("store");
        let loaded = registry
            .load(fp, &CellConfig::CrossSystem(cfg))
            .expect("load");
        let loaded = Predictor::from_artifact(loaded).expect("rebuild");
        for bi in [2, 13] {
            let bench = &src.benchmarks[bi];
            let s = cfg.profile_runs.min(bench.runs.len()).max(1);
            let profile = Profile::from_runs(&bench.runs, s).expect("profile");
            let rel = bench.runs.rel_times();
            let want = trained
                .predict_features(&profile, Some(&rel))
                .expect("features");
            let want_dist = trained
                .predict_distribution(&bench.runs, 150, 9)
                .expect("dist");
            for threads in THREADS {
                let (got, got_dist) = in_pool(threads, || {
                    let features = loaded
                        .predict_features(&profile, Some(&rel))
                        .expect("features");
                    let dist = loaded.decode_features(&features, 150, 9).expect("dist");
                    (features, dist)
                });
                assert_eq!(want, got, "{}/{} bench {bi}", repr.name(), model.name());
                assert_eq!(
                    want_dist,
                    got_dist,
                    "{}/{} bench {bi} at {threads} thread(s)",
                    repr.name(),
                    model.name()
                );
            }
        }
    }
}

/// The bytes pv-serve writes, pinned: the two models `serve_open` serves
/// (UC1 PearsonRnd × kNN at s = 10 on Intel, UC2 PearsonRnd × kNN
/// AMD → Intel), trained on a small campaign and sealed, answer one
/// 1,000-sample UC1 and one UC2 line per benchmark through
/// `ServeEngine::handle_line`. The digest of every reply and the digest
/// of the two sealed registry files must not move: every float in them
/// goes through the one JSON float writer, so a writer that prints
/// other digits, or a reply framed differently, changes a constant.
#[test]
fn served_replies_and_sealed_artifacts_keep_their_bytes() {
    const REPLY_DIGEST: u64 = 0x8e5e_a05e_7bae_54bf;
    const REGISTRY_DIGEST: u64 = 0x58f5_3ccb_e768_6e7e;
    let dir = TempDir::new("pv-serve-eq-bytes");
    let registry = ModelRegistry::new(dir.to_path_buf());
    let intel = corpus(SystemModel::intel());
    let amd = corpus(SystemModel::amd());
    let mut uc1 = pv_bench::uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    uc1.profiles_per_benchmark = uc1.profiles_per_benchmark.clamp(1, RUNS / 10);
    let uc2 = pv_bench::uc2_config(ReprKind::PearsonRnd, ModelKind::Knn);
    registry.ensure_few_runs(&intel, uc1).expect("seal uc1");
    registry
        .ensure_cross_system(&amd, &intel, uc2)
        .expect("seal uc2");
    let key1 = artifact_key(corpus_fingerprint(&intel), &CellConfig::FewRuns(uc1)).expect("key");
    let pair = cross_fingerprint(corpus_fingerprint(&amd), corpus_fingerprint(&intel));
    let key2 = artifact_key(pair, &CellConfig::CrossSystem(uc2)).expect("key");

    let engine = ServeEngine::from_registry(&registry).expect("load");
    fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
        serde_json::to_string(value).expect("json")
    }
    let mut replies = String::new();
    for (bi, (i, a)) in intel.benchmarks.iter().zip(&amd.benchmarks).enumerate() {
        let uc1_profile = Profile::from_runs(&i.runs, uc1.n_profile_runs).expect("profile");
        let uc2_profile =
            Profile::from_runs(&a.runs, uc2.profile_runs.min(a.runs.len())).expect("profile");
        let lines = [
            format!(
                "{{\"id\": {bi}, \"model\": \"{key1:016x}\", \"profile\": {}, \
                 \"n_samples\": 1000, \"sample_seed\": {bi}}}",
                json(&uc1_profile)
            ),
            format!(
                "{{\"id\": {}, \"model\": \"{key2:016x}\", \"profile\": {}, \
                 \"rel_times\": {}, \"n_samples\": 1000, \"sample_seed\": {bi}}}",
                1000 + bi,
                json(&uc2_profile),
                json(&a.runs.rel_times())
            ),
        ];
        for line in &lines {
            let (reply, outcome) = engine.handle_line(line);
            assert_eq!(outcome, Outcome::Ok, "{reply}");
            replies.push_str(&reply);
            replies.push('\n');
        }
    }
    let mut sealed = Vec::new();
    for key in [key1, key2] {
        let path = dir.join(format!("model-{key:016x}.json"));
        sealed.extend(std::fs::read(&path).expect("sealed entry"));
    }
    assert_eq!(
        (lane_digest(replies.as_bytes()), lane_digest(&sealed)),
        (REPLY_DIGEST, REGISTRY_DIGEST),
        "reply or registry bytes moved ({} reply bytes, {} sealed bytes)",
        replies.len(),
        sealed.len()
    );
}

/// Fixture for the query-order property: a forest model trained once,
/// loaded once from a sealed registry entry, with reference answers for
/// the first eight benchmarks.
struct OrderFixture {
    corpus: Corpus,
    artifact: Artifact,
    loaded: Predictor,
    reference: BTreeMap<usize, Vec<f64>>,
}

fn order_cfg() -> FewRunsConfig {
    uc1_cfg(ReprKind::PearsonRnd, ModelKind::RandomForest)
}

/// Seals `artifact` into a fresh registry directory and loads it back;
/// the directory is gone when this returns.
fn seal_and_load(corpus: &Corpus, artifact: &Artifact) -> Predictor {
    let dir = TempDir::new("pv-serve-eq-order");
    let registry = ModelRegistry::new(dir.to_path_buf());
    let fingerprint = corpus_fingerprint(corpus);
    registry.store(fingerprint, artifact).expect("store");
    let loaded = registry
        .load(fingerprint, &CellConfig::FewRuns(order_cfg()))
        .expect("load");
    Predictor::from_artifact(loaded).expect("rebuild")
}

fn order_fixture() -> &'static OrderFixture {
    static FIXTURE: std::sync::OnceLock<OrderFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = corpus(SystemModel::intel());
        let include: Vec<usize> = (0..corpus.len()).collect();
        let artifact = Predictor::train_few_runs(&corpus, &include, order_cfg())
            .expect("train")
            .to_artifact();
        let loaded = seal_and_load(&corpus, &artifact);
        let mut reference = BTreeMap::new();
        for bi in 0..8 {
            let runs = &corpus.benchmarks[bi].runs;
            reference.insert(bi, loaded.predict_distribution(runs, 120, 5).expect("dist"));
        }
        OrderFixture {
            corpus,
            artifact,
            loaded,
            reference,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serving a model must not mutate it: a loaded predictor answers
    /// the same query identically no matter how many other queries ran
    /// first, in what order, or whether it was freshly reloaded from
    /// disk.
    #[test]
    fn loaded_predictor_is_deterministic_under_query_order(
        order in proptest::collection::vec(0usize..8, 1..20),
        reload in any::<bool>(),
    ) {
        let fx = order_fixture();
        let fresh;
        let predictor = if reload {
            fresh = seal_and_load(&fx.corpus, &fx.artifact);
            &fresh
        } else {
            &fx.loaded
        };
        for bi in order {
            let dist = predictor
                .predict_distribution(&fx.corpus.benchmarks[bi].runs, 120, 5)
                .expect("dist");
            prop_assert_eq!(&dist, &fx.reference[&bi], "bench {}", bi);
        }
    }
}
