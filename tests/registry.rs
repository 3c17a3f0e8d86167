//! Registry integrity: a tampered, truncated, or stale entry must
//! surface as a **typed** error — never a panic, never a silently wrong
//! model — and the `repro train` heal policy (re-fit and re-seal) must
//! recover every corruption mode. `ensure_*` seals under the keys the
//! serving side derives and digests each benchmark once per call.
//!
//! Every test takes [`exclusive`] first: the digest counter is
//! process-global, and every test here digests benchmarks.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use perfvar_suite::core::registry::{artifact_key, Artifact, ModelRegistry, REGISTRY_MAGIC};
use perfvar_suite::core::sweep::{cross_fingerprint, CellConfig};
use perfvar_suite::core::usecase1::{FewRunsConfig, FewRunsPredictor};
use perfvar_suite::core::usecase2::CrossSystemConfig;
use perfvar_suite::core::{corpus_fingerprint, ModelKind, ReprKind};
use perfvar_suite::obs::Collector;
use perfvar_suite::sysmodel::{Corpus, SystemModel};

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests in this file; the obs collector is process-wide.
fn exclusive() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const RUNS: usize = 40;
const SEED: u64 = 11;

fn corpus() -> Corpus {
    Corpus::collect(&SystemModel::intel(), RUNS, SEED)
}

fn cfg() -> FewRunsConfig {
    FewRunsConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        n_profile_runs: 5,
        profiles_per_benchmark: 2,
        ..FewRunsConfig::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pv-registry-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Seals one kNN entry and returns (registry, fingerprint, entry path).
fn seeded(dir: &Path) -> (ModelRegistry, u64, PathBuf) {
    let registry = ModelRegistry::new(dir);
    let corpus = corpus();
    let fp = corpus_fingerprint(&corpus);
    let include: Vec<usize> = (0..corpus.len()).collect();
    let trained = FewRunsPredictor::train(&corpus, &include, cfg()).expect("train");
    registry
        .store(fp, &Artifact::FewRuns(trained.to_artifact()))
        .expect("store");
    let path = registry
        .entry_path(fp, &CellConfig::FewRuns(cfg()))
        .expect("path");
    (registry, fp, path)
}

fn load_err_kind(registry: &ModelRegistry, fp: u64) -> &'static str {
    match registry.load(fp, &CellConfig::FewRuns(cfg())) {
        Ok(_) => panic!("tampered entry must not verify"),
        Err(e) => e.kind(),
    }
}

#[test]
fn bit_flipped_entry_is_typed_invalid() {
    let _guard = exclusive();
    let dir = tmp_dir("bitflip");
    let (registry, fp, path) = seeded(&dir);
    let mut bytes = fs::read(&path).expect("read entry");
    // A low-bit flip inside the payload can leave the JSON parsable (a
    // digit changes); the envelope's digest catches it before parsing.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&path, &bytes).expect("tamper");
    assert_eq!(load_err_kind(&registry, fp), "invalid");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_typed_invalid() {
    let _guard = exclusive();
    let dir = tmp_dir("truncate");
    let (registry, fp, path) = seeded(&dir);
    let bytes = fs::read(&path).expect("read entry");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("tamper");
    assert_eq!(load_err_kind(&registry, fp), "invalid");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_entry_is_typed_invalid() {
    let _guard = exclusive();
    let dir = tmp_dir("garbage");
    let (registry, fp, path) = seeded(&dir);
    fs::write(&path, b"not json at all \x00\x01\x02").expect("tamper");
    assert_eq!(load_err_kind(&registry, fp), "invalid");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_version_entry_is_typed_invalid() {
    let _guard = exclusive();
    let dir = tmp_dir("stale");
    let (registry, fp, path) = seeded(&dir);
    let mut bytes = fs::read(&path).expect("read entry");
    assert_eq!(&bytes[..8], REGISTRY_MAGIC, "entry layout changed");
    // The magic's last byte is the format version: an entry sealed by the
    // previous version is rejected, never reinterpreted.
    bytes[7] -= 1;
    fs::write(&path, &bytes).expect("tamper");
    assert_eq!(load_err_kind(&registry, fp), "invalid");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_entry_is_typed_cache_io() {
    let _guard = exclusive();
    let dir = tmp_dir("missing");
    let (registry, fp, path) = seeded(&dir);
    fs::remove_file(&path).expect("remove");
    assert_eq!(load_err_kind(&registry, fp), "cache-io");
    let _ = fs::remove_dir_all(&dir);
}

/// An entry resealed under somebody else's identity (checksum valid,
/// key wrong) is caught by the key-identity check: moving a verified
/// entry file to a different key's filename must not serve it.
#[test]
fn renamed_entry_fails_identity_check() {
    let _guard = exclusive();
    let dir = tmp_dir("rename");
    let (registry, fp, path) = seeded(&dir);
    let other = artifact_key(fp ^ 0xDEAD, &CellConfig::FewRuns(cfg())).expect("key");
    let stolen = dir.join(format!("model-{other:016x}.json"));
    fs::rename(&path, &stolen).expect("rename");
    let err = registry.load_key(other).expect_err("stolen key must fail");
    assert_eq!(err.kind(), "invalid");
    let _ = fs::remove_dir_all(&dir);
}

/// The heal policy: every corruption mode above is recovered by
/// `ensure_few_runs` (what `repro train` runs per cell) — it re-fits,
/// re-seals, and the next load verifies bit-identically.
#[test]
fn ensure_heals_every_corruption_mode() {
    let _guard = exclusive();
    let dir = tmp_dir("heal");
    let (registry, _fp, path) = seeded(&dir);
    let corpus = corpus();
    let bench = &corpus.benchmarks[4].runs;
    let (reference, _) = registry
        .ensure_few_runs(&corpus, cfg())
        .expect("reference load");
    let want = reference.predict_distribution(bench, 150, 2).expect("dist");

    type Tamper = Box<dyn Fn(&Path)>;
    let tamper: [(&str, Tamper); 4] = [
        (
            "bitflip",
            Box::new(|p: &Path| {
                let mut b = fs::read(p).expect("read");
                let mid = b.len() / 2;
                b[mid] ^= 0xFF;
                fs::write(p, b).expect("write");
            }),
        ),
        (
            "truncate",
            Box::new(|p: &Path| {
                let b = fs::read(p).expect("read");
                fs::write(p, &b[..b.len() / 3]).expect("write");
            }),
        ),
        (
            "garbage",
            Box::new(|p: &Path| {
                fs::write(p, b"{}").expect("write");
            }),
        ),
        (
            "remove",
            Box::new(|p: &Path| {
                fs::remove_file(p).expect("remove");
            }),
        ),
    ];
    for (name, vandalize) in tamper {
        vandalize(&path);
        let (healed, refit) = registry.ensure_few_runs(&corpus, cfg()).expect("heal");
        assert!(refit, "{name}: a vandalized entry must be re-fit");
        assert_eq!(
            healed.predict_distribution(bench, 150, 2).expect("dist"),
            want,
            "{name}: healed model must answer identically"
        );
        let (reused, refit_again) = registry.ensure_few_runs(&corpus, cfg()).expect("reuse");
        assert!(!refit_again, "{name}: the healed entry must verify");
        assert_eq!(
            reused.predict_distribution(bench, 150, 2).expect("dist"),
            want,
            "{name}: reused entry must answer identically"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Digests of one `ensure_*` call, its `trained` flag, and the keys on
/// disk after it.
fn counted<T>(
    registry: &ModelRegistry,
    ensure: impl FnOnce() -> (T, bool),
) -> (u64, bool, Vec<u64>) {
    let collector = Collector::install();
    let (_, trained) = ensure();
    let digests = collector
        .finish()
        .metrics
        .counter("pv.core.pipeline.bench_digest")
        .unwrap_or(0);
    (digests, trained, registry.keys())
}

/// `ensure_few_runs` seals under `artifact_key(corpus_fingerprint(c),
/// cfg)`, the key perfbench's serve lines, `repro load-gen` and
/// `ServedCorpora` derive, digesting each of the 60 benchmarks once.
#[test]
fn ensure_few_runs_seals_under_the_served_key_digesting_once() {
    let _guard = exclusive();
    let dir = tmp_dir("served-key-uc1");
    let registry = ModelRegistry::new(&dir);
    let corpus = corpus();
    assert_eq!(corpus.len(), 60);
    let key = artifact_key(corpus_fingerprint(&corpus), &CellConfig::FewRuns(cfg())).unwrap();
    let ensure = || registry.ensure_few_runs(&corpus, cfg()).expect("ensure");
    assert_eq!(counted(&registry, ensure), (60, true, vec![key]));
    assert_eq!(counted(&registry, ensure), (60, false, vec![key]));
    let _ = fs::remove_dir_all(&dir);
}

/// `ensure_cross_system` seals under `cross_fingerprint` of the two
/// corpora, digesting each corpus's 60 benchmarks once.
#[test]
fn ensure_cross_system_seals_under_the_served_key_digesting_once() {
    let _guard = exclusive();
    let dir = tmp_dir("served-key-uc2");
    let registry = ModelRegistry::new(&dir);
    let src = Corpus::collect(&SystemModel::amd(), RUNS, SEED);
    let dst = corpus();
    let uc2 = CrossSystemConfig {
        repr: ReprKind::PearsonRnd,
        model: ModelKind::Knn,
        profile_runs: 10,
        seed: SEED,
    };
    let fp = cross_fingerprint(corpus_fingerprint(&src), corpus_fingerprint(&dst));
    let key = artifact_key(fp, &CellConfig::CrossSystem(uc2)).unwrap();
    let ensure = || {
        registry
            .ensure_cross_system(&src, &dst, uc2)
            .expect("ensure")
    };
    assert_eq!(counted(&registry, ensure), (120, true, vec![key]));
    assert_eq!(counted(&registry, ensure), (120, false, vec![key]));
    let _ = fs::remove_dir_all(&dir);
}
