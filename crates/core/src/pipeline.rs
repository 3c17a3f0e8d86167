//! Shared training/evaluation pipeline: encode once, slice per fold.
//!
//! Every evaluation in this crate is the same shape: a leave-one-group-out
//! loop whose folds differ only in *which rows* of a fixed feature/target
//! pool they train on. Profiles and representation encodings are RNG-free,
//! so they can be computed once per corpus and reused across folds (and
//! across grid cells sharing a corpus) without changing a single bit of
//! output. This module provides the two pieces:
//!
//! * [`EncodedCorpus`] — per-benchmark profiles (for each requested window
//!   setting) and per-representation target encodings, computed in
//!   parallel up front; folds become row slicing. It is the one-shard
//!   layout of a [`ShardedCorpus`], so every evaluation runs on the one
//!   fold assembly in [`crate::eval`], which reads the corpus's row
//!   table.
//! * [`FoldRunner`] — the LOGO scaffolding itself: include-set
//!   construction, per-fold seed derivation, optional standardization,
//!   model fit, representation decode, and KS scoring. Callers supply a
//!   row-assembly closure, which is the only part that differs between
//!   use case 1 (windowed profiles), use case 2 (profile ⊕ source
//!   encoding), and the kNN ablation variants.
//!
//! Both seed-derivation chains used in the crate are preserved exactly
//! (see [`SeedMode`]), so results are bit-identical to training each fold
//! from scratch, for any thread count.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use rand::SeedableRng;
use rayon::prelude::*;

use pv_ml::{Dataset, DenseMatrix, Regressor, StandardScaler};
use pv_stats::fingerprint::{Fnv1a, LaneDigest};
use pv_stats::ks::ks2_statistic_presorted;
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use pv_sysmodel::{BenchmarkData, BenchmarkId, Corpus, RunSet, SystemId};

use crate::eval::{BenchScore, EvalSummary};
use crate::profile::Profile;
use crate::repr::{DistributionRepr, ReprKind};
use crate::shard::{EncodedShard, ShardSource, ShardedCorpus};

/// Per-benchmark content fingerprints of a corpus, roster order.
///
/// Each digest covers one benchmark's identity and every run's times and
/// metric readings, floats as IEEE-754 bit patterns. These are the exact
/// digests [`corpus_fingerprint`] folds together, exposed separately so
/// the incremental fold cache (see [`crate::incremental`]) can fingerprint
/// a fold's training set as the ordered list of its benchmarks' digests.
///
/// Hashing runs in parallel over benchmarks; rayon preserves order.
pub fn bench_fingerprints(corpus: &Corpus) -> Vec<u64> {
    (0..corpus.benchmarks.len())
        .into_par_iter()
        .map(|bi| bench_digest(&corpus.benchmarks[bi]))
        .collect()
}

/// One benchmark's content digest (identity + every run, bit-exact):
/// one streaming [`LaneDigest`] over the label's [`Fnv1a`] hash, the run
/// count, and each run's time, relative time, metric count and metrics,
/// each one little-endian word. Counted as
/// `pv.core.pipeline.bench_digest`.
pub(crate) fn bench_digest(b: &BenchmarkData) -> u64 {
    pv_obs::counter_inc!("pv.core.pipeline.bench_digest");
    let mut label = Fnv1a::new();
    label.write_str(&b.id.qualified());
    let mut h = LaneDigest::new();
    h.write_u64(label.finish());
    h.write_usize(b.runs.records.len());
    for r in &b.runs.records {
        h.write_f64(r.time_s);
        h.write_f64(r.rel_time);
        h.write_usize(r.metrics.len());
        for &m in &r.metrics {
            h.write_f64(m);
        }
    }
    h.finish()
}

/// Folds campaign identity + per-benchmark digests into the corpus
/// fingerprint. Takes the identity fields directly so a
/// [`ShardedCorpus`] over a generated campaign — which never
/// materializes a `Corpus` — produces the exact same fingerprint as the
/// collected corpus (and hence shares fold and cell caches with it).
pub(crate) fn corpus_digest_parts(
    system: SystemId,
    n_runs: usize,
    seed: u64,
    per_bench: &[u64],
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("pv-corpus-v1");
    h.write_str(system.short_name());
    h.write_usize(n_runs);
    h.write_u64(seed);
    h.write_usize(per_bench.len());
    for &d in per_bench {
        h.write_u64(d);
    }
    h.finish()
}

/// Stable content fingerprint of a corpus.
///
/// Covers everything an [`EncodedCorpus`] (and hence every evaluation)
/// can observe: the system, campaign shape, seed, and every run's times
/// and metric readings, fed bit-exactly (floats as IEEE-754 bit
/// patterns) into one eight-lane digest per benchmark, whose values are
/// folded through FNV-1a. Two corpora fingerprint equal iff every
/// evaluation over them is bit-identical, so on-disk caches keyed by
/// this value can trust a hit and must discard a mismatch.
///
/// The per-benchmark hashing runs in parallel; benchmark digests are
/// folded in roster order, so the result is thread-count independent.
pub fn corpus_fingerprint(corpus: &Corpus) -> u64 {
    corpus_digest_parts(
        corpus.system,
        corpus.n_runs,
        corpus.seed,
        &bench_fingerprints(corpus),
    )
}

/// What to precompute when building an [`EncodedCorpus`].
///
/// Requesting a superset is harmless (and how grids share one cache):
/// the builder methods are idempotent — duplicate entries merge instead
/// of accumulating, and window counts for the same `s` merge to the
/// maximum — so two specs requesting the same coverage compare equal no
/// matter how the requests were phrased.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodingSpec {
    profiles: Vec<(usize, usize)>,
    targets: Vec<ReprKind>,
    joined: Vec<(usize, ReprKind)>,
}

impl EncodingSpec {
    /// An empty spec (only relative times are cached). Identical to
    /// `EncodingSpec::default()`.
    pub fn new() -> Self {
        EncodingSpec::default()
    }

    /// Requests `windows` disjoint `s`-run window profiles per benchmark.
    ///
    /// Idempotent: repeated requests for the same `s` keep the maximum
    /// window count.
    pub fn profiles(mut self, s: usize, windows: usize) -> Self {
        let windows = windows.max(1);
        match self.profiles.iter_mut().find(|(t, _)| *t == s) {
            Some((_, w)) => *w = (*w).max(windows),
            None => self.profiles.push((s, windows)),
        }
        self
    }

    /// Requests the target encoding of every benchmark under `repr`.
    ///
    /// Idempotent: duplicate requests are no-ops.
    pub fn target(mut self, repr: ReprKind) -> Self {
        if !self.targets.contains(&repr) {
            self.targets.push(repr);
        }
        self
    }

    /// Requests joined rows — `s`-run profile ⊕ `repr` encoding — the
    /// feature layout of use case 2. Implies `profiles(s, 1)` and
    /// `target(repr)`.
    ///
    /// Idempotent: duplicate `(s, repr)` requests are no-ops, so nothing
    /// is ever double-encoded.
    pub fn joined(mut self, s: usize, repr: ReprKind) -> Self {
        if !self.joined.contains(&(s, repr)) {
            self.joined.push((s, repr));
        }
        self
    }

    /// Writes a canonical digest of the requested coverage into `h`.
    ///
    /// Entries are sorted first, so two specs with equal coverage digest
    /// equal no matter how the requests were phrased. Shard spill files
    /// key on this: a spilled shard is only reusable when it was encoded
    /// under the same coverage.
    pub(crate) fn write_digest(&self, h: &mut Fnv1a) {
        let mut profiles = self.profiles.clone();
        profiles.sort_unstable();
        h.write_usize(profiles.len());
        for (s, w) in profiles {
            h.write_usize(s);
            h.write_usize(w);
        }
        let mut targets: Vec<&str> = self.targets.iter().map(|k| k.name()).collect();
        targets.sort_unstable();
        h.write_usize(targets.len());
        for t in targets {
            h.write_str(t);
        }
        let mut joined: Vec<(usize, &str)> =
            self.joined.iter().map(|&(s, k)| (s, k.name())).collect();
        joined.sort_unstable();
        h.write_usize(joined.len());
        for (s, t) in joined {
            h.write_usize(s);
            h.write_str(t);
        }
    }

    /// The idempotent union of two specs: everything either requests.
    /// Grids merge their cells' specs with this so one encode pass
    /// covers the whole sweep.
    pub fn merge(mut self, other: &EncodingSpec) -> Self {
        for &(s, w) in &other.profiles {
            self = self.profiles(s, w);
        }
        for &k in &other.targets {
            self = self.target(k);
        }
        for &(s, k) in &other.joined {
            self = self.joined(s, k);
        }
        self
    }
}

/// One feature row per benchmark, roster order.
type BenchRows = Vec<Vec<f64>>;

/// Window profiles per benchmark: `[bench][window] -> features`.
type BenchWindows = Vec<Vec<Vec<f64>>>;

/// The encoded payload of a contiguous run of benchmarks — everything an
/// evaluation reads, keyed by *local* index. Each [`EncodedShard`] wraps
/// one block for its benchmark range; every range runs the exact same
/// per-benchmark encode, so the shard layout never changes an encoded
/// bit.
pub(crate) struct EncodedBlock {
    pub(crate) rel: Vec<Vec<f64>>,
    /// `rel[bi]` sorted ascending (`total_cmp`), filled on first use so
    /// every fold's KS scoring can take the allocation-free
    /// [`pv_stats::ks::ks2_statistic_presorted`] path. A fold scores one
    /// held-out truth, so a shard faulted in for one truth never pays for
    /// sorting the rest. The KS statistic is an order-invariant of the
    /// input multisets, so scoring against the sorted copy is
    /// bit-identical to scoring against `rel`.
    pub(crate) rel_sorted: Vec<OnceLock<Vec<f64>>>,
    /// The training rows, shared with the row table of the
    /// [`ShardedCorpus`] that encoded them.
    pub(crate) rows: Arc<RowBlock>,
    /// Per-benchmark content digests. Hashing every run of every
    /// benchmark is the single most expensive step of an incremental
    /// evaluation (FNV-1a is byte-serial), so it happens once here —
    /// inside the parallel per-benchmark pass — not per eval call.
    pub(crate) bench_fps: Vec<u64>,
}

/// The training rows of a contiguous run of benchmarks, keyed by *local*
/// index: every profile, target and joined row of the encoding spec,
/// and none of the measured runs. A [`ShardedCorpus`] keeps the block of
/// every shard it encodes as its row table, so fold assembly never needs
/// a shard back for them.
pub(crate) struct RowBlock {
    /// `s` → per-benchmark window profiles.
    pub(crate) profiles: Vec<(usize, BenchWindows)>,
    /// Representation → per-benchmark target encoding.
    pub(crate) targets: Vec<(ReprKind, BenchRows)>,
    /// `(s, repr)` → per-benchmark joined row (profile ⊕ encoding).
    pub(crate) joined: Vec<((usize, ReprKind), BenchRows)>,
}

impl EncodedBlock {
    /// Precomputes everything the spec asks for over `benches`.
    ///
    /// # Errors
    /// Fails when a window setting does not fit `n_runs` or an encoding
    /// fails.
    pub(crate) fn build(
        benches: &[BenchmarkData],
        n_runs: usize,
        spec: &EncodingSpec,
    ) -> Result<Self, StatsError> {
        // Merge window requests: one entry per distinct s, max windows.
        let mut window_specs: Vec<(usize, usize)> = Vec::new();
        let mut add_windows =
            |s: usize, windows: usize| match window_specs.iter_mut().find(|(t, _)| *t == s) {
                Some((_, w)) => *w = (*w).max(windows),
                None => window_specs.push((s, windows)),
            };
        for &(s, windows) in &spec.profiles {
            add_windows(s, windows);
        }
        for &(s, _) in &spec.joined {
            add_windows(s, 1);
        }
        for &(s, windows) in &window_specs {
            if s == 0 {
                return Err(StatsError::invalid("EncodedCorpus", "profile window s = 0"));
            }
            if windows * s > n_runs {
                return Err(StatsError::invalid(
                    "EncodedCorpus",
                    format!("{windows} windows × {s} runs exceed the {n_runs}-run corpus"),
                ));
            }
        }

        // One repr instance per distinct kind mentioned anywhere.
        let mut kinds: Vec<ReprKind> = Vec::new();
        for &k in spec
            .targets
            .iter()
            .chain(spec.joined.iter().map(|(_, k)| k))
        {
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
        let reprs: Vec<(ReprKind, Box<dyn DistributionRepr>)> =
            kinds.iter().map(|&k| (k, k.build())).collect();

        // Per-benchmark computation, parallel; rayon preserves order.
        struct BenchEnc {
            rel: Vec<f64>,
            profiles: Vec<Vec<Vec<f64>>>,
            targets: Vec<Vec<f64>>,
            fp: u64,
        }
        let n = benches.len();
        let per_bench: Result<Vec<BenchEnc>, StatsError> = (0..n)
            .into_par_iter()
            .map(|bi| {
                let bench = &benches[bi];
                let rel = bench.runs.rel_times();
                let mut profiles = Vec::with_capacity(window_specs.len());
                for &(s, windows) in &window_specs {
                    let mut per_window = Vec::with_capacity(windows);
                    for w in 0..windows {
                        // Same window construction as training always
                        // used: a fresh RunSet over records [w·s, (w+1)·s).
                        let window = RunSet {
                            bench: bench.id,
                            system: bench.runs.system,
                            records: bench.runs.records[w * s..(w + 1) * s].to_vec(),
                        };
                        per_window.push(Profile::from_runs(&window, s)?.features);
                    }
                    profiles.push(per_window);
                }
                let targets = reprs
                    .iter()
                    .map(|(_, r)| r.encode(&rel))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(BenchEnc {
                    rel,
                    profiles,
                    targets,
                    fp: bench_digest(bench),
                })
            })
            .collect();
        let per_bench = per_bench?;

        // Transpose bench-major results into key-major storage.
        let mut rel = Vec::with_capacity(n);
        let mut bench_fps = Vec::with_capacity(n);
        let mut profiles: Vec<(usize, Vec<Vec<Vec<f64>>>)> = window_specs
            .iter()
            .map(|&(s, _)| (s, Vec::with_capacity(n)))
            .collect();
        let mut targets: Vec<(ReprKind, Vec<Vec<f64>>)> =
            kinds.iter().map(|&k| (k, Vec::with_capacity(n))).collect();
        for be in per_bench {
            rel.push(be.rel);
            bench_fps.push(be.fp);
            for (slot, p) in profiles.iter_mut().zip(be.profiles) {
                slot.1.push(p);
            }
            for (slot, t) in targets.iter_mut().zip(be.targets) {
                slot.1.push(t);
            }
        }

        let mut rows = RowBlock {
            profiles,
            targets,
            joined: Vec::new(),
        };
        for &(s, kind) in &spec.joined {
            if rows.joined.iter().any(|(key, _)| *key == (s, kind)) {
                continue;
            }
            let joined = (0..n)
                .map(|bi| {
                    let mut row = rows.profile(s, bi, 0)?.to_vec();
                    row.extend_from_slice(rows.target(kind, bi)?);
                    Ok(row)
                })
                .collect::<Result<Vec<_>, StatsError>>()?;
            rows.joined.push(((s, kind), joined));
        }
        Ok(EncodedBlock {
            rel_sorted: (0..n).map(|_| OnceLock::new()).collect(),
            rel,
            rows: Arc::new(rows),
            bench_fps,
        })
    }

    /// Number of benchmarks in the block.
    pub(crate) fn len(&self) -> usize {
        self.rel.len()
    }

    /// Cached relative times of local benchmark `bi`.
    pub(crate) fn rel_times(&self, bi: usize) -> &[f64] {
        &self.rel[bi]
    }

    /// Cached *sorted* relative times of local benchmark `bi` — the
    /// truth side of the presorted KS fast path. Sorted on first use.
    pub(crate) fn rel_times_sorted(&self, bi: usize) -> &[f64] {
        self.rel_sorted[bi].get_or_init(|| {
            let mut sorted = self.rel[bi].clone();
            sorted.sort_by(f64::total_cmp);
            sorted
        })
    }
}

impl RowBlock {
    /// Cached window-`w` profile of local benchmark `bi` for setting `s`.
    pub(crate) fn profile(&self, s: usize, bi: usize, w: usize) -> Result<&[f64], StatsError> {
        let (_, per_bench) = self.profiles.iter().find(|(t, _)| *t == s).ok_or_else(|| {
            StatsError::invalid("EncodedCorpus", format!("no profiles cached for s = {s}"))
        })?;
        let windows = per_bench
            .get(bi)
            .ok_or_else(|| StatsError::invalid("EncodedCorpus", "bad index"))?;
        windows.get(w).map(Vec::as_slice).ok_or_else(|| {
            StatsError::invalid(
                "EncodedCorpus",
                format!(
                    "window {w} not cached for s = {s} ({} cached)",
                    windows.len()
                ),
            )
        })
    }

    /// Cached target encoding of local benchmark `bi` under `repr`.
    pub(crate) fn target(&self, repr: ReprKind, bi: usize) -> Result<&[f64], StatsError> {
        let (_, per_bench) = self
            .targets
            .iter()
            .find(|(k, _)| *k == repr)
            .ok_or_else(|| {
                StatsError::invalid(
                    "EncodedCorpus",
                    format!("no targets cached for {}", repr.name()),
                )
            })?;
        per_bench
            .get(bi)
            .map(Vec::as_slice)
            .ok_or_else(|| StatsError::invalid("EncodedCorpus", "bad index"))
    }

    /// Cached joined row (profile ⊕ encoding) of local benchmark `bi`.
    pub(crate) fn joined(&self, s: usize, repr: ReprKind, bi: usize) -> Result<&[f64], StatsError> {
        let (_, per_bench) = self
            .joined
            .iter()
            .find(|(key, _)| *key == (s, repr))
            .ok_or_else(|| {
                StatsError::invalid(
                    "EncodedCorpus",
                    format!("no joined rows cached for (s = {s}, {})", repr.name()),
                )
            })?;
        per_bench
            .get(bi)
            .map(Vec::as_slice)
            .ok_or_else(|| StatsError::invalid("EncodedCorpus", "bad index"))
    }
}

/// A corpus with its fold-invariant features and targets precomputed:
/// the one-shard layout of a [`ShardedCorpus`], its single shard
/// covering the whole roster and pinned for the corpus' lifetime.
///
/// Construction is parallel over benchmarks; everything computed here is
/// RNG-free, so the cache is a pure function of the corpus and spec. It
/// dereferences to its [`ShardedCorpus`], so it is accepted wherever one
/// is (every evaluation entry point, [`crate::sweep::Sweep`]) and lends
/// its rows ([`ShardedCorpus::profile`] and friends); it adds
/// accessors that lend the measured times out of the pinned shard.
pub struct EncodedCorpus<'c> {
    corpus: &'c Corpus,
    sharded: ShardedCorpus<'c>,
    /// The one shard (benchmarks `0..len`, local = global index), held
    /// so the accessors can lend slices out of it. Its rows are the row
    /// table's, not a copy.
    shard: Arc<EncodedShard>,
}

impl<'c> EncodedCorpus<'c> {
    /// Precomputes everything the spec asks for.
    ///
    /// # Errors
    /// Fails when a window setting does not fit the corpus run count, an
    /// encoding fails, or the corpus is empty (no shard to cover it).
    pub fn build(corpus: &'c Corpus, spec: &EncodingSpec) -> Result<Self, StatsError> {
        let _span = pv_obs::span!("pv.core.pipeline.encode_corpus", benches = corpus.len());
        let sharded = ShardedCorpus::builder(ShardSource::Corpus(corpus), spec)
            .shard_size(corpus.len().max(1))
            .encode()?;
        let shard = sharded.shard(0)?;
        Ok(EncodedCorpus {
            corpus,
            sharded,
            shard,
        })
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &'c Corpus {
        self.corpus
    }

    /// Cached relative times of benchmark `bi`.
    pub fn rel_times(&self, bi: usize) -> &[f64] {
        self.shard.block.rel_times(bi)
    }

    /// Cached relative times of benchmark `bi`, sorted ascending — what
    /// fold truths are built from, so scoring uses the allocation-free
    /// presorted KS path.
    pub fn rel_times_sorted(&self, bi: usize) -> &[f64] {
        self.shard.block.rel_times_sorted(bi)
    }
}

impl<'c> Deref for EncodedCorpus<'c> {
    type Target = ShardedCorpus<'c>;

    fn deref(&self) -> &ShardedCorpus<'c> {
        &self.sharded
    }
}

/// How per-fold seeds derive from the root seed.
///
/// Both chains predate this module; preserving them keeps every output
/// bit-identical to the per-fold training it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// The evaluation chain: fold seed = `derive_stream(root, held)`;
    /// models are built with the fold seed and decode uses
    /// `derive_stream(fold_seed, held)` (this is what per-fold
    /// `FewRunsPredictor::train` + `predict_distribution(…, held)` did).
    PerFold,
    /// The ablation chain: the fold seed is the root seed itself; decode
    /// uses `derive_stream(root, held)` and models ignore the seed.
    Shared,
}

/// Row consumer fed by a [`FoldView`]: `(x_row, y_row, group)` per
/// training row, in training order.
pub type RowSink<'s> = dyn FnMut(&[f64], &[f64], usize) -> Result<(), StatsError> + 's;

/// A streaming view over one fold's training rows.
///
/// The assemble closure declares the fold's shape up front and hands the
/// runner a visitor that yields `(x_row, y_row, group)` triples borrowed
/// from whatever cache backs the fold — a [`ShardedCorpus`]'s row table
/// (an [`EncodedCorpus`]'s included), or an [`EncodedShard`]. The runner
/// materializes the fold matrix exactly once, while visiting; no
/// intermediate row-pointer vectors or full-matrix copies exist on the
/// hot path, at any shard layout.
pub struct FoldView<'a> {
    n_rows: usize,
    x_dim: usize,
    y_dim: usize,
    query: Vec<f64>,
    #[allow(clippy::type_complexity)]
    visit: Box<dyn FnOnce(&mut RowSink<'_>) -> Result<(), StatsError> + 'a>,
}

impl<'a> FoldView<'a> {
    /// A view declaring `n_rows` training rows of `x_dim` features and
    /// `y_dim` targets, the (unscaled) held-out query row, and the
    /// visitor that streams the rows.
    pub fn new(
        n_rows: usize,
        x_dim: usize,
        y_dim: usize,
        query: Vec<f64>,
        visit: impl FnOnce(&mut RowSink<'_>) -> Result<(), StatsError> + 'a,
    ) -> Self {
        FoldView {
            n_rows,
            x_dim,
            y_dim,
            query,
            visit: Box::new(visit),
        }
    }

    /// Declared number of training rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Declared feature width.
    pub fn x_dim(&self) -> usize {
        self.x_dim
    }

    /// Declared target width.
    pub fn y_dim(&self) -> usize {
        self.y_dim
    }

    /// The held-out query row (unscaled).
    pub fn query(&self) -> &[f64] {
        &self.query
    }

    /// Consumes the view, feeding every training row to `sink` in order.
    ///
    /// # Errors
    /// Propagates row-production and sink failures.
    pub fn visit_rows(self, sink: &mut RowSink<'_>) -> Result<(), StatsError> {
        (self.visit)(sink)
    }
}

/// Ground truth for scoring one fold.
pub struct FoldTruth<'a> {
    /// Identity reported in the per-benchmark score.
    pub id: BenchmarkId,
    /// Measured relative times the prediction is scored against, sorted
    /// ascending (`total_cmp` order) so scoring feeds them straight to
    /// [`pv_stats::ks::ks2_statistic_presorted`]. Borrowed when the
    /// caller pins the backing cache (the ablations); owned when read
    /// from a shard (it may be evicted before scoring finishes).
    pub rel: Cow<'a, [f64]>,
}

/// Generic leave-one-group-out fold runner.
///
/// Owns everything the folds share — include-set construction, seed
/// derivation, optional standardization, fit, decode, KS scoring — and
/// runs folds in parallel. Results are independent of thread count: fold
/// seeds derive from the fold index alone and rayon preserves order.
pub struct FoldRunner<'r> {
    /// Number of folds (= benchmarks; fold `i` holds out benchmark `i`).
    pub n_folds: usize,
    /// Root seed.
    pub seed: u64,
    /// Seed-derivation chain (see [`SeedMode`]).
    pub seed_mode: SeedMode,
    /// Whether to fit a [`StandardScaler`] on each fold's training rows.
    pub standardize: bool,
    /// Samples drawn when reconstructing the predicted distribution.
    pub n_samples: usize,
    /// Representation used to decode predicted feature vectors.
    pub repr: &'r dyn DistributionRepr,
}

/// One fold's training data, materialized and (optionally) standardized,
/// plus the transformed query row — everything that happens before a
/// model enters the picture.
///
/// Produced by [`FoldRunner::prepare_fold`]; consumed by
/// [`FoldRunner::score_fold`]. The incremental layer
/// (see [`crate::incremental`]) splits the fold here: it prepares a fold
/// once for every cell that shares it, probes the cheap delta check
/// against each cell's cached fold entry, and fits, decodes and scores
/// only for the cells whose check fails.
pub struct PreparedFold {
    /// The fold's training set (scaled when the runner standardizes).
    pub data: Dataset,
    /// The held-out query row, transformed like the training rows.
    pub query: Vec<f64>,
    /// The fold's derived seed (see [`SeedMode`]).
    pub fold_seed: u64,
}

impl FoldRunner<'_> {
    /// The seed fold `held` trains and decodes with (see [`SeedMode`]).
    pub fn fold_seed(&self, held: usize) -> u64 {
        match self.seed_mode {
            SeedMode::PerFold => derive_stream(self.seed, held as u64),
            SeedMode::Shared => self.seed,
        }
    }

    /// Assembles and materializes fold `held`: include-set construction,
    /// row assembly via the caller's closure, optional standardization,
    /// and query transformation. No model is involved yet.
    ///
    /// # Errors
    /// Propagates assembly failures and rejects degenerate folds (empty
    /// or mismatched row sets).
    pub fn prepare_fold<'a, A>(&self, held: usize, assemble: &A) -> Result<PreparedFold, StatsError>
    where
        A: Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError>,
    {
        let include: Vec<usize> = (0..self.n_folds).filter(|&i| i != held).collect();
        let fold_seed = self.fold_seed(held);
        let view = assemble(held, include)?;
        if view.n_rows == 0 {
            // Without this, fitting below fails obscurely on an empty
            // fold — e.g. a single-benchmark corpus where the include
            // set is empty.
            return Err(StatsError::degenerate(
                "FoldRunner",
                format!("fold {held} has no training rows"),
            ));
        }
        let FoldView {
            n_rows,
            x_dim,
            y_dim,
            mut query,
            visit,
        } = view;
        // Each row is copied into the flat fold buffers exactly once,
        // straight from the backing cache; scaling happens in place
        // afterwards (`StandardScaler::fit` accumulates per-column
        // moments in the same row order `fit_rows` did on borrowed rows,
        // so fit-then-transform-in-place is bit-identical to the old
        // fit-on-borrows-then-copy).
        let mut x_flat = Vec::with_capacity(n_rows * x_dim);
        let mut y_flat = Vec::with_capacity(n_rows * y_dim);
        let mut groups = Vec::with_capacity(n_rows);
        let mut sink = |x_row: &[f64], y_row: &[f64], group: usize| {
            if x_row.len() != x_dim || y_row.len() != y_dim {
                return Err(StatsError::invalid(
                    "FoldRunner",
                    format!(
                        "fold {held} row {}: {}×{} features/targets, expected {x_dim}×{y_dim}",
                        groups.len(),
                        x_row.len(),
                        y_row.len()
                    ),
                ));
            }
            x_flat.extend_from_slice(x_row);
            y_flat.extend_from_slice(y_row);
            groups.push(group);
            Ok(())
        };
        visit(&mut sink)?;
        if groups.len() != n_rows {
            return Err(StatsError::invalid(
                "FoldRunner",
                format!(
                    "fold {held} visited {} rows, view declared {n_rows}",
                    groups.len()
                ),
            ));
        }
        let mut x = DenseMatrix::from_flat(n_rows, x_dim, x_flat)?;
        let scaler = if self.standardize {
            let mut sc = StandardScaler::new();
            sc.fit(&x)?;
            for r in 0..n_rows {
                sc.transform_row(x.row_mut(r))?;
            }
            Some(sc)
        } else {
            None
        };
        let y = DenseMatrix::from_flat(n_rows, y_dim, y_flat)?;
        let data = Dataset::new(x, y, groups)?;
        if let Some(sc) = &scaler {
            sc.transform_row(&mut query)?;
        }
        Ok(PreparedFold {
            data,
            query,
            fold_seed,
        })
    }

    /// Fits a fresh model on a prepared fold, decodes the prediction, and
    /// scores it against the truth — the expensive back half of a fold.
    ///
    /// # Errors
    /// Propagates fit/decode/scoring failures.
    pub fn score_fold<'a, M, T>(
        &self,
        held: usize,
        prepared: &PreparedFold,
        build_model: &M,
        truth: &T,
    ) -> Result<BenchScore, StatsError>
    where
        M: Fn(u64) -> Box<dyn Regressor>,
        T: Fn(usize) -> Result<FoldTruth<'a>, StatsError>,
    {
        let mut model = build_model(prepared.fold_seed);
        model.fit(&prepared.data)?;
        let predicted_features = model.predict(&prepared.query)?;
        let t = truth(held)?;
        let ks = self.score_prediction(held, prepared.fold_seed, &predicted_features, &t.rel)?;
        Ok(BenchScore { id: t.id, ks })
    }

    /// Decodes fold `held`'s predicted feature vector under `fold_seed`
    /// and returns its KS statistic against `truth` (sorted ascending):
    /// the part of a fold after the model.
    ///
    /// # Errors
    /// Propagates decode and scoring failures.
    pub(crate) fn score_prediction(
        &self,
        held: usize,
        fold_seed: u64,
        features: &[f64],
        truth: &[f64],
    ) -> Result<f64, StatsError> {
        let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(fold_seed, held as u64));
        let mut predicted = self.repr.decode(features, &mut rng, self.n_samples)?;
        // Sort the freshly-decoded sample once and use the presorted KS
        // sweep: same sort order (`total_cmp`) and same merge as
        // `ks2_statistic`, so the D value is bit-identical — but the
        // truth side (cached sorted in the encode block) is no longer
        // copied and re-sorted on every fold.
        predicted.sort_by(f64::total_cmp);
        ks2_statistic_presorted(&predicted, truth)
    }

    /// Runs one fold end to end: prepare, fit, decode, score.
    ///
    /// # Errors
    /// Propagates assembly/fit/decode/scoring failures.
    pub fn run_fold<'a, M, A, T>(
        &self,
        held: usize,
        build_model: &M,
        assemble: &A,
        truth: &T,
    ) -> Result<BenchScore, StatsError>
    where
        M: Fn(u64) -> Box<dyn Regressor>,
        A: Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError>,
        T: Fn(usize) -> Result<FoldTruth<'a>, StatsError>,
    {
        let _fold_span = pv_obs::span!("pv.core.pipeline.fold", held = held);
        let prepared = self.prepare_fold(held, assemble)?;
        self.score_fold(held, &prepared, build_model, truth)
    }

    /// Runs all folds and aggregates the per-benchmark KS scores.
    ///
    /// `build_model` receives the fold seed; `assemble` receives the
    /// held-out index and the include set (all other indices, ascending)
    /// and returns the fold's training rows; `truth` supplies what fold
    /// `held` is scored against.
    ///
    /// # Errors
    /// Propagates assembly/fit/decode/scoring failures from any fold.
    pub fn run<'a, M, A, T>(
        &self,
        build_model: M,
        assemble: A,
        truth: T,
    ) -> Result<EvalSummary, StatsError>
    where
        M: Fn(u64) -> Box<dyn Regressor> + Send + Sync,
        A: Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError> + Send + Sync,
        T: Fn(usize) -> Result<FoldTruth<'a>, StatsError> + Send + Sync,
    {
        let _span = pv_obs::span!("pv.core.pipeline.logo_eval", folds = self.n_folds);
        let scores: Result<Vec<BenchScore>, StatsError> = (0..self.n_folds)
            .into_par_iter()
            .map(|held| self.run_fold(held, &build_model, &assemble, &truth))
            .collect();
        EvalSummary::from_scores(scores?)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pv_stats::fingerprint::lane_digest;
    use pv_sysmodel::SystemModel;

    fn corpus() -> Corpus {
        Corpus::collect(&SystemModel::intel(), 30, 11)
    }

    #[test]
    fn cached_encodings_match_fresh_computation() {
        let c = corpus();
        let spec = EncodingSpec::new()
            .profiles(5, 3)
            .target(ReprKind::PearsonRnd)
            .target(ReprKind::Histogram)
            .joined(10, ReprKind::PearsonRnd);
        let enc = EncodedCorpus::build(&c, &spec).unwrap();
        for (bi, bench) in c.benchmarks.iter().enumerate() {
            let rel = bench.runs.rel_times();
            assert_eq!(enc.rel_times(bi), rel.as_slice());
            for kind in [ReprKind::PearsonRnd, ReprKind::Histogram] {
                let fresh = kind.build().encode(&rel).unwrap();
                assert_eq!(enc.target(kind, bi).unwrap(), fresh.as_slice());
            }
            // Window 0 equals a fresh head profile.
            let fresh = Profile::from_runs(&bench.runs, 5).unwrap().features;
            assert_eq!(enc.profile(5, bi, 0).unwrap(), fresh.as_slice());
            // Joined = 10-run profile ⊕ PearsonRnd encoding.
            let mut joined = Profile::from_runs(&bench.runs, 10).unwrap().features;
            joined.extend(ReprKind::PearsonRnd.build().encode(&rel).unwrap());
            assert_eq!(
                enc.joined(10, ReprKind::PearsonRnd, bi).unwrap(),
                joined.as_slice()
            );
        }
    }

    #[test]
    fn window_profiles_cover_disjoint_runs() {
        let c = corpus();
        let enc = EncodedCorpus::build(&c, &EncodingSpec::new().profiles(5, 3)).unwrap();
        // Windows of the same benchmark differ (different run slices)…
        assert_ne!(enc.profile(5, 0, 0).unwrap(), enc.profile(5, 0, 1).unwrap());
        // …and window 1 matches a profile built on that exact slice.
        let bench = &c.benchmarks[0];
        let window = RunSet {
            bench: bench.id,
            system: c.system,
            records: bench.runs.records[5..10].to_vec(),
        };
        let fresh = Profile::from_runs(&window, 5).unwrap().features;
        assert_eq!(enc.profile(5, 0, 1).unwrap(), fresh.as_slice());
    }

    #[test]
    fn build_validates_window_settings() {
        let c = corpus();
        assert!(EncodedCorpus::build(&c, &EncodingSpec::new().profiles(0, 1)).is_err());
        assert!(EncodedCorpus::build(&c, &EncodingSpec::new().profiles(16, 2)).is_err());
        assert!(EncodedCorpus::build(&c, &EncodingSpec::new().profiles(15, 2)).is_ok());
    }

    #[test]
    fn missing_cache_entries_error() {
        let c = corpus();
        let enc = EncodedCorpus::build(&c, &EncodingSpec::new().profiles(5, 1)).unwrap();
        assert!(enc.profile(7, 0, 0).is_err());
        assert!(enc.profile(5, 0, 1).is_err());
        assert!(enc.target(ReprKind::PearsonRnd, 0).is_err());
        assert!(enc.joined(5, ReprKind::PearsonRnd, 0).is_err());
        assert!(enc.profile(5, c.len(), 0).is_err());
    }

    #[test]
    fn duplicate_spec_entries_merge() {
        let c = corpus();
        let spec = EncodingSpec::new()
            .profiles(5, 2)
            .profiles(5, 3)
            .target(ReprKind::PearsonRnd)
            .target(ReprKind::PearsonRnd)
            .joined(5, ReprKind::PearsonRnd)
            .joined(5, ReprKind::PearsonRnd);
        let enc = EncodedCorpus::build(&c, &spec).unwrap();
        assert!(enc.profile(5, 0, 2).is_ok());
        assert!(enc.joined(5, ReprKind::PearsonRnd, 0).is_ok());
        assert_eq!(enc.shard.block.rows.targets.len(), 1);
        assert_eq!(enc.shard.block.rows.joined.len(), 1);
    }

    #[test]
    fn spec_builders_are_idempotent() {
        assert_eq!(EncodingSpec::new(), EncodingSpec::default());
        let once = EncodingSpec::new()
            .profiles(5, 3)
            .target(ReprKind::Histogram)
            .joined(10, ReprKind::PearsonRnd);
        let twice = EncodingSpec::new()
            .profiles(5, 2)
            .profiles(5, 3)
            .target(ReprKind::Histogram)
            .target(ReprKind::Histogram)
            .joined(10, ReprKind::PearsonRnd)
            .joined(10, ReprKind::PearsonRnd);
        assert_eq!(once, twice);
        // Distinct settings still accumulate.
        let two_s = EncodingSpec::new().profiles(5, 1).profiles(7, 1);
        assert_ne!(two_s, EncodingSpec::new().profiles(5, 1));
    }

    #[test]
    fn corpus_fingerprint_tracks_content() {
        let a = Corpus::collect(&SystemModel::intel(), 20, 11);
        let b = Corpus::collect(&SystemModel::intel(), 20, 11);
        assert_eq!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        // Any observable difference — seed, run count, system — moves it.
        let other_seed = Corpus::collect(&SystemModel::intel(), 20, 12);
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&other_seed));
        let other_runs = Corpus::collect(&SystemModel::intel(), 21, 11);
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&other_runs));
        let other_sys = Corpus::collect(&SystemModel::amd(), 20, 11);
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&other_sys));
        // A single flipped bit in one run moves it too.
        let mut tampered = a.clone();
        tampered.benchmarks[17].runs.records[3].rel_time += 1e-12;
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&tampered));
    }

    #[test]
    fn bench_digest_is_pinned() {
        let mut bench = Corpus::collect(&SystemModel::intel(), 3, 1)
            .benchmarks
            .swap_remove(0);
        bench.runs.records = (0..3)
            .map(|i| pv_sysmodel::RunRecord {
                time_s: 1.5 + i as f64,
                rel_time: 0.25 * i as f64,
                component: 0,
                metrics: vec![i as f64, -0.0, 1e-300],
            })
            .collect();
        // The words the digest reads, spelled out.
        let mut label = Fnv1a::new();
        label.write_str("npb/bt");
        let mut words = vec![label.finish(), 3];
        for r in &bench.runs.records {
            words.extend([r.time_s.to_bits(), r.rel_time.to_bits(), 3]);
            words.extend(r.metrics.iter().map(|m| m.to_bits()));
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(bench.id.qualified(), "npb/bt");
        assert_eq!(bench_digest(&bench), lane_digest(&bytes));
        assert_eq!(
            bench_digest(&bench),
            0x2355_6abf_231e_62cb,
            "the benchmark digest changed: every corpus fingerprint and stored \
             benchmark digest moves with it, which needs new CELL_MAGIC and \
             SPILL_MAGIC values"
        );
    }

    #[test]
    fn prepare_fold_reads_each_row_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Five single-row groups; the view counts how many times the
        // runner pulls a row. Both the scaled and unscaled paths must
        // stream every training row exactly once — a second pass would
        // mean a full-matrix copy crept back onto the hot path.
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 1.0 + i as f64]).collect();
        let repr = ReprKind::PearsonRnd.build();
        for standardize in [false, true] {
            let visits = AtomicUsize::new(0);
            let runner = FoldRunner {
                n_folds: 5,
                seed: 1,
                seed_mode: SeedMode::PerFold,
                standardize,
                n_samples: 10,
                repr: repr.as_ref(),
            };
            let assemble = |held: usize, include: Vec<usize>| {
                let rows = &rows;
                let visits = &visits;
                Ok(FoldView::new(
                    include.len(),
                    2,
                    2,
                    rows[held].clone(),
                    move |sink: &mut RowSink<'_>| {
                        for &bi in &include {
                            visits.fetch_add(1, Ordering::Relaxed);
                            sink(&rows[bi], &rows[bi], bi)?;
                        }
                        Ok(())
                    },
                ))
            };
            let prepared = runner.prepare_fold(0, &assemble).unwrap();
            assert_eq!(
                visits.load(Ordering::Relaxed),
                4,
                "standardize={standardize}"
            );
            assert_eq!(prepared.query.len(), 2);
        }
    }

    #[test]
    fn prepare_fold_rejects_ragged_and_miscounted_views() {
        let repr = ReprKind::PearsonRnd.build();
        let runner = FoldRunner {
            n_folds: 3,
            seed: 1,
            seed_mode: SeedMode::PerFold,
            standardize: false,
            n_samples: 10,
            repr: repr.as_ref(),
        };
        // Ragged row.
        let ragged = |_held: usize, _include: Vec<usize>| {
            Ok(FoldView::new(
                2,
                2,
                1,
                vec![0.0, 0.0],
                |sink: &mut RowSink<'_>| {
                    sink(&[1.0, 2.0], &[3.0], 0)?;
                    sink(&[1.0], &[3.0], 1)
                },
            ))
        };
        assert!(runner.prepare_fold(0, &ragged).is_err());
        // Fewer rows than declared.
        let short = |_held: usize, _include: Vec<usize>| {
            Ok(FoldView::new(
                2,
                2,
                1,
                vec![0.0, 0.0],
                |sink: &mut RowSink<'_>| sink(&[1.0, 2.0], &[3.0], 0),
            ))
        };
        assert!(runner.prepare_fold(0, &short).is_err());
        // Empty fold is degenerate.
        let empty = |_held: usize, _include: Vec<usize>| {
            Ok(FoldView::new(
                0,
                2,
                1,
                vec![0.0, 0.0],
                |_sink: &mut RowSink<'_>| Ok(()),
            ))
        };
        assert!(runner.prepare_fold(0, &empty).is_err());
    }

    #[test]
    fn corpus_fingerprint_is_thread_count_independent() {
        let c = corpus();
        let baseline = corpus_fingerprint(&c);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        assert_eq!(baseline, pool.install(|| corpus_fingerprint(&c)));
    }
}
