//! Sharded corpora: the encode/evaluate data plane.
//!
//! A [`ShardedCorpus`] splits a campaign into contiguous benchmark-index
//! ranges. Each shard is independently generated (via per-benchmark
//! seeding in `pv-sysmodel`) and independently encoded (via the
//! [`EncodedBlock`] kernel), fingerprinted with `pv_stats::fingerprint`,
//! and spillable to disk as a [`crate::store`] envelope, like the cell
//! cache. An LRU-bounded resident set keeps at most a budgeted number of
//! encoded shards in memory, so the measured runs in memory are
//! `O(shard)` — one raw benchmark range during generation plus the
//! resident encoded shards — not `O(corpus)`.
//!
//! What spans the roster is the **row table**: every profile, target and
//! joined row of the encoding spec, kept from the encode pass for the
//! corpus' lifetime (in memory only; it is never spilled). It costs
//! `N × (x_dim + y_dim) × 8` bytes per spec entry — 276 doubles per
//! benchmark at `s = 10`, ~442 KB at 200 benchmarks — against 8 KB of
//! measured runs per benchmark in a shard. Fold assembly reads its
//! training rows from the table ([`ShardedCorpus::profile`],
//! [`ShardedCorpus::target`], [`ShardedCorpus::joined`]), so a fold
//! faults a shard in only for its held-out truth, and folds run in
//! ascending order load each shard about once per pass.
//!
//! Every evaluation runs on this plane. A whole in-memory corpus is the
//! one-shard layout: [`EncodedCorpus`](crate::pipeline::EncodedCorpus)
//! is a `ShardedCorpus` with a single pinned shard covering the roster.
//!
//! ## Layout independence
//!
//! The shard layout never changes an output bit, at any thread count:
//!
//! * generation seeds every stage from the benchmark id, so a range is
//!   bit-identical to the same slice of a full campaign;
//! * encoding runs the same per-benchmark kernel in the same order;
//! * fold assembly streams include rows in ascending benchmark order
//!   from the row table through the
//!   [`FoldView`](crate::pipeline::FoldView) abstraction, so every
//!   layout yields the row order of the one-shard layout;
//! * the corpus fingerprint is computed from the same per-benchmark
//!   digests with the same domain tag, so runs of one campaign at
//!   different layouts share fold caches and sweep cell caches.
//!
//! ## Spill format
//!
//! `shard-{index:05}-{key:016x}.bin`: a [`crate::store`] envelope under
//! the magic `PVSHARD3` and a key binding the file to (system, runs,
//! seed, roster size, range, encoding-spec coverage), whose payload is
//! the serialized shard and whose trailing
//! [`lane_digest`](pv_stats::fingerprint::lane_digest) is the shard
//! fingerprint. After the initial build that digest must additionally
//! equal the fingerprint recorded at build time. Parsing checks the
//! stored range and every stored benchmark label against the roster
//! slice the key was computed for — the key binds the roster's size, not
//! its order, so a reordered roster must not adopt another roster's
//! files. Any mismatch — truncation, tampering, a stale spec, another
//! roster — is treated as a miss and the shard is recomputed silently (a
//! `verify_fail` counter records it), exactly like a corrupted
//! cell-cache entry.
//!
//! A fault costs a file read, a digest and a copy: the sorted
//! truths the KS scoring reads are derived data, filled per benchmark on
//! first use ([`EncodedShard::rel_times_sorted`]), so a load sorts
//! nothing until a fold scores against one of its truths.

use std::collections::VecDeque;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;
use pv_sysmodel::{collect_benchmarks, BenchmarkData, BenchmarkId, Corpus, SystemId, SystemModel};

use crate::pipeline::{corpus_digest_parts, EncodedBlock, EncodingSpec, RowBlock};
use crate::repr::ReprKind;
use crate::resilience::PvError;
use crate::store::Unsealed;

/// Spill envelope magic; the trailing digit is the format version. Bump
/// to orphan every spilled shard; a build deletes the spill files of
/// older versions. (v3: a payload's benchmark digests are eight-lane
/// digests.)
const SPILL_MAGIC: &[u8; 8] = b"PVSHARD3";

/// Counters this module emits (pre-registered by the sweep service so
/// they export as explicit zeros when a run never touches a path).
pub const SHARD_OBS_COUNTERS: [&str; 5] = [
    "pv.core.shard.encode",
    "pv.core.shard.evict",
    "pv.core.shard.load",
    "pv.core.shard.spill",
    "pv.core.shard.verify_fail",
];

/// Contiguous benchmark-index ranges covering `0..n_benchmarks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// Shard boundaries: `bounds[i]..bounds[i+1]` is shard `i`'s range.
    /// Always starts at 0, ends at `n_benchmarks`, strictly increasing.
    bounds: Vec<usize>,
}

impl ShardLayout {
    /// Uniform layout: shards of `shard_size` benchmarks (the last shard
    /// takes the remainder).
    ///
    /// # Errors
    /// Fails when `shard_size` is zero.
    pub fn uniform(n_benchmarks: usize, shard_size: usize) -> Result<Self, StatsError> {
        if shard_size == 0 {
            return Err(StatsError::invalid("ShardLayout", "shard size 0"));
        }
        let mut bounds = vec![0];
        while *bounds.last().unwrap_or(&0) < n_benchmarks {
            let next = (bounds[bounds.len() - 1] + shard_size).min(n_benchmarks);
            bounds.push(next);
        }
        Ok(ShardLayout { bounds })
    }

    /// Layout from explicit interior cut points. Cuts are sorted and
    /// deduplicated; out-of-range cuts (0 or ≥ `n_benchmarks`) are
    /// dropped, so any cut set yields a valid layout — handy for
    /// randomized boundary tests.
    pub fn from_boundaries(n_benchmarks: usize, cuts: &[usize]) -> Self {
        let mut bounds: Vec<usize> = cuts
            .iter()
            .copied()
            .filter(|&c| c > 0 && c < n_benchmarks)
            .collect();
        bounds.push(0);
        bounds.push(n_benchmarks);
        bounds.sort_unstable();
        bounds.dedup();
        ShardLayout { bounds }
    }

    /// Benchmarks covered.
    pub fn n_benchmarks(&self) -> usize {
        *self.bounds.last().unwrap_or(&0)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Shard `si`'s benchmark-index range.
    pub fn range(&self, si: usize) -> Range<usize> {
        self.bounds[si]..self.bounds[si + 1]
    }

    /// The shard containing benchmark `bi`.
    pub fn shard_of(&self, bi: usize) -> usize {
        // partition_point: first bound > bi, minus one.
        self.bounds.partition_point(|&b| b <= bi).saturating_sub(1)
    }
}

/// A campaign to generate shard by shard: the streaming source for
/// corpora too large to materialize at once.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSource {
    /// The simulated system.
    pub system: SystemModel,
    /// Roster size (first 60 are Table I, the rest synthetic — see
    /// [`pv_sysmodel::scaled_roster`]).
    pub n_benchmarks: usize,
    /// Runs per benchmark.
    pub n_runs: usize,
    /// Root seed of the campaign.
    pub seed: u64,
}

/// Where a [`ShardedCorpus`]'s benchmark data comes from.
pub enum ShardSource<'c> {
    /// An already-collected corpus; shards borrow its benchmark slices.
    Corpus(&'c Corpus),
    /// A campaign generated range by range, never materialized whole.
    Campaign(CampaignSource),
}

impl ShardSource<'_> {
    fn system(&self) -> SystemId {
        match self {
            ShardSource::Corpus(c) => c.system,
            ShardSource::Campaign(g) => g.system.id,
        }
    }

    fn n_runs(&self) -> usize {
        match self {
            ShardSource::Corpus(c) => c.n_runs,
            ShardSource::Campaign(g) => g.n_runs,
        }
    }

    fn seed(&self) -> u64 {
        match self {
            ShardSource::Corpus(c) => c.seed,
            ShardSource::Campaign(g) => g.seed,
        }
    }

    fn ids(&self) -> Vec<BenchmarkId> {
        match self {
            ShardSource::Corpus(c) => c.benchmarks.iter().map(|b| b.id).collect(),
            ShardSource::Campaign(g) => pv_sysmodel::scaled_roster(g.n_benchmarks),
        }
    }

    fn len(&self) -> usize {
        match self {
            ShardSource::Corpus(c) => c.len(),
            ShardSource::Campaign(g) => g.n_benchmarks,
        }
    }
}

/// One encoded shard: the [`EncodedBlock`] of a benchmark range, plus
/// identity and a content fingerprint over its serialized payload.
///
/// Accessors take *global* benchmark indices and reject indices outside
/// the shard's range.
pub struct EncodedShard {
    start: usize,
    ids: Vec<BenchmarkId>,
    pub(crate) block: EncodedBlock,
    content_fp: u64,
}

impl EncodedShard {
    /// Encodes a benchmark range and serializes it once: the returned
    /// payload is the one the fingerprint was taken from, ready to spill.
    fn encode(
        start: usize,
        benches: &[BenchmarkData],
        n_runs: usize,
        spec: &EncodingSpec,
    ) -> Result<(Self, Unsealed), StatsError> {
        pv_obs::counter_inc!("pv.core.shard.encode");
        let block = EncodedBlock::build(benches, n_runs, spec)?;
        let ids: Vec<BenchmarkId> = benches.iter().map(|b| b.id).collect();
        let payload = Unsealed::new(|buf| write_payload(buf, start, &ids, &block));
        let shard = EncodedShard {
            start,
            ids,
            block,
            content_fp: payload.digest(),
        };
        Ok((shard, payload))
    }

    /// Global benchmark-index range this shard covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.ids.len()
    }

    /// Number of benchmarks in the shard.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Content fingerprint: the
    /// [`lane_digest`](pv_stats::fingerprint::lane_digest) of the shard's
    /// serialized payload (ids, per-benchmark digests, every encoded
    /// value, bit-exact).
    pub fn fingerprint(&self) -> u64 {
        self.content_fp
    }

    /// Per-benchmark content digests, shard order.
    pub fn bench_fingerprints(&self) -> &[u64] {
        &self.block.bench_fps
    }

    fn local(&self, bi: usize) -> Result<usize, StatsError> {
        if self.range().contains(&bi) {
            Ok(bi - self.start)
        } else {
            Err(StatsError::invalid(
                "EncodedShard",
                format!("benchmark {bi} outside shard range {:?}", self.range()),
            ))
        }
    }

    /// Cached relative times of benchmark `bi` (global index).
    ///
    /// # Errors
    /// Fails when `bi` is outside the shard's range.
    pub fn rel_times(&self, bi: usize) -> Result<&[f64], StatsError> {
        Ok(self.block.rel_times(self.local(bi)?))
    }

    /// Cached relative times of benchmark `bi` (global index), sorted
    /// ascending — the truth side of the presorted KS fast path. Sorted
    /// on first use and kept while the shard lives.
    ///
    /// # Errors
    /// Fails when `bi` is outside the shard's range.
    pub fn rel_times_sorted(&self, bi: usize) -> Result<&[f64], StatsError> {
        Ok(self.block.rel_times_sorted(self.local(bi)?))
    }

    /// Cached window-`w` profile of benchmark `bi` for setting `s`.
    ///
    /// # Errors
    /// Fails when `bi` is outside the shard's range or `(s, w)` was not
    /// covered by the build spec.
    pub fn profile(&self, s: usize, bi: usize, w: usize) -> Result<&[f64], StatsError> {
        self.block.rows.profile(s, self.local(bi)?, w)
    }

    /// Cached target encoding of benchmark `bi` under `repr`.
    ///
    /// # Errors
    /// Fails when `bi` is outside the shard's range or `repr` was not
    /// covered by the build spec.
    pub fn target(&self, repr: ReprKind, bi: usize) -> Result<&[f64], StatsError> {
        self.block.rows.target(repr, self.local(bi)?)
    }

    /// Cached joined row (profile ⊕ encoding) of benchmark `bi`.
    ///
    /// # Errors
    /// Fails when `bi` is outside the shard's range or `(s, repr)` was
    /// not covered by the build spec.
    pub fn joined(&self, s: usize, repr: ReprKind, bi: usize) -> Result<&[f64], StatsError> {
        self.block.rows.joined(s, repr, self.local(bi)?)
    }
}

// ---------------------------------------------------------------------
// Spill codec: a compact binary format (JSON parse cost would dominate
// LRU-thrash reloads). All integers little-endian u64; floats as
// IEEE-754 bit patterns.

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u64(buf, vs.len() as u64);
    for v in vs {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn write_payload(buf: &mut Vec<u8>, start: usize, ids: &[BenchmarkId], block: &EncodedBlock) {
    put_u64(buf, start as u64);
    put_u64(buf, ids.len() as u64);
    for id in ids {
        put_str(buf, &id.qualified());
    }
    for &fp in &block.bench_fps {
        put_u64(buf, fp);
    }
    for rel in &block.rel {
        put_f64s(buf, rel);
    }
    let rows = &block.rows;
    put_u64(buf, rows.profiles.len() as u64);
    for (s, per_bench) in &rows.profiles {
        put_u64(buf, *s as u64);
        let windows = per_bench.first().map_or(0, Vec::len);
        put_u64(buf, windows as u64);
        for bench_windows in per_bench {
            for w in bench_windows {
                put_f64s(buf, w);
            }
        }
    }
    put_u64(buf, rows.targets.len() as u64);
    for (kind, per_bench) in &rows.targets {
        put_str(buf, kind.name());
        for row in per_bench {
            put_f64s(buf, row);
        }
    }
    put_u64(buf, rows.joined.len() as u64);
    for ((s, kind), per_bench) in &rows.joined {
        put_u64(buf, *s as u64);
        put_str(buf, kind.name());
        for row in per_bench {
            put_f64s(buf, row);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PvError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(spill_err("parse", "truncated shard payload")),
        }
    }

    fn u64(&mut self) -> Result<u64, PvError> {
        let bytes = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    fn count(&mut self, what: &str) -> Result<usize, PvError> {
        let v = self.u64()?;
        // A corrupted length would otherwise drive a huge allocation
        // before the truncation check fires.
        if v > self.buf.len() as u64 {
            return Err(spill_err("parse", format!("implausible {what} count {v}")));
        }
        Ok(v as usize)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, PvError> {
        let n = self.count("float")?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(arr))
            })
            .collect())
    }

    fn bytes(&mut self) -> Result<&'a [u8], PvError> {
        let n = self.count("string byte")?;
        self.take(n)
    }

    fn str(&mut self) -> Result<&'a str, PvError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| spill_err("parse", "non-UTF-8 string in shard payload"))
    }
}

fn spill_err(what: &str, detail: impl Into<String>) -> PvError {
    PvError::Invalid {
        what: format!("shard spill {what}"),
        detail: detail.into(),
    }
}

/// Parses a digest-verified payload into the block of `ids`, the roster
/// slice starting at benchmark `start` that the spill key was computed
/// for. A stored start, count or label that disagrees with it is a
/// mismatch, not a shard.
fn parse_payload(
    payload: &[u8],
    start: usize,
    ids: &[BenchmarkId],
) -> Result<EncodedBlock, PvError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    if r.u64()? != start as u64 || r.count("benchmark")? != ids.len() {
        return Err(spill_err("verify", "shard range mismatch"));
    }
    for id in ids {
        if r.bytes()? != id.qualified().as_bytes() {
            return Err(spill_err(
                "verify",
                format!("label mismatch: roster has {id}"),
            ));
        }
    }
    let n = ids.len();
    let mut bench_fps = Vec::with_capacity(n);
    for _ in 0..n {
        bench_fps.push(r.u64()?);
    }
    let mut rel = Vec::with_capacity(n);
    for _ in 0..n {
        rel.push(r.f64s()?);
    }
    let n_profiles = r.count("profile setting")?;
    let mut profiles = Vec::with_capacity(n_profiles);
    for _ in 0..n_profiles {
        let s = r.u64()? as usize;
        let windows = r.count("window")?;
        let mut per_bench = Vec::with_capacity(n);
        for _ in 0..n {
            let mut bench_windows = Vec::with_capacity(windows);
            for _ in 0..windows {
                bench_windows.push(r.f64s()?);
            }
            per_bench.push(bench_windows);
        }
        profiles.push((s, per_bench));
    }
    let n_targets = r.count("target kind")?;
    let mut targets = Vec::with_capacity(n_targets);
    for _ in 0..n_targets {
        let kind: ReprKind = r
            .str()?
            .parse()
            .map_err(|e: StatsError| spill_err("parse", e.to_string()))?;
        let mut per_bench = Vec::with_capacity(n);
        for _ in 0..n {
            per_bench.push(r.f64s()?);
        }
        targets.push((kind, per_bench));
    }
    let n_joined = r.count("joined kind")?;
    let mut joined = Vec::with_capacity(n_joined);
    for _ in 0..n_joined {
        let s = r.u64()? as usize;
        let kind: ReprKind = r
            .str()?
            .parse()
            .map_err(|e: StatsError| spill_err("parse", e.to_string()))?;
        let mut per_bench = Vec::with_capacity(n);
        for _ in 0..n {
            per_bench.push(r.f64s()?);
        }
        joined.push(((s, kind), per_bench));
    }
    if r.pos != payload.len() {
        return Err(spill_err("parse", "trailing bytes in shard payload"));
    }
    Ok(EncodedBlock {
        rel_sorted: (0..n).map(|_| OnceLock::new()).collect(),
        rel,
        rows: Arc::new(RowBlock {
            profiles,
            targets,
            joined,
        }),
        bench_fps,
    })
}

// ---------------------------------------------------------------------
// Resident set: LRU over Arc'd shards.

struct Resident {
    slots: Vec<Option<Arc<EncodedShard>>>,
    /// Least-recently-used order, most recent at the back.
    lru: VecDeque<usize>,
}

impl Resident {
    fn new(n_shards: usize) -> Self {
        Resident {
            slots: (0..n_shards).map(|_| None).collect(),
            lru: VecDeque::new(),
        }
    }

    fn get(&mut self, si: usize) -> Option<Arc<EncodedShard>> {
        let shard = self.slots[si].clone()?;
        self.lru.retain(|&s| s != si);
        self.lru.push_back(si);
        Some(shard)
    }

    fn insert(&mut self, si: usize, shard: Arc<EncodedShard>, budget: usize) {
        self.slots[si] = Some(shard);
        self.lru.retain(|&s| s != si);
        self.lru.push_back(si);
        while self.lru.len() > budget {
            if let Some(evict) = self.lru.pop_front() {
                self.slots[evict] = None;
                pv_obs::counter_inc!("pv.core.shard.evict");
            }
        }
        pv_obs::gauge_set!("pv.core.shard.resident", self.lru.len());
    }

    fn len(&self) -> usize {
        self.lru.len()
    }
}

// ---------------------------------------------------------------------
// The sharded corpus.

/// Builder for [`ShardedCorpus`]; see [`ShardedCorpus::builder`].
pub struct ShardedCorpusBuilder<'c> {
    source: ShardSource<'c>,
    spec: EncodingSpec,
    shard_size: usize,
    layout: Option<ShardLayout>,
    spill_dir: Option<PathBuf>,
    resident_shards: Option<usize>,
}

impl<'c> ShardedCorpusBuilder<'c> {
    /// Shard size for the default uniform layout (default 256).
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size;
        self
    }

    /// Explicit layout (overrides `shard_size`).
    pub fn layout(mut self, layout: ShardLayout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// Spill encoded shards to `dir` (created if absent). Without a
    /// spill dir, evicted shards are recomputed from the source.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Resident-set budget in shards (≥ 1; default
    /// `max(4, rayon threads + 2)`). Folds read their training rows from
    /// the row table and fault a shard in only for a held-out truth, and
    /// a sweep runs each group's folds in ascending order, so a pass
    /// loads each shard about once per group at any budget: 13 spilled
    /// shards under budget 4 take 13 loads per 200-fold pass of one
    /// group (at most one more per worker). The budget bounds memory,
    /// not loads.
    pub fn resident_shards(mut self, n: usize) -> Self {
        self.resident_shards = Some(n);
        self
    }

    /// Builds the sharded corpus: one sequential pass over the shards —
    /// generate (or borrow) the range, encode it, fingerprint it, spill
    /// it — keeping at most the resident budget in memory. With a spill
    /// dir, a key-matching self-verified spill file from a previous
    /// build is loaded instead of regenerated (warm restart), and the
    /// files of older spill formats are deleted first.
    ///
    /// # Errors
    /// [`PvError::CacheIo`] when the spill directory cannot be created;
    /// encoding/validation failures convert from [`StatsError`].
    pub fn build(self) -> Result<ShardedCorpus<'c>, PvError> {
        if let Some(dir) = &self.spill_dir {
            fs::create_dir_all(dir).map_err(|e| PvError::CacheIo {
                what: "shard spill create dir".into(),
                detail: format!("{}: {e}", dir.display()),
            })?;
            // Crashed writers leak `*.tmp.<pid>` files, and older spill
            // formats leave files no build can load; reclaim both before
            // this run starts spilling its own.
            crate::store::sweep_stale_temps(dir);
            crate::store::prune_older_formats(dir, "shard-", ".bin", SPILL_MAGIC);
        }
        Ok(self.encode()?)
    }

    /// [`ShardedCorpusBuilder::build`] after the spill directory is
    /// ready: validates the layout and runs the encode pass. Without a
    /// spill dir this is the whole build.
    pub(crate) fn encode(self) -> Result<ShardedCorpus<'c>, StatsError> {
        let ShardedCorpusBuilder {
            source,
            spec,
            shard_size,
            layout,
            spill_dir,
            resident_shards,
        } = self;
        let n = source.len();
        let layout = match layout {
            Some(l) => {
                if l.n_benchmarks() != n {
                    return Err(StatsError::invalid(
                        "ShardedCorpus",
                        format!(
                            "layout covers {} benchmarks, corpus has {n}",
                            l.n_benchmarks()
                        ),
                    ));
                }
                l
            }
            None => ShardLayout::uniform(n, shard_size)?,
        };
        let budget = resident_shards
            .unwrap_or_else(|| (rayon::current_num_threads() + 2).max(4))
            .max(1);
        let n_shards = layout.n_shards();
        let mut sc = ShardedCorpus {
            ids: source.ids(),
            source,
            spec,
            layout,
            bench_fps: Vec::with_capacity(n),
            shard_fps: Vec::with_capacity(n_shards),
            rows: Vec::with_capacity(n_shards),
            spill_dir,
            budget,
            resident: Mutex::new(Resident::new(n_shards)),
            load_guards: (0..n_shards).map(|_| Mutex::new(())).collect(),
        };
        let _span = pv_obs::span!(
            "pv.core.shard.build",
            benches = n,
            shards = n_shards,
            budget = budget
        );
        for si in 0..n_shards {
            // Warm restart: accept a key-matching, self-verified spill
            // file without regenerating. (Key + payload digest is the
            // same trust model as the cell cache's verified loads.)
            let shard = match sc.try_load_spill(si, None) {
                Some(s) => s,
                None => Arc::new(sc.encode_shard(si)?),
            };
            sc.bench_fps.extend_from_slice(shard.bench_fingerprints());
            sc.shard_fps.push(shard.fingerprint());
            sc.rows.push(Arc::clone(&shard.block.rows));
            sc.lock_resident().insert(si, shard, budget);
        }
        Ok(sc)
    }
}

/// A corpus as a set of benchmark-range shards with an LRU-bounded
/// resident set, plus the row table of every shard's training rows. See
/// the module docs for the memory model and the layout-independence
/// guarantee.
pub struct ShardedCorpus<'c> {
    source: ShardSource<'c>,
    spec: EncodingSpec,
    layout: ShardLayout,
    ids: Vec<BenchmarkId>,
    /// Per-benchmark content digests, roster order — always resident
    /// (8 bytes per benchmark); the fold cache compares rosters of these
    /// without touching any shard.
    bench_fps: Vec<u64>,
    /// Expected content fingerprint per shard, pinned at build time;
    /// post-build spill loads must match exactly.
    shard_fps: Vec<u64>,
    /// The row table: every shard's [`RowBlock`] as the build encoded
    /// (or warm-loaded) it, shard order. It lives in memory only, for
    /// the corpus' lifetime, so fold assembly never faults a shard in;
    /// a fold needs a shard only for its held-out truth.
    rows: Vec<Arc<RowBlock>>,
    spill_dir: Option<PathBuf>,
    budget: usize,
    resident: Mutex<Resident>,
    /// Per-shard load guards so concurrent folds faulting on the same
    /// shard do one recompute, not one each.
    load_guards: Vec<Mutex<()>>,
}

impl<'c> ShardedCorpus<'c> {
    /// Starts building a sharded corpus over `source` with encoding
    /// coverage `spec`.
    pub fn builder(source: ShardSource<'c>, spec: &EncodingSpec) -> ShardedCorpusBuilder<'c> {
        ShardedCorpusBuilder {
            source,
            spec: spec.clone(),
            shard_size: 256,
            layout: None,
            spill_dir: None,
            resident_shards: None,
        }
    }

    /// Number of benchmarks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the corpus has no benchmarks.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Benchmark identities, roster order.
    pub fn ids(&self) -> &[BenchmarkId] {
        &self.ids
    }

    /// Identity of benchmark `bi`.
    pub fn id(&self, bi: usize) -> BenchmarkId {
        self.ids[bi]
    }

    /// The measured system.
    pub fn system(&self) -> SystemId {
        self.source.system()
    }

    /// Runs per benchmark.
    pub fn n_runs(&self) -> usize {
        self.source.n_runs()
    }

    /// Root seed of the campaign.
    pub fn seed(&self) -> u64 {
        self.source.seed()
    }

    /// The shard layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The encoding coverage every shard was built with.
    pub fn spec(&self) -> &EncodingSpec {
        &self.spec
    }

    /// Per-benchmark content digests, roster order — identical to
    /// [`crate::pipeline::bench_fingerprints`] on the collected corpus.
    pub fn bench_fingerprints(&self) -> &[u64] {
        &self.bench_fps
    }

    /// Per-shard content fingerprints, shard order.
    pub fn shard_fingerprints(&self) -> &[u64] {
        &self.shard_fps
    }

    /// Corpus fingerprint — identical to
    /// [`crate::pipeline::corpus_fingerprint`] on the collected corpus
    /// and independent of shard layout, so runs at different layouts
    /// share fold and cell caches.
    pub fn fingerprint(&self) -> u64 {
        corpus_digest_parts(
            self.source.system(),
            self.source.n_runs(),
            self.source.seed(),
            &self.bench_fps,
        )
    }

    /// The row-table block holding benchmark `bi`, and `bi`'s index in
    /// it.
    fn row_block(&self, bi: usize) -> Result<(&RowBlock, usize), StatsError> {
        // `shard_of` maps any index past the roster one past the last shard.
        let si = self.layout.shard_of(bi);
        let block = self.rows.get(si).ok_or_else(|| {
            StatsError::invalid(
                "ShardedCorpus",
                format!("benchmark {bi} out of range ({} benchmarks)", self.len()),
            )
        })?;
        Ok((block, bi - self.layout.range(si).start))
    }

    /// Window-`w` profile of benchmark `bi` for setting `s`, from the
    /// row table (no shard is touched).
    ///
    /// # Errors
    /// Fails when `(s, w)` was not covered by the build spec or `bi` is
    /// out of range.
    pub fn profile(&self, s: usize, bi: usize, w: usize) -> Result<&[f64], StatsError> {
        let (block, local) = self.row_block(bi)?;
        block.profile(s, local, w)
    }

    /// Target encoding of benchmark `bi` under `repr`, from the row
    /// table.
    ///
    /// # Errors
    /// Fails when `repr` was not covered by the build spec or `bi` is out
    /// of range.
    pub fn target(&self, repr: ReprKind, bi: usize) -> Result<&[f64], StatsError> {
        let (block, local) = self.row_block(bi)?;
        block.target(repr, local)
    }

    /// Joined row (profile ⊕ encoding) of benchmark `bi`, from the row
    /// table.
    ///
    /// # Errors
    /// Fails when `(s, repr)` was not covered by the build spec or `bi`
    /// is out of range.
    pub fn joined(&self, s: usize, repr: ReprKind, bi: usize) -> Result<&[f64], StatsError> {
        let (block, local) = self.row_block(bi)?;
        block.joined(s, repr, local)
    }

    /// Shards currently resident (≤ the budget).
    pub fn n_resident(&self) -> usize {
        self.lock_resident().len()
    }

    /// The resident-set budget, in shards.
    pub fn resident_budget(&self) -> usize {
        self.budget
    }

    #[allow(clippy::unwrap_used)] // lock poisoning: a panicked fold already aborted the eval
    fn lock_resident(&self) -> std::sync::MutexGuard<'_, Resident> {
        self.resident
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn spill_key(&self, si: usize) -> u64 {
        let range = self.layout.range(si);
        let mut h = Fnv1a::new();
        h.write_str("pv-shard-key-v1");
        h.write_str(self.source.system().short_name());
        h.write_usize(self.source.n_runs());
        h.write_u64(self.source.seed());
        h.write_usize(self.len());
        h.write_usize(range.start);
        h.write_usize(range.end);
        self.spec.write_digest(&mut h);
        h.finish()
    }

    fn spill_path(&self, si: usize) -> Option<PathBuf> {
        let dir = self.spill_dir.as_ref()?;
        Some(dir.join(format!("shard-{si:05}-{:016x}.bin", self.spill_key(si))))
    }

    /// Loads shard `si` from its spill file, verifying the envelope, the
    /// payload digest against `expect_fp` when the build already pinned
    /// it, then range and labels. Any failure is a miss; a failed check
    /// (not a missing file) is counted.
    fn try_load_spill(&self, si: usize, expect_fp: Option<u64>) -> Option<Arc<EncodedShard>> {
        let path = self.spill_path(si)?;
        match self.load_spill(&path, si, expect_fp) {
            Ok(shard) => {
                pv_obs::counter_inc!("pv.core.shard.load");
                Some(Arc::new(shard))
            }
            Err(e) => {
                if matches!(e, PvError::Invalid { .. }) {
                    pv_obs::counter_inc!("pv.core.shard.verify_fail");
                }
                None
            }
        }
    }

    fn load_spill(
        &self,
        path: &Path,
        si: usize,
        expect_fp: Option<u64>,
    ) -> Result<EncodedShard, PvError> {
        let sealed = crate::store::open(path, SPILL_MAGIC, self.spill_key(si))?;
        let content_fp = sealed.digest();
        if expect_fp.is_some_and(|expect| expect != content_fp) {
            return Err(spill_err("verify", "shard fingerprint mismatch"));
        }
        let range = self.layout.range(si);
        let ids = &self.ids[range.clone()];
        Ok(EncodedShard {
            start: range.start,
            block: parse_payload(sealed.payload(), range.start, ids)?,
            ids: ids.to_vec(),
            content_fp,
        })
    }

    /// Generates (or borrows) shard `si`'s benchmark range, encodes it
    /// and, with a spill dir, spills it (see [`crate::store`]). The raw
    /// range data lives only for the duration of this call. A failed
    /// spill is non-fatal: the shard can always be recomputed.
    fn encode_shard(&self, si: usize) -> Result<EncodedShard, StatsError> {
        let range = self.layout.range(si);
        let (shard, payload) = match &self.source {
            ShardSource::Corpus(c) => {
                EncodedShard::encode(range.start, &c.benchmarks[range], c.n_runs, &self.spec)?
            }
            ShardSource::Campaign(g) => {
                let benches =
                    collect_benchmarks(&g.system, &self.ids[range.clone()], g.n_runs, g.seed);
                EncodedShard::encode(range.start, &benches, g.n_runs, &self.spec)?
            }
        };
        if let Some(path) = self.spill_path(si) {
            let sealed = payload.seal(SPILL_MAGIC, self.spill_key(si));
            if crate::store::write_atomic(&path, &sealed).is_ok() {
                pv_obs::counter_inc!("pv.core.shard.spill");
            }
        }
        Ok(shard)
    }

    /// The shard at index `si`, resident or faulted in (spill load when
    /// verified, recompute otherwise). Holding the returned `Arc` pins
    /// the shard's memory even across eviction, so callers keep at most
    /// one or two shards pinned at a time.
    ///
    /// # Errors
    /// A typed invalid error when `si` is not a shard of the layout (as
    /// `layout().shard_of(bi)` returns for any `bi >= len()`); otherwise
    /// propagates recompute (generation/encode) failures. Spill problems
    /// never propagate — a bad file is recomputed silently.
    pub fn shard(&self, si: usize) -> Result<Arc<EncodedShard>, StatsError> {
        if si >= self.layout.n_shards() {
            return Err(StatsError::invalid(
                "ShardedCorpus",
                format!(
                    "shard {si} out of range ({} shards)",
                    self.layout.n_shards()
                ),
            ));
        }
        if let Some(shard) = self.lock_resident().get(si) {
            return Ok(shard);
        }
        // Serialize faults per shard: concurrent folds missing on the
        // same shard wait here and find it resident on re-check.
        #[allow(clippy::unwrap_used)] // poisoning: see lock_resident
        let _guard = self.load_guards[si]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(shard) = self.lock_resident().get(si) {
            return Ok(shard);
        }
        let expect = self.shard_fps.get(si).copied();
        // A recompute heals the spill file, so the next fault is a load
        // again.
        let shard = match self.try_load_spill(si, expect) {
            Some(s) => s,
            None => Arc::new(self.encode_shard(si)?),
        };
        debug_assert!(
            expect.is_none() || expect == Some(shard.fingerprint()),
            "recomputed shard diverged from its build-time fingerprint"
        );
        self.lock_resident()
            .insert(si, Arc::clone(&shard), self.budget);
        Ok(shard)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pv_sysmodel::SystemModel;

    #[test]
    fn uniform_layout_covers_everything() {
        let l = ShardLayout::uniform(60, 7).unwrap();
        assert_eq!(l.n_benchmarks(), 60);
        assert_eq!(l.n_shards(), 9);
        assert_eq!(l.range(0), 0..7);
        assert_eq!(l.range(8), 56..60);
        for bi in 0..60 {
            assert!(l.range(l.shard_of(bi)).contains(&bi), "bi={bi}");
        }
        assert!(ShardLayout::uniform(60, 0).is_err());
        let one = ShardLayout::uniform(60, 64).unwrap();
        assert_eq!(one.n_shards(), 1);
    }

    #[test]
    fn boundary_layout_sanitizes_cuts() {
        let l = ShardLayout::from_boundaries(10, &[3, 3, 7, 0, 10, 99]);
        assert_eq!(l.n_shards(), 3);
        assert_eq!(l.range(0), 0..3);
        assert_eq!(l.range(1), 3..7);
        assert_eq!(l.range(2), 7..10);
        let whole = ShardLayout::from_boundaries(10, &[]);
        assert_eq!(whole.n_shards(), 1);
    }

    fn spec() -> EncodingSpec {
        EncodingSpec::new()
            .profiles(5, 2)
            .target(ReprKind::PearsonRnd)
    }

    #[test]
    fn sharded_encodings_match_one_shard() {
        let c = Corpus::collect(&SystemModel::intel(), 20, 3);
        let enc = crate::pipeline::EncodedCorpus::build(&c, &spec()).unwrap();
        let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec())
            .shard_size(7)
            .build()
            .unwrap();
        assert_eq!(sh.len(), c.len());
        assert_eq!(sh.bench_fingerprints(), enc.bench_fingerprints());
        assert_eq!(sh.fingerprint(), enc.fingerprint());
        for bi in 0..c.len() {
            let shard = sh.shard(sh.layout().shard_of(bi)).unwrap();
            assert_eq!(shard.rel_times(bi).unwrap(), enc.rel_times(bi));
            assert_eq!(
                shard.profile(5, bi, 1).unwrap(),
                enc.profile(5, bi, 1).unwrap()
            );
            assert_eq!(
                shard.target(ReprKind::PearsonRnd, bi).unwrap(),
                enc.target(ReprKind::PearsonRnd, bi).unwrap()
            );
        }
        // Out-of-range access is rejected.
        let shard0 = sh.shard(0).unwrap();
        assert!(shard0.rel_times(55).is_err());
    }

    #[test]
    fn campaign_source_matches_collected_corpus() {
        let c = Corpus::collect(&SystemModel::amd(), 12, 9);
        let sh = ShardedCorpus::builder(
            ShardSource::Campaign(CampaignSource {
                system: SystemModel::amd(),
                n_benchmarks: 60,
                n_runs: 12,
                seed: 9,
            }),
            &spec(),
        )
        .shard_size(13)
        .build()
        .unwrap();
        let enc = crate::pipeline::EncodedCorpus::build(&c, &spec()).unwrap();
        assert_eq!(sh.fingerprint(), enc.fingerprint());
        assert_eq!(
            sh.ids(),
            &c.benchmarks.iter().map(|b| b.id).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn resident_set_respects_budget() {
        let c = Corpus::collect(&SystemModel::intel(), 10, 1);
        let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec())
            .shard_size(6)
            .resident_shards(2)
            .build()
            .unwrap();
        assert_eq!(sh.layout().n_shards(), 10);
        assert_eq!(sh.resident_budget(), 2);
        assert!(sh.n_resident() <= 2);
        // Faulting shards in and out keeps the budget.
        for si in 0..sh.layout().n_shards() {
            sh.shard(si).unwrap();
            assert!(sh.n_resident() <= 2);
        }
        // An evicted shard recomputes bit-identically.
        let again = sh.shard(0).unwrap();
        assert_eq!(again.fingerprint(), sh.shard_fingerprints()[0]);
    }

    #[test]
    fn spill_round_trips_and_warm_restarts() {
        let dir = std::env::temp_dir().join(format!("pv-shard-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let c = Corpus::collect(&SystemModel::intel(), 10, 2);
        let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec())
            .shard_size(16)
            .spill_dir(&dir)
            .resident_shards(1)
            .build()
            .unwrap();
        let n_files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(n_files, sh.layout().n_shards());
        // Evict shard 0 (budget 1), then fault it back in: the spill
        // load must reproduce the exact build-time fingerprint.
        sh.shard(sh.layout().n_shards() - 1).unwrap();
        let reloaded = sh.shard(0).unwrap();
        assert_eq!(reloaded.fingerprint(), sh.shard_fingerprints()[0]);
        // Warm restart: a second build on the same dir loads, and agrees.
        let warm = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec())
            .shard_size(16)
            .spill_dir(&dir)
            .build()
            .unwrap();
        assert_eq!(warm.fingerprint(), sh.fingerprint());
        assert_eq!(warm.shard_fingerprints(), sh.shard_fingerprints());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_build_prunes_older_spill_formats_only() {
        let dir = std::env::temp_dir().join(format!("pv-shard-prune-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let campaign = || CampaignSource {
            system: SystemModel::intel(),
            n_benchmarks: 60,
            n_runs: 10,
            seed: 4,
        };
        let build = || {
            ShardedCorpus::builder(ShardSource::Campaign(campaign()), &spec())
                .shard_size(16)
                .spill_dir(&dir)
                .build()
                .unwrap()
        };
        build();
        let live = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let bytes = fs::read(&live).unwrap();
        assert_eq!(&bytes[..8], SPILL_MAGIC);
        let restamped = |version: u8, name: &str| {
            let mut copy = bytes.clone();
            copy[7] = version;
            let path = dir.join(name);
            fs::write(&path, copy).unwrap();
            path
        };
        let older = restamped(b'2', "shard-00000-0000000000000002.bin");
        let newer = restamped(b'9', "shard-00000-0000000000000009.bin");
        let sh = build();
        assert!(!older.exists(), "the older format's spill file survived");
        assert!(newer.exists(), "the newer format's spill file was deleted");
        assert!(live.exists());
        let collected = Corpus::collect(&SystemModel::intel(), 10, 4);
        assert_eq!(
            sh.fingerprint(),
            crate::pipeline::corpus_fingerprint(&collected)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reordered_roster_does_not_adopt_another_rosters_spill_files() {
        let dir = std::env::temp_dir().join(format!("pv-shard-reorder-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let c = Corpus::collect(&SystemModel::intel(), 10, 2);
        let mut swapped = c.clone();
        swapped.benchmarks.swap(0, 1);
        fn build<'c>(corpus: &'c Corpus, dir: &Path) -> ShardedCorpus<'c> {
            ShardedCorpus::builder(ShardSource::Corpus(corpus), &spec())
                .shard_size(16)
                .spill_dir(dir)
                .build()
                .unwrap()
        }
        let cold = build(&swapped, &dir.join("cold"));
        build(&c, &dir.join("shared"));
        // Same system, runs, seed and size: the spill keys collide, and
        // only the stored labels tell the two rosters apart.
        let warm = build(&swapped, &dir.join("shared"));
        assert_ne!(warm.fingerprint(), crate::pipeline::corpus_fingerprint(&c));
        assert_eq!(warm.fingerprint(), cold.fingerprint());
        assert_eq!(warm.shard_fingerprints(), cold.shard_fingerprints());
        for si in 0..warm.layout().n_shards() {
            let range = warm.layout().range(si);
            assert_eq!(warm.shard(si).unwrap().ids, warm.ids()[range]);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_loaded_shard_sorts_its_truths_on_first_use() {
        let dir = std::env::temp_dir().join(format!("pv-shard-lazy-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let c = Corpus::collect(&SystemModel::intel(), 10, 2);
        let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec())
            .shard_size(16)
            .spill_dir(&dir)
            .resident_shards(1)
            .build()
            .unwrap();
        sh.shard(1).unwrap();
        let shard = sh.shard(0).unwrap();
        let filled = || {
            shard
                .block
                .rel_sorted
                .iter()
                .filter(|slot| slot.get().is_some())
                .count()
        };
        assert_eq!(filled(), 0, "a fault must not sort any truth");
        let mut want = shard.rel_times(3).unwrap().to_vec();
        want.sort_by(f64::total_cmp);
        assert_eq!(shard.rel_times_sorted(3).unwrap(), want.as_slice());
        assert_eq!(filled(), 1);
        assert!(shard.block.rel_sorted[3].get().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_spill_dir_is_typed_cache_io() {
        let file = std::env::temp_dir().join(format!("pv-shard-file-{}", std::process::id()));
        fs::write(&file, b"not a directory").unwrap();
        let c = Corpus::collect(&SystemModel::intel(), 5, 2);
        let err = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec())
            .spill_dir(&file)
            .build()
            .err()
            .unwrap();
        assert_eq!(err.kind(), "cache-io");
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn out_of_range_shard_index_is_typed_invalid() {
        let c = Corpus::collect(&SystemModel::intel(), 10, 1);
        let sh = ShardedCorpus::builder(ShardSource::Corpus(&c), &spec())
            .shard_size(16)
            .build()
            .unwrap();
        // `shard_of` maps any index past the roster to one past the last
        // shard; asking for it is an error, not an index panic.
        let past_end = sh.layout().shard_of(sh.len());
        assert_eq!(past_end, sh.layout().n_shards());
        for si in [past_end, past_end + 5] {
            let err = sh.shard(si).err().unwrap();
            assert_eq!(PvError::from(err).kind(), "invalid", "shard {si}");
        }
        assert!(sh.shard(past_end - 1).is_ok());
    }

    #[test]
    fn spec_digest_is_phrasing_independent() {
        let a = EncodingSpec::new()
            .profiles(5, 2)
            .target(ReprKind::Histogram);
        let b = EncodingSpec::new()
            .target(ReprKind::Histogram)
            .profiles(5, 2);
        let digest = |spec: &EncodingSpec| {
            let mut h = Fnv1a::new();
            spec.write_digest(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&EncodingSpec::new().profiles(5, 2)));
    }
}
