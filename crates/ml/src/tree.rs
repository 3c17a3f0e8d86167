//! Multi-output CART regression trees.
//!
//! The shared building block of the [random forest](crate::forest) and the
//! [gradient booster](crate::gbt). Splits minimize the summed squared
//! error across *all* target outputs (the natural multi-output extension
//! of variance reduction), computed in O(n) per feature via prefix sums
//! over sorted rows.
//!
//! Rows reach that scan in `(value, row)` order, ascending value with
//! ties broken by row index, by one of two routes. A tree that scans
//! every feature at every node (a boosting round, a plain CART fit)
//! takes them from presorted column blocks: each feature is ranked once
//! per fit (`FeatureRanks`) and each split stable-partitions the node's
//! block segments, so no node sorts. A tree that draws a few features
//! per node (a forest) sorts just those features' node rows instead,
//! which is cheaper than partitioning every feature's block. The order
//! is total, so both routes scan every node's rows in the same order and
//! grow bit-identical trees, and no tree depends on where an unstable
//! sort leaves rows with equal values.
//!
//! Leaf values support an optional L2 shrinkage `λ` (`value = Σy / (n+λ)`),
//! which is exactly the XGBoost leaf-weight formula for squared loss —
//! plain CART uses λ = 0.

use serde::{Deserialize, Serialize};

use pv_stats::rng::Xoshiro256pp;
use pv_stats::StatsError;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::{Dataset, DenseMatrix};
use crate::{Regressor, Result};

/// Tree growth hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Number of candidate features per node (`None` = all).
    pub max_features: Option<usize>,
    /// L2 leaf shrinkage λ: leaf value = Σy / (n + λ).
    pub leaf_lambda: f64,
    /// Seed for per-node feature subsampling.
    pub seed: u64,
    /// Split-finding strategy. `false` (this struct's default) scans
    /// every adjacent-value midpoint of each node's sorted rows; `true`
    /// pre-bins every feature into ≤ 256 value bins once per fit and
    /// finds splits on nodes larger than a feature's bin count with an
    /// O(n + bins) histogram scan. The evaluation models
    /// (`pv_core::ModelKind`) turn it on.
    pub binned: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            leaf_lambda: 0.0,
            seed: 0,
            binned: false,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted multi-output regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    /// Growth configuration.
    pub config: TreeConfig,
    nodes: Vec<Node>,
    n_features: usize,
    n_outputs: usize,
    importance: Vec<f64>,
}

impl RegressionTree {
    /// Creates an unfitted tree with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        RegressionTree {
            config,
            nodes: Vec::new(),
            n_features: 0,
            n_outputs: 0,
            importance: Vec::new(),
        }
    }

    /// Impurity-based feature importances: total SSE reduction credited to
    /// splits on each feature, normalized to sum to 1 (all zeros for a
    /// stump). Available after `fit`.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importance
    }

    /// Creates an unfitted tree with default CART settings.
    pub fn default_cart() -> Self {
        RegressionTree::new(TreeConfig::default())
    }

    /// Grows the tree on the source rows `rows` of `x`/`y` (repeats
    /// allowed: a bootstrap draw, a boosting subsample). Ensembles fit
    /// every member through here over one source matrix, sharing one
    /// bin table (`bins`, built when the config is `binned`) and one
    /// rank table (`ranks`, used when the config scans every feature;
    /// built here when absent and needed). Input validation is the
    /// caller's job.
    pub(crate) fn fit_rows(
        &mut self,
        x: &DenseMatrix,
        y: &DenseMatrix,
        rows: Vec<usize>,
        bins: Option<&BinnedFeatures>,
        ranks: Option<&FeatureRanks>,
    ) {
        let d = x.cols();
        let scans_all = self.config.max_features.is_none_or(|m| m.max(1) >= d);
        let sorted = scans_all.then(|| match ranks {
            Some(ranks) => SortedBlocks::new(ranks, &rows),
            None => SortedBlocks::new(&FeatureRanks::build(x), &rows),
        });
        self.grow(x, y, rows, bins, sorted);
    }

    /// The common fit body: grows the tree with an optional histogram
    /// bin table and, when `sorted` is set, presorted column blocks of
    /// exactly `rows` instead of per-node sorts.
    fn grow(
        &mut self,
        x: &DenseMatrix,
        y: &DenseMatrix,
        mut rows: Vec<usize>,
        bins: Option<&BinnedFeatures>,
        sorted: Option<SortedBlocks>,
    ) {
        let t = y.cols();
        let nb = bins.map_or(0, |b| {
            b.thresholds.iter().map(|t| t.len() + 1).max().unwrap_or(1)
        });
        let mut builder = Builder {
            x,
            y,
            cfg: self.config,
            rng: Xoshiro256pp::seed_from_u64(self.config.seed),
            nodes: Vec::new(),
            importance: vec![0.0; x.cols()],
            bins,
            sorted,
            scratch: Vec::new(),
            left: vec![0.0; t],
            hist_counts: vec![0; nb],
            hist_sums: vec![0.0; nb * t],
            hist_sqs: vec![0.0; nb],
        };
        builder.build(&mut rows, 0, 0);
        self.nodes = builder.nodes;
        self.n_features = x.cols();
        self.n_outputs = t;
        // Normalize importances to a distribution over features.
        let total: f64 = builder.importance.iter().sum();
        if total > 0.0 {
            for v in builder.importance.iter_mut() {
                *v /= total;
            }
        }
        self.importance = builder.importance;
    }

    /// Number of nodes in the fitted tree (0 when unfitted).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

/// Per-feature value binning, built once per fit when
/// [`TreeConfig::binned`] is set.
///
/// When a feature has ≤ 256 distinct values each value gets its own bin
/// and the candidate thresholds coincide with the exact path's adjacent-
/// value midpoints; otherwise bins are equal-frequency quantile cuts.
/// Split finding then replaces the exact scan over a node's sorted rows
/// with one O(n) histogram fill plus an O(bins) boundary scan.
pub(crate) struct BinnedFeatures {
    n_rows: usize,
    /// Column-major bin codes: `codes[f · n_rows + i]` is row `i`'s bin.
    codes: Vec<u8>,
    /// Per feature, the candidate threshold between bins `b` and `b+1`:
    /// the midpoint of bin `b`'s maximum and bin `b+1`'s minimum value,
    /// so `value ≤ threshold` reproduces the code partition. Empty for
    /// constant features.
    thresholds: Vec<Vec<f64>>,
}

impl BinnedFeatures {
    const MAX_BINS: usize = 256;

    /// Bins the feature matrix `x` (targets are never read, so one table
    /// serves every bootstrap replicate of a forest and every residual
    /// round of a boosting fit).
    pub(crate) fn build(x: &DenseMatrix) -> Self {
        let n = x.rows();
        let d = x.cols();
        let mut codes = vec![0u8; d * n];
        let mut thresholds = Vec::with_capacity(d);
        let mut sorted: Vec<f64> = Vec::with_capacity(n);
        for f in 0..d {
            sorted.clear();
            sorted.extend((0..n).map(|i| x.get(i, f)));
            sorted.sort_unstable_by(f64::total_cmp);
            // Bin upper bounds: every distinct value when they fit in
            // 256 bins, else equal-frequency quantile cuts (the final
            // cut lands on the maximum, so every value has a bin).
            let mut uppers: Vec<f64> = Vec::with_capacity(Self::MAX_BINS);
            uppers.push(sorted[0]);
            for &v in &sorted[1..] {
                if v != *uppers.last().expect("nonempty") {
                    uppers.push(v);
                }
            }
            if uppers.len() > Self::MAX_BINS {
                uppers.clear();
                for b in 1..=Self::MAX_BINS {
                    let v = sorted[b * n / Self::MAX_BINS - 1];
                    if uppers.last() != Some(&v) {
                        uppers.push(v);
                    }
                }
            }
            // Threshold between b and b+1: midpoint of bin b's upper
            // bound and the smallest value strictly above it.
            let mut th = Vec::with_capacity(uppers.len().saturating_sub(1));
            let mut j = 0usize;
            for &upper in uppers.iter().take(uppers.len().saturating_sub(1)) {
                while j < n && sorted[j] <= upper {
                    j += 1;
                }
                th.push(0.5 * (upper + sorted[j]));
            }
            for i in 0..n {
                let v = x.get(i, f);
                codes[f * n + i] = uppers.partition_point(|u| *u < v) as u8;
            }
            thresholds.push(th);
        }
        BinnedFeatures {
            n_rows: n,
            codes,
            thresholds,
        }
    }

    #[inline]
    fn code(&self, f: usize, i: usize) -> usize {
        self.codes[f * self.n_rows + i] as usize
    }
}

/// The order the split scan walks a node's `(value, row)` pairs in:
/// ascending value, ties by row index. It is total, so a node's rows
/// have one scan order whichever route sorted them.
#[inline]
fn by_value(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Every feature's rows ranked once per fit: block `f` of `pairs`
/// (column-major, `n_rows` pairs per block) holds feature `f`'s
/// `(value, row)` pairs in [`by_value`] order. Like the bin table it
/// reads only features, so one ranking serves every round of a boosting
/// fit.
pub(crate) struct FeatureRanks {
    n_rows: usize,
    pairs: Vec<(f64, u32)>,
}

impl FeatureRanks {
    /// Ranks every column of `x`.
    pub(crate) fn build(x: &DenseMatrix) -> Self {
        let n = x.rows();
        let mut pairs = Vec::with_capacity(n * x.cols());
        for f in 0..x.cols() {
            let col = pairs.len();
            pairs.extend((0..n).map(|r| (x.get(r, f), r as u32)));
            pairs[col..].sort_unstable_by(by_value);
        }
        FeatureRanks { n_rows: n, pairs }
    }
}

/// Presorted column blocks of one tree's training rows, partitioned in
/// step with the builder's row list: while a node holds positions
/// `lo..lo + n` of that list, feature `f`'s block holds the same rows'
/// pairs in [`by_value`] order at `lo..lo + n`. A row the list repeats
/// (a bootstrap draw) appears as that many identical pairs.
struct SortedBlocks {
    /// Rows per block (the tree's training-row count, repeats included).
    len: usize,
    pairs: Vec<(f64, u32)>,
    /// Per source row: whether the split being applied sends it left.
    goes_left: Vec<bool>,
    /// The right-hand rows of the segment being partitioned.
    tmp: Vec<(f64, u32)>,
}

impl SortedBlocks {
    /// Filters the ranked pairs down to `rows` in one O(d · N) pass,
    /// emitting each source row as often as `rows` repeats it.
    fn new(ranks: &FeatureRanks, rows: &[usize]) -> Self {
        let mut copies = vec![0u32; ranks.n_rows];
        for &r in rows {
            copies[r] += 1;
        }
        // Every ranked pair is written and the cursor advances by its
        // row's copy count: branch-free for the usual 0/1 counts, with
        // one slot of slack for a skipped pair written past the end.
        let kept = rows.len() * (ranks.pairs.len() / ranks.n_rows.max(1));
        let mut pairs = vec![(0.0, 0); kept + 1];
        let mut w = 0;
        for &(v, r) in &ranks.pairs {
            let c = copies[r as usize] as usize;
            pairs[w] = (v, r);
            if c > 1 {
                pairs[w..w + c].fill((v, r));
            }
            w += c;
        }
        pairs.truncate(kept);
        SortedBlocks {
            len: rows.len(),
            pairs,
            goes_left: vec![false; ranks.n_rows],
            tmp: Vec::new(),
        }
    }

    /// Feature `f`'s pairs at row-list positions `lo..lo + n`, by value.
    #[inline]
    fn segment(&self, f: usize, lo: usize, n: usize) -> &[(f64, u32)] {
        &self.pairs[f * self.len + lo..][..n]
    }

    /// Splits every block's segment `lo..lo + left.len() + right.len()`
    /// into the rows of `left` followed by those of `right`, each side
    /// keeping its order.
    fn partition(&mut self, lo: usize, left: &[usize], right: &[usize]) {
        for &r in left {
            self.goes_left[r] = true;
        }
        for &r in right {
            self.goes_left[r] = false;
        }
        let n = left.len() + right.len();
        self.tmp.resize(n, (0.0, 0));
        for block in self.pairs.chunks_exact_mut(self.len) {
            let seg = &mut block[lo..lo + n];
            // Branch-free: each pair is written to both sides and only
            // the side it belongs to advances.
            let (mut nl, mut nr) = (0, 0);
            for k in 0..n {
                let pair = seg[k];
                let l = usize::from(self.goes_left[pair.1 as usize]);
                seg[nl] = pair;
                self.tmp[nr] = pair;
                nl += l;
                nr += 1 - l;
            }
            seg[nl..].copy_from_slice(&self.tmp[..nr]);
        }
    }
}

/// A node's target totals, shared by every candidate split of it.
struct NodeTotals {
    /// Σy per output.
    tot: Vec<f64>,
    /// The scalar Σ_k Σ y².
    tot2_sum: f64,
    /// The node's own SSE, the baseline every gain is measured against.
    parent_sse: f64,
}

/// The best split found so far: `(feature, threshold, gain)`.
type Best = Option<(usize, f64, f64)>;

/// Scans feature `f`'s node rows, given by value, for the
/// split with the largest SSE reduction, updating `best` on a strict
/// improvement. `left` is scratch of one slot per output.
fn scan_sorted(
    f: usize,
    sorted: &[(f64, u32)],
    y: &DenseMatrix,
    totals: &NodeTotals,
    min_leaf: usize,
    left: &mut [f64],
    best: &mut Best,
) {
    let n = sorted.len();
    if sorted[0].0 == sorted[n - 1].0 {
        return; // constant feature in this node
    }
    left.iter_mut().for_each(|v| *v = 0.0);
    // Σ_k left2_k only ever appears summed over outputs, so track it as
    // a scalar; histogram-style targets are mostly zeros, and skipping
    // them cuts the dominant accumulation loop.
    let mut left_sq = 0.0;
    for pos in 0..n - 1 {
        let row = sorted[pos].1 as usize;
        for (l, &y) in left.iter_mut().zip(y.row(row)) {
            if y != 0.0 {
                *l += y;
                left_sq += y * y;
            }
        }
        let nl = pos + 1;
        let nr = n - nl;
        if nl < min_leaf || nr < min_leaf {
            continue;
        }
        let xl = sorted[pos].0;
        let xr = sorted[pos + 1].0;
        if xl == xr {
            continue; // can't split between equal values
        }
        // SSE_left + SSE_right, vectorized over outputs:
        //   Σ_k left2_k − (Σ_k left_k²)/nl
        // + (tot2 − Σ_k left2_k) − (Σ_k (tot_k − left_k)²)/nr
        let mut sum_l2 = 0.0;
        let mut sum_r2 = 0.0;
        for (l, t0) in left.iter().zip(&totals.tot) {
            sum_l2 += l * l;
            let r = t0 - l;
            sum_r2 += r * r;
        }
        let sse =
            (left_sq - sum_l2 / nl as f64) + ((totals.tot2_sum - left_sq) - sum_r2 / nr as f64);
        let gain = totals.parent_sse - sse;
        if gain > best.map_or(1e-12, |b| b.2) {
            *best = Some((f, 0.5 * (xl + xr), gain));
        }
    }
}

/// Shared split-growing state. The scratch buffers (`scratch`, `left`,
/// the `hist_*` histograms) live here so one allocation serves every
/// node of the tree instead of being re-made per split search.
struct Builder<'a> {
    /// Source features and targets; the row lists hold their row ids.
    x: &'a DenseMatrix,
    y: &'a DenseMatrix,
    cfg: TreeConfig,
    rng: Xoshiro256pp,
    nodes: Vec<Node>,
    importance: Vec<f64>,
    bins: Option<&'a BinnedFeatures>,
    /// Presorted blocks; `None` sorts each candidate feature per node.
    sorted: Option<SortedBlocks>,
    scratch: Vec<(f64, u32)>,
    left: Vec<f64>,
    hist_counts: Vec<u32>,
    hist_sums: Vec<f64>,
    hist_sqs: Vec<f64>,
}

impl<'a> Builder<'a> {
    /// Leaf value Σy/(n+λ) over the rows in `idx`.
    #[inline]
    fn leaf_value(&self, idx: &[usize]) -> Vec<f64> {
        let t = self.y.cols();
        let mut v = vec![0.0; t];
        for &i in idx {
            for (acc, y) in v.iter_mut().zip(self.y.row(i)) {
                *acc += y;
            }
        }
        let denom = idx.len() as f64 + self.cfg.leaf_lambda;
        for acc in v.iter_mut() {
            *acc /= denom;
        }
        v
    }

    /// Finds the best (feature, threshold) split of the node holding
    /// positions `lo..lo + idx.len()` of the row list, returning
    /// `(feature, threshold, gain)`; `None` when no valid split exists.
    fn best_split(&mut self, idx: &[usize], lo: usize) -> Best {
        let n = idx.len();
        let d = self.x.cols();
        let t = self.y.cols();
        if n < self.cfg.min_samples_split || n < 2 * self.cfg.min_samples_leaf {
            return None;
        }

        // Parent SSE components: Σy per output and the scalar Σ_k Σ y².
        let mut tot = vec![0.0; t];
        let mut tot2_sum = 0.0;
        for &i in idx.iter() {
            for (acc, &y) in tot.iter_mut().zip(self.y.row(i)) {
                *acc += y;
                tot2_sum += y * y;
            }
        }
        let parent_sse: f64 = tot2_sum - tot.iter().map(|s| s * s).sum::<f64>() / n as f64;
        if parent_sse <= 1e-12 {
            return None; // already pure
        }
        let totals = NodeTotals {
            tot,
            tot2_sum,
            parent_sse,
        };

        // Candidate features: all, or a random subset per node.
        let n_cand = self.cfg.max_features.unwrap_or(d).clamp(1, d);
        let mut features: Vec<usize> = (0..d).collect();
        if n_cand < d {
            // Partial Fisher–Yates for the first n_cand slots.
            for i in 0..n_cand {
                let j = self.rng.gen_range(i..d);
                features.swap(i, j);
            }
            features.truncate(n_cand);
        }

        let mut best: Best = None;
        let min_leaf = self.cfg.min_samples_leaf.max(1);
        // Disjoint field borrows: the bin table and blocks are read
        // while the scratch/histogram buffers are written.
        let Builder {
            x,
            y,
            bins,
            sorted,
            scratch,
            left,
            hist_counts,
            hist_sums,
            hist_sqs,
            ..
        } = self;
        let (x, y, bins) = (*x, *y, *bins);
        // Kernel choice is per node *and* per feature: the histogram
        // kernel needs no sorted rows — an O(n) fill replaces the
        // per-node sort — but its O(bins) clear + boundary scan is paid
        // regardless of node size, so on nodes smaller than the bin
        // count (the vast majority of nodes in a deep tree) the exact
        // scan is cheaper. Both kernels induce the same row
        // partitions on data with ≤ 256 distinct values per feature,
        // where bin boundaries coincide with adjacent-value midpoints.
        for &f in &features {
            match bins {
                // A globally constant feature can never split any node.
                Some(bins) if bins.thresholds[f].is_empty() => continue,
                Some(bins) if n > bins.thresholds[f].len() => {
                    let th = &bins.thresholds[f];
                    let nb = th.len() + 1;
                    let counts = &mut hist_counts[..nb];
                    counts.fill(0);
                    let sums = &mut hist_sums[..nb * t];
                    sums.fill(0.0);
                    let sqs = &mut hist_sqs[..nb];
                    sqs.fill(0.0);
                    for &i in idx.iter() {
                        let b = bins.code(f, i);
                        counts[b] += 1;
                        let mut sq = 0.0;
                        for (acc, &y) in sums[b * t..(b + 1) * t].iter_mut().zip(y.row(i)) {
                            if y != 0.0 {
                                *acc += y;
                                sq += y * y;
                            }
                        }
                        sqs[b] += sq;
                    }
                    left.iter_mut().for_each(|v| *v = 0.0);
                    let mut left_sq = 0.0;
                    let mut nl = 0usize;
                    for b in 0..nb - 1 {
                        nl += counts[b] as usize;
                        for (l, s) in left.iter_mut().zip(&sums[b * t..(b + 1) * t]) {
                            *l += s;
                        }
                        left_sq += sqs[b];
                        let nr = n - nl;
                        if nl < min_leaf || nr < min_leaf {
                            continue;
                        }
                        let mut sum_l2 = 0.0;
                        let mut sum_r2 = 0.0;
                        for (l, t0) in left.iter().zip(&totals.tot) {
                            sum_l2 += l * l;
                            let r = t0 - l;
                            sum_r2 += r * r;
                        }
                        let sse = (left_sq - sum_l2 / nl as f64)
                            + ((totals.tot2_sum - left_sq) - sum_r2 / nr as f64);
                        let gain = totals.parent_sse - sse;
                        // Strict improvement: an empty bin's boundary
                        // repeats the previous partition with equal gain
                        // and is skipped.
                        if gain > best.map_or(1e-12, |b| b.2) {
                            best = Some((f, th[b], gain));
                        }
                    }
                }
                _ => match sorted {
                    Some(blocks) => {
                        let seg = blocks.segment(f, lo, n);
                        scan_sorted(f, seg, y, &totals, min_leaf, left, &mut best);
                    }
                    None => {
                        // Scratch of (feature value, row) pairs: sorting a
                        // contiguous key buffer is several times faster
                        // than sorting `idx` through an indirect
                        // matrix-access comparator.
                        scratch.clear();
                        scratch.extend(idx.iter().map(|&i| (x.get(i, f), i as u32)));
                        scratch.sort_unstable_by(by_value);
                        scan_sorted(f, scratch, y, &totals, min_leaf, left, &mut best);
                    }
                },
            }
        }
        best
    }

    /// Grows the subtree over `idx`, the row-list positions
    /// `lo..lo + idx.len()`, and returns its node index.
    fn build(&mut self, idx: &mut [usize], lo: usize, depth: usize) -> usize {
        let make_leaf = depth >= self.cfg.max_depth || idx.len() < self.cfg.min_samples_split;
        let split = if make_leaf {
            None
        } else {
            self.best_split(idx, lo)
        };
        match split {
            None => {
                let value = self.leaf_value(idx);
                self.nodes.push(Node::Leaf { value });
                self.nodes.len() - 1
            }
            Some((feature, threshold, gain)) => {
                self.importance[feature] += gain;
                // Partition rows around the threshold.
                let x = self.x;
                let mid = itertools_partition(idx, |&i| x.get(i, feature) <= threshold);
                let (l_idx, r_idx) = idx.split_at_mut(mid);
                // Children at the depth limit are leaves and never scan.
                if depth + 1 < self.cfg.max_depth {
                    if let Some(blocks) = self.sorted.as_mut() {
                        blocks.partition(lo, l_idx, r_idx);
                    }
                }
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf { value: Vec::new() }); // placeholder
                let left = self.build(l_idx, lo, depth + 1);
                let right = self.build(r_idx, lo + mid, depth + 1);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }
}

/// Stable-enough in-place partition; returns the number of elements
/// satisfying the predicate (moved to the front).
#[inline]
fn itertools_partition<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut store = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(store, i);
            store += 1;
        }
    }
    store
}

/// The shared fit-input contract: non-empty, all-finite data. Ensembles
/// check it once per fit, not once per member.
pub(crate) fn validate_fit_input(data: &Dataset) -> Result<()> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput {
            what: "RegressionTree::fit",
            needed: 1,
            got: 0,
        });
    }
    validate_finite(&data.x)?;
    validate_finite(&data.y)
}

/// The finite half of [`validate_fit_input`], also applied to targets
/// that change between ensemble members (boosting residuals).
pub(crate) fn validate_finite(m: &DenseMatrix) -> Result<()> {
    if m.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite {
            what: "RegressionTree::fit",
        });
    }
    Ok(())
}

impl Regressor for RegressionTree {
    fn fit(&mut self, data: &Dataset) -> Result<()> {
        validate_fit_input(data)?;
        let bins = self.config.binned.then(|| BinnedFeatures::build(&data.x));
        self.fit_rows(
            &data.x,
            &data.y,
            (0..data.len()).collect(),
            bins.as_ref(),
            None,
        );
        Ok(())
    }

    #[inline]
    fn predict(&self, x: &[f64]) -> Result<Vec<f64>> {
        if self.nodes.is_empty() {
            return Err(StatsError::invalid("RegressionTree", "model not fitted"));
        }
        if x.len() != self.n_features {
            return Err(StatsError::invalid(
                "RegressionTree::predict",
                format!(
                    "row has {} features, model expects {}",
                    x.len(),
                    self.n_features
                ),
            ));
        }
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return Ok(value.clone()),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_dataset() -> Dataset {
        // y = 0 for x < 5, y = 10 for x ≥ 5 (plus second output = -y).
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let v = if i < 10 { 0.0 } else { 10.0 };
                vec![v, -v]
            })
            .collect();
        Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let mut t = RegressionTree::default_cart();
        t.fit(&step_dataset()).unwrap();
        assert_eq!(t.predict(&[3.0]).unwrap(), vec![0.0, 0.0]);
        assert_eq!(t.predict(&[15.0]).unwrap(), vec![10.0, -10.0]);
        // The split threshold sits between 9 and 10.
        assert_eq!(t.predict(&[9.4]).unwrap(), vec![0.0, 0.0]);
        assert_eq!(t.predict(&[9.6]).unwrap(), vec![10.0, -10.0]);
    }

    #[test]
    fn pure_targets_make_a_single_leaf() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = DenseMatrix::from_rows(&[vec![7.0], vec![7.0], vec![7.0]]).unwrap();
        let mut t = RegressionTree::default_cart();
        t.fit(&Dataset::new(x, y).unwrap()).unwrap();
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[99.0]).unwrap(), vec![7.0]);
    }

    #[test]
    fn max_depth_limits_growth() {
        let cfg = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let mut t = RegressionTree::new(cfg);
        // y = x: would need many splits to fit exactly.
        let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64]).collect();
        t.fit(
            &Dataset::new(
                DenseMatrix::from_rows(&rows).unwrap(),
                DenseMatrix::from_rows(&ys).unwrap(),
            )
            .unwrap(),
        )
        .unwrap();
        assert!(t.depth() <= 1);
        assert!(t.n_nodes() <= 3);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let cfg = TreeConfig {
            min_samples_leaf: 8,
            ..TreeConfig::default()
        };
        let mut t = RegressionTree::new(cfg);
        t.fit(&step_dataset()).unwrap();
        // Both children of the root have ≥ 8 samples; with a 10/10 step
        // the exact split is still allowed.
        assert!(t.depth() >= 1);
        // A leaf-size of 8 on 20 points allows at most two levels.
        assert!(t.depth() <= 2);
    }

    #[test]
    fn leaf_lambda_shrinks_leaf_values() {
        let x = DenseMatrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let y = DenseMatrix::from_rows(&[vec![10.0], vec![10.0]]).unwrap();
        let cfg = TreeConfig {
            leaf_lambda: 2.0,
            ..TreeConfig::default()
        };
        let mut t = RegressionTree::new(cfg);
        t.fit(&Dataset::new(x, y).unwrap()).unwrap();
        // Leaf value = 20 / (2 + 2) = 5 (shrunk from 10).
        assert_eq!(t.predict(&[0.5]).unwrap(), vec![5.0]);
    }

    #[test]
    fn multi_feature_picks_the_informative_one() {
        // Feature 0 is noise (constant); feature 1 carries the signal.
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![1.0, (i % 2) as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..16).map(|i| vec![(i % 2) as f64 * 4.0]).collect();
        let mut t = RegressionTree::default_cart();
        t.fit(
            &Dataset::new(
                DenseMatrix::from_rows(&rows).unwrap(),
                DenseMatrix::from_rows(&ys).unwrap(),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(t.predict(&[1.0, 0.0]).unwrap(), vec![0.0]);
        assert_eq!(t.predict(&[1.0, 1.0]).unwrap(), vec![4.0]);
    }

    #[test]
    fn feature_subsampling_is_deterministic_per_seed() {
        let data = step_dataset();
        let cfg = TreeConfig {
            max_features: Some(1),
            seed: 7,
            ..TreeConfig::default()
        };
        let mut t1 = RegressionTree::new(cfg);
        let mut t2 = RegressionTree::new(cfg);
        t1.fit(&data).unwrap();
        t2.fit(&data).unwrap();
        for x in [0.0, 5.0, 12.0] {
            assert_eq!(t1.predict(&[x]).unwrap(), t2.predict(&[x]).unwrap());
        }
    }

    #[test]
    fn invalid_usage_errors() {
        let t = RegressionTree::default_cart();
        assert!(t.predict(&[1.0]).is_err()); // unfitted

        let mut t = RegressionTree::default_cart();
        t.fit(&step_dataset()).unwrap();
        assert!(t.predict(&[1.0, 2.0]).is_err()); // wrong width

        let x = DenseMatrix::from_rows(&[vec![f64::NAN]]).unwrap();
        let y = DenseMatrix::from_rows(&[vec![1.0]]).unwrap();
        let mut t = RegressionTree::default_cart();
        assert!(t.fit(&Dataset::new(x, y).unwrap()).is_err());
    }

    /// Deterministic integer-valued dataset: every split-gain
    /// accumulation is exact in f64, so the histogram scan must pick
    /// the same partitions and leaf values as the sorted exact path.
    fn integer_dataset(n: usize, modulus: u64) -> Dataset {
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![next() as f64, next() as f64, next() as f64])
            .collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| {
                let v = r[0] + 3.0 * r[1] - r[2];
                vec![v, (r[1] as u64 % 5) as f64]
            })
            .collect();
        Dataset::new(
            DenseMatrix::from_rows(&rows).unwrap(),
            DenseMatrix::from_rows(&ys).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn binned_split_matches_exact_on_integer_data() {
        // ≤ 256 distinct values per feature → bins are exactly the
        // distinct values, thresholds the same adjacent-value midpoints,
        // and integer arithmetic keeps every gain bit-identical.
        let data = integer_dataset(300, 40);
        for max_features in [None, Some(2)] {
            let cfg = TreeConfig {
                max_depth: 10,
                max_features,
                seed: 9,
                ..TreeConfig::default()
            };
            let mut exact = RegressionTree::new(cfg);
            let mut binned = RegressionTree::new(TreeConfig {
                binned: true,
                ..cfg
            });
            exact.fit(&data).unwrap();
            binned.fit(&data).unwrap();
            assert_eq!(exact.n_nodes(), binned.n_nodes());
            assert_eq!(exact.depth(), binned.depth());
            for r in 0..data.len() {
                let pe = exact.predict(data.x.row(r)).unwrap();
                let pb = binned.predict(data.x.row(r)).unwrap();
                for (a, b) in pe.iter().zip(&pb) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
                }
            }
        }
    }

    #[test]
    fn binned_handles_more_than_256_distinct_values() {
        // 2,000 distinct values per feature forces the quantile-cut
        // path; the tree must still learn the function to tolerance.
        let data = integer_dataset(2000, 100_000);
        let mut t = RegressionTree::new(TreeConfig {
            max_depth: 12,
            binned: true,
            ..TreeConfig::default()
        });
        t.fit(&data).unwrap();
        let mut sse = 0.0;
        let mut var = 0.0;
        let mean: f64 = (0..data.len()).map(|r| data.y.get(r, 0)).sum::<f64>() / data.len() as f64;
        for r in 0..data.len() {
            let p = t.predict(data.x.row(r)).unwrap();
            sse += (p[0] - data.y.get(r, 0)).powi(2);
            var += (data.y.get(r, 0) - mean).powi(2);
        }
        assert!(sse < 0.05 * var, "sse {sse} vs var {var}");
    }

    /// Tie-free random data: `n` rows, 6 features, `t` outputs.
    fn random_dataset(n: usize, t: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let x: Vec<f64> = (0..n * 6).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let y: Vec<f64> = (0..n * t).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        Dataset::new(
            DenseMatrix::from_flat(n, 6, x).unwrap(),
            DenseMatrix::from_flat(n, t, y).unwrap(),
        )
        .unwrap()
    }

    /// The row lists a tree trains on: every row, a boosting-style
    /// subsample (90%, shuffled, no repeats), and a bootstrap draw.
    fn row_maps(n: usize, seed: u64) -> Vec<(&'static str, Vec<usize>)> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let m = ((n as f64 * 0.9).round() as usize).clamp(1, n);
        let mut sub: Vec<usize> = (0..n).collect();
        for i in 0..m {
            let j = rng.gen_range(i..n);
            sub.swap(i, j);
        }
        sub.truncate(m);
        let boot = (0..n).map(|_| rng.gen_range(0..n)).collect();
        vec![
            ("all", (0..n).collect()),
            ("subsample", sub),
            ("bootstrap", boot),
        ]
    }

    /// Grows one tree per ordering on the same rows: presorted blocks,
    /// then per-node sorts.
    fn grow_both(data: &Dataset, rows: &[usize], cfg: TreeConfig) -> [RegressionTree; 2] {
        let bins = cfg.binned.then(|| BinnedFeatures::build(&data.x));
        let mut presorted = RegressionTree::new(cfg);
        let blocks = SortedBlocks::new(&FeatureRanks::build(&data.x), rows);
        presorted.grow(&data.x, &data.y, rows.to_vec(), bins.as_ref(), Some(blocks));
        let mut per_node = RegressionTree::new(cfg);
        per_node.grow(&data.x, &data.y, rows.to_vec(), bins.as_ref(), None);
        [presorted, per_node]
    }

    /// Node count, split features, threshold bits, child links, leaf
    /// value bits and importance bits all agree.
    fn assert_same_tree(a: &RegressionTree, b: &RegressionTree, what: &str) {
        assert_eq!(a.nodes.len(), b.nodes.len(), "{what}: node count");
        for (k, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            match (na, nb) {
                (Node::Leaf { value: va }, Node::Leaf { value: vb }) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(va), bits(vb), "{what}: leaf {k}");
                }
                (
                    Node::Split {
                        feature: fa,
                        threshold: ta,
                        left: la,
                        right: ra,
                    },
                    Node::Split {
                        feature: fb,
                        threshold: tb,
                        left: lb,
                        right: rb,
                    },
                ) => {
                    assert_eq!((fa, la, ra), (fb, lb, rb), "{what}: split {k}");
                    assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: threshold {k}");
                }
                _ => panic!("{what}: node {k} is a leaf in one tree only"),
            }
        }
        let bits = |t: &RegressionTree| -> Vec<u64> {
            t.feature_importances()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{what}: importances");
    }

    /// A boosting round's weak learner and a deep plain CART tree.
    fn both_configs(binned: bool) -> [TreeConfig; 2] {
        let round = TreeConfig {
            max_depth: 3,
            leaf_lambda: 1.0,
            binned,
            ..TreeConfig::default()
        };
        let deep = TreeConfig {
            binned,
            ..TreeConfig::default()
        };
        [round, deep]
    }

    #[test]
    fn presorted_and_per_node_orderings_grow_the_same_tree_on_tie_free_data() {
        for n in [2usize, 19, 59, 300] {
            for t in [1usize, 4, 15] {
                let data = random_dataset(n, t, (n * 31 + t) as u64);
                let ranks = FeatureRanks::build(&data.x);
                let tie_free = |b: &[(f64, u32)]| b.windows(2).all(|w| w[0].0 != w[1].0);
                assert!(ranks.pairs.chunks_exact(n).all(tie_free), "n={n}: ties");
                if n > 256 {
                    // More distinct values than bins: quantile cuts, and
                    // the root takes the histogram branch.
                    let bins = BinnedFeatures::build(&data.x);
                    assert!(bins.thresholds.iter().all(|th| th.len() == 255));
                }
                for (map, rows) in row_maps(n, n as u64) {
                    for binned in [false, true] {
                        for cfg in both_configs(binned) {
                            let [a, b] = grow_both(&data, &rows, cfg);
                            let what = format!(
                                "n={n} t={t} rows={map} binned={binned} depth={}",
                                cfg.max_depth
                            );
                            assert!(a.n_nodes() > 1 || n == 2, "{what}: stump");
                            assert_same_tree(&a, &b, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_column_is_ranked_and_tied_columns_grow_the_per_node_sort_tree() {
        // Three tie-free features and three integer ones with few
        // levels, under fractional targets: the order a tie's rows are
        // scanned in sets the rounding of the split sums. Every column
        // gets a block in `(value, row)` order, and the blocks grow the
        // tree the per-node sort grows.
        let tie_free = random_dataset(300, 4, 5);
        let integer = integer_dataset(300, 7);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|r| {
                let mut row = tie_free.x.row(r)[..3].to_vec();
                row.extend_from_slice(integer.x.row(r));
                row
            })
            .collect();
        let data = Dataset::new(DenseMatrix::from_rows(&rows).unwrap(), tie_free.y).unwrap();
        let ranks = FeatureRanks::build(&data.x);
        assert_eq!(ranks.pairs.len(), 6 * data.len(), "ranked columns");
        for (f, block) in ranks.pairs.chunks_exact(data.len()).enumerate() {
            let ordered = block.windows(2).all(|w| by_value(&w[0], &w[1]).is_lt());
            assert!(ordered, "column {f} is not in (value, row) order");
        }
        for (map, rows) in row_maps(data.len(), 17) {
            for binned in [false, true] {
                for cfg in both_configs(binned) {
                    let [a, b] = grow_both(&data, &rows, cfg);
                    let what = format!("rows={map} binned={binned} depth={}", cfg.max_depth);
                    assert!(a.n_nodes() > 7, "{what}: tree too small to test");
                    assert_same_tree(&a, &b, &what);
                }
            }
        }
    }

    #[test]
    fn presorted_blocks_on_tied_integer_data_match_the_per_node_sort() {
        // Integer features and targets: every sum is exact, so the order
        // of a tie's rows cannot change any bit, and the blocks must grow
        // the per-node sort's tree on every feature.
        let data = integer_dataset(300, 7);
        for (map, rows) in row_maps(data.len(), 17) {
            for binned in [false, true] {
                for cfg in both_configs(binned) {
                    let [a, b] = grow_both(&data, &rows, cfg);
                    let what = format!("rows={map} binned={binned} depth={}", cfg.max_depth);
                    assert!(a.n_nodes() > 7, "{what}: tree too small to test");
                    assert_same_tree(&a, &b, &what);
                }
            }
        }
    }

    #[test]
    fn fit_presorts_only_when_every_feature_is_scanned() {
        let data = random_dataset(59, 4, 3);
        let rows: Vec<usize> = (0..data.len()).collect();
        let mut fitted = RegressionTree::default_cart();
        fitted.fit(&data).unwrap();
        let [presorted, _] = grow_both(&data, &rows, TreeConfig::default());
        assert_same_tree(&fitted, &presorted, "fit vs presorted");
        // A feature-subsampling tree draws its candidates from the RNG
        // and sorts them per node; fitting it twice is reproducible.
        let cfg = TreeConfig {
            max_features: Some(2),
            seed: 4,
            ..TreeConfig::default()
        };
        let mut t1 = RegressionTree::new(cfg);
        let mut t2 = RegressionTree::new(cfg);
        t1.fit(&data).unwrap();
        t2.fit(&data).unwrap();
        assert_same_tree(&t1, &t2, "subsampled refit");
    }

    #[test]
    fn partition_helper() {
        let mut v = vec![5, 2, 8, 1, 9, 3];
        let mid = itertools_partition(&mut v, |&x| x < 5);
        assert_eq!(mid, 3);
        assert!(v[..mid].iter().all(|&x| x < 5));
        assert!(v[mid..].iter().all(|&x| x >= 5));
    }
}
