//! Rolling-window aggregation for long-running daemons.
//!
//! The [`crate::Collector`] session model suits finite batch runs: counters
//! accumulate forever and are dumped once at `finish`. A serving daemon
//! instead needs "what happened in the last 10 seconds" — windowed rates and
//! latency quantiles that age out. This module provides lock-free
//! ring-of-buckets aggregators: time is quantized into 1-second slots, a
//! fixed ring of [`SLOTS`] slots covers the longest window, and reads
//! compose the slots whose stamps fall inside the requested window.
//!
//! # Slot protocol
//!
//! Each slot carries a `stamp` holding `absolute_second + 1` (`0` = never
//! used, `u64::MAX` = rotation in progress). A writer whose current second
//! maps onto a slot with a stale stamp claims the rotation by CASing the
//! stamp to the sentinel, zeroes the slot, publishes the new stamp, and then
//! records — so a write is never lost: every writer either lands in a
//! correctly-stamped slot or completes the rotation first. Readers skip
//! slots whose stamp is outside the window, which makes reset-on-gap
//! automatic: after an idle stretch longer than the window, every stamp is
//! stale and the window reads as empty.
//!
//! # Clocks
//!
//! All aggregators take a [`WindowClock`]. The monotonic clock shares the
//! process obs epoch; the manual clock is an atomic the test harness
//! advances explicitly, so window boundaries, gaps, and rotations are
//! deterministic under test.
//!
//! Cumulative totals are kept separately from the ring and are exact under
//! any interleaving; windowed reads are monitoring-grade (a reader racing a
//! rotation may transiently miss the slot being rotated).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pv_stats::histogram::Histogram as StatsHistogram;

use crate::metrics::BucketSpec;

/// Nanoseconds per ring slot (1 second).
pub const SLOT_NS: u64 = 1_000_000_000;

/// Ring length in slots: covers the longest composed window (5 minutes).
pub const SLOTS: usize = 300;

/// The standard composed views over the ring: label + width in seconds.
pub const WINDOWS: [(&str, u64); 3] = [("10s", 10), ("1m", 60), ("5m", 300)];

const ROTATING: u64 = u64::MAX;

/// Time source for the rolling aggregators.
///
/// `Monotonic` reads the process obs epoch; `Manual` reads an atomic that
/// tests drive explicitly. Clones share the underlying manual atomic, so
/// one handle can advance time for every aggregator built from it.
#[derive(Clone)]
pub enum WindowClock {
    /// Nanoseconds since the process obs epoch ([`crate::now_ns`]).
    Monotonic,
    /// An injectable clock: the atomic holds "now" in nanoseconds.
    Manual(Arc<AtomicU64>),
}

impl WindowClock {
    /// A fresh manual clock starting at zero.
    pub fn manual() -> WindowClock {
        WindowClock::Manual(Arc::new(AtomicU64::new(0)))
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self {
            WindowClock::Monotonic => crate::now_ns(),
            WindowClock::Manual(t) => t.load(Ordering::SeqCst),
        }
    }

    /// Sets a manual clock (no-op on the monotonic clock).
    pub fn set_ns(&self, ns: u64) {
        if let WindowClock::Manual(t) = self {
            t.store(ns, Ordering::SeqCst);
        }
    }

    /// Advances a manual clock (no-op on the monotonic clock).
    pub fn advance_ns(&self, ns: u64) {
        if let WindowClock::Manual(t) = self {
            t.fetch_add(ns, Ordering::SeqCst);
        }
    }

    /// The absolute second index of "now".
    fn second(&self) -> u64 {
        self.now_ns() / SLOT_NS
    }
}

/// Rotates `slot` so its stamp reads `want = second + 1`, zeroing `payload`
/// cells first. Returns `true` once the slot is stamped `want` (whether by
/// this thread or a racing one); `false` when the slot has moved *past*
/// `want` (the writer's clock read is older than the whole ring — the write
/// belongs to no live window).
fn claim_slot(stamp: &AtomicU64, payload: &[AtomicU64], want: u64) -> bool {
    loop {
        let cur = stamp.load(Ordering::Acquire);
        if cur == want {
            return true;
        }
        if cur == ROTATING {
            std::hint::spin_loop();
            continue;
        }
        if cur > want {
            // The ring lapped this writer; drop the windowed write.
            return false;
        }
        if stamp
            .compare_exchange(cur, ROTATING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            for cell in payload {
                cell.store(0, Ordering::Relaxed);
            }
            stamp.store(want, Ordering::Release);
            return true;
        }
    }
}

/// Whether a slot stamp lies inside the window `[lo_second, hi_second]`.
fn in_window(stamp: u64, lo_second: u64, hi_second: u64) -> bool {
    stamp != 0 && stamp != ROTATING && (lo_second + 1..=hi_second + 1).contains(&stamp)
}

/// Inclusive second range covered by a window of `window_secs` ending now.
fn window_bounds(now_second: u64, window_secs: u64) -> (u64, u64) {
    let width = window_secs.clamp(1, SLOTS as u64);
    (now_second.saturating_sub(width - 1), now_second)
}

struct CounterSlot {
    stamp: AtomicU64,
    count: AtomicU64,
}

/// A counter with both an exact cumulative total and per-second ring slots
/// for windowed rates.
pub struct RollingCounter {
    clock: WindowClock,
    total: AtomicU64,
    slots: Vec<CounterSlot>,
}

impl RollingCounter {
    /// A fresh counter on the given clock.
    pub fn new(clock: WindowClock) -> RollingCounter {
        RollingCounter {
            clock,
            total: AtomicU64::new(0),
            slots: (0..SLOTS)
                .map(|_| CounterSlot {
                    stamp: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Adds `delta` at "now".
    pub fn add(&self, delta: u64) {
        self.total.fetch_add(delta, Ordering::Relaxed);
        let second = self.clock.second();
        let slot = &self.slots[(second % SLOTS as u64) as usize];
        if claim_slot(&slot.stamp, std::slice::from_ref(&slot.count), second + 1) {
            slot.count.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one at "now".
    pub fn inc(&self) {
        self.add(1);
    }

    /// Exact cumulative total since construction.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum over the trailing `window_secs` seconds (including the current
    /// partial second).
    pub fn windowed(&self, window_secs: u64) -> u64 {
        let (lo, hi) = window_bounds(self.clock.second(), window_secs);
        self.slots
            .iter()
            .filter(|s| in_window(s.stamp.load(Ordering::Acquire), lo, hi))
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Windowed events per second.
    pub fn rate(&self, window_secs: u64) -> f64 {
        self.windowed(window_secs) as f64 / window_secs.clamp(1, SLOTS as u64) as f64
    }
}

struct HistoSlot {
    stamp: AtomicU64,
    /// Per-bucket counts followed by `[total_count, total_sum_ns]`.
    cells: Vec<AtomicU64>,
}

/// A latency histogram with per-second ring slots: windowed counts, mean,
/// and interpolated quantiles over the [`BucketSpec::LatencyNs`] log grid.
pub struct RollingHisto {
    clock: WindowClock,
    grid: StatsHistogram,
    total_count: AtomicU64,
    total_sum_ns: AtomicU64,
    slots: Vec<HistoSlot>,
}

impl RollingHisto {
    /// A fresh histogram on the latency grid.
    pub fn new(clock: WindowClock) -> RollingHisto {
        let (grid, _) = BucketSpec::LatencyNs.grid();
        let bins = grid.n_bins();
        RollingHisto {
            clock,
            grid,
            total_count: AtomicU64::new(0),
            total_sum_ns: AtomicU64::new(0),
            slots: (0..SLOTS)
                .map(|_| HistoSlot {
                    stamp: AtomicU64::new(0),
                    cells: (0..bins + 2).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
        }
    }

    fn bin(&self, ns: u64) -> usize {
        let x = (ns.max(1) as f64)
            .log10()
            .clamp(self.grid.lo(), self.grid.hi());
        self.grid.bin_index(x).unwrap_or(0)
    }

    /// Records one latency observation at "now".
    pub fn record_ns(&self, ns: u64) {
        self.total_count.fetch_add(1, Ordering::Relaxed);
        self.total_sum_ns.fetch_add(ns, Ordering::Relaxed);
        let second = self.clock.second();
        let slot = &self.slots[(second % SLOTS as u64) as usize];
        if claim_slot(&slot.stamp, &slot.cells, second + 1) {
            let bins = self.grid.n_bins();
            slot.cells[self.bin(ns)].fetch_add(1, Ordering::Relaxed);
            slot.cells[bins].fetch_add(1, Ordering::Relaxed);
            slot.cells[bins + 1].fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Exact cumulative observation count.
    pub fn total_count(&self) -> u64 {
        self.total_count.load(Ordering::Relaxed)
    }

    /// Exact cumulative sum of observed nanoseconds.
    pub fn total_sum_ns(&self) -> u64 {
        self.total_sum_ns.load(Ordering::Relaxed)
    }

    /// Merged per-bucket counts plus `(count, sum_ns)` over the window.
    fn merged(&self, window_secs: u64) -> (Vec<u64>, u64, u64) {
        let bins = self.grid.n_bins();
        let (lo, hi) = window_bounds(self.clock.second(), window_secs);
        let mut counts = vec![0u64; bins];
        let (mut count, mut sum_ns) = (0u64, 0u64);
        for slot in &self.slots {
            if !in_window(slot.stamp.load(Ordering::Acquire), lo, hi) {
                continue;
            }
            for (acc, cell) in counts.iter_mut().zip(&slot.cells) {
                *acc += cell.load(Ordering::Relaxed);
            }
            count += slot.cells[bins].load(Ordering::Relaxed);
            sum_ns += slot.cells[bins + 1].load(Ordering::Relaxed);
        }
        (counts, count, sum_ns)
    }

    /// Observation count over the trailing window.
    pub fn windowed_count(&self, window_secs: u64) -> u64 {
        self.merged(window_secs).1
    }

    /// Mean latency over the trailing window, `None` when empty.
    pub fn windowed_mean_ns(&self, window_secs: u64) -> Option<f64> {
        let (_, count, sum_ns) = self.merged(window_secs);
        (count > 0).then(|| sum_ns as f64 / count as f64)
    }

    /// The `q`-quantile (0..=1) of latency over the trailing window,
    /// interpolated within the log10 bucket that holds the target rank and
    /// mapped back to nanoseconds. `None` when the window is empty.
    ///
    /// Resolution is one bucket of the latency grid (a factor of
    /// `10^0.25 ≈ 1.78`); agreement with empirical quantiles to within one
    /// bucket is pinned by `tests/telemetry_window.rs`.
    pub fn quantile_ns(&self, window_secs: u64, q: f64) -> Option<f64> {
        let (counts, count, _) = self.merged(window_secs);
        if count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
        let edges = self.grid.bin_edges();
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += c;
            if cum as f64 >= target {
                let frac = ((target - prev) / c as f64).clamp(0.0, 1.0);
                let x = edges[i] + frac * (edges[i + 1] - edges[i]);
                return Some(10f64.powf(x));
            }
        }
        // Rounding left the target past the last occupied bucket: report
        // the top edge of the highest occupied one.
        let last = counts.iter().rposition(|&c| c > 0)?;
        Some(10f64.powf(edges[last + 1]))
    }

    /// One composed view: count, rate, mean, p50/p95/p99 over a window.
    pub fn view(&self, label: &str, window_secs: u64) -> WindowView {
        let (_, count, sum_ns) = self.merged(window_secs);
        WindowView {
            label: label.to_string(),
            window_secs: window_secs.clamp(1, SLOTS as u64),
            count,
            rate: count as f64 / window_secs.clamp(1, SLOTS as u64) as f64,
            mean_ns: (count > 0).then(|| sum_ns as f64 / count as f64),
            p50_ns: self.quantile_ns(window_secs, 0.50),
            p95_ns: self.quantile_ns(window_secs, 0.95),
            p99_ns: self.quantile_ns(window_secs, 0.99),
        }
    }
}

/// A point-in-time windowed latency summary (one row of `{"op":"stats"}`).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowView {
    pub label: String,
    pub window_secs: u64,
    pub count: u64,
    pub rate: f64,
    pub mean_ns: Option<f64>,
    pub p50_ns: Option<f64>,
    pub p95_ns: Option<f64>,
    pub p99_ns: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_windows_age_out() {
        let clock = WindowClock::manual();
        let c = RollingCounter::new(clock.clone());
        c.add(5);
        clock.advance_ns(9 * SLOT_NS);
        c.add(3);
        assert_eq!(c.windowed(10), 8);
        assert_eq!(c.windowed(1), 3);
        clock.advance_ns(SLOT_NS);
        // The first burst is now 10s old: outside a 10s window ending now.
        assert_eq!(c.windowed(10), 3);
        assert_eq!(c.total(), 8);
        assert!((c.rate(10) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn counter_resets_on_gap() {
        let clock = WindowClock::manual();
        let c = RollingCounter::new(clock.clone());
        c.add(100);
        clock.advance_ns(301 * SLOT_NS);
        assert_eq!(c.windowed(300), 0);
        assert_eq!(c.total(), 100);
        c.add(1);
        assert_eq!(c.windowed(10), 1);
    }

    #[test]
    fn ring_reuses_slots_after_wraparound() {
        let clock = WindowClock::manual();
        let c = RollingCounter::new(clock.clone());
        c.add(7);
        // Land on the same physical slot, one full ring later.
        clock.advance_ns(SLOTS as u64 * SLOT_NS);
        c.add(2);
        assert_eq!(c.windowed(10), 2);
        assert_eq!(c.total(), 9);
    }

    #[test]
    fn histo_quantiles_and_mean() {
        let clock = WindowClock::manual();
        let h = RollingHisto::new(clock.clone());
        for _ in 0..99 {
            h.record_ns(1_000_000); // 1ms
        }
        h.record_ns(1_000_000_000); // 1s outlier
        let p50 = h.quantile_ns(10, 0.50).expect("p50");
        let p99 = h.quantile_ns(10, 0.99).expect("p99");
        // Within one log10 bucket (factor 10^0.25) of the true values.
        assert!((p50.log10() - 6.0).abs() <= 0.25, "p50 = {p50}");
        assert!((p99.log10() - 6.0).abs() <= 0.25, "p99 = {p99}");
        let p999 = h.quantile_ns(10, 0.999).expect("p99.9");
        assert!((p999.log10() - 9.0).abs() <= 0.25, "p99.9 = {p999}");
        let mean = h.windowed_mean_ns(10).expect("mean");
        assert!((mean - 10_990_000.0).abs() < 1.0);
        assert_eq!(h.windowed_count(10), 100);
        assert_eq!(h.total_count(), 100);
        assert_eq!(h.total_sum_ns(), 99 * 1_000_000 + 1_000_000_000);
    }

    #[test]
    fn histo_windows_age_out() {
        let clock = WindowClock::manual();
        let h = RollingHisto::new(clock.clone());
        h.record_ns(500);
        clock.advance_ns(20 * SLOT_NS);
        h.record_ns(2_000_000);
        assert_eq!(h.windowed_count(10), 1);
        assert_eq!(h.windowed_count(60), 2);
        assert!(h.quantile_ns(10, 0.5).expect("p50") > 1_000_000.0);
        let view = h.view("1m", 60);
        assert_eq!(view.count, 2);
        assert_eq!(view.window_secs, 60);
    }

    #[test]
    fn empty_window_has_no_quantiles() {
        let h = RollingHisto::new(WindowClock::manual());
        assert_eq!(h.quantile_ns(10, 0.5), None);
        assert_eq!(h.windowed_mean_ns(10), None);
        let view = h.view("10s", 10);
        assert_eq!(view.count, 0);
        assert_eq!(view.p99_ns, None);
    }

    #[test]
    fn racing_writers_keep_bucket_counts_summing_to_the_window_count() {
        // Writers shove the clock across slot boundaries while they
        // record; whatever the windows keep, their bucket counts sum to
        // their count.
        for threads in [1u64, 2, 8] {
            let clock = WindowClock::manual();
            let h = RollingHisto::new(clock.clone());
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (h, clock) = (&h, clock.clone());
                    scope.spawn(move || {
                        for i in 0..400 {
                            if i % 37 == 0 {
                                clock.set_ns((t * 131 + i * 7) % 600 * SLOT_NS);
                            }
                            h.record_ns(1 + t * 400 + i);
                        }
                    });
                }
            });
            assert_eq!(h.total_count(), threads * 400);
            for window in [10, 60, 300] {
                let (counts, count, _) = h.merged(window);
                assert_eq!(
                    counts.iter().sum::<u64>(),
                    count,
                    "{threads} threads, {window}s"
                );
            }
        }
    }

    #[test]
    fn lapped_writer_keeps_total_drops_window() {
        // A stale clock read (older than the whole ring) must not clobber
        // the slot's newer contents.
        let manual = Arc::new(AtomicU64::new(0));
        let clock = WindowClock::Manual(Arc::clone(&manual));
        let c = RollingCounter::new(clock.clone());
        manual.store(SLOTS as u64 * SLOT_NS, Ordering::SeqCst);
        c.add(4);
        // Rewind: the writer now believes it is a full ring in the past.
        manual.store(0, Ordering::SeqCst);
        c.add(9);
        manual.store(SLOTS as u64 * SLOT_NS, Ordering::SeqCst);
        assert_eq!(c.windowed(10), 4);
        assert_eq!(c.total(), 13);
    }
}
