//! Rolling-window aggregator tier: the lock-free ring-of-buckets in
//! `pv-obs` under a deterministic manual clock. Pins slot rotation at
//! second boundaries, quantile agreement with the empirical quantiles
//! from `pv-stats` to within one log10 bucket, window reset after a gap
//! longer than the whole ring, non-consuming collector snapshots, and —
//! via proptest — that no count is ever lost under concurrent writers
//! at 1/2/8 threads.

use perfvar_suite::obs::{Collector, RollingCounter, RollingHisto, WindowClock, WINDOWS};
use perfvar_suite::stats::descriptive::quantile_sorted;
use proptest::prelude::*;

const SECOND: u64 = 1_000_000_000;

/// A tiny deterministic LCG (MMIX constants) for latency samples.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[test]
fn counter_rotates_out_of_short_windows_at_second_boundaries() {
    let clock = WindowClock::manual();
    let counter = RollingCounter::new(clock.clone());
    counter.add(5);
    clock.advance_ns(9 * SECOND);
    counter.inc();
    // Second 0's writes are still inside a 10s window ending at second 9.
    assert_eq!(counter.windowed(10), 6);
    assert_eq!(counter.windowed(60), 6);
    assert_eq!(counter.total(), 6);
    // One more second: the slot written at second 0 falls out of the
    // 10s view but stays in the 1m and 5m views.
    clock.advance_ns(SECOND);
    assert_eq!(counter.windowed(10), 1);
    assert_eq!(counter.windowed(60), 6);
    assert_eq!(counter.windowed(300), 6);
    assert_eq!(counter.total(), 6, "the exact total never rotates");
    // Rates are count / window width.
    assert!((counter.rate(10) - 0.1).abs() < 1e-12);
    assert!((counter.rate(60) - 0.1).abs() < 1e-12);
}

#[test]
fn histogram_windows_compose_counts_and_means() {
    let clock = WindowClock::manual();
    let histo = RollingHisto::new(clock.clone());
    for s in 0..60u64 {
        clock.set_ns(s * SECOND);
        histo.record_ns(1_000_000);
    }
    // Now = second 59: the 10s view holds seconds 50..=59.
    assert_eq!(histo.windowed_count(10), 10);
    assert_eq!(histo.windowed_count(60), 60);
    assert_eq!(histo.total_count(), 60);
    let mean = histo.windowed_mean_ns(60).expect("mean");
    assert!((mean - 1_000_000.0).abs() < 1e-6);
    for &(label, secs) in &WINDOWS {
        let view = histo.view(label, secs);
        assert_eq!(view.label, label);
        assert_eq!(view.count, secs.min(60));
        assert!(view.p50_ns.is_some());
    }
}

#[test]
fn quantiles_agree_with_empirical_within_one_log10_bucket() {
    let clock = WindowClock::manual();
    let histo = RollingHisto::new(clock.clone());
    // A long-tailed latency population spanning ~3 decades, spread
    // across the last minute of ring slots.
    let mut state = 0xC0FFEE_u64;
    let mut samples: Vec<f64> = Vec::new();
    for i in 0..2_000u64 {
        clock.set_ns((i % 60) * SECOND);
        let base = 10_000 + lcg(&mut state) % 90_000; // 10–100 µs
        let ns = if lcg(&mut state).is_multiple_of(20) {
            base * 100 // a 5% tail out to ~10 ms
        } else {
            base
        };
        histo.record_ns(ns);
        samples.push(ns as f64);
    }
    clock.set_ns(59 * SECOND);
    samples.sort_by(f64::total_cmp);
    // The grid's buckets are 0.25 wide in log10, and quantile_ns
    // interpolates inside the bucket holding the target rank — so the
    // estimate must land within one bucket of the empirical quantile.
    for q in [0.50, 0.90, 0.95, 0.99] {
        let est = histo.quantile_ns(60, q).expect("quantile");
        let emp = quantile_sorted(&samples, q);
        let gap = (est.log10() - emp.log10()).abs();
        assert!(
            gap <= 0.25 + 1e-9,
            "q{q}: estimate {est:.0}ns vs empirical {emp:.0}ns is {gap:.3} decades apart"
        );
    }
}

#[test]
fn windows_reset_after_a_gap_longer_than_the_ring() {
    let clock = WindowClock::manual();
    let counter = RollingCounter::new(clock.clone());
    let histo = RollingHisto::new(clock.clone());
    for _ in 0..50 {
        counter.inc();
        histo.record_ns(5_000);
    }
    assert_eq!(counter.windowed(300), 50);
    // Silence for longer than the 300-slot ring: every stale slot falls
    // outside every window, with no writes needed to "clean" them.
    clock.advance_ns(301 * SECOND);
    assert_eq!(counter.windowed(10), 0);
    assert_eq!(counter.windowed(300), 0);
    assert_eq!(histo.windowed_count(300), 0);
    assert!(histo.quantile_ns(300, 0.5).is_none());
    assert_eq!(counter.total(), 50, "totals survive the gap");
    assert_eq!(histo.total_count(), 50);
    // The ring is immediately reusable: a fresh write lands in a
    // re-stamped slot without inheriting the stale counts.
    counter.inc();
    histo.record_ns(7_000);
    assert_eq!(counter.windowed(10), 1);
    assert_eq!(histo.windowed_count(10), 1);
}

#[test]
fn collector_snapshot_now_is_non_consuming() {
    let collector = Collector::install();
    perfvar_suite::obs::counter_add!("pv.test.window", 3);
    let first = collector.snapshot_now();
    assert_eq!(first.counter("pv.test.window"), Some(3));
    // The session is still live: more counts land after the snapshot.
    perfvar_suite::obs::counter_add!("pv.test.window", 4);
    let second = collector.snapshot_now();
    assert_eq!(second.counter("pv.test.window"), Some(7));
    let report = collector.finish();
    assert_eq!(report.metrics.counter("pv.test.window"), Some(7));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No count is ever lost: under 1, 2, or 8 concurrent writer
    /// threads racing a clock that jumps around the ring, the exact
    /// totals equal the sum of every add, and windowed views never
    /// exceed them.
    #[test]
    fn concurrent_writers_never_lose_counts(
        threads_idx in 0usize..3,
        per_thread in 1usize..400,
        jumps in prop::collection::vec(0u64..600, 1..12),
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let clock = WindowClock::manual();
        let counter = RollingCounter::new(clock.clone());
        let histo = RollingHisto::new(clock.clone());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let counter = &counter;
                let histo = &histo;
                let clock = clock.clone();
                let jumps = jumps.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        if i % 37 == 0 {
                            // Writers themselves shove the clock across
                            // slot boundaries to force rotation races.
                            clock.set_ns(jumps[(t + i) % jumps.len()] * SECOND);
                        }
                        counter.inc();
                        histo.record_ns(1 + (t * per_thread + i) as u64);
                    }
                });
            }
        });
        let expected = (threads * per_thread) as u64;
        prop_assert_eq!(counter.total(), expected);
        prop_assert_eq!(histo.total_count(), expected);
        // Windowed views may drop lapped writes but can never invent
        // counts beyond the exact total.
        prop_assert!(counter.windowed(300) <= expected);
        prop_assert!(histo.windowed_count(300) <= expected);
    }
}
