//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! failure accounting and the open-loop capacity search. Pure functions,
//! unit-tested below.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The tail of a timing sample: the highest percentile that still has
/// at least `beyond` samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile the rank stands for (0–100).
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `xs` with at least `beyond` samples beyond
/// it: the value at ascending rank `n - beyond - 1` (0-based). With
/// `n <= beyond` no such percentile exists and the sample maximum is
/// reported instead, flagged by `pct = 100`.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n <= beyond {
        return Some(Tail {
            value: v[n - 1],
            pct: 100.0,
            n,
        });
    }
    let rank = n - beyond - 1;
    Some(Tail {
        value: v[rank],
        pct: 100.0 * (rank + 1) as f64 / n as f64,
        n,
    })
}

/// Outcome tally of one phase or pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (requests sent, cells evaluated).
    pub attempted: u64,
    /// Operations that did not produce a clean result: failed, degraded,
    /// refused or wrong.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Judges a probe: `latencies_ms` in send order, `tally` of its
/// requests. The probe passes when every request was answered ok, the
/// 90th percentile is within `limit_ms`, and no backlog grew. A refused
/// or failed request misses the limit, so any failure fails the probe.
/// (The 90th and not the 99th percentile: on a small shared virtual
/// machine a single multi-millisecond host stall delays more than a
/// hundredth of a probe's requests whatever the offered rate.) A backlog is growing when the median of the
/// last fifth of the requests exceeds twice the first fifth's median by
/// more than a fifth of the limit.
pub fn probe_passes(latencies_ms: &[f64], tally: Tally, limit_ms: f64) -> bool {
    if tally.failed > 0 || latencies_ms.is_empty() {
        return false;
    }
    let Some(p90) = quantile(latencies_ms, 0.9) else {
        return false;
    };
    let fifth = (latencies_ms.len() / 5).max(1);
    let head = median(&latencies_ms[..fifth]).unwrap_or(0.0);
    let last = median(&latencies_ms[latencies_ms.len() - fifth..]).unwrap_or(0.0);
    p90 <= limit_ms && last <= 2.0 * head + 0.2 * limit_ms
}

/// The capacity search: a ladder of rates `start · step^k`. A rate
/// passes when one of two probes at it meets the limit, so a single
/// transient stall cannot end the climb. While `start` fails the ladder
/// descends three steps at a time; from the first passing rate it
/// climbs one step at a time until a rate fails. `probe` runs one probe
/// at a rate and reports whether it met the limit. Returns the highest
/// passing rate, 0 when none passed within `max_probes` probes.
pub fn ladder_max_rate(
    start: f64,
    step: f64,
    max_probes: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> f64 {
    let mut probes = 0;
    let mut passes = |rate: f64| {
        for _ in 0..2 {
            if probes >= max_probes {
                return None;
            }
            probes += 1;
            if probe(rate) {
                return Some(true);
            }
        }
        Some(false)
    };
    let mut rate = start;
    loop {
        match passes(rate) {
            Some(true) => break,
            Some(false) => rate /= step.powi(3),
            None => return 0.0,
        }
    }
    while let Some(true) = passes(rate * step) {
        rate *= step;
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: the value with exactly 10 above it is 90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.n, 100);
        assert!((t.pct - 90.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 1000 samples: p99 is the highest with ten beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 990.0);
        assert!((t.pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 3.0], TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 5.0);
        assert_eq!(t.pct, 100.0);
        assert_eq!(tail(&[], TAIL_BEYOND), None);
        // Eleven samples: exactly one rank qualifies, the smallest.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&xs, TAIL_BEYOND).unwrap().value, 0.0);
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.add(Tally {
            attempted: 90,
            failed: 0,
        });
        t.add(Tally {
            attempted: 10,
            failed: 5,
        });
        assert_eq!(t.attempted, 100);
        assert_eq!(t.fail_ratio(), 0.05);
    }

    #[test]
    fn probe_fails_on_any_failure_tail_or_backlog() {
        let ok = Tally {
            attempted: 100,
            failed: 0,
        };
        let flat = vec![2.0; 100];
        assert!(probe_passes(&flat, ok, 25.0));
        let refused = Tally {
            attempted: 100,
            failed: 1,
        };
        assert!(!probe_passes(&flat, refused, 25.0));
        // A stall delaying a few requests passes; a slow tenth fails.
        let mut stall = flat.clone();
        for x in stall.iter_mut().skip(40).take(9) {
            *x = 30.0;
        }
        assert!(probe_passes(&stall, ok, 25.0));
        for x in stall.iter_mut().skip(49).take(2) {
            *x = 30.0;
        }
        assert!(!probe_passes(&stall, ok, 25.0));
        let growing: Vec<f64> = (0..100).map(|i| 1.0 + 0.2 * i as f64).collect();
        assert!(!probe_passes(&growing, ok, 25.0));
    }

    #[test]
    fn ladder_finds_capacity_within_one_step() {
        // Climbing from below and descending from above.
        for capacity in [450.0, 950.0, 1234.0, 1850.0, 2600.0] {
            let found = ladder_max_rate(900.0, 1.08, 64, |r| r <= capacity);
            assert!(
                found <= capacity && found * 1.08 > capacity,
                "{found} vs {capacity}"
            );
        }
        // One transient failure is retried and does not end the climb.
        let mut calls = 0;
        let found = ladder_max_rate(100.0, 2.0, 64, |r| {
            calls += 1;
            calls != 2 && r <= 1000.0
        });
        assert_eq!(found, 800.0);
        // A rate fails only when both of its probes fail, and the probe
        // budget bounds the search.
        let mut calls = 0;
        let found = ladder_max_rate(400.0, 1.25, 5, |_| {
            calls += 1;
            false
        });
        assert_eq!((found, calls), (0.0, 5));
        let mut calls = 0;
        let found = ladder_max_rate(400.0, 2.0, 3, |_| {
            calls += 1;
            true
        });
        assert_eq!((found, calls), (1600.0, 3));
    }
}
