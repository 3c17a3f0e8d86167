//! Host-speed calibration.
//!
//! On a shared virtual machine the speed a run gets moves by tens of
//! percent, both from minute to minute as neighbouring tenants come and
//! go (the same `paper_grid` pass took 2.1 s and 3.3 s four minutes
//! apart) and from one second to the next (the CPU time of identical
//! passes of one run ranged over 40%). No median inside one run removes
//! the slow part of that. So while each timed interval runs, a meter
//! thread times a fixed kernel of the benchmark's own — code no change
//! to the workspace can speed up or slow down — every [`PERIOD`], and
//! the interval is reported at the reference host speed:
//!
//! ```text
//! scaled = raw × REFERENCE_S / median(meter samples during the interval)
//! ```
//!
//! A change that makes the program slower makes the raw interval longer
//! and leaves the meter's kernel alone, so it shows in full. The meter
//! costs about 5% of one CPU. Its buffers are statics, not heap, so the
//! live-heap metric counts the program alone.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// What one meter sample takes on the reference host (2-vCPU Xeon
/// virtual machine): the scaled times are seconds at that speed.
pub const REFERENCE_S: f64 = 0.000_8;

/// Time between meter samples.
pub const PERIOD: Duration = Duration::from_millis(20);

/// Words of the two buffers: 2 MiB (the size of a second-level cache)
/// and 16 MiB (a share of the last level).
const MID: usize = 1 << 18;
const BIG: usize = 1 << 21;

static MID_BUF: [AtomicU64; MID] = [const { AtomicU64::new(0) }; MID];
static BIG_BUF: [AtomicU64; BIG] = [const { AtomicU64::new(0) }; BIG];
static FILLED: Once = Once::new();

fn get(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

fn set(a: &AtomicU64, v: f64) {
    a.store(v.to_bits(), Ordering::Relaxed);
}

/// Writes every buffer once, so that its pages exist before the first
/// sample.
fn fill() {
    for buf in [&MID_BUF[..], &BIG_BUF[..]] {
        for (i, a) in buf.iter().enumerate() {
            set(a, (i as f64).sqrt());
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One meter sample's work: a sweep with updates and random
/// read-modify-writes over the second-level buffer (as tree fitting and
/// distance scans touch their data), then random reads over the
/// last-level buffer (as fold assembly and shard lookups do). Of the
/// kernels tried, memory-bound ones like these slowed as much as the
/// workloads when the host was busy; compute in the first-level cache
/// slowed half as much.
fn kernel(x: &mut u64) -> f64 {
    let mut sweep = 0.0;
    for w in MID_BUF.iter().step_by(2) {
        let v = get(w) * 0.999_999_9 + 1e-3;
        set(w, v);
        sweep += v;
    }
    for _ in 0..(1 << 14) {
        let w = &MID_BUF[xorshift(x) as usize & (MID - 1)];
        set(w, (get(w) + sweep * 1e-12).sqrt());
    }
    let mut reads = 0.0;
    for _ in 0..(1 << 15) {
        reads += get(&BIG_BUF[xorshift(x) as usize & (BIG - 1)]);
    }
    sweep + reads
}

/// A running meter: one thread sampling the kernel every [`PERIOD`]
/// until [`Meter::finish`].
pub struct Meter {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Meter {
    /// Starts the meter; its first sample is taken at once. Samples are
    /// wall time, so time the hypervisor steals from the meter counts
    /// as it does for the interval.
    pub fn start() -> Meter {
        FILLED.call_once(fill);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            let mut x = 0x9E37_79B9_7F4A_7C15;
            loop {
                let t = Instant::now();
                black_box(kernel(&mut x));
                samples.push(t.elapsed().as_secs_f64());
                if flag.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(PERIOD);
            }
        });
        Meter { stop, thread }
    }

    /// Stops the meter and returns the factor that takes the interval
    /// it ran through to the reference speed, with its sample count.
    pub fn finish(self) -> (f64, usize) {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().unwrap_or_default();
        (scale(&samples), samples.len())
    }
}

/// The factor that takes an interval whose meter samples were `samples`
/// to the reference speed (1 when there are none).
pub fn scale(samples: &[f64]) -> f64 {
    let clean: Vec<f64> = samples.iter().copied().filter(|s| *s > 0.0).collect();
    median(&clean).map_or(1.0, |m| REFERENCE_S / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_takes_the_median_sample_to_the_reference() {
        let r = REFERENCE_S;
        assert_eq!(scale(&[r, r, r]), 1.0);
        // A host running at half speed: samples take twice as long, so
        // a raw interval counts half. One outlier does not move it.
        assert_eq!(scale(&[2.0 * r, 2.0 * r, 9.0 * r]), 0.5);
        assert_eq!(scale(&[]), 1.0);
        assert_eq!(scale(&[f64::NAN]), 1.0);
    }

    #[test]
    fn meter_samples_while_it_runs() {
        let m = Meter::start();
        std::thread::sleep(3 * PERIOD);
        let (s, n) = m.finish();
        assert!(n >= 2, "{n} samples");
        assert!(s.is_finite() && s > 0.0);
    }
}
