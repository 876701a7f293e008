//! Host-speed probe.
//!
//! The host is a few vCPUs of a shared machine: the same deterministic
//! repetition can run 1.5× slower for seconds at a time while a
//! neighbour loads the core, with CPU time still equal to wall time.
//! Host-time metrics are therefore reported at a reference host speed.
//! A fixed reference kernel, independent of every crate of the program,
//! is timed between the workload's own steps (at most every
//! [`EVERY`]); the host's speed at an instant is the kernel's reference
//! time over its measured time, smoothed over neighbouring probes. A
//! measured interval is rescaled by the speed during it, and the
//! probes' own time is excluded. A change to the program moves the
//! rescaled figures exactly as it moves the raw ones; a slow host does
//! not.

use crate::report::SetupTime;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least host time between two probes.
const EVERY: Duration = Duration::from_millis(20);
/// Kernel time at the reference speed (ns): the median probe on the
/// 2-vCPU Xeon host the bounds were set on.
const REFERENCE_NS: f64 = 200_000.0;
/// Probes on each side of a probe that its smoothed time is the median over.
const SMOOTH: usize = 4;
/// Scratch table of the kernel: 32 KiB, the size of an L1 data cache.
const TABLE: usize = 4096;

/// The reference kernel, about 0.2 ms on the reference host. Its three
/// parts load different parts of the core, as the program does: a
/// dependent walk over a small table with square roots, a branchy
/// integer hash, and small allocations through the global allocator.
/// On the reference host the time of this mix tracked the workloads'
/// repetition times (correlation 0.85–0.95) better than any one part.
fn kernel(table: &mut [f64]) -> f64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0.0;
    for _ in 0..20_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let i = (state as usize) & (TABLE - 1);
        let x = table[i];
        acc += (x * 1.000_1 + 0.5).sqrt();
        table[i] = x + acc * 1e-12;
    }
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mixed = 0u64;
    for i in 0..20_000u64 {
        hash ^= i;
        hash = hash.wrapping_mul(0x100_0000_01b3);
        if hash & 4 == 0 {
            mixed = mixed.wrapping_add(hash >> 7);
        } else {
            mixed ^= hash.rotate_left(9);
        }
    }
    let mut live: std::collections::VecDeque<Vec<f64>> = std::collections::VecDeque::new();
    let mut freed = 0usize;
    for i in 0..300usize {
        live.push_back(vec![1.0; 8 + i.wrapping_mul(2_654_435_761) % 200]);
        if live.len() > 16 {
            freed += live.pop_front().map_or(0, |v| v.len());
        }
    }
    acc + (mixed % 1024) as f64 + freed as f64
}

/// Probe samples on a clock that excludes the probes' own time.
pub struct HostProbe {
    origin: Instant,
    /// Host time spent inside probes so far.
    spent: Duration,
    next: Instant,
    table: Vec<f64>,
    /// (probe-free clock at the probe (s), kernel time (ns)).
    samples: Vec<(f64, f64)>,
    /// Reference time over the smoothed kernel time, per sample.
    speed: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    pub fn new() -> Self {
        let origin = Instant::now();
        Self {
            origin,
            spent: Duration::ZERO,
            next: origin,
            table: vec![1.0; TABLE],
            samples: Vec::new(),
            speed: Vec::new(),
        }
    }

    /// The probe-free clock (s): host time since creation minus the
    /// time spent probing.
    pub fn now(&self) -> f64 {
        (self.origin.elapsed() - self.spent).as_secs_f64()
    }

    /// Probes if [`EVERY`] has passed since the last probe.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.sample();
        }
    }

    /// Probes now.
    pub fn sample(&mut self) {
        let at = self.now();
        let t = Instant::now();
        black_box(kernel(black_box(&mut self.table)));
        let took = t.elapsed();
        self.spent += took;
        self.samples.push((at, took.as_nanos() as f64));
        self.speed.clear();
        self.next = Instant::now() + EVERY;
    }

    /// Number of probes taken.
    pub fn probes(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time over every probe (ns).
    pub fn median_probe_ns(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    fn smooth(&mut self) {
        if self.speed.len() == self.samples.len() {
            return;
        }
        let n = self.samples.len();
        self.speed = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(SMOOTH);
                let hi = (i + SMOOTH + 1).min(n);
                let local: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
                REFERENCE_NS / median(&local)
            })
            .collect();
    }

    /// Host speed (reference = 1) at probe-free clock time `t`: that of
    /// the nearest probe.
    pub fn speed_at(&mut self, t: f64) -> f64 {
        self.smooth();
        if self.samples.is_empty() {
            return 1.0;
        }
        let i = self.samples.partition_point(|s| s.0 < t);
        let nearest = if i == 0 {
            0
        } else if i == self.samples.len() || t - self.samples[i - 1].0 <= self.samples[i].0 - t {
            i - 1
        } else {
            i
        };
        self.speed[nearest]
    }

    /// The two parts of each set-up at reference speed (ms).
    pub fn setups_at_reference(&mut self, setups: &[SetupTime]) -> (Vec<f64>, Vec<f64>) {
        setups
            .iter()
            .map(|&(at, first, second)| {
                let speed = self.speed_at(at);
                (first * speed, second * speed)
            })
            .unzip()
    }

    /// Length of `[a, b]` on the probe-free clock at reference speed:
    /// each stretch between probes is scaled by the mean speed of the
    /// probes at its ends.
    pub fn at_reference(&mut self, a: f64, b: f64) -> f64 {
        self.smooth();
        if self.samples.is_empty() {
            return b - a;
        }
        let first = self.samples.partition_point(|s| s.0 <= a);
        let last = self.samples.partition_point(|s| s.0 < b);
        let mut out = 0.0;
        let mut from = a;
        for i in first..last {
            let at = self.samples[i].0;
            let before = if i == 0 { i } else { i - 1 };
            out += (at - from) * (self.speed[before] + self.speed[i]) / 2.0;
            from = at;
        }
        let after = last.min(self.samples.len() - 1);
        let before = last.saturating_sub(1);
        out += (b - from) * (self.speed[before] + self.speed[after]) / 2.0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_clock_excludes_probes_and_rescales() {
        let mut p = HostProbe::new();
        let a = p.now();
        for _ in 0..20 {
            p.sample();
        }
        let b = p.now();
        assert_eq!(p.probes(), 20);
        // Twenty probes took well over a millisecond; the clock barely moved.
        assert!(b - a < 1e-3, "probe time leaked into the clock: {}", b - a);
        let speed = p.speed_at(b);
        assert!(speed > 0.0);
        let scaled = p.at_reference(a, a + 1.0);
        assert!(scaled > 0.0 && scaled.is_finite());
    }
}
