//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants. Their load slows
//! every op by up to 2× for seconds at a time and shifts whole runs by
//! 10–40 %, so no statistic of one run's op times escapes a slowdown that
//! lasts the whole run. Between ops the benchmark therefore times a fixed
//! reference kernel, written here and calling none of the repository's
//! code, and scales each op's time by how far the host ran the kernel
//! from its reference speed around that op ([`Calibrator::scale`]). A
//! change to the repository cannot move the kernel, so it moves only the
//! op times.
//!
//! The kernel stands in for the simulators it calibrates: a
//! set-associative LRU cache model over 512 KiB of tags, fed by four
//! strided streams and random addresses, with a hash-map counter every
//! fourth access. Its accesses all miss, so each scans every way of its
//! set and shifts it. Of the forms tried, this one's time followed the
//! ops' slowdowns most closely; one whose streams mostly hit did worse.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Seconds the timed part of one kernel sample takes on the reference
/// host, a round figure near its time on the host the README's noise
/// tables were measured on. Scaled times read in seconds at this host
/// speed; changing it rescales every scaled time by the same factor.
pub const REFERENCE_S: f64 = 1.0e-3;

/// The kernel is sampled before an op when this many seconds have passed
/// since the last sample.
const INTERVAL_S: f64 = 0.05;

/// An op is scaled by the median sample within this many seconds of it.
const WINDOW_S: f64 = 0.25;

/// Sets of the kernel's cache model; with 8 ways of 8-byte tags, 512 KiB.
const SETS: usize = 8192;
const WAYS: usize = 8;

/// Untimed accesses that warm the host's caches after an op, then timed
/// ones.
const WARM_ACCESSES: usize = 10_000;
const TIMED_ACCESSES: usize = 60_000;

/// The reference kernel's state; it carries over from sample to sample.
/// The map hashes with fixed keys, so every process does the same work.
struct Kernel {
    tags: Vec<u64>,
    counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    x: u64,
    /// Offset of the strided streams.
    offset: u64,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            tags: vec![0; SETS * WAYS],
            counts: HashMap::default(),
            x: 1,
            offset: 0,
        }
    }

    /// Runs `n` accesses and returns the hits.
    fn run(&mut self, n: usize) -> u64 {
        let mut hits = 0;
        for i in 0..n {
            self.x = self
                .x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // One access in four is random, the rest walk the streams.
            let addr = if self.x >> 62 == 0 {
                self.x >> 20
            } else {
                self.offset += 64;
                self.offset ^ ((self.x >> 40) & 3) << 30
            };
            let line = addr >> 6;
            let set = line as usize & (SETS - 1);
            let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            match ways.iter().position(|&t| t == line) {
                Some(w) => {
                    hits += 1;
                    ways[..=w].rotate_right(1);
                }
                None => {
                    ways.rotate_right(1);
                    ways[0] = line;
                }
            }
            if i % 4 == 0 {
                *self.counts.entry(line & 0xfff).or_default() += 1;
            }
        }
        hits
    }
}

/// A run's clock and its timeline of kernel samples.
pub struct Calibrator {
    kernel: Kernel,
    origin: Instant,
    /// `(seconds since origin at the sample's end, kernel seconds)`, in
    /// time order.
    samples: Vec<(f64, f64)>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            kernel: Kernel::new(),
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the calibrator was made: the clock ops are timed on.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        black_box(self.kernel.run(WARM_ACCESSES));
        let t0 = Instant::now();
        black_box(self.kernel.run(TIMED_ACCESSES));
        let secs = t0.elapsed().as_secs_f64();
        self.samples.push((self.now(), secs));
    }

    /// Times the kernel when [`INTERVAL_S`] has passed since the last
    /// sample.
    pub fn sample_due(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|&(t, _)| self.now() - t >= INTERVAL_S)
        {
            self.sample();
        }
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel seconds around `[start, end]`: every sample within
    /// [`WINDOW_S`] of the interval, and always the last one before it
    /// and the first one after it.
    fn kernel_s(&self, start: f64, end: f64) -> f64 {
        let times: Vec<f64> = self.samples.iter().map(|&(t, _)| t).collect();
        let mut lo = times.partition_point(|&t| t < start - WINDOW_S);
        let mut hi = times.partition_point(|&t| t <= end + WINDOW_S);
        lo = lo.min(times.partition_point(|&t| t < start).saturating_sub(1));
        hi = hi.max((times.partition_point(|&t| t < end) + 1).min(times.len()));
        let around: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, s)| s).collect();
        crate::stats::median(&around)
    }

    /// Factor that takes host seconds spent in `[start, end]` to seconds
    /// at the reference host speed.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    pub fn scale(&self, start: f64, end: f64) -> f64 {
        REFERENCE_S / self.kernel_s(start, end)
    }

    /// Median kernel seconds over the run over [`REFERENCE_S`]: how much
    /// slower than the reference the host ran (above 1 is slower).
    pub fn slowdown(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, s)| s).collect();
        crate::stats::median(&all) / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(samples: &[(f64, f64)]) -> Calibrator {
        let mut c = Calibrator::new();
        c.samples = samples.to_vec();
        c
    }

    #[test]
    fn an_op_is_scaled_by_the_samples_around_it() {
        // A host that ran the kernel at the reference speed until 1 s and
        // at half speed after it.
        let r = REFERENCE_S;
        let c = with(&[
            (0.1, r),
            (0.4, r),
            (0.7, r),
            (1.0, r),
            (1.3, 2.0 * r),
            (1.6, 2.0 * r),
            (1.9, 2.0 * r),
            (2.2, 2.0 * r),
        ]);
        assert_eq!(c.scale(0.35, 0.45), 1.0);
        assert_eq!(c.scale(1.75, 1.85), 0.5);
        // Far from any sample, the nearest one on each side still count.
        assert_eq!(c.scale(5.0, 6.0), 0.5);
        assert_eq!(c.scale(-3.0, -2.0), 1.0);
        // Across the change: the median of the window's samples.
        let across = c.scale(1.05, 1.2);
        assert!(across < 1.0 && across > 0.5, "{across}");
        assert!((c.slowdown() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_fixed_work() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run(50_000), b.run(50_000));
        assert_eq!(a.tags, b.tags);
        let mut c = Calibrator::new();
        c.sample_due();
        c.sample_due();
        assert_eq!(c.samples(), 1, "the second sample was not due");
        assert!(c.scale(0.0, c.now()) > 0.0);
    }
}
