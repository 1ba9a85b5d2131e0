//! The host's speed, from a fixed reference kernel timed beside the
//! measurements.
//!
//! The benchmark shares its host's cores, caches and memory with
//! co-tenants, which slow everything it runs by up to two fifths for
//! minutes at a time: longer than a run, so no statistic over one run's
//! own timings removes it. The kernel here does the same fixed work every
//! time (seeded read-modify-writes at random places in a 4 MiB buffer,
//! nothing of the engine's), so its time moves only with the host. A run
//! samples it between its operations, and the lower quartile of its
//! samples is the host's speed in its faster stretches, the stretches the
//! fastest-repetition timings come from, without resting on one sample.
//! The end-to-end timings are reported at [`REFERENCE_MS`]: each is
//! scaled by `REFERENCE_MS / quartile`. The raw timings are printed
//! beside them, and the quartile is the per-layer `bench.reference_ms`.

use crate::stats::Samples;
use std::time::Instant;

/// Random read-modify-writes per kernel sample.
const STEPS: usize = 100_000;

/// Buffer the kernel writes, in 8-byte words (4 MiB).
const WORDS: usize = 1 << 19;

/// The kernel's time on an undisturbed host of the kind the benchmark
/// was sized on (2-core x86-64 container), in milliseconds. End-to-end
/// timings are reported as if the host ran at this speed.
pub const REFERENCE_MS: f64 = 1.0;

/// The reference kernel's times in a run.
#[derive(Debug)]
pub struct Speed {
    buf: Vec<u64>,
    samples: Samples,
}

impl Default for Speed {
    fn default() -> Self {
        Speed::new()
    }
}

impl Speed {
    /// No samples yet.
    pub fn new() -> Self {
        Speed {
            buf: vec![0; WORDS],
            samples: Samples::new(),
        }
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x = 0x5eed_u64;
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 33) as usize % WORDS;
            if let Some(w) = self.buf.get_mut(i) {
                *w = w.wrapping_add(x);
            }
        }
        std::hint::black_box(&self.buf);
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// The lower quartile of the samples, in milliseconds (sampling once
    /// if none was taken).
    pub fn quartile_ms(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        self.samples.permille(250)
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// What a duration measured in this run would have taken at
    /// [`REFERENCE_MS`]: the factor to multiply it by.
    pub fn scale(&mut self) -> f64 {
        REFERENCE_MS / self.quartile_ms()
    }
}
