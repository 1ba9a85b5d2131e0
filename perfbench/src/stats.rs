//! Sample summaries and failure accounting.
//!
//! Timings are reported as a median plus the *highest percentile that has
//! at least ten samples beyond it* (from the ladder [`TAIL_LADDER`]), so a
//! run with a few hundred samples reports p95 and a run with tens of
//! thousands reports p99.9 — never a tail resting on one or two samples.

/// Candidate tail percentiles, in per-mille, highest first.
pub const TAIL_LADDER: [u32; 5] = [999, 990, 950, 900, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `permille` percentile in `n`
/// sorted samples: `ceil(permille · n / 1000) - 1`.
pub fn rank_index(n: usize, permille: u32) -> usize {
    let rank = (permille as usize * n).div_ceil(1000);
    rank.max(1) - 1
}

/// Samples strictly beyond the `permille` percentile of `n` samples.
pub fn beyond(n: usize, permille: u32) -> usize {
    n - (rank_index(n, permille) + 1)
}

/// The highest ladder percentile (per-mille) with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when `n` is too small for
/// even the median to qualify.
pub fn tail_permille(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A batch of samples (any unit), sorted on demand. Samples are kept as
/// `f32` (24 significant bits) to halve the log a long run keeps.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f32>,
    sorted: bool,
}

impl Samples {
    /// An empty batch.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v as f32);
        self.sorted = false;
    }

    /// The samples.
    fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().map(|&v| f64::from(v))
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// No samples?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f32::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile (per-mille); 0 for an empty batch.
    pub fn permille(&mut self, permille: u32) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        f64::from(self.values[rank_index(self.values.len(), permille)])
    }

    /// The median.
    pub fn p50(&mut self) -> f64 {
        self.permille(500)
    }

    /// The tail by the ten-beyond rule, with the percentile it sits at.
    /// Batches too small for the rule fall back to the median.
    pub fn tail(&mut self) -> (u32, f64) {
        let p = tail_permille(self.len()).unwrap_or(500);
        (p, self.permille(p))
    }

    /// The largest sample; 0 for an empty batch.
    pub fn max(&self) -> f64 {
        self.values().fold(0.0, f64::max)
    }

    /// The sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values().sum()
    }

    /// The arithmetic mean; 0 for an empty batch.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sum() / self.values.len() as f64
    }
}

/// Operation accounting: every operation the benchmark issues is counted
/// as attempted; an error, a non-2xx answer or a failed correctness check
/// counts it as failed. Each failure keeps a one-line reason.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reasons of the first failures (capped).
    pub reasons: Vec<String>,
}

/// Failure reasons kept per tally; later ones are only counted.
const MAX_REASONS: usize = 16;

impl Tally {
    /// A zeroed tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records one operation that failed, with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < MAX_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// Records one operation whose outcome is `passed`.
    pub fn check(&mut self, passed: bool, reason: impl FnOnce() -> String) {
        if passed {
            self.ok();
        } else {
            self.fail(reason());
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < MAX_REASONS {
                self.reasons.push(r);
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Did every operation succeed?
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.p50()
}
