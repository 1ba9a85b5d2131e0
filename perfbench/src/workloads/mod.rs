//! The three workloads and what they share: set-up repetition, build
//! report metrics, and the checked read mix.

pub mod ingest;
pub mod maintain;
pub mod query;

use crate::inputs::{PathExpr, ReadMix, ReadOp};
use crate::metrics::{per_layer, Values};
use crate::oracle::Oracle;
use crate::speed::Speed;
use crate::stats::{Samples, Tally};
use crate::trace::Tracer;
use hopi_build::{BuildReport, Hopi, HopiError, HopiSnapshot};
use hopi_core::FrozenCover;
use hopi_xml::ElemId;
use std::collections::HashMap;
use std::time::Instant;

/// Records the build report's phase times and shape.
pub fn build_values(values: &mut Values, report: &BuildReport) {
    values.set("partition.partition_ms", report.partition_ms as f64);
    values.set("core.covers_ms", report.covers_ms as f64);
    values.set("partition.join_ms", report.join_ms as f64);
    values.set("partition.partitions", report.partitions as f64);
    values.set("partition.cross_links", report.cross_links as f64);
    values.set("partition.join_entries", report.join_entries as f64);
}

/// Times `FrozenCover::from_cover` on an engine's cover (the freeze every
/// snapshot publish runs), in milliseconds.
pub fn freeze_ms(hopi: &Hopi, tracer: &mut Tracer) -> f64 {
    let start = Instant::now();
    let frozen = tracer.span("core.freeze", 0, |_| {
        FrozenCover::from_cover(hopi.index().cover())
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(frozen);
    ms
}

/// What a read target answers: the snapshot `query` reads, or the plain
/// engine `maintain` reads after its plan.
pub trait ReadTarget {
    /// Batched connection probes.
    fn probe_batch(&self, pairs: &[(ElemId, ElemId)], out: &mut Vec<bool>);
    /// Everything `u` reaches.
    fn descendants(&self, u: ElemId) -> Vec<ElemId>;
    /// A path query.
    fn query(&self, expr: &str) -> Result<Vec<ElemId>, HopiError>;
}

impl ReadTarget for HopiSnapshot {
    fn probe_batch(&self, pairs: &[(ElemId, ElemId)], out: &mut Vec<bool>) {
        self.connected_many(pairs, out);
    }
    fn descendants(&self, u: ElemId) -> Vec<ElemId> {
        HopiSnapshot::descendants(self, u)
    }
    fn query(&self, expr: &str) -> Result<Vec<ElemId>, HopiError> {
        HopiSnapshot::query(self, expr)
    }
}

impl ReadTarget for Hopi {
    fn probe_batch(&self, pairs: &[(ElemId, ElemId)], out: &mut Vec<bool>) {
        self.connected_many(pairs, out);
    }
    fn descendants(&self, u: ElemId) -> Vec<ElemId> {
        Hopi::descendants(self, u)
    }
    fn query(&self, expr: &str) -> Result<Vec<ElemId>, HopiError> {
        Hopi::query(self, expr)
    }
}

/// An order-independent fingerprint of a set of element ids: the
/// wrapping sum of their splitmix64 mixes.
pub fn id_set_hash(ids: &[ElemId]) -> u64 {
    ids.iter().fold(0u64, |acc, &id| {
        let mut z = u64::from(id).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc.wrapping_add(z ^ (z >> 31))
    })
}

/// The oracle's answers to a read mix, kept compact so that holding them
/// through the measured phase adds little to the process's memory.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Per probe batch, the answer of every pair.
    pub batches: Vec<Vec<bool>>,
    /// Per descendants root, the answer's size and [`id_set_hash`].
    pub descendants: HashMap<ElemId, (usize, u64)>,
    /// Result counts of the structure-only expressions.
    pub paths: Vec<usize>,
    /// Result counts of the content-and-structure expressions.
    pub contents: Vec<usize>,
}

impl Expected {
    /// Computes every answer of `mix` by BFS.
    pub fn of(oracle: &mut Oracle, mix: &ReadMix) -> Self {
        // One BFS per probe source, answering every pair that starts
        // there, so no more than one reach row is held at a time.
        let mut by_source: HashMap<ElemId, Vec<(usize, usize)>> = HashMap::new();
        for (b, batch) in mix.batches.iter().enumerate() {
            for (k, &(u, _)) in batch.iter().enumerate() {
                by_source.entry(u).or_default().push((b, k));
            }
        }
        let mut batches: Vec<Vec<bool>> =
            mix.batches.iter().map(|b| vec![false; b.len()]).collect();
        for (u, slots) in by_source {
            let row = oracle.reach_rows(&[u]).swap_remove(0);
            for (b, k) in slots {
                batches[b][k] = row[mix.batches[b][k].1 as usize];
            }
        }
        let mut descendants = HashMap::new();
        for op in &mix.ops {
            if let ReadOp::Descendants(u) = *op {
                descendants.entry(u).or_insert_with(|| {
                    let all = oracle.descendants(u);
                    (all.len(), id_set_hash(&all))
                });
            }
        }
        let count_all = |oracle: &mut Oracle, exprs: &[PathExpr]| -> Vec<usize> {
            exprs.iter().map(|e| oracle.count(e)).collect()
        };
        Expected {
            batches,
            descendants,
            paths: count_all(oracle, &mix.paths),
            contents: count_all(oracle, &mix.contents),
        }
    }
}

/// Read classes, in [`ReadOp::class`] names.
const CLASSES: [&str; 4] = ["probe_batch", "descendants", "path", "content"];

/// Latency samples of a read stream, in microseconds. Untraced runs keep
/// one log of every read plus per-class sums, so the log stays small
/// beside the engine whose peak memory they report; traced runs also keep
/// a log per class for the per-layer percentiles.
#[derive(Clone, Debug, Default)]
pub struct ReadSamples {
    /// Every read.
    pub all: Samples,
    /// Per class, in [`CLASSES`] order; empty unless kept per class.
    by_class: Vec<Samples>,
    /// Summed latency per class.
    sums: [f64; 4],
}

impl ReadSamples {
    /// An empty log; `per_class` also keeps each class's samples.
    pub fn new(per_class: bool) -> Self {
        ReadSamples {
            by_class: if per_class {
                vec![Samples::new(); CLASSES.len()]
            } else {
                Vec::new()
            },
            ..ReadSamples::default()
        }
    }

    /// The log of a mix's reads at the latencies `us` (in mix order).
    pub fn of_mix(mix: &ReadMix, us: &[f64], per_class: bool) -> Self {
        let mut samples = ReadSamples::new(per_class);
        for (op, &us) in mix.ops.iter().zip(us) {
            samples.record(op.class(), us);
        }
        samples
    }

    /// Records one read of `class`.
    pub fn record(&mut self, class: &str, us: f64) {
        let k = CLASSES.iter().position(|&c| c == class).unwrap_or(3);
        self.all.push(us);
        self.sums[k] += us;
        if let Some(s) = self.by_class.get_mut(k) {
            s.push(us);
        }
    }

    /// Sets the per-class latencies (when kept) and each class's share of
    /// read time.
    pub fn report_layers(&mut self, values: &mut Values) {
        let names = [
            "core.probe_batch_us",
            "core.descendants_us",
            "query.path_us",
            "query.content_us",
        ];
        for (s, name) in self.by_class.iter_mut().zip(names) {
            for (suffix, permille) in [("p50", 500), ("p99", 990)] {
                if let Some(metric) = per_layer(&format!("{name}.{suffix}")) {
                    values.set(metric, s.permille(permille));
                }
            }
        }
        for (class, share) in self.time_shares() {
            if let Some(name) = per_layer(&format!("bench.read_time_pct.{class}")) {
                values.set(name, share);
            }
        }
    }

    /// Each class's share of the summed read time, in percent.
    pub fn time_shares(&self) -> [(&'static str, f64); 4] {
        let total = self.sums.iter().sum::<f64>().max(1e-9);
        std::array::from_fn(|k| (CLASSES[k], 100.0 * self.sums[k] / total))
    }

    /// The classes' shares of read time as one line.
    pub fn time_share_note(&self) -> String {
        let shares: Vec<String> = self
            .time_shares()
            .iter()
            .map(|(class, share)| format!("{class} {share:.1}%"))
            .collect();
        format!("share of read time: {}", shares.join(", "))
    }
}

/// A read mix with its rendered expressions and expected answers.
pub struct CheckedMix {
    /// The mix.
    pub mix: ReadMix,
    /// `mix.paths`, rendered.
    pub paths: Vec<String>,
    /// `mix.contents`, rendered.
    pub contents: Vec<String>,
    /// The oracle's answers.
    pub expected: Expected,
}

impl CheckedMix {
    /// Renders the mix's expressions and computes its answers.
    pub fn new(mix: ReadMix, oracle: &mut Oracle) -> Self {
        let expected = Expected::of(oracle, &mix);
        CheckedMix {
            paths: mix.paths.iter().map(PathExpr::render).collect(),
            contents: mix.contents.iter().map(PathExpr::render).collect(),
            mix,
            expected,
        }
    }

    /// Issues read `i` of the mix against `target`, checks its answer
    /// exactly, and returns its latency in microseconds.
    pub fn read<T: ReadTarget + ?Sized>(
        &self,
        target: &T,
        i: usize,
        tracer: &mut Tracer,
        tally: &mut Tally,
        buf: &mut Vec<bool>,
    ) -> f64 {
        let op = self.mix.ops[i % self.mix.ops.len()];
        let req = i as u64;
        tracer.span("bench.read", req, |tracer| {
            let start = Instant::now();
            let outcome: Result<Vec<ElemId>, HopiError> = match op {
                ReadOp::ProbeBatch(b) => {
                    tracer.span("core.probe_batch", req, |_| {
                        target.probe_batch(&self.mix.batches[b], buf)
                    });
                    Ok(Vec::new())
                }
                ReadOp::Descendants(u) => {
                    Ok(tracer.span("core.descendants", req, |_| target.descendants(u)))
                }
                ReadOp::Path(p) => tracer.span("query.path", req, |_| target.query(&self.paths[p])),
                ReadOp::Content(c) => {
                    tracer.span("query.content", req, |_| target.query(&self.contents[c]))
                }
            };
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            match (op, outcome) {
                (_, Err(e)) => tally.fail(format!("{} read failed: {e}", op.class())),
                (ReadOp::ProbeBatch(b), Ok(_)) => tally
                    .check(buf[..] == self.expected.batches[b][..], || {
                        format!("probe batch {b} disagrees with BFS")
                    }),
                (ReadOp::Descendants(u), Ok(got)) => tally.check(
                    self.expected.descendants.get(&u) == Some(&(got.len(), id_set_hash(&got))),
                    || format!("descendants({u}) disagrees with BFS"),
                ),
                (ReadOp::Path(p), Ok(got)) => {
                    tally.check(got.len() == self.expected.paths[p], || {
                        format!(
                            "{} returned {} results, BFS {}",
                            self.paths[p],
                            got.len(),
                            self.expected.paths[p]
                        )
                    })
                }
                (ReadOp::Content(c), Ok(got)) => {
                    tally.check(got.len() == self.expected.contents[c], || {
                        format!(
                            "{} returned {} results, BFS {}",
                            self.contents[c],
                            got.len(),
                            self.expected.contents[c]
                        )
                    })
                }
            }
            us
        })
    }

    /// Reads the whole mix on `target` in passes, checking every answer,
    /// until `seconds` are up and at least [`MIN_PASSES`] passes have run;
    /// the host's speed is sampled every [`SPEED_EVERY`] reads.
    /// Returns each read's fastest latency over the passes, in mix order
    /// (microseconds), and the number of passes.
    ///
    /// On a shared host, co-tenants slow the machine down for seconds at a
    /// time, by up to two fifths; a time-bound throughput moved with them.
    /// They only ever add time, so a read's fastest repetition, with the
    /// repetitions spread over the whole run, is its least disturbed cost.
    pub fn fastest_of_passes<T: ReadTarget + ?Sized>(
        &self,
        target: &T,
        seconds: f64,
        tracer: &mut Tracer,
        tally: &mut Tally,
        speed: &mut Speed,
    ) -> (Vec<f64>, usize) {
        let n = self.mix.ops.len();
        let mut fastest = vec![f64::INFINITY; n];
        let mut buf = Vec::new();
        let start = Instant::now();
        let mut passes = 0;
        while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            for (i, best) in fastest.iter_mut().enumerate() {
                if i % SPEED_EVERY == 0 {
                    speed.sample();
                }
                let us = self.read(target, passes * n + i, tracer, tally, &mut buf);
                *best = best.min(us);
            }
            passes += 1;
        }
        (fastest, passes)
    }
}

/// Fewest passes [`CheckedMix::fastest_of_passes`] makes over a mix.
pub const MIN_PASSES: usize = 3;

/// Reads between two samples of the host's speed, about 30 ms of `query`
/// reads: a sample costs about 1 ms.
const SPEED_EVERY: usize = 1024;

/// BFS answers of `connected` on sampled pairs.
pub fn expected_connected(oracle: &mut Oracle, pairs: &[(ElemId, ElemId)]) -> Vec<bool> {
    let mut sources: Vec<ElemId> = pairs.iter().map(|p| p.0).collect();
    sources.sort_unstable();
    sources.dedup();
    let rows = oracle.reach_rows(&sources);
    pairs
        .iter()
        .map(|&(u, v)| {
            let row = sources.binary_search(&u).unwrap_or(0);
            rows[row][v as usize]
        })
        .collect()
}

/// Checks `connected` answers on sampled pairs against their BFS answers
/// ([`expected_connected`]); the whole sample counts as one checked
/// operation.
pub fn check_connected(
    expected: &[bool],
    pairs: &[(ElemId, ElemId)],
    answer: impl Fn(&[(ElemId, ElemId)], &mut Vec<bool>),
    what: &str,
    tally: &mut Tally,
) {
    let mut got = Vec::new();
    answer(pairs, &mut got);
    let wrong = expected
        .iter()
        .enumerate()
        .filter(|&(k, want)| got.get(k) != Some(want))
        .count();
    tally.check(wrong == 0 && got.len() == expected.len(), || {
        format!(
            "{what}: {wrong} of {} sampled connected() answers disagree with BFS",
            pairs.len()
        )
    });
}

/// Wall time of one untraced pass of the overhead measurement, seconds.
const OVERHEAD_PASS_S: f64 = 0.05;
/// Untraced/traced pass pairs of the overhead measurement.
const OVERHEAD_PAIRS: usize = 11;

/// Tracing overhead, measured: the same slice of the mix (as many reads
/// as take about [`OVERHEAD_PASS_S`] untraced) is read on `target` in
/// alternating untraced and traced passes (each pair in swapped order),
/// and the result is the median over pairs of the traced pass's extra
/// wall time over the untraced one's, in percent. The passes check
/// nothing (the run's own reads do) and their spans are discarded.
pub fn measured_overhead_pct<T: ReadTarget + ?Sized>(mix: &CheckedMix, target: &T) -> f64 {
    let origin = Instant::now();
    let pass = |traced: bool, reads: usize| {
        let mut tracer = Tracer::new(traced, origin);
        let (mut tally, mut buf) = (Tally::new(), Vec::new());
        let start = Instant::now();
        for i in 0..reads {
            mix.read(target, i, &mut tracer, &mut tally, &mut buf);
        }
        start.elapsed().as_secs_f64()
    };
    let probe = 256;
    let reads = (probe as f64 * OVERHEAD_PASS_S / pass(false, probe).max(1e-9)).ceil() as usize;
    let reads = reads.max(probe);
    pass(false, reads);
    let ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|k| {
            let (plain, traced) = if k % 2 == 0 {
                let p = pass(false, reads);
                (p, pass(true, reads))
            } else {
                let t = pass(true, reads);
                (pass(false, reads), t)
            };
            100.0 * (traced - plain) / plain.max(1e-12)
        })
        .collect();
    crate::stats::median(&ratios)
}
