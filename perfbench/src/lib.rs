//! # perfbench — one benchmark for the HOPI engine
//!
//! Three workloads, each run in its own process from one seed:
//!
//! * `query` — in-process reads on an `OnlineHopi` snapshot of the
//!   INEX-linked collection, passes over a seeded mix from one client;
//! * `ingest` — durable inserts over loopback HTTP beside an open-loop
//!   reader, once per set-up, then a reopen of the state directory;
//! * `maintain` — the paper's §7.3 on the plain `Hopi` facade: a build,
//!   documents and links deleted and re-inserted (timed on clones of the
//!   build, then run in sequence), reads on the maintained index, and a
//!   rebuild.
//!
//! Timings count each operation at its fastest repetition: the host's
//! co-tenants slow it down for seconds at a time, and only ever add time.
//! End-to-end timings are then scaled to a reference host speed
//! ([`speed`]).
//!
//! Untraced runs report the end-to-end metrics; a traced run records a
//! span around every call into an engine layer and reports the per-layer
//! metrics (see [`metrics`] and `perfbench/README.md`). Every run checks
//! the engine's answers against a BFS oracle ([`oracle`]).

#![forbid(unsafe_code)]

pub mod inputs;
pub mod metrics;
pub mod oracle;
pub mod prom;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;

use inputs::Sizes;
use metrics::Values;
use speed::Speed;
use stats::Tally;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Reads only, in-process.
    Query,
    /// Durable inserts over HTTP beside reads.
    Ingest,
    /// Build, deletes and inserts, rebuild.
    Maintain,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Query, Workload::Ingest, Workload::Maintain];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Query => "query",
            Workload::Ingest => "ingest",
            Workload::Maintain => "maintain",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The workload seed: read mixes, terms and update plans.
    pub seed: u64,
    /// Measuring time of the time-bound phases: the `query` read passes,
    /// and the `maintain` plan passes and read passes. The `ingest` plan
    /// is count-bound.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Run sizes.
    pub sizes: Sizes,
    /// Scratch directory for durable state and span files.
    pub work_dir: PathBuf,
}

/// Input sizes of a run, printed with every result.
#[derive(Clone, Copy, Debug, Default)]
pub struct InputSizes {
    /// Live documents.
    pub docs: usize,
    /// Live elements.
    pub elements: usize,
    /// Inter-document links.
    pub links: usize,
    /// Cover entries after the build.
    pub cover_entries: usize,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed (correctness checks included).
    pub tally: Tally,
    /// Metric values.
    pub values: Values,
    /// The run's spans (empty when untraced).
    pub tracer: Tracer,
    /// Input sizes.
    pub inputs: InputSizes,
    /// Human-readable lines describing the run.
    pub notes: Vec<String>,
    /// The host's speed, sampled between operations.
    pub speed: Speed,
}

impl Outcome {
    fn new(tracer: Tracer) -> Self {
        Outcome {
            tally: Tally::new(),
            values: Values::new(),
            tracer,
            inputs: InputSizes::default(),
            notes: Vec::new(),
            speed: Speed::new(),
        }
    }

    /// Did every operation and every check pass?
    pub fn correct(&self) -> bool {
        self.tally.all_ok()
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs one workload.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let tracer = Tracer::new(config.trace, Instant::now());
    let mut out = Outcome::new(tracer);
    match config.workload {
        Workload::Query => workloads::query::run(config, &mut out)?,
        Workload::Ingest => workloads::ingest::run(config, &mut out)?,
        Workload::Maintain => workloads::maintain::run(config, &mut out)?,
    }
    at_reference_speed(&mut out);
    let v = &mut out.values;
    if v.get("peak_rss_mb").is_none() {
        v.set("peak_rss_mb", metrics::peak_rss_mb());
    }
    v.set("input.docs", out.inputs.docs as f64);
    v.set("input.elements", out.inputs.elements as f64);
    v.set("input.links", out.inputs.links as f64);
    v.set("input.cover_entries", out.inputs.cover_entries as f64);
    if config.trace {
        finish_trace(config, &mut out);
    }
    Ok(out)
}

/// Scales the end-to-end timings to [`speed::REFERENCE_MS`], noting the
/// raw values, and records the kernel's lower quartile.
fn at_reference_speed(out: &mut Outcome) {
    let scale = out.speed.scale();
    let mut raw = Vec::new();
    for (name, power) in [
        ("setup_s", 1),
        ("ops_per_s", -1),
        ("op_p50_ms", 1),
        ("op_tail_ms", 1),
    ] {
        if let Some(v) = out.values.get(name) {
            raw.push(format!("{name} {v:.6}"));
            out.values.set(name, v * scale.powi(power));
        }
    }
    let quartile = out.speed.quartile_ms();
    out.values.set("bench.reference_ms", quartile);
    out.notes.push(format!(
        "reference kernel: lower quartile {quartile:.3} ms of {} samples; timings scaled by \
         {scale:.3} (raw: {})",
        out.speed.samples(),
        raw.join(", ")
    ));
}

/// Self time per layer and the span count. Each workload measures its
/// own tracing overhead (`trace.overhead_pct`).
fn finish_trace(config: &RunConfig, out: &mut Outcome) {
    let layers = out.tracer.self_ms_by_layer();
    for d in metrics::PER_LAYER {
        if let Some(layer) = d.name.strip_prefix("trace.self_ms.") {
            out.values
                .set(d.name, layers.get(layer).copied().unwrap_or(0.0));
        }
    }
    out.values
        .set("trace.spans", out.tracer.spans().len() as f64);
    let path = config.work_dir.join(format!(
        "spans-{}-{}.tsv",
        config.workload.name(),
        config.seed
    ));
    match out.tracer.write_tsv(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("could not write spans: {e}")),
    }
}
