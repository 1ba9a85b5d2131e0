//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! line.
//!
//! Every workload reports every end-to-end metric; each is defined per
//! workload in `perfbench/README.md`. A traced run reports every
//! per-layer metric; a layer a workload does not exercise reads 0.

use crate::stats::Tally;
use std::collections::BTreeMap;

/// A metric's name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// A metric where lower is better.
const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

/// A metric where higher is better.
const fn h(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    h("ops_per_s", "1/s"),
    m("op_p50_ms", "ms"),
    m("op_tail_ms", "ms"),
    m("cover_entries_per_element", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    // Tracing itself.
    m("trace.overhead_pct", "%"),
    h("trace.spans", "count"),
    m("trace.self_ms.bench", "ms"),
    m("trace.self_ms.build", "ms"),
    m("trace.self_ms.core", "ms"),
    m("trace.self_ms.query", "ms"),
    m("trace.self_ms.maintenance", "ms"),
    m("trace.self_ms.server", "ms"),
    m("trace.self_ms.store", "ms"),
    // Input sizes, so a changed input is not mistaken for a changed
    // program.
    h("input.docs", "count"),
    h("input.elements", "count"),
    h("input.links", "count"),
    m("input.cover_entries", "count"),
    // Build (every workload's set-up).
    m("build.build_ms", "ms"),
    m("partition.partition_ms", "ms"),
    m("core.covers_ms", "ms"),
    m("partition.join_ms", "ms"),
    m("partition.partitions", "count"),
    m("partition.cross_links", "count"),
    m("partition.join_entries", "count"),
    m("core.freeze_ms", "ms"),
    // Reads.
    m("core.probe_batch_us.p50", "us"),
    m("core.probe_batch_us.p99", "us"),
    m("core.descendants_us.p50", "us"),
    m("core.descendants_us.p99", "us"),
    m("query.path_us.p50", "us"),
    m("query.path_us.p99", "us"),
    m("query.content_us.p50", "us"),
    m("query.content_us.p99", "us"),
    m("query.rows_examined_per_result", "ratio"),
    h("query.plan.probe", "count"),
    h("query.plan.enumerate", "count"),
    h("query.plan.forward_hop", "count"),
    h("query.plan.backward_hop", "count"),
    // Each read class's share of the summed read time (the mix's shares
    // of operations are an assumption, see README).
    m("bench.read_time_pct.probe_batch", "%"),
    m("bench.read_time_pct.descendants", "%"),
    m("bench.read_time_pct.path", "%"),
    m("bench.read_time_pct.content", "%"),
    m("bench.reference_ms", "ms"),
    // Inserts.
    m("maintenance.insert_ms.p50", "ms"),
    m("maintenance.insert_ms.p95", "ms"),
    m("build.publish_ms.p50", "ms"),
    m("build.publish_ms.p95", "ms"),
    m("core.entries_added_per_insert", "count"),
    m("store.wal_fsync_us.p50", "us"),
    m("store.wal_fsync_us.p99", "us"),
    h("store.wal_batch_records.mean", "count"),
    m("server.stage_us.read.p50", "us"),
    m("server.stage_us.read.p99", "us"),
    m("server.stage_us.route.p50", "us"),
    m("server.stage_us.route.p99", "us"),
    m("server.stage_us.eval.p50", "us"),
    m("server.stage_us.eval.p99", "us"),
    m("server.stage_us.serialize.p50", "us"),
    m("server.stage_us.serialize.p99", "us"),
    m("server.stage_us.write.p50", "us"),
    m("server.stage_us.write.p99", "us"),
    m("server.shed", "count"),
    m("ingest.read_p50_us", "us"),
    m("ingest.read_tail_us", "us"),
    m("ingest.reader_lag_ms.max", "ms"),
    m("store.checkpoint_bytes", "bytes"),
    m("store.replayed_records", "count"),
    m("store.recover_ms", "ms"),
    // Deletes and rebuild.
    m("maintenance.separator_test_ms.p50", "ms"),
    m("maintenance.delete_fast_ms.p50", "ms"),
    m("maintenance.delete_general_ms.p50", "ms"),
    m("maintenance.delete_general_ms.max", "ms"),
    m("maintenance.delete_link_ms.p50", "ms"),
    m("maintenance.recompute_seeds.mean", "count"),
    m("maintenance.degradation", "ratio"),
    m("build.rebuild_ms", "ms"),
    m("maintenance.general_delete_over_rebuild", "ratio"),
];

/// The catalogued per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|d| d.name).find(|&n| n == name)
}

/// Measured values of one run, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// No values yet.
    pub fn new() -> Self {
        Values::default()
    }

    /// Sets a metric. Names outside the catalogue are a programming
    /// error.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Formats a number for JSON: finite values with all their digits,
/// anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's kind (every end-to-end metric untraced, every per-layer
/// metric traced). A per-layer metric the workload did not produce reads
/// 0; an end-to-end metric it did not produce is an error.
pub fn result_line(
    correct: bool,
    tally: &Tally,
    traced: bool,
    values: &Values,
) -> Result<String, String> {
    if tally.attempted == 0 {
        return Err("no operation was attempted".to_string());
    }
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = match values.get(d.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", d.name)),
        };
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            num(v),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        parts.join(", ")
    ))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
