//! `query`: reads only, in-process, on one `OnlineHopi` snapshot of the
//! INEX-linked collection; one client reads the mix in passes for the
//! run's measuring time, and each read counts at its fastest pass.

use super::{build_values, freeze_ms, measured_overhead_pct, CheckedMix, ReadSamples};
use crate::inputs::{inex_linked, read_mix, Shape};
use crate::oracle::Oracle;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{secs, InputSizes, Outcome, RunConfig};
use hopi_build::{Hopi, OnlineHopi, PlanCounts};
use hopi_xml::Collection;
use std::time::Instant;

/// One set-up: generate, build, and publish the first snapshot. Returns
/// the engine with the set-up and build times.
fn setup_once(
    config: &RunConfig,
    tracer: &mut Tracer,
    i: u64,
) -> Result<(OnlineHopi, f64, f64), String> {
    let start = Instant::now();
    let collection = tracer.span("bench.generate", i, |_| {
        inex_linked(config.sizes.inex_scale)
    });
    let build_start = Instant::now();
    let hopi = tracer
        .span("build.build", i, |_| Hopi::build(collection))
        .map_err(|e| format!("build failed: {e}"))?;
    let build_s = secs(build_start);
    let online = tracer.span("build.publish", i, |_| OnlineHopi::new(hopi));
    Ok((online, secs(start), build_s))
}

/// Input sizes of an engine.
pub(crate) fn input_sizes(hopi: &Hopi) -> InputSizes {
    let s = hopi.stats();
    InputSizes {
        docs: s.documents,
        elements: s.elements,
        links: s.links,
        cover_entries: s.cover_entries,
    }
}

/// Sets the plan-strategy counts of the measured reads.
pub(crate) fn plan_values(out: &mut Outcome, after: PlanCounts, before: PlanCounts) {
    let delta = |a: u64, b: u64| (a - b) as f64;
    let v = &mut out.values;
    v.set(
        "query.plan.probe",
        delta(after.pairwise_probe, before.pairwise_probe),
    );
    v.set(
        "query.plan.enumerate",
        delta(after.enumerate, before.enumerate),
    );
    v.set(
        "query.plan.forward_hop",
        delta(after.forward_hop_join, before.forward_hop_join),
    );
    v.set(
        "query.plan.backward_hop",
        delta(after.backward_hop_join, before.backward_hop_join),
    );
}

/// Step input plus candidates over output, summed over one EXPLAIN
/// ANALYZE run of every expression of the mix.
pub(crate) fn rows_examined_per_result(
    mix: &CheckedMix,
    explain: impl Fn(&str) -> Option<hopi_build::QueryPlanReport>,
) -> f64 {
    let (mut examined, mut produced) = (0usize, 0usize);
    for expr in mix.paths.iter().chain(&mix.contents) {
        if let Some(report) = explain(expr) {
            for s in &report.steps {
                examined += s.input + s.candidates;
            }
            produced += report.steps.last().map_or(0, |s| s.output);
        }
    }
    examined as f64 / produced.max(1) as f64
}

/// The read mix with its BFS answers, from the collection the set-ups
/// build. The oracle is dropped before the first build, so it adds
/// nothing to the engine's peak memory.
pub(crate) fn checked_mix(
    config: &RunConfig,
    collection: &Collection,
    ops: usize,
    out: &mut Outcome,
) -> CheckedMix {
    let mut oracle = Oracle::new(collection);
    let mix = CheckedMix::new(
        read_mix(
            collection,
            Shape::Inex,
            ops,
            config.sizes.probe_sources,
            config.seed,
        ),
        &mut oracle,
    );
    drop(oracle);
    out.notes.push(format!(
        "VmHWM {:.1} MB after the oracle, before the first build",
        crate::metrics::peak_rss_mb()
    ));
    mix
}

/// Runs the `query` workload.
pub fn run(config: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let mix = checked_mix(
        config,
        &inex_linked(config.sizes.inex_scale),
        config.sizes.read_ops,
        out,
    );
    out.speed.sample();
    let (online, setup_s, build_s) = setup_once(config, &mut out.tracer, 0)?;
    let (mut setups, mut builds) = (vec![setup_s], vec![build_s]);
    let snapshot = online.snapshot();
    online.read(|hopi| {
        out.inputs = input_sizes(hopi);
        build_values(&mut out.values, hopi.report());
        if config.trace {
            let ms = freeze_ms(hopi, &mut out.tracer);
            out.values.set("core.freeze_ms", ms);
        }
    });
    out.values.set(
        "cover_entries_per_element",
        out.inputs.cover_entries as f64 / out.inputs.elements.max(1) as f64,
    );

    let plan_before = online.snapshot_stats().plan;
    let start = Instant::now();
    let (fastest, passes) = mix.fastest_of_passes(
        &*snapshot,
        config.seconds,
        &mut out.tracer,
        &mut out.tally,
        &mut out.speed,
    );
    let elapsed = secs(start);
    plan_values(out, online.snapshot_stats().plan, plan_before);

    let mut samples = ReadSamples::of_mix(&mix.mix, &fastest, config.trace);
    let reads = fastest.len();
    out.values.set(
        "ops_per_s",
        reads as f64 * 1e6 / fastest.iter().sum::<f64>().max(1e-9),
    );
    out.values.set("op_p50_ms", samples.all.p50() / 1e3);
    let (tail_pm, tail) = samples.all.tail();
    out.values.set("op_tail_ms", tail / 1e3);
    samples.report_layers(&mut out.values);
    out.values.set("peak_rss_mb", crate::metrics::peak_rss_mb());
    if config.trace {
        let rows =
            rows_examined_per_result(&mix, |e| snapshot.query_explained(e).ok().map(|r| r.1));
        out.values.set("query.rows_examined_per_result", rows);
        out.values.set(
            "trace.overhead_pct",
            measured_overhead_pct(&mix, &*snapshot),
        );
    }
    drop(snapshot);
    drop(online);

    // The other set-ups, timed only. They run after the measured phase so
    // that the peak memory is one engine's: memory the allocator kept from
    // an earlier build moved the peak by a fifth between runs.
    for i in 1..config.sizes.setups.max(1) {
        out.speed.sample();
        let (online, setup_s, build_s) = setup_once(config, &mut out.tracer, i as u64)?;
        drop(online);
        setups.push(setup_s);
        builds.push(build_s);
    }
    out.values.set("setup_s", median(&setups));
    out.values.set("build.build_ms", median(&builds) * 1e3);
    out.notes.push(samples.time_share_note());
    out.notes.push(format!(
        "{passes} passes over {reads} reads in {elapsed:.2} s; each read's fastest pass counts; \
         op tail at p{}",
        tail_pm as f64 / 10.0
    ));
    Ok(())
}
