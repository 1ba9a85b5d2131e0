//! `maintain`: the paper's §7.3 on the plain `Hopi` facade (no snapshot
//! publish, WAL or HTTP). A timed build of the DBLP-like collection; a
//! seeded plan that deletes and re-inserts every document and a sample of
//! the links, timed in passes in which each step runs on its own clone of
//! the build, then run once in sequence on the build, which degrades its
//! cover; reads on the maintained index; and a rebuild — each state
//! checked against BFS.

use super::{
    build_values, check_connected, expected_connected, freeze_ms, measured_overhead_pct,
    CheckedMix, ReadSamples, MIN_PASSES,
};
use crate::inputs::{check_pairs, maintain_plan, read_mix, MaintainOp, Shape};
use crate::oracle::Oracle;
use crate::stats::{median, Samples, Tally};
use crate::{secs, workloads::query::input_sizes, Outcome, RunConfig};
use hopi_build::{Hopi, HopiError};
use hopi_maintenance::{separates, DeletionAlgorithm, DeletionOutcome, DocumentLinks};
use hopi_xml::{Collection, DocId, ElemId};
use std::collections::HashMap;
use std::time::Instant;

/// Share of the measuring time spent on the timed passes over the plan.
const PLAN_SHARE: f64 = 0.75;
/// Share of the measuring time spent reading the maintained index.
const READ_SHARE: f64 = 0.25;

/// Which delete a plan step ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A document delete by the §6.2 separator (Theorem 2).
    Fast,
    /// A document delete by the general algorithm (Theorem 3).
    General,
    /// A link delete.
    Link,
}

/// One plan step's timings in one round; `kind` is `None` when the delete
/// failed.
#[derive(Clone, Copy, Debug)]
struct Step {
    kind: Option<Kind>,
    delete_ms: f64,
    insert_ms: f64,
    recompute_seeds: usize,
}

impl Step {
    /// A step whose delete did not run.
    const FAILED: Step = Step {
        kind: None,
        delete_ms: 0.0,
        insert_ms: 0.0,
        recompute_seeds: 0,
    };
}

/// Per-class timings of the plan.
#[derive(Default)]
struct PlanTimes {
    deletes: Samples,
    fast: Samples,
    general: Samples,
    link: Samples,
    inserts: Samples,
    seeds: Samples,
}

impl PlanTimes {
    /// Step `k` does the same work in every pass, since each pass runs it
    /// on a clone of the same build; it counts at its fastest pass, its
    /// least disturbed cost (see `CheckedMix::fastest_of_passes`). One
    /// pass in sequence gives that sequence's own times.
    fn fastest(passes: &[Vec<Step>]) -> Self {
        let mut times = PlanTimes::default();
        let steps = passes.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..steps {
            let here: Vec<&Step> = passes.iter().filter_map(|p| p.get(k)).collect();
            let min = |f: fn(&Step) -> f64| here.iter().map(|s| f(s)).fold(f64::INFINITY, f64::min);
            let Some(first) = here.iter().find(|s| s.kind.is_some()) else {
                continue;
            };
            let delete_ms = min(|s| s.delete_ms);
            times.deletes.push(delete_ms);
            times.inserts.push(min(|s| s.insert_ms));
            match first.kind {
                Some(Kind::Fast) => times.fast.push(delete_ms),
                Some(Kind::General) => {
                    times.general.push(delete_ms);
                    times.seeds.push(first.recompute_seeds as f64);
                }
                _ => times.link.push(delete_ms),
            }
        }
        times
    }
}

/// Runs the `maintain` workload.
pub fn run(config: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut hopi = None;
    for i in 0..config.sizes.dblp_setups.max(1) {
        drop(hopi.take());
        out.speed.sample();
        let start = Instant::now();
        let collection = out.tracer.span("bench.generate", i as u64, |_| {
            hopi_bench::dblp_collection(config.sizes.dblp_scale)
        });
        let build_start = Instant::now();
        let built = out
            .tracer
            .span("build.build", i as u64, |_| Hopi::build(collection))
            .map_err(|e| format!("build failed: {e}"))?;
        builds.push(secs(build_start));
        setups.push(secs(start));
        hopi = Some(built);
    }
    let mut hopi = hopi.ok_or("no set-up ran")?;
    out.values.set("setup_s", median(&setups));
    out.values.set("build.build_ms", median(&builds) * 1e3);
    out.inputs = input_sizes(&hopi);
    out.values.set(
        "cover_entries_per_element",
        out.inputs.cover_entries as f64 / out.inputs.elements.max(1) as f64,
    );
    build_values(&mut out.values, hopi.report());
    if config.trace {
        let ms = freeze_ms(&hopi, &mut out.tracer);
        out.values.set("core.freeze_ms", ms);
    }

    // The timed passes: every step of the plan on its own clone of the
    // built engine, so that its cost is the same in every pass.
    let plan = maintain_plan(hopi.collection(), config.sizes.link_churns, config.seed);
    let mut separator_ms = Samples::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || secs(start) < config.seconds * PLAN_SHARE {
        let traced = config.trace && passes.is_empty();
        let steps: Vec<Step> = plan
            .iter()
            .flat_map(|op| {
                out.speed.sample();
                let mut clone = hopi.clone();
                run_plan(
                    &mut clone,
                    std::slice::from_ref(op),
                    traced,
                    &mut separator_ms,
                    out,
                )
            })
            .collect();
        passes.push(steps);
    }
    let pass_s: Vec<String> = passes
        .iter()
        .map(|p| {
            let ms: f64 = p.iter().map(|s| s.delete_ms + s.insert_ms).sum();
            format!("{:.2}", ms / 1e3)
        })
        .collect();
    out.notes
        .push(format!("plan time per pass: {} s", pass_s.join(", ")));
    let mut times = PlanTimes::fastest(&passes);
    let ops = times.deletes.len() + times.inserts.len();
    let plan_ms = times.deletes.sum() + times.inserts.sum();
    out.values
        .set("ops_per_s", ops as f64 * 1e3 / plan_ms.max(1e-9));
    out.values
        .set("maintenance.separator_test_ms.p50", separator_ms.p50());
    out.values.set("op_p50_ms", times.deletes.p50());
    let (tail_pm, tail) = times.deletes.tail();
    out.values.set("op_tail_ms", tail);
    out.values
        .set("maintenance.delete_fast_ms.p50", times.fast.p50());
    out.values
        .set("maintenance.delete_general_ms.p50", times.general.p50());
    out.values
        .set("maintenance.delete_link_ms.p50", times.link.p50());
    out.values
        .set("maintenance.recompute_seeds.mean", times.seeds.mean());
    out.values
        .set("maintenance.insert_ms.p50", times.inserts.p50());
    out.values
        .set("maintenance.insert_ms.p95", times.inserts.permille(950));

    // The whole plan in sequence on the built engine: each step starts
    // from the index the steps before it left, which degrades it.
    let steps = run_plan(&mut hopi, &plan, false, &mut separator_ms, out);
    let mut sequence = PlanTimes::fastest(&[steps]);
    out.values
        .set("maintenance.delete_general_ms.max", sequence.general.max());
    let degradation = hopi.degradation().entries_per_element;
    out.values.set("maintenance.degradation", degradation);

    // Reads on the maintained index, checked exactly against BFS. The
    // oracle is dropped once it has answered, before the reads.
    out.notes.push(format!(
        "VmHWM {:.1} MB before the oracle",
        crate::metrics::peak_rss_mb()
    ));
    let mut oracle = Oracle::new(hopi.collection());
    let mix = CheckedMix::new(
        read_mix(
            hopi.collection(),
            Shape::Dblp,
            config.sizes.read_ops,
            config.sizes.probe_sources,
            config.seed,
        ),
        &mut oracle,
    );
    let pairs = check_pairs(hopi.collection(), config.sizes.check_pairs, config.seed);
    let expected = expected_connected(&mut oracle, &pairs);
    drop(oracle);
    let (fastest, _) = mix.fastest_of_passes(
        &hopi,
        config.seconds * READ_SHARE,
        &mut out.tracer,
        &mut out.tally,
        &mut out.speed,
    );
    let mut samples = ReadSamples::of_mix(&mix.mix, &fastest, config.trace);
    samples.report_layers(&mut out.values);
    out.notes.push(samples.time_share_note());
    check_connected(
        &expected,
        &pairs,
        |p, got| hopi.connected_many(p, got),
        "after the plan",
        &mut out.tally,
    );
    if config.trace {
        out.values
            .set("trace.overhead_pct", measured_overhead_pct(&mix, &hopi));
    }

    // The rebuild, then the same sample against BFS again.
    let start = Instant::now();
    out.tracer.span("build.rebuild", 0, |_| {
        hopi.rebuild();
    });
    let rebuild_ms = secs(start) * 1e3;
    out.values.set("build.rebuild_ms", rebuild_ms);
    out.values.set(
        "maintenance.general_delete_over_rebuild",
        sequence.general.p50() / rebuild_ms.max(1e-9),
    );
    check_connected(
        &expected,
        &pairs,
        |p, got| hopi.connected_many(p, got),
        "after the rebuild",
        &mut out.tally,
    );
    out.notes.push(format!(
        "{} passes over {ops} ops on clones of the build, each counted at its fastest pass \
         ({:.2} s): {} fast ({:.2} s), {} general ({:.2} s), {} link deletes ({:.2} s), \
         {} inserts ({:.2} s) (op tail at p{}); \
         in sequence, {:.2} s and degradation to {:.2} entries per element; \
         rebuild {rebuild_ms:.0} ms",
        passes.len(),
        plan_ms / 1e3,
        times.fast.len(),
        times.fast.sum() / 1e3,
        times.general.len(),
        times.general.sum() / 1e3,
        times.link.len(),
        times.link.sum() / 1e3,
        times.inserts.len(),
        times.inserts.sum() / 1e3,
        tail_pm as f64 / 10.0,
        (sequence.deletes.sum() + sequence.inserts.sum()) / 1e3,
        degradation,
    ));
    Ok(())
}

/// Where an original document id lives after re-inserts renumbered it.
fn current(moved: &HashMap<DocId, DocId>, original: DocId) -> DocId {
    moved.get(&original).copied().unwrap_or(original)
}

/// A document's connections to the rest of the collection.
fn links_of(collection: &Collection, d: DocId, len: usize) -> DocumentLinks {
    let base = collection.global_id(d, 0);
    let inside = |e: ElemId| (base..base + len as ElemId).contains(&e);
    let mut links = DocumentLinks::default();
    for l in collection.links() {
        match (inside(l.from), inside(l.to)) {
            (true, false) => links.outgoing.push((l.from - base, l.to)),
            (false, true) => links.incoming.push((l.from, l.to - base)),
            _ => {}
        }
    }
    links
}

/// Runs one round of the plan, timing every delete and re-insert. A
/// traced run also times the §6.2 separator test on each document before
/// deleting it.
fn run_plan(
    hopi: &mut Hopi,
    plan: &[MaintainOp],
    traced: bool,
    separator_ms: &mut Samples,
    out: &mut Outcome,
) -> Vec<Step> {
    let mut steps = Vec::with_capacity(plan.len());
    let mut moved = HashMap::new();
    // Link endpoints as (original document, local element).
    let locate = |e: ElemId| hopi.collection().to_local(e).unwrap_or((0, 0));
    let endpoints: Vec<((DocId, u32), (DocId, u32))> = plan
        .iter()
        .map(|op| match *op {
            MaintainOp::ChurnLink(f, t) => (locate(f), locate(t)),
            MaintainOp::ChurnDoc(_) => ((0, 0), (0, 0)),
        })
        .collect();
    for (k, op) in plan.iter().enumerate() {
        let req = k as u64;
        match *op {
            MaintainOp::ChurnDoc(original) => {
                let d = current(&moved, original);
                let Some(doc) = hopi.collection().document(d).cloned() else {
                    out.tally.fail(format!("document {original} vanished"));
                    steps.push(Step::FAILED);
                    continue;
                };
                let links = links_of(hopi.collection(), d, doc.len());
                if traced {
                    let start = Instant::now();
                    out.tracer.span("maintenance.separates", req, |_| {
                        separates(hopi.collection(), d)
                    });
                    separator_ms.push(secs(start) * 1e3);
                }
                let start = Instant::now();
                let r = out.tracer.span("maintenance.delete_document", req, |_| {
                    hopi.delete_document(d)
                });
                let mut step = step(&mut out.tally, secs(start) * 1e3, r, false, || {
                    format!("delete document {d}")
                });
                let start = Instant::now();
                let r = out.tracer.span("maintenance.insert", req, |_| {
                    hopi.insert_document(doc, &links)
                });
                step.insert_ms = secs(start) * 1e3;
                steps.push(step);
                match r {
                    Ok(new) => {
                        moved.insert(original, new);
                        out.tally.ok();
                    }
                    Err(e) => out
                        .tally
                        .fail(format!("re-insert of document {original} failed: {e}")),
                }
            }
            MaintainOp::ChurnLink(..) => {
                let ((fd, fl), (td, tl)) = endpoints[k];
                let c = hopi.collection();
                let (f, t) = (
                    c.global_id(current(&moved, fd), fl),
                    c.global_id(current(&moved, td), tl),
                );
                let start = Instant::now();
                let r = out
                    .tracer
                    .span("maintenance.delete_link", req, |_| hopi.delete_link(f, t));
                let mut step = step(&mut out.tally, secs(start) * 1e3, r, true, || {
                    format!("delete link {f}->{t}")
                });
                let start = Instant::now();
                let r = out
                    .tracer
                    .span("maintenance.insert", req, |_| hopi.insert_link(f, t));
                step.insert_ms = secs(start) * 1e3;
                steps.push(step);
                match r {
                    Ok(_) => out.tally.ok(),
                    Err(e) => out
                        .tally
                        .fail(format!("re-insert of link {f}->{t} failed: {e}")),
                }
            }
        }
    }
    steps
}

/// A step's delete, counted in the tally.
fn step(
    tally: &mut Tally,
    delete_ms: f64,
    result: Result<DeletionOutcome, HopiError>,
    link: bool,
    what: impl FnOnce() -> String,
) -> Step {
    let mut step = Step {
        delete_ms,
        ..Step::FAILED
    };
    match result {
        Ok(outcome) => {
            step.kind = Some(if link {
                Kind::Link
            } else if outcome.algorithm == DeletionAlgorithm::FastSeparator {
                Kind::Fast
            } else {
                Kind::General
            });
            step.recompute_seeds = outcome.recompute_seeds;
            tally.ok();
        }
        Err(e) => tally.fail(format!("{} failed: {e}", what())),
    }
    step
}
