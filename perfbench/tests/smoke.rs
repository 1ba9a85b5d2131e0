//! Every workload at tiny scale, untraced and traced: all answers agree
//! with the oracle and every metric of the run's kind is produced.

use perfbench::inputs::Sizes;
use perfbench::metrics::{result_line, END_TO_END};
use perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;

fn config(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace,
        sizes: Sizes::tiny(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name())),
    }
}

fn smoke(workload: Workload) {
    for (seed, trace) in [(1, false), (2, true)] {
        let c = config(workload, seed, trace);
        let out = run(&c).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
        assert!(
            out.correct(),
            "{}: {:?}",
            workload.name(),
            out.tally.reasons
        );
        assert!(out.tally.attempted > 0);
        assert!(out.inputs.elements > 0 && out.inputs.cover_entries > 0);
        if !trace {
            for d in END_TO_END {
                let v = out
                    .values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{} missing", d.name));
                assert!(
                    v.is_finite() && v > 0.0,
                    "{}: {} = {v}",
                    workload.name(),
                    d.name
                );
            }
        } else {
            assert!(out.values.get("trace.spans").unwrap_or(0.0) > 0.0);
        }
        result_line(out.correct(), &out.tally, trace, &out.values).unwrap();
    }
}

#[test]
fn query_smoke() {
    smoke(Workload::Query);
}

#[test]
fn ingest_smoke() {
    smoke(Workload::Ingest);
}

#[test]
fn maintain_smoke() {
    smoke(Workload::Maintain);
}

#[test]
fn same_seed_same_inputs() {
    let a = perfbench::inputs::inex_linked(0.00002);
    let b = perfbench::inputs::inex_linked(0.00002);
    assert_eq!(a.links(), b.links());
    let mix = |seed| perfbench::inputs::read_mix(&a, perfbench::inputs::Shape::Inex, 32, 4, seed);
    assert_eq!(format!("{:?}", mix(7).ops), format!("{:?}", mix(7).ops));
    assert_ne!(format!("{:?}", mix(7).ops), format!("{:?}", mix(8).ops));
    let plan = |seed| format!("{:?}", perfbench::inputs::ingest_plan(&a, 6, 2, seed));
    assert_eq!(plan(3), plan(3));
    // Another seed inserts the same documents and links in another order.
    let inserts = |seed| {
        let mut all: Vec<String> = perfbench::inputs::ingest_plan(&a, 6, 2, seed)
            .iter()
            .map(|i| format!("{i:?}"))
            .collect();
        all.sort();
        all
    };
    assert_eq!(inserts(3), inserts(4));
    assert_ne!(plan(3), plan(4));
    let churn = |seed| perfbench::inputs::maintain_plan(&a, 2, seed);
    assert_eq!(churn(5), churn(5));
    assert_eq!(churn(5).len(), a.doc_ids().count() + 2);
    // Another seed churns the same documents and links in another order.
    let sorted = |seed| {
        let mut ops: Vec<String> = churn(seed).iter().map(|op| format!("{op:?}")).collect();
        ops.sort();
        ops
    };
    assert_eq!(sorted(5), sorted(6));
    assert_ne!(churn(5), churn(6));
}

#[test]
fn query_reads_the_mix_in_whole_passes() {
    let c = config(Workload::Query, 3, false);
    let out = run(&c).unwrap();
    let reads = c.sizes.read_ops as u64;
    assert!(out.tally.attempted >= perfbench::workloads::MIN_PASSES as u64 * reads);
    assert_eq!(out.tally.attempted % reads, 0);
}
