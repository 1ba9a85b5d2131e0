//! Criterion microbenches for query latency: the reachability test
//! (the paper's `LIN ⋈ LOUT` intersection), ancestor/descendant
//! enumeration, and the distance query — against the in-memory cover.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hopi_bench::dblp_collection;
use hopi_build::{build_index, BuildConfig};
use hopi_core::DistanceCoverBuilder;
use hopi_graph::DistanceClosure;
use rand::prelude::*;
use rand::rngs::StdRng;

fn bench_queries(c: &mut Criterion) {
    let collection = dblp_collection(0.02);
    let (index, _) = build_index(&collection, &BuildConfig::default());
    let n = collection.elem_id_bound() as u32;
    let mut rng = StdRng::seed_from_u64(7);
    let pairs: Vec<(u32, u32)> = (0..1024)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();

    let mut group = c.benchmark_group("queries");
    let mut i = 0usize;
    group.bench_function("cover_connected", |b| {
        b.iter(|| {
            i = (i + 1) % pairs.len();
            let (u, v) = pairs[i];
            std::hint::black_box(index.connected(u, v))
        })
    });
    group.bench_function("cover_descendants", |b| {
        b.iter(|| {
            i = (i + 1) % pairs.len();
            std::hint::black_box(index.descendants(pairs[i].0).len())
        })
    });
    group.bench_function("cover_ancestors", |b| {
        b.iter(|| {
            i = (i + 1) % pairs.len();
            std::hint::black_box(index.ancestors(pairs[i].1).len())
        })
    });
    group.finish();

    // Distance queries on a smaller collection (the distance closure is the
    // expensive part, not the query).
    let small = dblp_collection(0.005);
    let dc = DistanceClosure::from_graph(&small.element_graph());
    let dist_cover = DistanceCoverBuilder::new(&dc).build();
    let m = small.elem_id_bound() as u32;
    let dpairs: Vec<(u32, u32)> = (0..1024)
        .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m)))
        .collect();
    let mut group = c.benchmark_group("distance_queries");
    group.bench_function("cover_distance", |b| {
        b.iter(|| {
            i = (i + 1) % dpairs.len();
            let (u, v) = dpairs[i];
            std::hint::black_box(dist_cover.distance(u, v))
        })
    });
    group.finish();

    // Baseline for context: BFS reachability without the index.
    let graph = collection.element_graph();
    let mut group = c.benchmark_group("no_index_baseline");
    group.bench_function("bfs_is_reachable", |b| {
        b.iter_batched(
            || {
                i = (i + 1) % pairs.len();
                pairs[i]
            },
            |(u, v)| std::hint::black_box(hopi_graph::traversal::is_reachable(&graph, u, v)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
