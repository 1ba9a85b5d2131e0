//! Regenerates the **§5 distance experiment** backing the abstract's claim
//! of "low space overhead for including distance information in the index":
//! builds the plain and the distance-aware cover over the same collections
//! and compares entry counts, stored integers (the DIST column adds one
//! integer per entry), and build times — including the effect of the
//! sampled density estimation (§5.2).
//!
//! ```sh
//! cargo run -p hopi-bench --release --bin distance_overhead [--scale 0.02]
//! ```

use hopi_bench::{dblp_collection, inex_collection, scale_arg, TablePrinter};
use hopi_core::{CoverBuilder, DistanceCoverBuilder, FrozenCover};
use hopi_graph::{DistanceClosure, TransitiveClosure};
use hopi_xml::{Collection, CollectionStats};
use std::time::Instant;

fn main() {
    let scale = scale_arg(0.02);
    let t = TablePrinter::new(&[
        ("collection", 12),
        ("els", 8),
        ("plain sz", 10),
        ("dist sz", 10),
        ("entry ovh", 10),
        ("ints ovh", 9),
        ("plain ms", 9),
        ("dist ms", 9),
        ("sampled", 8),
    ]);
    run("DBLP-like", &dblp_collection(scale), &t);
    run("INEX-like", &inex_collection(scale * 0.01), &t);
    println!(
        "\npaper: distance information is an extra DIST attribute on existing entries\n\
         (≈1.5x stored integers, no blow-up in entry count); shortest-path center\n\
         filtering changes build behaviour via the §5.2 sampled density estimation."
    );
}

fn run(name: &str, collection: &Collection, t: &TablePrinter) {
    let stats = CollectionStats::of(collection);
    let graph = collection.element_graph();

    let t0 = Instant::now();
    let tc = TransitiveClosure::from_graph(&graph);
    let plain = CoverBuilder::new(&tc).build();
    let plain_ms = t0.elapsed().as_millis();
    drop(tc);

    let t0 = Instant::now();
    let dc = DistanceClosure::from_graph(&graph);
    let (dist, dstats) = DistanceCoverBuilder::new(&dc).build_with_stats();
    let dist_ms = t0.elapsed().as_millis();

    let plain_ints = stored_integers(&FrozenCover::from_cover(&plain));
    let dist_ints = stored_integers(&FrozenCover::from_distance_cover(&dist));

    t.row(&[
        name.into(),
        stats.elements.to_string(),
        plain.size().to_string(),
        dist.size().to_string(),
        format!("{:.2}x", dist.size() as f64 / plain.size().max(1) as f64),
        format!("{:.2}x", dist_ints as f64 / plain_ints.max(1) as f64),
        plain_ms.to_string(),
        dist_ms.to_string(),
        dstats.sampled_estimates.to_string(),
    ]);

    // Sanity: distances exact on a sample.
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(99);
    let n = graph.id_bound() as u32;
    for _ in 0..500 {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        assert_eq!(
            dist.distance(u, v),
            dc.dist(u, v),
            "distance drift ({u},{v})"
        );
    }
}

/// Integers the stored index holds: one center per label entry in the
/// forward rows, one holder per entry in the inverted (backward) rows —
/// the paper's doubling — plus the DIST column when present.
fn stored_integers(frozen: &FrozenCover) -> usize {
    2 * frozen.label_data().len() + frozen.label_dists().map_or(0, <[u32]>::len)
}
