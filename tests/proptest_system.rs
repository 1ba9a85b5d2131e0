//! System-level property tests: arbitrary collections, arbitrary build
//! configurations, arbitrary update sequences — the engine must always
//! agree with the closure oracle.

use hopi::graph::TransitiveClosure;
use hopi::prelude::*;
use proptest::prelude::*;

/// Strategy: a random collection blueprint.
#[derive(Debug, Clone)]
struct CollectionPlan {
    docs: Vec<usize>,                     // element count per doc
    links: Vec<(usize, u32, usize, u32)>, // (doc_a, raw_elem, doc_b, raw_elem)
}

fn arb_plan() -> impl Strategy<Value = CollectionPlan> {
    let docs = proptest::collection::vec(1usize..6, 2..8);
    docs.prop_flat_map(|docs| {
        let n = docs.len();
        let links = proptest::collection::vec((0..n, 0u32..8, 0..n, 0u32..8), 0..12);
        (Just(docs), links).prop_map(|(docs, links)| CollectionPlan { docs, links })
    })
}

fn realize(plan: &CollectionPlan) -> Collection {
    let mut c = Collection::new();
    for (i, &n) in plan.docs.iter().enumerate() {
        let mut d = XmlDocument::new(format!("d{i}"), "r");
        for k in 1..n {
            // Chain/stars mix: attach to element k/2.
            d.add_element((k / 2) as u32, "e");
        }
        c.add_document(d);
    }
    for &(da, ea, db, eb) in &plan.links {
        if da == db {
            continue;
        }
        let (da, db) = (da as u32, db as u32);
        let la = ea % c.document(da).unwrap().len() as u32;
        let lb = eb % c.document(db).unwrap().len() as u32;
        c.add_link(c.global_id(da, la), c.global_id(db, lb));
    }
    c
}

fn oracle_check(hopi: &Hopi) -> Result<(), TestCaseError> {
    let g = hopi.collection().element_graph();
    let tc = TransitiveClosure::from_graph(&g);
    for u in (0..g.id_bound() as u32).filter(|&u| g.is_alive(u)) {
        for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
            prop_assert_eq!(
                hopi.connected(u, v),
                tc.contains(u, v),
                "pair ({},{})",
                u,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_collection_psg_join(plan in arb_plan()) {
        let hopi = Hopi::builder()
            .partitioner(PartitionerChoice::PerDocument)
            .join(JoinAlgorithm::Psg)
            .build(realize(&plan))
            .unwrap();
        oracle_check(&hopi)?;
    }

    #[test]
    fn arbitrary_collection_incremental_join(plan in arb_plan()) {
        let hopi = Hopi::builder()
            .partitioner(PartitionerChoice::PerDocument)
            .join(JoinAlgorithm::Incremental)
            .build(realize(&plan))
            .unwrap();
        oracle_check(&hopi)?;
    }

    #[test]
    fn psg_and_incremental_answer_identically(plan in arb_plan()) {
        let c = realize(&plan);
        let base = || Hopi::builder().partitioner(PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: 60,
            ..Default::default()
        }));
        let a = base().join(JoinAlgorithm::Psg).build(c.clone()).unwrap();
        let b = base().join(JoinAlgorithm::Incremental).build(c).unwrap();
        let n = a.collection().elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(a.connected(u, v), b.connected(u, v));
            }
        }
    }

    #[test]
    fn deletion_sequence_stays_exact(plan in arb_plan(), order in proptest::collection::vec(0usize..100, 1..5)) {
        let mut hopi = Hopi::build(realize(&plan)).unwrap();
        let mut live: Vec<DocId> = hopi.collection().doc_ids().collect();
        for pick in order {
            if live.len() <= 1 {
                break;
            }
            let victim = live.remove(pick % live.len());
            hopi.delete_document(victim).unwrap();
            oracle_check(&hopi)?;
        }
    }

    #[test]
    fn insertion_sequence_stays_exact(plan in arb_plan(), extra in proptest::collection::vec((0usize..100, 0usize..100), 1..5)) {
        let mut hopi = Hopi::build(realize(&plan)).unwrap();
        for (i, (da, db)) in extra.into_iter().enumerate() {
            let docs: Vec<DocId> = hopi.collection().doc_ids().collect();
            let a = docs[da % docs.len()];
            let b = docs[db % docs.len()];
            if a != b {
                let from = hopi.collection().global_id(a, 0);
                let to = hopi.collection().global_id(b, 0);
                hopi.insert_link(from, to).unwrap();
            } else {
                let mut d = XmlDocument::new(format!("x{i}"), "r");
                d.add_element(0, "s");
                let to = hopi.collection().global_id(a, 0);
                hopi.insert_document(d, &DocumentLinks {
                    outgoing: vec![(1, to)],
                    incoming: vec![],
                }).unwrap();
            }
            oracle_check(&hopi)?;
        }
    }

    #[test]
    fn frozen_cover_agrees_with_live_cover(plan in arb_plan()) {
        // The frozen CSR snapshot must answer connected / descendants /
        // ancestors exactly like the mutable cover it was frozen from.
        use hopi::core::FrozenCover;
        let hopi = Hopi::build(realize(&plan)).unwrap();
        let live = hopi.index().cover();
        let frozen = FrozenCover::from_cover(live);
        prop_assert_eq!(frozen.size(), live.size());
        let n = hopi.collection().elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(frozen.connected(u, v), live.connected(u, v), "pair ({},{})", u, v);
            }
            prop_assert_eq!(frozen.descendants(u), live.descendants(u), "descendants {}", u);
            prop_assert_eq!(frozen.ancestors(u), live.ancestors(u), "ancestors {}", u);
        }
    }

    #[test]
    fn frozen_distance_agrees_with_live_cover(plan in arb_plan()) {
        // Same property for the distance annotations of a distance-aware
        // engine, plus the frozen persistence round trip.
        use hopi::core::FrozenCover;
        use hopi::store::load_frozen;
        let hopi = Hopi::builder().distance_aware(true).build(realize(&plan)).unwrap();
        let n = hopi.collection().elem_id_bound() as u32;
        let path = std::env::temp_dir().join(format!(
            "hopi_proptest_frozen_{}_{}.idx",
            std::process::id(),
            n
        ));
        hopi.save(&path).unwrap();
        let frozen = load_frozen(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(frozen.with_dist());
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    frozen.distance(u, v),
                    hopi.distance(u, v).unwrap(),
                    "distance ({},{})", u, v
                );
            }
        }
        let _ = FrozenCover::from_cover(hopi.index().cover()); // plain form still freezes
    }

    #[test]
    fn snapshot_agrees_with_engine_queries(plan in arb_plan()) {
        let hopi = Hopi::build(realize(&plan)).unwrap();
        let snap = hopi.snapshot();
        let n = hopi.collection().elem_id_bound() as u32;
        for u in 0..n {
            prop_assert_eq!(snap.descendants(u), hopi.descendants(u));
        }
        for expr in ["//r//e", "//e//e", "/r/e"] {
            prop_assert_eq!(snap.query(expr).unwrap(), hopi.query(expr).unwrap(), "{}", expr);
        }
    }

    #[test]
    fn duplicate_link_insert_is_noop(plan in arb_plan(), da in 0usize..100, db in 0usize..100) {
        let mut hopi = Hopi::builder().distance_aware(true).build(realize(&plan)).unwrap();
        let docs: Vec<DocId> = hopi.collection().doc_ids().collect();
        let a = docs[da % docs.len()];
        let b = docs[db % docs.len()];
        if a != b {
            let from = hopi.collection().global_id(a, 0);
            let to = hopi.collection().global_id(b, 0);
            hopi.insert_link(from, to).unwrap();
            let stats = hopi.stats();
            prop_assert_eq!(hopi.insert_link(from, to).unwrap(), 0);
            let after = hopi.stats();
            prop_assert_eq!(after.cover_entries, stats.cover_entries);
            prop_assert_eq!(after.distance_entries, stats.distance_entries);
            prop_assert_eq!(after.links, stats.links);
            oracle_check(&hopi)?;
        }
    }

    #[test]
    fn store_agrees_with_engine(plan in arb_plan()) {
        let hopi = Hopi::build(realize(&plan)).unwrap();
        let path = std::env::temp_dir().join(format!(
            "hopi_proptest_store_{}_{}.idx",
            std::process::id(),
            hopi.collection().elem_id_bound()
        ));
        hopi.save(&path).unwrap();
        let reloaded = Hopi::open(hopi.collection().clone(), &path).unwrap();
        std::fs::remove_file(&path).ok();
        let n = hopi.collection().elem_id_bound() as u32;
        for u in 0..n {
            prop_assert_eq!(reloaded.descendants(u), hopi.descendants(u));
            prop_assert_eq!(reloaded.ancestors(u), hopi.ancestors(u));
        }
    }
}
