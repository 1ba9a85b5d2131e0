//! The catch-up vocabulary of online rebuilds.
//!
//! Paper §1.1 asks for 24×7 operation: "indexes need to be built without
//! interrupting the service of queries". The serving wrapper
//! (`hopi_build::OnlineHopi`) rebuilds from a snapshot outside its lock
//! while mutations keep landing on the live engine; before it swaps the
//! fresh index in, it replays the mutations of that window. This module
//! holds the pieces of that replay that need no engine: the update
//! vocabulary ([`CollectionUpdate`]), the snapshot-to-live delta
//! ([`collection_delta`]), and the check that replaying the delta
//! reproduces the live id assignment ([`delta_replays_exactly`]).

use crate::insert::DocumentLinks;
use hopi_xml::{Collection, DocId, ElemId, XmlDocument};

/// One collection-level update: the vocabulary shared by mid-rebuild
/// catch-up replay (captured while a background rebuild runs, replayed
/// onto the fresh index before the swap) and the durable write-ahead log
/// (`hopi_store::wal::WalRecord` is its persisted twin).
pub enum CollectionUpdate {
    /// A link was inserted between two pre-existing documents.
    InsertLink(ElemId, ElemId),
    /// An inter-document link was deleted.
    DeleteLink(ElemId, ElemId),
    /// A document was inserted, with its links.
    InsertDocument(XmlDocument, DocumentLinks),
    /// A document was deleted.
    DeleteDocument(DocId),
    /// A document was replaced by a new version (drop + reinsert, paper
    /// §6.3; the replacement is assigned a fresh document id).
    ModifyDocument(DocId, XmlDocument, DocumentLinks),
}

/// Would replaying `delta` onto `snapshot` reproduce the live collection's
/// id assignment exactly?
///
/// Replay appends inserted documents in order, so ids and element bases
/// stay aligned with the live collection only if live's post-snapshot
/// documents are exactly that appended sequence (no holes left by
/// documents created *and* deleted during the window) and no inserted
/// document links to a document appended after it. When this returns
/// `false`, replaying would corrupt or fail — rebuild from the live
/// collection instead.
pub fn delta_replays_exactly(
    snapshot: &Collection,
    live: &Collection,
    delta: &[CollectionUpdate],
) -> bool {
    let mut available: rustc_hash::FxHashSet<DocId> = snapshot.doc_ids().collect();
    let mut next_doc = snapshot.doc_id_bound() as DocId;
    let mut next_elem = snapshot.elem_id_bound() as ElemId;
    // Would appending `doc` as id `next_doc` reproduce live's assignment,
    // with every linked-to document already replayed?
    let appends_exactly = |doc: &XmlDocument,
                           links: &DocumentLinks,
                           next_doc: DocId,
                           next_elem: ElemId,
                           available: &rustc_hash::FxHashSet<DocId>| {
        let live_doc = match live.document(next_doc) {
            Some(d) => d,
            None => return false,
        };
        if live_doc.len() != doc.len() || live.global_id(next_doc, 0) != next_elem {
            return false;
        }
        let endpoint_ok = |e: ElemId| live.doc_of(e).is_some_and(|d| available.contains(&d));
        links.outgoing.iter().all(|&(_, t)| endpoint_ok(t))
            && links.incoming.iter().all(|&(s, _)| endpoint_ok(s))
    };
    for update in delta {
        match update {
            CollectionUpdate::DeleteDocument(d) => {
                available.remove(d);
            }
            CollectionUpdate::InsertLink(from, to) | CollectionUpdate::DeleteLink(from, to) => {
                let ok = [*from, *to]
                    .into_iter()
                    .all(|e| live.doc_of(e).is_some_and(|d| available.contains(&d)));
                if !ok {
                    return false;
                }
            }
            CollectionUpdate::InsertDocument(doc, links) => {
                if !appends_exactly(doc, links, next_doc, next_elem, &available) {
                    return false;
                }
                available.insert(next_doc);
                next_doc += 1;
                next_elem += doc.len() as ElemId;
            }
            CollectionUpdate::ModifyDocument(d, doc, links) => {
                // Drop + reinsert: the replacement takes the next fresh id.
                if !available.remove(d) {
                    return false;
                }
                if !appends_exactly(doc, links, next_doc, next_elem, &available) {
                    return false;
                }
                available.insert(next_doc);
                next_doc += 1;
                next_elem += doc.len() as ElemId;
            }
        }
    }
    next_doc as usize == live.doc_id_bound() && next_elem as usize == live.elem_id_bound()
}

/// Computes the update sequence that transforms the snapshot into the live
/// collection: deleted documents, inserted documents (with their links),
/// and new links between pre-existing documents. `snapshot_docs` and
/// `snapshot_links` describe the snapshot's live documents and links.
pub fn collection_delta(
    snapshot_docs: &[DocId],
    snapshot_links: &rustc_hash::FxHashSet<(ElemId, ElemId)>,
    live: &Collection,
) -> Vec<CollectionUpdate> {
    let mut updates = Vec::new();
    // Deletions: snapshot docs no longer live.
    for &d in snapshot_docs {
        if live.document(d).is_none() {
            updates.push(CollectionUpdate::DeleteDocument(d));
        }
    }
    // Deleted links whose endpoint documents both survive. (Links that
    // died *with* a document are covered by its DeleteDocument; without
    // these records a link deleted mid-rebuild would silently come back
    // from the snapshot-built index.)
    let mut dead_links: Vec<(ElemId, ElemId)> = snapshot_links
        .iter()
        .copied()
        .filter(|&(from, to)| {
            !live.has_link(from, to) && live.doc_of(from).is_some() && live.doc_of(to).is_some()
        })
        .collect();
    dead_links.sort_unstable(); // set iteration order → deterministic delta
    for (from, to) in dead_links {
        updates.push(CollectionUpdate::DeleteLink(from, to));
    }
    // Insertions: live docs beyond the snapshot (ids are never reused, so
    // any doc id not in the snapshot list is new).
    let snapshot_set: rustc_hash::FxHashSet<DocId> = snapshot_docs.iter().copied().collect();
    for d in live.doc_ids() {
        if !snapshot_set.contains(&d) {
            let doc = live.document(d).expect("live doc").clone();
            let base = live.global_id(d, 0);
            let len = doc.len() as u32;
            let mut links = DocumentLinks::default();
            for l in live.links() {
                if (base..base + len).contains(&l.from) {
                    links.outgoing.push((l.from - base, l.to));
                } else if (base..base + len).contains(&l.to) {
                    links.incoming.push((l.from, l.to - base));
                }
            }
            updates.push(CollectionUpdate::InsertDocument(doc, links));
        }
    }
    // New links between pre-existing documents.
    for l in live.links() {
        let fd = live.doc_of(l.from).expect("live");
        let td = live.doc_of(l.to).expect("live");
        if snapshot_set.contains(&fd)
            && snapshot_set.contains(&td)
            && !snapshot_links.contains(&(l.from, l.to))
        {
            updates.push(CollectionUpdate::InsertLink(l.from, l.to));
        }
    }
    updates
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the delta for a snapshot/live pair the way
    /// `OnlineHopi::rebuild_blocking` does.
    fn delta_of(snapshot: &Collection, live: &Collection) -> Vec<CollectionUpdate> {
        let docs: Vec<DocId> = snapshot.doc_ids().collect();
        let links: rustc_hash::FxHashSet<(ElemId, ElemId)> =
            snapshot.links().iter().map(|l| (l.from, l.to)).collect();
        collection_delta(&docs, &links, live)
    }

    fn two_doc_snapshot() -> Collection {
        let mut c = Collection::new();
        for name in ["a", "b"] {
            let mut d = XmlDocument::new(name, "r");
            d.add_element(0, "s");
            c.add_document(d);
        }
        c
    }

    #[test]
    fn plain_delta_replays_exactly() {
        let snapshot = two_doc_snapshot();
        let mut live = snapshot.clone();
        let mut doc = XmlDocument::new("new", "r");
        doc.add_element(0, "s");
        let d = live.add_document(doc);
        live.add_link(live.global_id(d, 1), live.global_id(0, 0));
        live.add_link(live.global_id(1, 0), live.global_id(0, 1));
        let delta = delta_of(&snapshot, &live);
        assert!(delta_replays_exactly(&snapshot, &live, &delta));
    }

    #[test]
    fn mid_window_link_deletion_appears_in_delta_and_replays() {
        // A link deleted between snapshot and live must be replayed as a
        // DeleteLink — without it the snapshot-built index would resurrect
        // the connection.
        let mut snapshot = two_doc_snapshot();
        snapshot.add_link(snapshot.global_id(0, 1), snapshot.global_id(1, 0));
        let mut live = snapshot.clone();
        live.remove_link(live.global_id(0, 1), live.global_id(1, 0));
        let delta = delta_of(&snapshot, &live);
        assert!(matches!(
            delta.as_slice(),
            [CollectionUpdate::DeleteLink(_, _)]
        ));
        assert!(delta_replays_exactly(&snapshot, &live, &delta));
    }

    #[test]
    fn link_dying_with_its_document_is_not_replayed_twice() {
        let mut snapshot = two_doc_snapshot();
        snapshot.add_link(snapshot.global_id(0, 1), snapshot.global_id(1, 0));
        let mut live = snapshot.clone();
        live.remove_document(1); // takes the link down with it
        let delta = delta_of(&snapshot, &live);
        assert!(matches!(
            delta.as_slice(),
            [CollectionUpdate::DeleteDocument(1)]
        ));
        assert!(delta_replays_exactly(&snapshot, &live, &delta));
    }

    #[test]
    fn modify_document_accounts_like_drop_plus_reinsert() {
        let snapshot = two_doc_snapshot();
        // Live state after modify_document(0, new_doc): doc 0 tombstoned,
        // replacement appended as doc 2.
        let mut live = snapshot.clone();
        live.remove_document(0);
        let mut new_doc = XmlDocument::new("a2", "r");
        new_doc.add_element(0, "s");
        live.add_document(new_doc.clone());
        let delta = vec![CollectionUpdate::ModifyDocument(
            0,
            new_doc.clone(),
            DocumentLinks::default(),
        )];
        assert!(delta_replays_exactly(&snapshot, &live, &delta));
        // Modifying a document that is not available cannot replay.
        let bad = vec![CollectionUpdate::ModifyDocument(
            7,
            new_doc,
            DocumentLinks::default(),
        )];
        assert!(!delta_replays_exactly(&snapshot, &live, &bad));
    }

    #[test]
    fn hole_from_mid_window_delete_is_detected() {
        // A document created *and* deleted during the window leaves a doc
        // id (and element id) hole replay cannot reproduce.
        let snapshot = two_doc_snapshot();
        let mut live = snapshot.clone();
        let ghost = live.add_document(XmlDocument::new("ghost", "r"));
        let keeper = live.add_document(XmlDocument::new("keeper", "r"));
        live.remove_document(ghost);
        let delta = delta_of(&snapshot, &live);
        assert!(!delta_replays_exactly(&snapshot, &live, &delta));
        let _ = keeper;
    }

    #[test]
    fn forward_link_between_new_documents_is_detected() {
        // A link from one mid-window document to a later one cannot be
        // applied while replaying the first insertion.
        let snapshot = two_doc_snapshot();
        let mut live = snapshot.clone();
        let x = live.add_document(XmlDocument::new("x", "r"));
        let y = live.add_document(XmlDocument::new("y", "r"));
        live.add_link(live.global_id(x, 0), live.global_id(y, 0));
        let delta = delta_of(&snapshot, &live);
        assert!(!delta_replays_exactly(&snapshot, &live, &delta));
    }
}
