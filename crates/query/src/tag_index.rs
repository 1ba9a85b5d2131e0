//! Inverted element-by-tag index.
//!
//! Path evaluation needs "all elements with tag `t`" to seed `//t` steps
//! and to filter step results — the element-name index every XML engine
//! pairs with a connection index.

use hopi_xml::{Collection, ElemId};
use rustc_hash::FxHashMap;

/// Maps tag names to sorted lists of global element ids.
#[derive(Clone, Debug, Default)]
pub struct TagIndex {
    by_tag: FxHashMap<String, Vec<ElemId>>,
    total: usize,
}

impl TagIndex {
    /// Builds the index over all live documents of a collection.
    pub fn build(collection: &Collection) -> Self {
        let mut by_tag: FxHashMap<String, Vec<ElemId>> = FxHashMap::default();
        let mut total = 0usize;
        for d in collection.doc_ids() {
            let Some(doc) = collection.document(d) else {
                continue;
            };
            let base = collection.global_id(d, 0);
            for (local, e) in doc.elements() {
                by_tag.entry(e.tag.clone()).or_default().push(base + local);
                total += 1;
            }
        }
        for v in by_tag.values_mut() {
            v.sort_unstable();
        }
        TagIndex { by_tag, total }
    }

    /// Elements with the given tag (sorted; empty for unknown tags).
    pub fn elements(&self, tag: &str) -> &[ElemId] {
        self.by_tag.get(tag).map_or(&[], Vec::as_slice)
    }

    /// Total number of indexed elements.
    pub fn element_count(&self) -> usize {
        self.total
    }

    /// Membership test: does element `e` carry tag `tag`?
    pub fn has_tag(&self, e: ElemId, tag: &str) -> bool {
        self.elements(tag).binary_search(&e).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_xml::XmlDocument;

    fn collection() -> Collection {
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "book");
        d.add_element(0, "title");
        d.add_element(0, "author");
        c.add_document(d);
        let mut d = XmlDocument::new("b", "book");
        d.add_element(0, "author");
        c.add_document(d);
        c
    }

    #[test]
    fn indexes_all_tags() {
        let idx = TagIndex::build(&collection());
        assert_eq!(idx.elements("book"), &[0, 3]);
        assert_eq!(idx.elements("author"), &[2, 4]);
        assert_eq!(idx.elements("title"), &[1]);
        assert!(idx.elements("nothing").is_empty());
        assert_eq!(idx.element_count(), 5);
    }

    #[test]
    fn membership_test() {
        let idx = TagIndex::build(&collection());
        assert!(idx.has_tag(0, "book"));
        assert!(!idx.has_tag(0, "author"));
        assert!(idx.has_tag(1, "title"));
    }

    #[test]
    fn skips_removed_documents() {
        let mut c = collection();
        c.remove_document(0);
        let idx = TagIndex::build(&c);
        assert_eq!(idx.elements("book"), &[3]);
        assert_eq!(idx.element_count(), 2);
    }
}
