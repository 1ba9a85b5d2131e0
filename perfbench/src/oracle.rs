//! The correctness oracle: plain breadth-first search over the collection's
//! element graph (tree edges, intra-document links and inter-document
//! links), independent of every index structure the engine maintains.

use crate::inputs::{ContentOp, PathExpr};
use hopi_xml::{Collection, ElemId};
use std::collections::HashMap;

/// A BFS-based answer model of one collection state.
pub struct Oracle {
    succ: Vec<Vec<ElemId>>,
    by_tag: HashMap<String, Vec<ElemId>>,
    tokens: Vec<Vec<String>>,
    stamp: Vec<u32>,
    generation: u32,
}

/// Lowercase alphanumeric tokens of a text.
pub fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect()
}

impl Oracle {
    /// Captures the graph, tags and element texts of a collection.
    pub fn new(collection: &Collection) -> Self {
        let n = collection.elem_id_bound();
        let mut succ = vec![Vec::new(); n];
        let mut by_tag: HashMap<String, Vec<ElemId>> = HashMap::new();
        let mut toks = vec![Vec::new(); n];
        for d in collection.doc_ids() {
            let Some(doc) = collection.document(d) else {
                continue;
            };
            let base = collection.global_id(d, 0);
            for (local, el) in doc.elements() {
                let g = base + local;
                by_tag.entry(el.tag.clone()).or_default().push(g);
                toks[g as usize] = tokens(doc.text(local));
            }
            for (p, c) in doc.tree_edges() {
                succ[(base + p) as usize].push(base + c);
            }
            for &(f, t) in doc.intra_links() {
                succ[(base + f) as usize].push(base + t);
            }
        }
        for l in collection.links() {
            succ[l.from as usize].push(l.to);
        }
        Oracle {
            succ,
            by_tag,
            tokens: toks,
            stamp: vec![0; n],
            generation: 0,
        }
    }

    /// Marks everything reachable from `seeds` (seeds included) with a
    /// fresh generation and returns the marked nodes.
    fn bfs(&mut self, seeds: &[ElemId]) -> Vec<ElemId> {
        self.generation += 1;
        let g = self.generation;
        let mut queue: Vec<ElemId> = Vec::with_capacity(seeds.len());
        for &s in seeds {
            if self.stamp[s as usize] != g {
                self.stamp[s as usize] = g;
                queue.push(s);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &self.succ[u as usize] {
                if self.stamp[v as usize] != g {
                    self.stamp[v as usize] = g;
                    queue.push(v);
                }
            }
        }
        queue
    }

    /// Everything `u` reaches, `u` included, sorted.
    pub fn descendants(&mut self, u: ElemId) -> Vec<ElemId> {
        let mut out = self.bfs(&[u]);
        out.sort_unstable();
        out
    }

    /// Reachability rows for several sources: `rows[i][v]` answers
    /// `sources[i] →* v`.
    pub fn reach_rows(&mut self, sources: &[ElemId]) -> Vec<Vec<bool>> {
        let n = self.succ.len();
        sources
            .iter()
            .map(|&u| {
                let mut row = vec![false; n];
                for v in self.bfs(&[u]) {
                    row[v as usize] = true;
                }
                row
            })
            .collect()
    }

    /// Number of results of a descendant-axis path expression: each step
    /// keeps the elements with the step's tag that some element of the
    /// previous step's result reaches (the element itself excluded), and a
    /// content predicate on the last step filters on the element's own
    /// text.
    pub fn count(&mut self, expr: &PathExpr) -> usize {
        let mut current: Vec<ElemId> = self.by_tag.get(expr.tags[0]).cloned().unwrap_or_default();
        for pair in expr.tags.windows(2) {
            debug_assert_ne!(pair[0], pair[1], "consecutive steps share a tag");
            self.bfs(&current);
            let g = self.generation;
            let stamp = &self.stamp;
            current = self
                .by_tag
                .get(pair[1])
                .map(|cands| {
                    cands
                        .iter()
                        .copied()
                        .filter(|&v| stamp[v as usize] == g)
                        .collect()
                })
                .unwrap_or_default();
        }
        match &expr.predicate {
            None => current.len(),
            Some((op, terms)) => current
                .iter()
                .filter(|&&v| {
                    let own = &self.tokens[v as usize];
                    let has = |t: &String| own.contains(t);
                    match op {
                        ContentOp::Contains => terms.iter().all(has),
                        ContentOp::About => terms.iter().any(has),
                    }
                })
                .count(),
        }
    }
}
