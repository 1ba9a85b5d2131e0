//! BFS/DFS reachability and single-source shortest distances.
//!
//! These primitives back (a) naive reference oracles in tests, (b) the
//! partial closure recomputation of the general deletion algorithm
//! (paper §6.2, Theorem 3), and (c) the skeleton-graph annotation traversals
//! of the new edge-weight heuristics (paper §4.3).

use crate::bitset::FixedBitSet;
use crate::digraph::{DiGraph, NodeId};
use std::collections::VecDeque;

/// Set of nodes reachable from `start` by directed paths, **including**
/// `start` itself (the paper's closures are reflexive).
pub fn reachable_from(g: &DiGraph, start: NodeId) -> FixedBitSet {
    reachable_from_many(g, std::iter::once(start))
}

/// Nodes reachable from any seed (seeds included).
pub fn reachable_from_many(g: &DiGraph, seeds: impl IntoIterator<Item = NodeId>) -> FixedBitSet {
    let mut seen = FixedBitSet::new(g.id_bound());
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for s in seeds {
        if g.is_alive(s) && seen.insert(s) {
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in g.successors(u) {
            if seen.insert(v) {
                queue.push_back(v);
            }
        }
    }
    seen
}

/// Nodes that can reach `target` (target included): reachability in the
/// reversed graph, without materializing it.
pub fn reaching_to(g: &DiGraph, target: NodeId) -> FixedBitSet {
    let mut seen = FixedBitSet::new(g.id_bound());
    if !g.is_alive(target) {
        return seen;
    }
    let mut queue = VecDeque::from([target]);
    seen.insert(target);
    while let Some(u) = queue.pop_front() {
        for &p in g.predecessors(u) {
            if seen.insert(p) {
                queue.push_back(p);
            }
        }
    }
    seen
}

/// Tests whether a directed path `u →* v` exists (true when `u == v`).
/// Early-exits as soon as `v` is found.
pub fn is_reachable(g: &DiGraph, u: NodeId, v: NodeId) -> bool {
    if !g.is_alive(u) || !g.is_alive(v) {
        return false;
    }
    if u == v {
        return true;
    }
    let mut seen = FixedBitSet::new(g.id_bound());
    let mut queue = VecDeque::from([u]);
    seen.insert(u);
    while let Some(x) = queue.pop_front() {
        for &y in g.successors(x) {
            if y == v {
                return true;
            }
            if seen.insert(y) {
                queue.push_back(y);
            }
        }
    }
    false
}

/// Single-source unweighted shortest distances. `dist[u] == u32::MAX` marks
/// unreachable nodes; `dist[start] == 0`.
pub fn bfs_distances(g: &DiGraph, start: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.id_bound()];
    if !g.is_alive(start) {
        return dist;
    }
    dist[start as usize] = 0;
    let mut queue = VecDeque::from([start]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.successors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS limited to paths of at most `max_depth` edges, invoking `visit(node,
/// depth)` on each first discovery (including the start at depth 0).
///
/// The skeleton-graph ancestor/descendant approximation (paper §4.3) limits
/// its traversal "to paths of a certain length, hence the resulting numbers
/// are only approximates".
pub fn bounded_bfs(g: &DiGraph, start: NodeId, max_depth: u32, mut visit: impl FnMut(NodeId, u32)) {
    if !g.is_alive(start) {
        return;
    }
    let mut seen = FixedBitSet::new(g.id_bound());
    let mut queue = VecDeque::from([(start, 0u32)]);
    seen.insert(start);
    while let Some((u, d)) = queue.pop_front() {
        visit(u, d);
        if d == max_depth {
            continue;
        }
        for &v in g.successors(u) {
            if seen.insert(v) {
                queue.push_back((v, d + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_branch() -> DiGraph {
        // 0 -> 1 -> 2 -> 3, 1 -> 4, 5 isolated
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(1, 4);
        g.ensure_node(5);
        g
    }

    #[test]
    fn reachable_includes_start() {
        let g = chain_with_branch();
        let r = reachable_from(&g, 1);
        assert_eq!(r.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(reachable_from(&g, 5).to_vec(), vec![5]);
    }

    #[test]
    fn reaching_to_is_reverse_reachability() {
        let g = chain_with_branch();
        assert_eq!(reaching_to(&g, 3).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(reaching_to(&g, 4).to_vec(), vec![0, 1, 4]);
    }

    #[test]
    fn is_reachable_matches_sets() {
        let g = chain_with_branch();
        assert!(is_reachable(&g, 0, 3));
        assert!(is_reachable(&g, 2, 2));
        assert!(!is_reachable(&g, 3, 0));
        assert!(!is_reachable(&g, 0, 5));
    }

    #[test]
    fn bfs_distances_unweighted() {
        let g = chain_with_branch();
        let d = bfs_distances(&g, 0);
        assert_eq!(&d[..5], &[0, 1, 2, 3, 2]);
        assert_eq!(d[5], u32::MAX);
    }

    #[test]
    fn bfs_distance_shortest_over_diamond() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2); // shortcut
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], 1);
    }

    #[test]
    fn bounded_bfs_respects_depth() {
        let g = chain_with_branch();
        let mut visited = Vec::new();
        bounded_bfs(&g, 0, 2, |n, d| visited.push((n, d)));
        visited.sort_unstable();
        assert_eq!(visited, vec![(0, 0), (1, 1), (2, 2), (4, 2)]);
    }

    #[test]
    fn reachable_from_many_unions() {
        let g = chain_with_branch();
        let r = reachable_from_many(&g, [4u32, 5]);
        assert_eq!(r.to_vec(), vec![4, 5]);
    }

    #[test]
    fn cycle_terminates() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert_eq!(reachable_from(&g, 0).count(), 3);
        assert!(is_reachable(&g, 2, 1));
        let d = bfs_distances(&g, 1);
        assert_eq!(d[0], 2);
    }
}
