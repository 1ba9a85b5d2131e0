//! # hopi-graph — graph substrate for the HOPI index
//!
//! This crate provides every graph primitive the HOPI index construction and
//! maintenance algorithms (Schenkel, Theobald, Weikum; ICDE 2005) rely on:
//!
//! * [`DiGraph`] — a mutable directed graph over dense `u32` node ids with
//!   predecessor and successor adjacency, supporting node/edge insertion and
//!   removal (needed for incremental index maintenance, paper §6).
//! * [`FixedBitSet`] — the bit-set used to materialize transitive-closure
//!   rows; the paper's new partitioner (§4.3) grows partitions while the
//!   in-memory closure still fits a budget, which we track via
//!   [`closure::TransitiveClosure::connection_count`].
//! * [`closure`] — reflexive/irreflexive transitive closures with incremental
//!   edge insertion, and a distance closure (all-pairs unweighted shortest
//!   paths) for the distance-aware cover of paper §5.
//! * [`traversal`] — BFS/DFS reachability and single-source shortest
//!   distances.
//! * [`scc`] — Tarjan strongly-connected components and condensation; link
//!   cycles between XML documents are legal, so the index machinery must not
//!   assume a DAG.
//!
//! All structures are deliberately index-based (`u32` node ids) rather than
//! pointer-based: the HOPI cover-construction inner loops iterate over
//! millions of closure entries and profit from dense arrays (see the Rust
//! perf-book guidance on data layout and `FxHashMap`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod closure;
pub mod digraph;
pub mod scc;
pub mod traversal;

pub use bitset::FixedBitSet;
pub use closure::{DistanceClosure, TransitiveClosure};
pub use digraph::{DiGraph, EdgeInsert, NodeId};
pub use scc::{condensation, tarjan_scc, Condensation};
