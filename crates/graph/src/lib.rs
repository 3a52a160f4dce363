//! Graph substrate for the `prox` workspace.
//!
//! The paper abstracts the evolving knowledge of a proximity algorithm as a
//! *partial weighted graph*: nodes are the objects, and an edge exists for
//! every pair whose distance has already been resolved by the oracle
//! (§3.1 of the paper, "Data Model"). This crate provides:
//!
//! * [`PartialGraph`] — the known-edge graph, with sorted adjacency lists so
//!   Tri Scheme's triangle search is a linear merge (§4.2.1).
//! * [`Dijkstra`] — single-source shortest paths over any [`Adjacency`],
//!   with epoch-stamped reusable scratch ([`SpLabels`] per tree, one shared
//!   [`Frontier`] heap), incremental decrease-only repair, and a
//!   threshold-aware bounded bidirectional variant, for SPLUB (§4.1).
//! * [`Ado`] — a deterministic landmark sketch (Thorup–Zwick style) whose
//!   `O(√n)` estimates prescreen SPLUB queries.
//! * [`UnionFind`] — disjoint sets for Kruskal's algorithm.

pub mod ado;
pub mod dijkstra;
pub mod partial;
pub mod unionfind;

pub use ado::Ado;
pub use dijkstra::{Adjacency, Dijkstra, DistMap, Frontier, SpLabels};
pub use partial::PartialGraph;
pub use unionfind::UnionFind;
