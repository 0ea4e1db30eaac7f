//! Directed-graph substrate for the `evematch` workspace.
//!
//! The matching framework of *Matching Heterogeneous Events with Patterns*
//! manipulates three kinds of directed graphs:
//!
//! * **event dependency graphs** (Definition 1 of the paper) — built in
//!   `evematch-eventlog` on top of [`DiGraph`];
//! * **pattern graphs** — the graph form of SEQ/AND event patterns, built in
//!   `evematch-pattern` on top of [`DiGraph`];
//! * **reduction graphs** — arbitrary graphs used by the executable
//!   NP-hardness reduction (Theorem 1), in `evematch-core`.
//!
//! This crate provides the shared structure: a compact adjacency-list
//! [`DiGraph`] and a backtracking subgraph-monomorphism search
//! ([`MonoSearch`], [`find_monomorphism`], [`is_subgraph_monomorphic`])
//! used by the evaluator's structural probe, pattern discovery's twin
//! filter and the hardness reduction. Proposition 3's existence pruning
//! does not search embeddings: it is the edge-group caps inside the bound
//! `h` and `pattern::is_realizable_with_fuel` in `evematch-core`.
//!
//! Vertices are dense `u32` indices (see [`NodeId`]); callers keep their own
//! mapping from domain objects (events) to indices. All iteration orders are
//! deterministic so that search results are reproducible run to run.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod digraph;
mod iso;

pub use digraph::{DiGraph, DiGraphBuilder, EdgeIter, NodeId};
pub use iso::{
    enumerate_monomorphisms, find_monomorphism, is_subgraph_monomorphic, Interrupted, IsoStats,
    MonoSearch,
};
