//! Pattern-based heterogeneous event matching — the core contribution of
//! *Matching Heterogeneous Events with Patterns* (ICDE 2014 / TKDE 2017).
//!
//! Given two event logs with opaque (uninterpreted) event names, the task is
//! to recover the injective mapping `M : V1 → V2` between their event
//! vocabularies that maximizes the **pattern normal distance** (Definition
//! 5): the summed frequency similarity of a set of event patterns and their
//! mapped counterparts. Vertices and edges of the dependency graph are
//! special patterns, so this strictly generalizes the structural matching of
//! Kang & Naughton; user-declared SEQ/AND composites supply the extra
//! discriminative power that plain vertex/edge frequencies lack.
//!
//! The crate provides:
//!
//! * problem setup — [`MatchContext`], [`PatternSetBuilder`], [`Mapping`];
//! * scores — normal distance in vertex / vertex+edge form (Definition 2)
//!   and pattern normal distance (Definition 5) in [`score`];
//! * the **exact A\*** search of Algorithm 1 ([`ExactMatcher`]) with the
//!   simple bound of Section 3.3 or the tight Table-2 bound of Section 4
//!   ([`BoundKind`]), incremental `g` via the inverted pattern index, and
//!   Proposition-3 pattern-existence pruning;
//! * the **heuristics** of Section 5 — greedy single-expansion
//!   ([`SimpleHeuristic`]) and the Kuhn–Munkres-style
//!   [`AdvancedHeuristic`] (Algorithms 3 and 4) with estimated scores
//!   (Equation 2), feasible labelings and maximal alternating trees;
//! * **baselines** the paper compares against — Vertex and Vertex+Edge
//!   matching \[7\], iterative similarity propagation \[16\]
//!   ([`IterativeMatcher`]) and the entropy-only matcher \[7\]
//!   ([`EntropyMatcher`]);
//! * a maximum-weight [`assignment`] (Kuhn–Munkres) substrate;
//! * the executable **NP-hardness reduction** of Theorem 1 in [`hardness`].

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod assignment;
mod baseline;
mod bounds;
pub mod budget;
pub mod claim;
mod context;
mod evaluator;
mod exact;
pub mod fault;
pub mod hardness;
mod heuristic;
mod mapping;
pub mod persist;
pub mod retry;
pub mod score;
pub mod telemetry;

pub use baseline::{EntropyMatcher, IterativeConfig, IterativeMatcher};
pub use bounds::{upper_bound_partial, BoundKind, BoundPrecomp, BoundTables, PruneReason};
pub use budget::{Budget, BudgetMeter, Exhaustion};
pub use context::{MatchContext, PatternSetBuilder};
pub use evaluator::{EvalConfig, Evaluator, SupportMemo};
pub use exact::{Completion, ExactMatcher, MatchOutcome};
pub use heuristic::{AdvancedHeuristic, SimpleHeuristic};
pub use mapping::Mapping;
pub use telemetry::{
    MetricsSnapshot, PhaseProfiler, ProfileNode, ProfileSnapshot, ProgressBeacon, Telemetry,
    TraceBuffer, TraceEvent, WorkCol,
};
