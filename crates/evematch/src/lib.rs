//! # evematch — matching heterogeneous events with patterns
//!
//! A Rust implementation of the event-matching framework of *Matching
//! Heterogeneous Events with Patterns* (ICDE 2014 / TKDE 2017): recovering
//! the correspondence between the event vocabularies of two heterogeneous
//! event logs whose event names are opaque, using the frequencies of
//! **composite event patterns** (`SEQ`/`AND`) as discriminative features on
//! top of classic vertex/edge dependency statistics.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`eventlog`] — events, traces, logs, dependency graphs, trace indices;
//! * [`graph`] — directed-graph substrate and subgraph monomorphism;
//! * [`pattern`] — the SEQ/AND pattern language: parser, semantics,
//!   frequencies, graph form, discovery;
//! * [`core`] (re-exported at the top level) — the matchers: exact A\*
//!   with simple/tight bounds, the two heuristics, baselines, the
//!   assignment substrate and the executable hardness reduction;
//! * [`datagen`] — process-model simulation and the paper's datasets;
//! * [`eval`] — metrics, method registry and experiment drivers.
//!
//! ## Quickstart
//!
//! ```
//! use evematch::prelude::*;
//!
//! // Two tiny logs from "different departments": same process, opaque
//! // names in the second log.
//! let mut b1 = LogBuilder::new();
//! b1.push_named_trace(["receive", "pay", "check", "ship"]);
//! b1.push_named_trace(["receive", "check", "pay", "ship"]);
//! let log1 = b1.build();
//! let mut b2 = LogBuilder::new();
//! b2.push_named_trace(["X1", "X2", "X3", "X4"]);
//! b2.push_named_trace(["X1", "X3", "X2", "X4"]);
//! let log2 = b2.build();
//!
//! // Declare the concurrency composite over L1's vocabulary and match.
//! let p = parse_pattern("SEQ(receive, AND(pay, check), ship)", log1.events()).unwrap();
//! let ctx = MatchContext::new(
//!     log1,
//!     log2,
//!     PatternSetBuilder::new().vertices().edges().complex(p),
//! )
//! .unwrap();
//! let result = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
//! assert!(result.completion.is_finished());
//! assert!(result.mapping.is_complete());
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use evematch_core as core;
pub use evematch_datagen as datagen;
pub use evematch_eval as eval;
pub use evematch_eventlog as eventlog;
pub use evematch_graph as graph;
pub use evematch_pattern as pattern;

/// The most commonly used items in one import.
pub mod prelude {
    pub use evematch_core::{
        assignment, fault, hardness, persist, retry, score, telemetry, AdvancedHeuristic,
        BoundKind, Budget, Completion, EntropyMatcher, EvalConfig, ExactMatcher, Exhaustion,
        IterativeMatcher, Mapping, MatchContext, MatchOutcome, MetricsSnapshot, PatternSetBuilder,
        PhaseProfiler, ProfileSnapshot, ProgressBeacon, SimpleHeuristic, SupportMemo, Telemetry,
        TraceBuffer, TraceEvent,
    };
    pub use evematch_datagen::{
        datasets, heterogenize, Block, Dataset, HeterogenizeConfig, LogPair, ProcessModel,
    };
    pub use evematch_eval::{MatchQuality, Method, RunOutcome, Table, ALL_METHODS};
    pub use evematch_eventlog::{
        read_csv_log, read_csv_log_with, read_log, read_log_with, write_csv_log, write_log,
        ColumnarLog, DepGraph, EventId, EventLog, EventSet, Ingest, IngestLimits, IngestMode,
        IngestOptions, LogBuilder, LogStats, Quarantine, TraceIndex,
    };
    pub use evematch_pattern::{
        discover_patterns, parse_pattern, pattern_freq, pattern_support, CompileError,
        CompiledPattern, DiscoveryConfig, Pattern, PatternGraph, STATE_BUDGET,
    };
}
