//! Event patterns (Section 2.2 of *Matching Heterogeneous Events with
//! Patterns*).
//!
//! An event pattern declares particular orders of event occurrence
//! (Definition 3):
//!
//! * a single event `e` is a pattern;
//! * `SEQ(p1, …, pk)` requires the sub-patterns to occur sequentially;
//! * `AND(p1, …, pk)` allows the sub-patterns in any block order.
//!
//! A trace *matches* a pattern `p` (Definition 4) when some contiguous
//! substring of the trace is one of the allowed orders `I(p)`. Crucially, no
//! foreign events may appear inside the matched substring, and `AND`
//! permutes whole sub-pattern *blocks* — `AND(SEQ(a,b), SEQ(c,d))` allows
//! `abcd` and `cdab` but not the interleaving `acbd`.
//!
//! The crate provides:
//!
//! * the validated AST ([`Pattern`], [`PatternError`]) — all events within a
//!   pattern must be distinct, as the paper requires;
//! * a text parser ([`parse_pattern`]) for the `SEQ(A, AND(B, C), D)`
//!   syntax;
//! * the graph form ([`PatternGraph`]) used by pattern-existence pruning
//!   (Proposition 3) and by the Table-2 bounds;
//! * window and trace matching ([`matches_window`], [`trace_matches`]) —
//!   the AST interpreter;
//! * a bit-parallel compiled automaton ([`CompiledPattern`]) with a typed
//!   [`CompileError`] when a pattern must stay with the interpreter;
//! * support counting through one scan over the inverted trace index
//!   `I_t` ([`EvaluatedPattern::scan`]), which the compiled automaton
//!   decides and the interpreter backs per pattern, with the interpreter's
//!   own [`pattern_support`] / [`pattern_freq`] as its test oracle;
//! * canonical memo keys ([`CanonPlan`]): one key for every binding that
//!   differs only by swapping the images of same-shaped `AND` children;
//! * the inverted pattern index `I_p` ([`PatternIndex`], Section 3.2.1);
//! * a frequent-episode-style pattern discovery pass
//!   ([`discover_patterns`]) implementing the paper's Section-2.2
//!   guidelines for picking discriminative patterns.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod ast;
mod canon;
mod compiled;
mod discovery;
mod frequency;
mod graph_form;
mod index;
mod matcher;
mod parser;

pub use ast::{Pattern, PatternError, MAX_AND_ARITY, MAX_DEPTH};
pub use canon::CanonPlan;
pub use compiled::{CompileError, CompiledPattern, STATE_BUDGET};
pub use discovery::{discover_patterns, DiscoveryConfig};
pub use frequency::{pattern_freq, pattern_support, EvaluatedPattern, PatternShape, SupportStats};
pub use graph_form::{edge_groups, PatternGraph};
pub use index::PatternIndex;
pub use matcher::{
    is_realizable, is_realizable_with_fuel, linearizations, matches_window, trace_matches,
    Interrupted, MAX_ENUMERABLE_EVENTS,
};
pub use parser::{parse_pattern, ParsePatternError, MAX_PARSE_DEPTH};
