//! Evaluation harness for the `evematch` experiments (Section 6 of the
//! paper).
//!
//! Provides the accuracy criteria (precision / recall / F-measure over
//! event correspondences), a uniform [`Method`] registry covering every
//! approach the paper compares (the pattern-based exact matchers with
//! simple/tight bounds, both heuristics, and the Vertex, Vertex+Edge,
//! Iterative and Entropy baselines), dataset projection utilities for the
//! event-count and trace-count sweeps, plain-text/CSV tables, and the
//! experiment drivers that regenerate each figure and table.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod checkpoint;
pub mod experiments;
mod method;
mod metrics;
mod project;
mod report;

pub use method::{Method, RunOutcome, SupportCachePool, ALL_METHODS};
pub use metrics::MatchQuality;
pub use project::{project_dataset, truncate_traces};
pub use report::Table;
