//! Synthetic workload generators for the `evematch` experiments.
//!
//! The paper evaluates on three datasets (Table 3): a proprietary ERP log
//! pair from two departments of a bus manufacturer (3,000 traces, 11
//! events), a larger synthetic log built by repeating the Figure-1
//! structure (10,000 traces, up to 100 events, 16 patterns), and random
//! 4-event logs (1,000 traces). The real logs are not available, so this
//! crate builds the closest synthetic equivalents (see DESIGN.md §2 for the
//! substitution argument):
//!
//! * [`ProcessModel`] — block-structured process models (SEQ / parallel /
//!   exclusive-choice / optional blocks) simulated into event logs;
//! * [`heterogenize`] — turns one model into a *pair* of logs the way two
//!   departments would log the same process: opaque renamed events,
//!   jittered branch probabilities, optional extra events, with the
//!   ground-truth mapping retained;
//! * [`datasets`] — the concrete experiment datasets: [`datasets::fig1_like`]
//!   (a handcrafted instance reproducing the paper's running example
//!   phenomena), [`datasets::real_like`] (the ERP substitute),
//!   [`datasets::larger_synthetic`] (Figure 11) and
//!   [`datasets::random_pair`] (Table 4).

#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod datasets;
mod heterogenize;
mod process;

pub use heterogenize::{heterogenize, HeterogenizeConfig, LogPair};
pub use process::{Block, ProcessModel};

/// A dataset ready for the matching experiments: the heterogeneous log
/// pair with ground truth, plus the declared complex patterns over `L1`.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The log pair and ground-truth mapping.
    pub pair: LogPair,
    /// Declared complex patterns (over `L1`'s vocabulary). Vertex and edge
    /// special patterns are added by the matcher configuration, not here.
    pub patterns: Vec<evematch_pattern::Pattern>,
    /// Short dataset name for reports.
    pub name: &'static str,
}
