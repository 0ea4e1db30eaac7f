//! Observability: deterministic work counters, the phase profile, and
//! search traces for every solver.
//!
//! The paper's whole evaluation (§6, Figs. 7–12) is phrased in units of
//! *work* — processed mappings, pattern evaluations, pruned branches — so
//! the solvers meter themselves with a [`MetricsRegistry`] of named
//! counters, gauges and fixed-bucket histograms, and optionally record a
//! bounded stream of [`TraceEvent`]s for offline inspection.
//!
//! # The deterministic / non-deterministic split
//!
//! Everything in this crate that *decides* anything is bit-deterministic
//! under pure caps (see `DESIGN.md` §7), and the telemetry layer must not
//! break that. The registry therefore keeps two strictly separated halves:
//!
//! * **counters, gauges, histograms** — pure functions of the work
//!   performed. Two runs under identical processed-mapping caps produce
//!   byte-identical [`MetricsSnapshot::deterministic_json`] output (this is
//!   enforced by `tests/determinism.rs`);
//! * **info** — execution-shape facts (which decider a scan used), in a
//!   section that is *excluded* from `deterministic_json` and marked
//!   `non_deterministic` in the full JSON output.
//!
//! The registry holds no wall time. The [`profile`] phase profiler is the
//! one record of a run's wall clock and, next to `core::budget`, the only
//! place in the solver crates that reads it — and unlike the budget meter
//! it only ever *records* time, it never branches on it, so determinism
//! of the search itself is unaffected. Clippy's `disallowed_methods`
//! (rule T6) flags every other clock read.
//!
//! # Phase profile
//!
//! The [`profile`] module layers a hierarchical phase tree on top of the
//! flat registry: phases opened via the [`crate::phase!`] macro carry a
//! deterministic call count next to quarantined wall-clock nanos. The
//! registry is the one count of every unit of work; the profile adds only
//! phase calls, and its `search` root's `pops` is the solver's step
//! counter, copied from the registry when the run finishes. See the module
//! docs and `DESIGN.md` §13.
//!
//! # Trace stream
//!
//! [`TraceBuffer`] collects at most a fixed number of events in memory
//! (dropping — and counting — the excess deterministically) and serializes
//! them as JSON Lines: one self-contained JSON object per line, parseable
//! with the zero-dependency reader in [`json`]. The schema is documented
//! on [`TraceEvent`].

pub mod json;
pub mod profile;

mod hist;
mod registry;
mod trace;

pub use hist::HistogramSnapshot;
pub use profile::{PhaseProfiler, ProfileNode, ProfileSnapshot, ProgressBeacon};
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
pub use trace::{TraceBuffer, TraceEvent, DEFAULT_TRACE_CAP};

/// One solver run's telemetry: the metrics registry, the bounded
/// trace-event buffer, and the hierarchical phase profiler. Owned by the
/// `Evaluator`, surfaced through `MatchOutcome::metrics` /
/// `MatchOutcome::profile` and the `evematch
/// --metrics-out/--trace-out/--profile-out` flags.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Named counters / gauges / histograms.
    pub registry: MetricsRegistry,
    /// Bounded in-memory search trace (JSONL on request).
    pub trace: TraceBuffer,
    /// Hierarchical phase tree: calls and wall time per phase.
    pub profile: PhaseProfiler,
}

impl Telemetry {
    /// Fresh, empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }
}
