//! Event-log substrate for the `evematch` workspace.
//!
//! This crate implements the data model of Section 2.1 of *Matching
//! Heterogeneous Events with Patterns*:
//!
//! * an **event** is an interned, opaque name ([`EventId`], [`EventSet`]);
//! * a **trace** is a finite sequence of events ordered by occurrence, a
//!   slice `&[EventId]`;
//! * an **event log** is a collection of traces ([`EventLog`]), stored as
//!   one compressed-sparse-row arena ([`ColumnarLog`]) from ingest to
//!   scan;
//! * the **event dependency graph** (Definition 1) captures normalized
//!   frequencies of events and of consecutive event pairs ([`DepGraph`]);
//! * the **inverted trace index** `I_t` (Section 3.2.3) maps each event to
//!   the traces containing it ([`TraceIndex`]), so pattern frequencies are
//!   counted over `⋂ I_t(v)` instead of the whole log.
//!
//! Plus the supporting pieces the experiments need: projection onto event
//! subsets and trace prefixes (how Figures 7–10 vary the event-set size and
//! trace count), log statistics for Table 3, and a line-oriented text format
//! for persisting logs. Both the text and CSV readers support hardened
//! ingestion: a lenient mode that skips malformed lines into a
//! [`Quarantine`] report, and [`IngestLimits`] resource guards that turn
//! exhaustion attacks into typed [`LimitExceeded`] errors.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod columnar;
mod csv;
mod depgraph;
mod event;
mod index;
mod ingest;
mod io;
mod log;
mod stats;

pub use columnar::ColumnarLog;
pub use csv::{read_csv_log, read_csv_log_with, write_csv_log, CsvLogError};
pub use depgraph::DepGraph;
pub use event::{EventId, EventSet};
pub use index::TraceIndex;
pub use ingest::{
    Ingest, IngestLimits, IngestMode, IngestOptions, LimitExceeded, LimitKind, Quarantine,
    QuarantineCause, QuarantineEntry, MAX_EXCERPT_BYTES, MAX_QUARANTINE_ENTRIES,
};
pub use io::{read_log, read_log_with, write_log, LogParseError};
pub use log::{EventLog, LogBuilder};
pub use stats::LogStats;
