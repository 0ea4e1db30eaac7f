//! The trace storage of an [`crate::EventLog`]: compressed sparse rows.
//!
//! Every trace of a log lives in one interned event-id arena with an
//! offsets column (classic CSR layout), so a support scan that touches
//! hundreds of thousands of candidate traces streams contiguous memory
//! instead of chasing one heap pointer per trace. The layout is the only
//! one: [`crate::LogBuilder`] appends to it from ingest and datagen, and
//! the dependency graph, the trace index, both support scans and the
//! writers read it.

use crate::event::EventId;
use crate::log::EventLog;

/// One flat event-id arena plus an offsets column
/// (`offsets.len() == trace_count + 1`).
///
/// `trace(t)` is the slice `arena[offsets[t]..offsets[t+1]]`: the events
/// of trace `t`, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnarLog {
    /// Every trace's events, concatenated in trace order.
    arena: Vec<EventId>,
    /// `offsets[t]` = start of trace `t` in `arena`; the final entry is
    /// `arena.len()`.
    offsets: Vec<usize>,
}

impl Default for ColumnarLog {
    fn default() -> Self {
        ColumnarLog {
            arena: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl ColumnarLog {
    /// A copy of `log`'s trace storage.
    pub fn from_log(log: &EventLog) -> Self {
        log.columns().clone()
    }

    /// The events of trace `t`, as a contiguous slice of the arena.
    /// Panics if `t` is out of range.
    #[inline]
    pub fn trace(&self, t: usize) -> &[EventId] {
        &self.arena[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Every trace, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[EventId]> + '_ {
        self.offsets.windows(2).map(|w| &self.arena[w[0]..w[1]])
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the log holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of event occurrences across all traces (arena length).
    pub fn total_events(&self) -> usize {
        self.arena.len()
    }

    /// Appends one trace.
    pub(crate) fn push(&mut self, trace: impl IntoIterator<Item = EventId>) {
        self.arena.extend(trace);
        self.offsets.push(self.arena.len());
    }

    /// The first `n` traces (all of them when `n ≥ len`), sliced off the
    /// arena.
    pub(crate) fn prefix(&self, n: usize) -> Self {
        let n = n.min(self.len());
        ColumnarLog {
            arena: self.arena[..self.offsets[n]].to_vec(),
            offsets: self.offsets[..=n].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogBuilder;

    #[test]
    fn columnar_view_mirrors_the_log() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C"]);
        b.push_named_trace(["B"]);
        b.push_named_trace(["C", "A"]);
        let log = b.build();
        let col = ColumnarLog::from_log(&log);
        assert_eq!(col.len(), 3);
        assert_eq!(col.total_events(), 6);
        assert_eq!(col.trace(2), &[EventId(2), EventId(0)]);
        for (t, trace) in log.traces().enumerate() {
            assert_eq!(col.trace(t), trace);
        }
    }

    #[test]
    fn empty_log_and_empty_traces_are_representable() {
        let empty = ColumnarLog::default();
        assert!(empty.is_empty());
        assert_eq!(empty.total_events(), 0);

        let mut b = LogBuilder::new();
        b.push_named_trace(["A"]);
        b.push_trace(Vec::<u32>::new());
        b.push_named_trace(["A", "A"]);
        let log = b.build();
        let col = log.columns();
        assert_eq!(col.len(), 3);
        assert_eq!(col.trace(0), &[EventId(0)]);
        assert!(col.trace(1).is_empty());
        assert_eq!(col.trace(2).len(), 2);
    }
}
