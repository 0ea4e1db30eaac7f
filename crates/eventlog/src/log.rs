//! Event logs: collections of traces over a shared vocabulary.

use crate::columnar::ColumnarLog;
use crate::depgraph::DepGraph;
use crate::event::{EventId, EventSet};
use crate::index::TraceIndex;
use crate::stats::LogStats;

/// An event log `L`: a collection of traces over an interned [`EventSet`].
///
/// A trace is a finite event sequence ordered by occurrence time — e.g.
/// the processing steps of one order in the paper's running ERP example.
/// Timestamps are abstracted away (Section 2.1 only consumes the order), so
/// trace `t` is the slice [`Self::trace`]`(t)` of one [`ColumnarLog`] arena.
///
/// All frequency queries follow Definition 1 of the paper: counts are
/// per-trace ("the number of traces in `L` that ...", not the number of
/// occurrences), normalized by `|L|`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventLog {
    events: EventSet,
    traces: ColumnarLog,
}

impl EventLog {
    /// The vocabulary of the log.
    pub fn events(&self) -> &EventSet {
        &self.events
    }

    /// The events of trace `t`. Panics if `t` is out of range.
    #[inline]
    pub fn trace(&self, t: usize) -> &[EventId] {
        self.traces.trace(t)
    }

    /// The traces of the log, in order.
    pub fn traces(&self) -> impl ExactSizeIterator<Item = &[EventId]> + '_ {
        self.traces.iter()
    }

    /// The trace storage itself: the layout every support scan reads.
    pub fn columns(&self) -> &ColumnarLog {
        &self.traces
    }

    /// Number of traces `|L|`.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the log has no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Number of distinct events in the vocabulary.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of traces containing event `v` (the unnormalized vertex
    /// frequency of Definition 1).
    pub fn vertex_support(&self, v: EventId) -> usize {
        self.traces().filter(|t| t.contains(&v)).count()
    }

    /// Number of traces where `a` is immediately followed by `b` at least
    /// once (the unnormalized edge frequency of Definition 1; `a == b`
    /// asks whether the event repeats back to back).
    pub fn edge_support(&self, a: EventId, b: EventId) -> usize {
        self.traces()
            .filter(|t| t.windows(2).any(|w| w == [a, b]))
            .count()
    }

    /// Normalized vertex frequency `f(v, v) = vertex_support / |L|`.
    pub fn vertex_freq(&self, v: EventId) -> f64 {
        ratio(self.vertex_support(v), self.len())
    }

    /// Normalized edge frequency `f(a, b) = edge_support / |L|`.
    pub fn edge_freq(&self, a: EventId, b: EventId) -> f64 {
        ratio(self.edge_support(a, b), self.len())
    }

    /// Builds the event dependency graph of Definition 1.
    pub fn dep_graph(&self) -> DepGraph {
        DepGraph::from_log(self)
    }

    /// Builds the inverted trace index `I_t` of Section 3.2.3.
    pub fn trace_index(&self) -> TraceIndex {
        TraceIndex::from_log(self)
    }

    /// Summary statistics (Table 3 of the paper).
    pub fn stats(&self) -> LogStats {
        LogStats::of(self)
    }

    /// Returns the log restricted to its first `n` traces, as the
    /// trace-count sweeps of Figures 8 and 10 do.
    pub fn take_traces(&self, n: usize) -> EventLog {
        EventLog {
            events: self.events.clone(),
            traces: self.traces.prefix(n),
        }
    }

    /// Projects the log onto the events `keep` (the "first *x* events"
    /// projection of Section 6.1): every other event is removed from every
    /// trace, and the vocabulary is re-interned densely.
    ///
    /// Returns the projected log and the old-id → new-id map (`None` for
    /// dropped events), which callers use to translate ground-truth
    /// mappings.
    pub fn project_events(&self, keep: &[EventId]) -> (EventLog, Vec<Option<EventId>>) {
        let mut remap: Vec<Option<EventId>> = vec![None; self.events.len()];
        let mut events = EventSet::new();
        for &e in keep {
            if remap[e.index()].is_none() {
                remap[e.index()] = Some(events.intern(self.events.name(e)));
            }
        }
        let mut traces = ColumnarLog::default();
        for t in self.traces() {
            traces.push(t.iter().filter_map(|&e| remap[e.index()]));
        }
        (EventLog { events, traces }, remap)
    }
}

#[inline]
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Incremental builder for [`EventLog`], interning event names on the fly
/// and appending each trace straight into the log's arena.
#[derive(Clone, Debug, Default)]
pub struct LogBuilder {
    events: EventSet,
    traces: ColumnarLog,
}

impl LogBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a builder with a pre-interned vocabulary.
    pub fn with_events(events: EventSet) -> Self {
        LogBuilder {
            events,
            traces: ColumnarLog::default(),
        }
    }

    /// Interns an event name (usable before any trace mentions it, so the
    /// vocabulary order can be fixed up front).
    pub fn intern(&mut self, name: &str) -> EventId {
        self.events.intern(name)
    }

    /// Adds one trace given as event names, interning new names.
    pub fn push_named_trace<S: AsRef<str>>(&mut self, names: impl IntoIterator<Item = S>) {
        let events = &mut self.events;
        self.traces
            .push(names.into_iter().map(|n| events.intern(n.as_ref())));
    }

    /// Adds one trace of already-interned ids. Panics on unknown ids.
    pub fn push_trace(&mut self, trace: impl IntoIterator<Item = impl Into<EventId>>) {
        let n = self.events.len();
        self.traces.push(trace.into_iter().map(|e| {
            let e = e.into();
            assert!(e.index() < n, "trace references unknown event {e:?}");
            e
        }));
    }

    /// Current number of traces.
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// The vocabulary interned so far.
    pub fn events(&self) -> &EventSet {
        &self.events
    }

    /// Finalizes into an [`EventLog`].
    pub fn build(self) -> EventLog {
        EventLog {
            events: self.events,
            traces: self.traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example-1-style toy: A, then B and C in either order,
    /// then D.
    fn toy() -> EventLog {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "C", "B", "D"]);
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "B", "D"]);
        b.build()
    }

    #[test]
    fn vertex_support_counts_traces_not_occurrences() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "A", "A"]);
        b.push_named_trace(["B"]);
        let log = b.build();
        let a = log.events().lookup("A").unwrap();
        assert_eq!(log.vertex_support(a), 1);
        assert!((log.vertex_freq(a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edge_support_requires_consecutive() {
        let log = toy();
        let a = log.events().lookup("A").unwrap();
        let b = log.events().lookup("B").unwrap();
        let d = log.events().lookup("D").unwrap();
        assert_eq!(log.edge_support(a, b), 3);
        assert_eq!(log.edge_support(a, d), 0);
        assert_eq!(log.edge_support(b, d), 2);
    }

    #[test]
    fn frequencies_are_normalized_by_trace_count() {
        let log = toy();
        let c = log.events().lookup("C").unwrap();
        let b = log.events().lookup("B").unwrap();
        assert!((log.vertex_freq(c) - 0.75).abs() < 1e-12);
        assert!((log.edge_freq(b, c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_log_has_zero_frequencies() {
        let log = LogBuilder::with_events(EventSet::from_names(["A"])).build();
        assert_eq!(log.vertex_freq(EventId(0)), 0.0);
        assert_eq!(log.edge_freq(EventId(0), EventId(0)), 0.0);
    }

    #[test]
    fn take_traces_prefix() {
        let log = toy();
        let half = log.take_traces(2);
        assert_eq!(half.len(), 2);
        assert_eq!(half.event_count(), 4);
        // Taking more than available is a no-op.
        assert_eq!(log.take_traces(100).len(), 4);
    }

    #[test]
    fn project_events_reinterns_densely() {
        let log = toy();
        let a = log.events().lookup("A").unwrap();
        let d = log.events().lookup("D").unwrap();
        let (proj, remap) = log.project_events(&[d, a]);
        assert_eq!(proj.event_count(), 2);
        // New ids follow the keep order: D first, then A.
        assert_eq!(proj.events().name(EventId(0)), "D");
        assert_eq!(proj.events().name(EventId(1)), "A");
        assert_eq!(remap[a.index()], Some(EventId(1)));
        // In the projected traces, A is now directly followed by D.
        assert_eq!(proj.edge_support(EventId(1), EventId(0)), 4);
        assert_eq!(proj.trace(0), &[EventId(1), EventId(0)]);
    }

    #[test]
    #[should_panic(expected = "unknown event")]
    fn builder_rejects_out_of_range_trace() {
        let mut b = LogBuilder::new();
        b.push_trace([0u32]);
    }

    #[test]
    fn builder_with_preinterned_vocabulary() {
        let mut b = LogBuilder::with_events(EventSet::from_names(["A", "B"]));
        b.push_trace([1u32, 0]);
        let log = b.build();
        assert_eq!(log.len(), 1);
        assert_eq!(log.event_count(), 2);
    }
}
