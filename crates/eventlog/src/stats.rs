//! Log summary statistics (Table 3 of the paper).

use crate::log::EventLog;

/// The per-dataset characteristics the paper reports in Table 3: number of
/// traces, number of distinct events (dependency-graph vertices), and number
/// of dependency edges. The number of patterns is a property of the
/// experiment configuration, not of the log, so it is reported separately by
/// the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogStats {
    /// `|L|`, the number of traces.
    pub traces: usize,
    /// Number of distinct events (vertices of the dependency graph).
    pub events: usize,
    /// Number of dependency-graph edges with non-zero frequency.
    pub edges: usize,
    /// Total number of event occurrences across all traces.
    pub occurrences: usize,
    /// Length of the longest trace.
    pub max_trace_len: usize,
}

impl LogStats {
    /// Computes the statistics of `log`.
    pub fn of(log: &EventLog) -> Self {
        let g = log.dep_graph();
        LogStats {
            traces: log.len(),
            events: log.event_count(),
            edges: g.edge_count(),
            occurrences: log.columns().total_events(),
            max_trace_len: log.traces().map(<[_]>::len).max().unwrap_or(0),
        }
    }
}

impl std::fmt::Display for LogStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} traces, {} events, {} edges ({} occurrences, longest trace {})",
            self.traces, self.events, self.edges, self.occurrences, self.max_trace_len
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::log::LogBuilder;

    #[test]
    fn stats_of_small_log() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C"]);
        b.push_named_trace(["A", "C"]);
        let s = b.build().stats();
        assert_eq!(s.traces, 2);
        assert_eq!(s.events, 3);
        // Edges: A->B, B->C, A->C.
        assert_eq!(s.edges, 3);
        assert_eq!(s.occurrences, 5);
        assert_eq!(s.max_trace_len, 3);
    }

    #[test]
    fn stats_of_empty_log() {
        let s = LogBuilder::new().build().stats();
        assert_eq!(s.traces, 0);
        assert_eq!(s.events, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.max_trace_len, 0);
    }

    #[test]
    fn display_is_human_readable() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A"]);
        let s = b.build().stats();
        assert_eq!(
            s.to_string(),
            "1 traces, 1 events, 0 edges (1 occurrences, longest trace 1)"
        );
    }
}
