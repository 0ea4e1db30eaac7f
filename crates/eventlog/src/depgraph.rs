//! The event dependency graph of Definition 1.

use evematch_graph::{DiGraph, DiGraphBuilder, NodeId};

use crate::event::EventId;
use crate::log::EventLog;

/// Event dependency graph `G(V, E, f)` (Definition 1):
///
/// * one vertex per event of the log's vocabulary;
/// * an edge `(a, b)` whenever `a` is immediately followed by `b` in at
///   least one trace (zero-frequency edges are not materialized);
/// * `f(v, v)` = normalized frequency of event `v`;
/// * `f(a, b)` = normalized frequency of the consecutive pair `a b`.
///
/// Supports are stored as exact per-trace counts; normalized frequencies are
/// derived on demand. The structure-only view ([`DepGraph::graph`]) is what
/// the pattern-existence pruning (Proposition 3) realizes mapped patterns
/// along, and what the structural probe embeds pattern graphs into.
#[derive(Clone, Debug, PartialEq)]
pub struct DepGraph {
    n: usize,
    trace_count: usize,
    /// `vertex[v]` = number of traces containing `v`.
    vertex: Vec<u32>,
    /// Dense `n × n` matrix; `edge[a * n + b]` = number of traces where
    /// `a b` occur consecutively. Event vocabularies are small (≤ a few
    /// hundred), so dense storage is cheap and O(1) to query.
    edge: Vec<u32>,
    /// Structural view: edges with non-zero support (self-loops included
    /// only when an event actually repeats back to back).
    structure: DiGraph,
}

impl DepGraph {
    /// Builds the dependency graph of `log` in one pass over the traces.
    pub fn from_log(log: &EventLog) -> Self {
        let n = log.event_count();
        let mut vertex = vec![0u32; n];
        let mut edge = vec![0u32; n * n];
        // Per-trace de-duplication scratch: a trace contributes at most one
        // count to each vertex/edge (Definition 1 counts traces, not
        // occurrences). `stamp` avoids clearing the scratch between traces.
        let mut v_seen = vec![u32::MAX; n];
        let mut e_seen = vec![u32::MAX; n * n];
        for (i, t) in log.traces().enumerate() {
            let stamp = i as u32;
            for &e in t {
                if v_seen[e.index()] != stamp {
                    v_seen[e.index()] = stamp;
                    vertex[e.index()] += 1;
                }
            }
            for w in t.windows(2) {
                let k = w[0].index() * n + w[1].index();
                if e_seen[k] != stamp {
                    e_seen[k] = stamp;
                    edge[k] += 1;
                }
            }
        }
        let mut builder = DiGraphBuilder::new(n);
        for a in 0..n {
            for b in 0..n {
                if edge[a * n + b] > 0 {
                    builder.add_edge(a as NodeId, b as NodeId);
                }
            }
        }
        DepGraph {
            n,
            trace_count: log.len(),
            vertex,
            edge,
            structure: builder.build(),
        }
    }

    /// Number of events (vertices).
    pub fn event_count(&self) -> usize {
        self.n
    }

    /// Number of traces the graph was computed from.
    pub fn trace_count(&self) -> usize {
        self.trace_count
    }

    /// Number of dependency edges with non-zero frequency.
    pub fn edge_count(&self) -> usize {
        self.structure.edge_count()
    }

    /// Unnormalized support of vertex `v`.
    pub fn vertex_support(&self, v: EventId) -> u32 {
        self.vertex[v.index()]
    }

    /// Unnormalized support of edge `(a, b)`.
    pub fn edge_support(&self, a: EventId, b: EventId) -> u32 {
        self.edge[a.index() * self.n + b.index()]
    }

    /// Normalized frequency `f(a, b)` of Definition 1. With `a == b` this is
    /// the vertex frequency; otherwise the consecutive-pair frequency.
    pub fn freq(&self, a: EventId, b: EventId) -> f64 {
        let support = if a == b {
            self.vertex[a.index()]
        } else {
            self.edge[a.index() * self.n + b.index()]
        };
        self.normalize(support)
    }

    /// Normalized vertex frequency of `v`.
    pub fn vertex_freq(&self, v: EventId) -> f64 {
        self.normalize(self.vertex[v.index()])
    }

    /// Normalized edge frequency of `(a, b)` (zero when absent). Unlike
    /// [`freq`](Self::freq), `a == b` here means the *edge* `a -> a`
    /// (the event repeated back to back).
    pub fn edge_freq(&self, a: EventId, b: EventId) -> f64 {
        self.normalize(self.edge[a.index() * self.n + b.index()])
    }

    /// Whether the dependency edge `(a, b)` exists (non-zero frequency).
    pub fn has_edge(&self, a: EventId, b: EventId) -> bool {
        self.edge_support(a, b) > 0
    }

    /// The structure-only directed graph (edges with non-zero frequency).
    pub fn graph(&self) -> &DiGraph {
        &self.structure
    }

    /// All dependency edges, lexicographically.
    pub fn edges(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.structure
            .edges()
            .map(|(a, b)| (EventId(a), EventId(b)))
    }

    #[inline]
    fn normalize(&self, support: u32) -> f64 {
        if self.trace_count == 0 {
            0.0
        } else {
            support as f64 / self.trace_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogBuilder;

    fn toy() -> EventLog {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "C", "B", "D"]);
        b.push_named_trace(["A", "B", "B", "D"]);
        b.push_named_trace(["A", "B", "C", "D"]);
        b.build()
    }

    #[test]
    fn vertex_frequencies_match_log() {
        let log = toy();
        let g = log.dep_graph();
        for e in log.events().ids() {
            assert_eq!(
                g.vertex_support(e) as usize,
                log.vertex_support(e),
                "vertex {e}"
            );
            assert!((g.vertex_freq(e) - log.vertex_freq(e)).abs() < 1e-12);
        }
    }

    #[test]
    fn edge_frequencies_match_log() {
        let log = toy();
        let g = log.dep_graph();
        for a in log.events().ids() {
            for b in log.events().ids() {
                assert_eq!(
                    g.edge_support(a, b) as usize,
                    log.edge_support(a, b),
                    "edge {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn zero_frequency_edges_are_not_materialized() {
        let log = toy();
        let g = log.dep_graph();
        let a = log.events().lookup("A").unwrap();
        let d = log.events().lookup("D").unwrap();
        assert!(!g.has_edge(a, d));
        assert!(!g.graph().has_edge(a.0, d.0));
        // Every structural edge has positive support.
        for (x, y) in g.edges() {
            assert!(g.edge_support(x, y) > 0);
        }
    }

    #[test]
    fn self_loop_from_repeated_event() {
        let log = toy();
        let g = log.dep_graph();
        let b = log.events().lookup("B").unwrap();
        assert!(g.has_edge(b, b));
        assert_eq!(g.edge_support(b, b), 1);
        // freq(b, b) is the VERTEX frequency per Definition 1 ...
        assert!((g.freq(b, b) - 1.0).abs() < 1e-12);
        // ... while edge_freq(b, b) is the self-loop frequency.
        assert!((g.edge_freq(b, b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_log_graph() {
        let log = LogBuilder::new().build();
        let g = log.dep_graph();
        assert_eq!(g.event_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edge_count_matches_structure() {
        let log = toy();
        let g = log.dep_graph();
        assert_eq!(g.edge_count(), g.edges().count());
    }
}
