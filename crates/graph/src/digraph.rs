//! Compact directed graph with deterministic iteration order.

use std::fmt;

/// Dense vertex identifier.
///
/// Graphs in this workspace are small (event vocabularies are bounded by a
/// few hundred events; pattern graphs by a handful of vertices), so a `u32`
/// index keeps adjacency structures compact and cache friendly.
pub type NodeId = u32;

/// A directed graph stored as sorted adjacency lists.
///
/// * Vertices are the dense range `0..node_count()`.
/// * Parallel edges are collapsed; self-loops are permitted (the event
///   dependency graph stores vertex frequencies under `(v, v)` keys, and a
///   trace may legitimately contain the same event twice in a row).
/// * Out- and in-neighbour lists are kept sorted, so membership queries are
///   `O(log deg)` and iteration order is deterministic.
///
/// The struct is immutable once built; use [`DiGraphBuilder`] (or
/// [`DiGraph::from_edges`]) to construct one.
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph {
    /// `out[v]` = sorted list of successors of `v`.
    out: Vec<Vec<NodeId>>,
    /// `inc[v]` = sorted list of predecessors of `v`.
    inc: Vec<Vec<NodeId>>,
    /// Total number of (collapsed) directed edges.
    edge_count: usize,
}

impl DiGraph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn empty(n: usize) -> Self {
        DiGraph {
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list. The vertex count is
    /// `max(n, 1 + max endpoint)`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = DiGraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of distinct directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the directed edge `u -> v` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out
            .get(u as usize)
            .is_some_and(|succs| succs.binary_search(&v).is_ok())
    }

    /// Sorted successors of `v`.
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        &self.out[v as usize]
    }

    /// Sorted predecessors of `v`.
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        &self.inc[v as usize]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out[v as usize].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.inc[v as usize].len()
    }

    /// Iterates over all edges `(u, v)` in lexicographic order.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            node: 0,
            pos: 0,
        }
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DiGraph(n={}, edges=[", self.node_count())?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}->{v}")?;
        }
        write!(f, "])")
    }
}

/// Iterator over the edges of a [`DiGraph`] in `(source, target)` order.
pub struct EdgeIter<'g> {
    graph: &'g DiGraph,
    node: usize,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.node < self.graph.out.len() {
            let succs = &self.graph.out[self.node];
            if self.pos < succs.len() {
                let e = (self.node as NodeId, succs[self.pos]);
                self.pos += 1;
                return Some(e);
            }
            self.node += 1;
            self.pos = 0;
        }
        None
    }
}

/// Mutable builder for [`DiGraph`].
#[derive(Clone, Debug, Default)]
pub struct DiGraphBuilder {
    out: Vec<Vec<NodeId>>,
}

impl DiGraphBuilder {
    /// Starts a builder with `n` vertices (more are added on demand by
    /// [`add_edge`](Self::add_edge)).
    pub fn new(n: usize) -> Self {
        DiGraphBuilder {
            out: vec![Vec::new(); n],
        }
    }

    /// Ensures the vertex range covers `v`.
    pub fn ensure_node(&mut self, v: NodeId) {
        if self.out.len() <= v as usize {
            self.out.resize(v as usize + 1, Vec::new());
        }
    }

    /// Adds the directed edge `u -> v` (idempotent).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.ensure_node(u.max(v));
        self.out[u as usize].push(v);
    }

    /// Finalizes into an immutable [`DiGraph`].
    pub fn build(mut self) -> DiGraph {
        let n = self.out.len();
        let mut inc: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut edge_count = 0;
        for (u, succs) in self.out.iter_mut().enumerate() {
            succs.sort_unstable();
            succs.dedup();
            edge_count += succs.len();
            for &v in succs.iter() {
                inc[v as usize].push(u as NodeId);
            }
        }
        // Predecessor lists were filled in ascending `u` order, so they are
        // already sorted and deduplicated.
        DiGraph {
            out: self.out,
            inc,
            edge_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = DiGraph::empty(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn from_edges_collapses_duplicates() {
        let g = DiGraph::from_edges(0, [(0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
    }

    #[test]
    fn self_loops_are_allowed() {
        let g = DiGraph::from_edges(1, [(0, 0)]);
        assert!(g.has_edge(0, 0));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.successors(0), &[0]);
        assert_eq!(g.predecessors(0), &[0]);
    }

    #[test]
    fn successors_and_predecessors_are_sorted() {
        let g = DiGraph::from_edges(0, [(3, 1), (3, 0), (3, 2), (0, 2), (1, 2)]);
        assert_eq!(g.successors(3), &[0, 1, 2]);
        assert_eq!(g.predecessors(2), &[0, 1, 3]);
        assert_eq!(g.out_degree(3), 3);
        assert_eq!(g.in_degree(2), 3);
    }

    #[test]
    fn edges_iterate_in_lexicographic_order() {
        let g = DiGraph::from_edges(0, [(1, 0), (0, 2), (0, 1), (2, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 0), (2, 0)]);
    }

    #[test]
    fn builder_ensure_node_extends_range() {
        let mut b = DiGraphBuilder::new(0);
        b.ensure_node(4);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
    }
}
