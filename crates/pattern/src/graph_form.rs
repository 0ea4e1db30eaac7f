//! The directed-graph form of a pattern (Section 2.2, Example 4).
//!
//! `SEQ` connects every possible *final* event of one child to every
//! possible *initial* event of the next; `AND` connects finals to initials
//! between every ordered pair of distinct children. For the paper's
//! `p1 = SEQ(A, AND(B,C), D)` this yields exactly the six edges
//! `{AB, AC, BC, CB, BD, CD}` drawn in Figure 1e.
//!
//! Two facts make this graph useful:
//!
//! * every adjacent event pair of every allowed order in `I(p)` is an edge
//!   of the graph (so if a trace matches `p`, all those pairs appear as
//!   dependency edges — the basis of Proposition 3's pruning);
//! * its edge count `ω(p)` upper-bounds the number of distinct consecutive
//!   pairs a matching trace can realize, which drives the general Table-2
//!   frequency bound.

use evematch_eventlog::EventId;
use evematch_graph::{DiGraph, DiGraphBuilder, NodeId};

use crate::ast::Pattern;

/// Graph form of one pattern: its events plus the translated edges.
///
/// The underlying [`DiGraph`] uses *local* dense vertex ids `0..k`; the
/// `events` array maps local id → global [`EventId`] (sorted ascending, so
/// lookups go through binary search).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternGraph {
    events: Vec<EventId>,
    graph: DiGraph,
}

impl PatternGraph {
    /// Translates `p` into graph form.
    pub fn of(p: &Pattern) -> Self {
        let events = p.events();
        let mut builder = DiGraphBuilder::new(events.len());
        #[expect(
            clippy::expect_used,
            reason = "`events` is p.events(), the sorted list of exactly the events this closure \
                      is called with"
        )]
        let local = |e: EventId| -> NodeId {
            events
                .binary_search(&e)
                .expect("pattern event present in its own event list") as NodeId
        };
        let mut add = |a: EventId, b: EventId| builder.add_edge(local(a), local(b));
        collect_edges(p, &mut add);
        PatternGraph {
            graph: builder.build(),
            events,
        }
    }

    /// The pattern's events, sorted ascending (local id = position).
    pub fn events(&self) -> &[EventId] {
        &self.events
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// `ω(p)`: number of translated edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The local-id graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The global [`EventId`] of local vertex `v`.
    pub fn global(&self, v: NodeId) -> EventId {
        self.events[v as usize]
    }

    /// Edges as global event pairs, deterministic order.
    pub fn edges_global(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.graph
            .edges()
            .map(|(a, b)| (self.events[a as usize], self.events[b as usize]))
    }
}

/// The *required edge groups* of a pattern: for every group, **every**
/// allowed order in `I(p)` realizes at least one of the group's ordered
/// pairs as an adjacency.
///
/// Structure (by induction over the pattern):
///
/// * a single event contributes no groups;
/// * `SEQ(c1, …, ck)` contributes each child's groups plus one group per
///   boundary — `finals(ci) × initials(ci+1)` — because the linearization
///   concatenates child blocks;
/// * `AND(c1, …, ck)` contributes each child's groups plus one group of
///   all cross-child `finals × initials` pairs (some two children are
///   adjacent in every block order).
///
/// This drives the structure-aware Table-2 bound: since a matching trace
/// realizes some pair of each group consecutively, the pattern frequency is
/// capped, for each group, by the sum of the pairs' (mapped) edge
/// frequencies — with the paper's `f_e`, `k!·f_e` and `ω(p)·f_e` caps as
/// the coarse special cases.
pub fn edge_groups(p: &Pattern) -> Vec<Vec<(EventId, EventId)>> {
    let mut groups = Vec::new();
    collect_groups(p, &mut groups);
    groups
}

// Recursion audit (`collect_groups`, `collect_edges`): recursion depth
// equals the AST depth, which the ast.rs smart constructors cap at
// `crate::MAX_DEPTH`, so these traversals cannot overflow the stack on
// constructor-built patterns.
fn collect_groups(p: &Pattern, out: &mut Vec<Vec<(EventId, EventId)>>) {
    match p {
        Pattern::Event(_) => {}
        Pattern::Seq(ps) => {
            for child in ps {
                collect_groups(child, out);
            }
            for pair in ps.windows(2) {
                let mut group = Vec::new();
                for &f in &pair[0].finals() {
                    for &i in &pair[1].initials() {
                        group.push((f, i));
                    }
                }
                out.push(group);
            }
        }
        Pattern::And(ps) => {
            for child in ps {
                collect_groups(child, out);
            }
            let mut group = Vec::new();
            for (i, a) in ps.iter().enumerate() {
                for (j, b) in ps.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    for &f in &a.finals() {
                        for &s in &b.initials() {
                            group.push((f, s));
                        }
                    }
                }
            }
            out.push(group);
        }
    }
}

/// Emits the translated edges of `p` via `add`.
fn collect_edges(p: &Pattern, add: &mut impl FnMut(EventId, EventId)) {
    match p {
        Pattern::Event(_) => {}
        Pattern::Seq(ps) => {
            for child in ps {
                collect_edges(child, add);
            }
            for pair in ps.windows(2) {
                for &f in &pair[0].finals() {
                    for &i in &pair[1].initials() {
                        add(f, i);
                    }
                }
            }
        }
        Pattern::And(ps) => {
            for child in ps {
                collect_edges(child, add);
            }
            for (i, a) in ps.iter().enumerate() {
                for (j, b) in ps.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    for &f in &a.finals() {
                        for &s in &b.initials() {
                            add(f, s);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::linearizations;

    fn e(i: u32) -> Pattern {
        Pattern::event(i)
    }

    fn edge_set(g: &PatternGraph) -> Vec<(u32, u32)> {
        g.edges_global().map(|(a, b)| (a.0, b.0)).collect()
    }

    #[test]
    fn paper_example4_edges() {
        // SEQ(A, AND(B, C), D) with A..D = 0..3 → {AB, AC, BC, CB, BD, CD}.
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let g = PatternGraph::of(&p);
        assert_eq!(g.event_count(), 4);
        assert_eq!(g.edge_count(), 6);
        let mut edges = edge_set(&g);
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 1), (2, 3)]);
    }

    #[test]
    fn simple_seq_is_a_path() {
        let p = Pattern::seq_of_events([EventId(3), EventId(1), EventId(2)]).unwrap();
        let g = PatternGraph::of(&p);
        let mut edges = edge_set(&g);
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 2), (3, 1)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn simple_and_is_a_complete_digraph() {
        let p = Pattern::and_of_events([EventId(0), EventId(1), EventId(2)]).unwrap();
        let g = PatternGraph::of(&p);
        assert_eq!(g.edge_count(), 6); // k(k-1) for k = 3
    }

    #[test]
    fn single_event_has_no_edges() {
        let g = PatternGraph::of(&e(7));
        assert_eq!(g.event_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.events(), &[EventId(7)]);
    }

    #[test]
    fn every_linearization_adjacency_is_an_edge() {
        // Exhaustive structural check on a nested pattern.
        let p = Pattern::and(vec![
            Pattern::seq(vec![e(0), e(1)]).unwrap(),
            Pattern::seq(vec![e(2), Pattern::and(vec![e(3), e(4)]).unwrap()]).unwrap(),
        ])
        .unwrap();
        let g = PatternGraph::of(&p);
        for lin in linearizations(&p) {
            for w in lin.windows(2) {
                assert!(
                    g.edges_global().any(|(a, b)| a == w[0] && b == w[1]),
                    "adjacency {w:?} missing from pattern graph"
                );
            }
        }
    }

    #[test]
    fn edge_groups_of_simple_seq_are_singleton_adjacencies() {
        let p = Pattern::seq_of_events([EventId(0), EventId(1), EventId(2)]).unwrap();
        let g = edge_groups(&p);
        assert_eq!(
            g,
            vec![
                vec![(EventId(0), EventId(1))],
                vec![(EventId(1), EventId(2))],
            ]
        );
    }

    #[test]
    fn edge_groups_of_simple_and_is_one_cross_group() {
        let p = Pattern::and_of_events([EventId(0), EventId(1), EventId(2)]).unwrap();
        let g = edge_groups(&p);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].len(), 6); // k(k-1) ordered pairs
    }

    #[test]
    fn edge_groups_of_paper_p1() {
        // SEQ(A, AND(B, C), D): boundaries {A}×{B,C} and {B,C}×{D}, plus
        // the AND's internal cross group {BC, CB}.
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let g = edge_groups(&p);
        assert_eq!(g.len(), 3);
        let sizes: Vec<usize> = g.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 2, 2]);
    }

    #[test]
    fn every_linearization_realizes_one_pair_per_group() {
        let p = Pattern::and(vec![
            Pattern::seq(vec![e(0), e(1)]).unwrap(),
            Pattern::seq(vec![e(2), Pattern::and(vec![e(3), e(4)]).unwrap()]).unwrap(),
        ])
        .unwrap();
        let groups = edge_groups(&p);
        for lin in linearizations(&p) {
            let adj: Vec<(EventId, EventId)> = lin.windows(2).map(|w| (w[0], w[1])).collect();
            for group in &groups {
                assert!(
                    group.iter().any(|pair| adj.contains(pair)),
                    "group {group:?} unrealized in {lin:?}"
                );
            }
        }
    }

    #[test]
    fn single_event_has_no_groups() {
        assert!(edge_groups(&e(9)).is_empty());
    }

    #[test]
    fn global_local_roundtrip() {
        let p = Pattern::seq_of_events([EventId(10), EventId(5)]).unwrap();
        let g = PatternGraph::of(&p);
        // Events sorted ascending: local 0 = e5, local 1 = e10.
        assert_eq!(g.global(0), EventId(5));
        assert_eq!(g.global(1), EventId(10));
        // Edge 10 -> 5 becomes local 1 -> 0.
        assert!(g.graph().has_edge(1, 0));
    }
}
