//! The executable NP-hardness reduction of Theorem 1.
//!
//! Theorem 1 shows that optimal event matching is NP-complete even when
//! every pattern is a plain edge `SEQ(v, u)`, by reduction from subgraph
//! isomorphism: turn each edge of two graphs into a two-event trace, pose
//! one edge pattern per `G1` edge, and ask whether a mapping of pattern
//! normal distance `|E1|` exists — it does exactly when `G1` embeds into
//! `G2`.
//!
//! This module makes the reduction executable so it can be *tested*: small
//! subgraph-isomorphism instances are converted with [`reduce`], solved with
//! the exact matcher, and [`certifies_embedding`] checks the
//! correspondence both ways against a direct monomorphism search.

use evematch_eventlog::{EventId, EventLog, EventSet, LogBuilder};
use evematch_graph::DiGraph;
use evematch_pattern::Pattern;

use crate::mapping::Mapping;

/// The event-matching instance produced by the Theorem-1 reduction.
#[derive(Debug)]
pub struct ReducedInstance {
    /// `L1`: one two-event trace per edge of `G1` (padded to `|L2|`).
    pub log1: EventLog,
    /// `L2`: one two-event trace per edge of `G2` (padded to `|L1|`).
    pub log2: EventLog,
    /// One `SEQ(v, u)` pattern per edge of `G1`.
    pub patterns: Vec<Pattern>,
    /// The threshold `k = |E1|`: `G1` embeds into `G2` iff some mapping
    /// reaches pattern normal distance `k`.
    pub k: usize,
}

/// Converts a subgraph-isomorphism instance `(g1, g2)` into an event
/// matching instance per the proof of Theorem 1.
///
/// Requires `g1.node_count() ≤ g2.node_count()` (otherwise no injective
/// vertex map exists and the answer is trivially *no*).
pub fn reduce(g1: &DiGraph, g2: &DiGraph) -> ReducedInstance {
    assert!(
        g1.node_count() <= g2.node_count(),
        "pattern graph must not have more vertices than the target"
    );
    let log1 = edges_to_log(g1, g2.edge_count());
    let log2 = edges_to_log(g2, g1.edge_count());
    // Edges of a simple digraph connect distinct vertices, so the SEQ
    // constructor cannot reject them; `filter_map` keeps this panic-free.
    let patterns = g1
        .edges()
        .filter_map(|(u, v)| Pattern::seq_of_events([EventId(u), EventId(v)]).ok())
        .collect();
    ReducedInstance {
        log1,
        log2,
        patterns,
        k: g1.edge_count(),
    }
}

/// One trace `⟨u v⟩` per edge, plus single-event padding traces so both
/// logs reach `max(|E1|, |E2|)` traces (the proof's equal-size step:
/// frequencies on both sides share the denominator `|L|`).
fn edges_to_log(g: &DiGraph, other_edge_count: usize) -> EventLog {
    let names: Vec<String> = (0..g.node_count()).map(|v| format!("v{v}")).collect();
    let mut log = LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)));
    for (u, v) in g.edges() {
        log.push_trace([u, v]);
    }
    let target = g.edge_count().max(other_edge_count);
    while log.trace_count() < target {
        // Padding traces carry a single event; any vertex works since only
        // *edge* patterns are posed. Use vertex 0 (graphs here are
        // non-empty whenever padding is needed).
        log.push_trace([0u32]);
    }
    log.build()
}

/// Whether `mapping` (a solution of the reduced instance) certifies an
/// embedding of `g1` into `g2`: every `G1` edge must map onto a `G2` edge.
pub fn certifies_embedding(g1: &DiGraph, g2: &DiGraph, mapping: &Mapping) -> bool {
    g1.edges().all(
        |(u, v)| match (mapping.get(EventId(u)), mapping.get(EventId(v))) {
            (Some(mu), Some(mv)) => g2.has_edge(mu.0, mv.0),
            _ => false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::BoundKind;
    use crate::context::{MatchContext, PatternSetBuilder};
    use crate::exact::ExactMatcher;
    use evematch_graph::is_subgraph_monomorphic;

    /// Solves the reduced instance exactly and returns (best score, mapping).
    fn solve(inst: &ReducedInstance) -> (f64, Mapping) {
        let ctx = MatchContext::new(
            inst.log1.clone(),
            inst.log2.clone(),
            PatternSetBuilder::new().complex_all(inst.patterns.iter().cloned()),
        )
        .expect("reduction produces |V1| ≤ |V2|");
        let out = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        (out.score, out.mapping)
    }

    fn check_equivalence(g1: &DiGraph, g2: &DiGraph) {
        let inst = reduce(g1, g2);
        let (score, mapping) = solve(&inst);
        let embeds = is_subgraph_monomorphic(g1, g2);
        let reaches_k = (score - inst.k as f64).abs() < 1e-9;
        assert_eq!(
            embeds, reaches_k,
            "embedding {embeds} but best score {score} vs k {}",
            inst.k
        );
        if embeds {
            assert!(certifies_embedding(g1, g2, &mapping));
        }
    }

    fn path(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    fn cycle(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
    }

    #[test]
    fn path_into_cycle_embeds() {
        check_equivalence(&path(3), &cycle(4));
    }

    #[test]
    fn cycle_into_path_does_not_embed() {
        check_equivalence(&cycle(3), &path(4));
    }

    #[test]
    fn triangle_into_triangle_plus_pendant() {
        let tri_plus = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        check_equivalence(&cycle(3), &tri_plus);
    }

    #[test]
    fn diamond_into_larger_dag() {
        let diamond = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let host = DiGraph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 4)]);
        check_equivalence(&diamond, &host);
        // And a host where it cannot embed.
        let chain = path(5);
        check_equivalence(&diamond, &chain);
    }

    #[test]
    fn reduction_pads_logs_to_equal_size() {
        let inst = reduce(&path(3), &cycle(5));
        assert_eq!(inst.log1.len(), inst.log2.len());
        assert_eq!(inst.k, 2);
        assert_eq!(inst.patterns.len(), 2);
    }

    #[test]
    fn certificate_rejects_non_embedding_mapping() {
        let g1 = path(3); // edges 0->1->2
        let g2 = cycle(4);
        // Map 0->0, 1->2, 2->1: edge 0->1 maps to 0->2, absent in C4.
        let bad = Mapping::from_pairs(
            3,
            4,
            [
                (EventId(0), EventId(0)),
                (EventId(1), EventId(2)),
                (EventId(2), EventId(1)),
            ],
        );
        assert!(!certifies_embedding(&g1, &g2, &bad));
    }
}
