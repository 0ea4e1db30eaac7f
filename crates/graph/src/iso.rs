//! Subgraph monomorphism search.
//!
//! A *monomorphism* from a pattern graph `P` to a target graph `G` is an
//! injective vertex map `m` such that every edge `(u, v)` of `P` maps to an
//! edge `(m(u), m(v))` of `G` (extra edges in `G` are allowed). This is the
//! "subgraph isomorphism" notion used by the paper's Theorem 1, which
//! reduces subgraph isomorphism to optimal event matching with edge
//! patterns; the executable reduction in `evematch-core` checks it both
//! ways. The search also serves the evaluator's structural probe (the
//! `iso.*` counters) and pattern discovery's twin filter. Proposition 3's
//! existence pruning does not use it: that is the edge-group caps inside
//! the bound `h` and `pattern::is_realizable_with_fuel`, which check the
//! one mapped pattern rather than search for an embedding.
//!
//! The search is a VF2-style backtracking over pattern vertices ordered by
//! descending degree (most-constrained first), with forward/backward
//! adjacency consistency checks at each extension. Graphs in this workspace
//! are tiny (pattern graphs have ≤ ~8 vertices; dependency graphs ≤ a few
//! hundred), so this simple engine is more than sufficient and keeps the
//! implementation auditable.

use crate::digraph::{DiGraph, NodeId};

/// A fuel-limited search was cut off before its space was exhausted: the
/// fuel closure returned `false`. Whatever the visitor observed up to that
/// point is still valid — the search is sound but incomplete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("monomorphism search interrupted by its fuel budget")
    }
}

impl std::error::Error for Interrupted {}

/// Work counters of one monomorphism search, for observability.
///
/// Every field is **deterministic**: a function of the two graphs and the
/// fuel schedule alone. The core telemetry layer surfaces these as the
/// `iso.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IsoStats {
    /// Extension steps taken (recursive calls; the unit of fuel).
    pub steps: u64,
    /// Candidate assignments undone after their subtree was explored.
    pub backtracks: u64,
    /// Deepest partial map reached (= pattern size when an embedding was
    /// completed).
    pub max_depth: u64,
    /// Complete embeddings reached (counted even if the visitor stops the
    /// search).
    pub found: u64,
}

impl IsoStats {
    /// Sums `other` into `self` (`max_depth` takes the max).
    pub fn absorb(&mut self, other: &IsoStats) {
        self.steps += other.steps;
        self.backtracks += other.backtracks;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.found += other.found;
    }
}

/// Reusable monomorphism search between a fixed pattern and target graph.
///
/// Construct once with [`MonoSearch::new`], then call
/// [`find`](MonoSearch::find) or [`enumerate`](MonoSearch::enumerate); the
/// `*_with_fuel` variants bound the worst-case exponential backtracking by
/// polling a cooperative fuel closure once per extension step.
pub struct MonoSearch<'a> {
    pattern: &'a DiGraph,
    target: &'a DiGraph,
    /// Pattern vertices in matching order (most-constrained first).
    order: Vec<NodeId>,
}

impl<'a> MonoSearch<'a> {
    /// Prepares a search for embeddings of `pattern` into `target`.
    pub fn new(pattern: &'a DiGraph, target: &'a DiGraph) -> Self {
        let mut order: Vec<NodeId> = (0..pattern.node_count() as NodeId).collect();
        // Most-constrained-first: try high-degree pattern vertices early so
        // dead branches are pruned near the root. Prefer vertices adjacent
        // to already-ordered ones to keep the partial map connected.
        order.sort_by_key(|&v| std::cmp::Reverse(pattern.out_degree(v) + pattern.in_degree(v)));
        let order = connectivity_refine(pattern, order);
        MonoSearch {
            pattern,
            target,
            order,
        }
    }

    /// Returns one monomorphism if any exists: `map[p] = t` assigns pattern
    /// vertex `p` to target vertex `t`.
    pub fn find(&self) -> Option<Vec<NodeId>> {
        // Unlimited fuel cannot interrupt.
        self.find_with_fuel(&mut || true).unwrap_or_default()
    }

    /// [`find`](MonoSearch::find) under a cooperative fuel budget: `fuel` is
    /// polled once per extension step and `Err(Interrupted)` is returned as
    /// soon as it yields `false`. An embedding found before the cut-off is
    /// still reported as `Ok(Some(..))`.
    pub fn find_with_fuel(
        &self,
        fuel: &mut dyn FnMut() -> bool,
    ) -> Result<Option<Vec<NodeId>>, Interrupted> {
        self.find_with_fuel_stats(fuel, &mut IsoStats::default())
    }

    /// [`find_with_fuel`](MonoSearch::find_with_fuel), additionally
    /// accumulating work counters into `stats` (valid even on
    /// `Err(Interrupted)`).
    pub fn find_with_fuel_stats(
        &self,
        fuel: &mut dyn FnMut() -> bool,
        stats: &mut IsoStats,
    ) -> Result<Option<Vec<NodeId>>, Interrupted> {
        let mut out = None;
        let interrupted = self.search(
            &mut |m| {
                out = Some(m.to_vec());
                false // stop after first hit
            },
            fuel,
            stats,
        );
        if interrupted && out.is_none() {
            Err(Interrupted)
        } else {
            Ok(out)
        }
    }

    /// Invokes `visit` for every monomorphism, until `visit` returns `false`
    /// or the space is exhausted. Returns the number of embeddings visited.
    pub fn enumerate(&self, mut visit: impl FnMut(&[NodeId]) -> bool) -> usize {
        let mut n = 0;
        self.search(
            &mut |m| {
                n += 1;
                visit(m)
            },
            &mut || true,
            &mut IsoStats::default(),
        );
        n
    }

    /// [`enumerate`](MonoSearch::enumerate) under a cooperative fuel budget.
    /// On `Err(Interrupted)` the embeddings already passed to `visit` remain
    /// valid (a lower bound on the true count) — count them inside `visit`
    /// if a partial tally is needed.
    pub fn enumerate_with_fuel(
        &self,
        visit: &mut dyn FnMut(&[NodeId]) -> bool,
        fuel: &mut dyn FnMut() -> bool,
    ) -> Result<usize, Interrupted> {
        self.enumerate_with_fuel_stats(visit, fuel, &mut IsoStats::default())
    }

    /// [`enumerate_with_fuel`](MonoSearch::enumerate_with_fuel),
    /// additionally accumulating work counters into `stats` (valid even on
    /// `Err(Interrupted)`).
    pub fn enumerate_with_fuel_stats(
        &self,
        visit: &mut dyn FnMut(&[NodeId]) -> bool,
        fuel: &mut dyn FnMut() -> bool,
        stats: &mut IsoStats,
    ) -> Result<usize, Interrupted> {
        let mut n = 0;
        let interrupted = self.search(
            &mut |m| {
                n += 1;
                visit(m)
            },
            fuel,
            stats,
        );
        if interrupted {
            Err(Interrupted)
        } else {
            Ok(n)
        }
    }

    /// Runs the backtracking; returns `true` when the fuel cut it off.
    fn search(
        &self,
        visit: &mut dyn FnMut(&[NodeId]) -> bool,
        fuel: &mut dyn FnMut() -> bool,
        stats: &mut IsoStats,
    ) -> bool {
        let np = self.pattern.node_count();
        if np > self.target.node_count() {
            return false;
        }
        if np == 0 {
            stats.found += 1;
            visit(&[]);
            return false;
        }
        let mut map: Vec<NodeId> = vec![NodeId::MAX; np];
        let mut used: Vec<bool> = vec![false; self.target.node_count()];
        let mut interrupted = false;
        self.extend(0, &mut map, &mut used, visit, fuel, &mut interrupted, stats);
        interrupted
    }

    /// Depth-first extension; returns `false` when the caller asked to stop
    /// (either via `visit` or by setting `interrupted` on empty fuel).
    #[allow(clippy::too_many_arguments)] // private recursion; the args are the search state
    fn extend(
        &self,
        depth: usize,
        map: &mut [NodeId],
        used: &mut [bool],
        visit: &mut dyn FnMut(&[NodeId]) -> bool,
        fuel: &mut dyn FnMut() -> bool,
        interrupted: &mut bool,
        stats: &mut IsoStats,
    ) -> bool {
        // One extension step is the unit of fuel; polling here bounds the
        // time between checks by a single candidate scan.
        if !fuel() {
            *interrupted = true;
            return false;
        }
        stats.steps += 1;
        stats.max_depth = stats.max_depth.max(depth as u64);
        if depth == self.order.len() {
            stats.found += 1;
            return visit(map);
        }
        let p = self.order[depth];
        'cand: for t in 0..self.target.node_count() as NodeId {
            if used[t as usize] {
                continue;
            }
            // Degree filter: the image must support the pattern vertex.
            if self.target.out_degree(t) < self.pattern.out_degree(p)
                || self.target.in_degree(t) < self.pattern.in_degree(p)
            {
                continue;
            }
            // Self-loop consistency.
            if self.pattern.has_edge(p, p) && !self.target.has_edge(t, t) {
                continue;
            }
            // Consistency with already-mapped neighbours.
            for &q in self.pattern.successors(p) {
                if q == p {
                    continue;
                }
                let mq = map[q as usize];
                if mq != NodeId::MAX && !self.target.has_edge(t, mq) {
                    continue 'cand;
                }
            }
            for &q in self.pattern.predecessors(p) {
                if q == p {
                    continue;
                }
                let mq = map[q as usize];
                if mq != NodeId::MAX && !self.target.has_edge(mq, t) {
                    continue 'cand;
                }
            }
            map[p as usize] = t;
            used[t as usize] = true;
            let keep_going = self.extend(depth + 1, map, used, visit, fuel, interrupted, stats);
            map[p as usize] = NodeId::MAX;
            used[t as usize] = false;
            stats.backtracks += 1;
            if !keep_going {
                return false;
            }
        }
        true
    }
}

/// Reorders `order` so each vertex (after the first) is adjacent to an
/// earlier one when possible, preserving the degree-based priority among
/// eligible vertices. Connected partial maps prune far better.
fn connectivity_refine(g: &DiGraph, order: Vec<NodeId>) -> Vec<NodeId> {
    let n = order.len();
    let mut remaining = order;
    let mut out = Vec::with_capacity(n);
    let mut in_out = vec![false; g.node_count()];
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|&v| {
                out.is_empty()
                    || g.successors(v).iter().any(|&u| in_out[u as usize])
                    || g.predecessors(v).iter().any(|&u| in_out[u as usize])
            })
            .unwrap_or(0);
        let v = remaining.remove(pos);
        in_out[v as usize] = true;
        out.push(v);
    }
    out
}

/// Returns one embedding of `pattern` into `target` if any exists.
pub fn find_monomorphism(pattern: &DiGraph, target: &DiGraph) -> Option<Vec<NodeId>> {
    MonoSearch::new(pattern, target).find()
}

/// Whether `pattern` embeds into `target` (injective, edge preserving).
pub fn is_subgraph_monomorphic(pattern: &DiGraph, target: &DiGraph) -> bool {
    find_monomorphism(pattern, target).is_some()
}

/// Collects up to `limit` embeddings of `pattern` into `target`.
pub fn enumerate_monomorphisms(
    pattern: &DiGraph,
    target: &DiGraph,
    limit: usize,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    MonoSearch::new(pattern, target).enumerate(|m| {
        out.push(m.to_vec());
        out.len() < limit
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n as NodeId - 1).map(|i| (i, i + 1)))
    }

    fn cycle(n: usize) -> DiGraph {
        DiGraph::from_edges(n, (0..n as NodeId).map(|i| (i, (i + 1) % n as NodeId)))
    }

    #[test]
    fn path_embeds_in_longer_path() {
        assert!(is_subgraph_monomorphic(&path(3), &path(5)));
        assert!(!is_subgraph_monomorphic(&path(5), &path(3)));
    }

    #[test]
    fn path_embeds_in_cycle_but_not_vice_versa() {
        assert!(is_subgraph_monomorphic(&path(4), &cycle(4)));
        assert!(!is_subgraph_monomorphic(&cycle(4), &path(4)));
    }

    #[test]
    fn found_map_is_a_valid_monomorphism() {
        let p = DiGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let t = DiGraph::from_edges(5, [(4, 3), (3, 1), (4, 1), (0, 4)]);
        let m = find_monomorphism(&p, &t).expect("triangle-ish DAG embeds");
        for (u, v) in p.edges() {
            assert!(t.has_edge(m[u as usize], m[v as usize]));
        }
        let mut images = m.clone();
        images.sort_unstable();
        images.dedup();
        assert_eq!(images.len(), m.len(), "map must be injective");
    }

    #[test]
    fn direction_matters() {
        let p = DiGraph::from_edges(2, [(0, 1)]);
        let t = DiGraph::from_edges(2, [(1, 0)]);
        // 0->1 embeds as m(0)=1, m(1)=0.
        assert!(is_subgraph_monomorphic(&p, &t));
        let t2 = DiGraph::from_edges(2, []);
        assert!(!is_subgraph_monomorphic(&p, &t2));
    }

    #[test]
    fn self_loop_requires_self_loop() {
        let p = DiGraph::from_edges(1, [(0, 0)]);
        let no_loop = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let with_loop = DiGraph::from_edges(3, [(0, 1), (2, 2)]);
        assert!(!is_subgraph_monomorphic(&p, &no_loop));
        let m = find_monomorphism(&p, &with_loop).unwrap();
        assert_eq!(m, vec![2]);
    }

    #[test]
    fn empty_pattern_always_embeds() {
        let p = DiGraph::empty(0);
        let t = path(3);
        assert!(is_subgraph_monomorphic(&p, &t));
    }

    #[test]
    fn bidirectional_pair_needs_two_cycle() {
        // AND(B, C) graph form: B<->C.
        let p = DiGraph::from_edges(2, [(0, 1), (1, 0)]);
        let dag = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let with_two_cycle = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 1), (2, 3)]);
        assert!(!is_subgraph_monomorphic(&p, &dag));
        assert!(is_subgraph_monomorphic(&p, &with_two_cycle));
    }

    #[test]
    fn enumerate_counts_all_embeddings_of_edge_into_triangle() {
        let p = DiGraph::from_edges(2, [(0, 1)]);
        let t = cycle(3);
        let all = enumerate_monomorphisms(&p, &t, usize::MAX);
        // Each of the 3 directed edges yields exactly one embedding.
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn enumerate_respects_limit() {
        let p = DiGraph::from_edges(2, [(0, 1)]);
        let t = cycle(5);
        let some = enumerate_monomorphisms(&p, &t, 2);
        assert_eq!(some.len(), 2);
    }

    #[test]
    fn larger_pattern_than_target_fails_fast() {
        assert!(!is_subgraph_monomorphic(&path(6), &path(4)));
    }

    #[test]
    fn zero_fuel_interrupts_immediately() {
        let (p, t) = (path(3), path(5));
        let s = MonoSearch::new(&p, &t);
        assert_eq!(s.find_with_fuel(&mut || false), Err(Interrupted));
        let mut visited = 0;
        let r = s.enumerate_with_fuel(
            &mut |_| {
                visited += 1;
                true
            },
            &mut || false,
        );
        assert_eq!(r, Err(Interrupted));
        assert_eq!(visited, 0);
    }

    #[test]
    fn ample_fuel_matches_the_unfueled_search() {
        let p = DiGraph::from_edges(2, [(0, 1)]);
        let t = cycle(3);
        let s = MonoSearch::new(&p, &t);
        let full = s.enumerate(|_| true);
        let fueled = s
            .enumerate_with_fuel(&mut |_| true, &mut || true)
            .expect("unlimited fuel never interrupts");
        assert_eq!(full, fueled);
        assert_eq!(
            s.find_with_fuel(&mut || true).expect("not interrupted"),
            s.find()
        );
    }

    #[test]
    fn stats_count_steps_backtracks_and_depth() {
        let p = DiGraph::from_edges(2, [(0, 1)]);
        let t = cycle(3);
        let s = MonoSearch::new(&p, &t);
        let mut stats = IsoStats::default();
        let n = s
            .enumerate_with_fuel_stats(&mut |_| true, &mut || true, &mut stats)
            .expect("unlimited fuel never interrupts");
        assert_eq!(n, 3);
        assert_eq!(stats.found, 3);
        // Full embeddings reach depth 2 (|pattern| vertices mapped).
        assert_eq!(stats.max_depth, 2);
        assert!(stats.steps >= stats.found, "each embedding costs steps");
        assert!(stats.backtracks > 0, "the enumeration must backtrack");
        // Stats are deterministic: an identical rerun matches exactly.
        let mut again = IsoStats::default();
        let _ = s.enumerate_with_fuel_stats(&mut |_| true, &mut || true, &mut again);
        assert_eq!(stats, again);
        let mut total = IsoStats::default();
        total.absorb(&stats);
        total.absorb(&again);
        assert_eq!(total.steps, 2 * stats.steps);
        assert_eq!(total.max_depth, 2);
    }

    #[test]
    fn partial_tally_survives_an_interruption() {
        let p = DiGraph::from_edges(2, [(0, 1)]);
        let t = cycle(5);
        let s = MonoSearch::new(&p, &t);
        let mut steps = 0u64;
        let mut visited = 0usize;
        let r = s.enumerate_with_fuel(
            &mut |_| {
                visited += 1;
                true
            },
            &mut || {
                steps += 1;
                steps <= 4
            },
        );
        assert_eq!(r, Err(Interrupted));
        // The visitor's own tally remains a valid lower bound.
        assert!(visited < 5);
    }
}
