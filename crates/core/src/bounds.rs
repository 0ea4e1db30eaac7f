//! Upper bounds `Δ(p, U)` on pattern contributions (Problem 2; Sections 3.3
//! and 4, Algorithm 2, Table 2).
//!
//! `d(p) = 1 − |f1 − f2| / (f1 + f2)` is increasing in `f2` on `[0, f1]`,
//! so any cap `F ≥ f2(M'(p))` valid for *every* completion `M'` of the
//! current partial mapping yields the admissible bound
//!
//! ```text
//! Δ = 1 − (f1 − min(F, f1)) / (f1 + min(F, f1))   (= 1 when F ≥ f1)
//! ```
//!
//! The caps, in increasing order of sharpness:
//!
//! * **size rule** — more unmapped pattern events than unused targets ⇒
//!   `Δ = 0` (both bound kinds);
//! * **vertex caps** — a matching trace contains every mapped event, so
//!   `f2 ≤ f(x)` for each already-fixed image `x`, and `f2 ≤ f_n(U2)` (the
//!   best unused vertex frequency) while any event is unfixed — Table 2
//!   case 1, sharpened to a *minimum* over fixed images;
//! * **edge-group caps** — every allowed order realizes one ordered pair
//!   from each *required edge group* of the pattern
//!   ([`evematch_pattern::edge_groups`]), so `f2 ≤ Σ_{(a,b) ∈ G} cap(a→b)`
//!   for each group `G`, where `cap(a→b)` is the exact mapped edge
//!   frequency when both ends are fixed (possibly 0 — subsuming the
//!   pattern-existence pruning inside `h`), the best edge from/to the fixed
//!   end otherwise, and the best unused-to-unused edge frequency `f_e(U2)`
//!   when neither end is fixed. Table 2's `f_e`, `k!·f_e` and `ω(p)·f_e`
//!   cases are the fully-unfixed specializations (with `k(k−1) ≤ k!` and
//!   per-boundary sums `≤ ω(p)`, i.e. never looser).

use std::cmp::Reverse;

use evematch_eventlog::{DepGraph, EventId};
use evematch_pattern::EvaluatedPattern;

use crate::mapping::Mapping;
use crate::score::float_ord;

/// Which `h` bounding function the search uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// Section 3.3: `Δ = 1` per remaining pattern (after the size rule).
    /// Cheap but loose.
    Simple,
    /// Section 4 / Table 2 in structure-aware form. Tighter, still without
    /// any subgraph-isomorphism step.
    Tight,
}

/// Target-side tables for the Tight bound, built once per
/// [`MatchContext`](crate::MatchContext) from `G2`.
///
/// Every "best unused" quantity of the bound is the *first unused entry*
/// of one of these lists, so a lookup stops after skipping the used
/// targets at the head of a list instead of scanning all of `V2` or `E2`.
/// Frequencies are `support / trace_count` exactly as [`DepGraph`]
/// normalizes them, and every list is sorted by descending *support*
/// (ties by id), so a first-unused entry carries the bit-identical maximum
/// an exhaustive scan would find.
#[derive(Clone, Debug)]
pub struct BoundTables {
    n: usize,
    /// Normalized vertex frequency of each target.
    vertex_freq: Vec<f64>,
    /// Dense normalized edge frequency, `edge_freq[x * n + y]`.
    edge_freq: Vec<f64>,
    /// Targets by descending vertex support.
    by_vertex: Vec<(EventId, f64)>,
    /// Non-loop edges by descending support.
    by_edge: Vec<(EventId, EventId, f64)>,
    /// Each target's non-loop successors by descending edge support.
    succ: Vec<Vec<(EventId, f64)>>,
    /// Each target's non-loop predecessors by descending edge support.
    pred: Vec<Vec<(EventId, f64)>>,
}

impl BoundTables {
    /// Builds the tables of `dep2`.
    pub fn new(dep2: &DepGraph) -> Self {
        let n = dep2.event_count();
        let ids = || (0..n as u32).map(EventId);
        let vertex_freq: Vec<f64> = ids().map(|v| dep2.vertex_freq(v)).collect();
        let mut edge_freq = vec![0.0; n * n];
        for (a, b) in dep2.edges() {
            edge_freq[a.index() * n + b.index()] = dep2.edge_freq(a, b);
        }
        let mut by_vertex: Vec<(EventId, f64)> =
            ids().map(|v| (v, vertex_freq[v.index()])).collect();
        by_vertex.sort_by_key(|&(v, _)| (Reverse(dep2.vertex_support(v)), v));
        let mut by_edge: Vec<(EventId, EventId, f64)> = dep2
            .edges()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (a, b, edge_freq[a.index() * n + b.index()]))
            .collect();
        by_edge.sort_by_key(|&(a, b, _)| (Reverse(dep2.edge_support(a, b)), a, b));
        BoundTables {
            n,
            vertex_freq,
            edge_freq,
            by_vertex,
            by_edge,
            succ: neighbour_lists(dep2, true),
            pred: neighbour_lists(dep2, false),
        }
    }

    /// Normalized vertex frequency of target `x`.
    #[inline]
    pub fn vertex_freq(&self, x: EventId) -> f64 {
        self.vertex_freq[x.index()]
    }

    /// Normalized frequency of the edge `x -> y` (zero when absent).
    #[inline]
    pub fn edge_freq(&self, x: EventId, y: EventId) -> f64 {
        self.edge_freq[x.index() * self.n + y.index()]
    }

    /// The best unused successor of `x`: the first unused entry of its
    /// sorted successor list.
    fn best_unused_successor(&self, x: EventId, m: &Mapping) -> Option<(EventId, f64)> {
        self.succ[x.index()]
            .iter()
            .copied()
            .find(|&(s, _)| !m.is_used(s))
    }

    /// The best unused predecessor of `y`.
    fn best_unused_predecessor(&self, y: EventId, m: &Mapping) -> Option<(EventId, f64)> {
        self.pred[y.index()]
            .iter()
            .copied()
            .find(|&(p, _)| !m.is_used(p))
    }
}

/// Each target's non-loop successors (`outgoing`) or predecessors, by
/// descending edge support, ties by id.
fn neighbour_lists(dep2: &DepGraph, outgoing: bool) -> Vec<Vec<(EventId, f64)>> {
    let graph = dep2.graph();
    (0..dep2.event_count() as u32)
        .map(|x| {
            let neighbours = if outgoing {
                graph.successors(x)
            } else {
                graph.predecessors(x)
            };
            let x = EventId(x);
            let edge = |y: EventId| if outgoing { (x, y) } else { (y, x) };
            let mut ys: Vec<EventId> = neighbours.iter().map(|&y| EventId(y)).collect();
            ys.retain(|&y| y != x);
            ys.sort_by_key(|&y| {
                let (s, t) = edge(y);
                (Reverse(dep2.edge_support(s, t)), y)
            });
            ys.into_iter()
                .map(|y| {
                    let (s, t) = edge(y);
                    (y, dep2.edge_freq(s, t))
                })
                .collect()
        })
        .collect()
}

/// The bit of target `t` in a read mask (`t mod 64`): a mask with this bit
/// clear proves a lookup never returned `t`; a set bit may be a collision,
/// which only costs a recomputation.
#[inline]
pub(crate) fn target_bit(t: EventId) -> u64 {
    1 << (t.0 % 64)
}

/// Per-search-node precomputation shared by all patterns' bounds.
#[derive(Clone, Copy, Debug)]
pub struct BoundPrecomp {
    /// `f_n(U2)`: highest vertex frequency among unused targets.
    pub fn_u2: f64,
    /// `f_e(U2)`: highest edge frequency with both endpoints unused
    /// (self-loops excluded — pattern events are distinct).
    pub fe_u2: f64,
    /// `|U2|`.
    pub unused: usize,
    /// Read mask (bit `t mod 64` per target `t`, see [`target_bit`]) of
    /// the targets the two lookups returned: using any other target leaves
    /// `f_n(U2)` and `f_e(U2)` unchanged.
    pub(crate) reads: u64,
}

impl BoundPrecomp {
    /// Two first-unused lookups, in `tables`' vertex and edge lists: the
    /// cost is the number of used targets (resp. edges touching one) ahead
    /// of the answer, not `|V2| + |E2|`.
    pub fn new(m: &Mapping, tables: &BoundTables) -> Self {
        debug_assert_eq!(
            m.target_len(),
            tables.n,
            "mapping targets and bound tables must cover the same V2"
        );
        let mut reads = 0;
        let fn_u2 = match tables.by_vertex.iter().find(|&&(v, _)| !m.is_used(v)) {
            Some(&(v, f)) => {
                reads |= target_bit(v);
                f
            }
            None => 0.0,
        };
        let fe_u2 = match tables
            .by_edge
            .iter()
            .find(|&&(a, b, _)| !m.is_used(a) && !m.is_used(b))
        {
            Some(&(a, b, f)) => {
                reads |= target_bit(a) | target_bit(b);
                f
            }
            None => 0.0,
        };
        BoundPrecomp {
            fn_u2,
            fe_u2,
            unused: m.target_len() - m.len(),
            reads,
        }
    }
}

/// Why a pattern's bound collapsed to exactly `0` — i.e. which cap pruned
/// every completion of the partial mapping for this pattern. Surfaced as
/// the `bounds.pruned.*` metrics counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneReason {
    /// More unmapped pattern events than unused targets.
    SizeRule,
    /// `f1 = 0`: `sim(0, f2) = 0` for every `f2`.
    ZeroF1,
    /// A fixed image (or the best unused target) has vertex frequency 0.
    VertexCap,
    /// A required edge group's frequency cap summed to 0 (subsumes the
    /// Proposition-3 existence pruning inside `h`).
    EdgeGroupCap,
}

/// Per-reason tallies of pruned patterns over one scored mapping, added to
/// the `bounds.pruned.*` counters in one step.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PruneCounts {
    pub(crate) size_rule: u64,
    pub(crate) zero_f1: u64,
    pub(crate) vertex_cap: u64,
    pub(crate) edge_group_cap: u64,
}

impl PruneCounts {
    /// The tally of `reason`.
    #[inline]
    fn slot(&mut self, reason: PruneReason) -> &mut u64 {
        match reason {
            PruneReason::SizeRule => &mut self.size_rule,
            PruneReason::ZeroF1 => &mut self.zero_f1,
            PruneReason::VertexCap => &mut self.vertex_cap,
            PruneReason::EdgeGroupCap => &mut self.edge_group_cap,
        }
    }

    /// Tallies one open pattern's prune reason, if it has one.
    #[inline]
    pub(crate) fn add(&mut self, reason: Option<PruneReason>) {
        if let Some(r) = reason {
            *self.slot(r) += 1;
        }
    }

    /// Takes back a reason [`Self::add`] tallied.
    #[inline]
    pub(crate) fn remove(&mut self, reason: Option<PruneReason>) {
        if let Some(r) = reason {
            *self.slot(r) -= 1;
        }
    }
}

/// One pattern's bound `Δ(p)` under a partial mapping, with what it read.
///
/// Once one more target `t` is used (and none freed), the same pattern with
/// the same fixed images has the same bound when its size-rule outcome is
/// unchanged, `t`'s bit is clear in `reads`, `f_n(U2)` is unchanged or still
/// at least `fixed_min`, and `f_e(U2)` is unchanged or `!reads_fe`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PatternBound {
    /// `Δ(p)`.
    pub(crate) value: f64,
    /// Which cap pruned the pattern when `value` is exactly `0`.
    pub(crate) pruned: Option<PruneReason>,
    /// Read mask: bit `t mod 64` is set for every target `t` a
    /// best-unused-neighbour lookup returned. Using one more target whose
    /// bit is clear leaves every such lookup unchanged.
    pub(crate) reads: u64,
    /// The minimum vertex frequency of the fixed images the vertex cap
    /// combined with `f_n(U2)` (`+∞` when no image is fixed), or `−∞` when
    /// `Δ(p)` cannot depend on `f_n(U2)`: the Simple bound, the size rule, a
    /// zero `f1` or a zero vertex cap. A lower `f_n(U2)` that is still at
    /// least this minimum leaves the vertex cap, hence every edge-group
    /// lookup, unchanged.
    pub(crate) fixed_min: f64,
    /// Whether an edge cap returned `f_e(U2)`.
    pub(crate) reads_fe: bool,
}

impl PatternBound {
    /// A bound that read nothing of `U2` beyond `|U2|`.
    pub(crate) fn constant(value: f64, pruned: Option<PruneReason>) -> Self {
        PatternBound {
            value,
            pruned,
            reads: 0,
            fixed_min: f64::NEG_INFINITY,
            reads_fe: false,
        }
    }
}

/// Computes `Δ(p)` for pattern `ep` under the partial mapping `m`: an upper
/// bound of `d(p)` over every completion of `m`.
pub fn upper_bound_partial(
    kind: BoundKind,
    ep: &EvaluatedPattern,
    m: &Mapping,
    tables: &BoundTables,
    pre: &BoundPrecomp,
) -> f64 {
    pattern_bound(kind, ep, unfixed_count(ep, m), m, tables, pre).value
}

/// Number of `ep`'s events `m` leaves unmapped.
#[inline]
pub(crate) fn unfixed_count(ep: &EvaluatedPattern, m: &Mapping) -> u32 {
    ep.events.iter().filter(|&&e| !m.is_mapped(e)).count() as u32
}

/// The bound kernel, given the pattern's unfixed-event count under `m`.
pub(crate) fn pattern_bound(
    kind: BoundKind,
    ep: &EvaluatedPattern,
    unfixed: u32,
    m: &Mapping,
    tables: &BoundTables,
    pre: &BoundPrecomp,
) -> PatternBound {
    // Trivial tightest case: not enough unused targets for the pattern's
    // unfixed events.
    if unfixed as usize > pre.unused {
        return PatternBound::constant(0.0, Some(PruneReason::SizeRule));
    }
    match kind {
        BoundKind::Simple => PatternBound::constant(1.0, None),
        BoundKind::Tight => {
            let f1 = ep.freq;
            if float_ord::is_zero(f1) {
                // sim(0, f2) = 0 for every f2.
                return PatternBound::constant(0.0, Some(PruneReason::ZeroF1));
            }
            // Vertex caps.
            let mut cap = f64::INFINITY;
            let mut fixed_min = f64::INFINITY;
            for &e in &ep.events {
                match m.get(e) {
                    Some(x) => {
                        let f = tables.vertex_freq(x);
                        fixed_min = fixed_min.min(f);
                        cap = cap.min(f);
                    }
                    None => cap = cap.min(pre.fn_u2),
                }
                if float_ord::is_zero(cap) {
                    return PatternBound::constant(0.0, Some(PruneReason::VertexCap));
                }
            }
            let mut bound = PatternBound {
                value: 0.0,
                pruned: None,
                reads: 0,
                fixed_min,
                reads_fe: false,
            };
            // Edge-group caps.
            for group in &ep.edge_groups {
                let mut gsum = 0.0;
                for &(a, b) in group {
                    gsum += edge_cap(a, b, m, tables, pre, &mut bound);
                    if gsum >= cap {
                        break; // this group cannot tighten further
                    }
                }
                cap = cap.min(gsum);
                if float_ord::is_zero(cap) {
                    bound.pruned = Some(PruneReason::EdgeGroupCap);
                    return bound;
                }
            }
            bound.value = if cap >= f1 {
                1.0
            } else {
                1.0 - (f1 - cap) / (f1 + cap)
            };
            bound
        }
    }
}

/// Best possible mapped frequency of the pattern edge `a -> b` given the
/// fixed images of `m`, noting in `bound` what a best-unused lookup read.
fn edge_cap(
    a: EventId,
    b: EventId,
    m: &Mapping,
    tables: &BoundTables,
    pre: &BoundPrecomp,
    bound: &mut PatternBound,
) -> f64 {
    let best = match (m.get(a), m.get(b)) {
        (Some(x), Some(y)) => return tables.edge_freq(x, y),
        // b's image is some unused target.
        (Some(x), None) => tables.best_unused_successor(x, m),
        (None, Some(y)) => tables.best_unused_predecessor(y, m),
        (None, None) => {
            bound.reads_fe = true;
            return pre.fe_u2;
        }
    };
    match best {
        Some((t, f)) => {
            bound.reads |= target_bit(t);
            f
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_eventlog::{EventLog, LogBuilder};
    use evematch_pattern::{EvaluatedPattern, Pattern};

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    /// L2 target: vertices x(0) y(1) z(2) w(3); edges x->y (1/4),
    /// y->z (2/4), w->x (1/4); vertex freqs all 0.5.
    fn l2() -> EventLog {
        let mut b = LogBuilder::new();
        b.push_named_trace(["x", "y", "z"]);
        b.push_named_trace(["y", "z"]);
        b.push_named_trace(["w"]);
        b.push_named_trace(["w", "x"]);
        b.build()
    }

    /// Evaluates a pattern on an L1 where it matches every trace (f1 = 1).
    fn full_freq(p: Pattern, traces: &[&[&str]]) -> EvaluatedPattern {
        let mut b = LogBuilder::new();
        for t in traces {
            b.push_named_trace(t.iter().copied());
        }
        let l1 = b.build();
        let idx = l1.trace_index();
        let ep = EvaluatedPattern::new(p, &l1, &idx);
        assert!(ep.freq > 0.0);
        ep
    }

    fn empty_mapping() -> Mapping {
        Mapping::empty(4, 4)
    }

    #[test]
    fn size_rule_dominates_everything() {
        let ep = full_freq(
            Pattern::seq_of_events([ev(0), ev(1), ev(2)]).unwrap(),
            &[&["A", "B", "C"]],
        );
        let tables = BoundTables::new(&l2().dep_graph());
        // Use up 2 of 4 targets: only 2 unused for a 3-event pattern.
        let m = Mapping::from_pairs(4, 4, [(ev(3), ev(0)), (ev(0), ev(1))]);
        // Note event 0 of the pattern IS mapped; unfixed = {1, 2} = 2 ≤ 2,
        // so shrink further.
        let m2 = {
            let mut m = m.clone();
            m.insert(ev(1), ev(2));
            m
        };
        let pre = BoundPrecomp::new(&m2, &tables);
        assert_eq!(pre.unused, 1);
        // Pattern has unfixed = {2}: 1 ≤ 1 — not pruned by size.
        assert!(upper_bound_partial(BoundKind::Tight, &ep, &m2, &tables, &pre) >= 0.0);
        // A fully-unmapped 3-event pattern with only 2 unused targets is
        // pruned, under both bound kinds. (Target side: a 3-event log.)
        let ep_other = full_freq(
            Pattern::seq_of_events([ev(1), ev(2), ev(3)]).unwrap(),
            &[&["A", "B", "C", "D"]],
        );
        let mut small = LogBuilder::new();
        small.push_named_trace(["x", "y", "z"]);
        let small = BoundTables::new(&small.build().dep_graph());
        let m3 = Mapping::from_pairs(4, 3, [(ev(0), ev(0))]);
        let pre3 = BoundPrecomp::new(&m3, &small);
        assert_eq!(pre3.unused, 2);
        assert_eq!(
            upper_bound_partial(BoundKind::Simple, &ep_other, &m3, &small, &pre3),
            0.0
        );
        assert_eq!(
            upper_bound_partial(BoundKind::Tight, &ep_other, &m3, &small, &pre3),
            0.0
        );
    }

    #[test]
    fn simple_bound_is_one() {
        let ep = full_freq(Pattern::event(0), &[&["A"]]);
        let tables = BoundTables::new(&l2().dep_graph());
        let m = empty_mapping();
        let pre = BoundPrecomp::new(&m, &tables);
        assert_eq!(
            upper_bound_partial(BoundKind::Simple, &ep, &m, &tables, &pre),
            1.0
        );
    }

    #[test]
    fn vertex_pattern_uses_unused_max_frequency() {
        let ep = full_freq(Pattern::event(0), &[&["A"]]); // f1 = 1.0
        let tables = BoundTables::new(&l2().dep_graph());
        let m = empty_mapping();
        let pre = BoundPrecomp::new(&m, &tables);
        // All vertex freqs are 0.5 -> cap 0.5 < f1 = 1.
        let b = upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre);
        let expect = 1.0 - (1.0 - 0.5) / (1.0 + 0.5);
        assert!((b - expect).abs() < 1e-12);
    }

    #[test]
    fn seq_pattern_caps_by_best_unused_edge() {
        let ep = full_freq(
            Pattern::seq_of_events([ev(0), ev(1)]).unwrap(),
            &[&["A", "B"], &["A", "B"]],
        );
        let tables = BoundTables::new(&l2().dep_graph());
        let m = empty_mapping();
        let pre = BoundPrecomp::new(&m, &tables);
        // Best edge anywhere: y->z at 0.5.
        let b = upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre);
        let expect = 1.0 - (1.0 - 0.5) / (1.0 + 0.5);
        assert!((b - expect).abs() < 1e-12);
    }

    #[test]
    fn fixed_source_restricts_the_edge_cap() {
        // SEQ(A, B) with A already mapped to w: B's image must be a
        // successor of w among unused targets — only w->x at 0.25.
        let ep = full_freq(
            Pattern::seq_of_events([ev(0), ev(1)]).unwrap(),
            &[&["A", "B"]],
        );
        let tables = BoundTables::new(&l2().dep_graph());
        let m = Mapping::from_pairs(4, 4, [(ev(0), ev(3))]); // A -> w
        let pre = BoundPrecomp::new(&m, &tables);
        let b = upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre);
        let expect = 1.0 - (1.0 - 0.25) / (1.0 + 0.25);
        assert!((b - expect).abs() < 1e-12);
    }

    #[test]
    fn both_ends_fixed_gives_exact_edge_frequency_even_zero() {
        let ep = full_freq(
            Pattern::seq_of_events([ev(0), ev(1)]).unwrap(),
            &[&["A", "B"]],
        );
        let tables = BoundTables::new(&l2().dep_graph());
        // A -> z, B -> w: edge z->w has frequency 0 -> Δ = 0. The whole
        // subtree is pruned by h, without a subgraph-isomorphism step.
        let m = Mapping::from_pairs(4, 4, [(ev(0), ev(2)), (ev(1), ev(3))]);
        let pre = BoundPrecomp::new(&m, &tables);
        assert_eq!(
            upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre),
            0.0
        );
        // A -> y, B -> z: edge y->z at 0.5 -> positive bound.
        let m = Mapping::from_pairs(4, 4, [(ev(0), ev(1)), (ev(1), ev(2))]);
        let pre = BoundPrecomp::new(&m, &tables);
        let b = upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre);
        assert!((b - (1.0 - 0.5 / 1.5)).abs() < 1e-12);
    }

    #[test]
    fn and_pattern_sums_the_cross_group() {
        // AND(A, B) fully unfixed: group {AB, BA} -> cap = 2·f_e = 1.0 ≥
        // f1, but the vertex cap 0.5 still applies.
        let ep = full_freq(
            Pattern::and_of_events([ev(0), ev(1)]).unwrap(),
            &[&["A", "B"], &["B", "A"]],
        );
        let tables = BoundTables::new(&l2().dep_graph());
        let m = empty_mapping();
        let pre = BoundPrecomp::new(&m, &tables);
        let b = upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre);
        let expect = 1.0 - (1.0 - 0.5) / (1.0 + 0.5);
        assert!((b - expect).abs() < 1e-12);
    }

    #[test]
    fn general_pattern_minimizes_over_boundaries() {
        // SEQ(A, AND(B, C), D), f1 = 1, fully unfixed: groups of sizes
        // 2, 2, 2 -> per-group cap 2·f_e = 1.0; vertex cap 0.5 wins.
        let p = Pattern::seq(vec![
            Pattern::event(0),
            Pattern::and(vec![Pattern::event(1), Pattern::event(2)]).unwrap(),
            Pattern::event(3),
        ])
        .unwrap();
        let ep = full_freq(p, &[&["A", "B", "C", "D"], &["A", "C", "B", "D"]]);
        let tables = BoundTables::new(&l2().dep_graph());
        let m = empty_mapping();
        let pre = BoundPrecomp::new(&m, &tables);
        let b = upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre);
        let expect = 1.0 - (1.0 - 0.5) / (1.0 + 0.5);
        assert!((b - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_f1_bounds_to_zero() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B"]);
        let l1 = b.build();
        let idx = l1.trace_index();
        let ep = EvaluatedPattern::new(Pattern::seq_of_events([ev(1), ev(0)]).unwrap(), &l1, &idx);
        assert_eq!(ep.freq, 0.0);
        let tables = BoundTables::new(&l2().dep_graph());
        let m = empty_mapping();
        let pre = BoundPrecomp::new(&m, &tables);
        assert_eq!(
            upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre),
            0.0
        );
    }

    #[test]
    fn tight_never_exceeds_simple() {
        let p = Pattern::seq(vec![
            Pattern::event(0),
            Pattern::and(vec![Pattern::event(1), Pattern::event(2)]).unwrap(),
        ])
        .unwrap();
        let ep = full_freq(p, &[&["A", "B", "C"], &["A", "C", "B"]]);
        let tables = BoundTables::new(&l2().dep_graph());
        for pairs in [
            vec![],
            vec![(ev(0), ev(1))],
            vec![(ev(0), ev(1)), (ev(3), ev(0))],
        ] {
            let m = Mapping::from_pairs(4, 4, pairs);
            let pre = BoundPrecomp::new(&m, &tables);
            let t = upper_bound_partial(BoundKind::Tight, &ep, &m, &tables, &pre);
            let s = upper_bound_partial(BoundKind::Simple, &ep, &m, &tables, &pre);
            assert!(t <= s + 1e-12);
            assert!((0.0..=1.0).contains(&t));
        }
    }

    #[test]
    fn first_unused_lookups_equal_exhaustive_scans() {
        // Repeated supports, a self-loop (x x) and unequal degrees.
        let mut b = LogBuilder::new();
        b.push_named_trace(["x", "y", "z", "w"]);
        b.push_named_trace(["y", "x", "x", "z"]);
        b.push_named_trace(["w", "y", "z"]);
        b.push_named_trace(["z", "w"]);
        b.push_named_trace(["x", "z", "y"]);
        let dep2 = b.build().dep_graph();
        let tables = BoundTables::new(&dep2);
        let best = |fs: &mut dyn Iterator<Item = f64>| fs.fold(0.0, f64::max).to_bits();
        // Every subset of used targets.
        for used in 0u32..16 {
            let targets = (0..4).filter(|t| used >> t & 1 == 1).map(ev);
            let m = Mapping::from_pairs(4, 4, targets.enumerate().map(|(i, t)| (ev(i as u32), t)));
            let free = |v: &EventId| !m.is_used(*v);
            let pre = BoundPrecomp::new(&m, &tables);
            let vertices = (0..4).map(ev).filter(free);
            assert_eq!(
                pre.fn_u2.to_bits(),
                best(&mut vertices.map(|v| dep2.vertex_freq(v)))
            );
            let edges = dep2.edges().filter(|(a, b)| a != b && free(a) && free(b));
            assert_eq!(
                pre.fe_u2.to_bits(),
                best(&mut edges.map(|(a, b)| dep2.edge_freq(a, b)))
            );
            assert_eq!(pre.unused, 4 - m.len());
            for x in (0..4).map(ev) {
                let graph = dep2.graph();
                let succ = graph.successors(x.0).iter().map(|&s| ev(s));
                let succ = succ
                    .filter(|s| *s != x && free(s))
                    .map(|s| dep2.edge_freq(x, s));
                let got = tables.best_unused_successor(x, &m).map_or(0.0, |(_, f)| f);
                assert_eq!(got.to_bits(), best(&mut { succ }));
                let pred = graph.predecessors(x.0).iter().map(|&p| ev(p));
                let pred = pred
                    .filter(|p| *p != x && free(p))
                    .map(|p| dep2.edge_freq(p, x));
                let got = tables
                    .best_unused_predecessor(x, &m)
                    .map_or(0.0, |(_, f)| f);
                assert_eq!(got.to_bits(), best(&mut { pred }));
            }
        }
    }
}
