//! Matching scores: normal distance (Definition 2) and pattern normal
//! distance (Definition 5).

pub mod float_ord;

use evematch_eventlog::{DepGraph, EventId};
use evematch_pattern::PatternShape;

use crate::bounds::{
    pattern_bound, target_bit, unfixed_count, BoundKind, BoundPrecomp, PatternBound, PruneCounts,
};
use crate::context::MatchContext;
use crate::evaluator::{special_d, Evaluator};
use crate::mapping::Mapping;

/// Frequency similarity `1 − |f1 − f2| / (f1 + f2)` — one summand of the
/// normal distance.
///
/// The both-zero case is defined as `0`: an event pair (or pattern) absent
/// from both logs carries no evidence, so it contributes nothing. (With any
/// other convention the vertex+edge sums of the paper's Example 3 do not
/// come out; only pairs present in at least one log are counted, and a pair
/// present in exactly one contributes `1 − f/f = 0` anyway.)
#[inline]
pub fn sim(f1: f64, f2: f64) -> f64 {
    debug_assert!(f1 >= 0.0 && f2 >= 0.0);
    let total = f1 + f2;
    if float_ord::is_zero(total) {
        0.0
    } else {
        1.0 - (f1 - f2).abs() / total
    }
}

/// Normal distance in **vertex form** (Definition 2 with `v1 = v2`): the
/// summed similarity of individual event frequencies under `m`.
pub fn normal_distance_vertex(dep1: &DepGraph, dep2: &DepGraph, m: &Mapping) -> f64 {
    m.pairs()
        .map(|(a, b)| sim(dep1.vertex_freq(a), dep2.vertex_freq(b)))
        .sum()
}

/// Normal distance in **vertex+edge form** (Definition 2): vertex terms
/// plus the similarity of consecutive-pair frequencies for every mapped
/// event pair.
///
/// Pairs with zero frequency on both sides contribute `0` (see [`sim`]), so
/// only edges present in `G1` need to be enumerated; an edge present only
/// in `G2` contributes `1 − f/f = 0` as well.
pub fn normal_distance_vertex_edge(dep1: &DepGraph, dep2: &DepGraph, m: &Mapping) -> f64 {
    let mut total = normal_distance_vertex(dep1, dep2, m);
    for (a1, b1) in dep1.edges() {
        if a1 == b1 {
            // The diagonal of Definition 2 is the vertex term, already
            // summed above; a self-loop *edge* has no SEQ-pattern analogue.
            continue;
        }
        if let (Some(a2), Some(b2)) = (m.get(a1), m.get(b1)) {
            total += sim(dep1.edge_freq(a1, b1), dep2.edge_freq(a2, b2));
        }
    }
    total
}

/// Pattern normal distance `D^N(M) = Σ_p d(p)` (Definition 5) of a complete
/// or partial mapping: patterns with unmapped events contribute nothing.
pub fn pattern_normal_distance(ctx: &MatchContext, m: &Mapping) -> f64 {
    let mut eval = Evaluator::new(ctx);
    (0..ctx.patterns().len()).filter_map(|i| eval.d(i, m)).sum()
}

/// The `g` and `h` of a partial mapping (Section 3.1): `g` is the realized
/// pattern normal distance over fully-mapped patterns; `h` is the summed
/// upper bound `Δ(p, U)` over the remaining patterns, where each pattern's
/// allowed image set `U` is the union of its already-fixed images and the
/// unused targets `U2`. One walk over the patterns: a complete pattern adds
/// to `g`, an open one to `h`.
pub fn score_partial(eval: &mut Evaluator<'_>, m: &Mapping, bound: BoundKind) -> (f64, f64) {
    score_walk(eval, m, bound, true)
}

/// The `h` of a partial mapping alone: `Σ Δ(p)` over patterns with at
/// least one unmapped event (Sections 3.3 and 4). Fully-mapped patterns
/// are not evaluated at all.
pub fn heuristic_bound(eval: &mut Evaluator<'_>, m: &Mapping, bound: BoundKind) -> f64 {
    score_walk(eval, m, bound, false).1
}

/// From-scratch scoring: [`score_partial`] with `with_g`, else
/// [`heuristic_bound`] (with `g = 0`).
fn score_walk(eval: &mut Evaluator<'_>, m: &Mapping, bound: BoundKind, with_g: bool) -> (f64, f64) {
    let ctx = eval.context();
    let tables = ctx.bound_tables();
    let pre = BoundPrecomp::new(m, tables);
    let (mut g, mut h) = (0.0, 0.0);
    let mut prunes = PruneCounts::default();
    for (i, ep) in ctx.patterns().iter().enumerate() {
        let unfixed = unfixed_count(ep, m);
        if unfixed == 0 {
            if with_g {
                if let Some(d) = eval.d(i, m) {
                    g += d;
                }
            }
            continue;
        }
        let b = pattern_bound(bound, ep, unfixed, m, tables, &pre);
        h += b.value;
        prunes.add(b.pruned);
    }
    eval.count_prunes(&prunes);
    (g, h)
}

/// One pattern's contribution under a [`ParentTable`]'s base mapping: its
/// unfixed-event count and its bound. Once a vertex or edge pattern is
/// complete, the bound's value is its `d(p)`; a complete complex pattern
/// is always re-read through the evaluator's memo, so its value is unused.
#[derive(Clone, Copy, Debug)]
struct Contribution {
    unfixed: u32,
    bound: PatternBound,
}

/// Every pattern's contribution under a base mapping, against which the
/// search rescores each candidate that extends the base by one more used
/// target (an A\* child `M + (a→b)`, or a Kuhn–Munkres augmentation).
///
/// A candidate recomputes only the patterns its step can change: those
/// holding a moved source event, those whose size-rule outcome flips as
/// `|U2|` shrinks by one, and those whose bound read the newly used
/// target. Every other pattern reuses its stored value and re-counts its
/// stored prune reason. `g` and `h` are still summed over every pattern
/// in pattern order, so they are bit-identical to [`score_partial`]'s, and
/// so are the `bounds.pruned.*` counters. A candidate whose `f_n(U2)` or
/// `f_e(U2)` differs from the base's is rescored from scratch.
pub(crate) struct ParentTable {
    bound: BoundKind,
    base: Mapping,
    pre: BoundPrecomp,
    entries: Vec<Contribution>,
    /// Marks the patterns holding a moved source of the candidate being
    /// rescored (cleared again before [`Self::rescore`] returns).
    touched: Vec<bool>,
}

impl ParentTable {
    /// The table of `base`. Side-effect free: no support is evaluated and
    /// no counter moves, so building it never changes a run's metrics.
    pub(crate) fn new(ctx: &MatchContext, base: &Mapping, bound: BoundKind) -> Self {
        let tables = ctx.bound_tables();
        let pre = BoundPrecomp::new(base, tables);
        let entries = ctx
            .patterns()
            .iter()
            .map(|ep| {
                let unfixed = unfixed_count(ep, base);
                let bound = if unfixed == 0 {
                    PatternBound {
                        value: special_d(ctx, ep, base).flatten().unwrap_or(0.0),
                        pruned: None,
                        reads: 0,
                    }
                } else {
                    pattern_bound(bound, ep, unfixed, base, tables, &pre)
                };
                Contribution { unfixed, bound }
            })
            .collect();
        ParentTable {
            bound,
            base: base.clone(),
            pre,
            entries,
            touched: vec![false; ctx.patterns().len()],
        }
    }

    /// `(g, h)` of `m`, which must equal the base except at the sources
    /// `moved`. `g` is summed only `with_g` (A\* tracks it incrementally
    /// and never re-reads a complete pattern); otherwise it is `0`.
    ///
    /// The table serves a step that uses exactly one more target and frees
    /// none; any other step (a Kuhn–Munkres path through a dummy row can
    /// free one) is scored from scratch, as is a step that changes
    /// `f_n(U2)` or `f_e(U2)`.
    pub(crate) fn rescore(
        &mut self,
        eval: &mut Evaluator<'_>,
        m: &Mapping,
        moved: &[EventId],
        with_g: bool,
    ) -> (f64, f64) {
        debug_assert!(
            (0..m.source_len() as u32)
                .map(EventId)
                .all(|e| moved.contains(&e) || m.get(e) == self.base.get(e)),
            "the step may only change the moved sources"
        );
        let Some(new_target) = self.new_target(m, moved) else {
            return score_walk(eval, m, self.bound, with_g);
        };
        let ctx = eval.context();
        let tables = ctx.bound_tables();
        let bit = target_bit(new_target);
        let pre = if self.pre.reads & bit == 0 {
            BoundPrecomp {
                unused: self.pre.unused - 1,
                ..self.pre
            }
        } else {
            let pre = BoundPrecomp::new(m, tables);
            if !float_ord::total_eq(pre.fn_u2, self.pre.fn_u2)
                || !float_ord::total_eq(pre.fe_u2, self.pre.fe_u2)
            {
                return score_walk(eval, m, self.bound, with_g);
            }
            pre
        };
        debug_assert_eq!(pre.unused + 1, self.pre.unused);
        let index = ctx.pattern_index();
        for &a in moved {
            for &p in index.patterns_of(a) {
                self.touched[p] = true;
            }
        }
        // Under the base, a pattern with exactly |U2| unfixed events passes
        // the size rule; with one target fewer it fails it. (An unmoved
        // pattern's unfixed events are unmapped sources other than the
        // moved ones, so while |U1| ≤ |U2| this never happens; the check
        // keeps the table exact without relying on that.)
        let flips = self.pre.unused as u32;
        let (mut g, mut h) = (0.0, 0.0);
        let mut prunes = PruneCounts::default();
        for (i, (ep, e)) in ctx.patterns().iter().zip(&self.entries).enumerate() {
            let touched = self.touched[i];
            let unfixed = if touched {
                unfixed_count(ep, m)
            } else {
                e.unfixed
            };
            if unfixed == 0 {
                if with_g {
                    if !touched && !matches!(ep.shape, PatternShape::Complex) {
                        g += e.bound.value;
                    } else if let Some(d) = eval.d(i, m) {
                        g += d;
                    }
                }
                continue;
            }
            let b = if touched || e.unfixed == flips || e.bound.reads & bit != 0 {
                pattern_bound(self.bound, ep, unfixed, m, tables, &pre)
            } else {
                e.bound
            };
            h += b.value;
            prunes.add(b.pruned);
        }
        for &a in moved {
            for &p in index.patterns_of(a) {
                self.touched[p] = false;
            }
        }
        eval.count_prunes(&prunes);
        (g, h)
    }

    /// The one target `m` uses beyond the base, or `None` when the step
    /// frees a target or uses no new one, or more than one.
    fn new_target(&self, m: &Mapping, moved: &[EventId]) -> Option<EventId> {
        let mut new = None;
        for &a in moved {
            if self.base.get(a).is_some_and(|x| !m.is_used(x)) {
                return None;
            }
            if let Some(y) = m.get(a).filter(|&y| !self.base.is_used(y)) {
                if new.replace(y).is_some() {
                    return None;
                }
            }
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PatternSetBuilder;
    use evematch_eventlog::{EventLog, LogBuilder};
    use evematch_pattern::Pattern;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    fn logs() -> (EventLog, EventLog) {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C"]);
        b1.push_named_trace(["A", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["x", "y"]);
        (b1.build(), b2.build())
    }

    #[test]
    fn sim_basic_properties() {
        assert_eq!(sim(0.0, 0.0), 0.0);
        assert_eq!(sim(1.0, 1.0), 1.0);
        assert_eq!(sim(1.0, 0.0), 0.0);
        assert_eq!(sim(0.0, 0.7), 0.0);
        // Paper's Example 3: sim(1.0, 0.9) = 1 - 0.1/1.9 ≈ 0.947.
        assert!((sim(1.0, 0.9) - 0.947_368_421).abs() < 1e-6);
        // Symmetry.
        assert_eq!(sim(0.3, 0.8), sim(0.8, 0.3));
    }

    #[test]
    fn vertex_distance_of_identity_like_mapping() {
        let (l1, l2) = logs();
        let (d1, d2) = (l1.dep_graph(), l2.dep_graph());
        let m = Mapping::from_pairs(3, 3, [(ev(0), ev(0)), (ev(1), ev(1)), (ev(2), ev(2))]);
        // A~x: sim(1,1)=1; B~y: sim(1,1)=1; C~z: sim(0.5,0.5)=1.
        assert!((normal_distance_vertex(&d1, &d2, &m) - 3.0).abs() < 1e-12);
        // Swap B and C images: sim(1,0.5) twice + 1.
        let m2 = Mapping::from_pairs(3, 3, [(ev(0), ev(0)), (ev(1), ev(2)), (ev(2), ev(1))]);
        let expect = 1.0 + 2.0 * sim(1.0, 0.5);
        assert!((normal_distance_vertex(&d1, &d2, &m2) - expect).abs() < 1e-12);
    }

    #[test]
    fn vertex_edge_distance_adds_edge_terms() {
        let (l1, l2) = logs();
        let (d1, d2) = (l1.dep_graph(), l2.dep_graph());
        let m = Mapping::from_pairs(3, 3, [(ev(0), ev(0)), (ev(1), ev(1)), (ev(2), ev(2))]);
        // Edges in G1: A->B (1.0), B->C (0.5); images x->y (1.0), y->z (0.5).
        assert!((normal_distance_vertex_edge(&d1, &d2, &m) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn partial_mapping_counts_only_mapped_pairs() {
        let (l1, l2) = logs();
        let (d1, d2) = (l1.dep_graph(), l2.dep_graph());
        let m = Mapping::from_pairs(3, 3, [(ev(0), ev(0))]);
        assert!((normal_distance_vertex_edge(&d1, &d2, &m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pattern_distance_equals_vertex_edge_for_special_patterns() {
        let (l1, l2) = logs();
        let (d1, d2) = (l1.dep_graph(), l2.dep_graph());
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        for pairs in [
            vec![(ev(0), ev(0)), (ev(1), ev(1)), (ev(2), ev(2))],
            vec![(ev(0), ev(2)), (ev(1), ev(0)), (ev(2), ev(1))],
            vec![(ev(0), ev(1)), (ev(1), ev(2)), (ev(2), ev(0))],
        ] {
            let m = Mapping::from_pairs(3, 3, pairs);
            let via_patterns = pattern_normal_distance(&ctx, &m);
            let direct = normal_distance_vertex_edge(&d1, &d2, &m);
            assert!(
                (via_patterns - direct).abs() < 1e-9,
                "pattern-based {via_patterns} vs direct {direct} for {m}"
            );
        }
    }

    #[test]
    fn score_partial_g_plus_h_bounds_complete_scores() {
        let (l1, l2) = logs();
        let p = Pattern::seq_of_events([ev(0), ev(1), ev(2)]).unwrap();
        let ctx = MatchContext::new(
            l1,
            l2,
            PatternSetBuilder::new().vertices().edges().complex(p),
        )
        .unwrap();
        let partial = Mapping::from_pairs(3, 3, [(ev(0), ev(0))]);
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let mut eval = Evaluator::new(&ctx);
            let (g, h) = score_partial(&mut eval, &partial, bound);
            // Any completion's true score must be ≤ g + h (admissibility).
            for (b1, b2) in [(ev(1), ev(2)), (ev(2), ev(1))] {
                let mut m = partial.clone();
                m.insert(ev(1), b1);
                m.insert(ev(2), b2);
                let full = pattern_normal_distance(&ctx, &m);
                assert!(
                    full <= g + h + 1e-9,
                    "bound {bound:?}: complete {full} > g+h {g}+{h}"
                );
            }
        }
    }

    /// A random context: `n1` source and `n2` target events, each log one
    /// trace holding every event plus short random traces; vertex and edge
    /// patterns plus three-event composites.
    fn random_context(rng: &mut StdRng, n1: usize, n2: usize) -> MatchContext {
        let mut log = |prefix: &str, n: usize| {
            let mut b = LogBuilder::new();
            let mut all: Vec<usize> = (0..n).collect();
            all.shuffle(rng);
            b.push_named_trace(all.iter().map(|i| format!("{prefix}{i}")));
            for _ in 0..n.max(12) {
                let len = rng.gen_range(2..7);
                b.push_named_trace((0..len).map(|_| format!("{prefix}{}", rng.gen_range(0..n))));
            }
            b.build()
        };
        let (l1, l2) = (log("s", n1), log("t", n2));
        let mut set = PatternSetBuilder::new().vertices().edges();
        for _ in 0..3 {
            let mut evs: Vec<EventId> = (0..n1 as u32).map(EventId).collect();
            evs.shuffle(rng);
            let (a, b, c) = (evs[0], evs[1], evs[2]);
            let p = match rng.gen_range(0..3) {
                0 => Pattern::seq_of_events([a, b, c]),
                1 => Pattern::and_of_events([a, b, c]),
                _ => Pattern::seq(vec![
                    Pattern::event(a.0),
                    Pattern::and_of_events([b, c]).unwrap(),
                ]),
            };
            set = set.complex(p.unwrap());
        }
        MatchContext::new(l1, l2, set).unwrap()
    }

    /// The real rows of a square (dummy-padded) matching, as a mapping.
    fn real_mapping(match_row: &[Option<usize>], n1: usize) -> Mapping {
        Mapping::from_pairs(
            n1,
            match_row.len(),
            match_row[..n1]
                .iter()
                .enumerate()
                .filter_map(|(a, b)| b.map(|b| (EventId(a as u32), EventId(b as u32)))),
        )
    }

    /// The cumulative `bounds.pruned.*` counters of `eval`.
    fn pruned(eval: &mut Evaluator<'_>) -> [u64; 4] {
        let reg = &mut eval.telemetry_mut().registry;
        ["size_rule", "zero_f1", "vertex_cap", "edge_group_cap"].map(|r| {
            let id = reg.counter(&format!("bounds.pruned.{r}"));
            reg.counter_value(id)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Rescoring a candidate against its parent's table gives the
        /// bit-identical `g`, `h` and prune counters of scoring it from
        /// scratch: every A* child `M + (a→b)` of a random base, and random
        /// Kuhn–Munkres augmenting paths over the dummy-padded square
        /// matching (through dummy rows too when `|V1| < |V2|`). Half the
        /// cases have `|V2| > 64`, so read masks collide.
        #[test]
        fn parent_table_rescoring_equals_scoring_from_scratch(
            seed in 0u64..1 << 32,
            wide in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n1 = rng.gen_range(3..7);
            let n2 = if wide == 1 { rng.gen_range(65..72) } else { rng.gen_range(n1..n1 + 3) };
            let ctx = random_context(&mut rng, n1, n2);
            let (n1, n2) = (ctx.n1(), ctx.n2());
            // A random partial square matching with a free row and column.
            let mut cols: Vec<usize> = (0..n2).collect();
            cols.shuffle(&mut rng);
            let mut match_row: Vec<Option<usize>> = vec![None; n2];
            for (row, &col) in match_row.iter_mut().zip(&cols) {
                if rng.gen_bool(0.6) {
                    *row = Some(col);
                }
            }
            let free = rng.gen_range(0..n2);
            match_row[free] = None;
            let base = real_mapping(&match_row, n1);
            // Every child of the base, then augmenting paths.
            let mut steps: Vec<(Mapping, Vec<EventId>)> = Vec::new();
            for a in base.unmapped_sources() {
                for b in base.unused_targets() {
                    let mut child = base.clone();
                    child.insert(a, b);
                    steps.push((child, vec![a]));
                }
            }
            let matched: Vec<usize> = (0..n2).filter(|&r| match_row[r].is_some()).collect();
            let free_rows: Vec<usize> = (0..n2).filter(|&r| match_row[r].is_none()).collect();
            let free_cols: Vec<usize> =
                (0..n2).filter(|c| !match_row.contains(&Some(*c))).collect();
            for _ in 0..16 {
                let mut path = vec![*free_rows.choose(&mut rng).unwrap()];
                let mut inner = matched.clone();
                inner.shuffle(&mut rng);
                path.extend(inner.iter().take(rng.gen_range(0..4)));
                let endpoint = *free_cols.choose(&mut rng).unwrap();
                let mut next = match_row.clone();
                for w in path.windows(2) {
                    next[w[0]] = match_row[w[1]];
                }
                next[path[path.len() - 1]] = Some(endpoint);
                let moved = path.iter().filter(|&&r| r < n1).map(|&r| EventId(r as u32));
                steps.push((real_mapping(&next, n1), moved.collect()));
            }
            for bound in [BoundKind::Simple, BoundKind::Tight] {
                for with_g in [false, true] {
                    let mut table = ParentTable::new(&ctx, &base, bound);
                    let (mut inc, mut fresh) = (Evaluator::new(&ctx), Evaluator::new(&ctx));
                    for (m, moved) in &steps {
                        let (g, h) = table.rescore(&mut inc, m, moved, with_g);
                        let (want_g, want_h) = if with_g {
                            score_partial(&mut fresh, m, bound)
                        } else {
                            (0.0, heuristic_bound(&mut fresh, m, bound))
                        };
                        prop_assert_eq!(g.to_bits(), want_g.to_bits());
                        prop_assert_eq!(h.to_bits(), want_h.to_bits());
                        prop_assert_eq!(pruned(&mut inc), pruned(&mut fresh));
                    }
                    prop_assert_eq!(
                        inc.metrics_snapshot().counters,
                        fresh.metrics_snapshot().counters
                    );
                }
            }
        }
    }
}
