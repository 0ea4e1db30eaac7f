//! Matching scores: normal distance (Definition 2) and pattern normal
//! distance (Definition 5).

pub mod float_ord;

use evematch_eventlog::{DepGraph, EventId};
use evematch_pattern::PatternShape;

use crate::bounds::{
    pattern_bound, target_bit, unfixed_count, BoundKind, BoundPrecomp, PatternBound, PruneCounts,
    PruneReason,
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

/// Every pattern's contribution under a base mapping, against which the
/// search rescores each candidate that extends the base by one more used
/// target (an A\* child `M + (a→b)`, or a Kuhn–Munkres augmentation).
///
/// The table is one dense [`Entry`] per pattern in pattern order (unfixed
/// count, stored bound or `d`, read mask, fixed-image minimum, `f_e(U2)`
/// read, prune reason) plus the base's open patterns and their prune
/// tallies. One table serves a whole solve: each pop, level or round
/// [`refill`](Self::refill)s it in place.
///
/// A candidate recomputes only the patterns its step can change: those
/// holding a moved source event, those whose size-rule outcome flips as
/// `|U2|` shrinks by one, those whose bound read the newly used target,
/// and, when the step lowers `f_n(U2)` or `f_e(U2)`, those whose
/// fixed-image minimum exceeds the new `f_n(U2)` or that read `f_e(U2)`.
/// Every other pattern adds its stored value. `g` and `h` are still summed
/// in pattern order, so they are bit-identical to [`score_partial`]'s: a
/// Kuhn–Munkres candidate walks every pattern and feeds `+0.0` to the sum
/// a pattern does not belong to, which is exact because every stored
/// value, hence every partial sum, is non-negative. The `bounds.pruned.*`
/// counts are the base's tallies plus the recomputed patterns' changes.
pub(crate) struct ParentTable {
    bound: BoundKind,
    base: Mapping,
    pre: BoundPrecomp,
    /// One entry per pattern, in pattern order.
    entries: Vec<Entry>,
    /// The base's open patterns, ascending.
    open: Vec<u32>,
    /// The base's prune reasons, tallied over its open patterns.
    tallies: PruneCounts,
}

/// One pattern's row of a [`ParentTable`].
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// `Δ(p)` of an open pattern, `d(p)` of a complete vertex or edge
    /// pattern, `0` for a complete complex one (re-read through the
    /// evaluator's memo).
    value: f64,
    /// [`PatternBound::fixed_min`] (`−∞` once complete).
    fixed_min: f64,
    /// [`PatternBound::reads`] (`0` once complete).
    reads: u64,
    /// Unfixed events under the base.
    unfixed: u32,
    /// [`PatternBound::pruned`].
    pruned: Option<PruneReason>,
    /// [`PatternBound::reads_fe`].
    reads_fe: bool,
    /// Whether the pattern is complex: its `d` always comes from the
    /// evaluator.
    complex: bool,
    /// Whether the pattern holds a moved source of the candidate being
    /// rescored (cleared again before [`ParentTable::rescore`] returns).
    touched: bool,
}

/// What one step changes beyond the moved sources' patterns.
struct Step {
    /// The read-mask bit of the newly used target.
    bit: u64,
    /// Under the base, a pattern with exactly `|U2|` unfixed events passes
    /// the size rule; with one target fewer it fails it. (An unmoved
    /// pattern's unfixed events are unmapped sources other than the moved
    /// ones, so while `|U1| ≤ |U2|` this never happens; the check keeps the
    /// table exact without relying on that.)
    flips: u32,
    /// The lowered `f_n(U2)`, or `+∞` when it is unchanged.
    fn_cut: f64,
    /// Whether `f_e(U2)` dropped.
    fe_dropped: bool,
}

impl Entry {
    /// Whether the stored contribution may not hold after `step` (see
    /// [`PatternBound`] for when it provably does).
    #[inline]
    fn is_dirty(&self, step: &Step) -> bool {
        self.touched
            || self.unfixed == step.flips
            || self.reads & step.bit != 0
            || self.fixed_min > step.fn_cut
            || (self.reads_fe && step.fe_dropped)
    }
}

impl ParentTable {
    /// An empty table for `ctx`'s patterns under `bound`; [`Self::refill`]
    /// sets its base.
    pub(crate) fn new(ctx: &MatchContext, bound: BoundKind) -> Self {
        let len = ctx.patterns().len();
        let base = Mapping::empty(ctx.n1(), ctx.n2());
        ParentTable {
            bound,
            pre: BoundPrecomp::new(&base, ctx.bound_tables()),
            base,
            entries: Vec::with_capacity(len),
            open: Vec::with_capacity(len),
            tallies: PruneCounts::default(),
        }
    }

    /// Makes `base` the table's base, reusing its storage. Side-effect
    /// free: no support is evaluated and no counter moves, so refilling
    /// never changes a run's metrics.
    pub(crate) fn refill(&mut self, ctx: &MatchContext, base: &Mapping) {
        let tables = ctx.bound_tables();
        self.base.clone_from(base);
        self.pre = BoundPrecomp::new(base, tables);
        self.entries.clear();
        self.open.clear();
        self.tallies = PruneCounts::default();
        for (i, ep) in ctx.patterns().iter().enumerate() {
            let unfixed = unfixed_count(ep, base);
            let b = if unfixed == 0 {
                PatternBound::constant(special_d(ctx, ep, base).flatten().unwrap_or(0.0), None)
            } else {
                self.open.push(i as u32);
                let b = pattern_bound(self.bound, ep, unfixed, base, tables, &self.pre);
                self.tallies.add(b.pruned);
                b
            };
            debug_assert!(
                b.value.is_finite() && b.value >= 0.0,
                "the +0.0 argument needs finite non-negative contributions"
            );
            self.entries.push(Entry {
                value: b.value,
                fixed_min: b.fixed_min,
                reads: b.reads,
                unfixed,
                pruned: b.pruned,
                reads_fe: b.reads_fe,
                complex: matches!(ep.shape, PatternShape::Complex),
                touched: false,
            });
        }
    }

    /// `(g, h)` of `m`, which must equal the base except at the sources
    /// `moved`. `g` is summed only `with_g` (A\* tracks it incrementally
    /// and never re-reads a complete pattern); otherwise it is `0`, every
    /// moved source must be mapped in `m`, and only the base's open
    /// patterns are walked.
    ///
    /// The table serves a step that uses exactly one more target and frees
    /// none; any other step (a Kuhn–Munkres path through a dummy row can
    /// free one) is scored from scratch.
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
        debug_assert!(
            with_g || moved.iter().all(|&a| m.is_mapped(a)),
            "a step scored without g keeps every complete pattern complete"
        );
        let Some(new_target) = self.new_target(m, moved) else {
            return score_walk(eval, m, self.bound, with_g);
        };
        let ctx = eval.context();
        let bit = target_bit(new_target);
        let pre = if self.pre.reads & bit == 0 {
            BoundPrecomp {
                unused: self.pre.unused - 1,
                ..self.pre
            }
        } else {
            BoundPrecomp::new(m, ctx.bound_tables())
        };
        debug_assert_eq!(pre.unused + 1, self.pre.unused);
        let fn_dropped = !float_ord::total_eq(pre.fn_u2, self.pre.fn_u2);
        let step = Step {
            bit,
            flips: self.pre.unused as u32,
            fn_cut: if fn_dropped { pre.fn_u2 } else { f64::INFINITY },
            fe_dropped: !float_ord::total_eq(pre.fe_u2, self.pre.fe_u2),
        };
        let index = ctx.pattern_index();
        for &a in moved {
            for &p in index.patterns_of(a) {
                self.entries[p].touched = true;
            }
        }
        let mut prunes = self.tallies;
        let (mut g, mut h) = (0.0, 0.0);
        if with_g {
            for (i, e) in self.entries.iter().enumerate() {
                if e.is_dirty(&step) {
                    let (dg, dh) = self.recompute(eval, i, m, &pre, &mut prunes, true);
                    g += dg;
                    h += dh;
                } else if e.unfixed == 0 && e.complex {
                    if let Some(d) = eval.d(i, m) {
                        g += d;
                    }
                } else {
                    let open = e.unfixed != 0;
                    g += if open { 0.0 } else { e.value };
                    h += if open { e.value } else { 0.0 };
                }
            }
        } else {
            for &i in &self.open {
                let (i, e) = (i as usize, &self.entries[i as usize]);
                h += if e.is_dirty(&step) {
                    self.recompute(eval, i, m, &pre, &mut prunes, false).1
                } else {
                    e.value
                };
            }
        }
        for &a in moved {
            for &p in index.patterns_of(a) {
                self.entries[p].touched = false;
            }
        }
        eval.count_prunes(&prunes);
        (g, h)
    }

    /// Pattern `i`'s `(g, h)` contributions under `m` (one of them `0`),
    /// moving its prune reason in `prunes` from the base's to `m`'s. Kept
    /// out of line, so the walk over clean patterns stays a short loop.
    #[inline(never)]
    fn recompute(
        &self,
        eval: &mut Evaluator<'_>,
        i: usize,
        m: &Mapping,
        pre: &BoundPrecomp,
        prunes: &mut PruneCounts,
        with_g: bool,
    ) -> (f64, f64) {
        let ctx = eval.context();
        let (ep, e) = (&ctx.patterns()[i], &self.entries[i]);
        let unfixed = if e.touched {
            unfixed_count(ep, m)
        } else {
            e.unfixed
        };
        prunes.remove(e.pruned);
        if unfixed == 0 {
            let d = if with_g { eval.d(i, m) } else { None };
            return (d.unwrap_or(0.0), 0.0);
        }
        let b = pattern_bound(self.bound, ep, unfixed, m, ctx.bound_tables(), pre);
        prunes.add(b.pruned);
        (0.0, b.value)
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
                    let mut table = ParentTable::new(&ctx, bound);
                    table.refill(&ctx, &base);
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
