//! The exact A\* event-matching search (Algorithm 1), with anytime
//! degradation under a [`Budget`].
//!
//! Each search-tree node is a partial mapping `(M, U1, U2)` scored by
//! `g + h`: `g` is the pattern normal distance already realized by the
//! fully-mapped patterns, `h` an admissible upper bound on what the
//! remaining patterns can still contribute ([`BoundKind`]). Nodes expand in
//! a fixed event order — the unmapped `V1` event involved in the most
//! patterns first (Section 3.1) — so completed patterns appear, and prune,
//! as early as possible. `g` is computed incrementally from the parent via
//! the inverted pattern index (`P_new`, Section 3.2.1), and mapped-pattern
//! frequencies go through the [`Evaluator`]'s Proposition-3 existence check
//! and memo cache.
//!
//! The frontier holds no mappings. A generated node is an 8-byte arena
//! link — its parent's id and the target its depth's source maps to — and
//! a heap entry `(f, seq, depth, g, id)`. A popped node's mapping is
//! rebuilt from at most `n1` links, and each child is scored on that one
//! mapping: insert `a -> b`, add the completed patterns' `d`, rescore `h`
//! against the parent, remove `a` again.
//!
//! # Anytime behavior
//!
//! With a limited [`Budget`] the search keeps an *incumbent*: a greedy
//! completion (best marginal gain per level) of a promising popped node.
//! The refresh is lazy — it runs on depth-record pops and then at most once
//! every [`INCUMBENT_REFRESH_INTERVAL`] pops, and only when the popped
//! node's `f` still beats the incumbent — so its `O(n1·n2)` cost is
//! amortized instead of multiplying every pop; each completion also ticks
//! the meter, so a deadline is observed inside it.
//!
//! On exhaustion [`ExactMatcher::solve`] returns a complete mapping tagged
//! [`Completion::BudgetExhausted`]. The `optimality_gap` certificate rests
//! on a *frontier-covering invariant*: every complete mapping not yet
//! returned has an ancestor on the frontier. Deterministic (processed- or
//! frontier-cap) exhaustion grace-finishes the interrupted node's children,
//! and a deadline interrupt — which may drop un-generated children —
//! re-pushes the interrupted node itself, so the invariant holds on every
//! exit path and `max frontier f − returned score` bounds the distance to
//! the optimum (admissibility of `h`). When a deadline interrupted an
//! evaluation mid-flight ([`Evaluator::interrupted_evals`]), frontier `f`
//! values may under-estimate, and the gap falls back to the static
//! whole-problem bound instead.
//!
//! Processed-cap budgets are bit-deterministic and *monotone*: a larger cap
//! never returns a worse score. Deterministic exhaustion returns the
//! incumbent alone (no extra completion at exhaustion time), so a
//! larger-cap run — which performs an identical pop/refresh prefix and
//! whose incumbent only ever improves afterwards — always scores at least
//! as high.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

use evematch_eventlog::EventId;

use crate::bounds::BoundKind;
use crate::budget::{Budget, Exhaustion};
use crate::context::MatchContext;
use crate::evaluator::{EvalConfig, Evaluator};
use crate::mapping::Mapping;
use crate::score::{heuristic_bound, ParentTable};
use crate::telemetry::{MetricsSnapshot, ProfileSnapshot, TraceBuffer, WorkCol};

/// How a solver run ended.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Completion {
    /// The solver ran to its natural end; for the exact search the returned
    /// mapping is optimal.
    Finished,
    /// The [`Budget`] was exhausted; the returned mapping is a complete
    /// anytime result with a quality certificate.
    BudgetExhausted {
        /// Which budget limit tripped.
        exhaustion: Exhaustion,
        /// Upper bound on how much better the best mapping could score
        /// than the returned one. For the exact search this is global:
        /// the admissible `f` of the best frontier node minus the
        /// returned score — falling back to the static whole-problem
        /// bound when a deadline interrupted an evaluation mid-flight
        /// (interrupted evaluations can under-estimate frontier scores).
        /// Heuristic solvers report a certificate for their own search
        /// trajectory (see each solver's docs).
        optimality_gap: f64,
    },
}

impl Completion {
    /// `true` when the solver ran to its natural end.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        matches!(self, Completion::Finished)
    }

    /// The optimality gap of a budget-exhausted run, `None` when finished.
    #[must_use]
    pub fn optimality_gap(&self) -> Option<f64> {
        match self {
            Completion::Finished => None,
            Completion::BudgetExhausted { optimality_gap, .. } => Some(*optimality_gap),
        }
    }
}

/// A finished matching: the mapping, its pattern normal distance, how the
/// run ended, and the run's telemetry. Every solver builds it through one
/// constructor, `Evaluator::finish`.
#[derive(Clone, Debug)]
pub struct MatchOutcome {
    /// The (complete) event mapping found.
    pub mapping: Mapping,
    /// Its pattern normal distance `D^N(M)`.
    pub score: f64,
    /// Wall-clock time of the run: the wall of its `search` root phase.
    pub elapsed: Duration,
    /// Whether the run finished or degraded on budget exhaustion.
    pub completion: Completion,
    /// Full telemetry snapshot of the run (see [`crate::telemetry`]): the
    /// deterministic counter/gauge/histogram sections plus wall-clock span
    /// timings kept separately.
    pub metrics: MetricsSnapshot,
    /// The run's bounded JSONL search trace (empty unless the solver
    /// emitted trace points; see [`crate::telemetry::TraceBuffer`]).
    pub trace: TraceBuffer,
    /// The run's hierarchical phase profile (see
    /// [`crate::telemetry::profile`]): deterministic work attribution per
    /// phase plus quarantined wall-clock.
    pub profile: ProfileSnapshot,
}

impl MatchOutcome {
    /// Mappings processed within budget: `M'` created in Line 7 of
    /// Algorithm 1 (resp. candidate augmentations `M_ij` in Line 6 of
    /// Algorithm 3), the quantity plotted in Figures 7c, 8c, 9c and 10c.
    /// Read from the `budget.processed` counter, which is the budget
    /// meter's charged units; grace work after exhaustion is not counted.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.metrics
            .counters
            .get("budget.processed")
            .copied()
            .unwrap_or(0)
    }
}

/// The exact matcher: A\* over partial mappings, guaranteed to return a
/// mapping maximizing the pattern normal distance (given admissible bounds,
/// which both [`BoundKind`]s are) — or, under a limited [`Budget`], the
/// best anytime completion with an optimality-gap certificate.
#[derive(Clone, Copy, Debug)]
pub struct ExactMatcher {
    /// Which `h` bound prunes the search (the paper's Pattern-Simple vs
    /// Pattern-Tight).
    pub bound: BoundKind,
    /// Resource budget for each `solve` call.
    pub budget: Budget,
}

impl ExactMatcher {
    /// An unlimited exact matcher with the given bound.
    pub fn new(bound: BoundKind) -> Self {
        ExactMatcher {
            bound,
            budget: Budget::UNLIMITED,
        }
    }

    /// Sets the resource budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs Algorithm 1 on `ctx`. Never fails: with an unlimited budget the
    /// returned mapping is optimal ([`Completion::Finished`]); on budget
    /// exhaustion the best anytime completion is returned tagged
    /// [`Completion::BudgetExhausted`], which the experiment harness
    /// reports as the paper's "did not finish".
    pub fn solve(&self, ctx: &MatchContext) -> MatchOutcome {
        self.solve_with(ctx, &EvalConfig::from_budget(self.budget))
    }

    /// Like [`ExactMatcher::solve`], but with an explicit [`EvalConfig`]
    /// (budget, shared support cache). `config.budget` replaces
    /// `self.budget` for this run.
    pub fn solve_with(&self, ctx: &MatchContext, config: &EvalConfig) -> MatchOutcome {
        let mut eval = Evaluator::start_search(ctx, config);
        let tele = eval.telemetry_mut();
        let c_pops = tele.registry.counter("search.pops");
        let c_expansions = tele.registry.counter("search.expansions");
        let c_refreshes = tele.registry.counter("search.incumbent_refreshes");
        let g_frontier = tele.registry.gauge("search.frontier_high_water");
        let h_depth = tele
            .registry
            .histogram("search.depth", &[1, 2, 4, 8, 16, 32, 64]);
        let n1 = ctx.n1();
        let order = ctx.pattern_index().expansion_order();
        debug_assert_eq!(order.len(), n1);
        let anytime = !config.budget.is_unlimited();

        let mut tree = Tree::new(&order, ctx.n2());
        let root_h = heuristic_bound(&mut eval, &tree.mapping_of(Tree::ROOT, 0), self.bound);
        let mut queue: BinaryHeap<Node> = BinaryHeap::new();
        let mut seq = 0u64;
        queue.push(Node {
            f: root_h,
            seq,
            depth: 0,
            g: 0.0,
            id: Tree::ROOT,
        });

        // Anytime incumbent: the best greedily-completed mapping so far.
        // Refreshed lazily (depth records, then at most once per
        // INCUMBENT_REFRESH_INTERVAL pops) so the O(n1·n2) completion is an
        // amortized cost, not a per-pop multiplier.
        let mut incumbent: Option<(f64, Mapping)> = None;
        let mut deepest: Option<u32> = None;
        let mut pops_since_refresh: u64 = 0;

        while let Some(node) = queue.pop() {
            let tele = eval.telemetry_mut();
            tele.registry.inc(c_pops);
            let pops = tele.registry.counter_value(c_pops);
            tele.profile.charge(WorkCol::Pops, 1);
            tele.registry.observe(h_depth, u64::from(node.depth));
            if pops % TRACE_POP_INTERVAL == 0 {
                tele.trace.point(
                    "search.pop",
                    vec![
                        ("depth".to_string(), u64::from(node.depth)),
                        ("frontier".to_string(), queue.len() as u64),
                        ("pops".to_string(), pops),
                    ],
                );
            }
            let mut mapping = tree.mapping_of(node.id, node.depth);
            if node.depth as usize == n1 {
                return eval.finish(mapping, node.g, Completion::Finished);
            }
            if anytime {
                let depth_record = deepest.map_or(true, |d| node.depth > d);
                if depth_record {
                    deepest = Some(node.depth);
                }
                pops_since_refresh += 1;
                if (depth_record || pops_since_refresh >= INCUMBENT_REFRESH_INTERVAL)
                    && improves(incumbent.as_ref().map(|(s, _)| *s), node.f)
                {
                    // This subtree can beat the incumbent (f bounds every
                    // completion of the node); refresh with a greedy
                    // completion (uncharged, but meter-ticked) of it.
                    pops_since_refresh = 0;
                    let clean = eval.interrupted_evals();
                    let (cg, cm) = greedy_complete(&mut eval, &order, &mapping);
                    // A completion whose evaluations were fuel-interrupted
                    // carries an untrustworthy score; drop it rather than
                    // poison the incumbent.
                    if eval.interrupted_evals() == clean
                        && improves(incumbent.as_ref().map(|(s, _)| *s), cg)
                    {
                        incumbent = Some((cg, cm));
                        eval.telemetry_mut().registry.inc(c_refreshes);
                    }
                }
            }
            let a = order[node.depth as usize];
            let mut table = ParentTable::new(ctx, &mapping, self.bound);
            let mut charging = true;
            for b in mapping.unused_targets() {
                if charging && !eval.meter_mut().charge_processed() {
                    charging = false;
                    if eval.meter().exhaustion() == Some(Exhaustion::Deadline) {
                        // Past a deadline every millisecond counts; stop
                        // mid-expansion. (Deadline runs make no determinism
                        // or monotonicity promise.)
                        break;
                    }
                    // Processed cap: grace-finish this node's remaining
                    // children uncharged, so the frontier is bit-identical
                    // to a larger-cap run's at this point — the basis of
                    // the monotonicity guarantee.
                }
                // Score the child on the popped node's own mapping, then
                // undo the step: the frontier keeps only the arena link.
                mapping.insert(a, b);
                // P_new: the patterns of `a` the child completes.
                let mut g = node.g;
                for &p_idx in ctx.pattern_index().patterns_of(a) {
                    if let Some(d) = eval.d(p_idx, &mapping) {
                        g += d;
                    }
                }
                let (_, h) = table.rescore(&mut eval, &mapping, &[a], false);
                mapping.remove(a);
                eval.telemetry_mut().registry.inc(c_expansions);
                seq += 1;
                queue.push(Node {
                    f: g + h,
                    seq,
                    depth: node.depth + 1,
                    g,
                    id: tree.push(node.id, b),
                });
            }
            if eval.meter().exhaustion() == Some(Exhaustion::Deadline) {
                // The deadline interrupt may have dropped this node's
                // un-generated children (and under-scored the generated
                // ones via interrupted evaluations); re-push the node
                // itself so the frontier still contains an ancestor of
                // every complete mapping it covered — the gap certificate
                // depends on that invariant.
                seq += 1;
                queue.push(Node { seq, ..node });
            }
            eval.meter_mut().note_frontier(queue.len());
            eval.telemetry_mut()
                .registry
                .gauge_max(g_frontier, queue.len() as u64);
            if eval.meter().is_exhausted() {
                return exhausted_outcome(eval, &tree, queue, incumbent);
            }
        }
        // n1 > 0 guarantees children exist at every level (n1 ≤ n2), so the
        // queue only drains for the trivial empty problem handled above by
        // the root node having depth 0 == n1.
        #[expect(
            clippy::unreachable,
            reason = "structurally unreachable per the argument above; returning a fake result \
                      would hide real bugs"
        )]
        {
            unreachable!("A* queue drained without reaching a complete mapping")
        };
    }
}

/// Between depth-record pops, how many pops may pass before the anytime
/// incumbent is refreshed again. Bounds the amortized per-pop cost of the
/// `O(n1·n2)` greedy completion at `1/64` of one completion.
pub const INCUMBENT_REFRESH_INTERVAL: u64 = 64;

/// Every how many pops the search emits a `search.pop` trace point
/// (deterministic: keyed to the pop counter, never the clock).
pub const TRACE_POP_INTERVAL: u64 = 64;

/// Strict improvement test used for the incumbent and greedy choices; on
/// ties the earlier holder wins, keeping every choice deterministic.
fn improves(best: Option<f64>, candidate: f64) -> bool {
    match best {
        None => true,
        Some(b) => candidate > b,
    }
}

/// Packs up the anytime result after budget exhaustion, then certifies the
/// optimality gap against the frontier (see the module docs).
fn exhausted_outcome(
    mut eval: Evaluator<'_>,
    tree: &Tree<'_>,
    mut queue: BinaryHeap<Node>,
    mut incumbent: Option<(f64, Mapping)>,
) -> MatchOutcome {
    let exhaustion = eval.meter().exhaustion().unwrap_or(Exhaustion::Processed);
    let frontier_best = queue.pop();
    if exhaustion == Exhaustion::Deadline {
        // Deadline runs promise no monotonicity, so spend one grace
        // completion on the most promising frontier node. Deterministic
        // (processed-/frontier-cap) exhaustion returns the incumbent
        // alone — the extra completion would depend on *where* the cap
        // fell and break "a larger cap never scores worse".
        if let Some(best) = &frontier_best {
            if improves(incumbent.as_ref().map(|(s, _)| *s), best.f) {
                let partial = tree.mapping_of(best.id, best.depth);
                let (cg, cm) = greedy_complete(&mut eval, tree.order, &partial);
                if improves(incumbent.as_ref().map(|(s, _)| *s), cg) {
                    incumbent = Some((cg, cm));
                }
            }
        }
    }
    let (score, mapping) = match incumbent {
        Some(pair) => pair,
        // Defensive: every exhaustion path pops (and thereby refreshes
        // from) at least one node first; complete from scratch if that
        // ever changes.
        None => greedy_complete(&mut eval, tree.order, &tree.mapping_of(Tree::ROOT, 0)),
    };
    let optimality_gap = if eval.interrupted_evals() > 0 {
        // Fuel-interrupted evaluations may have under-scored frontier
        // nodes, so the frontier-top certificate is not trustworthy; fall
        // back to the static whole-problem bound (computed fresh and
        // log-scan-free, hence exact).
        crate::baseline::global_gap(eval.context(), score)
    } else {
        // Exhaustion always leaves the frontier non-empty (caps
        // grace-finish the children, deadlines re-push the interrupted
        // node); guard with the static bound all the same rather than
        // ever certifying a greedy completion as optimal.
        frontier_best.map_or_else(
            || crate::baseline::global_gap(eval.context(), score),
            |b| (b.f - score).max(0.0),
        )
    };
    eval.finish(
        mapping,
        score,
        Completion::BudgetExhausted {
            exhaustion,
            optimality_gap,
        },
    )
}

/// Greedily completes `partial` by repeatedly mapping the next unmapped
/// source event — in expansion order — to the unused target with the best
/// marginal realized gain. Ties keep the smallest target id, so the
/// completion is deterministic. The returned score is the pattern normal
/// distance of the completed mapping, recomputed from the partial's own
/// realized patterns rather than trusting a caller-tracked `g` (which can
/// be stale after fuel-interrupted evaluations): every pattern is credited
/// exactly once, fully-mapped ones up front and the rest when their last
/// event maps.
///
/// This work is never charged against the budget, but it *ticks* the meter
/// once per candidate augmentation — the vertex/edge fast paths never scan
/// the log, so without these ticks a large instance could overrun a
/// deadline by a whole completion. (Ticks are no-ops for deadline-free and
/// already-exhausted meters, so capped "grace" completions stay
/// deterministic and exact.)
pub(crate) fn greedy_complete(
    eval: &mut Evaluator<'_>,
    order: &[EventId],
    partial: &Mapping,
) -> (f64, Mapping) {
    let ctx = eval.context();
    let mut m = partial.clone();
    let mut total = 0.0;
    for i in 0..ctx.patterns().len() {
        if let Some(d) = eval.d(i, &m) {
            total += d;
        }
    }
    for &a in order {
        if m.is_mapped(a) {
            continue;
        }
        let targets: Vec<EventId> = m.unused_targets();
        let mut best: Option<(f64, EventId)> = None;
        for b in targets {
            eval.meter_mut().tick();
            eval.telemetry_mut().profile.charge(WorkCol::MeterTicks, 1);
            m.insert(a, b);
            let mut dg = 0.0;
            for &p_idx in ctx.pattern_index().patterns_of(a) {
                if let Some(d) = eval.d(p_idx, &m) {
                    dg += d;
                }
            }
            m.remove(a);
            if improves(best.map(|(d, _)| d), dg) {
                best = Some((dg, b));
            }
        }
        let Some((dg, b)) = best else {
            // Unreachable for well-formed contexts (n1 ≤ n2 leaves a free
            // target per level); bail without panicking if it ever isn't.
            break;
        };
        m.insert(a, b);
        total += dg;
    }
    (total, m)
}

/// Every node the search generated, as an arena of [`Link`]s: a node is
/// its arena index, and its partial mapping is rebuilt on demand by
/// following at most `n1` parent links. A node maps the first `depth`
/// sources of the expansion order, so the link at depth `d` holds the image
/// of `order[d - 1]`.
struct Tree<'o> {
    links: Vec<Link>,
    /// The expansion order: the source mapped at each depth.
    order: &'o [EventId],
    /// `|V2|`, for sizing rebuilt mappings.
    n2: usize,
}

/// A generated node: its parent's arena index and the target its own
/// depth's source maps to (8 bytes, against a cloned `Mapping` of two
/// vectors).
#[derive(Clone, Copy)]
struct Link {
    parent: u32,
    target: EventId,
}

impl<'o> Tree<'o> {
    /// The root (the empty mapping) is arena entry 0; its link is never
    /// followed.
    const ROOT: u32 = 0;

    fn new(order: &'o [EventId], n2: usize) -> Self {
        let root = Link {
            parent: Self::ROOT,
            target: EventId(0),
        };
        Tree {
            links: vec![root],
            order,
            n2,
        }
    }

    /// Adds the child of `parent` that maps its depth's source to
    /// `target`, returning the child's id.
    fn push(&mut self, parent: u32, target: EventId) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "every link is a charged (or grace-finished) child; 2^32 of them would take \
                      34 GB of arena alone"
        )]
        let id = u32::try_from(self.links.len()).expect("A* node ids fit in u32");
        self.links.push(Link { parent, target });
        id
    }

    /// The partial mapping of node `id`, which sits at `depth`.
    fn mapping_of(&self, mut id: u32, depth: u32) -> Mapping {
        let mut m = Mapping::empty(self.order.len(), self.n2);
        for &a in self.order[..depth as usize].iter().rev() {
            let link = self.links[id as usize];
            m.insert(a, link.target);
            id = link.parent;
        }
        m
    }
}

/// A frontier entry ordered by `f = g + h` (max-heap), ties broken toward
/// the earliest-created entry for determinism. The node's mapping lives in
/// the [`Tree`], under `id`.
struct Node {
    f: f64,
    seq: u64,
    depth: u32,
    g: f64,
    id: u32,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Node {}

impl PartialOrd for Node {
    // tidy-allow: no-float-eq -- mandatory PartialOrd boilerplate delegating to the total Ord below; no float partial_cmp involved
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // f ascending, then seq descending: BinaryHeap pops the max, i.e.
        // the highest f; among equals, the smallest seq (earliest created).
        self.f
            .total_cmp(&other.f)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PatternSetBuilder;
    use crate::score::pattern_normal_distance;
    use evematch_eventlog::{EventLog, LogBuilder};
    use evematch_pattern::Pattern;

    use evematch_eventlog::EventId;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    /// L1 over {A,B,C}, L2 over {x,y,z} — isomorphic logs where identity
    /// (by interning order) is the unique best mapping.
    fn isomorphic_logs() -> (EventLog, EventLog) {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C"]);
        b1.push_named_trace(["A", "B", "C"]);
        b1.push_named_trace(["A", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["x", "y"]);
        (b1.build(), b2.build())
    }

    fn exhaustive_best(ctx: &MatchContext) -> f64 {
        // Brute force over all injective mappings (tiny n only).
        fn go(ctx: &MatchContext, m: &mut Mapping, v1: usize, best: &mut f64) {
            if v1 == ctx.n1() {
                *best = best.max(pattern_normal_distance(ctx, m));
                return;
            }
            for b in m.unused_targets() {
                m.insert(ev(v1 as u32), b);
                go(ctx, m, v1 + 1, best);
                m.remove(ev(v1 as u32));
            }
        }
        let mut m = Mapping::empty(ctx.n1(), ctx.n2());
        let mut best = f64::NEG_INFINITY;
        go(ctx, &mut m, 0, &mut best);
        best
    }

    #[test]
    fn finds_the_identity_mapping_on_isomorphic_logs() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let out = ExactMatcher::new(bound).solve(&ctx);
            assert!(out.completion.is_finished());
            assert!(out.mapping.is_complete());
            for i in 0..3u32 {
                assert_eq!(out.mapping.get(ev(i)), Some(ev(i)), "bound {bound:?}");
            }
        }
    }

    #[test]
    fn score_matches_pattern_normal_distance() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let out = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let recomputed = pattern_normal_distance(&ctx, &out.mapping);
        assert!((out.score - recomputed).abs() < 1e-9);
    }

    #[test]
    fn both_bounds_reach_the_exhaustive_optimum() {
        // Heterogeneous little logs with an AND composite.
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C", "D"]);
        b1.push_named_trace(["A", "C", "B", "D"]);
        b1.push_named_trace(["A", "B", "D"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["p", "q", "r", "s"]);
        b2.push_named_trace(["p", "r", "q", "s"]);
        b2.push_named_trace(["p", "q", "s"]);
        let pat = Pattern::seq(vec![
            Pattern::event(0),
            Pattern::and(vec![Pattern::event(1), Pattern::event(2)]).unwrap(),
            Pattern::event(3),
        ])
        .unwrap();
        let ctx = MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges().complex(pat),
        )
        .unwrap();
        let best = exhaustive_best(&ctx);
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let out = ExactMatcher::new(bound).solve(&ctx);
            assert!(
                (out.score - best).abs() < 1e-9,
                "bound {bound:?}: got {} want {best}",
                out.score
            );
        }
    }

    #[test]
    fn tight_bound_processes_no_more_mappings_than_simple() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let simple = ExactMatcher::new(BoundKind::Simple).solve(&ctx);
        let tight = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        assert!(tight.processed() <= simple.processed());
        assert!((tight.score - simple.score).abs() < 1e-9);
    }

    #[test]
    fn smaller_source_vocabulary_is_supported() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["x", "y"]);
        let ctx = MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges(),
        )
        .unwrap();
        let out = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        assert_eq!(out.mapping.len(), 2);
        // A -> x, B -> y maximizes both vertex and edge similarity.
        assert_eq!(out.mapping.get(ev(0)), Some(ev(0)));
        assert_eq!(out.mapping.get(ev(1)), Some(ev(1)));
    }

    #[test]
    fn empty_source_returns_empty_mapping() {
        let l1 = LogBuilder::new().build();
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x"]);
        let ctx = MatchContext::new(l1, b2.build(), PatternSetBuilder::new().vertices()).unwrap();
        let out = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        assert!(out.mapping.is_empty());
        assert_eq!(out.score, 0.0);
        assert!(out.completion.is_finished());
    }

    #[test]
    fn exhausted_budget_still_returns_a_complete_mapping() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        for cap in [0, 1, 2, 5] {
            let out = ExactMatcher::new(BoundKind::Simple)
                .with_budget(Budget::UNLIMITED.with_processed_cap(cap))
                .solve(&ctx);
            assert!(out.mapping.is_complete(), "cap {cap}");
            assert!(out.processed() <= cap, "cap {cap}");
            let Completion::BudgetExhausted {
                exhaustion,
                optimality_gap,
            } = out.completion
            else {
                panic!(
                    "cap {cap}: expected BudgetExhausted, got {:?}",
                    out.completion
                );
            };
            assert_eq!(exhaustion, Exhaustion::Processed);
            assert!(optimality_gap.is_finite() && optimality_gap >= 0.0);
            // The returned score is the true score of the returned mapping.
            let recomputed = pattern_normal_distance(&ctx, &out.mapping);
            assert!((out.score - recomputed).abs() < 1e-9, "cap {cap}");
        }
    }

    #[test]
    fn anytime_score_is_within_the_reported_gap_of_the_optimum() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let best = exhaustive_best(&ctx);
        for cap in [1, 3, 7] {
            let out = ExactMatcher::new(BoundKind::Tight)
                .with_budget(Budget::UNLIMITED.with_processed_cap(cap))
                .solve(&ctx);
            let gap = out.completion.optimality_gap().unwrap_or(0.0);
            assert!(
                best <= out.score + gap + 1e-9,
                "cap {cap}: optimum {best} exceeds score {} + gap {gap}",
                out.score
            );
        }
    }

    #[test]
    fn elapsed_is_exactly_the_search_root_wall() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices()).unwrap();
        let out = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let [search] = &out.profile.roots[..] else {
            panic!("one root expected: {:?}", out.profile.roots);
        };
        assert_eq!(search.name, "search");
        assert_eq!(out.elapsed, Duration::from_nanos(search.wall_nanos));
    }

    #[test]
    fn zero_deadline_returns_a_certified_complete_mapping() {
        // A deadline that has already elapsed trips at the very first
        // meter poll — the path that used to drop the interrupted node's
        // children and (with an empty frontier) falsely certify gap 0.
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let best = exhaustive_best(&ctx);
        let out = ExactMatcher::new(BoundKind::Tight)
            .with_budget(Budget::UNLIMITED.with_deadline(Duration::ZERO))
            .solve(&ctx);
        assert!(out.mapping.is_complete());
        let Completion::BudgetExhausted {
            exhaustion,
            optimality_gap,
        } = out.completion
        else {
            panic!("expected BudgetExhausted, got {:?}", out.completion);
        };
        assert_eq!(exhaustion, Exhaustion::Deadline);
        assert!(optimality_gap.is_finite() && optimality_gap >= 0.0);
        // The gap certificate must hold on the deadline path too.
        assert!(
            best <= out.score + optimality_gap + 1e-9,
            "optimum {best} exceeds score {} + gap {optimality_gap}",
            out.score
        );
        // The returned score is the true score of the returned mapping.
        let recomputed = pattern_normal_distance(&ctx, &out.mapping);
        assert!((out.score - recomputed).abs() < 1e-9);
        // The refused first unit was never performed, so nothing counts.
        assert_eq!(out.processed(), 0);
    }

    #[test]
    fn frontier_cap_degrades_gracefully() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let out = ExactMatcher::new(BoundKind::Tight)
            .with_budget(Budget::UNLIMITED.with_frontier_cap(1))
            .solve(&ctx);
        assert!(out.mapping.is_complete());
        assert!(matches!(
            out.completion,
            Completion::BudgetExhausted {
                exhaustion: Exhaustion::Frontier,
                ..
            }
        ));
    }

    #[test]
    fn a_frontier_node_is_an_8_byte_link_and_a_32_byte_heap_entry() {
        assert_eq!(size_of::<Link>(), 8);
        assert_eq!(size_of::<Node>(), 32);
    }

    #[test]
    fn rebuilt_mappings_follow_the_parent_links() {
        let order = [ev(2), ev(0), ev(1)];
        let mut tree = Tree::new(&order, 4);
        let a = tree.push(Tree::ROOT, ev(3));
        let b = tree.push(a, ev(1));
        let c = tree.push(b, ev(0));
        assert_eq!(tree.mapping_of(Tree::ROOT, 0), Mapping::empty(3, 4));
        assert_eq!(
            tree.mapping_of(b, 2),
            Mapping::from_pairs(3, 4, [(ev(2), ev(3)), (ev(0), ev(1))])
        );
        assert_eq!(
            tree.mapping_of(c, 3),
            Mapping::from_pairs(3, 4, [(ev(2), ev(3)), (ev(0), ev(1)), (ev(1), ev(0))])
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (l1, l2) = isomorphic_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let a = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let b = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.processed(), b.processed());
    }
}
