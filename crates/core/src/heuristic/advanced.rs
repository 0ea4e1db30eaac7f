//! Heuristic-Advanced: Algorithms 3 and 4 — Kuhn–Munkres over estimated
//! scores, with candidate augmentations re-ranked by the true pattern
//! bounds.
//!
//! The estimated score of a candidate pair (Equation 2),
//!
//! ```text
//! θ(v1, v2) = Σ_{p ∋ v1} (1/|p|) · (1 − |f1(p) − f2(v2)| / (f1(p) + f2(v2)))
//! ```
//!
//! uses the *vertex* frequency of `v2` as a stand-in for the frequency of
//! the would-be mapped pattern, giving a global per-pair estimate that is
//! exact for vertex patterns. A feasible labeling `ℓ` with
//! `ℓ(v1) + ℓ(v2) ≥ θ(v1, v2)` upper-bounds the total estimate of any
//! matching; the matching is grown one augmenting path at a time along
//! equality edges, with the dual update of Equations (3)/(4) exposing new
//! edges (Algorithm 4 grows each alternating tree until it spans all of
//! `V2`, so *every* unmatched target yields a candidate path —
//! Proposition 5). Among all candidate augmentations of all roots, the one
//! with the best true `g + h` is committed (Algorithm 3 line 7) — this is
//! what lets the method revise earlier pairs (via alternating paths) and
//! look beyond the next single event.
//!
//! For vertex-only pattern sets this reduces to exact Kuhn–Munkres, so the
//! returned mapping is optimal (Proposition 6, Theorem 2).

use evematch_eventlog::EventId;

use crate::bounds::BoundKind;
use crate::budget::Budget;
use crate::context::MatchContext;
use crate::evaluator::{EvalConfig, Evaluator};
use crate::exact::{greedy_complete, Completion, MatchOutcome};
use crate::mapping::Mapping;
use crate::score::{score_partial, sim, ParentTable};

/// Slack comparisons tolerate this much floating-point drift.
const EPS: f64 = 1e-9;

/// The advanced heuristic matcher (Algorithm 3).
#[derive(Clone, Copy, Debug)]
pub struct AdvancedHeuristic {
    /// Which `h` bound re-ranks candidate augmentations.
    pub bound: BoundKind,
    /// Sharpen the Equation-2 estimated scores with one structural
    /// similarity-propagation pass before the Kuhn–Munkres loop (default
    /// on; disable for the ablation that isolates the paper's raw
    /// estimator).
    ///
    /// Equation 2 estimates `f2(M(p))` by the *vertex* frequency of the
    /// candidate image — exact for vertex patterns (Section 5.1.1
    /// property 2) but blind to position when many events share
    /// frequencies, in which case the KM loop converges to a misleading
    /// Σθ-optimum. Sharpening multiplies θ by a propagated-similarity
    /// factor so structurally incompatible pairs lose their estimate.
    /// Vertex-only pattern sets are never sharpened (the estimator is
    /// already exact there), which keeps Proposition 6 intact.
    pub sharpen: bool,
    /// Run the pattern-score local refinement after the Kuhn–Munkres loop
    /// (default on; disable for the ablation that isolates Algorithm 3).
    ///
    /// Kuhn–Munkres always terminates on a matching maximizing the
    /// *estimated* score Σθ; when the Equation-2 estimate is misleading
    /// (e.g. many events share vertex frequencies), that matching can sit
    /// far from the pattern optimum. The refinement realizes the paper's
    /// stated intuition (2) — "modify the previously determined matching
    /// referring to the patterns" — by hill-climbing the true pattern
    /// normal distance with image swaps and moves until a local optimum.
    /// Strictly-improving moves cannot leave the optimum for vertex-only
    /// pattern sets, so Proposition 6 is preserved.
    pub refine: bool,
    /// Resource budget for each `solve` call. On exhaustion during the
    /// Kuhn–Munkres loop the partial matching is completed greedily and the
    /// result carries a *path-local* `optimality_gap` (bounding completions
    /// of the interrupted matching, not the global optimum); exhaustion
    /// during refinement returns the current complete mapping with gap 0.
    pub budget: Budget,
}

impl AdvancedHeuristic {
    /// An advanced heuristic using the given bound, with sharpening and
    /// refinement on.
    pub fn new(bound: BoundKind) -> Self {
        AdvancedHeuristic {
            bound,
            sharpen: true,
            refine: true,
            budget: Budget::UNLIMITED,
        }
    }

    /// Sets the resource budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Disables (or re-enables) the estimated-score sharpening.
    pub fn with_sharpening(mut self, sharpen: bool) -> Self {
        self.sharpen = sharpen;
        self
    }

    /// Disables (or re-enables) the local refinement pass.
    pub fn with_refinement(mut self, refine: bool) -> Self {
        self.refine = refine;
        self
    }

    /// Runs Algorithm 3. Infallible — at most `n` augmentations happen,
    /// completed greedily if the budget trips first.
    pub fn solve(&self, ctx: &MatchContext) -> MatchOutcome {
        self.solve_with(ctx, &EvalConfig::from_budget(self.budget))
    }

    /// Like [`AdvancedHeuristic::solve`], but with an explicit
    /// [`EvalConfig`] (`config.budget` replaces `self.budget`). The KM
    /// rounds themselves stay sequential; the configuration's shared
    /// support cache lets this run reuse — and warm — scans paid for by
    /// other methods on the same context data.
    pub fn solve_with(&self, ctx: &MatchContext, config: &EvalConfig) -> MatchOutcome {
        let mut eval = Evaluator::start_search(ctx, config);
        let tele = eval.telemetry_mut();
        let c_rounds = tele.registry.counter("km.rounds");
        let c_rescores = tele.registry.counter("km.rescores");
        let n1 = ctx.n1();
        // Square the instance: dummy rows n1..n with θ ≡ 0 absorb the
        // surplus targets (the paper's "artificial events").
        let n = ctx.n2();

        if n == 0 {
            return eval.finish(Mapping::empty(0, 0), 0.0, Completion::Finished);
        }

        let theta = estimated_scores(ctx, n, self.sharpen);
        // Initial feasible labeling: ℓ(v1) = max_v2 θ(v1, v2), ℓ(v2) = 0.
        let mut l1: Vec<f64> = theta
            .iter()
            .map(|row| row.iter().copied().fold(0.0, f64::max))
            .collect();
        let mut l2: Vec<f64> = vec![0.0; n];
        let mut match_row: Vec<Option<usize>> = vec![None; n];
        let mut match_col: Vec<Option<usize>> = vec![None; n];

        'km: while match_row.iter().any(Option::is_none) {
            let tele = eval.telemetry_mut();
            tele.registry.inc(c_rounds);
            tele.profile.charge(crate::telemetry::WorkCol::Pops, 1);
            // Build the maximal alternating tree of every unmatched root
            // and score every augmenting path it offers. Candidates are
            // ranked by true `g + h`; ties (ubiquitous early, when few
            // patterns are complete) fall back to the Kuhn–Munkres
            // objective Σθ of the augmented matching, so the search
            // degrades gracefully to exact KM on the estimated scores.
            let mut best: Option<(f64, f64, usize, usize)> = None; // (g+h, Σθ, root, endpoint)
            let mut trees: Vec<(usize, Tree)> = Vec::new();
            let mut table = ParentTable::new(ctx, &to_mapping(&match_row, n1, n), self.bound);
            let mut moved: Vec<EventId> = Vec::new();
            for root in (0..n).filter(|&r| match_row[r].is_none()) {
                let tree = alternating_tree(root, &theta, &l1, &l2, &match_col);
                for &endpoint in &tree.endpoints {
                    if !eval.meter_mut().charge_processed() {
                        // Budget tripped mid-iteration: drop the half-ranked
                        // candidates and complete the current matching below.
                        break 'km;
                    }
                    // The path's real rows are the sources the step moves.
                    let mut mr = match_row.clone();
                    moved.clear();
                    for (i, j) in augmenting_path(&match_row, &tree, endpoint) {
                        mr[i] = Some(j);
                        if i < n1 {
                            moved.push(EventId(i as u32));
                        }
                    }
                    let mapping = to_mapping(&mr, n1, n);
                    let (g, h) = table.rescore(&mut eval, &mapping, &moved, true);
                    eval.telemetry_mut().registry.inc(c_rescores);
                    let f = g + h;
                    let q: f64 = mr
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &j)| j.map(|j| theta[i][j]))
                        .sum();
                    let better = match best {
                        None => true,
                        Some((bf, bq, _, _)) => f > bf + EPS || (f > bf - EPS && q > bq + EPS),
                    };
                    if better {
                        best = Some((f, q, root, endpoint));
                    }
                }
                trees.push((root, tree));
            }
            #[expect(
                clippy::expect_used,
                reason = "Proposition 5: a maximal alternating tree under a feasible labeling \
                          always exposes an augmenting path, so at least one candidate was recorded"
            )]
            let (_, _, root, endpoint) =
                best.expect("Proposition 5: every maximal tree has an augmenting path");
            #[expect(
                clippy::expect_used,
                reason = "root was taken from `best`, which is only set while pushing that root's \
                          tree into `trees`"
            )]
            let tree = trees
                .into_iter()
                .find_map(|(r, t)| (r == root).then_some(t))
                .expect("winning root's tree was built");
            // Adopt the winning tree's labeling and commit its augmentation.
            l1 = tree.l1.clone();
            l2 = tree.l2.clone();
            let path: Vec<(usize, usize)> = augmenting_path(&match_row, &tree, endpoint).collect();
            for (i, j) in path {
                match_row[i] = Some(j);
                match_col[j] = Some(i);
            }
            if eval.meter().is_exhausted() {
                // A deadline can latch inside the evaluator's ticks.
                break;
            }
        }

        let mut mapping = to_mapping(&match_row, n1, n);
        let mut completion = Completion::Finished;
        let mut score;
        if let (Some(exhaustion), false) = (eval.meter().exhaustion(), mapping.is_complete()) {
            // KM-phase exhaustion: greedily complete the partial matching;
            // g + h of the partial bounds every completion of it.
            let (pg, ph) = score_partial(&mut eval, &mapping, self.bound);
            let order = ctx.pattern_index().expansion_order();
            let (s, m) = greedy_complete(&mut eval, &order, &mapping);
            score = s;
            mapping = m;
            completion = Completion::BudgetExhausted {
                exhaustion,
                optimality_gap: (pg + ph - s).max(0.0),
            };
        } else {
            let (s, _) = score_partial(&mut eval, &mapping, self.bound);
            score = s;
            if self.refine && !eval.meter().is_exhausted() {
                score = local_refine(&mut eval, &mut mapping, score);
            }
            if let Some(exhaustion) = eval.meter().exhaustion() {
                // The mapping is already complete; the gap certifies only
                // the interrupted hill-climbing trajectory, which is 0.
                completion = Completion::BudgetExhausted {
                    exhaustion,
                    optimality_gap: 0.0,
                };
            }
        }
        eval.finish(mapping, score, completion)
    }
}

/// Hill-climbs the pattern normal distance of a complete mapping by image
/// *swaps* (exchange the targets of two source events) and *moves*
/// (reassign a source event to an unused target), until no strictly
/// improving step exists or the pass budget runs out. Returns the final
/// score.
fn local_refine(eval: &mut Evaluator<'_>, mapping: &mut Mapping, mut score: f64) -> f64 {
    const MAX_PASSES: usize = 8;
    let tele = eval.telemetry_mut();
    let c_passes = tele.registry.counter("refine.passes");
    let c_moves = tele.registry.counter("refine.moves");
    let ctx = eval.context();
    let n1 = ctx.n1();
    // Patterns touching a pair of source events — only these change under
    // a swap or move.
    let affected = |a1: EventId, a2: Option<EventId>| -> Vec<usize> {
        let idx = ctx.pattern_index();
        let mut out: Vec<usize> = idx.patterns_of(a1).to_vec();
        if let Some(a2) = a2 {
            out.extend_from_slice(idx.patterns_of(a2));
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    #[expect(
        clippy::expect_used,
        reason = "every remove below is paired with an insert before part_score runs again, so m \
                  stays complete"
    )]
    let part_score = |eval: &mut Evaluator<'_>, m: &Mapping, ps: &[usize]| -> f64 {
        ps.iter()
            .map(|&p| eval.d(p, m).expect("mapping stays complete"))
            .sum()
    };
    for _ in 0..MAX_PASSES {
        eval.telemetry_mut().registry.inc(c_passes);
        let mut improved = false;
        for i in 0..n1 as u32 {
            let a1 = EventId(i);
            // Moves to unused targets.
            for u in mapping.unused_targets() {
                if !eval.meter_mut().charge_processed() {
                    return score;
                }
                let ps = affected(a1, None);
                let before = part_score(eval, mapping, &ps);
                let old = take_image(mapping, a1);
                mapping.insert(a1, u);
                let after = part_score(eval, mapping, &ps);
                if after > before + EPS {
                    score += after - before;
                    improved = true;
                    eval.telemetry_mut().registry.inc(c_moves);
                } else {
                    mapping.remove(a1);
                    mapping.insert(a1, old);
                }
            }
            // Swaps with later source events.
            for j in i + 1..n1 as u32 {
                let a2 = EventId(j);
                if !eval.meter_mut().charge_processed() {
                    return score;
                }
                let ps = affected(a1, Some(a2));
                let before = part_score(eval, mapping, &ps);
                let (b1, b2) = (take_image(mapping, a1), take_image(mapping, a2));
                mapping.insert(a1, b2);
                mapping.insert(a2, b1);
                let after = part_score(eval, mapping, &ps);
                if after > before + EPS {
                    score += after - before;
                    improved = true;
                    eval.telemetry_mut().registry.inc(c_moves);
                } else {
                    mapping.remove(a1);
                    mapping.remove(a2);
                    mapping.insert(a1, b1);
                    mapping.insert(a2, b2);
                }
            }
        }
        if !improved {
            break;
        }
    }
    score
}

/// Removes and returns the image of a source event the local search knows
/// to be mapped (refinement starts from a complete mapping and re-inserts
/// after every tentative remove).
#[expect(
    clippy::expect_used,
    reason = "callers in local_refine only remove currently-mapped sources and restore them before \
              the next query"
)]
fn take_image(m: &mut Mapping, a: EventId) -> EventId {
    m.remove(a).expect("source is mapped")
}

/// The Equation-2 estimate matrix, with dummy zero rows up to `n`,
/// optionally sharpened by structural similarity propagation (only when
/// the pattern set goes beyond single vertices — see
/// [`AdvancedHeuristic::sharpen`]).
fn estimated_scores(ctx: &MatchContext, n: usize, sharpen: bool) -> Vec<Vec<f64>> {
    let n1 = ctx.n1();
    let f2: Vec<f64> = (0..n)
        .map(|b| ctx.dep2().vertex_freq(EventId(b as u32)))
        .collect();
    let mut theta: Vec<Vec<f64>> = (0..n)
        .map(|a| {
            if a >= n1 {
                return vec![0.0; n];
            }
            let involved = ctx.pattern_index().patterns_of(EventId(a as u32));
            (0..n)
                .map(|b| {
                    involved
                        .iter()
                        .map(|&p| {
                            let ep = &ctx.patterns()[p];
                            sim(ep.freq, f2[b]) / ep.size() as f64
                        })
                        .sum()
                })
                .collect()
        })
        .collect();
    let has_composites = ctx.patterns().iter().any(|ep| ep.size() > 1);
    if sharpen && has_composites {
        let prop = crate::baseline::propagated_similarity_default(ctx);
        for (a, row) in theta.iter_mut().enumerate().take(n1) {
            for (b, v) in row.iter_mut().enumerate().take(ctx.n2()) {
                *v *= 0.25 + 0.75 * prop[a][b];
            }
        }
    }
    theta
}

/// A maximal alternating tree (Algorithm 4): labels after all dual updates,
/// the column parents, and every augmenting endpoint.
struct Tree {
    l1: Vec<f64>,
    l2: Vec<f64>,
    /// `parent_col[j]` = the `T1` row that discovered column `j`.
    parent_col: Vec<usize>,
    /// Unmatched columns reached by the tree — the ends of its augmenting
    /// paths.
    endpoints: Vec<usize>,
}

/// Grows the alternating tree rooted at the unmatched row `root` until it
/// spans every column, updating the labeling per Equations (3)/(4)
/// whenever no equality edge leaves the tree.
fn alternating_tree(
    root: usize,
    theta: &[Vec<f64>],
    l1: &[f64],
    l2: &[f64],
    match_col: &[Option<usize>],
) -> Tree {
    let n = theta.len();
    let mut l1 = l1.to_vec();
    let mut l2 = l2.to_vec();
    let mut in_t1 = vec![false; n];
    let mut in_t2 = vec![false; n];
    let mut parent_col = vec![usize::MAX; n];
    let mut endpoints = Vec::new();
    // slack[j] = min over rows i in T1 of ℓ(i) + ℓ(j) − θ(i, j); slack_src
    // remembers the argmin row.
    let mut slack = vec![f64::INFINITY; n];
    let mut slack_src = vec![root; n];

    in_t1[root] = true;
    for j in 0..n {
        slack[j] = l1[root] + l2[j] - theta[root][j];
    }

    for _ in 0..n {
        // Tightest column outside the tree.
        let (mut j_best, mut s_best) = (usize::MAX, f64::INFINITY);
        for j in 0..n {
            if !in_t2[j] && slack[j] < s_best - EPS {
                s_best = slack[j];
                j_best = j;
            }
        }
        debug_assert!(j_best != usize::MAX, "some column is always reachable");
        if s_best > EPS {
            // Equation (4): α = s_best exposes a new equality edge.
            let alpha = s_best;
            for i in 0..n {
                if in_t1[i] {
                    l1[i] -= alpha;
                }
            }
            for j in 0..n {
                if in_t2[j] {
                    l2[j] += alpha;
                } else {
                    slack[j] -= alpha;
                }
            }
        }
        in_t2[j_best] = true;
        parent_col[j_best] = slack_src[j_best];
        match match_col[j_best] {
            Some(i2) => {
                // Matched column: pull its row into T1 and refresh slacks.
                in_t1[i2] = true;
                for j in 0..n {
                    if !in_t2[j] {
                        let cur = l1[i2] + l2[j] - theta[i2][j];
                        if cur < slack[j] - EPS {
                            slack[j] = cur;
                            slack_src[j] = i2;
                        }
                    }
                }
            }
            None => endpoints.push(j_best),
        }
    }
    debug_assert!(!endpoints.is_empty(), "Proposition 5");
    Tree {
        l1,
        l2,
        parent_col,
        endpoints,
    }
}

/// The augmenting path of `tree` ending at `endpoint`: every row on it
/// with the column the augmentation gives it, from the endpoint's row back
/// to the unmatched root.
fn augmenting_path<'t>(
    match_row: &'t [Option<usize>],
    tree: &'t Tree,
    endpoint: usize,
) -> impl Iterator<Item = (usize, usize)> + 't {
    let mut next = Some(endpoint);
    std::iter::from_fn(move || {
        let j = next?;
        let i = tree.parent_col[j];
        debug_assert!(i != usize::MAX, "endpoint must be inside the tree");
        next = match_row[i];
        Some((i, j))
    })
}

/// Extracts the real (non-dummy) rows into a [`Mapping`].
fn to_mapping(match_row: &[Option<usize>], n1: usize, n2: usize) -> Mapping {
    Mapping::from_pairs(
        n1,
        n2,
        match_row[..n1]
            .iter()
            .enumerate()
            .filter_map(|(a, &b)| b.map(|b| (EventId(a as u32), EventId(b as u32)))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PatternSetBuilder;
    use crate::exact::ExactMatcher;
    use crate::score::pattern_normal_distance;
    use evematch_eventlog::{EventLog, LogBuilder};
    use evematch_pattern::Pattern;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    fn logs() -> (EventLog, EventLog) {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C", "D"]);
        b1.push_named_trace(["A", "C", "B", "D"]);
        b1.push_named_trace(["A", "B", "D"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["p", "q", "r", "s"]);
        b2.push_named_trace(["p", "r", "q", "s"]);
        b2.push_named_trace(["p", "q", "s"]);
        (b1.build(), b2.build())
    }

    #[test]
    fn optimal_for_vertex_only_patterns() {
        // Proposition 6: with vertex patterns, Algorithm 3 is exact KM.
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        b1.push_named_trace(["A", "C"]);
        b1.push_named_trace(["A"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y"]);
        b2.push_named_trace(["x", "z"]);
        b2.push_named_trace(["x"]);
        let ctx =
            MatchContext::new(b1.build(), b2.build(), PatternSetBuilder::new().vertices()).unwrap();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let heur = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert!(
            (heur.score - exact.score).abs() < 1e-9,
            "heuristic {} vs exact {}",
            heur.score,
            exact.score
        );
    }

    #[test]
    fn complete_consistent_and_deterministic() {
        let (l1, l2) = logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let a = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert!(a.mapping.is_complete());
        let recomputed = pattern_normal_distance(&ctx, &a.mapping);
        assert!((a.score - recomputed).abs() < 1e-9);
        let b = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn never_beats_the_exact_optimum() {
        let (l1, l2) = logs();
        let pat = Pattern::seq(vec![
            Pattern::event(0),
            Pattern::and(vec![Pattern::event(1), Pattern::event(2)]).unwrap(),
            Pattern::event(3),
        ])
        .unwrap();
        let ctx = MatchContext::new(
            l1,
            l2,
            PatternSetBuilder::new().vertices().edges().complex(pat),
        )
        .unwrap();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let heur = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert!(heur.score <= exact.score + 1e-9);
        // On these clean logs the heuristic should actually find it.
        assert!((heur.score - exact.score).abs() < 1e-9);
        for i in 0..4u32 {
            assert_eq!(heur.mapping.get(ev(i)), Some(ev(i)));
        }
    }

    #[test]
    fn rectangular_problems_use_dummy_rows() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        b1.push_named_trace(["A"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["x", "z"]);
        let ctx = MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges(),
        )
        .unwrap();
        let out = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert_eq!(out.mapping.len(), 2);
        // A (freq 1.0) must take x (freq 1.0).
        assert_eq!(out.mapping.get(ev(0)), Some(ev(0)));
    }

    #[test]
    fn empty_problem() {
        let ctx = MatchContext::new(
            LogBuilder::new().build(),
            LogBuilder::new().build(),
            PatternSetBuilder::new().vertices(),
        )
        .unwrap();
        let out = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert!(out.mapping.is_empty());
        assert_eq!(out.score, 0.0);
    }

    #[test]
    fn ablation_flags_are_sound_and_ordered() {
        // On a pattern-rich instance, every ablation variant returns a
        // complete mapping, never beats the exact optimum, and the full
        // variant scores at least as high as raw Algorithm 3.
        let (l1, l2) = logs();
        let pat = Pattern::seq(vec![
            Pattern::event(0),
            Pattern::and(vec![Pattern::event(1), Pattern::event(2)]).unwrap(),
            Pattern::event(3),
        ])
        .unwrap();
        let ctx = MatchContext::new(
            l1,
            l2,
            PatternSetBuilder::new().vertices().edges().complex(pat),
        )
        .unwrap();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let mut scores = Vec::new();
        for (sharpen, refine) in [(false, false), (true, false), (false, true), (true, true)] {
            let out = AdvancedHeuristic::new(BoundKind::Tight)
                .with_sharpening(sharpen)
                .with_refinement(refine)
                .solve(&ctx);
            assert!(out.mapping.is_complete());
            assert!(out.score <= exact.score + 1e-9);
            scores.push(out.score);
        }
        let raw = scores[0];
        let full = scores[3];
        assert!(full >= raw - 1e-9, "full {full} < raw {raw}");
    }

    #[test]
    fn refinement_never_lowers_the_score() {
        let (l1, l2) = logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let without = AdvancedHeuristic::new(BoundKind::Tight)
            .with_refinement(false)
            .solve(&ctx);
        let with = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert!(with.score >= without.score - 1e-9);
    }

    #[test]
    fn vertex_only_sets_are_never_sharpened() {
        // Proposition 6 must hold with sharpening nominally enabled,
        // because vertex-only pattern sets bypass it.
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        b1.push_named_trace(["A"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y"]);
        b2.push_named_trace(["x"]);
        let ctx =
            MatchContext::new(b1.build(), b2.build(), PatternSetBuilder::new().vertices()).unwrap();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let sharp = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert!((sharp.score - exact.score).abs() < 1e-9);
    }

    #[test]
    fn estimated_scores_match_equation_2_for_vertex_patterns() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        b1.push_named_trace(["A"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y"]);
        b2.push_named_trace(["x"]);
        let ctx =
            MatchContext::new(b1.build(), b2.build(), PatternSetBuilder::new().vertices()).unwrap();
        let theta = estimated_scores(&ctx, 2, false);
        // θ(A, x) = sim(1, 1) = 1; θ(B, y) = sim(0.5, 0.5) = 1;
        // θ(A, y) = sim(1, 0.5) = θ(B, x).
        assert!((theta[0][0] - 1.0).abs() < 1e-12);
        assert!((theta[1][1] - 1.0).abs() < 1e-12);
        assert!((theta[0][1] - sim(1.0, 0.5)).abs() < 1e-12);
        assert!((theta[1][0] - theta[0][1]).abs() < 1e-12);
    }
}
