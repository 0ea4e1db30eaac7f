//! Heuristic-Simple: greedy best-child descent through the A\* tree.

use crate::bounds::BoundKind;
use crate::budget::Budget;
use crate::context::MatchContext;
use crate::evaluator::{EvalConfig, Evaluator};
use crate::exact::{greedy_complete, Completion, MatchOutcome};
use crate::mapping::Mapping;
use crate::score::{score_partial, ParentTable};

/// The simple heuristic of Section 5: at each level of the search tree,
/// evaluate every child `a -> b` exactly like Algorithm 1 would, but commit
/// to the single child with the maximum `g + h` and never reconsider.
///
/// Complexity is `O(n² · cost(g+h))` — the factorial explosion is gone, at
/// the price the paper demonstrates in Figures 9a/10a: one early wrong pair
/// poisons every later decision.
///
/// Under a limited [`Budget`] the descent stops when the budget trips and
/// the remaining source events are completed greedily by marginal realized
/// gain; the reported `optimality_gap` is *path-local* — it bounds how much
/// better a completion of the already-committed prefix could score, not the
/// global optimum.
#[derive(Clone, Copy, Debug)]
pub struct SimpleHeuristic {
    /// Which `h` bound ranks the children.
    pub bound: BoundKind,
    /// Resource budget for each `solve` call.
    pub budget: Budget,
}

impl SimpleHeuristic {
    /// A simple heuristic ranking children with the given bound.
    pub fn new(bound: BoundKind) -> Self {
        SimpleHeuristic {
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

    /// Runs the greedy descent. Infallible — at most `n1` commitment steps,
    /// completed greedily if the budget trips first.
    pub fn solve(&self, ctx: &MatchContext) -> MatchOutcome {
        self.solve_with(ctx, &EvalConfig::from_budget(self.budget))
    }

    /// Like [`SimpleHeuristic::solve`], but with an explicit
    /// [`EvalConfig`]; `config.budget` replaces `self.budget`.
    pub fn solve_with(&self, ctx: &MatchContext, config: &EvalConfig) -> MatchOutcome {
        let mut eval = Evaluator::start_search(ctx, config);
        let c_levels = eval.telemetry_mut().registry.counter("search.levels");
        let order = ctx.pattern_index().expansion_order();
        let mut mapping = Mapping::empty(ctx.n1(), ctx.n2());
        let mut g = 0.0;

        'levels: for &a in &order {
            let tele = eval.telemetry_mut();
            tele.registry.inc(c_levels);
            tele.profile.charge(crate::telemetry::WorkCol::Pops, 1);
            let mut best: Option<(f64, f64, evematch_eventlog::EventId)> = None;
            let mut table = ParentTable::new(ctx, &mapping, self.bound);
            for b in mapping.unused_targets() {
                if !eval.meter_mut().charge_processed() {
                    // Budget tripped mid-level: drop the half-ranked level
                    // and fall through to the greedy completion below.
                    break 'levels;
                }
                mapping.insert(a, b);
                let mut child_g = g;
                for &p_idx in ctx.pattern_index().patterns_of(a) {
                    if let Some(d) = eval.d(p_idx, &mapping) {
                        child_g += d;
                    }
                }
                let (_, h) = table.rescore(&mut eval, &mapping, &[a], false);
                mapping.remove(a);
                let f = child_g + h;
                // Strictly-greater keeps the smallest b on ties (targets
                // iterate in ascending order) — deterministic output.
                if best.map_or(true, |(bf, _, _)| f > bf) {
                    best = Some((f, child_g, b));
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "n1 ≤ n2 (checked at context construction) leaves an unused target at \
                          every greedy step"
            )]
            let (_, child_g, b) = best.expect("n1 ≤ n2 guarantees an unused target");
            mapping.insert(a, b);
            g = child_g;
            if eval.meter().is_exhausted() {
                // A deadline can latch inside the evaluator's ticks.
                break;
            }
        }

        let completion = match eval.meter().exhaustion() {
            None => Completion::Finished,
            Some(exhaustion) => {
                // The committed prefix plus its admissible h bounds every
                // completion of this trajectory. Recompute the prefix's
                // realized score here instead of trusting the tracked `g`:
                // the meter is exhausted, so these grace evaluations are
                // exact even if fueled ones were interrupted mid-descent.
                let (pg, ph) = score_partial(&mut eval, &mapping, self.bound);
                let upper = pg + ph;
                let (score, complete) = greedy_complete(&mut eval, &order, &mapping);
                mapping = complete;
                g = score;
                Completion::BudgetExhausted {
                    exhaustion,
                    optimality_gap: (upper - g).max(0.0),
                }
            }
        };

        eval.finish(mapping, g, completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PatternSetBuilder;
    use crate::exact::ExactMatcher;
    use crate::score::pattern_normal_distance;
    use evematch_eventlog::{EventId, LogBuilder};

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    fn ctx() -> MatchContext {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C", "D"]);
        b1.push_named_trace(["A", "C", "B", "D"]);
        b1.push_named_trace(["A", "B", "D"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["p", "q", "r", "s"]);
        b2.push_named_trace(["p", "r", "q", "s"]);
        b2.push_named_trace(["p", "q", "s"]);
        MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges(),
        )
        .unwrap()
    }

    #[test]
    fn returns_a_complete_mapping_with_consistent_score() {
        let out = SimpleHeuristic::new(BoundKind::Tight).solve(&ctx());
        assert!(out.mapping.is_complete());
        assert!(out.completion.is_finished());
        let recomputed = pattern_normal_distance(&ctx(), &out.mapping);
        assert!((out.score - recomputed).abs() < 1e-9);
    }

    #[test]
    fn never_beats_the_exact_optimum() {
        let c = ctx();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&c);
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let heur = SimpleHeuristic::new(bound).solve(&c);
            assert!(heur.score <= exact.score + 1e-9);
        }
    }

    #[test]
    fn processes_quadratically_many_mappings() {
        let c = ctx();
        let out = SimpleHeuristic::new(BoundKind::Tight).solve(&c);
        // n + (n-1) + ... + 1 children for n = n1 = n2 = 4.
        assert_eq!(out.processed(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn greedy_commits_once_per_event_and_stays_sound() {
        // The Section-5 deficiency (an early frozen pair is never
        // revisited) means the greedy can only ever match the exact
        // optimum, never beat it; with the structure-aware tight bound it
        // happens to reach it on this small instance, while datasets with
        // heavier ties (see the Figure-12 experiments) leave it behind the
        // advanced heuristic.
        let c = ctx();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&c);
        let out = SimpleHeuristic::new(BoundKind::Tight).solve(&c);
        assert!(out.mapping.is_complete());
        assert!(out.score <= exact.score + 1e-9);
        // One commitment per source event: n + (n-1) + … + 1 candidates.
        assert_eq!(out.processed(), 4 + 3 + 2 + 1);
        let _ = ev(0);
    }

    #[test]
    fn exhausted_budget_still_returns_a_complete_mapping() {
        let c = ctx();
        for cap in [0, 1, 3] {
            let out = SimpleHeuristic::new(BoundKind::Tight)
                .with_budget(Budget::UNLIMITED.with_processed_cap(cap))
                .solve(&c);
            assert!(out.mapping.is_complete(), "cap {cap}");
            assert!(!out.completion.is_finished(), "cap {cap}");
            assert!(out.processed() <= cap);
            let gap = out.completion.optimality_gap().unwrap_or(f64::NAN);
            assert!(gap.is_finite() && gap >= 0.0, "cap {cap}: gap {gap}");
            let recomputed = pattern_normal_distance(&c, &out.mapping);
            assert!((out.score - recomputed).abs() < 1e-9, "cap {cap}");
        }
    }

    #[test]
    fn deterministic() {
        let c = ctx();
        let a = SimpleHeuristic::new(BoundKind::Tight).solve(&c);
        let b = SimpleHeuristic::new(BoundKind::Tight).solve(&c);
        assert_eq!(a.mapping, b.mapping);
    }
}
