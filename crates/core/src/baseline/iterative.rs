//! The iterative similarity-propagation baseline (Nejati et al. [16]).
//!
//! Vertex similarities are seeded from frequency similarity and refined in
//! a PageRank-like fixpoint: a pair `(v1, v2)` is similar when their
//! dependency-graph neighbourhoods pair up similarly. After convergence the
//! mapping is read off with an optimal assignment.

use evematch_eventlog::EventId;

use crate::assignment::max_weight_assignment;
use crate::budget::{Budget, BudgetMeter};
use crate::context::MatchContext;
use crate::evaluator::{EvalConfig, Evaluator};
use crate::exact::{Completion, MatchOutcome};
use crate::mapping::Mapping;
use crate::score::sim;

/// Tuning knobs for [`IterativeMatcher`].
#[derive(Clone, Copy, Debug)]
pub struct IterativeConfig {
    /// Weight of the propagated (structural) part against the frequency
    /// seed; `0` disables propagation entirely.
    pub alpha: f64,
    /// Maximum fixpoint iterations.
    pub max_iterations: usize,
    /// Early-stop threshold on the largest per-entry change.
    pub epsilon: f64,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        IterativeConfig {
            alpha: 0.7,
            max_iterations: 16,
            epsilon: 1e-6,
        }
    }
}

/// The iterative vertex-similarity matcher.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterativeMatcher {
    /// Fixpoint configuration.
    pub config: IterativeConfig,
    /// Resource budget: a tripped budget cuts the fixpoint short (the
    /// assignment then runs on the partially-propagated matrix) and marks
    /// the result [`Completion::BudgetExhausted`] with the baselines'
    /// global gap certificate.
    pub budget: Budget,
}

impl IterativeMatcher {
    /// A matcher with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the resource budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Computes the similarity fixpoint and assigns events optimally.
    /// Infallible — the method is polynomial and always returns a complete
    /// mapping, even on a tripped budget.
    pub fn solve(&self, ctx: &MatchContext) -> MatchOutcome {
        self.solve_with(ctx, &EvalConfig::from_budget(self.budget))
    }

    /// Like [`IterativeMatcher::solve`], but with an explicit
    /// [`EvalConfig`] (`config.budget` replaces `self.budget`); the shared
    /// support cache, when present, is reused for the final mapping's
    /// pattern scores.
    pub fn solve_with(&self, ctx: &MatchContext, config: &EvalConfig) -> MatchOutcome {
        let mut eval = Evaluator::start_search(ctx, config, "iterative.rounds");
        let (n1, n2) = (ctx.n1(), ctx.n2());
        // One charged unit for the single assignment this method performs;
        // a zero cap therefore skips all fixpoint iterations too.
        eval.meter_mut().charge_processed();
        let (cur, rounds) = propagated_similarity(ctx, &self.config, eval.meter_mut());
        eval.step(rounds);
        let assignment = max_weight_assignment(&cur);
        let mapping = Mapping::from_pairs(
            n1,
            n2,
            assignment
                .iter()
                .enumerate()
                .map(|(a, &b)| (EventId(a as u32), EventId(b as u32))),
        );
        // Score through the run's own evaluator (an exhausted meter takes
        // the exact uncharged grace path) so the evaluation work lands in
        // this run's counters.
        let score: f64 = (0..ctx.patterns().len())
            .filter_map(|i| eval.d(i, &mapping))
            .sum();
        let completion = match eval.meter().exhaustion() {
            None => Completion::Finished,
            Some(exhaustion) => Completion::BudgetExhausted {
                exhaustion,
                optimality_gap: crate::baseline::global_gap(ctx, score),
            },
        };
        eval.finish(mapping, score, completion)
    }
}

/// The propagated vertex-similarity matrix: frequency-seeded, refined by
/// the neighbour-propagation fixpoint. Shared by [`IterativeMatcher`] and
/// (as an optional sharpener of the Equation-2 estimated scores) by the
/// advanced heuristic. Also returns the number of fixpoint rounds actually
/// run (the `iterative.rounds` metric).
pub(crate) fn propagated_similarity(
    ctx: &MatchContext,
    config: &IterativeConfig,
    meter: &mut BudgetMeter,
) -> (Vec<Vec<f64>>, u64) {
    let (n1, n2) = (ctx.n1(), ctx.n2());
    let (dep1, dep2) = (ctx.dep1(), ctx.dep2());

    // Seed: frequency similarity of individual events.
    let seed: Vec<Vec<f64>> = (0..n1)
        .map(|a| {
            (0..n2)
                .map(|b| {
                    sim(
                        dep1.vertex_freq(EventId(a as u32)),
                        dep2.vertex_freq(EventId(b as u32)),
                    )
                })
                .collect()
        })
        .collect();

    let mut cur = seed.clone();
    let alpha = config.alpha.clamp(0.0, 1.0);
    let mut rounds = 0u64;
    for _ in 0..config.max_iterations {
        if meter.is_exhausted() {
            // Cut the fixpoint short; the caller assigns on the matrix
            // propagated so far.
            break;
        }
        rounds += 1;
        let mut next = vec![vec![0.0; n2]; n1];
        let mut max_delta = 0.0f64;
        for a in 0..n1 {
            // One matrix row is the inner work unit for deadline polling.
            meter.tick();
            for b in 0..n2 {
                let succ = neighbour_term(
                    dep1.graph().successors(a as u32),
                    dep2.graph().successors(b as u32),
                    &cur,
                );
                let pred = neighbour_term(
                    dep1.graph().predecessors(a as u32),
                    dep2.graph().predecessors(b as u32),
                    &cur,
                );
                let prop = 0.5 * (succ + pred);
                let value = (1.0 - alpha) * seed[a][b] + alpha * prop;
                max_delta = max_delta.max((value - cur[a][b]).abs());
                next[a][b] = value;
            }
        }
        cur = next;
        if max_delta < config.epsilon {
            break;
        }
    }
    (cur, rounds)
}

/// Average over `v1`'s neighbours of the best current similarity with one
/// of `v2`'s neighbours. Empty neighbourhoods on either side score 0 —
/// structural disagreement should not look like agreement.
fn neighbour_term(n1_adj: &[u32], n2_adj: &[u32], cur: &[Vec<f64>]) -> f64 {
    if n1_adj.is_empty() {
        return if n2_adj.is_empty() { 1.0 } else { 0.0 };
    }
    if n2_adj.is_empty() {
        return 0.0;
    }
    let total: f64 = n1_adj
        .iter()
        .map(|&s1| {
            n2_adj
                .iter()
                .map(|&s2| cur[s1 as usize][s2 as usize])
                .fold(0.0, f64::max)
        })
        .sum();
    total / n1_adj.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PatternSetBuilder;
    use evematch_eventlog::LogBuilder;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    fn ctx() -> MatchContext {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C"]);
        b1.push_named_trace(["A", "B", "C"]);
        b1.push_named_trace(["A", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["x", "y"]);
        MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges(),
        )
        .unwrap()
    }

    #[test]
    fn recovers_identity_on_isomorphic_logs() {
        let out = IterativeMatcher::new().solve(&ctx());
        for i in 0..3u32 {
            assert_eq!(out.mapping.get(ev(i)), Some(ev(i)));
        }
        assert!(out.mapping.is_complete());
    }

    #[test]
    fn alpha_zero_is_pure_frequency_assignment() {
        let m = IterativeMatcher {
            config: IterativeConfig {
                alpha: 0.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = m.solve(&ctx());
        // C/z are the only 2/3-frequency events; they must pair up.
        assert_eq!(out.mapping.get(ev(2)), Some(ev(2)));
    }

    #[test]
    fn deterministic() {
        let a = IterativeMatcher::new().solve(&ctx());
        let b = IterativeMatcher::new().solve(&ctx());
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn rectangular_problems_map_every_source_event() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        let ctx = MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges(),
        )
        .unwrap();
        let out = IterativeMatcher::new().solve(&ctx);
        assert_eq!(out.mapping.len(), 2);
    }

    #[test]
    fn neighbour_term_edge_cases() {
        let cur = vec![vec![0.4, 0.9], vec![0.1, 0.2]];
        assert_eq!(neighbour_term(&[], &[], &cur), 1.0);
        assert_eq!(neighbour_term(&[], &[0], &cur), 0.0);
        assert_eq!(neighbour_term(&[0], &[], &cur), 0.0);
        // Best partner of row 0 is column 1 (0.9).
        assert!((neighbour_term(&[0], &[0, 1], &cur) - 0.9).abs() < 1e-12);
        // Average over both rows: (0.9 + 0.2) / 2.
        assert!((neighbour_term(&[0, 1], &[0, 1], &cur) - 0.55).abs() < 1e-12);
    }
}
