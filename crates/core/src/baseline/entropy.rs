//! The entropy-only baseline (Kang & Naughton [7], non-graph variant).
//!
//! Each event is summarized by the Shannon entropy of its per-trace
//! occurrence indicator — *does this event appear in a trace?* — and events
//! are paired by entropy similarity with an optimal assignment. No
//! structural information is used at all, which is why the paper reports it
//! as the fast-but-inaccurate end of the accuracy/efficiency trade-off
//! (Figure 12).

use evematch_eventlog::EventId;

use crate::assignment::max_weight_assignment;
use crate::budget::Budget;
use crate::context::MatchContext;
use crate::evaluator::{EvalConfig, Evaluator};
use crate::exact::{Completion, MatchOutcome};
use crate::mapping::Mapping;
use crate::score::sim;

/// The entropy-only matcher.
#[derive(Clone, Copy, Debug, Default)]
pub struct EntropyMatcher {
    /// Resource budget. The method is a single assignment, so only the
    /// degenerate zero/tiny caps can trip it; the mapping is still complete
    /// and tagged [`Completion::BudgetExhausted`] with the baselines'
    /// global gap.
    pub budget: Budget,
}

impl EntropyMatcher {
    /// Creates the matcher (stateless).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the resource budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Pairs events by occurrence-entropy similarity. Infallible.
    pub fn solve(&self, ctx: &MatchContext) -> MatchOutcome {
        self.solve_with(ctx, &EvalConfig::from_budget(self.budget))
    }

    /// Like [`EntropyMatcher::solve`], but with an explicit [`EvalConfig`]
    /// (`config.budget` replaces `self.budget`); the shared support cache,
    /// when present, is reused for the final mapping's pattern scores.
    pub fn solve_with(&self, ctx: &MatchContext, config: &EvalConfig) -> MatchOutcome {
        let mut eval = Evaluator::start_search(ctx, config);
        let c_rows = eval.telemetry_mut().registry.counter("entropy.weight_rows");
        let (n1, n2) = (ctx.n1(), ctx.n2());
        // The single assignment is this method's one charged unit.
        eval.meter_mut().charge_processed();
        let h1: Vec<f64> = (0..n1)
            .map(|v| bernoulli_entropy(ctx.dep1().vertex_freq(EventId(v as u32))))
            .collect();
        let h2: Vec<f64> = (0..n2)
            .map(|v| bernoulli_entropy(ctx.dep2().vertex_freq(EventId(v as u32))))
            .collect();
        let mut weights: Vec<Vec<f64>> = Vec::with_capacity(n1);
        for &a in &h1 {
            // One weight row is the inner work unit for deadline polling.
            eval.meter_mut().tick();
            let tele = eval.telemetry_mut();
            tele.registry.inc(c_rows);
            tele.profile
                .charge(crate::telemetry::WorkCol::MeterTicks, 1);
            tele.profile.charge(crate::telemetry::WorkCol::Pops, 1);
            weights.push(h2.iter().map(|&b| sim(a, b)).collect());
        }
        let assignment = max_weight_assignment(&weights);
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

/// Entropy of a Bernoulli variable with success probability `q`, in nats.
/// `q ∈ {0, 1}` — the event always or never appears — carries no
/// uncertainty.
fn bernoulli_entropy(q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if q <= 0.0 || q >= 1.0 {
        0.0
    } else {
        -q * q.ln() - (1.0 - q) * (1.0 - q).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PatternSetBuilder;
    use evematch_eventlog::LogBuilder;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    #[test]
    fn entropy_values() {
        assert_eq!(bernoulli_entropy(0.0), 0.0);
        assert_eq!(bernoulli_entropy(1.0), 0.0);
        let h_half = bernoulli_entropy(0.5);
        assert!((h_half - std::f64::consts::LN_2).abs() < 1e-12);
        // Symmetric around 0.5.
        assert!((bernoulli_entropy(0.2) - bernoulli_entropy(0.8)).abs() < 1e-12);
        // 0.5 is the maximum.
        assert!(bernoulli_entropy(0.3) < h_half);
    }

    #[test]
    fn pairs_events_with_matching_occurrence_rates() {
        // A in all traces, B in half | x in half, y in all.
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        b1.push_named_trace(["A"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y"]);
        b2.push_named_trace(["y"]);
        let ctx =
            MatchContext::new(b1.build(), b2.build(), PatternSetBuilder::new().vertices()).unwrap();
        let out = EntropyMatcher::new().solve(&ctx);
        // B (freq 0.5, entropy ln2) should pair with x (freq 0.5).
        assert_eq!(out.mapping.get(ev(1)), Some(ev(0)));
        assert_eq!(out.mapping.get(ev(0)), Some(ev(1)));
    }

    #[test]
    fn structure_is_invisible_to_entropy() {
        // Two logs identical in occurrence rates but with opposite edge
        // directions: entropy matching cannot tell the difference, so both
        // orders tie; the assignment must still be complete and injective.
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["y", "x"]);
        let ctx = MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges(),
        )
        .unwrap();
        let out = EntropyMatcher::new().solve(&ctx);
        assert!(out.mapping.is_complete());
    }

    #[test]
    fn deterministic() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C"]);
        b1.push_named_trace(["A"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["z"]);
        let ctx =
            MatchContext::new(b1.build(), b2.build(), PatternSetBuilder::new().vertices()).unwrap();
        let a = EntropyMatcher::new().solve(&ctx);
        let b = EntropyMatcher::new().solve(&ctx);
        assert_eq!(a.mapping, b.mapping);
    }
}
