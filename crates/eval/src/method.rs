//! The uniform method registry: every approach compared in Section 6.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use evematch_core::{
    AdvancedHeuristic, BoundKind, Budget, Completion, EntropyMatcher, EvalConfig, ExactMatcher,
    IterativeMatcher, Mapping, MatchContext, MetricsSnapshot, PatternSetBuilder, PhaseProfiler,
    ProfileSnapshot, SimpleHeuristic, SupportMemo,
};
use evematch_datagen::{Dataset, LogPair};
use evematch_pattern::Pattern;

use crate::metrics::MatchQuality;

/// One experiment cell's support memos, bound to the cell's dataset: one
/// memo per pattern set, lent to each method that scores that set, in the
/// order the cell runs them. Methods evaluating different pattern sets
/// cannot share memo entries, but every method with the same set draws
/// from the same memo, so e.g. the heuristics warm the exact search's memo
/// (`eval.cache.shared_hits` counts the reuse). Only the full pattern set
/// has complex patterns, so only its memo ever holds entries.
#[derive(Debug)]
pub struct SupportCachePool<'a> {
    ds: &'a Dataset,
    memos: [Rc<RefCell<SupportMemo>>; 3],
}

impl<'a> SupportCachePool<'a> {
    /// An empty pool for runs over `ds`.
    #[must_use]
    pub fn new(ds: &'a Dataset) -> Self {
        SupportCachePool {
            ds,
            memos: Default::default(),
        }
    }

    /// Runs `method` on the pool's dataset (see [`Method::run`]), lending
    /// it the memo of the method's pattern set.
    pub fn run(&self, method: Method, budget: Budget) -> RunOutcome {
        let memo = Rc::clone(&self.memos[method.pattern_set() as usize]);
        method.run_lent(&self.ds.pair, &self.ds.patterns, budget, Some(memo))
    }
}

/// The pattern sets the methods score against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PatternSet {
    Vertices,
    VerticesEdges,
    All,
}

impl PatternSet {
    fn builder(self, complex: &[Pattern]) -> PatternSetBuilder {
        match self {
            PatternSet::Vertices => PatternSetBuilder::new().vertices(),
            PatternSet::VerticesEdges => PatternSetBuilder::new().vertices().edges(),
            PatternSet::All => PatternSetBuilder::new()
                .vertices()
                .edges()
                .complex_all(complex.iter().cloned()),
        }
    }
}

/// One matching approach from the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Exact A\* over vertex patterns only (Kang & Naughton \[7\], vertex
    /// form).
    Vertex,
    /// Exact A\* over vertex + edge patterns (\[7\], vertex+edge form).
    VertexEdge,
    /// Iterative similarity propagation (Nejati et al. \[16\]).
    Iterative,
    /// Entropy-only matching (\[7\], non-graph variant).
    Entropy,
    /// Pattern-based exact A\* with the simple Section-3.3 bound.
    PatternSimple,
    /// Pattern-based exact A\* with the tight Table-2 bound.
    PatternTight,
    /// Greedy single-expansion heuristic over the full pattern set.
    HeuristicSimple,
    /// Kuhn–Munkres-style advanced heuristic (Algorithm 3) over the full
    /// pattern set.
    HeuristicAdvanced,
}

/// All methods, in the paper's reporting order.
pub const ALL_METHODS: [Method; 8] = [
    Method::Vertex,
    Method::VertexEdge,
    Method::Iterative,
    Method::Entropy,
    Method::PatternSimple,
    Method::PatternTight,
    Method::HeuristicSimple,
    Method::HeuristicAdvanced,
];

/// The result of running one method on one dataset configuration.
///
/// Every solver returns a complete mapping. When the budget trips
/// (`completion` is [`Completion::BudgetExhausted`]) the paper reports the
/// run as "did not finish" — its entries in Figure 12 — so
/// [`RunOutcome::f_measure`] is 0, while the anytime mapping it salvaged
/// still carries a quality and an optimality-gap certificate.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The mapping found (the degraded anytime mapping when the run did
    /// not finish).
    pub mapping: Mapping,
    /// Accuracy of the mapping against ground truth.
    pub quality: MatchQuality,
    /// Pattern normal distance of the mapping (under the method's own
    /// pattern set).
    pub score: f64,
    /// Wall-clock time: the walls of the profile's `index` (context
    /// construction) and `search` roots, summed.
    pub elapsed: Duration,
    /// Whether the run finished or degraded on budget exhaustion; a
    /// degraded run's gap certificate says the optimum (in the solver's
    /// own sense — see each matcher's docs) is at most
    /// `score + optimality_gap`.
    pub completion: Completion,
    /// Telemetry snapshot of the run (see `evematch_core::telemetry`); on
    /// a degraded run its `budget.exhausted.*` counter names the tripped
    /// limit.
    pub metrics: MetricsSnapshot,
    /// Hierarchical phase profile of the run (index + search roots).
    pub profile: ProfileSnapshot,
}

impl RunOutcome {
    /// Whether the method finished within budget.
    pub fn finished(&self) -> bool {
        self.completion.is_finished()
    }

    /// Paper-faithful F-measure: 0 for DNF, regardless of the degraded
    /// mapping's quality.
    pub fn f_measure(&self) -> f64 {
        if self.finished() {
            self.quality.f_measure
        } else {
            0.0
        }
    }

    /// F-measure of the mapping actually returned, degraded runs included.
    pub fn anytime_f_measure(&self) -> f64 {
        self.quality.f_measure
    }

    /// Processed candidate mappings (Figures 7c/8c/9c/10c): the run's
    /// `budget.processed` counter.
    pub fn processed(&self) -> u64 {
        self.metrics
            .counters
            .get("budget.processed")
            .copied()
            .unwrap_or(0)
    }
}

impl Method {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Vertex => "Vertex",
            Method::VertexEdge => "Vertex+Edge",
            Method::Iterative => "Iterative",
            Method::Entropy => "Entropy-only",
            Method::PatternSimple => "Pattern-Simple",
            Method::PatternTight => "Pattern-Tight",
            Method::HeuristicSimple => "Heuristic-Simple",
            Method::HeuristicAdvanced => "Heuristic-Advanced",
        }
    }

    /// Whether this method enumerates exhaustively (and therefore is the
    /// one most likely to trip a budget on larger instances).
    pub fn is_exact_search(&self) -> bool {
        matches!(
            self,
            Method::Vertex | Method::VertexEdge | Method::PatternSimple | Method::PatternTight
        )
    }

    /// The pattern set this method scores against.
    fn pattern_set(&self) -> PatternSet {
        match self {
            Method::Vertex | Method::Iterative | Method::Entropy => PatternSet::Vertices,
            Method::VertexEdge => PatternSet::VerticesEdges,
            Method::PatternSimple
            | Method::PatternTight
            | Method::HeuristicSimple
            | Method::HeuristicAdvanced => PatternSet::All,
        }
    }

    /// Runs the method on a log pair with the given declared complex
    /// patterns, timing it through its phase profile (context construction
    /// included — index building is part of each approach). The budget
    /// applies to every method, not only the exact searches.
    pub fn run(&self, pair: &LogPair, complex: &[Pattern], budget: Budget) -> RunOutcome {
        self.run_lent(pair, complex, budget, None)
    }

    /// [`Method::run`] with an optional lent memo, which must come from
    /// runs over the same `pair` and pattern set ([`SupportCachePool`]
    /// guarantees that by construction).
    fn run_lent(
        &self,
        pair: &LogPair,
        complex: &[Pattern],
        budget: Budget,
        memo: Option<Rc<RefCell<SupportMemo>>>,
    ) -> RunOutcome {
        // Context construction (dependency graphs + pattern index) is this
        // harness's "index" phase; the solver contributes its own `search`
        // root, so the merged profile reads index → search per run.
        let mut indexer = PhaseProfiler::new();
        #[expect(
            clippy::expect_used,
            reason = "every generator in datagen grows the vocabulary, so |V1| ≤ |V2| holds for \
                      all benchmark pairs"
        )]
        let ctx = evematch_core::phase!(
            indexer,
            "index",
            MatchContext::new(
                pair.log1.clone(),
                pair.log2.clone(),
                self.pattern_set().builder(complex),
            )
            .expect("log pairs satisfy |V1| ≤ |V2|")
        );
        let mut profile = indexer.finish();
        let config = EvalConfig {
            memo,
            ..EvalConfig::from_budget(budget)
        };
        let out = match self {
            Method::Vertex | Method::VertexEdge | Method::PatternTight => {
                ExactMatcher::new(BoundKind::Tight).solve_with(&ctx, &config)
            }
            Method::PatternSimple => ExactMatcher::new(BoundKind::Simple).solve_with(&ctx, &config),
            Method::Iterative => IterativeMatcher::new().solve_with(&ctx, &config),
            Method::Entropy => EntropyMatcher::new().solve_with(&ctx, &config),
            Method::HeuristicSimple => {
                SimpleHeuristic::new(BoundKind::Tight).solve_with(&ctx, &config)
            }
            Method::HeuristicAdvanced => {
                AdvancedHeuristic::new(BoundKind::Tight).solve_with(&ctx, &config)
            }
        };
        profile.merge(&out.profile);
        RunOutcome {
            quality: MatchQuality::of(&out.mapping, &pair.truth),
            mapping: out.mapping,
            score: out.score,
            elapsed: profile.wall(),
            completion: out.completion,
            metrics: out.metrics,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_datagen::datasets::fig1_like;

    #[test]
    fn every_method_runs_on_the_example_dataset() {
        let ds = fig1_like();
        for m in ALL_METHODS {
            let out = m.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
            assert!(out.finished(), "{} did not finish", m.name());
            assert_eq!(out.mapping.len(), 6, "{} incomplete", m.name());
        }
    }

    #[test]
    fn elapsed_is_exactly_the_profile_root_walls() {
        let ds = fig1_like();
        let out = Method::PatternTight.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
        let names: Vec<&str> = out.profile.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["index", "search"]);
        let walls = out.profile.roots[0].wall_nanos + out.profile.roots[1].wall_nanos;
        assert_eq!(out.elapsed, Duration::from_nanos(walls));
    }

    #[test]
    fn pattern_methods_beat_vertex_edge_on_the_adversarial_instance() {
        let ds = fig1_like();
        let ve = Method::VertexEdge.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
        let pt = Method::PatternTight.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
        assert!(pt.f_measure() > ve.f_measure());
        assert_eq!(pt.f_measure(), 1.0);
    }

    #[test]
    fn budgets_produce_dnf_with_a_degraded_mapping() {
        let ds = fig1_like();
        let out = Method::PatternSimple.run(
            &ds.pair,
            &ds.patterns,
            Budget::UNLIMITED.with_processed_cap(2),
        );
        // Paper-faithful row: DNF, zero F-measure.
        assert!(!out.finished());
        assert_eq!(out.f_measure(), 0.0);
        assert!(out.processed() <= 2);
        // Anytime row: a complete mapping with a finite gap certificate.
        assert!(out.mapping.is_complete());
        let gap = out.completion.optimality_gap().expect("DNF carries a gap");
        assert!(gap.is_finite() && gap >= 0.0);
        assert_eq!(out.anytime_f_measure(), out.quality.f_measure);
    }

    #[test]
    fn budgets_apply_to_every_method() {
        let ds = fig1_like();
        let budget = Budget::UNLIMITED.with_processed_cap(0);
        for m in ALL_METHODS {
            let out = m.run(&ds.pair, &ds.patterns, budget);
            assert!(!out.finished(), "{} ignored a zero budget", m.name());
            assert!(
                out.mapping.is_complete(),
                "{} returned an incomplete degraded mapping",
                m.name()
            );
        }
    }

    #[test]
    fn simple_and_tight_bounds_agree_on_the_result() {
        let ds = fig1_like();
        let simple = Method::PatternSimple.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
        let tight = Method::PatternTight.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
        assert!(simple.finished() && tight.finished(), "both must finish");
        assert!((simple.score - tight.score).abs() < 1e-9);
        // Tight prunes at least as well.
        assert!(tight.processed() <= simple.processed());
    }
}
