//! The uniform method registry: every approach compared in Section 6.

use evematch_core::sync::{Mutex, PoisonError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evematch_core::{
    AdvancedHeuristic, BoundKind, Budget, EntropyMatcher, EvalConfig, ExactMatcher,
    IterativeMatcher, Mapping, MatchContext, MetricsSnapshot, PatternSetBuilder, PhaseProfiler,
    ProfileSnapshot, SharedSupportCache, SimpleHeuristic,
};
use evematch_datagen::LogPair;
use evematch_pattern::Pattern;

use crate::metrics::MatchQuality;

/// One experiment cell's pool of shared support caches: one cache per
/// distinct (logs, pattern set) fingerprint — methods evaluating different
/// pattern sets cannot share memo entries, but every method with the same
/// set draws from the same cache, so e.g. the heuristics warm the exact
/// search's memo (`eval.cache.shared_hits` counts the reuse).
#[derive(Debug, Default)]
pub struct SupportCachePool {
    caches: Mutex<Vec<Arc<SharedSupportCache>>>,
}

impl SupportCachePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The pool's cache for `ctx`'s data, created on first request.
    pub fn cache_for(&self, ctx: &MatchContext) -> Arc<SharedSupportCache> {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = caches.iter().find(|c| c.matches(ctx)) {
            return Arc::clone(c);
        }
        let c = Arc::new(SharedSupportCache::for_context(ctx));
        caches.push(Arc::clone(&c));
        c
    }
}

/// One matching approach from the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Exact A\* over vertex patterns only (Kang & Naughton [7], vertex
    /// form).
    Vertex,
    /// Exact A\* over vertex + edge patterns ([7], vertex+edge form).
    VertexEdge,
    /// Iterative similarity propagation (Nejati et al. [16]).
    Iterative,
    /// Entropy-only matching ([7], non-graph variant).
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

/// The anytime mapping a budget-exhausted run still returns: every solver
/// degrades gracefully instead of reporting nothing.
#[derive(Clone, Debug)]
pub struct DegradedResult {
    /// The complete (greedy-completed) mapping.
    pub mapping: Mapping,
    /// Accuracy of the degraded mapping against ground truth.
    pub quality: MatchQuality,
    /// Pattern normal distance of the degraded mapping.
    pub score: f64,
    /// The solver's optimality-gap certificate: the optimum (in the
    /// solver's own sense — see each matcher's docs) is at most
    /// `score + optimality_gap`.
    pub optimality_gap: f64,
}

/// The result of running one method on one dataset configuration.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The method produced a mapping within budget.
    Finished {
        /// The mapping found.
        mapping: Mapping,
        /// Accuracy against ground truth.
        quality: MatchQuality,
        /// Pattern normal distance of the mapping (under the method's own
        /// pattern set).
        score: f64,
        /// Wall-clock time (context construction + search).
        elapsed: Duration,
        /// Processed candidate mappings (Figures 7c/8c/9c/10c).
        processed: u64,
        /// Telemetry snapshot of the run (see `evematch_core::telemetry`).
        metrics: MetricsSnapshot,
        /// Hierarchical phase profile of the run (index + search roots).
        profile: ProfileSnapshot,
    },
    /// The method exhausted its budget — the paper's "cannot return
    /// results" entries in Figure 12. The paper-faithful row reports DNF
    /// (zero F-measure); the anytime engine additionally reports the
    /// degraded mapping it salvaged.
    DidNotFinish {
        /// Time spent before the budget tripped.
        elapsed: Duration,
        /// Mappings processed within budget.
        processed: u64,
        /// The degraded anytime result (always present — every solver
        /// returns a complete mapping).
        degraded: DegradedResult,
        /// Telemetry snapshot of the run (see `evematch_core::telemetry`);
        /// its `budget.exhausted.*` counter names the tripped limit.
        metrics: MetricsSnapshot,
        /// Hierarchical phase profile of the run (index + search roots).
        profile: ProfileSnapshot,
    },
}

impl RunOutcome {
    /// Paper-faithful F-measure: 0 for DNF, regardless of the degraded
    /// mapping's quality.
    pub fn f_measure(&self) -> f64 {
        match self {
            RunOutcome::Finished { quality, .. } => quality.f_measure,
            RunOutcome::DidNotFinish { .. } => 0.0,
        }
    }

    /// F-measure of the mapping actually returned: the finished mapping's,
    /// or the degraded anytime mapping's on DNF.
    pub fn anytime_f_measure(&self) -> f64 {
        match self {
            RunOutcome::Finished { quality, .. } => quality.f_measure,
            RunOutcome::DidNotFinish { degraded, .. } => degraded.quality.f_measure,
        }
    }

    /// The degraded anytime mapping's F-measure, when the run was degraded.
    pub fn degraded_f_measure(&self) -> Option<f64> {
        match self {
            RunOutcome::Finished { .. } => None,
            RunOutcome::DidNotFinish { degraded, .. } => Some(degraded.quality.f_measure),
        }
    }

    /// Elapsed wall-clock time.
    pub fn elapsed(&self) -> Duration {
        match self {
            RunOutcome::Finished { elapsed, .. } | RunOutcome::DidNotFinish { elapsed, .. } => {
                *elapsed
            }
        }
    }

    /// Processed candidate mappings.
    pub fn processed(&self) -> u64 {
        match self {
            RunOutcome::Finished { processed, .. } | RunOutcome::DidNotFinish { processed, .. } => {
                *processed
            }
        }
    }

    /// Whether the method finished within budget.
    pub fn finished(&self) -> bool {
        matches!(self, RunOutcome::Finished { .. })
    }

    /// The run's telemetry snapshot.
    pub fn metrics(&self) -> &MetricsSnapshot {
        match self {
            RunOutcome::Finished { metrics, .. } | RunOutcome::DidNotFinish { metrics, .. } => {
                metrics
            }
        }
    }

    /// The run's hierarchical phase profile.
    pub fn profile(&self) -> &ProfileSnapshot {
        match self {
            RunOutcome::Finished { profile, .. } | RunOutcome::DidNotFinish { profile, .. } => {
                profile
            }
        }
    }

    /// Mutable access to the run's phase profile (retry attribution).
    pub fn profile_mut(&mut self) -> &mut ProfileSnapshot {
        match self {
            RunOutcome::Finished { profile, .. } | RunOutcome::DidNotFinish { profile, .. } => {
                profile
            }
        }
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
    fn pattern_set(&self, complex: &[Pattern]) -> PatternSetBuilder {
        match self {
            Method::Vertex | Method::Iterative | Method::Entropy => {
                PatternSetBuilder::new().vertices()
            }
            Method::VertexEdge => PatternSetBuilder::new().vertices().edges(),
            Method::PatternSimple
            | Method::PatternTight
            | Method::HeuristicSimple
            | Method::HeuristicAdvanced => PatternSetBuilder::new()
                .vertices()
                .edges()
                .complex_all(complex.iter().cloned()),
        }
    }

    /// Runs the method on a log pair with the given declared complex
    /// patterns, measuring wall-clock time end to end (context construction
    /// included — index building is part of each approach). The budget
    /// applies to every method, not only the exact searches.
    pub fn run(&self, pair: &LogPair, complex: &[Pattern], budget: Budget) -> RunOutcome {
        self.run_with(pair, complex, budget, None)
    }

    /// Like [`Method::run`], but with an optional per-cell
    /// [`SupportCachePool`]: a pool lets methods with the same pattern set
    /// share (and warm) one support memo.
    pub fn run_with(
        &self,
        pair: &LogPair,
        complex: &[Pattern],
        budget: Budget,
        pool: Option<&SupportCachePool>,
    ) -> RunOutcome {
        let start = Instant::now();
        // Context construction (dependency graphs + pattern index) is this
        // harness's "index" phase; the solver contributes its own `search`
        // root, so the merged profile reads index → search per run.
        let mut indexer = PhaseProfiler::new();
        let ctx = evematch_core::phase!(
            indexer,
            "index",
            MatchContext::new(
                pair.log1.clone(),
                pair.log2.clone(),
                self.pattern_set(complex),
            )
            // tidy-allow: no-panic -- every generator in datagen grows the vocabulary, so |V1| ≤ |V2| holds for all benchmark pairs
            .expect("log pairs satisfy |V1| ≤ |V2|")
        );
        let mut profile = indexer.finish();
        let mut config = EvalConfig::from_budget(budget);
        if let Some(pool) = pool {
            config = config.with_shared_cache(pool.cache_for(&ctx));
        }
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
        match out.completion.optimality_gap() {
            None => RunOutcome::Finished {
                quality: MatchQuality::of(&out.mapping, &pair.truth),
                mapping: out.mapping,
                score: out.score,
                elapsed: start.elapsed(),
                processed: out.stats.processed_mappings,
                metrics: out.metrics,
                profile,
            },
            Some(optimality_gap) => RunOutcome::DidNotFinish {
                elapsed: start.elapsed(),
                processed: out.stats.processed_mappings,
                degraded: DegradedResult {
                    quality: MatchQuality::of(&out.mapping, &pair.truth),
                    mapping: out.mapping,
                    score: out.score,
                    optimality_gap,
                },
                metrics: out.metrics,
                profile,
            },
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
            if let RunOutcome::Finished { mapping, .. } = &out {
                assert_eq!(mapping.len(), 6, "{} incomplete", m.name());
            }
        }
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
        let RunOutcome::DidNotFinish { degraded, .. } = &out else {
            panic!("expected DNF");
        };
        assert!(degraded.mapping.is_complete());
        assert!(degraded.optimality_gap.is_finite() && degraded.optimality_gap >= 0.0);
        assert_eq!(out.degraded_f_measure(), Some(degraded.quality.f_measure));
        assert_eq!(out.anytime_f_measure(), degraded.quality.f_measure);
    }

    #[test]
    fn budgets_apply_to_every_method() {
        let ds = fig1_like();
        let budget = Budget::UNLIMITED.with_processed_cap(0);
        for m in ALL_METHODS {
            let out = m.run(&ds.pair, &ds.patterns, budget);
            assert!(!out.finished(), "{} ignored a zero budget", m.name());
            let RunOutcome::DidNotFinish { degraded, .. } = &out else {
                panic!("{} must degrade, not vanish", m.name());
            };
            assert!(
                degraded.mapping.is_complete(),
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
        let (RunOutcome::Finished { score: s1, .. }, RunOutcome::Finished { score: s2, .. }) =
            (&simple, &tight)
        else {
            panic!("both must finish");
        };
        assert!((s1 - s2).abs() < 1e-9);
        // Tight prunes at least as well.
        assert!(tight.processed() <= simple.processed());
    }
}
