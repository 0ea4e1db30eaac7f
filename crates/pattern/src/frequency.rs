//! Pattern frequency evaluation over event logs.
//!
//! `f(p)` (Section 2.2) is the number of traces matching `p` divided by
//! `|L|`. Counting scans only the traces containing *all* of the pattern's
//! events, obtained from the inverted trace index `I_t` (Section 3.2.3).
//!
//! Support is counted by one scan, [`EvaluatedPattern::scan`], under any
//! binding of the pattern's events: `L1` supports use the identity
//! binding, the evaluator's `L2` supports the mapped images. Its
//! bit-parallel [`CompiledPattern`] decides each candidate trace; the AST
//! interpreter decides only for a pattern the compiler rejected or a
//! binding that is not pairwise distinct. The paper's *special* patterns
//! (a single event, or `SEQ(a, b)` of two distinct events — see
//! [`PatternShape`]) need no scan at all: by Definition 1 their supports
//! are the vertex and edge supports `f(v, v)` and `f(a, b)` that the
//! dependency graph already counts. [`pattern_support`] is the plain
//! interpreter loop, kept as the test oracle the scan is proven against.

use evematch_eventlog::{ColumnarLog, DepGraph, EventId, EventLog, TraceIndex};

use crate::ast::Pattern;
use crate::canon::CanonPlan;
use crate::compiled::{symbol_table, CompileError, CompiledPattern};
use crate::graph_form::edge_groups;
use crate::matcher::{trace_matches, Interrupted};

/// Work counters of one (or several accumulated) support scans, for
/// observability. Every field is deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupportStats {
    /// Inverted-index intersections performed (`I_t` probes).
    pub index_probes: u64,
    /// Candidate traces scanned.
    pub candidate_traces: u64,
    /// Candidate traces that actually matched.
    pub matched_traces: u64,
}

/// Number of traces of `log` matching `p`, counted over `⋂ I_t(v)` by the
/// AST interpreter — the oracle [`EvaluatedPattern::scan`] is tested
/// against.
///
/// `index` must have been built from `log` (debug-asserted via the event
/// count).
pub fn pattern_support(p: &Pattern, log: &EventLog, index: &TraceIndex) -> usize {
    debug_assert_eq!(index.event_count(), log.event_count());
    let events = p.events();
    // A pattern mentioning an event outside the log's vocabulary can never
    // match; guard so `traces_with_all` does not index out of bounds.
    if events.iter().any(|e| e.index() >= log.event_count()) {
        return 0;
    }
    index
        .traces_with_all(&events)
        .into_iter()
        .filter(|&t| trace_matches(p, log.trace(t as usize)))
        .count()
}

/// Normalized frequency `f(p) = pattern_support / |L|`.
pub fn pattern_freq(p: &Pattern, log: &EventLog, index: &TraceIndex) -> f64 {
    if log.is_empty() {
        0.0
    } else {
        pattern_support(p, log, index) as f64 / log.len() as f64
    }
}

/// How a pattern's support is obtained, decided once from its AST. The
/// paper's special patterns (Example 5) read their supports straight off
/// a dependency graph, in `L1` and `L2` alike; only
/// [`PatternShape::Complex`] patterns scan a log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternShape {
    /// A single event `v`: support is the vertex support `f(v, v)`.
    Vertex(EventId),
    /// `SEQ(a, b)` of two distinct events: support is the edge support
    /// `f(a, b)`.
    Edge(EventId, EventId),
    /// Any other pattern: support needs a log scan.
    Complex,
}

impl PatternShape {
    /// Classifies a pattern: one event is a vertex; `SEQ(a, b)` of two
    /// distinct events allows only the order `a b`, which is exactly the
    /// consecutive pair `f(a, b)` counts. Every other pattern, `AND(a, b)`
    /// included, is complex.
    fn of(pattern: &Pattern) -> Self {
        match pattern {
            Pattern::Event(v) => PatternShape::Vertex(*v),
            Pattern::Seq(ps) => match ps.as_slice() {
                [Pattern::Event(a), Pattern::Event(b)] if a != b => PatternShape::Edge(*a, *b),
                _ => PatternShape::Complex,
            },
            Pattern::And(_) => PatternShape::Complex,
        }
    }
}

/// A pattern bundled with everything the matching algorithms repeatedly
/// need: its sorted event set, shape, Table-2 edge groups, compiled form,
/// canonical-key plan and its frequency in the *source* log `L1`.
///
/// Built once per pattern before the search starts; the A\* and heuristic
/// engines then only evaluate *mapped* frequencies in `L2`.
#[derive(Clone, Debug)]
pub struct EvaluatedPattern {
    /// The pattern itself.
    pub pattern: Pattern,
    /// `V(p)`, sorted ascending.
    pub events: Vec<EventId>,
    /// Special (vertex / edge) or complex — see [`PatternShape`].
    pub shape: PatternShape,
    /// Required edge groups (see [`crate::edge_groups`]) driving the
    /// structure-aware frequency caps.
    pub edge_groups: Vec<Vec<(EventId, EventId)>>,
    /// Unnormalized support in `L1`.
    pub support: usize,
    /// Normalized frequency `f1(p)`.
    pub freq: f64,
    /// The bit-parallel compiled form (see [`crate::CompiledPattern`]),
    /// or the typed reason this pattern must use the interpreter.
    /// Compiled once here so no evaluation path ever recompiles.
    pub compiled: Result<CompiledPattern, CompileError>,
    /// How an image tuple becomes the support memo's key (see
    /// [`CanonPlan`]).
    pub canon: CanonPlan,
}

impl EvaluatedPattern {
    /// Evaluates `pattern` against `log` (its `L1`): a vertex pattern's
    /// support is its posting-list length in `index`, every other pattern
    /// is scanned.
    pub fn new(pattern: Pattern, log: &EventLog, index: &TraceIndex) -> Self {
        Self::build(pattern, log, |ep| match ep.shape {
            PatternShape::Vertex(v) => index.traces_with(v).len(),
            _ => ep.l1_scan(log, index),
        })
    }

    /// [`Self::new`] when `log`'s dependency graph `dep` is already built:
    /// vertex and edge supports are read from `dep`, and only complex
    /// patterns are scanned. `index` is called only for that scan, so a
    /// caller can build `log`'s trace index on first need.
    pub fn with_dep_graph<'i>(
        pattern: Pattern,
        log: &EventLog,
        index: impl FnOnce() -> &'i TraceIndex,
        dep: &DepGraph,
    ) -> Self {
        Self::build(pattern, log, |ep| match ep.shape {
            PatternShape::Vertex(v) => dep.vertex_support(v) as usize,
            PatternShape::Edge(a, b) => dep.edge_support(a, b) as usize,
            PatternShape::Complex => ep.l1_scan(log, index()),
        })
    }

    /// Everything but the support, then `support_of` for the support. A
    /// pattern mentioning an event outside `log`'s vocabulary never
    /// matches, so `support_of` only ever sees in-vocabulary events.
    fn build(pattern: Pattern, log: &EventLog, support_of: impl FnOnce(&Self) -> usize) -> Self {
        let mut ep = EvaluatedPattern {
            events: pattern.events(),
            shape: PatternShape::of(&pattern),
            edge_groups: edge_groups(&pattern),
            support: 0,
            freq: 0.0,
            compiled: CompiledPattern::compile(&pattern),
            canon: CanonPlan::of(&pattern),
            pattern,
        };
        if ep.events.iter().all(|e| e.index() < log.event_count()) {
            ep.support = support_of(&ep);
        }
        if !log.is_empty() {
            ep.freq = ep.support as f64 / log.len() as f64;
        }
        ep
    }

    /// The compiled automaton when it decides scans under `images`, or
    /// `None` when the interpreter must: the pattern did not compile, or
    /// `images` is not pairwise distinct (the compiled reverse lookup needs
    /// an injective binding; the interpreter on the mapped AST defines the
    /// degenerate semantics).
    pub fn compiled_for(&self, images: &[EventId]) -> Option<&CompiledPattern> {
        let distinct = images
            .iter()
            .enumerate()
            .all(|(i, a)| !images[i + 1..].contains(a));
        self.compiled.as_ref().ok().filter(|_| distinct)
    }

    /// The support of the pattern bound to `images` (symbol `i`, the
    /// `i`-th of [`Self::events`], is bound to `images[i]`; the identity
    /// binding is [`Self::events`] itself): the number of candidate traces
    /// in `⋂ I_t(images)` that hold a matching window. `traces` is the
    /// storage of the log `index` was built from.
    ///
    /// An image outside `index`'s vocabulary gives support 0 before the
    /// index is probed. `fuel` is polled once per candidate trace, and the
    /// scan stops with [`Interrupted`] as soon as it runs dry — the partial
    /// count is not returned, since an interrupted scan has no sound
    /// frequency. `stats` accumulates the work done either way.
    pub fn scan(
        &self,
        images: &[EventId],
        index: &TraceIndex,
        traces: &ColumnarLog,
        fuel: &mut dyn FnMut() -> bool,
        stats: &mut SupportStats,
    ) -> Result<usize, Interrupted> {
        debug_assert_eq!(images.len(), self.events.len());
        let event_count = index.event_count();
        if images.iter().any(|e| e.index() >= event_count) {
            return Ok(0);
        }
        let decide = match self.compiled_for(images) {
            Some(cp) => Decider::Compiled(cp, symbol_table(images, event_count)),
            None => Decider::Interpreted(
                self.pattern
                    .map_events(&|e| self.events.binary_search(&e).map_or(e, |i| images[i])),
            ),
        };
        stats.index_probes += 1;
        let mut matched = 0usize;
        for t in index.traces_with_all(images) {
            if !fuel() {
                return Err(Interrupted);
            }
            stats.candidate_traces += 1;
            if decide.matches(traces.trace(t as usize)) {
                matched += 1;
                stats.matched_traces += 1;
            }
        }
        Ok(matched)
    }

    /// The pattern's own support in `log`: [`Self::scan`] under the
    /// identity binding, unfueled.
    fn l1_scan(&self, log: &EventLog, index: &TraceIndex) -> usize {
        self.scan(
            &self.events,
            index,
            log.columns(),
            &mut || true,
            &mut SupportStats::default(),
        )
        // `|| true` never runs dry, so the scan always completes.
        .unwrap_or_default()
    }

    /// Number of events `|p|`.
    pub fn size(&self) -> usize {
        self.events.len()
    }
}

/// How [`EvaluatedPattern::scan`] decides one candidate trace.
enum Decider<'p> {
    /// The compiled automaton, with the scan's event → symbol lookup.
    Compiled(&'p CompiledPattern, Vec<u16>),
    /// The interpreter on the mapped pattern.
    Interpreted(Pattern),
}

impl Decider<'_> {
    #[inline]
    fn matches(&self, trace: &[EventId]) -> bool {
        match self {
            Decider::Compiled(cp, sym_of) => cp.run(trace, |e| sym_of[e.index()]),
            Decider::Interpreted(p) => trace_matches(p, trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_eventlog::{EventId, LogBuilder};
    use proptest::prelude::*;

    use crate::canon::tests::{depth, leaves, shape_strategy, to_pattern};
    use crate::graph_form::PatternGraph;

    fn e(i: u32) -> Pattern {
        Pattern::event(i)
    }

    /// 4 traces: A(B‖C)D twice as ABCD, once as ACBD, once without C.
    fn log() -> EventLog {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "C", "B", "D"]);
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "B", "D"]);
        b.build()
    }

    #[test]
    fn vertex_pattern_frequency_matches_vertex_frequency() {
        let l = log();
        let idx = l.trace_index();
        let c = l.events().lookup("C").unwrap();
        assert_eq!(pattern_support(&Pattern::Event(c), &l, &idx), 3);
        assert!((pattern_freq(&Pattern::Event(c), &l, &idx) - l.vertex_freq(c)).abs() < 1e-12);
    }

    #[test]
    fn edge_pattern_frequency_matches_edge_frequency() {
        let l = log();
        let idx = l.trace_index();
        let a = l.events().lookup("A").unwrap();
        let b = l.events().lookup("B").unwrap();
        let p = Pattern::seq_of_events([a, b]).unwrap();
        assert_eq!(pattern_support(&p, &l, &idx), 3);
        assert!((pattern_freq(&p, &l, &idx) - l.edge_freq(a, b)).abs() < 1e-12);
    }

    #[test]
    fn paper_p1_counts_both_orders() {
        let l = log();
        let idx = l.trace_index();
        // SEQ(A, AND(B, C), D) matches ABCD and ACBD but not ABD.
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        assert_eq!(pattern_support(&p, &l, &idx), 3);
        assert!((pattern_freq(&p, &l, &idx) - 0.75).abs() < 1e-12);
    }

    /// Fuel that allows `units` candidate traces, then runs dry.
    fn fuel_for(mut units: u32) -> impl FnMut() -> bool {
        move || {
            let ok = units > 0;
            units = units.saturating_sub(1);
            ok
        }
    }

    #[test]
    fn fueled_support_counts_or_interrupts() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let ep = EvaluatedPattern::new(p, &l, &idx);
        let mut stats = SupportStats::default();
        assert_eq!(
            ep.scan(&ep.events, &idx, l.columns(), &mut || true, &mut stats),
            Ok(3)
        );
        // Three candidate traces contain {A,B,C,D}; two units of fuel stop
        // the scan before the third.
        let r = ep.scan(&ep.events, &idx, l.columns(), &mut fuel_for(2), &mut stats);
        assert_eq!(r, Err(Interrupted));
    }

    #[test]
    fn support_stats_count_probes_and_candidates() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let ep = EvaluatedPattern::new(p, &l, &idx);
        let mut stats = SupportStats::default();
        assert_eq!(
            ep.scan(&ep.events, &idx, l.columns(), &mut || true, &mut stats),
            Ok(3)
        );
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.candidate_traces, 3, "only {{A,B,C,D}} traces scanned");
        assert_eq!(stats.matched_traces, 3);
        // Interrupted scans keep the partial work counted.
        let mut stats = SupportStats::default();
        let r = ep.scan(&ep.events, &idx, l.columns(), &mut fuel_for(2), &mut stats);
        assert_eq!(r, Err(Interrupted));
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.candidate_traces, 2);
    }

    #[test]
    fn out_of_vocabulary_pattern_has_zero_support() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq_of_events([EventId(0), EventId(99)]).unwrap();
        assert_eq!(pattern_support(&p, &l, &idx), 0);
    }

    #[test]
    fn empty_log_frequency_is_zero() {
        let l = LogBuilder::new().build();
        let idx = l.trace_index();
        assert_eq!(pattern_freq(&e(0), &l, &idx), 0.0);
    }

    #[test]
    fn with_dep_graph_asks_for_the_index_only_to_scan() {
        let l = log();
        let (idx, dep) = (l.trace_index(), l.dep_graph());
        let unasked = || -> &TraceIndex { panic!("a special pattern scanned") };
        let vertex = EvaluatedPattern::with_dep_graph(e(2), &l, unasked, &dep);
        assert_eq!(vertex.support, 3);
        let edge = Pattern::seq_of_events([EventId(0), EventId(1)]).unwrap();
        let edge = EvaluatedPattern::with_dep_graph(edge, &l, unasked, &dep);
        assert_eq!(edge.support, 3);
        let and = Pattern::and(vec![e(1), e(2)]).unwrap();
        let mut asked = 0;
        let ep = EvaluatedPattern::with_dep_graph(
            and.clone(),
            &l,
            || {
                asked += 1;
                &idx
            },
            &dep,
        );
        assert_eq!(asked, 1);
        assert_eq!(ep.support, EvaluatedPattern::new(and, &l, &idx).support);
    }

    #[test]
    fn evaluated_pattern_caches_everything() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let ep = EvaluatedPattern::new(p.clone(), &l, &idx);
        assert_eq!(ep.pattern, p);
        assert_eq!(ep.size(), 4);
        assert_eq!(ep.support, 3);
        assert!((ep.freq - 0.75).abs() < 1e-12);
        assert_eq!(PatternGraph::of(&ep.pattern).edge_count(), 6);
        assert_eq!(
            ep.events,
            vec![EventId(0), EventId(1), EventId(2), EventId(3)]
        );
    }

    /// The graph-form classification, the oracle for [`PatternShape::of`]:
    /// one event is a vertex; two distinct events joined by a single edge
    /// `a → b` allow only the order `a b`.
    fn graph_shape(p: &Pattern) -> PatternShape {
        let graph = PatternGraph::of(p);
        let edges: Vec<_> = graph.edges_global().collect();
        match (graph.events(), edges.as_slice()) {
            ([v], _) => PatternShape::Vertex(*v),
            ([_, _], [(a, b)]) if a != b => PatternShape::Edge(*a, *b),
            _ => PatternShape::Complex,
        }
    }

    #[test]
    fn special_shapes_agree_with_the_graph_form() {
        use PatternShape::{Complex, Edge, Vertex};
        let and = Pattern::and(vec![e(0), e(1)]).unwrap();
        let nested = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap()]).unwrap();
        let edge = Pattern::seq(vec![e(1), e(0)]).unwrap();
        for (p, want) in [
            (e(0), Vertex(EventId(0))),
            (edge, Edge(EventId(1), EventId(0))),
            (and, Complex),
            (nested, Complex),
        ] {
            let got = (PatternShape::of(&p), graph_shape(&p));
            assert_eq!(got, (want, want), "{p:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random SEQ/AND patterns of at most 6 events and depth at
        /// most 3, the AST classification equals the graph-form one.
        #[test]
        fn ast_shape_equals_the_graph_form_shape(shape in shape_strategy()) {
            prop_assume!(leaves(&shape) <= 6 && depth(&shape) <= 3);
            let p = to_pattern(&shape, &mut 0);
            prop_assert_eq!(PatternShape::of(&p), graph_shape(&p));
        }
    }
}
