//! Pattern frequency evaluation over event logs.
//!
//! `f(p)` (Section 2.2) is the number of traces matching `p` divided by
//! `|L|`. Counting scans only the traces containing *all* of the pattern's
//! events, obtained from the inverted trace index `I_t` (Section 3.2.3).
//!
//! [`EvaluatedPattern`] computes `f1(p)` once per pattern. The paper's
//! *special* patterns (a single event, or `SEQ(a, b)` of two distinct
//! events — see [`PatternShape`]) need no scan at all: by Definition 1
//! their supports are the vertex and edge supports `f(v, v)` and
//! `f(a, b)` that the dependency graph already counts. Every other
//! pattern is scanned with its bit-parallel [`CompiledPattern`]. The AST
//! interpreter ([`pattern_support`] and friends) remains only as the
//! per-pattern fallback for patterns the compiler rejects and as the test
//! oracle the compiled engine is proven against.

use evematch_eventlog::{DepGraph, EventId, EventLog, TraceIndex};

use crate::ast::Pattern;
use crate::compiled::{compiled_identity_support, CompileError, CompiledPattern};
use crate::graph_form::{edge_groups, PatternGraph};
use crate::matcher::{trace_matches, Interrupted};

/// Work counters of one (or several accumulated) support scans, for
/// observability. Every field is deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupportStats {
    /// Inverted-index intersections performed (`I_t` probes).
    pub index_probes: u64,
    /// Candidate traces scanned with `trace_matches`.
    pub candidate_traces: u64,
    /// Candidate traces that actually matched.
    pub matched_traces: u64,
}

/// Number of traces of `log` matching `p`, counted over `⋂ I_t(v)`.
///
/// `index` must have been built from `log` (debug-asserted via the event
/// count).
pub fn pattern_support(p: &Pattern, log: &EventLog, index: &TraceIndex) -> usize {
    pattern_support_stats(p, log, index, &mut SupportStats::default())
}

/// [`pattern_support`], additionally accumulating work counters into
/// `stats`.
pub fn pattern_support_stats(
    p: &Pattern,
    log: &EventLog,
    index: &TraceIndex,
    stats: &mut SupportStats,
) -> usize {
    debug_assert_eq!(index.event_count(), log.event_count());
    let events = p.events();
    // A pattern mentioning an event outside the log's vocabulary can never
    // match; guard so `traces_with` does not index out of bounds.
    if events.iter().any(|e| e.index() >= log.event_count()) {
        return 0;
    }
    stats.index_probes += 1;
    let mut matched = 0usize;
    for t in index.traces_with_all(&events) {
        stats.candidate_traces += 1;
        // tidy-allow: matcher-confinement -- this IS the interpreter engine's support scan; the compiled engine mirrors this loop verbatim
        if trace_matches(p, &log.traces()[t as usize]) {
            matched += 1;
        }
    }
    stats.matched_traces += matched as u64;
    matched
}

/// [`pattern_support`] with cooperative interruption: `fuel` is polled once
/// per candidate trace (the scan's unit of work, each a polynomial
/// `trace_matches`), and the scan stops with [`Interrupted`] as soon as
/// `fuel` runs dry. The partial count is deliberately not returned — an
/// interrupted scan has no sound frequency.
pub fn pattern_support_with_fuel(
    p: &Pattern,
    log: &EventLog,
    index: &TraceIndex,
    fuel: &mut dyn FnMut() -> bool,
) -> Result<usize, Interrupted> {
    pattern_support_with_fuel_stats(p, log, index, fuel, &mut SupportStats::default())
}

/// [`pattern_support_with_fuel`], additionally accumulating work counters
/// into `stats` (valid even on [`Interrupted`]: probes and candidates
/// scanned so far stay counted).
pub fn pattern_support_with_fuel_stats(
    p: &Pattern,
    log: &EventLog,
    index: &TraceIndex,
    fuel: &mut dyn FnMut() -> bool,
    stats: &mut SupportStats,
) -> Result<usize, Interrupted> {
    debug_assert_eq!(index.event_count(), log.event_count());
    let events = p.events();
    if events.iter().any(|e| e.index() >= log.event_count()) {
        return Ok(0);
    }
    stats.index_probes += 1;
    let mut count = 0usize;
    for t in index.traces_with_all(&events) {
        if !fuel() {
            return Err(Interrupted);
        }
        stats.candidate_traces += 1;
        // tidy-allow: matcher-confinement -- this IS the interpreter engine's fueled support scan; the compiled engine mirrors this loop verbatim
        if trace_matches(p, &log.traces()[t as usize]) {
            count += 1;
            stats.matched_traces += 1;
        }
    }
    Ok(count)
}

/// Normalized frequency `f(p) = pattern_support / |L|`.
pub fn pattern_freq(p: &Pattern, log: &EventLog, index: &TraceIndex) -> f64 {
    if log.is_empty() {
        0.0
    } else {
        pattern_support(p, log, index) as f64 / log.len() as f64
    }
}

/// How a pattern's support is obtained, decided once from its graph
/// form. The paper's special patterns (Example 5) read their supports
/// straight off a dependency graph, in `L1` and `L2` alike; only
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
    /// Classifies a pattern by its graph form: one event is a vertex; two
    /// distinct events joined by a single edge `a → b` allow only the
    /// order `a b`, which is exactly the consecutive pair `f(a, b)` counts.
    fn of(graph: &PatternGraph) -> Self {
        match graph.events() {
            [v] => PatternShape::Vertex(*v),
            [_, _] if graph.edge_count() == 1 => match graph.edges_global().next() {
                Some((a, b)) if a != b => PatternShape::Edge(a, b),
                _ => PatternShape::Complex,
            },
            _ => PatternShape::Complex,
        }
    }
}

/// A pattern bundled with everything the matching algorithms repeatedly
/// need: its sorted event set, graph form, shape, Table-2 classification
/// and its frequency in the *source* log `L1`.
///
/// Built once per pattern before the search starts; the A\* and heuristic
/// engines then only evaluate *mapped* frequencies in `L2`.
#[derive(Clone, Debug)]
pub struct EvaluatedPattern {
    /// The pattern itself.
    pub pattern: Pattern,
    /// `V(p)`, sorted ascending.
    pub events: Vec<EventId>,
    /// Graph form (provides `ω(p)` and the edge list).
    pub graph: PatternGraph,
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
}

impl EvaluatedPattern {
    /// Evaluates `pattern` against `log` (its `L1`): a vertex pattern's
    /// support is its posting-list length in `index`, every other pattern
    /// is scanned.
    pub fn new(pattern: Pattern, log: &EventLog, index: &TraceIndex) -> Self {
        Self::build(pattern, log, |ep| match ep.shape {
            PatternShape::Vertex(v) => index.traces_with(v).len(),
            _ => ep.scan_support(log, index),
        })
    }

    /// [`Self::new`] when `log`'s dependency graph `dep` is already built:
    /// vertex and edge supports are read from `dep`, and only complex
    /// patterns are scanned.
    pub fn with_dep_graph(
        pattern: Pattern,
        log: &EventLog,
        index: &TraceIndex,
        dep: &DepGraph,
    ) -> Self {
        Self::build(pattern, log, |ep| match ep.shape {
            PatternShape::Vertex(v) => dep.vertex_support(v) as usize,
            PatternShape::Edge(a, b) => dep.edge_support(a, b) as usize,
            PatternShape::Complex => ep.scan_support(log, index),
        })
    }

    /// Everything but the support, then `support_of` for the support. A
    /// pattern mentioning an event outside `log`'s vocabulary never
    /// matches, so `support_of` only ever sees in-vocabulary events.
    fn build(pattern: Pattern, log: &EventLog, support_of: impl FnOnce(&Self) -> usize) -> Self {
        let graph = PatternGraph::of(&pattern);
        let mut ep = EvaluatedPattern {
            events: pattern.events(),
            shape: PatternShape::of(&graph),
            graph,
            edge_groups: edge_groups(&pattern),
            support: 0,
            freq: 0.0,
            compiled: CompiledPattern::compile(&pattern),
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

    /// The pattern's support in `log` by a scan over `index` candidates:
    /// the compiled automaton under the identity binding, or the
    /// interpreter for a pattern the compiler rejected.
    fn scan_support(&self, log: &EventLog, index: &TraceIndex) -> usize {
        match &self.compiled {
            Ok(cp) => compiled_identity_support(cp, &self.events, log, index),
            Err(_) => pattern_support(&self.pattern, log, index),
        }
    }

    /// Number of events `|p|`.
    pub fn size(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_eventlog::{EventId, LogBuilder};

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

    #[test]
    fn fueled_support_counts_or_interrupts() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        assert_eq!(pattern_support_with_fuel(&p, &l, &idx, &mut || true), Ok(3));
        // Three candidate traces contain {A,B,C,D}; two units of fuel stop
        // the scan before the third.
        let mut units = 2u32;
        let r = pattern_support_with_fuel(&p, &l, &idx, &mut || {
            let ok = units > 0;
            units = units.saturating_sub(1);
            ok
        });
        assert_eq!(r, Err(Interrupted));
    }

    #[test]
    fn support_stats_count_probes_and_candidates() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let mut stats = SupportStats::default();
        assert_eq!(pattern_support_stats(&p, &l, &idx, &mut stats), 3);
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.candidate_traces, 3, "only {{A,B,C,D}} traces scanned");
        assert_eq!(stats.matched_traces, 3);
        // Interrupted scans keep the partial work counted.
        let mut stats = SupportStats::default();
        let mut units = 2u32;
        let r = pattern_support_with_fuel_stats(
            &p,
            &l,
            &idx,
            &mut || {
                let ok = units > 0;
                units = units.saturating_sub(1);
                ok
            },
            &mut stats,
        );
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
    fn evaluated_pattern_caches_everything() {
        let l = log();
        let idx = l.trace_index();
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let ep = EvaluatedPattern::new(p.clone(), &l, &idx);
        assert_eq!(ep.pattern, p);
        assert_eq!(ep.size(), 4);
        assert_eq!(ep.support, 3);
        assert!((ep.freq - 0.75).abs() < 1e-12);
        assert_eq!(ep.graph.edge_count(), 6);
        assert_eq!(
            ep.events,
            vec![EventId(0), EventId(1), EventId(2), EventId(3)]
        );
    }
}
