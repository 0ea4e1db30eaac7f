//! Problem setup: the matching context and pattern-set construction.

use std::fmt;

use evematch_eventlog::{DepGraph, EventLog, TraceIndex};
use evematch_pattern::{EvaluatedPattern, Pattern, PatternIndex};

use crate::bounds::BoundTables;

/// Errors raised when assembling a [`MatchContext`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContextError {
    /// `|V1| > |V2|`: an injective mapping `V1 → V2` cannot exist. Swap the
    /// logs (and invert the result) or pad the smaller vocabulary.
    SourceLargerThanTarget {
        /// `|V1|`.
        n1: usize,
        /// `|V2|`.
        n2: usize,
    },
    /// A declared pattern mentions an event outside `V1`.
    PatternOutOfVocabulary {
        /// Index of the offending pattern in the declared list.
        pattern: usize,
    },
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextError::SourceLargerThanTarget { n1, n2 } => write!(
                f,
                "|V1| = {n1} exceeds |V2| = {n2}; swap the logs or pad the target vocabulary"
            ),
            ContextError::PatternOutOfVocabulary { pattern } => {
                write!(f, "pattern #{pattern} mentions an event outside V1")
            }
        }
    }
}

impl std::error::Error for ContextError {}

/// Builds the pattern set `P` for a matching task.
///
/// Following the paper (Example 5, Section 2.2), `P` normally contains the
/// *special* patterns — every vertex of `V1` and every dependency edge of
/// `G1` as `SEQ(a, b)` — plus any number of declared complex patterns. The
/// baselines are the restrictions: Vertex uses vertices only, Vertex+Edge
/// vertices and edges, and the paper's Pattern method adds the composites.
///
/// Self-loop dependency edges (an event repeated back to back) are skipped:
/// `SEQ(v, v)` would duplicate an event, which patterns forbid.
#[derive(Clone, Debug, Default)]
pub struct PatternSetBuilder {
    vertices: bool,
    edges: bool,
    complex: Vec<Pattern>,
}

impl PatternSetBuilder {
    /// Starts an empty pattern set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Includes every event of `V1` as a vertex pattern.
    pub fn vertices(mut self) -> Self {
        self.vertices = true;
        self
    }

    /// Includes every non-loop dependency edge of `G1` as `SEQ(a, b)`.
    pub fn edges(mut self) -> Self {
        self.edges = true;
        self
    }

    /// Adds one declared complex pattern.
    pub fn complex(mut self, p: Pattern) -> Self {
        self.complex.push(p);
        self
    }

    /// Adds several declared complex patterns.
    pub fn complex_all(mut self, ps: impl IntoIterator<Item = Pattern>) -> Self {
        self.complex.extend(ps);
        self
    }

    /// Materializes the pattern list against `L1`'s dependency graph.
    fn materialize(&self, dep1: &DepGraph) -> (Vec<Pattern>, usize) {
        let mut out = Vec::new();
        if self.vertices {
            out.extend((0..dep1.event_count() as u32).map(Pattern::event));
        }
        if self.edges {
            for (a, b) in dep1.edges() {
                // a != b keeps the SEQ duplicate-free, so the constructor
                // cannot fail; `if let` keeps this panic-free regardless.
                if a != b {
                    if let Ok(p) = Pattern::seq_of_events([a, b]) {
                        out.push(p);
                    }
                }
            }
        }
        out.extend(self.complex.iter().cloned());
        (out, self.complex.len())
    }
}

/// Everything a matching run needs, computed once: both logs, their
/// dependency graphs (Definition 1), their inverted trace indices `I_t`
/// (Section 3.2.3), the evaluated pattern set (frequencies in `L1`), the
/// inverted pattern index `I_p` (Section 3.2.1), and the Tight bound's
/// target-side tables.
#[derive(Debug)]
pub struct MatchContext {
    log1: EventLog,
    log2: EventLog,
    dep1: DepGraph,
    dep2: DepGraph,
    bound_tables: BoundTables,
    index2: TraceIndex,
    patterns: Vec<EvaluatedPattern>,
    pattern_index: PatternIndex,
    complex_count: usize,
}

impl MatchContext {
    /// Assembles a context from two logs and a pattern-set description.
    ///
    /// Requires `|V1| ≤ |V2|` (the paper's w.l.o.g. assumption): the exact
    /// and heuristic algorithms construct injective mappings `V1 → V2`.
    pub fn new(
        log1: EventLog,
        log2: EventLog,
        patterns: PatternSetBuilder,
    ) -> Result<Self, ContextError> {
        let (n1, n2) = (log1.event_count(), log2.event_count());
        if n1 > n2 {
            return Err(ContextError::SourceLargerThanTarget { n1, n2 });
        }
        let dep1 = log1.dep_graph();
        let (pattern_list, complex_count) = patterns.materialize(&dep1);
        let declared_start = pattern_list.len() - complex_count;
        for (i, p) in pattern_list[declared_start..].iter().enumerate() {
            if p.events().iter().any(|e| e.index() >= n1) {
                return Err(ContextError::PatternOutOfVocabulary { pattern: i });
            }
        }
        let index1 = log1.trace_index();
        let index2 = log2.trace_index();
        let dep2 = log2.dep_graph();
        let bound_tables = BoundTables::new(&dep2);
        let patterns: Vec<EvaluatedPattern> = pattern_list
            .into_iter()
            .map(|p| EvaluatedPattern::with_dep_graph(p, &log1, &index1, &dep1))
            .collect();
        let pattern_index =
            PatternIndex::new(n1, patterns.iter().map(|ep| ep.events.clone()).collect());
        Ok(MatchContext {
            log1,
            log2,
            dep1,
            dep2,
            bound_tables,
            index2,
            patterns,
            pattern_index,
            complex_count,
        })
    }

    /// The source log `L1`.
    pub fn log1(&self) -> &EventLog {
        &self.log1
    }

    /// The target log `L2`.
    pub fn log2(&self) -> &EventLog {
        &self.log2
    }

    /// Dependency graph of `L1`.
    pub fn dep1(&self) -> &DepGraph {
        &self.dep1
    }

    /// Dependency graph of `L2`.
    pub fn dep2(&self) -> &DepGraph {
        &self.dep2
    }

    /// The Tight bound's tables over `G2`, built once beside [`Self::dep2`].
    pub fn bound_tables(&self) -> &BoundTables {
        &self.bound_tables
    }

    /// Inverted trace index of `L2` (pattern frequencies in `L2` are the
    /// ones evaluated during search).
    pub fn index2(&self) -> &TraceIndex {
        &self.index2
    }

    /// `|V1|`.
    pub fn n1(&self) -> usize {
        self.log1.event_count()
    }

    /// `|V2|`.
    pub fn n2(&self) -> usize {
        self.log2.event_count()
    }

    /// The evaluated pattern set `P` (with `f1` precomputed).
    pub fn patterns(&self) -> &[EvaluatedPattern] {
        &self.patterns
    }

    /// The inverted pattern index `I_p`.
    pub fn pattern_index(&self) -> &PatternIndex {
        &self.pattern_index
    }

    /// Number of *declared complex* patterns (the `# patterns` column of
    /// Table 3; vertex and edge special patterns are not counted).
    pub fn complex_count(&self) -> usize {
        self.complex_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_eventlog::{EventId, LogBuilder};

    fn small_logs() -> (EventLog, EventLog) {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C"]);
        b1.push_named_trace(["A", "C", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z", "w"]);
        b2.push_named_trace(["x", "z", "y", "w"]);
        (b1.build(), b2.build())
    }

    #[test]
    fn vertices_and_edges_materialize() {
        let (l1, l2) = small_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        // 3 vertex patterns + edges {AB, BC, AC, CB} = 4.
        assert_eq!(ctx.patterns().len(), 7);
        assert_eq!(ctx.complex_count(), 0);
        assert_eq!(ctx.n1(), 3);
        assert_eq!(ctx.n2(), 4);
    }

    #[test]
    fn complex_patterns_are_counted_separately() {
        let (l1, l2) = small_logs();
        let p = Pattern::and_of_events([EventId(1), EventId(2)]).unwrap();
        let ctx =
            MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().complex(p)).unwrap();
        assert_eq!(ctx.patterns().len(), 4);
        assert_eq!(ctx.complex_count(), 1);
        // The AND pattern matches both traces: f1 = 1.0.
        assert!((ctx.patterns()[3].freq - 1.0).abs() < 1e-12);
    }

    #[test]
    fn source_larger_than_target_is_rejected() {
        let (l1, l2) = small_logs();
        let err = MatchContext::new(l2, l1, PatternSetBuilder::new().vertices()).unwrap_err();
        assert!(matches!(
            err,
            ContextError::SourceLargerThanTarget { n1: 4, n2: 3 }
        ));
        assert!(err.to_string().contains("|V1| = 4"));
    }

    #[test]
    fn out_of_vocabulary_pattern_is_rejected() {
        let (l1, l2) = small_logs();
        let p = Pattern::seq_of_events([EventId(0), EventId(9)]).unwrap();
        let err = MatchContext::new(l1, l2, PatternSetBuilder::new().complex(p)).unwrap_err();
        assert_eq!(err, ContextError::PatternOutOfVocabulary { pattern: 0 });
    }

    #[test]
    fn self_loop_edges_are_skipped() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "A", "B"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "x", "y"]);
        let ctx =
            MatchContext::new(b1.build(), b2.build(), PatternSetBuilder::new().edges()).unwrap();
        // Dependency edges: A->A (loop, skipped) and A->B.
        assert_eq!(ctx.patterns().len(), 1);
    }

    #[test]
    fn expansion_order_prefers_pattern_heavy_events() {
        let (l1, l2) = small_logs();
        let ctx = MatchContext::new(l1, l2, PatternSetBuilder::new().vertices().edges()).unwrap();
        let order = ctx.pattern_index().expansion_order();
        assert_eq!(order.len(), 3);
        // B and C each appear in 1 vertex + 3 edge patterns; A in 1 + 2.
        assert_eq!(order[2], EventId(0));
    }
}
