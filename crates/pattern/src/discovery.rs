//! Pattern discovery: mining discriminative SEQ/AND patterns from a log.
//!
//! The paper treats patterns as given — designed by analysts or mined by
//! frequent-episode discovery (its refs [8], [9], [10]) — and offers
//! Section-2.2 guidelines for choosing *discriminative* ones: prefer
//! patterns whose structure has few other embeddings in the dependency
//! graph, since a common structure (e.g. a 3-vertex path) maps to many
//! irrelevant candidates.
//!
//! This module implements that pipeline end to end:
//!
//! 1. mine frequent *contiguous* event sequences (windows) level-wise;
//! 2. fold pairs of frequent windows that differ by one adjacent swap into
//!    `SEQ(…, AND(x, y), …)` composites (concurrent steps show up as both
//!    orders being frequent);
//! 3. score candidates and keep the discriminative ones: few structural
//!    twins (graph-form embeddings in the dependency graph), larger
//!    patterns first.

// BTreeMap (not HashMap) everywhere here: candidate generation iterates
// the window map, and clippy's `disallowed_types` (rule T2) keeps hash
// order out of the workspace.
use std::collections::{BTreeMap, BTreeSet};

use evematch_eventlog::{EventId, EventLog};
use evematch_graph::MonoSearch;

use crate::ast::Pattern;
use crate::frequency::EvaluatedPattern;
use crate::graph_form::PatternGraph;

/// Configuration for [`discover_patterns`].
#[derive(Clone, Copy, Debug)]
pub struct DiscoveryConfig {
    /// Minimum normalized frequency a window must reach to be considered.
    pub min_support: f64,
    /// Maximum pattern length in events (windows beyond this are not
    /// mined). Must be ≥ 2.
    pub max_len: usize,
    /// Maximum number of patterns returned.
    pub max_patterns: usize,
    /// A candidate is *discriminative* only if its graph form has at most
    /// this many embeddings into the dependency graph (its own embedding
    /// included). Structures with many twins are dropped.
    pub max_structural_twins: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            min_support: 0.2,
            max_len: 4,
            max_patterns: 8,
            max_structural_twins: 2,
        }
    }
}

/// Mines discriminative composite patterns from `log`.
///
/// Returned patterns have ≥ 2 events (plain vertices and edges are already
/// covered by the Vertex/Vertex+Edge special patterns), are deduplicated and
/// ordered by decreasing size then decreasing support, truncated to
/// `cfg.max_patterns`.
pub fn discover_patterns(log: &EventLog, cfg: &DiscoveryConfig) -> Vec<Pattern> {
    assert!(cfg.max_len >= 2, "max_len must be at least 2");
    if log.is_empty() {
        return Vec::new();
    }
    let min_count = (cfg.min_support * log.len() as f64).ceil().max(1.0) as usize;
    let frequent = frequent_windows(log, cfg.max_len, min_count);
    let index = log.trace_index();
    let dep = log.dep_graph();

    let mut candidates: Vec<Pattern> = Vec::new();
    // SEQ candidates: every frequent window of length ≥ 3 as-is. Length-2
    // windows are plain edges — only interesting once folded into an AND.
    for w in frequent.keys().filter(|w| w.len() >= 3) {
        if let Ok(p) = Pattern::seq_of_events(w.iter().copied()) {
            candidates.push(p);
        }
    }
    // AND folding: windows that stay frequent under one adjacent swap.
    for w in frequent.keys() {
        for i in 0..w.len() - 1 {
            let mut swapped = w.clone();
            swapped.swap(i, i + 1);
            // Consider each unordered {w, swapped} pair once.
            if swapped >= *w || !frequent.contains_key(&swapped) {
                continue;
            }
            if let Some(p) = fold_and(w, i) {
                candidates.push(p);
            }
        }
    }
    dedup_patterns(&mut candidates);

    // Score: true support (any allowed order), discriminativeness.
    let mut scored: Vec<(Pattern, usize)> = candidates
        .into_iter()
        .filter_map(|p| {
            let ep = EvaluatedPattern::with_dep_graph(p, log, &index, &dep);
            if ep.support < min_count {
                return None;
            }
            if embeddings_capped(&ep.graph, dep.graph(), cfg.max_structural_twins + 1)
                > cfg.max_structural_twins
            {
                return None;
            }
            Some((ep.pattern, ep.support))
        })
        .collect();
    scored.sort_by(|(pa, sa), (pb, sb)| {
        pb.size()
            .cmp(&pa.size())
            .then(sb.cmp(sa))
            .then_with(|| pa.cmp(pb))
    });
    scored.truncate(cfg.max_patterns);
    scored.into_iter().map(|(p, _)| p).collect()
}

/// Counts traces containing each distinct duplicate-free window of length
/// `2..=max_len` (per-trace deduplication, like all Definition-1 counts).
fn frequent_windows(
    log: &EventLog,
    max_len: usize,
    min_count: usize,
) -> BTreeMap<Vec<EventId>, usize> {
    let mut counts: BTreeMap<Vec<EventId>, usize> = BTreeMap::new();
    let mut seen_in_trace: BTreeMap<Vec<EventId>, usize> = BTreeMap::new();
    for (t_id, trace) in log.traces().enumerate() {
        for len in 2..=max_len {
            for w in trace.windows(len) {
                if has_duplicates(w) {
                    continue;
                }
                let key = w.to_vec();
                if seen_in_trace.insert(key.clone(), t_id) != Some(t_id)
                    || seen_in_trace[&key] != t_id
                {
                    // First time this window is seen in this trace.
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
    }
    counts.retain(|_, c| *c >= min_count);
    counts
}

fn has_duplicates(w: &[EventId]) -> bool {
    // Windows are tiny (≤ max_len); quadratic scan beats hashing.
    w.iter().enumerate().any(|(i, e)| w[i + 1..].contains(e))
}

/// `SEQ(prefix…, AND(w[i], w[i+1]), suffix…)` for window `w`, collapsing to
/// a bare AND when there is no prefix/suffix.
fn fold_and(w: &[EventId], i: usize) -> Option<Pattern> {
    let and = Pattern::and_of_events([w[i], w[i + 1]]).ok()?;
    let mut parts: Vec<Pattern> = w[..i].iter().map(|&e| Pattern::Event(e)).collect();
    parts.push(and);
    parts.extend(w[i + 2..].iter().map(|&e| Pattern::Event(e)));
    Pattern::seq(parts).ok()
}

fn dedup_patterns(patterns: &mut Vec<Pattern>) {
    let mut seen = BTreeSet::new();
    patterns.retain(|p| seen.insert(p.clone()));
}

/// Backtracking steps granted to a single embedding count. Pattern graphs
/// are tiny, so a well-behaved count finishes in far fewer; the fuel only
/// exists so one pathological dependency graph cannot stall discovery.
const EMBEDDING_FUEL: u64 = 1 << 20;

/// Number of embeddings of the pattern graph `pg` into `dep`, counting
/// stops at `cap`. Fuel-limited: an interrupted search reports the
/// embeddings seen so far (a valid lower bound, and `cap` already made the
/// count a floor).
fn embeddings_capped(pg: &PatternGraph, dep: &evematch_graph::DiGraph, cap: usize) -> usize {
    let mut n = 0;
    let mut steps = 0u64;
    let _ = MonoSearch::new(pg.graph(), dep).enumerate_with_fuel(
        &mut |_| {
            n += 1;
            n < cap
        },
        &mut || {
            steps += 1;
            steps <= EMBEDDING_FUEL
        },
    );
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_eventlog::LogBuilder;

    /// A and B||C and D with a distinctive tail E F; plus unrelated noise
    /// path X Y Z repeated in many orders so 3-paths there are common.
    fn log() -> EventLog {
        let mut b = LogBuilder::new();
        for _ in 0..5 {
            b.push_named_trace(["A", "B", "C", "D", "E", "F"]);
            b.push_named_trace(["A", "C", "B", "D", "E", "F"]);
        }
        b.build()
    }

    #[test]
    fn discovers_the_and_composite() {
        let patterns = discover_patterns(&log(), &DiscoveryConfig::default());
        assert!(!patterns.is_empty());
        // Expect SEQ(A, AND(B, C), D) — or at least some AND over {B, C}.
        let has_and_bc = patterns.iter().any(|p| {
            format!("{p:?}").contains("And") && {
                let evs = p.events();
                evs.contains(&EventId(1)) && evs.contains(&EventId(2))
            }
        });
        assert!(has_and_bc, "expected an AND(B,C) composite in {patterns:?}");
    }

    #[test]
    fn discovered_patterns_have_at_least_two_events() {
        for p in discover_patterns(&log(), &DiscoveryConfig::default()) {
            assert!(p.size() >= 2);
        }
    }

    #[test]
    fn min_support_filters_rare_windows() {
        let mut b = LogBuilder::new();
        for _ in 0..9 {
            b.push_named_trace(["A", "B"]);
        }
        b.push_named_trace(["C", "D", "E"]);
        let log = b.build();
        let cfg = DiscoveryConfig {
            min_support: 0.5,
            ..DiscoveryConfig::default()
        };
        let patterns = discover_patterns(&log, &cfg);
        for p in &patterns {
            assert!(!p.events().contains(&EventId(2)), "rare CDE leaked: {p:?}");
        }
    }

    #[test]
    fn empty_log_discovers_nothing() {
        let log = LogBuilder::new().build();
        assert!(discover_patterns(&log, &DiscoveryConfig::default()).is_empty());
    }

    #[test]
    fn max_patterns_truncates() {
        let cfg = DiscoveryConfig {
            max_patterns: 1,
            ..DiscoveryConfig::default()
        };
        assert!(discover_patterns(&log(), &cfg).len() <= 1);
    }

    #[test]
    fn repeated_events_in_windows_are_skipped() {
        let mut b = LogBuilder::new();
        for _ in 0..10 {
            b.push_named_trace(["A", "A", "A", "A"]);
        }
        let log = b.build();
        // Every window has duplicates; nothing to discover.
        assert!(discover_patterns(&log, &DiscoveryConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "max_len")]
    fn max_len_must_be_at_least_two() {
        let cfg = DiscoveryConfig {
            max_len: 1,
            ..DiscoveryConfig::default()
        };
        discover_patterns(&log(), &cfg);
    }
}
