//! Bit-parallel compiled pattern matching.
//!
//! [`crate::trace_matches`] interprets the SEQ/AND AST once per window of
//! every candidate trace — the hottest loop in the whole system (support
//! computation dominates every solver). This module compiles a
//! [`Pattern`] **once** into a small automaton and then simulates all
//! window-start positions of a trace simultaneously in a single `u64`
//! state set.
//!
//! ## Compilation scheme
//!
//! States are *configurations*: normalized sequences of items, each item
//! either a pending symbol (`Ev`) or a partially-consumed `AND` block
//! (`A(node, remaining-children mask)`). Deriving a configuration by a
//! symbol `a` is Brzozowski-style: a front `Ev(s)` consumes `a` iff
//! `s == a`; a front `AND` dispatches to the **unique** child containing
//! `a` (pattern events are pairwise distinct — the same invariant
//! `match_exact` exploits), expands that child in front of the remaining
//! block, and continues. `SEQ` is pure concatenation, so it compiles to
//! chained transitions with no item of its own. The empty configuration
//! is the sole accepting state; every accepted word has length exactly
//! `|p|`, so acceptance is equivalent to [`crate::matches_window`] on a
//! window and the all-positions simulation is equivalent to
//! [`crate::trace_matches`] on a trace.
//!
//! The configuration graph is explored breadth-first and interned into at
//! most [`STATE_BUDGET`] = 64 states (one bit of a `u64` each). Patterns
//! exceeding the budget get a **typed** [`CompileError`] and the caller
//! falls back to the interpreter — counted in `matcher.fallback.*`
//! telemetry by the evaluator, never silent.
//!
//! ## Rebinding
//!
//! The automaton is compiled over *pattern-local* symbols: positions in
//! the pattern's sorted event list. Evaluating a mapped pattern `M(p)`
//! never recompiles — the per-evaluation image tuple is applied as a
//! reverse lookup (trace event → symbol) when scanning, so one compile
//! per pattern serves every candidate mapping of the search.

use std::collections::BTreeMap;
use std::fmt;

use evematch_eventlog::EventId;

use crate::ast::{Pattern, MAX_AND_ARITY, MAX_DEPTH};

/// Maximum number of automaton states — one bit of the `u64` state set
/// each. Patterns needing more fall back to the interpreter with a typed
/// [`CompileError::StateBudgetExceeded`].
pub const STATE_BUDGET: usize = 64;

/// Symbol value meaning "this trace event is not bound to any pattern
/// event" — it kills every in-flight window thread.
const NO_SYM: u16 = u16::MAX;

/// Why a pattern could not be compiled. Every variant is a *fallback*
/// signal, not a failure: the interpreter handles the pattern instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The configuration automaton needs more than [`STATE_BUDGET`]
    /// states.
    StateBudgetExceeded {
        /// Distinct configurations discovered before compilation aborted
        /// (a lower bound on the true state count).
        states: usize,
    },
    /// The pattern violates a structural bound the compiler relies on —
    /// raw-built ASTs can bypass the smart constructors (nesting beyond
    /// [`MAX_DEPTH`], `AND` arity beyond [`MAX_AND_ARITY`], or duplicate
    /// events).
    UnsupportedShape,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::StateBudgetExceeded { states } => write!(
                f,
                "pattern needs more than {STATE_BUDGET} automaton states (found {states})"
            ),
            CompileError::UnsupportedShape => {
                write!(f, "pattern exceeds the structural bounds of the compiler")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// One item of a configuration: a pending symbol, or a partially-consumed
/// `AND` node with the mask of children still to run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Item {
    Ev(u16),
    And { node: u16, mask: u32 },
}

/// One child of a registered `AND` node: its normalized item sequence and
/// the set of symbols occurring anywhere inside it (the dispatch key).
#[derive(Clone, Debug)]
struct ChildInfo {
    norm: Vec<Item>,
    syms: u64,
}

/// A [`Pattern`] compiled to a bit-parallel automaton over pattern-local
/// symbols (positions in the pattern's sorted event list).
///
/// The compiled form is binding-independent: rebinding to a concrete
/// image tuple happens at scan time via a reverse event→symbol lookup,
/// so the search never recompiles per mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledPattern {
    /// Word length `|p|` — every accepted window has exactly this length.
    k: usize,
    /// Number of interned configurations (≤ [`STATE_BUDGET`]).
    states: usize,
    /// Transition table, row-major by state: `trans[s * k + a]` is the
    /// bit set of successor states of state `s` on symbol `a`.
    trans: Vec<u64>,
    /// Bit set of accepting states (the interned empty configuration).
    accept: u64,
}

/// Working state of one compilation: the `AND`-node registry plus the
/// symbol assignment.
struct Compiler {
    events: Vec<EventId>,
    ands: Vec<Vec<ChildInfo>>,
}

impl Compiler {
    /// Normalizes `p` onto `out`: leaves become `Ev` symbols, `SEQ`
    /// concatenates, `AND` registers a node and emits one `And` item.
    /// Recursion depth equals the AST depth, which the caller has already
    /// bounded by [`MAX_DEPTH`].
    fn norm(&mut self, p: &Pattern, out: &mut Vec<Item>) -> Result<(), CompileError> {
        match p {
            Pattern::Event(e) => {
                let s = self
                    .events
                    .binary_search(e)
                    .map_err(|_| CompileError::UnsupportedShape)?;
                out.push(Item::Ev(s as u16));
            }
            Pattern::Seq(cs) => {
                for c in cs {
                    self.norm(c, out)?;
                }
            }
            Pattern::And(cs) => {
                if cs.len() > MAX_AND_ARITY {
                    return Err(CompileError::UnsupportedShape);
                }
                let mut children = Vec::with_capacity(cs.len());
                for c in cs {
                    let mut norm = Vec::new();
                    self.norm(c, &mut norm)?;
                    // An empty child is an epsilon block: dropping it here
                    // keeps every remaining child consumable (raw-built
                    // ASTs only; constructors reject empty operators).
                    if norm.is_empty() {
                        continue;
                    }
                    let mut syms = 0u64;
                    for item in flat_symbols(&norm, &self.ands) {
                        syms |= 1u64 << item;
                    }
                    children.push(ChildInfo { norm, syms });
                }
                let node = self.ands.len() as u16;
                let mask = mask_of(children.len());
                self.ands.push(children);
                if mask != 0 {
                    out.push(Item::And { node, mask });
                }
            }
        }
        Ok(())
    }

    /// The configuration reached from `cfg` by consuming symbol `a`, or
    /// `None` when `a` cannot occur next. Iterative: each `AND` expansion
    /// descends one AST level, so the loop is bounded by the pattern
    /// depth.
    fn derive(&self, cfg: &[Item], a: u16) -> Option<Vec<Item>> {
        let mut cur: Vec<Item> = cfg.to_vec();
        loop {
            match cur.first().copied() {
                None => return None,
                Some(Item::Ev(s)) => {
                    if s != a {
                        return None;
                    }
                    cur.remove(0);
                    return Some(cur);
                }
                Some(Item::And { node, mask }) => {
                    let children = &self.ands[node as usize];
                    // Dispatch to the unique remaining child containing
                    // `a` — uniqueness holds because pattern events are
                    // pairwise distinct.
                    let mut chosen = None;
                    let mut m = mask;
                    while m != 0 {
                        let i = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if children[i].syms & (1u64 << a) != 0 {
                            chosen = Some(i);
                            break;
                        }
                    }
                    let i = chosen?;
                    let rest_mask = mask & !(1u32 << i);
                    let mut next = children[i].norm.clone();
                    if rest_mask != 0 {
                        next.push(Item::And {
                            node,
                            mask: rest_mask,
                        });
                    }
                    next.extend_from_slice(&cur[1..]);
                    cur = next;
                }
            }
        }
    }
}

/// Every symbol reachable anywhere inside a normalized item sequence
/// (resolving registered `AND` nodes transitively) — the dispatch key of
/// an `AND` child.
fn flat_symbols(norm: &[Item], ands: &[Vec<ChildInfo>]) -> Vec<u16> {
    let mut out = Vec::new();
    let mut stack: Vec<&Item> = norm.iter().collect();
    while let Some(item) = stack.pop() {
        match *item {
            Item::Ev(s) => out.push(s),
            Item::And { node, mask } => {
                let children = &ands[node as usize];
                let mut m = mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    stack.extend(children[i].norm.iter());
                }
            }
        }
    }
    out
}

/// A mask with the low `n` bits set (`n ≤ 32`).
fn mask_of(n: usize) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

impl CompiledPattern {
    /// Compiles `p` over its own sorted event list as the symbol
    /// alphabet. Returns a typed [`CompileError`] when the pattern
    /// exceeds the state budget or structural bounds — the caller then
    /// uses the interpreter for this pattern.
    pub fn compile(p: &Pattern) -> Result<Self, CompileError> {
        if p.depth() > MAX_DEPTH {
            return Err(CompileError::UnsupportedShape);
        }
        let events = p.events();
        if events.windows(2).any(|w| w[0] == w[1]) {
            return Err(CompileError::UnsupportedShape);
        }
        let k = events.len();
        // Every accepting path visits k + 1 distinct configurations (one
        // per remaining-length level), so long patterns cannot fit the
        // budget no matter their shape.
        if k + 1 > STATE_BUDGET {
            return Err(CompileError::StateBudgetExceeded { states: k + 1 });
        }
        let mut compiler = Compiler {
            events,
            ands: Vec::new(),
        };
        let mut init = Vec::new();
        compiler.norm(p, &mut init)?;

        let mut states: Vec<Vec<Item>> = vec![init.clone()];
        let mut ids: BTreeMap<Vec<Item>, usize> = BTreeMap::new();
        ids.insert(init, 0);
        let mut trans = vec![0u64; STATE_BUDGET * k.max(1)];
        let mut accept = 0u64;
        let mut s = 0usize;
        while s < states.len() {
            let cfg = states[s].clone();
            if cfg.is_empty() {
                accept |= 1u64 << s;
                s += 1;
                continue;
            }
            for a in 0..k as u16 {
                let Some(next) = compiler.derive(&cfg, a) else {
                    continue;
                };
                let id = match ids.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = states.len();
                        if id >= STATE_BUDGET {
                            return Err(CompileError::StateBudgetExceeded { states: id + 1 });
                        }
                        states.push(next.clone());
                        ids.insert(next, id);
                        id
                    }
                };
                trans[s * k + a as usize] |= 1u64 << id;
            }
            s += 1;
        }
        let state_count = states.len();
        trans.truncate(state_count * k);
        Ok(CompiledPattern {
            k,
            states: state_count,
            trans,
            accept,
        })
    }

    /// Word length `|p|`.
    pub fn size(&self) -> usize {
        self.k
    }

    /// Number of automaton states.
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// Bit-parallel simulation of **all** window-start positions of
    /// `trace` at once: state 0 (the full pattern) is re-injected at
    /// every position, a symbol outside the binding kills every in-flight
    /// thread, and any thread reaching the accept configuration proves a
    /// matching window. `sym_of` maps a trace event to its pattern-local
    /// symbol, or [`NO_SYM`].
    pub(crate) fn run(&self, trace: &[EventId], sym_of: impl Fn(EventId) -> u16) -> bool {
        if trace.len() < self.k || self.k == 0 {
            return false;
        }
        let mut cur = 0u64;
        for &e in trace {
            let a = sym_of(e) as usize;
            let mut next = 0u64;
            if a < self.k {
                let mut bits = cur | 1;
                while bits != 0 {
                    let s = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    next |= self.trans[s * self.k + a];
                }
                if next & self.accept != 0 {
                    return true;
                }
            }
            cur = next;
        }
        false
    }

    /// Whether `trace` contains a window matching the compiled pattern
    /// under the positional binding `images` (symbol `i` of the compiled
    /// pattern — the `i`-th of its sorted events — is bound to
    /// `images[i]`). For the identity binding pass the pattern's own
    /// sorted event list. `images` must be pairwise distinct; callers
    /// with a non-injective binding must use the interpreter instead.
    pub fn matches_trace(&self, images: &[EventId], trace: &[EventId]) -> bool {
        debug_assert_eq!(images.len(), self.k);
        let mut lookup: Vec<(EventId, u16)> = images
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u16))
            .collect();
        lookup.sort_unstable();
        debug_assert!(
            lookup.windows(2).all(|w| w[0].0 != w[1].0),
            "binding must be injective"
        );
        self.run(trace, |e| {
            lookup
                .binary_search_by_key(&e, |&(img, _)| img)
                .map_or(NO_SYM, |i| lookup[i].1)
        })
    }
}

/// The dense event → symbol reverse lookup of one support scan under the
/// injective binding `images` over a vocabulary of `event_count` events
/// (every image must lie inside it): symbol `i` is bound to `images[i]`,
/// every other event maps to [`NO_SYM`].
pub(crate) fn symbol_table(images: &[EventId], event_count: usize) -> Vec<u16> {
    let mut sym_of = vec![NO_SYM; event_count];
    for (i, &e) in images.iter().enumerate() {
        debug_assert_eq!(sym_of[e.index()], NO_SYM, "binding must be injective");
        sym_of[e.index()] = i as u16;
    }
    sym_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{linearizations, trace_matches};
    use crate::{EvaluatedPattern, SupportStats};
    use evematch_eventlog::LogBuilder;

    fn e(i: u32) -> Pattern {
        Pattern::event(i)
    }

    /// SEQ(A, AND(B, C), D) — the paper's running example p1.
    fn p1() -> Pattern {
        Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap()
    }

    fn ids(raw: &[u32]) -> Vec<EventId> {
        raw.iter().map(|&i| EventId(i)).collect()
    }

    #[test]
    fn single_event_and_seq_compile_and_match() {
        let p = e(5);
        let cp = CompiledPattern::compile(&p).unwrap();
        assert_eq!(cp.size(), 1);
        let binding = p.events();
        assert!(cp.matches_trace(&binding, &ids(&[7, 5, 9])));
        assert!(!cp.matches_trace(&binding, &ids(&[7, 9])));

        let p = Pattern::seq(vec![e(0), e(1), e(2)]).unwrap();
        let cp = CompiledPattern::compile(&p).unwrap();
        let binding = p.events();
        assert!(cp.matches_trace(&binding, &ids(&[0, 1, 2])));
        assert!(cp.matches_trace(&binding, &ids(&[9, 0, 1, 2, 9])));
        // A foreign event inside the window breaks contiguity.
        assert!(!cp.matches_trace(&binding, &ids(&[0, 9, 1, 2])));
        assert!(!cp.matches_trace(&binding, &ids(&[0, 2, 1])));
    }

    #[test]
    fn and_permutes_whole_blocks_only() {
        // AND(SEQ(a,b), SEQ(c,d)) allows abcd and cdab, not interleavings.
        let p = Pattern::and(vec![
            Pattern::seq(vec![e(0), e(1)]).unwrap(),
            Pattern::seq(vec![e(2), e(3)]).unwrap(),
        ])
        .unwrap();
        let cp = CompiledPattern::compile(&p).unwrap();
        let binding = p.events();
        assert!(cp.matches_trace(&binding, &ids(&[0, 1, 2, 3])));
        assert!(cp.matches_trace(&binding, &ids(&[2, 3, 0, 1])));
        assert!(!cp.matches_trace(&binding, &ids(&[0, 2, 1, 3])));
        assert!(!cp.matches_trace(&binding, &ids(&[0, 2, 3, 1])));
    }

    #[test]
    fn agrees_with_linearizations_on_p1() {
        let p = p1();
        let cp = CompiledPattern::compile(&p).unwrap();
        let binding = p.events();
        for lin in linearizations(&p) {
            assert!(cp.matches_trace(&binding, &lin), "{lin:?} must match");
        }
        assert!(!cp.matches_trace(&binding, &ids(&[0, 1, 3, 2])));
    }

    #[test]
    fn rebinding_reuses_the_compiled_shape() {
        let p = p1();
        let cp = CompiledPattern::compile(&p).unwrap();
        // Bind 0→10, 1→11, 2→12, 3→13.
        let images = ids(&[10, 11, 12, 13]);
        assert!(cp.matches_trace(&images, &ids(&[10, 12, 11, 13])));
        assert!(!cp.matches_trace(&images, &ids(&[10, 11, 12])));
        // Cross binding 0→13 … 3→10 changes which traces match.
        let crossed = ids(&[13, 12, 11, 10]);
        assert!(cp.matches_trace(&crossed, &ids(&[13, 11, 12, 10])));
        assert!(!cp.matches_trace(&crossed, &ids(&[10, 12, 11, 13])));
    }

    #[test]
    fn long_seq_exceeds_the_state_budget_with_a_typed_error() {
        let p = Pattern::seq((0..64u32).map(e).collect()).unwrap();
        match CompiledPattern::compile(&p) {
            Err(CompileError::StateBudgetExceeded { states }) => assert!(states > STATE_BUDGET),
            other => panic!("expected StateBudgetExceeded, got {other:?}"),
        }
        // 63 events (64 states) still fits.
        let p = Pattern::seq((0..63u32).map(e).collect()).unwrap();
        let cp = CompiledPattern::compile(&p).unwrap();
        assert_eq!(cp.state_count(), 64);
    }

    #[test]
    fn and_fan_out_boundary_sits_at_six_singleton_children() {
        // AND of n singleton children is the permutation language, which
        // needs 2^n states even nondeterministically (the automaton must
        // know which blocks remain): n = 6 fills the budget exactly,
        // n = 7 falls back with the typed error.
        let p = Pattern::and((0..6u32).map(e).collect()).unwrap();
        let cp = CompiledPattern::compile(&p).unwrap();
        assert_eq!(cp.size(), 6);
        assert_eq!(cp.state_count(), STATE_BUDGET, "2^6 configurations");
        let binding = p.events();
        let fwd: Vec<EventId> = (0..6).map(EventId).collect();
        let rev: Vec<EventId> = (0..6).rev().map(EventId).collect();
        assert!(cp.matches_trace(&binding, &fwd));
        assert!(cp.matches_trace(&binding, &rev));
        let mut gap = fwd.clone();
        gap[3] = EventId(99);
        assert!(!cp.matches_trace(&binding, &gap));

        let p = Pattern::and((0..7u32).map(e).collect()).unwrap();
        assert!(matches!(
            CompiledPattern::compile(&p),
            Err(CompileError::StateBudgetExceeded { .. })
        ));
    }

    #[test]
    fn compiled_support_matches_interpreted_support() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "C", "B", "D"]);
        b.push_named_trace(["A", "B", "C", "D"]);
        b.push_named_trace(["A", "B", "D"]);
        let log = b.build();
        let index = log.trace_index();
        let p = p1();
        let ep = EvaluatedPattern::new(p.clone(), &log, &index);
        assert!(ep.compiled_for(&ep.events).is_some(), "p1 compiles");
        let mut stats = SupportStats::default();
        let scanned = ep.scan(&ep.events, &index, log.columns(), &mut || true, &mut stats);
        assert_eq!(scanned, Ok(3));
        assert_eq!(ep.support, 3);
        assert_eq!(crate::pattern_support(&p, &log, &index), 3);
        assert_eq!(
            stats,
            SupportStats {
                index_probes: 1,
                candidate_traces: 3,
                matched_traces: 3,
            }
        );
    }

    #[test]
    fn out_of_vocabulary_binding_reports_zero_without_probing() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B"]);
        let log = b.build();
        let index = log.trace_index();
        let p = Pattern::seq(vec![e(0), e(1)]).unwrap();
        let ep = EvaluatedPattern::new(p, &log, &index);
        let mut stats = SupportStats::default();
        let s = ep.scan(
            &ids(&[0, 99]),
            &index,
            log.columns(),
            &mut || true,
            &mut stats,
        );
        assert_eq!(s, Ok(0));
        assert_eq!(stats.index_probes, 0, "guard fires before the probe");
    }

    #[test]
    fn raw_duplicate_events_are_rejected_as_unsupported() {
        // Bypasses the smart constructors: SEQ(a, a) duplicates an event.
        let p = Pattern::Seq(vec![e(0), e(0)]);
        assert_eq!(
            CompiledPattern::compile(&p),
            Err(CompileError::UnsupportedShape)
        );
    }

    #[test]
    fn trace_shorter_than_pattern_never_matches() {
        let p = p1();
        let cp = CompiledPattern::compile(&p).unwrap();
        let binding = p.events();
        assert!(!cp.matches_trace(&binding, &[]));
        assert!(!cp.matches_trace(&binding, &ids(&[0, 1, 2])));
    }

    /// Exhaustive cross-check on every short word over the alphabet:
    /// compiled acceptance ⟺ interpreted `trace_matches`.
    #[test]
    fn exhaustive_small_words_agree_with_the_interpreter() {
        let patterns = vec![
            p1(),
            Pattern::and(vec![e(0), Pattern::seq(vec![e(1), e(2)]).unwrap()]).unwrap(),
            Pattern::seq(vec![
                Pattern::and(vec![e(0), e(1)]).unwrap(),
                Pattern::and(vec![e(2), e(3)]).unwrap(),
            ])
            .unwrap(),
        ];
        for p in patterns {
            let cp = CompiledPattern::compile(&p).unwrap();
            let binding = p.events();
            let n = binding.len() as u32 + 1; // alphabet incl. one foreign event
            for len in 0..=5usize {
                let mut word = vec![0u32; len];
                loop {
                    let trace = ids(&word);
                    let expected = trace_matches(&p, &trace);
                    let got = cp.matches_trace(&binding, &trace);
                    assert_eq!(got, expected, "pattern {p:?}, word {word:?}");
                    // Next word in base-n counting order.
                    let mut i = 0;
                    loop {
                        if i == len {
                            break;
                        }
                        word[i] += 1;
                        if word[i] < n {
                            break;
                        }
                        word[i] = 0;
                        i += 1;
                    }
                    if i == len {
                        break;
                    }
                }
            }
        }
    }
}
