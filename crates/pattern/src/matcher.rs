//! Trace-matching semantics of patterns (Definition 4).
//!
//! `I(p)` — the set of allowed event orders — is defined recursively:
//! `SEQ` concatenates one allowed order of each child in order, `AND`
//! concatenates one allowed order of each child in *any* block order. The
//! matcher never materializes `I(p)` (it can be factorially large): because
//! the events of a pattern are pairwise distinct, a window can be matched
//! deterministically left to right — at an `AND`, the first event of the
//! remaining window uniquely identifies which child block must come next.
//!
//! [`linearizations`] does materialize `I(p)` for small patterns; the
//! property tests use it as the ground truth for [`matches_window`].

use std::cell::{Cell, RefCell};

use evematch_eventlog::EventId;

use crate::ast::Pattern;

/// A fueled search ran out of fuel before establishing its answer.
///
/// Mirrors `evematch_graph`'s interruption marker: the caller decides
/// whether to retry, degrade, or propagate.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Interrupted;

/// Largest pattern size (in events) for which [`linearizations`] will
/// enumerate `I(p)` — beyond this the enumeration is factorially large.
pub const MAX_ENUMERABLE_EVENTS: usize = 10;

/// Whether the window `w` is one of the allowed orders `I(p)`.
///
/// `w` must have exactly `p.size()` events for a match; any other length
/// returns `false`.
pub fn matches_window(p: &Pattern, w: &[EventId]) -> bool {
    w.len() == p.size() && match_exact(p, w)
}

/// Matches `p` against exactly the whole of `w` (length already checked by
/// the caller at each level).
fn match_exact(p: &Pattern, w: &[EventId]) -> bool {
    match p {
        Pattern::Event(e) => w.len() == 1 && w[0] == *e,
        Pattern::Seq(ps) => {
            let mut offset = 0;
            for child in ps {
                let sz = child.size();
                let Some(part) = w.get(offset..offset + sz) else {
                    return false;
                };
                if !match_exact(child, part) {
                    return false;
                }
                offset += sz;
            }
            offset == w.len()
        }
        Pattern::And(ps) => {
            debug_assert!(ps.len() <= 32, "AND fan-out bounded by 32 children");
            let mut remaining: u32 = (1u32 << ps.len()) - 1;
            let mut offset = 0;
            while remaining != 0 {
                let Some(&head) = w.get(offset) else {
                    return false;
                };
                // The child containing `head` is unique (events are
                // pairwise distinct across children).
                let Some(i) = child_containing(ps, remaining, head) else {
                    return false;
                };
                let sz = ps[i].size();
                let Some(part) = w.get(offset..offset + sz) else {
                    return false;
                };
                if !match_exact(&ps[i], part) {
                    return false;
                }
                remaining &= !(1u32 << i);
                offset += sz;
            }
            offset == w.len()
        }
    }
}

/// Index of the not-yet-used child whose event set contains `e`.
fn child_containing(ps: &[Pattern], remaining: u32, e: EventId) -> Option<usize> {
    (0..ps.len())
        .filter(|&i| remaining & (1u32 << i) != 0)
        .find(|&i| contains_event(&ps[i], e))
}

/// Whether `p` mentions event `e` (no allocation).
fn contains_event(p: &Pattern, e: EventId) -> bool {
    match p {
        Pattern::Event(x) => *x == e,
        Pattern::Seq(ps) | Pattern::And(ps) => ps.iter().any(|c| contains_event(c, e)),
    }
}

/// Whether `trace` matches `p` (Definition 4): some contiguous substring of
/// the trace belongs to `I(p)`.
pub fn trace_matches(p: &Pattern, trace: &[EventId]) -> bool {
    let k = p.size();
    trace.len() >= k && trace.windows(k).any(|w| match_exact(p, w))
}

/// Materializes `I(p)`: every allowed event order, in a deterministic
/// order.
///
/// Intended for tests, examples and tiny patterns only; panics when the
/// pattern has more than [`MAX_ENUMERABLE_EVENTS`] events.
pub fn linearizations(p: &Pattern) -> Vec<Vec<EventId>> {
    assert!(
        p.size() <= MAX_ENUMERABLE_EVENTS,
        "refusing to enumerate I(p) for a pattern with {} events",
        p.size()
    );
    match p {
        Pattern::Event(e) => vec![vec![*e]],
        Pattern::Seq(ps) => concat_orders(ps, &(0..ps.len()).collect::<Vec<_>>()),
        Pattern::And(ps) => {
            let mut out = Vec::new();
            let mut order: Vec<usize> = (0..ps.len()).collect();
            permute(&mut order, 0, &mut |perm| {
                out.extend(concat_orders(ps, perm));
            });
            out
        }
    }
}

/// All concatenations `w_{o0} w_{o1} …` with `w_i ∈ I(ps[i])`.
fn concat_orders(ps: &[Pattern], order: &[usize]) -> Vec<Vec<EventId>> {
    let mut acc: Vec<Vec<EventId>> = vec![Vec::new()];
    for &i in order {
        let child_lins = linearizations(&ps[i]);
        let mut next = Vec::with_capacity(acc.len() * child_lins.len());
        for prefix in &acc {
            for lin in &child_lins {
                let mut w = prefix.clone();
                w.extend_from_slice(lin);
                next.push(w);
            }
        }
        acc = next;
    }
    acc
}

/// Heap-style permutation enumeration (deterministic order).
fn permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Whether some order in `I(p)` has all of its adjacent event pairs
/// accepted by `edge_ok`.
///
/// With `edge_ok = dependency graph of L has edge (a, b)`, this is a *sound*
/// pattern-existence test (Proposition 3): if no order is realizable, no
/// trace of `L` can match `p`, so `f(p) = 0`. The search prunes on the first
/// failing adjacency instead of materializing `I(p)`.
pub fn is_realizable(p: &Pattern, edge_ok: &dyn Fn(EventId, EventId) -> bool) -> bool {
    realize(p, None, edge_ok, &mut |_| true)
}

/// [`is_realizable`] with cooperative interruption: `fuel` is polled on
/// every adjacency test — the unit of this search's worst-case-exponential
/// work (`AND` blocks explore child orders by backtracking).
///
/// When `fuel` returns `false` the remaining search collapses (every
/// further adjacency fails, a polynomial unwind) and the call reports
/// [`Interrupted`] — unless a realizable order was already found, which
/// stays a sound `Ok(true)`. `Ok(false)` is only returned for a complete,
/// uninterrupted refutation.
pub fn is_realizable_with_fuel(
    p: &Pattern,
    edge_ok: &dyn Fn(EventId, EventId) -> bool,
    fuel: &mut dyn FnMut() -> bool,
) -> Result<bool, Interrupted> {
    let fuel = RefCell::new(fuel);
    let out_of_fuel = Cell::new(false);
    let fueled = |a: EventId, b: EventId| {
        // The RefCell is never re-entered: `fuel` cannot call back into
        // this closure, and the borrow ends before `edge_ok` runs.
        if !out_of_fuel.get() && !(*fuel.borrow_mut())() {
            out_of_fuel.set(true);
        }
        !out_of_fuel.get() && edge_ok(a, b)
    };
    let found = realize(p, None, &fueled, &mut |_| true);
    if found {
        Ok(true)
    } else if out_of_fuel.get() {
        Err(Interrupted)
    } else {
        Ok(false)
    }
}

/// Continuation-passing search: does some linearization of `p` follow
/// `prev` (passing `edge_ok` on every adjacency, including `prev -> first`)
/// such that the continuation `k` accepts its last event?
///
/// Recursion audit: continuation nesting is bounded by the pattern *size*
/// (one stacked closure per event), not just its depth. Size is bounded in
/// turn by the vocabulary — patterns carry pairwise-distinct events — and
/// the vocabulary of ingested logs is capped by
/// `evematch_eventlog::IngestLimits::max_events`, so hostile inputs cannot
/// drive this recursion arbitrarily deep.
fn realize(
    p: &Pattern,
    prev: Option<EventId>,
    edge_ok: &dyn Fn(EventId, EventId) -> bool,
    k: &mut dyn FnMut(EventId) -> bool,
) -> bool {
    match p {
        Pattern::Event(e) => {
            if let Some(pv) = prev {
                if !edge_ok(pv, *e) {
                    return false;
                }
            }
            k(*e)
        }
        Pattern::Seq(ps) => realize_seq(ps, prev, edge_ok, k),
        Pattern::And(ps) => {
            // Arity ≤ 32 is a hard smart-constructor invariant
            // (`PatternError::TooManyChildren`), so the bitmask cannot be
            // truncated for constructor-built patterns; the debug_assert
            // only guards raw-built ASTs.
            debug_assert!(ps.len() <= crate::MAX_AND_ARITY);
            realize_and(ps, (1u32 << ps.len()) - 1, prev, edge_ok, k)
        }
    }
}

fn realize_seq(
    ps: &[Pattern],
    prev: Option<EventId>,
    edge_ok: &dyn Fn(EventId, EventId) -> bool,
    k: &mut dyn FnMut(EventId) -> bool,
) -> bool {
    #[expect(
        clippy::expect_used,
        reason = "SEQ operators carry ≥ 2 children by the ast.rs smart-constructor invariant"
    )]
    let (first, rest) = ps.split_first().expect("operators are non-empty");
    if rest.is_empty() {
        realize(first, prev, edge_ok, k)
    } else {
        let mut cont = |last: EventId| realize_seq(rest, Some(last), edge_ok, &mut *k);
        realize(first, prev, edge_ok, &mut cont)
    }
}

fn realize_and(
    ps: &[Pattern],
    remaining: u32,
    prev: Option<EventId>,
    edge_ok: &dyn Fn(EventId, EventId) -> bool,
    k: &mut dyn FnMut(EventId) -> bool,
) -> bool {
    let mut bits = remaining;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let rest = remaining & !(1u32 << i);
        let ok = if rest == 0 {
            realize(&ps[i], prev, edge_ok, &mut *k)
        } else {
            let mut cont = |last: EventId| realize_and(ps, rest, Some(last), edge_ok, &mut *k);
            realize(&ps[i], prev, edge_ok, &mut cont)
        };
        if ok {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    fn e(i: u32) -> Pattern {
        Pattern::event(i)
    }

    fn w(ids: &[u32]) -> Vec<EventId> {
        ids.iter().map(|&i| EventId(i)).collect()
    }

    /// The paper's p1 = SEQ(A, AND(B, C), D) with A..D = 0..3.
    fn p1() -> Pattern {
        Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap()
    }

    #[test]
    fn single_event_matching() {
        assert!(matches_window(&e(5), &w(&[5])));
        assert!(!matches_window(&e(5), &w(&[4])));
        assert!(!matches_window(&e(5), &w(&[5, 5])));
        assert!(!matches_window(&e(5), &w(&[])));
    }

    #[test]
    fn paper_p1_allows_exactly_abcd_and_acbd() {
        let p = p1();
        assert!(matches_window(&p, &w(&[0, 1, 2, 3])));
        assert!(matches_window(&p, &w(&[0, 2, 1, 3])));
        assert!(!matches_window(&p, &w(&[1, 0, 2, 3])));
        assert!(!matches_window(&p, &w(&[0, 1, 3, 2])));
        assert!(!matches_window(&p, &w(&[0, 1, 2])));
        let lins = linearizations(&p);
        assert_eq!(lins, vec![w(&[0, 1, 2, 3]), w(&[0, 2, 1, 3])]);
    }

    #[test]
    fn and_permutes_blocks_not_events() {
        // AND(SEQ(a, b), SEQ(c, d)) allows abcd and cdab, NOT interleavings.
        let p = Pattern::and(vec![
            Pattern::seq(vec![e(0), e(1)]).unwrap(),
            Pattern::seq(vec![e(2), e(3)]).unwrap(),
        ])
        .unwrap();
        assert!(matches_window(&p, &w(&[0, 1, 2, 3])));
        assert!(matches_window(&p, &w(&[2, 3, 0, 1])));
        assert!(!matches_window(&p, &w(&[0, 2, 1, 3])));
        assert!(!matches_window(&p, &w(&[0, 2, 3, 1])));
        assert_eq!(linearizations(&p).len(), 2);
    }

    #[test]
    fn and_of_three_events_allows_all_six_orders() {
        let p = Pattern::and_of_events([ev(0), ev(1), ev(2)]).unwrap();
        let lins = linearizations(&p);
        assert_eq!(lins.len(), 6);
        for lin in &lins {
            assert!(matches_window(&p, lin));
        }
        assert!(!matches_window(&p, &w(&[0, 1, 1])));
    }

    #[test]
    fn trace_matching_requires_contiguous_substring() {
        let p = Pattern::seq_of_events([ev(1), ev(2)]).unwrap();
        assert!(trace_matches(&p, &w(&[0, 1, 2, 3])));
        // 1 and 2 present but separated: no match.
        assert!(!trace_matches(&p, &w(&[1, 0, 2])));
        // Wrong order: no match.
        assert!(!trace_matches(&p, &w(&[2, 1])));
        // Shorter trace than pattern: no match.
        assert!(!trace_matches(&p, &w(&[1])));
    }

    #[test]
    fn no_foreign_event_inside_the_match() {
        let p = p1();
        // A x B C D — the window containing all of p's events includes x.
        assert!(!trace_matches(&p, &w(&[0, 9, 1, 2, 3])));
        assert!(trace_matches(&p, &w(&[9, 0, 2, 1, 3, 9])));
    }

    #[test]
    fn seq_of_seqs_flattens_semantically() {
        let p = Pattern::seq(vec![
            Pattern::seq(vec![e(0), e(1)]).unwrap(),
            Pattern::seq(vec![e(2), e(3)]).unwrap(),
        ])
        .unwrap();
        assert_eq!(linearizations(&p), vec![w(&[0, 1, 2, 3])]);
    }

    #[test]
    fn nested_and_inside_and() {
        // AND(a, AND(b, c)) — blocks: [a] and [bc | cb].
        let p = Pattern::and(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap()]).unwrap();
        let mut lins = linearizations(&p);
        lins.sort();
        let mut expect = vec![w(&[0, 1, 2]), w(&[0, 2, 1]), w(&[1, 2, 0]), w(&[2, 1, 0])];
        expect.sort();
        assert_eq!(lins, expect);
    }

    #[test]
    fn matches_window_agrees_with_linearizations_on_p1() {
        let p = p1();
        let lins = linearizations(&p);
        // All 4! orderings of {0,1,2,3}.
        let mut items = vec![0usize, 1, 2, 3];
        permute(&mut items, 0, &mut |perm| {
            let cand: Vec<EventId> = perm.iter().map(|&i| EventId(i as u32)).collect();
            assert_eq!(matches_window(&p, &cand), lins.contains(&cand));
        });
    }

    #[test]
    fn realizable_respects_edge_oracle() {
        let p = p1();
        // Only the order A B C D is realizable if C cannot follow A.
        let no_ac = |a: EventId, b: EventId| !(a == ev(0) && b == ev(2));
        assert!(is_realizable(&p, &no_ac));
        // Forbid both A->B and A->C: nothing can follow A.
        let no_start = |a: EventId, _b: EventId| a != ev(0);
        assert!(!is_realizable(&p, &no_start));
        // Forbid B->C and C->B: the AND block cannot be traversed.
        let no_bc =
            |a: EventId, b: EventId| !((a == ev(1) && b == ev(2)) || (a == ev(2) && b == ev(1)));
        assert!(!is_realizable(&p, &no_bc));
    }

    #[test]
    fn realizable_single_event_is_always_true() {
        assert!(is_realizable(&e(3), &|_, _| false));
    }

    #[test]
    fn fueled_realizability_agrees_with_unfueled_when_fuel_suffices() {
        let p = p1();
        let no_ac = |a: EventId, b: EventId| !(a == ev(0) && b == ev(2));
        assert_eq!(is_realizable_with_fuel(&p, &no_ac, &mut || true), Ok(true));
        let no_start = |a: EventId, _b: EventId| a != ev(0);
        assert_eq!(
            is_realizable_with_fuel(&p, &no_start, &mut || true),
            Ok(false)
        );
    }

    #[test]
    fn exhausted_fuel_interrupts_a_refutation() {
        // A wide AND with no usable edges forces exhaustive backtracking;
        // one unit of fuel must cut it short.
        let p = Pattern::and_of_events((0..8).map(EventId)).unwrap();
        let mut units = 1u32;
        let r = is_realizable_with_fuel(&p, &|_, _| false, &mut || {
            let ok = units > 0;
            units = units.saturating_sub(1);
            ok
        });
        assert_eq!(r, Err(Interrupted));
    }

    #[test]
    fn fuel_polls_scale_with_the_search_not_the_pattern_size() {
        // The same wide AND, fully refuted: the poll count equals the
        // adjacency tests performed, so interruption latency is one unit.
        let p = Pattern::and_of_events((0..6).map(EventId)).unwrap();
        let mut polls = 0u64;
        let r = is_realizable_with_fuel(&p, &|_, _| false, &mut || {
            polls += 1;
            true
        });
        assert_eq!(r, Ok(false));
        // 6 first-child choices, each refuted at its first adjacency.
        assert_eq!(polls, 6 * 5);
    }

    #[test]
    #[should_panic(expected = "refusing to enumerate")]
    fn linearizations_guard_against_large_patterns() {
        let p = Pattern::and_of_events((0..11).map(EventId)).unwrap();
        let _ = linearizations(&p);
    }
}
