//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;

use evematch::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Structural shape of a pattern; leaves get distinct events later.
#[derive(Clone, Debug)]
enum Shape {
    Leaf,
    Seq(Vec<Shape>),
    And(Vec<Shape>),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let leaf = Just(Shape::Leaf);
    leaf.prop_recursive(3, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..=3).prop_map(Shape::Seq),
            prop::collection::vec(inner, 2..=3).prop_map(Shape::And),
        ]
    })
}

fn leaves(shape: &Shape) -> usize {
    match shape {
        Shape::Leaf => 1,
        Shape::Seq(cs) | Shape::And(cs) => cs.iter().map(leaves).sum(),
    }
}

fn to_pattern(shape: &Shape, next: &mut u32) -> Pattern {
    match shape {
        Shape::Leaf => {
            let e = Pattern::event(*next);
            *next += 1;
            e
        }
        Shape::Seq(cs) => Pattern::seq(cs.iter().map(|c| to_pattern(c, next)).collect())
            .expect("distinct fresh events"),
        Shape::And(cs) => Pattern::and(cs.iter().map(|c| to_pattern(c, next)).collect())
            .expect("distinct fresh events"),
    }
}

/// Random pattern with ≤ 7 distinct events (ids 0..k).
fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    shape_strategy()
        .prop_filter("bounded event count", |s| leaves(s) <= 7)
        .prop_map(|s| to_pattern(&s, &mut 0))
}

/// A random log over `n` events.
fn log_strategy(n: u32, max_traces: usize) -> impl Strategy<Value = EventLog> {
    prop::collection::vec(prop::collection::vec(0..n, 1..8usize), 1..=max_traces).prop_map(
        move |traces| {
            let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
            let mut b =
                LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)));
            for t in traces {
                b.push_trace(t);
            }
            b.build()
        },
    )
}

// ---------------------------------------------------------------------
// Pattern semantics
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matches_window` agrees with explicit membership in `I(p)` for
    /// every permutation of the pattern's events.
    #[test]
    fn window_matching_equals_linearization_membership(p in pattern_strategy(), seed in 0u64..1000) {
        use evematch::pattern::{linearizations, matches_window};
        let lins = linearizations(&p);
        let events = p.events();
        // Check all linearizations match.
        for lin in &lins {
            prop_assert!(matches_window(&p, lin));
        }
        // Check pseudo-random permutations agree with membership.
        let mut perm: Vec<EventId> = events.clone();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..10 {
            // Fisher–Yates with an inline LCG for reproducibility.
            for i in (1..perm.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                perm.swap(i, j);
            }
            prop_assert_eq!(matches_window(&p, &perm), lins.contains(&perm));
        }
    }

    /// Every linearization's adjacent pairs are edges of the graph form,
    /// and `is_realizable` with a full oracle is always true.
    #[test]
    fn graph_form_covers_all_linearizations(p in pattern_strategy()) {
        use evematch::pattern::{is_realizable, linearizations};
        let g = PatternGraph::of(&p);
        for lin in linearizations(&p) {
            for w in lin.windows(2) {
                prop_assert!(
                    g.edges_global().any(|(a, b)| a == w[0] && b == w[1]),
                    "missing edge {:?} for {:?}", w, p
                );
            }
        }
        prop_assert!(is_realizable(&p, &|_, _| true));
    }

    /// Pattern frequency never exceeds any member event's frequency, and
    /// matches the brute-force count over `I(p)` substrings.
    #[test]
    fn pattern_frequency_invariants(log in log_strategy(5, 12), p in pattern_strategy()) {
        use evematch::pattern::linearizations;
        prop_assume!(p.size() <= 5);
        let idx = log.trace_index();
        let support = pattern_support(&p, &log, &idx);
        // Bounded by every member vertex support.
        for &e in &p.events() {
            if e.index() < log.event_count() {
                prop_assert!(support <= log.vertex_support(e));
            } else {
                prop_assert_eq!(support, 0);
            }
        }
        // Brute force: a trace matches iff some linearization is a
        // contiguous substring.
        if p.events().iter().all(|e| e.index() < log.event_count()) {
            let lins = linearizations(&p);
            let brute = log
                .traces()
                .filter(|t| {
                    lins.iter().any(|lin| t.windows(lin.len()).any(|w| w == lin.as_slice()))
                })
                .count();
            prop_assert_eq!(support, brute);
        }
    }
}

// ---------------------------------------------------------------------
// Matching optimality and bounds
// ---------------------------------------------------------------------

fn brute_force_best(ctx: &MatchContext) -> f64 {
    fn go(ctx: &MatchContext, m: &mut Mapping, v1: usize, best: &mut f64) {
        if v1 == ctx.n1() {
            *best = best.max(score::pattern_normal_distance(ctx, m));
            return;
        }
        for b in m.unused_targets() {
            m.insert(EventId(v1 as u32), b);
            go(ctx, m, v1 + 1, best);
            m.remove(EventId(v1 as u32));
        }
    }
    let mut m = Mapping::empty(ctx.n1(), ctx.n2());
    let mut best = f64::NEG_INFINITY;
    go(ctx, &mut m, 0, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both A* bounds find the brute-force optimum on small instances.
    #[test]
    fn astar_is_optimal(l1 in log_strategy(4, 8), l2 in log_strategy(4, 8)) {
        let build = || MatchContext::new(
            l1.clone(),
            l2.clone(),
            PatternSetBuilder::new().vertices().edges(),
        ).unwrap();
        let best = brute_force_best(&build());
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let out = ExactMatcher::new(bound).solve(&build());
            prop_assert!(out.completion.is_finished());
            prop_assert!(
                (out.score - best).abs() < 1e-9,
                "{:?}: {} vs brute {}", bound, out.score, best
            );
        }
    }

    /// Anytime runs never beat the true optimum, and the optimum always
    /// sits within the reported gap certificate.
    #[test]
    fn anytime_results_respect_the_optimum(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
        cap in 0u64..12,
    ) {
        let build = || MatchContext::new(
            l1.clone(),
            l2.clone(),
            PatternSetBuilder::new().vertices().edges(),
        ).unwrap();
        let best = brute_force_best(&build());
        let budget = Budget::UNLIMITED.with_processed_cap(cap);
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let out = ExactMatcher::new(bound).with_budget(budget).solve(&build());
            prop_assert!(out.mapping.is_complete() || build().n1() == 0);
            prop_assert!(out.score <= best + 1e-9, "anytime {} beats brute {}", out.score, best);
            if let Some(gap) = out.completion.optimality_gap() {
                prop_assert!(gap >= 0.0 && gap.is_finite());
                prop_assert!(best <= out.score + gap + 1e-9,
                    "optimum {} outside certificate {} + {}", best, out.score, gap);
            }
        }
        // Budget-limited heuristics are anytime too and stay sound.
        let simple = SimpleHeuristic::new(BoundKind::Tight).with_budget(budget).solve(&build());
        prop_assert!(simple.score <= best + 1e-9);
        let advanced = AdvancedHeuristic::new(BoundKind::Tight).with_budget(budget).solve(&build());
        prop_assert!(advanced.score <= best + 1e-9);
    }

    /// The deadline path certifies its gap too: with an already-elapsed
    /// deadline the search still returns a complete mapping and a finite
    /// gap that contains the brute-force optimum.
    #[test]
    fn deadline_exhaustion_certifies_the_gap(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
    ) {
        use std::time::Duration;
        let build = || MatchContext::new(
            l1.clone(),
            l2.clone(),
            PatternSetBuilder::new().vertices().edges(),
        ).unwrap();
        let best = brute_force_best(&build());
        let budget = Budget::UNLIMITED.with_deadline(Duration::ZERO);
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let out = ExactMatcher::new(bound).with_budget(budget).solve(&build());
            prop_assert!(out.mapping.is_complete() || build().n1() == 0);
            prop_assert!(!out.completion.is_finished());
            prop_assert!(out.score <= best + 1e-9);
            let gap = out.completion.optimality_gap().unwrap_or(f64::NAN);
            prop_assert!(gap >= 0.0 && gap.is_finite());
            prop_assert!(best <= out.score + gap + 1e-9,
                "{:?}: optimum {} outside certificate {} + {}", bound, best, out.score, gap);
        }
    }

    /// Budget monotonicity: granting the exact search a larger processed
    /// cap never yields a worse returned score.
    #[test]
    fn larger_budgets_never_score_worse(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
        small in 0u64..10,
        extra in 0u64..10,
    ) {
        let build = || MatchContext::new(
            l1.clone(),
            l2.clone(),
            PatternSetBuilder::new().vertices().edges(),
        ).unwrap();
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let lo = ExactMatcher::new(bound)
                .with_budget(Budget::UNLIMITED.with_processed_cap(small))
                .solve(&build());
            let hi = ExactMatcher::new(bound)
                .with_budget(Budget::UNLIMITED.with_processed_cap(small + extra))
                .solve(&build());
            prop_assert!(
                hi.score >= lo.score - 1e-9,
                "{:?}: cap {} scored {}, cap {} scored {}",
                bound, small, lo.score, small + extra, hi.score
            );
        }
    }

    /// Identical processed-cap budgets are bit-deterministic: same budget,
    /// same mapping, same score bits.
    #[test]
    fn processed_cap_budgets_are_bit_deterministic(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
        cap in 0u64..12,
    ) {
        let build = || MatchContext::new(
            l1.clone(),
            l2.clone(),
            PatternSetBuilder::new().vertices().edges(),
        ).unwrap();
        let budget = Budget::UNLIMITED.with_processed_cap(cap);
        let a = ExactMatcher::new(BoundKind::Tight).with_budget(budget).solve(&build());
        let b = ExactMatcher::new(BoundKind::Tight).with_budget(budget).solve(&build());
        prop_assert_eq!(&a.mapping, &b.mapping);
        prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        prop_assert_eq!(a.processed(), b.processed());
    }

    /// The advanced heuristic equals the optimum for vertex-only patterns
    /// (Proposition 6), including rectangular instances.
    #[test]
    fn advanced_heuristic_prop6(l1 in log_strategy(3, 8), l2 in log_strategy(5, 8)) {
        let ctx = MatchContext::new(
            l1, l2,
            PatternSetBuilder::new().vertices(),
        ).unwrap();
        let best = brute_force_best(&ctx);
        let heur = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        prop_assert!(
            (heur.score - best).abs() < 1e-9,
            "heuristic {} vs brute {}", heur.score, best
        );
    }

    /// Heuristics never exceed the exact optimum, and exact g+h stays
    /// admissible all the way down (checked implicitly by optimality of
    /// the returned score against every complete mapping).
    #[test]
    fn heuristics_are_sound(l1 in log_strategy(4, 6), l2 in log_strategy(4, 6)) {
        let build = |_: ()| MatchContext::new(
            l1.clone(),
            l2.clone(),
            PatternSetBuilder::new().vertices().edges(),
        ).unwrap();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&build(()));
        let simple = SimpleHeuristic::new(BoundKind::Tight).solve(&build(()));
        let advanced = AdvancedHeuristic::new(BoundKind::Tight).solve(&build(()));
        prop_assert!(simple.score <= exact.score + 1e-9);
        prop_assert!(advanced.score <= exact.score + 1e-9);
    }

    /// The Table-2 upper bound dominates the realized contribution of
    /// every complete mapping of the pattern into the allowed set.
    #[test]
    fn tight_bound_is_admissible(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
        p in pattern_strategy(),
    ) {
        prop_assume!(p.size() <= 4);
        prop_assume!(p.events().iter().all(|e| e.index() < 4));
        let ctx = MatchContext::new(
            l1, l2,
            PatternSetBuilder::new().complex(p.clone()),
        ).unwrap();
        let allowed: Vec<EventId> = (0..ctx.n2() as u32).map(EventId).collect();
        // Bound for the fully-unmapped pattern over all of V2.
        let mut eval_m = evematch::core::Evaluator::new(&ctx);
        let empty = Mapping::empty(ctx.n1(), ctx.n2());
        let (_, h) = score::score_partial(&mut eval_m, &empty, BoundKind::Tight);
        // Enumerate all injective image tuples of the pattern's events.
        let k = p.events().len();
        let mut images = vec![];
        enumerate_tuples(&allowed, k, &mut vec![], &mut images);
        for tuple in images {
            let d = eval_m.d_with_images(0, &tuple);
            prop_assert!(
                d <= h + 1e-9,
                "realized {} exceeds bound {} for images {:?}", d, h, tuple
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Table-2 bound stays admissible under partial mappings: for a
    /// random mapping that fixes some of the pattern's events and uses
    /// some unrelated targets, every injective completion's `d(p)` is at
    /// most `Δ(p, M)`. `L1` holds `p` at least once and `L2` is `L1`
    /// renamed by a rotation (plus one unused event), so completions that
    /// follow the rotation realize `d = 1` and any cap below the true best
    /// unused frequency fails. This checks the
    /// fixed-image vertex caps and the one-end-fixed edge caps (first-unused
    /// lookups in the bound tables) directly.
    #[test]
    fn tight_bound_is_admissible_under_partial_mappings(
        l1 in log_strategy(6, 8),
        kind in 0u8..3,
        k in 2u32..5,
        shift in 0u32..7,
        picks in prop::collection::vec(0u32..3, 6..=6),
    ) {
        // SEQ, AND, or SEQ(e0, AND(rest)) over the events 0..k.
        let evs = (0..k).map(EventId);
        let p = match kind {
            0 => Pattern::seq_of_events(evs),
            1 => Pattern::and_of_events(evs),
            _ => Pattern::seq(vec![
                Pattern::event(0),
                Pattern::and((1..k).map(Pattern::event).collect()).unwrap(),
            ]),
        }
        .unwrap();
        // L1 gains one trace realizing p, so f1 > 0.
        let rotate = |e: u32| (e + shift) % 7;
        let names = |n: u32, prefix: &str| {
            let names: Vec<String> = (0..n).map(|i| format!("{prefix}{i}")).collect();
            LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)))
        };
        let (mut b1, mut b2) = (names(6, "e"), names(7, "t"));
        let traces = l1.traces().map(|t| t.iter().map(|e| e.0).collect());
        for t in traces.chain([(0..k).collect::<Vec<u32>>()]) {
            b2.push_trace(t.iter().map(|&e| rotate(e)));
            b1.push_trace(t);
        }
        let ctx = MatchContext::new(
            b1.build(), b2.build(),
            PatternSetBuilder::new().complex(p.clone()),
        ).unwrap();
        // Source i stays free (pick 0), follows the rotation (1), or takes
        // another target (2), when that target is still free. Sources 4
        // and 5 are in no pattern: they only use up targets.
        let mut m = Mapping::empty(ctx.n1(), ctx.n2());
        for (i, &pick) in picks.iter().enumerate().filter(|&(_, &pick)| pick > 0) {
            let t = EventId(rotate(i as u32 + pick - 1));
            if !m.is_used(t) {
                m.insert(EventId(i as u32), t);
            }
        }
        let ep = &ctx.patterns()[0];
        let pre = evematch::core::BoundPrecomp::new(&m, ctx.bound_tables());
        let delta = evematch::core::upper_bound_partial(
            BoundKind::Tight, ep, &m, ctx.bound_tables(), &pre,
        );
        let unfixed: Vec<usize> =
            (0..ep.events.len()).filter(|&i| !m.is_mapped(ep.events[i])).collect();
        let mut fills = vec![];
        enumerate_tuples(&m.unused_targets(), unfixed.len(), &mut vec![], &mut fills);
        let mut eval = evematch::core::Evaluator::new(&ctx);
        for fill in fills {
            let mut images: Vec<EventId> =
                ep.events.iter().map(|&e| m.get(e).unwrap_or(EventId(u32::MAX))).collect();
            for (&i, &t) in unfixed.iter().zip(&fill) {
                images[i] = t;
            }
            let d = eval.d_with_images(0, &images);
            prop_assert!(
                d <= delta + 1e-9,
                "realized {} exceeds bound {} under {} for images {:?}", d, delta, m, images
            );
        }
    }
}

fn enumerate_tuples(
    allowed: &[EventId],
    k: usize,
    cur: &mut Vec<EventId>,
    out: &mut Vec<Vec<EventId>>,
) {
    if cur.len() == k {
        out.push(cur.clone());
        return;
    }
    for &e in allowed {
        if !cur.contains(&e) {
            cur.push(e);
            enumerate_tuples(allowed, k, cur, out);
            cur.pop();
        }
    }
}

// ---------------------------------------------------------------------
// Assignment substrate
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hungarian assignment equals brute force on random rectangular
    /// matrices.
    #[test]
    fn hungarian_matches_brute_force(
        rows in 1usize..5,
        extra in 0usize..2,
        values in prop::collection::vec(0.0f64..10.0, 25),
    ) {
        let cols = rows + extra;
        let w: Vec<Vec<f64>> = (0..rows)
            .map(|r| (0..cols).map(|c| values[(r * 5 + c) % values.len()]).collect())
            .collect();
        let a = assignment::max_weight_assignment(&w);
        let got = assignment::assignment_value(&w, &a);
        // Brute force.
        fn go(w: &[Vec<f64>], row: usize, used: &mut Vec<bool>, acc: f64, best: &mut f64) {
            if row == w.len() {
                *best = best.max(acc);
                return;
            }
            for c in 0..used.len() {
                if !used[c] {
                    used[c] = true;
                    go(w, row + 1, used, acc + w[row][c], best);
                    used[c] = false;
                }
            }
        }
        let mut best = f64::NEG_INFINITY;
        go(&w, 0, &mut vec![false; cols], 0.0, &mut best);
        prop_assert!((got - best).abs() < 1e-9, "{got} vs {best}");
    }
}
