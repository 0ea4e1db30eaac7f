//! Differential & concurrency suite for the evaluation kernel and the
//! experiment grid.
//!
//! The guarantees locked down here:
//!
//! * **Differential correctness** — the exact A\* search finds the same
//!   optimum as an exhaustive brute-force enumeration on randomly
//!   generated instances, and a capped search's gap certificate contains
//!   that optimum;
//! * **Worker-count transparency** — the grid's worker count is an
//!   execution detail, never an output detail: result CSVs and the merged
//!   deterministic metrics and profiles are byte-identical across
//!   `workers ∈ {1, 2, 8}`;
//! * **Scan correctness** — the bit-parallel compiled NFA agrees with the
//!   interpreter and the linearization ground truth on random patterns,
//!   and the one support scan (`EvaluatedPattern::scan`) equals the
//!   interpreter oracle `pattern_support` on random logs under random
//!   injective bindings: counts, `SupportStats` and fuel-interruption
//!   boundaries;
//! * **Context-build transparency** — the `L1` frequencies a
//!   `MatchContext` reads off its dependency graph or compile-scans are
//!   the interpreter's, bit for bit, on random logs.

use proptest::prelude::*;

use evematch::eval::experiments::{run_grid, FigureResult, SweepConfig};
use evematch::eval::{project_dataset, SupportCachePool};
use evematch::prelude::*;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// A random log over `n` events (mirrors `tests/proptests.rs`).
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

/// Everything a run must keep bit-stable: the mapping, the score and gap
/// as exact bit patterns, and the deterministic metrics. The `info`
/// section is deliberately excluded.
type Fingerprint = (Mapping, u64, Option<u64>, String);

fn run_fp(out: &RunOutcome) -> Fingerprint {
    (
        out.mapping.clone(),
        out.score.to_bits(),
        out.completion.optimality_gap().map(f64::to_bits),
        out.metrics.deterministic_json(),
    )
}

/// A small instance with a genuine composite pattern, so support
/// evaluation goes through the cache and the log scan, not only the
/// dependency-graph fast paths.
fn composite_ctx(l1: &EventLog, l2: &EventLog) -> Option<MatchContext> {
    let p = parse_pattern("SEQ(e0, AND(e1, e2), e3)", l1.events()).ok()?;
    MatchContext::new(
        l1.clone(),
        l2.clone(),
        PatternSetBuilder::new().vertices().edges().complex(p),
    )
    .ok()
}

// ---------------------------------------------------------------------
// Differential: exact search vs brute force
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exact A\* search equals brute-force enumeration under both
    /// bounds.
    #[test]
    fn exact_search_matches_brute_force(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
    ) {
        let Some(ctx) = composite_ctx(&l1, &l2) else { return Ok(()) };
        let best = brute_force_best(&ctx);
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let out = ExactMatcher::new(bound).solve(&ctx);
            prop_assert!(
                (out.score - best).abs() < 1e-9,
                "{bound:?}: score {} vs brute {best}",
                out.score
            );
        }
    }

    /// Under a processed cap the anytime score never beats the brute-force
    /// optimum, and a degraded run's gap certificate contains it.
    #[test]
    fn capped_exact_search_gap_is_sound(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
        cap in 0u64..12,
    ) {
        let Some(ctx) = composite_ctx(&l1, &l2) else { return Ok(()) };
        let best = brute_force_best(&ctx);
        let out = ExactMatcher::new(BoundKind::Tight)
            .with_budget(Budget::UNLIMITED.with_processed_cap(cap))
            .solve(&ctx);
        let score = out.score;
        prop_assert!(score <= best + 1e-9, "anytime {score} beats brute {best}");
        if let Some(gap) = out.completion.optimality_gap() {
            prop_assert!(gap >= 0.0 && gap.is_finite());
            prop_assert!(
                best <= score + gap + 1e-9,
                "optimum {best} outside certificate {score} + {gap}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Shared support cache
// ---------------------------------------------------------------------

/// Sharing a support cache across methods must not change results: a warm
/// shared cache changes *when* supports are computed (so scan and hit
/// counters legitimately differ from a cold run), never the mapping, score
/// or gap certificate any method returns.
#[test]
fn shared_cache_never_changes_method_results() {
    let ds = project_dataset(&datasets::real_like_sized(60, 60, 23), 6);
    for budget in [
        Budget::UNLIMITED.with_processed_cap(50_000),
        Budget::UNLIMITED.with_processed_cap(9),
    ] {
        let pool = SupportCachePool::new(&ds);
        for m in ALL_METHODS {
            let cold = run_fp(&m.run(&ds.pair, &ds.patterns, budget));
            let warm = run_fp(&pool.run(m, budget));
            assert_eq!(warm.0, cold.0, "{} mapping changed", m.name());
            assert_eq!(warm.1, cold.1, "{} score changed", m.name());
            assert_eq!(warm.2, cold.2, "{} gap changed", m.name());
        }
    }
}

/// The ISSUE's shared-cache acceptance: in a cell where the advanced
/// heuristic runs before the exact search on one pool, the exact search
/// replays the heuristic's scans as `eval.cache.shared_hits` and performs
/// strictly fewer log scans than a cold run.
#[test]
fn heuristic_warms_the_exact_search_through_the_shared_cache() {
    let ds = datasets::larger_synthetic(2, 300, 11);
    let budget = Budget::UNLIMITED.with_processed_cap(5_000);
    let cold = Method::PatternTight.run(&ds.pair, &ds.patterns, budget);
    let cold_scans = cold.metrics.counters["eval.log_scans"];

    let pool = SupportCachePool::new(&ds);
    let _ = pool.run(Method::HeuristicAdvanced, budget);
    let warmed = pool.run(Method::PatternTight, budget);
    let shared = warmed.metrics.counters["eval.cache.shared_hits"];
    let warm_scans = warmed.metrics.counters["eval.log_scans"];

    assert!(shared > 0, "no cross-method shared hits recorded");
    assert!(
        warm_scans < cold_scans,
        "warm run must scan less: {warm_scans} vs cold {cold_scans}"
    );
    // The cold run touches no foreign entries — its cache is private.
    assert_eq!(cold.metrics.counters["eval.cache.shared_hits"], 0);
    // And warming never changes what the exact search returns.
    assert_eq!(run_fp(&cold).0, run_fp(&warmed).0);
    assert_eq!(run_fp(&cold).1, run_fp(&warmed).1);
}

// ---------------------------------------------------------------------
// Grid-level regression: worker-local deltas reduce deterministically
// ---------------------------------------------------------------------

/// Grid worker counts every grid-level comparison runs at: sequential, one
/// worker per host core on the CI containers, and more workers than the
/// four `(x, seed)` jobs (clamped to one per job, oversubscribing the
/// cores).
const WORKERS: [usize; 3] = [1, 2, 8];

/// A small grid: `methods` over `x ∈ {4, 5}` events of the real-like
/// dataset at seeds 11 and 23 — four `(x, seed)` jobs.
fn grid(methods: &[Method], budget: Budget, workers: usize) -> FigureResult {
    let cfg = SweepConfig {
        seeds: vec![11, 23],
        budget,
        workers,
        traces: 40,
        checkpoint: None,
        retry: retry::RetryPolicy::io_default(),
        faults: Default::default(),
    };
    run_grid("FigDiff", "#events", &[4, 5], methods, &cfg, |x, seed| {
        let ds = datasets::real_like_sized(cfg.traces, cfg.traces, seed);
        project_dataset(&ds, x)
    })
}

fn csv(t: &Table) -> String {
    let mut buf = Vec::new();
    t.write_csv(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Everything deterministic a grid emits: the F-measure, anytime and
/// processed CSVs, then each method's merged metrics and merged profile
/// deterministic sections.
fn grid_fp(fig: &FigureResult) -> Vec<String> {
    let mut fp = vec![
        csv(&fig.f_measure),
        csv(&fig.anytime_f),
        csv(&fig.processed),
    ];
    for (name, snap) in &fig.metrics {
        fp.push(format!("{name} metrics {}", snap.deterministic_json()));
    }
    for (name, profile) in &fig.profiles {
        fp.push(format!("{name} profile {}", profile.deterministic_json()));
    }
    fp
}

/// Asserts `methods` under `budget` give the same [`grid_fp`] at every
/// worker count in [`WORKERS`].
fn assert_worker_count_transparent(methods: &[Method], budget: Budget) {
    let reference = grid_fp(&grid(methods, budget, WORKERS[0]));
    assert_eq!(reference.len(), 3 + 2 * methods.len());
    assert!(reference[2].lines().count() > 1, "processed CSV has rows");
    for workers in &WORKERS[1..] {
        assert_eq!(
            grid_fp(&grid(methods, budget, *workers)),
            reference,
            "grid output diverged at {workers} workers (budget {budget:?})"
        );
    }
}

/// The full experiment grid — result CSVs, and the merged per-method
/// deterministic metrics and profiles that feed `<stem>_metrics.json` and
/// `<stem>_profile.json` — is byte-identical at 1, 2 and 8 workers. This
/// is the regression guard for the claim cursor and the job-ordered merge:
/// a merge that raced worker interleavings would diverge here.
#[test]
fn grid_outputs_are_identical_across_worker_counts() {
    assert_worker_count_transparent(
        &[Method::PatternTight, Method::HeuristicAdvanced],
        Budget::UNLIMITED.with_processed_cap(100_000),
    );
}

/// Every registered method, finished and budget-exhausted alike, is
/// byte-identical in a grid at 1, 2 and 8 worker threads.
#[test]
fn every_method_is_byte_identical_across_thread_counts() {
    for budget in [
        Budget::UNLIMITED.with_processed_cap(50_000),
        Budget::UNLIMITED.with_processed_cap(9),
    ] {
        assert_worker_count_transparent(&ALL_METHODS, budget);
    }
}

// ---------------------------------------------------------------------
// Matcher differential: compiled NFA and the one scan vs the interpreter
// ---------------------------------------------------------------------

/// Structural shape of a pattern; leaves get distinct events later
/// (mirrors `tests/proptests.rs`).
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

/// Random pattern within the linearization-enumeration bound, so the
/// ground truth `I(p)` is materializable.
fn enumerable_pattern_strategy() -> impl Strategy<Value = Pattern> {
    shape_strategy()
        .prop_filter("enumerable event count", |s| {
            leaves(s) <= evematch::pattern::MAX_ENUMERABLE_EVENTS
        })
        .prop_map(|s| to_pattern(&s, &mut 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three-way differential: on random patterns and random traces,
    /// the linearization ground truth (`I(p)` membership as a contiguous
    /// substring), the interpreter (`trace_matches` via `matches_window`)
    /// and the compiled bit-parallel NFA agree on every verdict.
    #[test]
    fn compiled_nfa_agrees_with_interpreter_and_linearizations(
        p in enumerable_pattern_strategy(),
        raw in prop::collection::vec(0u32..12, 0..20),
    ) {
        use evematch::pattern::{linearizations, trace_matches};
        let cp = match CompiledPattern::compile(&p) {
            Ok(cp) => cp,
            // Deeply nested ANDs can exceed the 64-state budget; the typed
            // fallback contract is covered by `tests/adversarial.rs`.
            Err(CompileError::StateBudgetExceeded { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
        };
        let lins = linearizations(&p);
        let trace_events: Vec<EventId> = raw.iter().copied().map(EventId).collect();
        let truth = lins.iter().any(|lin| {
            trace_events.windows(lin.len()).any(|w| w == lin.as_slice())
        });
        let interpreted = trace_matches(&p, &trace_events);
        // Identity binding: symbol i is the i-th sorted event of `p`.
        let compiled = cp.matches_trace(&p.events(), &trace_events);
        prop_assert_eq!(interpreted, truth, "interpreter vs ground truth on {:?}", p);
        prop_assert_eq!(compiled, truth, "compiled NFA vs ground truth on {:?}", p);
    }

    /// The one scan against the interpreter oracle on random logs, under
    /// random injective bindings whose images may fall outside the log's
    /// six-event vocabulary: equal counts; one index probe exactly when
    /// every image is in the vocabulary; `|traces_with_all|` candidates
    /// and `support` matches; and a fuel cap `c` below the candidate
    /// count interrupts after exactly `c` candidates.
    #[test]
    fn scan_equals_the_oracle_under_random_bindings(
        log in log_strategy(6, 12),
        p in enumerable_pattern_strategy(),
        keys in prop::collection::vec(0u64..1_000_000, 12),
        extra in 0u32..3,
        cap in 0u64..16,
    ) {
        use evematch::pattern::{EvaluatedPattern, Interrupted, SupportStats};
        let idx = log.trace_index();
        let ep = EvaluatedPattern::new(p.clone(), &log, &idx);
        // Rank the pool `0..max(|p|, 6) + extra` by random keys and bind
        // the pattern's sorted events to the first |p| of it.
        let k = p.size() as u32;
        let mut pool: Vec<u32> = (0..k.max(6) + extra).collect();
        pool.sort_by_key(|&i| keys[i as usize]);
        let images: Vec<EventId> = pool.into_iter().take(k as usize).map(EventId).collect();
        let mapped = p.map_events(&|e| images[ep.events.binary_search(&e).unwrap()]);
        let oracle = pattern_support(&mapped, &log, &idx);

        let mut stats = SupportStats::default();
        let scanned = ep.scan(&images, &idx, log.columns(), &mut || true, &mut stats);
        prop_assert_eq!(scanned, Ok(oracle), "support of {:?} under {:?}", p, images);
        let in_vocab = images.iter().all(|e| e.index() < log.event_count());
        prop_assert_eq!(stats.index_probes, u64::from(in_vocab));
        let candidates = if in_vocab { idx.traces_with_all(&images).len() as u64 } else { 0 };
        prop_assert_eq!(stats.candidate_traces, candidates);
        prop_assert_eq!(stats.matched_traces, oracle as u64);

        if cap < candidates {
            let mut left = cap;
            let mut stats = SupportStats::default();
            let fueled = ep.scan(&images, &idx, log.columns(), &mut || {
                let go = left > 0;
                left = left.saturating_sub(1);
                go
            }, &mut stats);
            prop_assert_eq!(fueled, Err(Interrupted));
            prop_assert_eq!(stats.candidate_traces, cap, "interrupted after exactly the cap");
        }
    }
}

/// A random log over `n ≥ 7` events shaped for the context build: some
/// traces get a back-to-back repeat (a self-loop dependency edge, which
/// the edge pattern set skips), some start with a rotation of events
/// `0..7` (so an AND of those 7 events has matches to count), traces may be
/// shorter than every declared pattern, and the log may be empty.
fn context_log_strategy(n: u32) -> impl Strategy<Value = EventLog> {
    prop::collection::vec(
        (prop::collection::vec(0..n, 0..8usize), 0u8..2, 0u32..14),
        0..=12,
    )
    .prop_map(move |traces| {
        let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
        let mut b = LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)));
        for (mut t, repeat, rotation) in traces {
            if let (1, Some(&first)) = (repeat, t.first()) {
                t.insert(0, first);
            }
            if rotation < 7 {
                t.splice(0..0, (0..7).map(|i| (i + rotation) % 7));
            }
            b.push_trace(t);
        }
        b.build()
    })
}

/// Builds a context over `log` (on both sides) with the vertex and edge
/// special patterns plus four declared ones: the single event `v` and
/// `SEQ(a, b)`, which must classify as special patterns, the `complex`
/// pattern, and an AND of 7 events, which exceeds `STATE_BUDGET` and takes
/// the interpreter fallback. Then checks every `L1` support — read off the
/// dependency graph, compile-scanned, or interpreted — against the
/// interpreter oracle, count and frequency bits alike, and the same for
/// the stand-alone [`EvaluatedPattern::new`].
fn check_context_supports(
    log: EventLog,
    v: u32,
    (a, b): (u32, u32),
    complex: Pattern,
) -> Result<(), TestCaseError> {
    use evematch::pattern::{pattern_freq, EvaluatedPattern, PatternShape};
    let edge = Pattern::seq_of_events([EventId(a), EventId(b)]).expect("a != b");
    let and7 = Pattern::and_of_events((0..7).map(EventId)).expect("7 distinct events");
    let declared = vec![Pattern::event(v), edge, complex, and7];
    let ctx = MatchContext::new(
        log.clone(),
        log,
        PatternSetBuilder::new()
            .vertices()
            .edges()
            .complex_all(declared),
    )
    .expect("same log on both sides");
    let ps = ctx.patterns();
    let first = ps.len() - ctx.complex_count();
    prop_assert_eq!(ps[first].shape, PatternShape::Vertex(EventId(v)));
    prop_assert_eq!(
        ps[first + 1].shape,
        PatternShape::Edge(EventId(a), EventId(b))
    );
    let fallback = &ps[first + 3];
    prop_assert_eq!(fallback.shape, PatternShape::Complex);
    prop_assert!(
        matches!(
            fallback.compiled,
            Err(CompileError::StateBudgetExceeded { .. })
        ),
        "AND of 7 events must exceed the state budget"
    );
    for ep in &ps[..first] {
        prop_assert!(
            ep.shape != PatternShape::Complex,
            "special pattern {:?}",
            ep.pattern
        );
    }
    let log = ctx.log1();
    let idx = log.trace_index();
    for (i, ep) in ps.iter().enumerate() {
        let oracle = pattern_support(&ep.pattern, log, &idx);
        let oracle_freq = pattern_freq(&ep.pattern, log, &idx);
        prop_assert_eq!(ep.support, oracle, "pattern #{} {:?}", i, ep.pattern);
        prop_assert_eq!(ep.freq.to_bits(), oracle_freq.to_bits(), "pattern #{}", i);
        let alone = EvaluatedPattern::new(ep.pattern.clone(), log, &idx);
        prop_assert_eq!(alone.support, oracle, "new() on pattern #{}", i);
        prop_assert_eq!(alone.freq.to_bits(), oracle_freq.to_bits(), "new() #{}", i);
        prop_assert_eq!(alone.shape, ep.shape);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The context build reads vertex and edge supports off `dep1` and
    /// compile-scans only complex patterns; every resulting `f1` must be
    /// the interpreter's, bit for bit.
    #[test]
    fn context_supports_equal_the_interpreter_oracle(
        log in context_log_strategy(10),
        v in 0u32..10,
        (a, step) in (0u32..10, 1u32..10),
        complex in enumerable_pattern_strategy(),
    ) {
        check_context_supports(log, v, (a, (a + step) % 10), complex)?;
    }
}

/// [`check_context_supports`] on the empty log: every frequency is 0.
#[test]
fn context_supports_on_the_empty_log_are_zero() {
    let names: Vec<String> = (0..10).map(|i| format!("e{i}")).collect();
    let log =
        LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str))).build();
    let complex = Pattern::seq(vec![
        Pattern::event(0),
        Pattern::and_of_events([EventId(1), EventId(2)]).expect("distinct"),
    ])
    .expect("distinct");
    check_context_supports(log, 3, (4, 5), complex).expect("empty log");
}
