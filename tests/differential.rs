//! Differential & concurrency suite for the parallel evaluation kernel.
//!
//! Two families of guarantees are locked down here:
//!
//! * **Differential correctness** — the exact A\* search (sequential or
//!   parallel) finds the same optimum as an exhaustive brute-force
//!   enumeration on randomly generated instances;
//! * **Thread-count transparency** — `--eval-threads N` is an execution
//!   detail, never an output detail: for every method, every budget shape
//!   and the whole experiment grid, mappings, score bits, gap-certificate
//!   bits and the deterministic telemetry section are byte-identical
//!   across `N ∈ {1, 2, 8}`;
//! * **Engine transparency** — `--matcher {interpreted,compiled}` is an
//!   execution detail too. The bit-parallel compiled NFA is proven
//!   byte-equivalent to the interpreter three ways: against the
//!   linearization ground truth on random patterns, support-for-support
//!   on random logs (verdicts, `SupportStats` and fuel-interruption
//!   boundaries), and end-to-end (every method, every thread count, the
//!   whole grid);
//! * **Context-build transparency** — the `L1` frequencies a
//!   `MatchContext` reads off its dependency graph or compile-scans are
//!   the interpreter's, bit for bit, on random logs.

use proptest::prelude::*;

use evematch::eval::experiments::{run_grid, FigureResult, SweepConfig};
use evematch::eval::{project_dataset, SupportCachePool};
use evematch::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

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
                b.push_trace(Trace::from(t));
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

/// Everything a run is allowed to expose: the mapping, the exact bits of
/// the score and gap certificate, and the deterministic metrics section.
/// Wall-clock timings and the `info` section (`parpool.*`) are the only
/// things deliberately excluded.
/// Everything a run must keep bit-stable across thread counts: the mapping,
/// the score and gap as exact bit patterns, and the deterministic metrics.
type Fingerprint = (Mapping, u64, Option<u64>, String);

fn outcome_fp(out: &MatchOutcome) -> Fingerprint {
    (
        out.mapping.clone(),
        out.score.to_bits(),
        out.completion.optimality_gap().map(f64::to_bits),
        out.metrics.deterministic_json(),
    )
}

fn run_fp(out: &RunOutcome) -> Fingerprint {
    match out {
        RunOutcome::Finished { mapping, score, .. } => (
            mapping.clone(),
            score.to_bits(),
            None,
            out.metrics().deterministic_json(),
        ),
        RunOutcome::DidNotFinish { degraded, .. } => (
            degraded.mapping.clone(),
            degraded.score.to_bits(),
            Some(degraded.optimality_gap.to_bits()),
            out.metrics().deterministic_json(),
        ),
    }
}

/// A small instance with a genuine composite pattern, so the parallel
/// prefetch path (which only handles non-fast-path keys) actually runs.
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
// Differential: parallel exact search vs brute force
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The exact A\* search equals brute-force enumeration at every thread
    /// count, and all thread counts agree bit-for-bit with each other.
    #[test]
    fn parallel_exact_search_matches_brute_force(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
    ) {
        let Some(ctx) = composite_ctx(&l1, &l2) else { return Ok(()) };
        let best = brute_force_best(&ctx);
        for bound in [BoundKind::Simple, BoundKind::Tight] {
            let matcher = ExactMatcher::new(bound);
            let runs: Vec<_> = THREADS
                .iter()
                .map(|&t| {
                    let config = EvalConfig::from_budget(Budget::UNLIMITED).with_threads(t);
                    outcome_fp(&matcher.solve_with(&ctx, &config))
                })
                .collect();
            prop_assert!(
                (f64::from_bits(runs[0].1) - best).abs() < 1e-9,
                "{bound:?}: sequential score {} vs brute {best}",
                f64::from_bits(runs[0].1)
            );
            for (i, run) in runs.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    run, &runs[0],
                    "{:?}: threads {} diverged from sequential", bound, THREADS[i]
                );
            }
        }
    }

    /// Anytime runs stay thread-transparent too: under a processed cap the
    /// degraded mapping, score bits, gap-certificate bits and deterministic
    /// counters are identical at every thread count, and the certificate
    /// still contains the brute-force optimum.
    #[test]
    fn capped_parallel_runs_are_byte_identical_and_sound(
        l1 in log_strategy(4, 8),
        l2 in log_strategy(4, 8),
        cap in 0u64..12,
    ) {
        let Some(ctx) = composite_ctx(&l1, &l2) else { return Ok(()) };
        let best = brute_force_best(&ctx);
        let budget = Budget::UNLIMITED.with_processed_cap(cap);
        let matcher = ExactMatcher::new(BoundKind::Tight);
        let runs: Vec<_> = THREADS
            .iter()
            .map(|&t| {
                let config = EvalConfig::from_budget(budget).with_threads(t);
                outcome_fp(&matcher.solve_with(&ctx, &config))
            })
            .collect();
        for (i, run) in runs.iter().enumerate().skip(1) {
            prop_assert_eq!(run, &runs[0], "threads {} diverged", THREADS[i]);
        }
        let score = f64::from_bits(runs[0].1);
        prop_assert!(score <= best + 1e-9, "anytime {score} beats brute {best}");
        if let Some(gap_bits) = runs[0].2 {
            let gap = f64::from_bits(gap_bits);
            prop_assert!(gap >= 0.0 && gap.is_finite());
            prop_assert!(
                best <= score + gap + 1e-9,
                "optimum {best} outside certificate {score} + {gap}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Thread-count transparency for every method
// ---------------------------------------------------------------------

/// Every registered method, finished and budget-exhausted alike, produces
/// byte-identical mappings, score bits, gap bits and deterministic metrics
/// at 1, 2 and 8 evaluation threads.
#[test]
fn every_method_is_byte_identical_across_thread_counts() {
    let ds = project_dataset(&datasets::real_like_sized(60, 60, 11), 6);
    for budget in [
        Budget::UNLIMITED.with_processed_cap(50_000),
        Budget::UNLIMITED.with_processed_cap(9),
    ] {
        for m in ALL_METHODS {
            let runs: Vec<_> = THREADS
                .iter()
                .map(|&t| run_fp(&m.run_with(&ds.pair, &ds.patterns, budget, t, None)))
                .collect();
            for (i, run) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    run,
                    &runs[0],
                    "{} at {} threads diverged from sequential (budget {budget:?})",
                    m.name(),
                    THREADS[i]
                );
            }
        }
    }
}

/// Oversubscription transparency: a thread count far above the host's
/// parallelism (32 workers on the CI containers' 1–4 cores) forces the OS
/// to time-slice workers mid-batch, maximally perturbing claim order on
/// the shared `ClaimCursor` — and the in-order merge must still make the
/// outputs byte-identical to sequential. This is the real-thread
/// companion to the bounded-schedule claim-cursor proof in
/// `crates/modelcheck`: the model checker shows no schedule can
/// double-assign or skip; this shows the merge erases whatever schedule
/// the OS actually picks, even a pathological one.
#[test]
fn oversubscribed_thread_counts_stay_byte_identical() {
    const OVERSUBSCRIBED: usize = 32;
    let ds = project_dataset(&datasets::real_like_sized(60, 60, 17), 6);
    for budget in [
        Budget::UNLIMITED.with_processed_cap(50_000),
        Budget::UNLIMITED.with_processed_cap(9),
    ] {
        for m in ALL_METHODS {
            let sequential = run_fp(&m.run_with(&ds.pair, &ds.patterns, budget, 1, None));
            let oversubscribed =
                run_fp(&m.run_with(&ds.pair, &ds.patterns, budget, OVERSUBSCRIBED, None));
            assert_eq!(
                oversubscribed,
                sequential,
                "{} at {OVERSUBSCRIBED} threads diverged from sequential (budget {budget:?})",
                m.name()
            );
        }
    }
}

/// Sharing a support cache across methods must not change results: a warm
/// shared cache changes *when* supports are computed (so scan and hit
/// counters legitimately differ from a cold run), never the mapping, score
/// or gap certificate any method returns. And with the per-cell method
/// order fixed, the counters themselves — warm hits included — are still
/// byte-identical across thread counts.
#[test]
fn shared_cache_never_changes_method_results() {
    let ds = project_dataset(&datasets::real_like_sized(60, 60, 23), 6);
    let budget = Budget::UNLIMITED.with_processed_cap(50_000);
    let cold: Vec<_> = ALL_METHODS
        .iter()
        .map(|m| run_fp(&m.run_with(&ds.pair, &ds.patterns, budget, 1, None)))
        .collect();
    let mut per_thread_fps: Vec<Vec<Fingerprint>> = Vec::new();
    for &threads in &THREADS {
        let pool = SupportCachePool::new();
        let warm: Vec<_> = ALL_METHODS
            .iter()
            .map(|m| run_fp(&m.run_with(&ds.pair, &ds.patterns, budget, threads, Some(&pool))))
            .collect();
        for (m, (w, c)) in ALL_METHODS.iter().zip(warm.iter().zip(&cold)) {
            assert_eq!(
                w.0,
                c.0,
                "{} mapping changed under a shared cache",
                m.name()
            );
            assert_eq!(w.1, c.1, "{} score changed under a shared cache", m.name());
            assert_eq!(w.2, c.2, "{} gap changed under a shared cache", m.name());
        }
        per_thread_fps.push(warm);
    }
    for (i, fps) in per_thread_fps.iter().enumerate().skip(1) {
        assert_eq!(
            fps, &per_thread_fps[0],
            "shared-cache runs at {} threads diverged from sequential",
            THREADS[i]
        );
    }
}

// ---------------------------------------------------------------------
// Cross-method cache warming
// ---------------------------------------------------------------------

/// The ISSUE's shared-cache acceptance: in a cell where the advanced
/// heuristic runs before the exact search on one pool, the exact search
/// replays the heuristic's scans as `eval.cache.shared_hits` and performs
/// strictly fewer log scans than a cold run.
#[test]
fn heuristic_warms_the_exact_search_through_the_shared_cache() {
    let ds = datasets::larger_synthetic(2, 300, 11);
    let budget = Budget::UNLIMITED.with_processed_cap(5_000);
    let cold = Method::PatternTight.run_with(&ds.pair, &ds.patterns, budget, 1, None);
    let cold_scans = cold.metrics().counters["eval.log_scans"];

    let pool = SupportCachePool::new();
    let _ = Method::HeuristicAdvanced.run_with(&ds.pair, &ds.patterns, budget, 1, Some(&pool));
    let warmed = Method::PatternTight.run_with(&ds.pair, &ds.patterns, budget, 1, Some(&pool));
    let shared = warmed.metrics().counters["eval.cache.shared_hits"];
    let warm_scans = warmed.metrics().counters["eval.log_scans"];

    assert!(shared > 0, "no cross-method shared hits recorded");
    assert!(
        warm_scans < cold_scans,
        "warm run must scan less: {warm_scans} vs cold {cold_scans}"
    );
    // The cold run touches no foreign entries — its cache is private.
    assert_eq!(cold.metrics().counters["eval.cache.shared_hits"], 0);
    // And warming never changes what the exact search returns.
    assert_eq!(run_fp(&cold).0, run_fp(&warmed).0);
    assert_eq!(run_fp(&cold).1, run_fp(&warmed).1);
}

// ---------------------------------------------------------------------
// Grid-level regression: worker-local deltas reduce deterministically
// ---------------------------------------------------------------------

fn grid(eval_threads: usize, matcher: MatcherEngine) -> FigureResult {
    let cfg = SweepConfig {
        seeds: vec![11, 23],
        verify_journal: true,
        budget: Budget::UNLIMITED.with_processed_cap(100_000),
        workers: 2,
        eval_threads,
        traces: 40,
        checkpoint: None,
        retry: retry::RetryPolicy::io_default(),
        matcher,
    };
    run_grid(
        "FigDiff",
        "#events",
        &[4, 5],
        &[Method::PatternTight, Method::HeuristicAdvanced],
        &cfg,
        |x, seed| {
            let ds = datasets::real_like_sized(cfg.traces, cfg.traces, seed);
            project_dataset(&ds, x)
        },
    )
}

fn csv(t: &Table) -> String {
    let mut buf = Vec::new();
    t.write_csv(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The full experiment grid — result CSVs and the merged per-method
/// deterministic metrics that feed `<stem>_metrics.json` — is byte-identical
/// between `eval_threads: 1` and `eval_threads: 8`. This is the regression
/// guard for the deterministic counter-delta reduce: a merge that raced
/// worker interleavings would diverge here.
#[test]
fn grid_csvs_and_merged_metrics_are_identical_across_eval_threads() {
    let seq = grid(1, MatcherEngine::Compiled);
    let par = grid(8, MatcherEngine::Compiled);
    assert_eq!(csv(&seq.f_measure), csv(&par.f_measure), "f-measure CSV");
    assert_eq!(csv(&seq.anytime_f), csv(&par.anytime_f), "anytime CSV");
    assert_eq!(csv(&seq.processed), csv(&par.processed), "processed CSV");
    assert_eq!(seq.metrics.len(), par.metrics.len());
    for ((name, snap), (par_name, par_snap)) in seq.metrics.iter().zip(&par.metrics) {
        assert_eq!(name, par_name);
        assert_eq!(
            snap.deterministic_json(),
            par_snap.deterministic_json(),
            "merged deterministic metrics diverged for {name}"
        );
    }
}

// ---------------------------------------------------------------------
// Matcher-engine differential: compiled NFA vs interpreter vs ground truth
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
        let interpreted = trace_matches(&p, &Trace::from(raw.clone()));
        // Identity binding: symbol i is the i-th sorted event of `p`.
        let compiled = cp.matches_trace(&p.events(), &trace_events);
        prop_assert_eq!(interpreted, truth, "interpreter vs ground truth on {:?}", p);
        prop_assert_eq!(compiled, truth, "compiled NFA vs ground truth on {:?}", p);
    }

    /// Support-for-support equality on random logs: both engines return
    /// the same count AND the same `SupportStats` (index probes, candidate
    /// traces, matches), out-of-vocabulary patterns included.
    #[test]
    fn compiled_support_equals_interpreted_support(
        log in log_strategy(6, 12),
        p in enumerable_pattern_strategy(),
    ) {
        use evematch::pattern::{pattern_support_stats, SupportStats};
        let Ok(cp) = CompiledPattern::compile(&p) else {
            return Ok(());
        };
        let idx = log.trace_index();
        let col = ColumnarLog::from_log(&log);
        let mut int_stats = SupportStats::default();
        let mut cmp_stats = SupportStats::default();
        let interpreted = pattern_support_stats(&p, &log, &idx, &mut int_stats);
        let compiled = compiled_pattern_support_stats(&cp, &p.events(), &col, &idx, &mut cmp_stats);
        prop_assert_eq!(interpreted, compiled, "support diverged on {:?}", p);
        prop_assert_eq!(int_stats, cmp_stats, "work counters diverged on {:?}", p);
    }

    /// Fuel parity: under any fuel cap, both engines stop at exactly the
    /// same candidate-trace boundary — the same `Ok`/`Interrupted`
    /// verdict and the same `SupportStats` deltas at the moment of
    /// interruption.
    #[test]
    fn compiled_fuel_interrupts_at_the_same_boundary(
        log in log_strategy(6, 12),
        p in enumerable_pattern_strategy(),
        cap in 0u64..16,
    ) {
        use evematch::pattern::{pattern_support_with_fuel_stats, SupportStats};
        let Ok(cp) = CompiledPattern::compile(&p) else {
            return Ok(());
        };
        let idx = log.trace_index();
        let col = ColumnarLog::from_log(&log);
        let mut int_stats = SupportStats::default();
        let mut cmp_stats = SupportStats::default();
        let mut int_left = cap;
        let mut cmp_left = cap;
        let interpreted = pattern_support_with_fuel_stats(
            &p,
            &log,
            &idx,
            &mut || {
                let go = int_left > 0;
                int_left = int_left.saturating_sub(1);
                go
            },
            &mut int_stats,
        );
        let compiled = compiled_pattern_support_with_fuel_stats(
            &cp,
            &p.events(),
            &col,
            &idx,
            &mut || {
                let go = cmp_left > 0;
                cmp_left = cmp_left.saturating_sub(1);
                go
            },
            &mut cmp_stats,
        );
        prop_assert_eq!(interpreted, compiled, "fueled verdict diverged on {:?}", p);
        prop_assert_eq!(int_stats, cmp_stats, "fueled counters diverged on {:?}", p);
        prop_assert_eq!(int_left, cmp_left, "fuel consumption diverged on {:?}", p);
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
            b.push_trace(Trace::from(t));
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

/// End-to-end engine transparency: every registered method, finished and
/// budget-exhausted alike, produces byte-identical mappings, score bits,
/// gap bits and deterministic metrics under `--matcher interpreted` and
/// `--matcher compiled`, at 1, 2 and 8 evaluation threads.
#[test]
fn every_method_is_byte_identical_across_engines() {
    let ds = project_dataset(&datasets::real_like_sized(60, 60, 31), 6);
    for budget in [
        Budget::UNLIMITED.with_processed_cap(50_000),
        Budget::UNLIMITED.with_processed_cap(9),
    ] {
        for m in ALL_METHODS {
            let reference = run_fp(&m.run_with_engine(
                &ds.pair,
                &ds.patterns,
                budget,
                1,
                None,
                MatcherEngine::Interpreted,
            ));
            for engine in MatcherEngine::ALL {
                for &t in &THREADS {
                    let run =
                        run_fp(&m.run_with_engine(&ds.pair, &ds.patterns, budget, t, None, engine));
                    assert_eq!(
                        run,
                        reference,
                        "{} under {engine} at {t} threads diverged (budget {budget:?})",
                        m.name()
                    );
                }
            }
        }
    }
}

/// The whole experiment grid is engine-transparent: the deterministic
/// panels and the merged per-method deterministic metrics are
/// byte-identical between `--matcher interpreted` (sequential) and
/// `--matcher compiled` (8 eval threads) — the two engines may only
/// differ in wall-clock time and the `matcher.*` info facts.
#[test]
fn grid_csvs_and_merged_metrics_are_identical_across_engines() {
    let interpreted = grid(1, MatcherEngine::Interpreted);
    let compiled = grid(8, MatcherEngine::Compiled);
    assert_eq!(
        csv(&interpreted.f_measure),
        csv(&compiled.f_measure),
        "f-measure CSV"
    );
    assert_eq!(
        csv(&interpreted.anytime_f),
        csv(&compiled.anytime_f),
        "anytime CSV"
    );
    assert_eq!(
        csv(&interpreted.processed),
        csv(&compiled.processed),
        "processed CSV"
    );
    for ((name, snap), (c_name, c_snap)) in interpreted.metrics.iter().zip(&compiled.metrics) {
        assert_eq!(name, c_name);
        assert_eq!(
            snap.deterministic_json(),
            c_snap.deterministic_json(),
            "merged deterministic metrics diverged for {name}"
        );
    }
}
