//! Fault-injection harness: every solver must return within its budget and
//! degrade gracefully instead of hanging or panicking.
//!
//! The scenarios injected here are the ones that historically break anytime
//! engines: pathological VF2 instances with exponential backtracking,
//! adversarial tie-heavy pattern sets, zero and near-zero budgets, tight
//! wall-clock deadlines, and malformed input files fed to the CLI.

use std::time::{Duration, Instant};

use evematch::graph::{DiGraph, Interrupted, MonoSearch, NodeId};
use evematch::prelude::*;

/// A 3-regular circulant digraph: `i → i+1, i+2, i+3 (mod n)`. Dense and
/// vertex-transitive, so degree/connectivity filters prune almost nothing
/// and the monomorphism search must actually backtrack.
fn circulant(n: u32) -> DiGraph {
    DiGraph::from_edges(
        n as usize,
        (0..n).flat_map(|i| (1..=3u32).map(move |k| (i as NodeId, ((i + k) % n) as NodeId))),
    )
}

/// The tight wall-clock deadline used by the deadline scenarios: 50ms by
/// default, overridable via `EVEMATCH_TEST_DEADLINE_MS`. On a loaded or
/// heavily-shared CI machine the process can lose the CPU for longer than
/// the deadline itself, making a hardcoded 50ms budget flaky; raising the
/// env knob stretches the budget (and its slack scales with it below)
/// without weakening what the tests assert — that solvers return within
/// deadline-plus-bounded-slack, whatever the deadline is. A malformed
/// value panics with the variable's name instead of silently running the
/// default.
fn test_deadline() -> Duration {
    deadline_from_vars(|key| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned()))
}

/// [`test_deadline`] over an injected variable lookup (`None` = unset).
fn deadline_from_vars(var: impl Fn(&str) -> Option<String>) -> Duration {
    const KEY: &str = "EVEMATCH_TEST_DEADLINE_MS";
    let ms = match var(KEY) {
        None => 50,
        Some(value) => match value.trim().parse::<u64>() {
            Ok(ms) => ms,
            Err(e) => panic!("{KEY}={value:?} is not an unsigned integer: {e}"),
        },
    };
    Duration::from_millis(ms)
}

#[test]
fn test_deadline_knob_parses_and_rejects_malformed_values() {
    let only = |value: &'static str| {
        move |key: &str| (key == "EVEMATCH_TEST_DEADLINE_MS").then(|| value.to_owned())
    };
    assert_eq!(deadline_from_vars(|_| None), Duration::from_millis(50));
    assert_eq!(
        deadline_from_vars(only(" 400 ")),
        Duration::from_millis(400)
    );
    for bad in ["50ms", "", "-1", "0.5"] {
        let err = std::panic::catch_unwind(|| deadline_from_vars(only(bad)))
            .expect_err("a malformed deadline must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains(&format!("EVEMATCH_TEST_DEADLINE_MS={bad:?}")),
            "{bad:?}: {msg}"
        );
    }
}

/// Deadline-based fuel closure over a [`BudgetMeter`]: ticks count work
/// units, and the clock is polled once per poll interval.
fn deadline_fuel(meter: &mut evematch::core::BudgetMeter) -> impl FnMut() -> bool + '_ {
    move || {
        meter.tick();
        !meter.is_exhausted()
    }
}

#[test]
fn pathological_vf2_respects_a_50ms_deadline() {
    // Circulant(16) does not embed into circulant(24) via any "obvious"
    // rotation, so the exhaustive refutation is exponential — precisely
    // the instance that used to run unbounded.
    let pattern = circulant(16);
    let target = circulant(24);
    let deadline = test_deadline();
    let mut meter = Budget::UNLIMITED.with_deadline(deadline).meter();
    let start = Instant::now();
    let result = MonoSearch::new(&pattern, &target).find_with_fuel(&mut deadline_fuel(&mut meter));
    let elapsed = start.elapsed();
    // One poll interval of extension steps costs microseconds; half a
    // second of slack (scaling with a raised EVEMATCH_TEST_DEADLINE_MS)
    // absorbs scheduler noise on slow CI machines.
    assert!(
        elapsed < deadline + Duration::from_millis(500).max(deadline),
        "VF2 overran its deadline: {elapsed:?}"
    );
    if let Err(Interrupted) = result {
        assert!(
            meter.is_exhausted(),
            "interruption must come from the meter"
        );
    }
}

#[test]
fn step_fuel_makes_vf2_deterministic() {
    let pattern = circulant(12);
    let target = circulant(24);
    let run = || {
        let mut steps = 0u64;
        let mut visited = 0usize;
        let r = MonoSearch::new(&pattern, &target).enumerate_with_fuel(
            &mut |_| {
                visited += 1;
                true
            },
            &mut || {
                steps += 1;
                steps <= 10_000
            },
        );
        (r.is_err(), visited)
    };
    assert_eq!(run(), run(), "step-fueled VF2 must be bit-deterministic");
}

#[test]
fn zero_and_tiny_budgets_never_lose_the_mapping() {
    let ds = datasets::fig1_like();
    for cap in [0u64, 1, 2, 5] {
        let budget = Budget::UNLIMITED.with_processed_cap(cap);
        for m in ALL_METHODS {
            let out = m.run(&ds.pair, &ds.patterns, budget);
            let Some(gap) = out.completion.optimality_gap() else {
                // The polynomial baselines charge a single unit, so any
                // cap ≥ 1 legitimately finishes them; zero must trip all.
                assert!(cap > 0, "{} finished inside a zero cap", m.name());
                assert!(!m.is_exact_search(), "{} finished at cap {cap}", m.name());
                continue;
            };
            assert!(
                out.mapping.is_complete(),
                "{} cap {cap}: incomplete degraded mapping",
                m.name()
            );
            assert!(
                gap.is_finite() && gap >= 0.0,
                "{} cap {cap}: bad gap {gap}",
                m.name()
            );
            let processed = out.processed();
            assert!(
                processed <= cap,
                "{} cap {cap}: overspent ({processed} processed)",
                m.name()
            );
        }
    }
}

/// The ISSUE's acceptance scenario: `fig1_like` under `max_processed: 2`
/// with the simple bound returns a complete mapping tagged
/// `BudgetExhausted` with a finite gap.
#[test]
fn fig1_like_pattern_simple_cap_two_acceptance() {
    use evematch::core::Exhaustion;
    let ds = datasets::fig1_like();
    let ctx = MatchContext::new(
        ds.pair.log1.clone(),
        ds.pair.log2.clone(),
        PatternSetBuilder::new()
            .vertices()
            .edges()
            .complex_all(ds.patterns.iter().cloned()),
    )
    .unwrap();
    let out = ExactMatcher::new(BoundKind::Simple)
        .with_budget(Budget::UNLIMITED.with_processed_cap(2))
        .solve(&ctx);
    assert!(out.mapping.is_complete());
    match out.completion {
        Completion::BudgetExhausted {
            exhaustion,
            optimality_gap,
        } => {
            assert_eq!(exhaustion, Exhaustion::Processed);
            assert!(optimality_gap.is_finite() && optimality_gap >= 0.0);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(out.processed() <= 2);
}

/// Every solver, handed a tight wall-clock deadline on a non-trivial
/// instance, returns within the deadline plus one poll interval's worth of
/// work (bounded here by a generous slack for CI noise).
#[test]
fn every_solver_returns_within_a_wall_clock_deadline() {
    let ds = datasets::real_like_sized(300, 300, 23);
    let deadline = test_deadline();
    let budget = Budget::UNLIMITED.with_deadline(deadline);
    for m in ALL_METHODS {
        let start = Instant::now();
        let out = m.run(&ds.pair, &ds.patterns, budget);
        let elapsed = start.elapsed();
        // Context construction is not metered (it is linear and part of
        // every approach); grant it and the poll slack two seconds total,
        // scaling with a raised EVEMATCH_TEST_DEADLINE_MS.
        assert!(
            elapsed < deadline + Duration::from_secs(2).max(deadline),
            "{} overran: {elapsed:?}",
            m.name()
        );
        // Deadline or not, a complete mapping must come back.
        assert!(out.mapping.is_complete(), "{} lost the mapping", m.name());
    }
}

/// Adversarial tie-heavy instance: every event has identical frequencies,
/// so bounds tie everywhere and the frontier balloons. A frontier cap must
/// trip and still produce a complete deterministic answer.
#[test]
fn tie_heavy_instance_under_a_frontier_cap() {
    let mut b1 = LogBuilder::new();
    let mut b2 = LogBuilder::new();
    // Two traces in opposite orders per side: all vertex and edge
    // frequencies coincide, so every candidate pair looks alike.
    b1.push_named_trace(["a", "b", "c", "d", "e", "f"]);
    b1.push_named_trace(["f", "e", "d", "c", "b", "a"]);
    b2.push_named_trace(["u", "v", "w", "x", "y", "z"]);
    b2.push_named_trace(["z", "y", "x", "w", "v", "u"]);
    let ctx = MatchContext::new(
        b1.build(),
        b2.build(),
        PatternSetBuilder::new().vertices().edges(),
    )
    .unwrap();
    let run = || {
        ExactMatcher::new(BoundKind::Tight)
            .with_budget(Budget::UNLIMITED.with_frontier_cap(4))
            .solve(&ctx)
    };
    let out = run();
    assert!(out.mapping.is_complete());
    assert!(!out.completion.is_finished());
    let again = run();
    assert_eq!(out.mapping, again.mapping);
    assert_eq!(out.score.to_bits(), again.score.to_bits());
}

/// Identical processed-cap budgets are bit-deterministic at the harness
/// level too (same process, repeated runs, every method).
#[test]
fn processed_cap_runs_are_bit_identical() {
    let ds = datasets::real_like_sized(120, 120, 41);
    let budget = Budget::UNLIMITED.with_processed_cap(17);
    for m in ALL_METHODS {
        let pick = |out: RunOutcome| (out.mapping, out.score.to_bits());
        let a = pick(m.run(&ds.pair, &ds.patterns, budget));
        let b = pick(m.run(&ds.pair, &ds.patterns, budget));
        assert_eq!(a, b, "{} diverged under an identical cap", m.name());
    }
}

/// A budget-exhausted run's telemetry snapshot must *name* what tripped:
/// the `budget.exhausted.<cause>` counter is the machine-readable record
/// of why the run degraded (here, a processed cap).
#[test]
fn exhausted_snapshot_names_the_processed_cap() {
    let ds = datasets::fig1_like();
    let ctx = MatchContext::new(
        ds.pair.log1.clone(),
        ds.pair.log2.clone(),
        PatternSetBuilder::new()
            .vertices()
            .edges()
            .complex_all(ds.patterns.iter().cloned()),
    )
    .unwrap();
    let out = ExactMatcher::new(BoundKind::Tight)
        .with_budget(Budget::UNLIMITED.with_processed_cap(2))
        .solve(&ctx);
    assert!(!out.completion.is_finished());
    assert_eq!(
        out.metrics.counters.get("budget.exhausted.processed"),
        Some(&1),
        "snapshot must name the tripped limit; counters: {:?}",
        out.metrics.counters
    );
    // A finished run, by contrast, names nothing.
    let fin = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
    assert!(fin.completion.is_finished());
    assert!(
        !fin.metrics
            .counters
            .keys()
            .any(|k| k.starts_with("budget.exhausted.")),
        "finished run must not claim an exhaustion cause"
    );
}

/// `n` traces, each matching the AND-heavy composite, so its support scan
/// visits every trace.
fn and_heavy_ctx(n: usize) -> MatchContext {
    let names = ["a", "b", "c", "d", "e", "f"];
    let mut b1 = LogBuilder::new();
    let mut b2 = LogBuilder::new();
    for i in 0..n {
        let t: Vec<&str> = (0..6).map(|k| names[(k + i) % 6]).collect();
        b1.push_named_trace(t.clone());
        b2.push_named_trace(t);
    }
    let log1 = b1.build();
    let p = parse_pattern("SEQ(AND(a, b, c, d, e), f)", log1.events()).unwrap();
    MatchContext::new(
        log1,
        b2.build(),
        PatternSetBuilder::new().vertices().edges().complex(p),
    )
    .unwrap()
}

/// The deadline of the two mid-evaluation tests below.
const MID_EVAL_DEADLINE: Duration = Duration::from_millis(2);

/// An [`and_heavy_ctx`] whose composite evaluation under the identity
/// takes at least four times `deadline` unbudgeted (the fastest of three
/// timings), with the composite's index and the identity mapping. The
/// trace count follows from the measured scan rather than from a guess at
/// the host's speed, so a fueled scan (poll interval 1, set by the
/// callers) observes the deadline from inside on any host.
fn outlasting_ctx(deadline: Duration) -> (MatchContext, usize, Mapping) {
    use evematch::core::Evaluator;
    let mut n = 20_000usize;
    for _ in 0..6 {
        let ctx = and_heavy_ctx(n);
        let composite = ctx
            .patterns()
            .iter()
            .position(|ep| ep.size() > 2)
            .expect("the declared composite is in the pattern set");
        let identity = Mapping::from_pairs(
            ctx.n1(),
            ctx.n2(),
            (0..ctx.n1() as u32).map(|i| (EventId(i), EventId(i))),
        );
        let scan = (0..3)
            .map(|_| {
                let mut fresh = Evaluator::new(&ctx);
                let start = Instant::now();
                let _ = fresh.d(composite, &identity);
                start.elapsed()
            })
            .min()
            .unwrap();
        let want = deadline * 4;
        if scan >= want {
            return (ctx, composite, identity);
        }
        // Scans are linear in the trace count; overshoot by a quarter.
        let grow = want.as_secs_f64() / scan.as_secs_f64().max(1e-6) * 1.25;
        n = (n as f64 * grow).ceil() as usize;
    }
    panic!("no instance up to {n} traces scans for 4 x {deadline:?}");
}

/// A deadline that trips *mid-evaluation* abandons the eval (its fuel poll
/// says stop) and the snapshot records both the cause and the count of
/// abandoned evaluations — the ISSUE's fault-injection acceptance.
#[test]
fn deadline_tripped_snapshot_counts_interrupted_evals() {
    use evematch::core::{Evaluator, Exhaustion};
    let (ctx, composite, identity) = outlasting_ctx(MID_EVAL_DEADLINE);
    let budget = Budget::UNLIMITED
        .with_deadline(MID_EVAL_DEADLINE)
        .with_poll_interval(1);
    let mut eval = Evaluator::with_budget(&ctx, budget);
    // Evaluate the composite first, while the deadline has not yet
    // elapsed — the trip must happen inside the fueled evaluation.
    let _ = eval.d(composite, &identity);
    assert_eq!(
        eval.meter().exhaustion(),
        Some(Exhaustion::Deadline),
        "the deadline must trip inside an evaluation that takes 4x as long"
    );
    let snap = eval.metrics_snapshot();
    assert_eq!(
        snap.counters.get("budget.exhausted.deadline"),
        Some(&1),
        "snapshot must name the deadline; counters: {:?}",
        snap.counters
    );
    assert!(
        snap.counters
            .get("eval.interrupted_evals")
            .copied()
            .unwrap_or(0)
            >= 1,
        "at least one evaluation must be abandoned mid-flight; counters: {:?}",
        snap.counters
    );
    // The abandoned value was not cached: re-asking on the exhausted meter
    // takes the grace path and scores exactly what an unbudgeted
    // evaluator does.
    let grace = eval.d(composite, &identity);
    assert_eq!(eval.metrics_snapshot().counters["eval.grace_evals"], 1);
    assert_eq!(grace, Evaluator::new(&ctx).d(composite, &identity));
}

/// The exact search under a deadline that trips mid-evaluation (inside a
/// fueled scan that takes four deadlines) still returns a complete mapping
/// with a sound, finite gap certificate, and its snapshot names the
/// deadline once.
#[test]
fn deadline_exhaustion_mid_evaluation_certifies_the_gap() {
    let (ctx, _, _) = outlasting_ctx(MID_EVAL_DEADLINE);
    let budget = Budget::UNLIMITED
        .with_deadline(MID_EVAL_DEADLINE)
        .with_poll_interval(1);
    let out = ExactMatcher::new(BoundKind::Tight)
        .with_budget(budget)
        .solve(&ctx);
    assert!(out.mapping.is_complete(), "deadline lost the mapping");
    assert!(!out.completion.is_finished());
    let gap = out.completion.optimality_gap().unwrap_or(f64::NAN);
    assert!(gap.is_finite() && gap >= 0.0, "unsound gap {gap}");
    assert_eq!(
        out.metrics.counters.get("budget.exhausted.deadline"),
        Some(&1),
        "counters: {:?}",
        out.metrics.counters
    );
}

// ---------------------------------------------------------------------
// CLI fault injection
// ---------------------------------------------------------------------

fn cli() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_evematch"))
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("evematch-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn malformed_csv_log_is_a_clean_exit_one() {
    let good = temp_file("good.log", "a b c\nb a c\n");
    let bad = temp_file("bad.csv", "case,activity\nonly-one-column\n,,,\n");
    let out = cli().arg(&good).arg(&bad).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "malformed input must exit 1");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn empty_log_file_is_a_clean_exit_one() {
    let good = temp_file("good2.log", "a b c\n");
    let empty = temp_file("empty.log", "");
    let out = cli().arg(&good).arg(&empty).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "empty target log must exit 1");
}

#[test]
fn cli_budget_exhaustion_is_exit_two_with_complete_output() {
    let l1 = temp_file("f1.log", "a b c d\na c b d\n");
    let l2 = temp_file("f2.log", "p q r s\np r q s\n");
    let out = cli()
        .args(["--quiet", "--method", "advanced", "--limit-processed", "1"])
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("# degraded (gap="), "{stdout}");
    assert_eq!(stdout.lines().count(), 1 + 4, "header plus four pairs");
}
