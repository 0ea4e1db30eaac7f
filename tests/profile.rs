//! The hierarchical phase profiler's acceptance suite: the deterministic
//! section of a profile snapshot is byte-identical across runs —
//! including under budget exhaustion and seeded fault schedules — and
//! the three artifact views (two-section JSON, Chrome `trace_event`,
//! folded stacks) all round-trip or parse.

use evematch::core::telemetry::json::JsonValue;
use evematch::eval::experiments::{run_grid, FigureResult, SweepConfig};
use evematch::prelude::*;

/// The composite-heavy workload (20 events, SEQ/AND patterns) where the
/// exact search spends real work in support evaluation.
fn workload() -> Dataset {
    datasets::larger_synthetic(2, 300, 11)
}

fn profile_at(cap: u64) -> (ProfileSnapshot, RunOutcome) {
    let ds = workload();
    let budget = Budget::UNLIMITED.with_processed_cap(cap);
    let out = Method::PatternTight.run(&ds.pair, &ds.patterns, budget);
    (out.profile.clone(), out)
}

#[test]
fn det_section_is_byte_identical_across_runs() {
    let (reference, _) = profile_at(5_000);
    let det = reference.deterministic_json();
    let (again, _) = profile_at(5_000);
    assert_eq!(again.deterministic_json(), det, "profile diverged on rerun");
    // Not vacuous: the tree carries the index → search roots with the
    // probe and support-eval children, and real work counts.
    for needle in ["\"index\"", "\"search\"", "\"probe\"", "\"support-eval\""] {
        assert!(det.contains(needle), "missing {needle}: {det}");
    }
    let work = reference.flat_work();
    assert!(
        work.get("search/pops").copied().unwrap_or(0) > 0,
        "{work:?}"
    );
    assert!(
        work.get("search/meter_ticks").copied().unwrap_or(0) > 0,
        "{work:?}"
    );
}

#[test]
fn det_section_is_byte_identical_under_budget_exhaustion() {
    // A cap of 3 cannot finish a 20-event exact search: every run ends in
    // budget exhaustion, and the truncated phase tree must still agree
    // byte-for-byte across runs.
    let (reference, out) = profile_at(3);
    assert!(!out.finished(), "cap 3 must exhaust");
    let (again, out) = profile_at(3);
    assert!(!out.finished());
    assert_eq!(
        again.deterministic_json(),
        reference.deterministic_json(),
        "exhausted-run profile diverged on rerun"
    );
}

/// A one-worker grid (sequential job order, so seeded failpoint injection
/// lands on the same cell attempts every run), under a fresh plan armed
/// with `spec`.
fn faulted_grid(spec: &str) -> FigureResult {
    let cfg = SweepConfig {
        seeds: vec![11, 23],
        budget: Budget::UNLIMITED.with_processed_cap(20_000),
        workers: 1,
        traces: 40,
        checkpoint: None,
        retry: retry::RetryPolicy::io_default(),
        faults: std::sync::Arc::new(fault::Faults::armed(spec, 7).unwrap()),
    };
    run_grid(
        "FigProfileChaos",
        "#events",
        &[4, 5],
        &[Method::PatternTight],
        &cfg,
        |x, seed| {
            let ds = datasets::real_like_sized(cfg.traces, cfg.traces, seed);
            evematch::eval::project_dataset(&ds, x)
        },
    )
}

#[test]
fn det_section_is_byte_identical_under_a_seeded_fault_schedule() {
    // Two runs under the SAME seeded schedule must agree byte-for-byte —
    // the injected faults (and the retries they charge to the search
    // root) are part of the deterministic input, not noise.
    let profiles = |fig: &FigureResult| -> Vec<(String, String)> {
        fig.profiles
            .iter()
            .map(|(name, p)| (name.clone(), p.deterministic_json()))
            .collect()
    };
    // `/2` skips the odd-numbered failpoint hits: with one worker the
    // first hit is the first cell's dataset generation, so hit 2 — the
    // first *method run* — is where the transient fault lands, and the
    // supervised retry is charged to that run's search root.
    let first = faulted_grid("grid.cell=fail-transient /2 x2");
    let second = faulted_grid("grid.cell=fail-transient /2 x2");
    assert_eq!(
        profiles(&first),
        profiles(&second),
        "profiles diverged across identical fault schedules"
    );
    // The retries were actually charged into the profile's work columns.
    let (_, merged) = &first.profiles[0];
    let work = merged.flat_work();
    assert!(
        work.get("search/fault_retries").copied().unwrap_or(0) > 0,
        "fault retries missing from the profile: {work:?}"
    );
}

#[test]
fn full_snapshot_round_trips_through_its_json_document() {
    let (profile, _) = profile_at(5_000);
    let doc = profile.to_json_string();
    let back = ProfileSnapshot::from_json(&doc).expect("document parses back");
    assert_eq!(back, profile, "snapshot != parse(render(snapshot))");
    // And the document itself is valid JSON with both sections.
    let v = JsonValue::parse(&doc).expect("valid JSON");
    assert!(v.get("deterministic").is_some());
    assert!(v.get("non_deterministic").is_some());
}

#[test]
fn chrome_trace_and_folded_views_parse() {
    let (profile, _) = profile_at(5_000);

    let trace = profile.to_chrome_trace();
    let v = JsonValue::parse(&trace).expect("trace_event document is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no trace events: {trace}");

    let folded = profile.to_folded("Pattern-Tight");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, nanos) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line has no value: `{line}`"));
        nanos
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("folded value is not a nano count: `{line}`"));
        assert!(
            stack.starts_with("Pattern-Tight"),
            "folded stack lost its prefix: `{line}`"
        );
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "empty frame in `{line}`"
        );
    }
    // The search phase appears as a frame somewhere in the stacks.
    assert!(folded.contains(";search"), "{folded}");
}
