//! Chaos suite for the deterministic fault plans (`core::fault`) and the
//! supervised retry path (`core::retry`): an experiment grid run under
//! seeded fault schedules must converge — after retries, torn-tail
//! sealing, and journal resume — to results *byte-identical* to the
//! fault-free run, with the grid's own fault telemetry proving the faults
//! were actually injected and recovered rather than silently skipped.
//!
//! Budgets here are pure processed caps, so the deterministic panels
//! (f-measure, anytime f-measure, processed mappings) are byte-stable;
//! wall-clock panels are excluded by construction. The same invariant is
//! enforced at full reproduction scale by the chaos job in CI.

use std::path::PathBuf;
use std::sync::Arc;

use evematch::eval::experiments::{run_grid, FigureResult, SweepConfig};
use evematch::eval::project_dataset;
use evematch::prelude::*;

/// A small grid under a pure processed cap (no wall-clock budget, so
/// every panel this suite compares is deterministic), run under `faults`.
fn grid(workers: usize, checkpoint: Option<PathBuf>, faults: fault::Faults) -> FigureResult {
    let cfg = SweepConfig {
        seeds: vec![11, 23],
        budget: Budget::UNLIMITED.with_processed_cap(50_000),
        workers,
        traces: 40,
        checkpoint,
        retry: retry::RetryPolicy::io_default(),
        faults: Arc::new(faults),
    };
    run_grid(
        "FigChaos",
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

/// The three deterministic panels as CSV bytes — what "byte-identical to
/// the fault-free run" means throughout this suite. The merged metrics
/// are deliberately excluded: a recovered cell legitimately carries its
/// `fault.retries.grid.cell` counter, which is evidence, not divergence.
fn det_panels(fig: &FigureResult) -> [String; 3] {
    [
        csv(&fig.f_measure),
        csv(&fig.anytime_f),
        csv(&fig.processed),
    ]
}

/// A plan armed with `spec` under `seed`.
fn armed(spec: &str, seed: u64) -> fault::Faults {
    fault::Faults::armed(spec, seed).unwrap()
}

fn telemetry_value(fig: &FigureResult, key: &str) -> Option<u64> {
    fig.faults
        .telemetry()
        .into_iter()
        .find_map(|(k, n)| (k == key).then_some(n))
}

/// Injected-fault evidence: at least one site injected, at least one
/// supervised retry, and no site exhausted its retry budget.
fn assert_recovered_telemetry(fig: &FigureResult, label: &str) {
    let telemetry = fig.faults.telemetry();
    assert!(
        telemetry
            .iter()
            .any(|(k, n)| k.starts_with("fault.injected.") && *n > 0),
        "{label}: no fault was injected — the schedule never fired: {telemetry:?}"
    );
    assert!(
        telemetry
            .iter()
            .any(|(k, n)| k.starts_with("fault.retries.") && *n > 0),
        "{label}: faults were injected but nothing retried: {telemetry:?}"
    );
    assert!(
        !telemetry
            .iter()
            .any(|(k, _)| k.starts_with("fault.exhausted.")),
        "{label}: a retry budget was exhausted; this schedule must recover: {telemetry:?}"
    );
}

/// A fresh scratch directory for checkpoint journals.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evematch-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole acceptance at test scale: three seeded fault schedules —
/// transient cell failures, injected delays plus a worker panic, and a
/// torn journal append with failing fsyncs — each produce deterministic
/// panels byte-identical to the fault-free grid, and a post-chaos resume
/// from the surviving journal replays to the same bytes.
#[test]
fn seeded_fault_schedules_recover_to_byte_identical_results() {
    let reference = det_panels(&grid(2, None, fault::Faults::default()));

    // Schedule 1: the first two supervised cell attempts fail transiently
    // and are retried under backoff.
    {
        let fig = grid(2, None, armed("grid.cell=fail-transient x2", 1));
        assert_eq!(det_panels(&fig), reference, "schedule 1 diverged");
        assert_recovered_telemetry(&fig, "schedule 1");
        assert_eq!(telemetry_value(&fig, "fault.injected.grid.cell"), Some(2));
    }

    // Schedule 2: one cell attempt crashes (an injected panic on a grid
    // worker), which the supervisor treats as a transient worker crash
    // and re-runs.
    {
        let fig = grid(2, None, armed("grid.cell=panic x1", 2));
        assert_eq!(det_panels(&fig), reference, "schedule 2 diverged");
        let telemetry = fig.faults.telemetry();
        assert_eq!(telemetry_value(&fig, "fault.injected.grid.cell"), Some(1));
        assert!(
            telemetry
                .iter()
                .any(|(k, n)| k.starts_with("fault.retries.") && *n > 0),
            "schedule 2: the panicked worker was not retried: {telemetry:?}"
        );
        assert!(
            !telemetry
                .iter()
                .any(|(k, _)| k.starts_with("fault.exhausted.")),
            "schedule 2: exhausted a retry budget: {telemetry:?}"
        );
    }

    // Schedule 3: a torn journal append (half the line reaches disk, then
    // a transient error) plus two failing append fsyncs. The supervised
    // journal writer must seal the torn tail before retrying, so the
    // journal stays replayable, and must retry a failed fsync without
    // writing its line again, so the journal holds one record per job.
    let dir = scratch_dir("journal");
    {
        let fig = grid(
            2,
            Some(dir.clone()),
            armed(
                "persist.append=torn x1; persist.append_fsync=fail-transient x2",
                3,
            ),
        );
        assert_eq!(det_panels(&fig), reference, "schedule 3 diverged");
        assert_recovered_telemetry(&fig, "schedule 3");
        assert_eq!(
            telemetry_value(&fig, "fault.injected.persist.append"),
            Some(1)
        );
        assert_eq!(
            telemetry_value(&fig, "fault.injected.persist.append_fsync"),
            Some(2)
        );
        let report = persist::integrity::verify_dir(&dir).unwrap();
        let journal = report
            .files
            .iter()
            .find(|f| f.name == "FigChaos.journal")
            .unwrap_or_else(|| panic!("no journal: {}", report.render()));
        // Two x values by two seeds: four jobs, one record each, plus the
        // sealed fragment of the torn append.
        assert_eq!(
            journal.status,
            persist::integrity::FileStatus::JournalVerified {
                records: 4,
                torn: 1
            },
            "schedule 3: {}",
            report.render()
        );
    }

    // Resume, fault-free, from the journal the chaos run left behind:
    // replayed jobs must reproduce the same bytes.
    let resumed = grid(2, Some(dir.clone()), fault::Faults::default());
    assert_eq!(
        det_panels(&resumed),
        reference,
        "post-chaos resume diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retry-budget boundary, at grid level. `io_default` allows 4
/// attempts per supervised operation: exactly 3 injected failures (at
/// cap) recover on the final attempt and the grid matches the fault-free
/// run; 4 injected failures (one over) exhaust the budget and the first
/// cell is quarantined as a typed transient DNF instead.
#[test]
fn retry_cap_boundary_exactly_at_cap_recovers_one_over_quarantines() {
    // workers: 1 pins which supervised operation the schedule's fires
    // land on (the first cell's generation), making both halves exact.
    let reference = det_panels(&grid(1, None, fault::Faults::default()));

    // Exactly at cap: 3 failures, then the 4th and final attempt runs
    // fault-free and recovers.
    {
        let fig = grid(1, None, armed("grid.cell=fail-transient x3", 7));
        assert_eq!(det_panels(&fig), reference, "at-cap run diverged");
        assert_eq!(telemetry_value(&fig, "fault.retries.grid.cell"), Some(3));
        assert_eq!(telemetry_value(&fig, "fault.exhausted.grid.cell"), None);
    }

    // One over: the 4th attempt fails too, the budget is spent, and the
    // cell is quarantined as a typed transient DNF.
    {
        let fig = grid(1, None, armed("grid.cell=fail-transient x4", 7));
        assert_ne!(
            det_panels(&fig),
            reference,
            "one-over run must quarantine a cell, not match the reference"
        );
        assert_eq!(telemetry_value(&fig, "fault.exhausted.grid.cell"), Some(1));
        let quarantined: u64 = fig
            .metrics
            .iter()
            .filter_map(|(_, snap)| snap.counters.get("grid.cell_quarantined.transient"))
            .sum();
        assert!(
            quarantined >= 1,
            "no typed quarantine counter surfaced in the merged metrics"
        );
    }
}
