//! End-to-end tests of the `repro_*` binaries' chaos knobs: the plan built
//! from `EVEMATCH_FAULT_SCHEDULE` reaches the grid, every artifact write
//! and the figure's `fault_telemetry.json`, which a plan-free `--resume`
//! that quarantines journal records writes too.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use evematch_core::persist::integrity;

/// A fresh output directory for one binary run.
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evematch-knobs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `bin` writing under `out`, with only the given `EVEMATCH_*` knobs
/// set (inherited ones are cleared so the run is reproducible).
fn run(bin: &str, out: &Path, knobs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EVEMATCH_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("EVEMATCH_OUT", out)
        .envs(knobs.iter().copied())
        .output()
        .expect("binary runs")
}

#[test]
fn repro_fig7_saves_the_telemetry_of_its_own_plan() {
    let out = out_dir("fig7");
    let run = run(
        env!("CARGO_BIN_EXE_repro_fig7"),
        &out,
        &[
            ("EVEMATCH_SEEDS", "11"),
            ("EVEMATCH_TRACES", "20"),
            ("EVEMATCH_LIMIT_PROCESSED", "2000"),
            (
                "EVEMATCH_FAULT_SCHEDULE",
                "persist.rename=fail-transient x2",
            ),
        ],
    );
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let (telemetry, _) = integrity::read_verified(&out.join("fault_telemetry.json")).unwrap();
    assert_eq!(
        String::from_utf8(telemetry).unwrap(),
        "{\"fault.injected.persist.rename\":2,\"fault.retries.bench.artifact\":2}\n"
    );
    let report = integrity::verify_dir(&out).unwrap();
    assert!(report.is_clean(), "{}", report.render());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn repro_table4_honors_the_fault_schedule() {
    let out = out_dir("table4");
    let run = run(
        env!("CARGO_BIN_EXE_repro_table4"),
        &out,
        &[
            ("EVEMATCH_TABLE4_RUNS", "1"),
            ("EVEMATCH_FAULT_SCHEDULE", "persist.rename=fail-permanent"),
        ],
    );
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8(run.stderr).unwrap();
    assert!(
        stderr.contains("injected permanent fault at persist.rename"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_plain_resume_saves_the_telemetry_of_its_quarantines() {
    let out = out_dir("resume");
    let knobs = [
        ("EVEMATCH_SEEDS", "11"),
        ("EVEMATCH_TRACES", "20"),
        ("EVEMATCH_LIMIT_PROCESSED", "2000"),
        ("EVEMATCH_RESUME", "1"),
    ];
    let fig7 = env!("CARGO_BIN_EXE_repro_fig7");
    let first = run(fig7, &out, &knobs);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    // A fresh, fault-free run has no telemetry to save.
    assert!(!out.join("fault_telemetry.json").exists());

    // Flip one payload byte of the first record: its trailer no longer
    // matches, so the resume quarantines it and recomputes the job.
    let journal = out.join("Fig7.journal");
    #[expect(
        clippy::disallowed_methods,
        reason = "the test damages the journal on purpose; the resume reads it through its framing"
    )]
    let text = std::fs::read_to_string(&journal).unwrap();
    let record = text.find('\n').unwrap() + 1;
    let at = record + text[record..].find(|c: char| c.is_ascii_digit()).unwrap();
    let flipped = if &text[at..=at] == "1" { "2" } else { "1" };
    let damaged = format!("{}{flipped}{}", &text[..at], &text[at + 1..]);
    #[expect(
        clippy::disallowed_methods,
        reason = "the test damages the journal on purpose"
    )]
    std::fs::write(&journal, damaged).unwrap();

    let resumed = run(fig7, &out, &knobs);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let (telemetry, _) = integrity::read_verified(&out.join("fault_telemetry.json")).unwrap();
    assert_eq!(
        String::from_utf8(telemetry).unwrap(),
        "{\"integrity.journal_quarantined.checksum_mismatch\":1}\n"
    );
    let _ = std::fs::remove_dir_all(&out);
}
