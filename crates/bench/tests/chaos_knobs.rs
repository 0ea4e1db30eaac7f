//! End-to-end tests of the `repro_*` binaries' chaos knobs: the plan built
//! from `EVEMATCH_FAULT_SCHEDULE` reaches the grid, every artifact write
//! and the figure's `fault_telemetry.json`.

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
