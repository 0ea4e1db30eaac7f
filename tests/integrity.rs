//! End-to-end artifact integrity suite (DESIGN.md §14): a single flipped
//! byte anywhere in a committed artifact — mid-record, in a checksum
//! trailer, in the journal header, or in a whole-file artifact — must
//! surface as a *typed* `IntegrityError`, be counted in the grid's own
//! `integrity.*` telemetry, and never panic, never fail the run, and
//! never let silently wrong data reach a result panel: a resumed grid is
//! byte-identical to the undamaged run in every deterministic panel.
//!
//! The `evematch verify` subcommand is exercised end-to-end as the
//! offline face of the same checks (exit 0 clean / 2 corruption).

#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::process::Command;

use evematch::core::persist::integrity::{self, FileStatus, IntegrityError};
use evematch::eval::experiments::{run_grid, FigureResult, SweepConfig};
use evematch::eval::project_dataset;
use evematch::prelude::*;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("evematch-integ-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small checkpointed grid under a pure processed cap: every panel
/// compared below is deterministic.
fn grid(checkpoint: Option<PathBuf>) -> FigureResult {
    let cfg = SweepConfig {
        seeds: vec![11, 23],
        budget: Budget::UNLIMITED.with_processed_cap(50_000),
        workers: 2,
        traces: 30,
        checkpoint,
        retry: retry::RetryPolicy::io_default(),
        faults: Default::default(),
    };
    run_grid(
        "FigInteg",
        "#events",
        &[3, 4],
        &[Method::Vertex, Method::PatternTight],
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

/// The deterministic panels (wall-clock time excluded).
fn det_panels(fig: &FigureResult) -> [String; 3] {
    [
        csv(&fig.f_measure),
        csv(&fig.anytime_f),
        csv(&fig.processed),
    ]
}

/// The grid's own count of `key` in its plan's telemetry.
fn counter(fig: &FigureResult, key: &str) -> u64 {
    fig.faults
        .telemetry()
        .into_iter()
        .find_map(|(k, n)| (k == key).then_some(n))
        .unwrap_or(0)
}

/// Flips one hex digit (any hex digit stays a hex digit, so the framing
/// still *parses* — only the checksum check can catch it).
fn flip_hex(c: char) -> char {
    if c == '0' {
        '1'
    } else {
        '0'
    }
}

/// Damages the journal at `path` by applying `damage` to its full text.
fn damage_journal(path: &std::path::Path, damage: impl FnOnce(&str) -> String) {
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::write(path, damage(&text)).unwrap();
}

#[test]
fn byte_flips_at_every_boundary_are_typed_quarantined_and_resume_byte_identically() {
    let dir = tmp("flips");
    let journal = dir.join("FigInteg.journal");

    let reference = det_panels(&grid(None));
    assert_eq!(reference, det_panels(&grid(Some(dir.clone()))));
    let pristine = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(pristine.lines().count(), 5, "header + 4 job records");
    assert!(pristine.starts_with(integrity::JOURNAL_MAGIC));

    // --- mid-record flip: payload byte changes, trailer goes stale ---
    damage_journal(&journal, |text| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let record = &lines[1];
        let payload_end = record.rfind(" #c=").unwrap();
        let mid = payload_end / 2;
        let mut bytes = record.clone().into_bytes();
        bytes[mid] ^= 0x01;
        lines[1] = String::from_utf8(bytes).unwrap();
        lines.join("\n") + "\n"
    });
    let fig = grid(Some(dir.clone()));
    assert_eq!(reference, det_panels(&fig));
    assert_eq!(
        counter(&fig, "integrity.journal_quarantined.checksum_mismatch"),
        1,
        "the mid-record flip must be counted as a typed quarantine"
    );

    // --- trailer flip: payload intact, checksum digits lie ---
    damage_journal(&journal, |text| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let record = lines[2].clone();
        let (payload, trailer) = record.rsplit_once(" #c=").unwrap();
        let flipped: String = trailer
            .chars()
            .enumerate()
            .map(|(i, c)| if i == 0 { flip_hex(c) } else { c })
            .collect();
        lines[2] = format!("{payload} #c={flipped}");
        lines.join("\n") + "\n"
    });
    let fig = grid(Some(dir.clone()));
    assert_eq!(reference, det_panels(&fig));
    assert_eq!(
        counter(&fig, "integrity.journal_quarantined.checksum_mismatch"),
        2,
        "the trailer flip must be counted as a typed quarantine, beside \
         the still-journaled mid-record flip"
    );

    // --- header flip: the whole journal context is untrusted → rebuild ---
    damage_journal(&journal, |text| {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines[0].len();
        let flipped = flip_hex(lines[0].chars().nth(n - 1).unwrap());
        lines[0].replace_range(n - 1..n, &flipped.to_string());
        lines.join("\n") + "\n"
    });
    let fig = grid(Some(dir.clone()));
    assert_eq!(reference, det_panels(&fig));
    assert_eq!(
        counter(&fig, "integrity.journal_rebuilt.header_damaged"),
        1,
        "the header flip must rebuild the journal with a typed reason"
    );
    let rebuilt = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(rebuilt.lines().count(), 5, "fresh header + 4 fresh records");
    assert_eq!(rebuilt.lines().next(), pristine.lines().next());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_rebuilds_and_torn_tail_is_sealed_not_fatal() {
    let dir = tmp("skew");
    let journal = dir.join("FigInteg.journal");

    let reference = det_panels(&grid(Some(dir.clone())));
    let pristine = std::fs::read_to_string(&journal).unwrap();

    // A future format version: unreadable by policy (not by accident),
    // counted as version skew, rebuilt from scratch — never guessed at.
    damage_journal(&journal, |text| {
        text.replacen("#%EVMJ v=1 ", "#%EVMJ v=9 ", 1)
    });
    let fig = grid(Some(dir.clone()));
    assert_eq!(reference, det_panels(&fig));
    assert_eq!(
        counter(&fig, "integrity.journal_rebuilt.version_skew"),
        1,
        "a future-version header must be a typed version-skew rebuild"
    );

    // A torn final record (what a kill mid-append leaves): tolerated,
    // counted, sealed so the fragment can never be misread later.
    damage_journal(&journal, |text| {
        let keep = text.lines().take(4).collect::<Vec<_>>().join("\n");
        let torn = text.lines().nth(4).unwrap();
        format!("{keep}\n{}", &torn[..torn.len() / 2])
    });
    let fig = grid(Some(dir.clone()));
    assert_eq!(reference, det_panels(&fig));
    assert_eq!(
        counter(&fig, "integrity.journal_torn_tail"),
        1,
        "a torn tail must be counted, not silently absorbed"
    );
    let sealed = std::fs::read_to_string(&journal).unwrap();
    assert!(
        sealed.contains(integrity::SEAL_MARKER),
        "the torn fragment must carry the seal marker"
    );
    // The sealed journal still replays end-to-end.
    assert_eq!(reference, det_panels(&grid(Some(dir.clone()))));
    assert_eq!(pristine.lines().next(), sealed.lines().next());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_errors_map_onto_the_fault_taxonomy() {
    // Record-level: a flipped payload byte is ChecksumMismatch/Corrupt.
    let line = integrity::frame_record("{\"a\":1}");
    let bad = line.replace("{\"a\":1}", "{\"a\":2}");
    let err = integrity::verify_record(bad.trim_end()).unwrap_err();
    assert!(matches!(err, IntegrityError::ChecksumMismatch { .. }));
    assert_eq!(err.class(), fault::FaultClass::Corrupt);
    assert_eq!(err.name(), "checksum_mismatch");
    // The io::Error round-trips through classify_io to the same class.
    assert_eq!(
        fault::classify_io(&err.into_io()),
        fault::FaultClass::Corrupt
    );

    // Header-level: a future version is VersionSkew/Permanent (retrying
    // or quarantining cannot help; only a newer reader can).
    let header = integrity::journal_header("ctx");
    let future = header.replacen("v=1", "v=9", 1);
    let err = integrity::parse_journal_header(&future).unwrap_err();
    assert!(matches!(err, IntegrityError::VersionSkew { .. }));
    assert_eq!(err.class(), fault::FaultClass::Permanent);
    assert_eq!(
        fault::classify_io(&err.into_io()),
        fault::FaultClass::Permanent
    );
}

#[test]
fn verify_dir_flags_flipped_truncated_and_missing_artifacts() {
    let dir = tmp("vdir");
    let artifact = dir.join("panel.csv");
    persist::atomic_write_verified(
        &fault::Faults::default(),
        &artifact,
        b"x,f\n3,0.5\n4,0.75\n",
    )
    .unwrap();

    let report = integrity::verify_dir(&dir).unwrap();
    assert!(report.is_clean(), "{}", report.render());
    assert!(report
        .files
        .iter()
        .any(|f| f.name == "panel.csv" && matches!(f.status, FileStatus::Verified { .. })));

    // One flipped byte (same length, so only the checksum can see it).
    let mut bytes = std::fs::read(&artifact).unwrap();
    bytes[5] ^= 0x01;
    std::fs::write(&artifact, &bytes).unwrap();
    let report = integrity::verify_dir(&dir).unwrap();
    assert!(!report.is_clean());
    assert!(report.files.iter().any(|f| matches!(
        &f.status,
        FileStatus::Corrupt(IntegrityError::ChecksumMismatch { .. })
    )));

    // Truncation is typed as a torn tail, not a generic mismatch.
    bytes[5] ^= 0x01;
    std::fs::write(&artifact, &bytes[..bytes.len() / 2]).unwrap();
    let report = integrity::verify_dir(&dir).unwrap();
    assert!(report
        .files
        .iter()
        .any(|f| matches!(&f.status, FileStatus::Corrupt(IntegrityError::TornTail))));

    // An orphan sidecar means the artifact itself is gone.
    std::fs::remove_file(&artifact).unwrap();
    let report = integrity::verify_dir(&dir).unwrap();
    assert!(report
        .files
        .iter()
        .any(|f| matches!(f.status, FileStatus::MissingArtifact)));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evematch_verify_cli_exits_zero_on_clean_and_two_on_corruption() {
    let dir = tmp("cli");
    let artifact = dir.join("metrics.json");
    persist::atomic_write_verified(&fault::Faults::default(), &artifact, b"{\"processed\":7}\n")
        .unwrap();

    let clean = Command::new(env!("CARGO_BIN_EXE_evematch"))
        .args(["verify", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        clean.status.success(),
        "clean dir must verify: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("metrics.json"), "{stdout}");

    let mut bytes = std::fs::read(&artifact).unwrap();
    bytes[2] ^= 0x01;
    std::fs::write(&artifact, &bytes).unwrap();
    let corrupt = Command::new(env!("CARGO_BIN_EXE_evematch"))
        .args(["verify", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        corrupt.status.code(),
        Some(2),
        "corruption must exit 2: {}",
        String::from_utf8_lossy(&corrupt.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}
