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

use std::path::{Path, PathBuf};
use std::process::Command;

use evematch::core::persist::integrity::{self, FileStatus, IntegrityError};
use evematch::core::persist::journal;
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

/// The grid's own `integrity.*` counters, as `key=count`.
fn integrity_counters(fig: &FigureResult) -> Vec<String> {
    fig.faults
        .telemetry()
        .into_iter()
        .filter(|(k, _)| k.starts_with("integrity."))
        .map(|(k, n)| format!("{k}={n}"))
        .collect()
}

/// Flips one hex digit (any hex digit stays a hex digit, so the framing
/// still *parses* — only the checksum check can catch it).
fn flip_hex(c: u8) -> u8 {
    if c == b'0' {
        b'1'
    } else {
        b'0'
    }
}

/// The journal `lines` with line `i` replaced by `bytes`.
fn replaced(lines: &[&str], i: usize, bytes: &[u8]) -> Vec<u8> {
    let mut parts: Vec<&[u8]> = lines.iter().map(|l| l.as_bytes()).collect();
    parts[i] = bytes;
    let mut out = parts.join(&b'\n');
    out.push(b'\n');
    out
}

/// The journal `lines` with byte `at` of line `i` rewritten by `to`.
fn flipped(lines: &[&str], i: usize, at: usize, to: impl Fn(u8) -> u8) -> Vec<u8> {
    let mut line = lines[i].as_bytes().to_vec();
    line[at] = to(line[at]);
    replaced(lines, i, &line)
}

/// `verify_dir`'s verdict on the journal in `dir`: `ok <records>+<torn>`,
/// the integrity error's name, or the status itself.
fn journal_verdict(dir: &Path) -> String {
    let report = integrity::verify_dir(dir).unwrap();
    let file = report.files.iter().find(|f| f.name.ends_with(".journal"));
    match &file.unwrap().status {
        FileStatus::JournalVerified { records, torn } => format!("ok {records}+{torn}"),
        FileStatus::Corrupt(e) => e.name().to_owned(),
        other => format!("{other:?}"),
    }
}

/// One journal damage: its name, the damaged bytes, and three expectations:
/// `verify_dir`'s verdict before the resume, the one `integrity.*` counter
/// the resume reports, and the verdict after it.
type Damage = (&'static str, Vec<u8>, [&'static str; 3]);

/// Pins both journal readers on the same damages: each is written over the
/// journal in `dir`, graded offline, resumed (panels byte-identical to
/// `reference`, exactly one typed counter) and graded again.
fn assert_graded_alike(dir: &Path, reference: &[String; 3], cases: Vec<Damage>) {
    for (damage, bytes, [before, label, after]) in cases {
        std::fs::write(dir.join("FigInteg.journal"), bytes).unwrap();
        assert_eq!(journal_verdict(dir), before, "{damage}: verify before");
        let fig = grid(Some(dir.to_path_buf()));
        assert_eq!(reference, &det_panels(&fig), "{damage}: resumed panels");
        let counted = [format!("integrity.{label}=1")];
        assert_eq!(integrity_counters(&fig), counted, "{damage}");
        assert_eq!(journal_verdict(dir), after, "{damage}: verify after");
    }
}

#[test]
fn byte_flips_at_every_boundary_are_typed_quarantined_and_resume_byte_identically() {
    let dir = tmp("flips");
    let reference = det_panels(&grid(None));
    assert_eq!(reference, det_panels(&grid(Some(dir.clone()))));
    let pristine = std::fs::read_to_string(dir.join("FigInteg.journal")).unwrap();
    let lines: Vec<&str> = pristine.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 job records");
    let mid = lines[1].rfind(" #c=").unwrap() / 2;
    let (trailer, header_end) = (lines[2].len() - 8, lines[0].len() - 1);
    let quarantined = "journal_quarantined.checksum_mismatch";
    assert_graded_alike(
        &dir,
        &reference,
        vec![
            // Payload byte changes, trailer goes stale: quarantined.
            (
                "payload flip",
                flipped(&lines, 1, mid, |b| b ^ 0x01),
                ["checksum_mismatch", quarantined, "checksum_mismatch"],
            ),
            // Payload intact, checksum digits lie: quarantined.
            (
                "trailer flip",
                flipped(&lines, 2, trailer, flip_hex),
                ["checksum_mismatch", quarantined, "checksum_mismatch"],
            ),
            // The whole journal context is untrusted: rebuilt.
            (
                "header flip",
                flipped(&lines, 0, header_end, flip_hex),
                [
                    "checksum_mismatch",
                    "journal_rebuilt.header_damaged",
                    "ok 4+0",
                ],
            ),
            // A complete line that is not UTF-8: quarantined as torn.
            (
                "non-UTF-8 line",
                flipped(&lines, 3, lines[3].len() / 2, |_| 0xFF),
                ["torn_tail", "journal_quarantined.torn_tail", "torn_tail"],
            ),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_rebuilds_and_torn_tail_is_sealed_not_fatal() {
    let dir = tmp("skew");
    let reference = det_panels(&grid(Some(dir.clone())));
    let pristine = std::fs::read_to_string(dir.join("FigInteg.journal")).unwrap();
    let lines: Vec<&str> = pristine.lines().collect();
    let body = format!("#%EVMJ v=1 ctx={:016x}", integrity::crc64(b"another grid"));
    let foreign = format!("{body} c={:08x}", integrity::crc32(body.as_bytes()));
    let torn = format!(
        "{}\n{}",
        lines[..4].join("\n"),
        &lines[4][..lines[4].len() / 2]
    );
    assert_graded_alike(
        &dir,
        &reference,
        vec![
            // A future format version is unreadable by policy: rebuilt.
            (
                "version skew",
                pristine.replacen(" v=1 ", " v=9 ", 1).into_bytes(),
                ["version_skew", "journal_rebuilt.version_skew", "ok 4+0"],
            ),
            (
                "headerless",
                (lines[1..].join("\n") + "\n").into_bytes(),
                ["Unverified", "journal_rebuilt.no_header", "ok 4+0"],
            ),
            (
                "another grid's header",
                replaced(&lines, 0, foreign.as_bytes()),
                ["ok 4+0", "journal_rebuilt.context_changed", "ok 4+0"],
            ),
            // What a kill mid-append leaves: counted, sealed, not fatal.
            (
                "torn tail",
                torn.into_bytes(),
                ["ok 3+1", "journal_torn_tail", "ok 4+1"],
            ),
        ],
    );
    // The sealed journal replays end to end; only the fragment is counted.
    let fig = grid(Some(dir.clone()));
    assert_eq!(reference, det_panels(&fig));
    let sealed = ["integrity.journal_sealed_fragment=1"];
    assert_eq!(integrity_counters(&fig), sealed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_errors_map_onto_the_fault_taxonomy() {
    // Record-level: a flipped payload byte is ChecksumMismatch/Corrupt.
    let line = journal::frame_record("{\"a\":1}");
    let bad = line.replace("{\"a\":1}", "{\"a\":2}");
    let err = journal::verify_record(bad.trim_end()).unwrap_err();
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
    let header = journal::journal_header("ctx");
    let future = header.replacen("v=1", "v=9", 1);
    let err = journal::parse_journal_header(&future).unwrap_err();
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
