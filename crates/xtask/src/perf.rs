//! `cargo xtask perf` — the perf-trajectory history and regression gate.
//!
//! The workspace's bench binaries emit JSON artifacts whose `work`
//! section holds *deterministic* work counters (phase-profiler columns
//! like `search/pops`, byte-identical across thread counts) next to
//! advisory `wall_nanos`. This module turns those artifacts into a
//! trajectory:
//!
//! * `perf append <artifact>…` normalizes each artifact into one line of
//!   `results/perf_history.jsonl`, stamped with the current git SHA, the
//!   host's available parallelism, and the recording time;
//! * `perf diff <A> <B>` compares two artifacts (or history lines)
//!   counter by counter;
//! * `perf check <artifact>…` finds each artifact's baseline — the most
//!   recent history entry with the same bench name and workload — and
//!   **exits 2** when any deterministic work counter grew beyond the
//!   noise threshold (default 10%). Wall-clock changes are reported but
//!   never gate: wall time measures the host, work counters measure the
//!   algorithm.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use evematch_core::persist::integrity::read_verified;
use evematch_core::telemetry::json::{push_counters, push_string, JsonValue};

/// The default regression threshold, in percent: a deterministic work
/// counter may grow by up to this much before the gate fails. The
/// counters are exact, so this headroom only absorbs *intended* small
/// drifts (a tweaked tie-break reordering a handful of expansions), not
/// measurement noise.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// The default history file, relative to the workspace root.
pub const DEFAULT_HISTORY: &str = "results/perf_history.jsonl";

const PERF_USAGE: &str = "\
cargo xtask perf — perf-trajectory history and regression gate

USAGE:
    cargo xtask perf append <artifact.json>… [--sha <SHA>] [--history <FILE>]
        normalize bench artifacts into history lines (git SHA, host
        parallelism, unix time, deterministic work counters, wall nanos)
        and append them to results/perf_history.jsonl

    cargo xtask perf diff <A.json> <B.json>
        compare two artifacts or history lines counter by counter

    cargo xtask perf check <artifact.json>… [--threshold <PCT>] [--history <FILE>]
        compare each artifact against its baseline (the latest history
        entry with the same bench + workload); exit 2 when any
        deterministic work counter regressed beyond the threshold
        (default 10%). Wall-clock deltas are advisory only. Artifacts
        with no baseline pass with a note.
";

/// One normalized perf observation: an artifact or history line reduced
/// to its identity (bench + workload), provenance (sha, host, time), and
/// measurements (work counters + wall nanos).
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Git revision the observation was recorded at (`unknown` outside a
    /// repository).
    pub sha: String,
    /// Unix seconds at recording time (0 for raw artifacts).
    pub recorded_unix: u64,
    /// `std::thread::available_parallelism()` on the recording host.
    pub host_parallelism: u64,
    /// The bench name (`profile`, `matcher`, …).
    pub bench: String,
    /// The workload descriptor as canonical minified JSON — the baseline
    /// match key alongside `bench`.
    pub workload: String,
    /// Deterministic work counters, in source order.
    pub work: Vec<(String, u64)>,
    /// Advisory wall-clock nanos, in source order.
    pub wall: Vec<(String, u64)>,
}

/// One gate finding for a single counter.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Counter name (`search/pops`, …).
    pub key: String,
    /// Baseline value.
    pub before: u64,
    /// Current value.
    pub after: u64,
    /// Signed percent change (`+20.0` for a 20% increase).
    pub pct: f64,
}

/// Entry point for `cargo xtask perf …`.
pub fn run(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("append") => append(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{PERF_USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(Failure::Usage(format!("unknown perf subcommand `{other}`"))),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(failure) => {
            eprintln!("{failure}");
            ExitCode::FAILURE
        }
    }
}

/// Why a `perf` invocation failed. Only a usage error (an unknown
/// subcommand or flag, a missing path, a bad threshold) is followed by the
/// usage text; a runtime error, such as an artifact failing its checksum,
/// prints its one line.
#[derive(Debug, PartialEq)]
enum Failure {
    Usage(String),
    Runtime(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Runtime(message)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(message) => write!(f, "perf: {message}\n\n{PERF_USAGE}"),
            Failure::Runtime(message) => write!(f, "perf: {message}"),
        }
    }
}

/// Flags shared by `append` and `check`: positional artifact paths plus
/// `--sha`, `--history`, `--threshold`.
struct PerfArgs {
    paths: Vec<PathBuf>,
    sha: Option<String>,
    history: PathBuf,
    threshold: f64,
}

fn parse_args(args: &[String]) -> Result<PerfArgs, String> {
    let mut out = PerfArgs {
        paths: Vec::new(),
        sha: None,
        history: crate::workspace_root().join(DEFAULT_HISTORY),
        threshold: DEFAULT_THRESHOLD_PCT,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sha" => {
                out.sha = Some(
                    it.next()
                        .ok_or_else(|| "--sha needs a value".to_string())?
                        .clone(),
                );
            }
            "--history" => {
                out.history = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--history needs a value".to_string())?,
                );
            }
            "--threshold" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--threshold needs a value (percent)".to_string())?;
                out.threshold = raw
                    .parse::<f64>()
                    .map_err(|_| format!("bad threshold `{raw}` (want a percent)"))?;
                if out.threshold.is_nan() || out.threshold < 0.0 {
                    return Err(format!("threshold must be non-negative, got `{raw}`"));
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown perf flag `{flag}`")),
            path => out.paths.push(PathBuf::from(path)),
        }
    }
    if out.paths.is_empty() {
        return Err("expected at least one artifact path".to_string());
    }
    Ok(out)
}

// ---- append ----

fn append(args: &[String]) -> Result<u8, Failure> {
    let parsed = parse_args(args).map_err(Failure::Usage)?;
    let sha = parsed.sha.clone().unwrap_or_else(git_sha);
    let now = unix_now();
    let mut lines = String::new();
    let mut benches = Vec::new();
    for path in &parsed.paths {
        let mut entry = load_entry(path)?;
        entry.sha.clone_from(&sha);
        entry.recorded_unix = now;
        benches.push(entry.bench.clone());
        lines.push_str(&render_entry(&entry));
        lines.push('\n');
    }
    if let Some(dir) = parsed.history.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&parsed.history)
        .map_err(|e| format!("cannot open {}: {e}", parsed.history.display()))?;
    file.write_all(lines.as_bytes())
        .map_err(|e| format!("cannot append to {}: {e}", parsed.history.display()))?;
    println!(
        "perf: appended {} entr{} ({}) at {sha} -> {}",
        benches.len(),
        if benches.len() == 1 { "y" } else { "ies" },
        benches.join(", "),
        parsed.history.display()
    );
    Ok(0)
}

/// Renders one history line. The `work`/`wall_nanos` sections are kept
/// flat so `diff`/`check` (and a human with grep) read them directly.
pub fn render_entry(entry: &Entry) -> String {
    let mut out = String::from("{\"schema\":1,\"sha\":");
    push_string(&mut out, &entry.sha);
    let _ = write!(
        out,
        ",\"recorded_unix\":{},\"host_parallelism\":{},\"bench\":",
        entry.recorded_unix, entry.host_parallelism
    );
    push_string(&mut out, &entry.bench);
    let _ = write!(out, ",\"workload\":{},\"work\":", entry.workload);
    push_counters(&mut out, entry.work.iter().map(|(k, n)| (k, n)));
    out.push_str(",\"wall_nanos\":");
    push_counters(&mut out, entry.wall.iter().map(|(k, n)| (k, n)));
    out.push('}');
    out
}

// ---- diff ----

fn diff(args: &[String]) -> Result<u8, Failure> {
    let parsed = parse_args(args).map_err(Failure::Usage)?;
    if parsed.paths.len() != 2 {
        return Err(Failure::Usage(format!(
            "diff takes exactly two paths, got {}",
            parsed.paths.len()
        )));
    }
    let a = load_entry(&parsed.paths[0])?;
    let b = load_entry(&parsed.paths[1])?;
    if (a.bench.as_str(), a.workload.as_str()) != (b.bench.as_str(), b.workload.as_str()) {
        println!(
            "perf: note: comparing different workloads ({} {} vs {} {})",
            a.bench, a.workload, b.bench, b.workload
        );
    }
    println!("perf diff: work counters (deterministic)");
    print_deltas(&work_deltas(&a.work, &b.work));
    println!("perf diff: wall nanos (advisory, host-dependent)");
    print_deltas(&work_deltas(&a.wall, &b.wall));
    Ok(0)
}

fn print_deltas(deltas: &[Delta]) {
    if deltas.is_empty() {
        println!("  (no common counters)");
        return;
    }
    for d in deltas {
        println!(
            "  {:<40} {:>14} -> {:>14}  {:+.2}%",
            d.key, d.before, d.after, d.pct
        );
    }
}

// ---- check ----

fn check(args: &[String]) -> Result<u8, Failure> {
    let parsed = parse_args(args).map_err(Failure::Usage)?;
    let history = read_history(&parsed.history)?;
    for warning in &history.skipped {
        println!("perf check: warning: {warning}");
    }
    let mut regressed = false;
    for path in &parsed.paths {
        let current = load_entry(path)?;
        let Some(baseline) = find_baseline(&history.entries, &current) else {
            println!(
                "perf check: {} — no baseline for bench `{}` with this workload \
                 (first run): pass; record one with `cargo xtask perf append`",
                path.display(),
                current.bench
            );
            continue;
        };
        let verdicts = gate(baseline, &current, parsed.threshold);
        report(path, baseline, &current, &verdicts, parsed.threshold);
        if !verdicts.regressions.is_empty() {
            regressed = true;
        }
    }
    Ok(if regressed { 2 } else { 0 })
}

/// The gate's verdict over one artifact/baseline pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdicts {
    /// Work counters that grew beyond the threshold — these fail the gate.
    pub regressions: Vec<Delta>,
    /// Work counters that shrank beyond the threshold — reported as
    /// improvements (and a hint to refresh the baseline).
    pub improvements: Vec<Delta>,
    /// Wall-clock deltas — never gate.
    pub wall: Vec<Delta>,
}

/// Applies the regression gate: a deterministic work counter that
/// *increased* by more than `threshold_pct` percent is a regression.
/// Counters present on only one side are ignored (a renamed phase is a
/// baseline-refresh event, not a perf event); wall nanos are computed for
/// reporting but never fail the gate.
pub fn gate(baseline: &Entry, current: &Entry, threshold_pct: f64) -> Verdicts {
    let mut out = Verdicts::default();
    for d in work_deltas(&baseline.work, &current.work) {
        if d.pct > threshold_pct {
            out.regressions.push(d);
        } else if d.pct < -threshold_pct {
            out.improvements.push(d);
        }
    }
    out.wall = work_deltas(&baseline.wall, &current.wall);
    out
}

/// Per-counter deltas over the keys common to both sides, in the
/// baseline's order.
pub fn work_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<Delta> {
    let mut out = Vec::new();
    for (key, b) in before {
        let Some((_, a)) = after.iter().find(|(k, _)| k == key) else {
            continue;
        };
        let pct = if *b == 0 {
            if *a == 0 {
                0.0
            } else {
                100.0
            }
        } else {
            (*a as f64 - *b as f64) / (*b as f64) * 100.0
        };
        out.push(Delta {
            key: key.clone(),
            before: *b,
            after: *a,
            pct,
        });
    }
    out
}

fn report(path: &Path, baseline: &Entry, current: &Entry, v: &Verdicts, threshold: f64) {
    println!(
        "perf check: {} vs baseline {} (recorded {}): bench `{}`, threshold {threshold}%",
        path.display(),
        baseline.sha,
        baseline.recorded_unix,
        current.bench
    );
    if v.regressions.is_empty() {
        println!(
            "  work counters within threshold ({} compared)",
            work_deltas(&baseline.work, &current.work).len()
        );
    } else {
        println!("  WORK-COUNTER REGRESSIONS:");
        print_deltas(&v.regressions);
    }
    if !v.improvements.is_empty() {
        println!("  improvements (consider `perf append` to refresh the baseline):");
        print_deltas(&v.improvements);
    }
    if !v.wall.is_empty() {
        println!("  wall nanos (advisory):");
        print_deltas(&v.wall);
    }
}

/// The most recent history entry matching the artifact's bench name and
/// canonical workload.
pub fn find_baseline<'h>(history: &'h [Entry], current: &Entry) -> Option<&'h Entry> {
    history
        .iter()
        .rev()
        .find(|e| e.bench == current.bench && e.workload == current.workload)
}

// ---- input normalization ----

/// Reads an artifact or a history line from `path` through the verified
/// reader: bytes that disagree with their `.evmi` sidecar are an error,
/// and a file without a sidecar (a hand-made or edited copy) reads as is.
fn load_entry(path: &Path) -> Result<Entry, String> {
    let (bytes, _) =
        read_verified(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| JsonValue::parse(text.trim()))
        .ok_or_else(|| format!("{}: not valid JSON", path.display()))?;
    normalize(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// The newest `results/perf_history.jsonl` record schema this build
/// understands. A record stamped with a *newer* schema (written by a
/// future checkout sharing the same history file) is version skew, not
/// corruption: [`read_history`] skips it with a typed warning instead of
/// failing the gate — the same policy the artifact integrity layer
/// applies to a future journal header (DESIGN.md §14).
pub const SUPPORTED_SCHEMA: u64 = 1;

/// A parsed perf history: the entries this build can interpret, plus a
/// warning line for each newer-schema record it skipped.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Normalized entries, oldest first.
    pub entries: Vec<Entry>,
    /// One `version_skew` warning per skipped newer-schema record.
    pub skipped: Vec<String>,
}

/// Parses `results/perf_history.jsonl`: one normalized entry per
/// non-empty line. A missing file is an empty history (first run); a
/// record with a schema newer than [`SUPPORTED_SCHEMA`] is skipped and
/// reported in [`History::skipped`] rather than failing the whole read.
/// Malformed records *at a supported schema* are still hard errors —
/// that is corruption, not skew.
pub fn read_history(path: &Path) -> Result<History, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the history is a committed text file, not a checksummed artifact; every record \
                  is validated below"
    )]
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(History::default()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut out = History::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = JsonValue::parse(line)
            .ok_or_else(|| format!("{}:{}: not valid JSON", path.display(), idx + 1))?;
        let schema = doc.get("schema").and_then(JsonValue::as_u64).unwrap_or(1);
        if schema > SUPPORTED_SCHEMA {
            out.skipped.push(format!(
                "{}:{}: version_skew — record has schema {schema}, this build \
                 supports up to {SUPPORTED_SCHEMA}; skipping it (newer checkouts \
                 can still read the whole history)",
                path.display(),
                idx + 1
            ));
            continue;
        }
        out.entries
            .push(normalize(&doc).map_err(|e| format!("{}:{}: {e}", path.display(), idx + 1))?);
    }
    Ok(out)
}

/// Normalizes a bench artifact or a history line into an [`Entry`]: the
/// top-level `work` and `wall_nanos` objects are taken as-is.
pub fn normalize(doc: &JsonValue) -> Result<Entry, String> {
    let bench = doc
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string field `bench`".to_string())?
        .to_string();
    let workload = doc
        .get("workload")
        .map_or_else(|| "{}".to_string(), JsonValue::render);
    let host_parallelism = doc
        .get("host_parallelism")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let sha = doc
        .get("sha")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown")
        .to_string();
    let recorded_unix = doc
        .get("recorded_unix")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let work = doc
        .get("work")
        .and_then(JsonValue::as_obj)
        .map(counters_of)
        .ok_or_else(|| "no `work` section to read counters from".to_string())?;
    let wall = doc
        .get("wall_nanos")
        .and_then(JsonValue::as_obj)
        .map(counters_of)
        .unwrap_or_default();
    Ok(Entry {
        sha,
        recorded_unix,
        host_parallelism,
        bench,
        workload,
        work,
        wall,
    })
}

fn counters_of(pairs: &[(String, JsonValue)]) -> Vec<(String, u64)> {
    pairs
        .iter()
        .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
        .collect()
}

// ---- provenance ----

/// The current git revision (short), or `unknown` outside a repository.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(crate::workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[expect(
    clippy::disallowed_methods,
    reason = "stamps a history record with its wall-clock date; no search runs here"
)]
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn entry(bench: &str, work: &[(&str, u64)]) -> Entry {
        Entry {
            sha: "abc123".to_string(),
            recorded_unix: 1,
            host_parallelism: 8,
            bench: bench.to_string(),
            workload: "{\"seed\":11}".to_string(),
            work: work.iter().map(|(k, n)| ((*k).to_string(), *n)).collect(),
            wall: vec![("search".to_string(), 1_000_000)],
        }
    }

    #[test]
    fn a_twenty_percent_work_regression_fails_the_gate() {
        let baseline = entry(
            "profile",
            &[("search/pops", 1000), ("search/meter_ticks", 500)],
        );
        let current = entry(
            "profile",
            &[("search/pops", 1200), ("search/meter_ticks", 500)],
        );
        let v = gate(&baseline, &current, DEFAULT_THRESHOLD_PCT);
        assert_eq!(v.regressions.len(), 1, "{v:?}");
        assert_eq!(v.regressions[0].key, "search/pops");
        assert_eq!(v.regressions[0].before, 1000);
        assert_eq!(v.regressions[0].after, 1200);
        assert!((v.regressions[0].pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn check_exits_2_on_a_synthetic_plus_twenty_percent_regression() {
        // End-to-end through the `check` subcommand: a committed baseline,
        // then an artifact whose pops counter grew 20%.
        let dir = std::env::temp_dir().join(format!("xtask-perf-check-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let history = dir.join("perf_history.jsonl");
        let baseline = entry("profile", &[("search/pops", 1000)]);
        fs::write(&history, render_entry(&baseline) + "\n").unwrap();
        let artifact = dir.join("BENCH_profile.json");
        fs::write(
            &artifact,
            "{\"bench\":\"profile\",\"workload\":{\"seed\":11},\"host_parallelism\":8,\
             \"work\":{\"search/pops\":1200},\"wall_nanos\":{\"search\":999}}\n",
        )
        .unwrap();
        let args = vec![
            artifact.display().to_string(),
            "--history".to_string(),
            history.display().to_string(),
        ];
        assert_eq!(check(&args), Ok(2));
        // Within threshold (+0.5%): passes.
        fs::write(
            &artifact,
            "{\"bench\":\"profile\",\"workload\":{\"seed\":11},\"host_parallelism\":8,\
             \"work\":{\"search/pops\":1005},\"wall_nanos\":{\"search\":999}}\n",
        )
        .unwrap();
        assert_eq!(check(&args), Ok(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_artifact_that_disagrees_with_its_sidecar_fails_the_check() {
        let dir = std::env::temp_dir().join(format!("xtask-perf-corrupt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let history = dir.join("perf_history.jsonl");
        let baseline = entry("profile", &[("search/pops", 1000)]);
        fs::write(&history, render_entry(&baseline) + "\n").unwrap();
        let artifact = dir.join("BENCH_profile.json");
        let doc = "{\"bench\":\"profile\",\"workload\":{\"seed\":11},\"host_parallelism\":8,\
                   \"work\":{\"search/pops\":1000},\"wall_nanos\":{\"search\":999}}\n";
        let faults = evematch_core::fault::Faults::default();
        evematch_core::persist::atomic_write_verified(&faults, &artifact, doc.as_bytes()).unwrap();
        let args = vec![
            artifact.display().to_string(),
            "--history".to_string(),
            history.display().to_string(),
        ];
        assert_eq!(check(&args), Ok(0));
        // An in-place edit of the same length leaves the sidecar stale.
        fs::write(&artifact, doc.replace("1000", "1001")).unwrap();
        // A runtime error prints its one line, with no usage text after it.
        let err = check(&args).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(!err.contains("USAGE"), "{err}");
        let bad_threshold = [args[0].clone(), "--threshold".into(), "x".into()];
        assert!(check(&bad_threshold)
            .unwrap_err()
            .to_string()
            .contains("USAGE"));
        // The same bytes with no sidecar read as a hand-made file.
        fs::remove_file(evematch_core::persist::integrity::sidecar_path(&artifact)).unwrap();
        assert_eq!(check(&args), Ok(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_schema_history_records_warn_and_skip_instead_of_failing() {
        let dir = std::env::temp_dir().join(format!("xtask-perf-skew-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let history = dir.join("perf_history.jsonl");
        // A supported record, a future-schema record (different shape the
        // current parser could not even normalize), then another
        // supported one — only the middle record is skipped.
        let supported = render_entry(&entry("profile", &[("search/pops", 1000)]));
        fs::write(
            &history,
            format!(
                "{supported}\n{{\"schema\":9,\"bench\":\"profile\",\
                 \"counters_v9\":{{\"pops\":1}}}}\n{supported}\n"
            ),
        )
        .unwrap();
        let parsed = read_history(&history).expect("skew must not fail the read");
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.skipped.len(), 1);
        assert!(
            parsed.skipped[0].contains("version_skew"),
            "{:?}",
            parsed.skipped
        );
        assert!(
            parsed.skipped[0].contains("schema 9"),
            "{:?}",
            parsed.skipped
        );

        // A malformed record at a *supported* schema is corruption, not
        // skew: still a hard error.
        fs::write(&history, "{\"schema\":1,\"bench\":\"profile\"}\n").unwrap();
        assert!(read_history(&history).is_err());

        // End-to-end: `check` against the skewed history still gates
        // normally on the records it understands.
        fs::write(
            &history,
            format!("{supported}\n{{\"schema\":9,\"bench\":\"profile\"}}\n"),
        )
        .unwrap();
        let artifact = dir.join("BENCH_profile.json");
        fs::write(
            &artifact,
            "{\"bench\":\"profile\",\"workload\":{\"seed\":11},\"host_parallelism\":8,\
             \"work\":{\"search/pops\":1005},\"wall_nanos\":{\"search\":999}}\n",
        )
        .unwrap();
        let args = vec![
            artifact.display().to_string(),
            "--history".to_string(),
            history.display().to_string(),
        ];
        assert_eq!(check(&args), Ok(0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn within_threshold_and_improvements_pass() {
        let baseline = entry("profile", &[("search/pops", 1000), ("search/evals", 400)]);
        let current = entry("profile", &[("search/pops", 1050), ("search/evals", 200)]);
        let v = gate(&baseline, &current, DEFAULT_THRESHOLD_PCT);
        assert!(v.regressions.is_empty(), "{v:?}");
        assert_eq!(v.improvements.len(), 1);
        assert_eq!(v.improvements[0].key, "search/evals");
    }

    #[test]
    fn wall_deltas_never_gate() {
        let mut baseline = entry("profile", &[("search/pops", 1000)]);
        baseline.wall = vec![("search".to_string(), 1_000)];
        let mut current = entry("profile", &[("search/pops", 1000)]);
        current.wall = vec![("search".to_string(), 10_000)]; // 10x slower wall
        let v = gate(&baseline, &current, DEFAULT_THRESHOLD_PCT);
        assert!(v.regressions.is_empty(), "{v:?}");
        assert_eq!(v.wall.len(), 1);
    }

    #[test]
    fn new_and_removed_counters_are_ignored_by_the_gate() {
        let baseline = entry("profile", &[("search/pops", 1000), ("old/phase", 5)]);
        let current = entry("profile", &[("search/pops", 1000), ("new/phase", 9999)]);
        let v = gate(&baseline, &current, DEFAULT_THRESHOLD_PCT);
        assert!(v.regressions.is_empty(), "{v:?}");
    }

    #[test]
    fn baseline_matching_is_by_bench_and_workload_latest_wins() {
        let mut other = entry("matcher", &[("kernel/scans", 10)]);
        other.workload = "{\"seed\":11}".to_string();
        let old = entry("profile", &[("search/pops", 500)]);
        let new = entry("profile", &[("search/pops", 800)]);
        let mut different = entry("profile", &[("search/pops", 1)]);
        different.workload = "{\"seed\":99}".to_string();
        let history = vec![other, old, new, different];
        let current = entry("profile", &[("search/pops", 800)]);
        assert_eq!(find_baseline(&history, &current), Some(&history[2]));
        assert_eq!(find_baseline(&history, &current).unwrap().work[0].1, 800);
    }

    #[test]
    fn normalizes_flat_artifacts_and_rejects_workless_ones() {
        let profile = JsonValue::parse(
            "{\"bench\":\"profile\",\"workload\":{\"seed\":11},\"host_parallelism\":4,\
             \"work\":{\"search/pops\":7},\"wall_nanos\":{\"search\":123}}",
        )
        .unwrap();
        let e = normalize(&profile).unwrap();
        assert_eq!(e.bench, "profile");
        assert_eq!(e.workload, "{\"seed\":11}");
        assert_eq!(e.work, vec![("search/pops".to_string(), 7)]);
        assert_eq!(e.wall, vec![("search".to_string(), 123)]);

        let workless = JsonValue::parse(
            "{\"bench\":\"profile\",\"workload\":{\"seed\":11},\
             \"seq\":{\"wall_nanos\":50,\"log_scans\":20}}",
        )
        .unwrap();
        assert!(normalize(&workless).is_err());
    }

    #[test]
    fn history_lines_round_trip_through_render_and_normalize() {
        let e = entry("profile", &[("search/pops", 42), ("index/calls", 1)]);
        let line = render_entry(&e);
        let back = normalize(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn every_committed_history_line_round_trips_byte_for_byte() {
        let path = crate::workspace_root().join(DEFAULT_HISTORY);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines = 0;
        for (idx, line) in text.lines().enumerate() {
            let doc = JsonValue::parse(line).unwrap();
            let entry = normalize(&doc).unwrap_or_else(|e| panic!("line {}: {e}", idx + 1));
            assert_eq!(render_entry(&entry), line, "line {}", idx + 1);
            lines += 1;
        }
        assert!(lines > 0, "{} has no records", path.display());
    }

    #[test]
    fn zero_baseline_counters_do_not_divide_by_zero() {
        let d = work_deltas(
            &[("a".to_string(), 0), ("b".to_string(), 0)],
            &[("a".to_string(), 0), ("b".to_string(), 5)],
        );
        assert_eq!(d[0].pct, 0.0);
        assert_eq!(d[1].pct, 100.0);
    }
}
