//! ALICE-style crash-consistency explorer for the persistence layer
//! (DESIGN.md §14).
//!
//! The explorer runs a small checkpointed experiment grid with
//! [`iotrace`] recording every durable-state transition the persistence
//! primitives perform (temp-file creation, content writes, fsyncs,
//! renames, directory fsyncs, journal appends). It then simulates a crash
//! at *every* point of that trace: each prefix of the op list — plus a
//! torn variant of each content-carrying final op — is replayed literally
//! into a fresh sandbox directory, recovery is run (the same grid,
//! resuming from whatever survived), and the recovery invariant is
//! asserted:
//!
//! 1. the deterministic result panels are byte-identical to the
//!    crash-free run, and
//! 2. an offline [`integrity::verify_dir`] walk over the sandbox finds
//!    no corrupt or missing artifact (torn journal tails, sealed
//!    fragments, and missing sidecars are tolerated warnings — recovery
//!    is allowed to leave evidence, never wrong data).
//!
//! [`buggy_recovery_self_test`] proves the explorer has teeth: it hands a
//! journal with a checksum-stale (but JSON-valid) record to a
//! *deliberately naive* recovery (`verify_journal = false`, the one
//! sanctioned use of that knob) and requires the resulting divergence to
//! be visible — if the naive replay ever produced clean panels, the
//! checker could no longer catch the class of bug it guards against.
//!
//! The explorer exercises the real persistence code on a real
//! filesystem. The [`iotrace`] recorder is process-global, so
//! callers (tests, the `crashcheck` binary) must not run two traced
//! explorations concurrently.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use evematch_core::persist::iotrace::{self, IoOp};
use evematch_core::persist::{self, integrity};
use evematch_core::retry::RetryPolicy;
use evematch_core::Budget;
use evematch_datagen::datasets;
use evematch_eval::experiments::{run_grid, SweepConfig};
use evematch_eval::{project_dataset, Method, Table};

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct CrashConfig {
    /// Trace count per side for the generated dataset (small keeps every
    /// recovery run cheap; the op trace shape does not depend on it).
    pub traces: usize,
    /// Cap on the number of crash scenarios explored. `None` explores
    /// every prefix and torn variant; with a cap the scenario list is
    /// sampled at an even stride (first and last always kept) and the
    /// report records how many were dropped — a bounded run never
    /// silently claims full coverage.
    pub max_scenarios: Option<usize>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            traces: 12,
            max_scenarios: None,
        }
    }
}

impl CrashConfig {
    /// Reads `EVEMATCH_CRASH_TRACES` (default 12) and
    /// `EVEMATCH_CRASH_MAX_OPS` (default uncapped) from the environment.
    ///
    /// # Panics
    /// When a variable is set but is not an unsigned integer (say `12k`):
    /// running the default instead would silently shrink the exploration.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_vars(|key| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`Self::from_env`] over an injected variable lookup (`None` =
    /// unset), so the parse policy is testable without the process
    /// environment.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let knob = |key: &str| {
            let value = var(key)?;
            match value.trim().parse::<usize>() {
                Ok(n) => Some(n),
                Err(e) => panic!("{key}={value:?} is not an unsigned integer: {e}"),
            }
        };
        let default = Self::default();
        CrashConfig {
            traces: knob("EVEMATCH_CRASH_TRACES").unwrap_or(default.traces),
            max_scenarios: knob("EVEMATCH_CRASH_MAX_OPS").or(default.max_scenarios),
        }
    }
}

/// One simulated crash point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Crash {
    /// The first `n` ops became durable, then the process died.
    AfterPrefix(usize),
    /// Ops `..n` became durable and op `n` tore mid-write (half its
    /// bytes reached the disk).
    TornAt(usize),
}

impl Crash {
    fn describe(self, ops: &[IoOp]) -> String {
        match self {
            Crash::AfterPrefix(0) => "crash before any op".to_string(),
            Crash::AfterPrefix(n) => {
                format!("crash after op {} ({})", n - 1, ops[n - 1].describe())
            }
            Crash::TornAt(n) => format!("crash tearing op {} ({})", n, ops[n].describe()),
        }
    }
}

/// The explorer's verdict: the recorded trace, the scenario coverage,
/// and every invariant violation found.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Human-readable description of each recorded op, in order.
    pub trace: Vec<String>,
    /// Crash scenarios actually replayed.
    pub explored: usize,
    /// Total scenarios the trace admits (== `explored` unless
    /// [`CrashConfig::max_scenarios`] sampled the list down).
    pub total: usize,
    /// Evidence lines, one per failed scenario (empty = invariant held
    /// at every explored crash point).
    pub failures: Vec<String>,
}

impl CrashReport {
    /// Whether every explored crash point recovered cleanly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Multi-line summary for logs and CI output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "crash-consistency: {} ops traced, {}/{} scenarios explored, {} failure(s)\n",
            self.trace.len(),
            self.explored,
            self.total,
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str("FAIL ");
            out.push_str(f);
            out.push('\n');
        }
        out
    }
}

/// Outcome of [`buggy_recovery_self_test`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelfTestOutcome {
    /// The deliberately naive (unverified) replay of a checksum-stale
    /// journal produced divergent panels — i.e. the checker *can* see
    /// the corruption a buggy recovery lets through. Must be `true`.
    pub naive_divergence_caught: bool,
    /// The real (verified) recovery quarantined the stale record and
    /// reproduced the reference panels byte-identically. Must be `true`.
    pub verified_recovery_clean: bool,
}

/// The deterministic panels of the explorer's grid (wall-clock time
/// excluded: it can never be byte-stable across runs).
type Panels = [String; 3];

fn csv(table: &Table) -> io::Result<String> {
    let mut buf = Vec::new();
    table.write_csv(&mut buf)?;
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Runs the explorer's fixed grid rooted at `root` (checkpoint journal
/// under `root/ckpt`, verified F-measure CSV at `root/fmeasure.csv`) and
/// returns the deterministic panels.
fn run_once(root: &Path, traces: usize, verify_journal: bool) -> io::Result<Panels> {
    let cfg = SweepConfig {
        seeds: vec![11],
        budget: Budget::UNLIMITED.with_processed_cap(60_000),
        workers: 1,
        traces,
        checkpoint: Some(root.join("ckpt")),
        retry: RetryPolicy::no_retries(),
        verify_journal,
    };
    let fig = run_grid(
        "CrashT",
        "#events",
        &[2, 3],
        &[Method::Vertex],
        &cfg,
        |x, seed| project_dataset(&datasets::real_like_sized(traces, traces, seed), x),
    );
    let f_measure = csv(&fig.f_measure)?;
    persist::atomic_write_verified(root.join("fmeasure.csv"), f_measure.as_bytes())?;
    Ok([f_measure, csv(&fig.anytime_f)?, csv(&fig.processed)?])
}

/// Rebases `path` from the reference root into the sandbox root; paths
/// outside the reference root (none are expected) pass through.
fn rebase(path: &Path, src_root: &Path, dst_root: &Path) -> PathBuf {
    path.strip_prefix(src_root)
        .map_or_else(|_| path.to_path_buf(), |rel| dst_root.join(rel))
}

/// Applies one recorded op into the sandbox. `torn` halves the bytes of
/// a content-carrying op (the worst partial state a single buffered
/// write admits); fsyncs are no-ops during replay because the trace
/// already reflects write order and a crash simply discards everything
/// after the crash point.
fn apply(op: &IoOp, src_root: &Path, dst_root: &Path, torn: bool) -> io::Result<()> {
    match op {
        IoOp::CreateTemp { path } => fs::write(rebase(path, src_root, dst_root), b"")?,
        IoOp::WriteFile { path, bytes } => {
            let n = if torn { bytes.len() / 2 } else { bytes.len() };
            fs::write(rebase(path, src_root, dst_root), &bytes[..n])?;
        }
        IoOp::Rename { from, to } => {
            let from = rebase(from, src_root, dst_root);
            if from.exists() {
                fs::rename(from, rebase(to, src_root, dst_root))?;
            }
        }
        IoOp::Append { path, bytes } => {
            let n = if torn { bytes.len() / 2 } else { bytes.len() };
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(rebase(path, src_root, dst_root))?;
            f.write_all(&bytes[..n])?;
        }
        IoOp::Fsync { .. } | IoOp::FsyncDir { .. } | IoOp::AppendFsync { .. } => {}
    }
    Ok(())
}

/// Whether a torn variant of this op is meaningful: it carries content
/// and has at least two bytes to halve.
fn tearable(op: &IoOp) -> bool {
    matches!(op, IoOp::WriteFile { bytes, .. } | IoOp::Append { bytes, .. } if bytes.len() >= 2)
}

/// Samples `all` down to at most `cap` elements at an even stride,
/// always keeping the first and last (the empty-disk and
/// fully-persisted crash points anchor the sweep).
fn sample(all: Vec<Crash>, cap: Option<usize>) -> Vec<Crash> {
    let Some(cap) = cap else { return all };
    if cap == 0 || all.len() <= cap {
        return all;
    }
    let last = all.len() - 1;
    let mut picked: Vec<Crash> = (0..cap.saturating_sub(1))
        .map(|i| all[i * last / cap.saturating_sub(1).max(1)])
        .collect();
    picked.push(all[last]);
    picked.dedup();
    picked
}

/// Verifies one sandbox directory (and its `ckpt` subdirectory) after
/// recovery, returning an evidence string on failure.
fn verify_sandbox(sbx: &Path) -> io::Result<Option<String>> {
    for dir in [sbx.to_path_buf(), sbx.join("ckpt")] {
        if !dir.is_dir() {
            continue;
        }
        let report = integrity::verify_dir(&dir)?;
        if !report.is_clean() {
            return Ok(Some(format!(
                "post-recovery verify of {} found corruption:\n{}",
                dir.display(),
                report.render()
            )));
        }
    }
    Ok(None)
}

/// Records the reference run's op trace and explores every crash point.
///
/// On a clean result the scratch directory is removed; on failure it is
/// kept (failed sandboxes included) and its path appears in the
/// evidence, so CI can upload it.
///
/// # Errors
///
/// Propagates filesystem errors from the harness itself (sandbox setup,
/// panel serialization) — never from a simulated crash state, which is
/// the thing under test.
pub fn explore(cfg: &CrashConfig) -> io::Result<CrashReport> {
    let work = std::env::temp_dir().join(format!("evematch-crashck-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    let ref_root = work.join("ref");
    fs::create_dir_all(ref_root.join("ckpt"))?;

    // Crash-free reference run, traced. The recorder is process-global:
    // the root filter keeps unrelated writes out, but two traced
    // explorations must not overlap (callers serialize).
    iotrace::start_under(&ref_root);
    let reference = run_once(&ref_root, cfg.traces, true);
    let ops = iotrace::stop();
    let reference = reference?;

    let mut all: Vec<Crash> = (0..=ops.len()).map(Crash::AfterPrefix).collect();
    for (k, op) in ops.iter().enumerate() {
        if tearable(op) {
            all.push(Crash::TornAt(k));
        }
    }
    let total = all.len();
    let scenarios = sample(all, cfg.max_scenarios);

    let mut failures = Vec::new();
    for (i, &crash) in scenarios.iter().enumerate() {
        let sbx = work.join(format!("sbx{i}"));
        fs::create_dir_all(sbx.join("ckpt"))?;
        let prefix = match crash {
            Crash::AfterPrefix(n) => n,
            Crash::TornAt(n) => n,
        };
        for op in &ops[..prefix] {
            apply(op, &ref_root, &sbx, false)?;
        }
        if let Crash::TornAt(n) = crash {
            apply(&ops[n], &ref_root, &sbx, true)?;
        }

        let evidence: Option<String> = match run_once(&sbx, cfg.traces, true) {
            Ok(panels) if panels != reference => {
                Some("recovered panels diverge from the crash-free run".to_string())
            }
            Ok(_) => verify_sandbox(&sbx)?,
            Err(e) => Some(format!("recovery errored: {e}")),
        };
        match evidence {
            Some(why) => failures.push(format!(
                "{}: {} (sandbox kept at {})",
                crash.describe(&ops),
                why,
                sbx.display()
            )),
            None => {
                let _ = fs::remove_dir_all(&sbx);
            }
        }
    }

    if failures.is_empty() {
        let _ = fs::remove_dir_all(&work);
    }
    Ok(CrashReport {
        trace: ops.iter().map(IoOp::describe).collect(),
        explored: scenarios.len(),
        total,
        failures,
    })
}

/// Recursively copies `src` into `dst` (used to fan a corrupted state
/// out to independent recovery sandboxes).
fn copy_tree(src: &Path, dst: &Path) -> io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// Bumps the first digit of the first `"proc":` value in the journal
/// text: the record stays valid JSON but its checksum trailer goes
/// stale — exactly the corruption a bit flip (or a buggy writer)
/// produces. Returns `None` if no such field exists.
fn flip_proc_digit(text: &str) -> Option<String> {
    let at = text.find("\"proc\":")? + "\"proc\":".len();
    let d = *text.as_bytes().get(at)?;
    if !d.is_ascii_digit() {
        return None;
    }
    let mut bytes = text.as_bytes().to_vec();
    bytes[at] = if d == b'9' { b'0' } else { d + 1 };
    String::from_utf8(bytes).ok()
}

/// Proves the explorer can catch a buggy recovery: a checksum-stale
/// journal record must make naive (unverified) replay visibly diverge,
/// while the real verified recovery quarantines it and reproduces the
/// reference byte-for-byte.
///
/// # Errors
///
/// Propagates harness filesystem errors, and reports `InvalidData` if
/// the journal unexpectedly carries no `"proc"` field to corrupt.
pub fn buggy_recovery_self_test(traces: usize) -> io::Result<SelfTestOutcome> {
    let work = std::env::temp_dir().join(format!("evematch-crashst-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    let ref_root = work.join("ref");
    fs::create_dir_all(ref_root.join("ckpt"))?;
    let reference = run_once(&ref_root, traces, true)?;

    let journal_rel = Path::new("ckpt").join("CrashT.journal");
    let pristine = fs::read_to_string(ref_root.join(&journal_rel))?;
    let corrupted = flip_proc_digit(&pristine).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "journal has no \"proc\" field to corrupt",
        )
    })?;

    let mut panels = Vec::new();
    for (name, verify) in [("naive", false), ("verified", true)] {
        let root = work.join(name);
        copy_tree(&ref_root, &root)?;
        fs::write(root.join(&journal_rel), &corrupted)?;
        panels.push(run_once(&root, traces, verify)?);
    }
    let outcome = SelfTestOutcome {
        naive_divergence_caught: panels[0] != reference,
        verified_recovery_clean: panels[1] == reference,
    };
    if outcome.naive_divergence_caught && outcome.verified_recovery_clean {
        let _ = fs::remove_dir_all(&work);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`CrashConfig::from_vars`] lookup over `(key, value)` pairs.
    fn vars<'a>(set: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            set.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_owned())
        }
    }

    #[test]
    fn knobs_from_vars_parse_and_unset_ones_keep_their_defaults() {
        let unset = CrashConfig::from_vars(vars(&[]));
        assert_eq!((unset.traces, unset.max_scenarios), (12, None));
        let set = CrashConfig::from_vars(vars(&[
            ("EVEMATCH_CRASH_TRACES", "36"),
            ("EVEMATCH_CRASH_MAX_OPS", " 200 "),
        ]));
        assert_eq!((set.traces, set.max_scenarios), (36, Some(200)));
    }

    #[test]
    fn a_malformed_knob_panics_with_its_name_and_value() {
        for key in ["EVEMATCH_CRASH_TRACES", "EVEMATCH_CRASH_MAX_OPS"] {
            for bad in ["12k", "", "-1", "1.5"] {
                let set = [(key, bad)];
                let err = std::panic::catch_unwind(|| CrashConfig::from_vars(vars(&set)))
                    .expect_err("a malformed knob must panic");
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    msg.contains(&format!("{key}={bad:?}")),
                    "{key}={bad:?}: {msg}"
                );
            }
        }
    }

    /// One test fn: the iotrace recorder is process-global, so the
    /// traced exploration and the (untraced) self-test are serialized
    /// here rather than racing as separate tests.
    #[test]
    fn every_crash_point_recovers_and_the_checker_has_teeth() {
        let cfg = CrashConfig::default();
        let report = explore(&cfg).expect("explorer harness must not error");
        assert!(
            report.trace.len() >= 15,
            "the traced run should hit the journal header write, two \
             appends, and the verified CSV write: got {} ops:\n{}",
            report.trace.len(),
            report.trace.join("\n")
        );
        assert_eq!(report.explored, report.total, "uncapped run explores all");
        assert!(report.is_clean(), "{}", report.render());

        // Sampling keeps the bounds honest: first and last crash points
        // survive and the report still records total coverage.
        let capped = sample((0..=10).map(Crash::AfterPrefix).collect(), Some(4));
        assert!(capped.len() <= 4);
        assert_eq!(capped.first(), Some(&Crash::AfterPrefix(0)));
        assert_eq!(capped.last(), Some(&Crash::AfterPrefix(10)));

        let outcome = buggy_recovery_self_test(cfg.traces).expect("self-test harness");
        assert!(
            outcome.naive_divergence_caught,
            "naive replay of a checksum-stale record must diverge — \
             otherwise the checker cannot catch a buggy recovery"
        );
        assert!(
            outcome.verified_recovery_clean,
            "verified recovery must quarantine the stale record and \
             reproduce the reference panels byte-identically"
        );
    }
}
