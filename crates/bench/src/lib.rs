//! Shared plumbing for the `repro_*` and `bench` binaries.
//!
//! Every `repro_*` binary regenerates one table or figure of the paper's
//! Section 6: it prints the panels to stdout and writes CSV files under
//! `results/`. Knobs (all optional, read from the environment):
//!
//! * `EVEMATCH_SEEDS` — comma-separated dataset seeds (default `11,23,37`);
//! * `EVEMATCH_TRACES` — trace count for the fixed-trace figures
//!   (default 3000; lower it for a quick pass);
//! * `EVEMATCH_FIG12_TRACES` — trace count for Figure 12 (default 10000);
//! * `EVEMATCH_WORKERS` — sweep worker threads (default: all cores; use 1
//!   for the most faithful timings);
//! * `EVEMATCH_LIMIT_SECS` / `EVEMATCH_LIMIT_PROCESSED` — per-run budget
//!   applied to every method (defaults 60s / 2,000,000 mappings), after
//!   which a configuration is reported as did-not-finish — like the paper's
//!   Figure 12 beyond 20 events — alongside its degraded anytime mapping;
//! * `EVEMATCH_OUT` — output directory (default `results`);
//! * `EVEMATCH_RESUME` (or the `--resume` flag on any `repro_*` binary) —
//!   checkpoint each completed sweep job to `<out>/<figure>.journal` and
//!   replay completed jobs on rerun, so a killed reproduction resumes
//!   instead of starting over;
//! * `EVEMATCH_FAULT_SCHEDULE` / `EVEMATCH_FAULT_SEED` — the binary's
//!   deterministic fault plan (`evematch_core::fault::Faults`, built by
//!   [`faults_from_env`]) for chaos runs: it covers the grid and every
//!   artifact write, and for a figure its fault telemetry is saved as
//!   `<out>/fault_telemetry.json` so CI can assert the injected faults
//!   were actually hit and recovered. A run without a plan saves the file
//!   too when it has telemetry, such as the `integrity.*` counters of a
//!   `--resume` that quarantined journal records.
//!
//! A knob that is set but does not parse (`EVEMATCH_SEEDS=1l`,
//! `EVEMATCH_WORKERS=two`, an empty seed list) panics with the variable
//! and its value: running on the default instead would silently measure
//! something other than what was asked for.
//!
//! Every artifact is written atomically (temp file + fsync + rename, see
//! `evematch_core::persist`) and *verified*: each write also emits a
//! `.evmi` checksum sidecar (`evematch_core::persist::integrity`), which
//! `evematch verify <dir>` re-checks offline.
//! Transient write failures retry under the default backoff policy, and
//! the binaries exit with code 2 when an artifact still cannot be
//! written.

#![warn(clippy::print_stdout, clippy::print_stderr)]

use std::fmt::Display;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use evematch_core::fault::Faults;
use evematch_core::persist;
use evematch_core::retry::RetryPolicy;
use evematch_core::telemetry::json::{push_counters, push_key};
use evematch_core::Budget;
use evematch_eval::experiments::{FigureResult, SweepConfig};
use evematch_eval::Table;

/// Reads the environment variable `key` as a `T`, or `default` when it is
/// unset.
///
/// # Panics
/// When `key` is set but does not parse (see the crate docs).
pub fn env_or<T: FromStr>(key: &str, default: T) -> T
where
    T::Err: Display,
{
    knob_or(key, std::env::var(key).ok().as_deref(), default)
}

/// [`env_or`] on an explicit value (`None` = unset), so the parse policy
/// is testable without touching the process environment.
fn knob_or<T: FromStr>(key: &str, value: Option<&str>, default: T) -> T
where
    T::Err: Display,
{
    match value {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("{key}={v:?} does not parse: {e}")),
    }
}

/// Parses a comma-separated seed list such as `11,23,37`. Every entry
/// must be an unsigned integer, so an empty list, an empty entry or a
/// typo is an error rather than a silently shorter sweep.
///
/// # Errors
/// Names the first entry that does not parse.
fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    list.split(',')
        .map(|x| {
            x.trim()
                .parse()
                .map_err(|e| format!("seed {:?} does not parse: {e}", x.trim()))
        })
        .collect()
}

/// The dataset seeds from `EVEMATCH_SEEDS` (default `11,23,37`); never
/// empty.
///
/// # Panics
/// When the variable is set but is not a valid seed list.
pub fn seeds() -> Vec<u64> {
    match std::env::var("EVEMATCH_SEEDS") {
        Err(_) => vec![11, 23, 37],
        Ok(list) => parse_seeds(&list).unwrap_or_else(|e| panic!("EVEMATCH_SEEDS={list:?}: {e}")),
    }
}

/// The fault plan from `EVEMATCH_FAULT_SCHEDULE` / `EVEMATCH_FAULT_SEED`
/// (see `evematch_core::fault` for the spec grammar): armed when the
/// schedule variable is set, disarmed otherwise.
///
/// # Panics
/// On a malformed schedule spec or an unknown site: silently running
/// fault-free would make a chaos run vacuous.
pub fn faults_from_env() -> Faults {
    let Ok(spec) = std::env::var("EVEMATCH_FAULT_SCHEDULE") else {
        return Faults::default();
    };
    let seed = env_or("EVEMATCH_FAULT_SEED", 0u64);
    Faults::armed(&spec, seed)
        .unwrap_or_else(|e| panic!("EVEMATCH_FAULT_SCHEDULE={spec:?} must parse: {e}"))
}

/// The sweep configuration derived from the environment, carrying the
/// [`faults_from_env`] plan, so every figure binary honors the chaos knobs
/// without per-binary wiring.
pub fn sweep_config() -> SweepConfig {
    SweepConfig {
        seeds: seeds(),
        budget: Budget::UNLIMITED
            .with_processed_cap(env_or("EVEMATCH_LIMIT_PROCESSED", 2_000_000u64))
            .with_deadline(Duration::from_secs(env_or("EVEMATCH_LIMIT_SECS", 60u64))),
        workers: env_or(
            "EVEMATCH_WORKERS",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        ),
        traces: env_or("EVEMATCH_TRACES", 3000usize),
        checkpoint: if resume_requested() {
            out_dir().ok()
        } else {
            None
        },
        retry: RetryPolicy::io_default(),
        faults: Arc::new(faults_from_env()),
    }
}

/// Whether the invocation asked for checkpoint/resume mode: the
/// `--resume` flag on the binary, or `EVEMATCH_RESUME` set to anything
/// but `0` in the environment.
pub fn resume_requested() -> bool {
    std::env::args().any(|a| a == "--resume")
        || std::env::var("EVEMATCH_RESUME").is_ok_and(|v| v != "0")
}

/// Trace count for Figure 12.
pub fn fig12_traces() -> usize {
    env_or("EVEMATCH_FIG12_TRACES", 10_000usize)
}

/// The output directory (created on demand).
pub fn out_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(std::env::var("EVEMATCH_OUT").unwrap_or_else(|_| "results".into()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a table to `out` and saves it as `<stem>.csv` under the output
/// dir (atomically, under the run's plan `faults` — a killed run never
/// leaves a truncated CSV). The sink parameter (rather than `println!`)
/// keeps this library crate quiet on its own — the `repro_*` binaries pass
/// stdout.
pub fn emit(out: &mut dyn Write, table: &Table, stem: &str, faults: &Faults) -> io::Result<()> {
    writeln!(out, "{table}")?;
    let mut csv = Vec::new();
    table.write_csv(&mut csv)?;
    let path = out_dir()?.join(format!("{stem}.csv"));
    write_artifact(faults, &path, &csv)?;
    writeln!(out, "wrote {}", path.display())
}

/// Writes one verified artifact through the supervised retry path (site
/// `bench.artifact`, see `evematch_core::persist::write_artifact`); the
/// attempt-annotated error reaches the binary's exit-code-2 path.
///
/// # Errors
/// The write's last failure once its retries are spent.
pub fn write_artifact(faults: &Faults, path: &Path, bytes: &[u8]) -> io::Result<()> {
    persist::write_artifact(faults, "bench.artifact", path, bytes)
}

/// Writes all panels of a figure to `out` and the output dir, plus the
/// sweep's merged per-method telemetry as `<stem>_metrics.json` and the
/// merged per-method phase profiles as three views next to the CSVs:
/// `<stem>_profile.json` (full snapshot per method),
/// `<stem>_profile_trace.json` (a combined Chrome `trace_event` file,
/// one process per method — load in `chrome://tracing` / Perfetto) and
/// `<stem>_profile.folded` (method-prefixed folded stacks for flamegraph
/// tooling). Every write runs under the figure's own plan (`fig.faults`),
/// and the plan's telemetry is saved as `fault_telemetry.json` when the
/// plan is armed or noted anything (a resume's `integrity.*` quarantines
/// included).
pub fn emit_figure(out: &mut dyn Write, fig: &FigureResult, stem: &str) -> io::Result<()> {
    let faults = &fig.faults;
    emit(out, &fig.f_measure, &format!("{stem}a_fmeasure"), faults)?;
    emit(
        out,
        &fig.anytime_f,
        &format!("{stem}a_anytime_fmeasure"),
        faults,
    )?;
    emit(out, &fig.time, &format!("{stem}b_time"), faults)?;
    emit(out, &fig.processed, &format!("{stem}c_processed"), faults)?;
    for (name, render) in [
        (
            "_metrics.json",
            figure_metrics_json as fn(&FigureResult) -> String,
        ),
        ("_profile.json", figure_profile_json),
        ("_profile_trace.json", figure_profile_trace),
        ("_profile.folded", figure_profile_folded),
    ] {
        let path = out_dir()?.join(format!("{stem}{name}"));
        write_artifact(faults, &path, (render(fig) + "\n").as_bytes())?;
        writeln!(out, "wrote {}", path.display())?;
    }
    // A plain `--resume` can quarantine journal records under a disarmed
    // plan, so the file is written whenever there is telemetry to keep;
    // a fault-free run without a plan writes none.
    if faults.is_armed() || !faults.telemetry().is_empty() {
        let path = out_dir()?.join("fault_telemetry.json");
        write_artifact(
            faults,
            &path,
            (fault_telemetry_json(faults) + "\n").as_bytes(),
        )?;
        writeln!(out, "wrote {}", path.display())?;
    }
    Ok(())
}

/// A plan's fault telemetry (`fault.injected.*` / `fault.retries.*` /
/// `fault.exhausted.*` / `integrity.*`) as one flat JSON object — the
/// chaos CI job's evidence that injected faults were actually hit and
/// recovered (and corrupt records quarantined) rather than silently
/// skipped.
pub fn fault_telemetry_json(faults: &Faults) -> String {
    let mut out = String::new();
    push_counters(&mut out, faults.telemetry());
    out
}

/// The figure's merged per-method telemetry as one JSON object keyed by
/// method name. Method names are plain ASCII but are escaped anyway so the
/// output is valid JSON no matter what the registry grows.
pub fn figure_metrics_json(fig: &FigureResult) -> String {
    let mut out = String::from("{");
    for (i, (name, snap)) in fig.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(&mut out, name);
        out.push_str(&snap.to_json_string());
    }
    out.push('}');
    out
}

/// The figure's merged per-method phase profiles as one JSON object keyed
/// by method name; each value is the full snapshot (`deterministic` +
/// `non_deterministic` sections).
pub fn figure_profile_json(fig: &FigureResult) -> String {
    let mut out = String::from("{");
    for (i, (name, profile)) in fig.profiles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(&mut out, name);
        out.push_str(&profile.to_json_string());
    }
    out.push('}');
    out
}

/// The figure's merged profiles as one combined Chrome `trace_event`
/// file: one trace process per method (pid = column index + 1), so the
/// whole grid loads as a single Perfetto view.
pub fn figure_profile_trace(fig: &FigureResult) -> String {
    let mut events = Vec::new();
    for (i, (name, profile)) in fig.profiles.iter().enumerate() {
        profile.chrome_trace_events(i as u64 + 1, name, &mut events);
    }
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(ev);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// The figure's merged profiles as method-prefixed folded stacks
/// (`Method;phase;subphase self_nanos` lines) for flamegraph tooling.
pub fn figure_profile_folded(fig: &FigureResult) -> String {
    let mut out = String::new();
    for (name, profile) in &fig.profiles {
        out.push_str(&profile.to_folded(name));
    }
    // Strip the final newline: emit_figure appends exactly one.
    while out.ends_with('\n') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_lists_parse_or_name_the_bad_entry() {
        assert_eq!(parse_seeds("11,23,37"), Ok(vec![11, 23, 37]));
        assert_eq!(parse_seeds(" 5 "), Ok(vec![5]));
        for bad in ["", "1l", "11,x", "11,,23", "11,"] {
            assert!(parse_seeds(bad).is_err(), "{bad:?} must not parse");
        }
        let err = parse_seeds("11,x").unwrap_err();
        assert!(err.contains("\"x\""), "{err}");
    }

    #[test]
    fn unset_knobs_take_the_default_and_set_ones_parse() {
        assert_eq!(knob_or("EVEMATCH_WORKERS", None, 4usize), 4);
        assert_eq!(knob_or("EVEMATCH_WORKERS", Some("2"), 4usize), 2);
    }

    #[test]
    #[should_panic(expected = "EVEMATCH_WORKERS=\"two\" does not parse")]
    fn a_knob_that_does_not_parse_panics_with_its_name_and_value() {
        let _ = knob_or("EVEMATCH_WORKERS", Some("two"), 4usize);
    }
}
