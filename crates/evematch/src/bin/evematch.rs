//! `evematch` — match the event vocabularies of two heterogeneous logs.
//!
//! ```text
//! USAGE:
//!     evematch [OPTIONS] <LOG1> <LOG2>
//!     evematch verify <DIR>
//!
//! ARGS:
//!     <LOG1>  source log (its events are mapped onto LOG2's)
//!     <LOG2>  target log; must have at least as many events as LOG1
//!
//! SUBCOMMANDS:
//!     verify <DIR>           offline integrity check of an output
//!                            directory: every artifact's `.evmi` checksum
//!                            sidecar and every `*.journal`'s framed
//!                            header/record trailers are re-verified
//!                            (`core::persist::integrity`); prints a
//!                            per-file report and exits 0 when clean
//!                            (missing integrity data is a warning), 2 on
//!                            any corruption or orphaned sidecar
//!
//! OPTIONS:
//!     --method <M>           exact | simple | advanced | vertex |
//!                            vertex-edge | iterative | entropy
//!                            (default: advanced)
//!     --patterns <FILE>      declared complex patterns, one per line in the
//!                            SEQ(a, AND(b, c), d) syntax over LOG1's
//!                            vocabulary; # starts a comment
//!     --format <F>           text | csv   (default: by file extension,
//!                            falling back to text)
//!     --bound <B>            simple | tight  (default: tight)
//!     --lenient              skip malformed input lines instead of failing,
//!                            collecting them into a quarantine report that
//!                            is summarized on stderr (unless --quiet) and
//!                            merged into --metrics-out as
//!                            `ingest.quarantined.*` counters
//!     --max-events <N>       cap the event vocabulary per log
//!     --max-traces <N>       cap the trace count per log
//!     --max-trace-len <N>    cap the events per trace (over-long traces
//!                            are fatal in strict mode, quarantined with
//!                            --lenient)
//!     --max-line-bytes <N>   cap the input line length in bytes without
//!                            buffering over-long lines
//!     --limit-secs <N>       wall-clock budget in seconds (default: 60)
//!     --limit-processed <N>  processed-mapping budget (default: unlimited;
//!                            deterministic, unlike --limit-secs)
//!     --metrics-out <FILE>   write the run's telemetry snapshot as JSON:
//!                            a `deterministic` section (counters, gauges,
//!                            histograms — bit-identical across runs under
//!                            pure caps) and a `non_deterministic` section
//!                            (`info`: execution-shape facts such as
//!                            interpreter fallbacks); wall time is in
//!                            --profile-out
//!     --trace-out <FILE>     write the run's search trace as JSON Lines
//!                            (one event per line, deterministic `seq`
//!                            numbering; see `core::telemetry`)
//!     --profile-out <FILE>   write the run's hierarchical phase profile
//!                            (ingest → index → search → emit) as JSON: a
//!                            `deterministic` section (per-phase calls,
//!                            plus the solver's step count on `search`,
//!                            byte-identical across runs under pure caps)
//!                            and a `non_deterministic` section (wall
//!                            clocks); work counters are in
//!                            --metrics-out. Two sibling
//!                            views ride along: `<stem>_trace.json`
//!                            (Chrome `trace_event`, load in Perfetto) and
//!                            `<stem>.folded` (folded stacks for
//!                            flamegraph tooling). Also honoured from the
//!                            EVEMATCH_PROFILE_OUT env var
//!     --progress             print a heartbeat line to stderr about once a
//!                            second while the solver runs, naming the
//!                            innermost open profiler phase, the solver's
//!                            steps so far (`search.pops`, `km.rounds`, …)
//!                            and their rate since the previous beat
//!     --quiet                suppress the stderr summaries; stdout keeps
//!                            the mapping lines and, on degraded runs, the
//!                            machine-readable `# degraded` header, which
//!                            is always emitted
//!     --fault-schedule <S>   arm the run's deterministic fault plan with a
//!                            schedule spec (see `core::fault`; e.g.
//!                            `ingest.read=fail-transient x1`); injected
//!                            faults surface through the same typed
//!                            transient/permanent/corrupt taxonomy and
//!                            retry/error paths as real ones, and an
//!                            unknown failpoint site is a usage error
//!     --fault-seed <N>       seed for the schedule's `%permille`
//!                            probability draws (default: 0)
//! ```
//!
//! Budgets apply to every `--method`, not only the exact search. When a
//! budget trips, the degraded anytime mapping is still printed, prefixed by
//! a `# degraded (gap=…)` header line, and the exit code is 2.
//!
//! Exit codes: 0 = finished within budget; 1 = usage or input error;
//! 2 = budget exhausted (degraded mapping printed).
//!
//! Log formats: the whitespace text format (`evematch_eventlog::read_log`)
//! or `case,activity` CSV (`read_csv_log`). The mapping is printed one
//! `source<TAB>target` pair per line.
//!
//! The `--max-*` caps turn resource exhaustion on adversarial inputs into
//! ordinary input errors (exit 1) in both strict and lenient mode; the
//! `--metrics-out` and `--trace-out` artifacts are written atomically
//! (temp file + fsync + rename) and carry `.evmi` checksum sidecars
//! (`core::persist::integrity`), so a killed run never leaves a torn file
//! and `evematch verify` can prove the bytes offline.

use std::io::BufReader;
use std::process::ExitCode;
use std::time::Duration;

use evematch::prelude::*;

struct Options {
    method: String,
    patterns: Option<String>,
    format: Option<String>,
    bound: BoundKind,
    lenient: bool,
    max_events: Option<usize>,
    max_traces: Option<usize>,
    max_trace_len: Option<usize>,
    max_line_bytes: Option<usize>,
    limit_secs: u64,
    limit_processed: Option<u64>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    profile_out: Option<String>,
    progress: bool,
    quiet: bool,
    fault_schedule: Option<String>,
    fault_seed: u64,
    logs: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        method: "advanced".into(),
        patterns: None,
        format: None,
        bound: BoundKind::Tight,
        lenient: false,
        max_events: None,
        max_traces: None,
        max_trace_len: None,
        max_line_bytes: None,
        limit_secs: 60,
        limit_processed: None,
        metrics_out: None,
        trace_out: None,
        profile_out: std::env::var("EVEMATCH_PROFILE_OUT").ok(),
        progress: false,
        quiet: false,
        fault_schedule: None,
        fault_seed: 0,
        logs: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--method" => opts.method = value("--method")?,
            "--patterns" => opts.patterns = Some(value("--patterns")?),
            "--format" => opts.format = Some(value("--format")?),
            "--bound" => {
                opts.bound = match value("--bound")?.as_str() {
                    "simple" => BoundKind::Simple,
                    "tight" => BoundKind::Tight,
                    other => return Err(format!("unknown bound `{other}`")),
                }
            }
            "--lenient" => opts.lenient = true,
            "--max-events" => {
                opts.max_events = Some(
                    value("--max-events")?
                        .parse()
                        .map_err(|e| format!("--max-events: {e}"))?,
                );
            }
            "--max-traces" => {
                opts.max_traces = Some(
                    value("--max-traces")?
                        .parse()
                        .map_err(|e| format!("--max-traces: {e}"))?,
                );
            }
            "--max-trace-len" => {
                opts.max_trace_len = Some(
                    value("--max-trace-len")?
                        .parse()
                        .map_err(|e| format!("--max-trace-len: {e}"))?,
                );
            }
            "--max-line-bytes" => {
                opts.max_line_bytes = Some(
                    value("--max-line-bytes")?
                        .parse()
                        .map_err(|e| format!("--max-line-bytes: {e}"))?,
                );
            }
            "--limit-secs" => {
                opts.limit_secs = value("--limit-secs")?
                    .parse()
                    .map_err(|e| format!("--limit-secs: {e}"))?;
            }
            "--limit-processed" => {
                opts.limit_processed = Some(
                    value("--limit-processed")?
                        .parse()
                        .map_err(|e| format!("--limit-processed: {e}"))?,
                );
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--profile-out" => opts.profile_out = Some(value("--profile-out")?),
            "--progress" => opts.progress = true,
            "--quiet" => opts.quiet = true,
            "--fault-schedule" => opts.fault_schedule = Some(value("--fault-schedule")?),
            "--fault-seed" => {
                opts.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("help".into());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            path => opts.logs.push(path.to_owned()),
        }
    }
    if opts.logs.len() != 2 {
        return Err(format!("expected 2 log paths, got {}", opts.logs.len()));
    }
    Ok(opts)
}

fn ingest_options(opts: &Options) -> IngestOptions {
    let mut limits = IngestLimits::unlimited();
    if let Some(n) = opts.max_events {
        limits = limits.with_max_events(n);
    }
    if let Some(n) = opts.max_traces {
        limits = limits.with_max_traces(n);
    }
    if let Some(n) = opts.max_trace_len {
        limits = limits.with_max_trace_events(n);
    }
    if let Some(n) = opts.max_line_bytes {
        limits = limits.with_max_line_bytes(n);
    }
    let base = if opts.lenient {
        IngestOptions::lenient()
    } else {
        IngestOptions::strict()
    };
    base.with_limits(limits)
}

fn load_log(
    path: &str,
    format: Option<&str>,
    ingest: &IngestOptions,
    faults: &fault::Faults,
) -> Result<Ingest, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "user-supplied event log input, not a checksummed artifact of ours"
    )]
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    // The `ingest.read` failpoint wraps the reader here (rather than
    // inside `eventlog`, which sits below `core` in the crate DAG), so an
    // armed schedule can inject transient/corrupt read errors into
    // ingestion; when disarmed the wrapper is one `Option` check per
    // buffer refill.
    let reader = fault::FaultyRead::new(BufReader::new(file), "ingest.read", faults);
    let is_csv = match format {
        Some("csv") => true,
        Some("text") => false,
        Some(other) => return Err(format!("unknown format `{other}`")),
        None => path.ends_with(".csv"),
    };
    if is_csv {
        read_csv_log_with(reader, ingest).map_err(|e| format!("{path}: {e}"))
    } else {
        read_log_with(reader, ingest).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_patterns(path: &str, log1: &EventLog) -> Result<Vec<Pattern>, String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "user-supplied pattern file input, not a checksummed artifact of ours"
    )]
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_pattern(line, log1.events()).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Whether the run finished within budget (`false` = degraded result).
fn run(opts: &Options) -> Result<bool, String> {
    let faults = match &opts.fault_schedule {
        Some(spec) => fault::Faults::armed(spec, opts.fault_seed)
            .map_err(|e| format!("--fault-schedule: {e}"))?,
        None => fault::Faults::default(),
    };
    // The run's phase profile is three profilers merged in order: ingest
    // and index are measured here, the solver's own tree (search,
    // support-eval) follows, and emit closes the story.
    let mut profiler = PhaseProfiler::new();
    let ingest = ingest_options(opts);
    let (in1, in2) = evematch::core::phase!(profiler, "ingest", {
        let in1 = load_log(&opts.logs[0], opts.format.as_deref(), &ingest, &faults)?;
        let in2 = load_log(&opts.logs[1], opts.format.as_deref(), &ingest, &faults)?;
        (in1, in2)
    });
    if !opts.quiet {
        for (path, q) in [
            (&opts.logs[0], &in1.quarantine),
            (&opts.logs[1], &in2.quarantine),
        ] {
            if !q.is_empty() {
                eprint!("{path}: {}", q.render());
            }
        }
    }
    let (log1, log2) = (in1.log, in2.log);
    let patterns = match &opts.patterns {
        Some(path) => load_patterns(path, &log1)?,
        None => Vec::new(),
    };
    if !opts.quiet {
        eprintln!("L1: {}", log1.stats());
        eprintln!("L2: {}", log2.stats());
        eprintln!("declared patterns: {}", patterns.len());
    }

    let builder = match opts.method.as_str() {
        "vertex" => PatternSetBuilder::new().vertices(),
        "vertex-edge" | "iterative" | "entropy" => PatternSetBuilder::new().vertices().edges(),
        _ => PatternSetBuilder::new()
            .vertices()
            .edges()
            .complex_all(patterns.iter().cloned()),
    };
    let ctx = evematch::core::phase!(profiler, "index", MatchContext::new(log1, log2, builder))
        .map_err(|e| e.to_string())?;
    let mut profile = profiler.finish();
    let mut budget = Budget::UNLIMITED.with_deadline(Duration::from_secs(opts.limit_secs));
    if let Some(cap) = opts.limit_processed {
        budget = budget.with_processed_cap(cap);
    }

    // The --progress heartbeat runs only while the solver does, so the
    // beacon rides on the solver's profiler and steps alone.
    let beacon = opts
        .progress
        .then(|| std::sync::Arc::new(ProgressBeacon::new()));
    let mut config = EvalConfig::from_budget(budget);
    if let Some(b) = &beacon {
        config = config.with_beacon(b.clone());
    }

    let heartbeat = beacon
        .as_ref()
        .map(|b| Heartbeat::start(b.clone(), std::io::stderr()));
    let outcome = match opts.method.as_str() {
        "exact" | "vertex" | "vertex-edge" => {
            ExactMatcher::new(opts.bound).solve_with(&ctx, &config)
        }
        "simple" => SimpleHeuristic::new(opts.bound).solve_with(&ctx, &config),
        "advanced" => AdvancedHeuristic::new(opts.bound).solve_with(&ctx, &config),
        "iterative" => IterativeMatcher::new().solve_with(&ctx, &config),
        "entropy" => EntropyMatcher::new().solve_with(&ctx, &config),
        other => return Err(format!("unknown method `{other}`")),
    };
    drop(heartbeat);
    profile.merge(&outcome.profile);

    let mut emitter = PhaseProfiler::new();
    emitter.open("emit");
    if let Some(path) = &opts.metrics_out {
        // Fold the ingestion quarantine counts into the run's snapshot so
        // one artifact tells the whole story (merge adds counters, so the
        // two logs' counts accumulate). When a fault schedule is armed,
        // the fault telemetry rides along the same way — the evidence
        // that injected faults were hit and recovered, not skipped.
        let mut snap = outcome.metrics.clone();
        for q in [&in1.quarantine, &in2.quarantine] {
            let mut tmp = MetricsSnapshot::default();
            for (name, n) in q.counter_pairs() {
                tmp.set_counter(&name, n);
            }
            snap.merge(&tmp);
        }
        if faults.is_armed() {
            let mut tmp = MetricsSnapshot::default();
            for (name, n) in faults.telemetry() {
                tmp.set_counter(&name, n);
            }
            snap.merge(&tmp);
        }
        write_artifact(&faults, path, (snap.to_json_string() + "\n").as_bytes())?;
    }
    if let Some(path) = &opts.trace_out {
        let mut jsonl = Vec::new();
        outcome
            .trace
            .write_jsonl(&mut jsonl)
            .map_err(|e| format!("{path}: {e}"))?;
        write_artifact(&faults, path, &jsonl)?;
    }

    if let Some(gap) = outcome.completion.optimality_gap() {
        // Mark anytime output machine-readably before the mapping pairs.
        println!("# degraded (gap={gap:.6})");
    }
    let (names1, names2) = (ctx.log1().events(), ctx.log2().events());
    for (a, b) in outcome.mapping.pairs() {
        println!("{}\t{}", names1.name(a), names2.name(b));
    }
    profile.merge(&emitter.finish());

    if let Some(path) = &opts.profile_out {
        // The profile's own serialization cannot profile itself — the
        // emit phase above covers the other artifacts and the mapping.
        write_artifact(&faults, path, (profile.to_json_string() + "\n").as_bytes())?;
        let stem = path.strip_suffix(".json").unwrap_or(path);
        write_artifact(
            &faults,
            &format!("{stem}_trace.json"),
            (profile.to_chrome_trace() + "\n").as_bytes(),
        )?;
        write_artifact(
            &faults,
            &format!("{stem}.folded"),
            profile.to_folded("").as_bytes(),
        )?;
    }

    if !opts.quiet {
        eprintln!(
            "pattern normal distance {:.4}; {} mappings processed in {:.2?}",
            outcome.score,
            outcome.processed(),
            outcome.profile.wall()
        );
    }
    Ok(outcome.completion.is_finished())
}

/// Writes one verified CLI artifact through the supervised retry path
/// (site `cli.artifact`); the attempt-annotated error reaches the exit-1
/// path.
fn write_artifact(faults: &fault::Faults, path: &str, bytes: &[u8]) -> Result<(), String> {
    persist::write_artifact(faults, "cli.artifact", path, bytes).map_err(|e| format!("{path}: {e}"))
}

/// A heartbeat line written about once a second while the solver runs
/// (`--progress`, to stderr): the innermost open profiler phase and the
/// solver's step count from the attached [`ProgressBeacon`], plus the step
/// rate since the previous beat.
/// Dropping it stops the thread; the 200 ms poll keeps the drop latency
/// low without spamming stderr.
struct Heartbeat {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(
        beacon: std::sync::Arc<ProgressBeacon>,
        mut out: impl std::io::Write + Send + 'static,
    ) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "stderr heartbeat only; never touches solver state, and its clock reads only \
                      pace and label its lines"
        )]
        let handle = std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let mut polls = 0u64;
            let mut last_steps = 0u64;
            let mut last_t = started;
            // ordering: Relaxed — a one-way stop flag for a progress
            // printer; observing it one 200 ms poll late only costs one
            // extra heartbeat line, and no other state rides on it.
            while !seen.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200));
                polls += 1;
                if polls % 5 == 0 && !seen.load(Ordering::Relaxed) {
                    let (path, steps) = beacon.snapshot();
                    let dt = last_t.elapsed().as_secs_f64().max(1e-9);
                    let rate = (steps.saturating_sub(last_steps)) as f64 / dt;
                    last_steps = steps;
                    last_t = std::time::Instant::now();
                    let phase = if path.is_empty() { "idle" } else { &path };
                    // A lost progress line is not worth failing the run.
                    let _ = writeln!(
                        out,
                        "evematch: [{phase}] {steps} steps ({rate:.0}/s, {:.1}s elapsed)",
                        started.elapsed().as_secs_f64()
                    );
                }
            }
        });
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        // ordering: Relaxed — see the reader's justification above; the
        // join right below is the real synchronization with the thread.
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Exit code for a budget-exhausted (but still answered) run.
const EXIT_DEGRADED: u8 = 2;

/// `evematch verify <dir>` — the offline integrity walk (see the module
/// docs). Exit 0 = clean (warnings allowed), 2 = corruption found,
/// 1 = usage/io error.
fn run_verify(dir: Option<String>) -> ExitCode {
    let Some(dir) = dir else {
        eprintln!("usage: evematch verify <DIR>");
        return ExitCode::FAILURE;
    };
    match persist::integrity::verify_dir(std::path::Path::new(&dir)) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_DEGRADED)
            }
        }
        Err(e) => {
            eprintln!("error: cannot read {dir}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    // Subcommands are dispatched before option parsing: `verify` cannot
    // collide with a log path because the matcher form needs exactly two
    // paths and `verify` takes exactly one directory.
    if std::env::args().nth(1).as_deref() == Some("verify") {
        return run_verify(std::env::args().nth(2));
    }
    match parse_args() {
        Ok(opts) => match run(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(EXIT_DEGRADED),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: evematch [--method exact|simple|advanced|vertex|vertex-edge|iterative|entropy] \
                 [--patterns FILE] [--format text|csv] [--bound simple|tight] \
                 [--lenient] [--max-events N] [--max-traces N] [--max-trace-len N] \
                 [--max-line-bytes N] [--limit-secs N] [--limit-processed N] \
                 [--metrics-out FILE] [--trace-out FILE] [--profile-out FILE] \
                 [--progress] [--quiet] \
                 [--fault-schedule SPEC] [--fault-seed N] LOG1 LOG2\n       \
                 evematch verify DIR"
            );
            if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A writer whose bytes the test can read after the thread is done.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    /// The first beat, about a second in, reports the beacon's open phase
    /// and the solver's step count in the documented form; the heartbeat
    /// is stopped 0.1 s later, before a second beat.
    #[test]
    fn heartbeat_writes_one_line_per_second_with_phase_and_steps() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        let set = PatternSetBuilder::new().vertices().edges();
        let ctx = MatchContext::new(b1.build(), b2.build(), set).unwrap();
        let beacon = Arc::new(ProgressBeacon::new());
        let config = EvalConfig::from_budget(Budget::UNLIMITED).with_beacon(beacon.clone());
        let outcome = SimpleHeuristic::new(BoundKind::Tight).solve_with(&ctx, &config);
        let steps = outcome.metrics.counters["search.levels"];
        assert_eq!(steps, 3);
        let mut phases = PhaseProfiler::new();
        phases.attach_beacon(beacon.clone());
        phases.open("emit");

        let out = Shared::default();
        let heartbeat = Heartbeat::start(beacon, out.clone());
        // Poll for the first complete line (the beat lands about a second
        // in), then stop the heartbeat 0.1 s later.
        for _ in 0..1000 {
            if out.text().contains('\n') {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(100));
        drop(heartbeat);

        let text = out.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "exactly one beat: {text:?}");
        let rest = lines[0]
            .strip_prefix(&format!("evematch: [emit] {steps} steps ("))
            .unwrap_or_else(|| panic!("unexpected line {:?}", lines[0]));
        let (rate, elapsed) = rest.split_once("/s, ").unwrap();
        assert!(rate.parse::<u64>().is_ok(), "rate {rate:?}");
        let secs = elapsed.strip_suffix("s elapsed)").unwrap();
        let (whole, tenths) = secs.split_once('.').unwrap();
        assert!(
            whole.parse::<u64>().is_ok() && tenths.len() == 1,
            "elapsed {secs:?}"
        );
        phases.close_all();
    }
}
