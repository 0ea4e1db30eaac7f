//! `bench` — benchmark subcommands emitting machine-readable `BENCH_*.json`
//! evidence under the output directory.
//!
//! Usage:
//!
//! ```text
//! bench profile
//! bench matcher
//! ```
//!
//! The offline integrity walk of an output directory is `evematch verify
//! DIR`.
//!
//! ## `bench profile`
//!
//! Runs the hierarchical phase profiler over a scan-heavy exact-search
//! workload (Pattern-Tight on the 20-event, most composite-heavy
//! configuration) under a *pure-cap* budget (processed-mapping cap only,
//! no wall-clock deadline, so the deterministic section is bit-stable
//! across hosts and reruns) and emits `BENCH_profile.json` in the shape
//! `xtask perf append` ingests:
//!
//! * `work` — the run's deterministic counts, identical on every host:
//!   the profile's per-phase `calls` and `pops` (`"<phase-path>/calls"`,
//!   `"<phase-path>/pops"`) and every registry counter of the run
//!   (`"registry:<counter>"`: greedy candidates, cache hits and misses,
//!   fuel, …). A registry key holds no `/`, so no phase path can take
//!   it. The perf-trajectory gate (`cargo xtask perf check`) alerts on
//!   regressions in these;
//! * `wall_nanos` — the flattened per-phase wall clocks, advisory only
//!   (host-dependent).
//!
//! Knobs: `EVEMATCH_BENCH_MODULES` (process-model modules, default 2 —
//! 20 events), `EVEMATCH_TRACES` (default 3000), `EVEMATCH_SEEDS` (first
//! seed used, default 11), `EVEMATCH_LIMIT_PROCESSED` (processed-mapping
//! cap keeping the exact search bounded, default 20,000). The artifact
//! records `host_parallelism` next to the walls.
//!
//! ## `bench matcher`
//!
//! Times the support kernel — the one scan (`EvaluatedPattern::scan`,
//! the path `MatchContext` and the evaluator run) — against the
//! interpreter oracle (`pattern_support` on the mapped pattern) and emits
//! `BENCH_matcher.json` in the shape `xtask perf append` ingests. Every
//! complex pattern of the Figure-12 dataset is support-scanned in `L2`
//! under rotated injective bindings:
//!
//! * first, untimed, the scan must equal the oracle on every binding —
//!   any mismatch prints the pattern and binding and exits with code 3;
//! * then the timed oracle and scan passes; the headline `speedup` is
//!   oracle-wall over scan-wall across the whole scan set;
//! * `work` — the deterministic kernel counters (scans, total support and
//!   the scan's `SupportStats`), which `cargo xtask perf check` gates like
//!   every other bench; the walls ride along as advisory `wall_nanos`.
//!
//! Knobs: `EVEMATCH_TRACES` (trace count, default 3000),
//! `EVEMATCH_BENCH_MODULES`, `EVEMATCH_SEEDS` (first seed used),
//! `EVEMATCH_BENCH_ITERS` (kernel repetitions, default 3).
//!
//! Both artifacts are written like every `repro_*` artifact: verified,
//! with transient failures retried under site `bench.artifact`. Exits
//! with code 2 if the artifact still cannot be written.

use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

use evematch_bench::env_or;
use evematch_core::fault::Faults;
use evematch_core::telemetry::json::push_counters;
use evematch_core::{Budget, Mapping};
use evematch_datagen::datasets;
use evematch_eval::Method;
use evematch_eventlog::EventId;
use evematch_pattern::{pattern_support, EvaluatedPattern, SupportStats};

fn run_profile() -> ExitCode {
    let seed = evematch_bench::seeds()[0];
    let traces = env_or("EVEMATCH_TRACES", 3000usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let cap = env_or("EVEMATCH_LIMIT_PROCESSED", 20_000u64);
    // Pure cap — a wall-clock deadline would make the charged work
    // host-dependent and the perf gate's counters noisy.
    let budget = Budget::UNLIMITED.with_processed_cap(cap);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ds = datasets::larger_synthetic(modules, traces, seed);
    let method = Method::PatternTight;

    println!(
        "bench profile: {} on larger_synthetic({modules}, {traces}, seed {seed}), \
         cap {cap} (pure), host parallelism {host}",
        method.name()
    );

    let out = method.run(&ds.pair, &ds.patterns, budget);
    // Advisory: the perf gate compares work counters only.
    println!("  run {:.3}s", out.profile.wall().as_secs_f64());
    let profile = &out.profile;

    let head = format!(
        "\"workload\":{{\"dataset\":\"larger_synthetic\",\"modules\":{modules},\
         \"traces\":{traces},\"seed\":{seed},\"method\":\"{}\",\"processed_cap\":{cap}}},\
         \"host_parallelism\":{host}",
        method.name()
    );
    let mut work = profile.flat_work();
    for (name, &n) in &out.metrics.counters {
        work.insert(format!("registry:{name}"), n);
    }
    write_bench("profile", &head, work, profile.flat_wall())
}

/// Writes `BENCH_<bench>.json` in the flat shape `xtask perf` ingests —
/// `{"bench":…,<head>,"work":{…},"wall_nanos":{…}}` — as a verified
/// artifact under the output directory. Exit code 2 when it cannot be
/// written.
fn write_bench<K: AsRef<str>, W: Display, N: Display>(
    bench: &str,
    head: &str,
    work: impl IntoIterator<Item = (K, W)>,
    wall_nanos: impl IntoIterator<Item = (K, N)>,
) -> ExitCode {
    let mut json = format!("{{\"bench\":\"{bench}\",{head},\"work\":");
    push_counters(&mut json, work);
    json.push_str(",\"wall_nanos\":");
    push_counters(&mut json, wall_nanos);
    json.push_str("}\n");

    let path = match evematch_bench::out_dir() {
        Ok(dir) => dir.join(format!("BENCH_{bench}.json")),
        Err(err) => {
            eprintln!("error: cannot create output dir: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = evematch_bench::write_artifact(&Faults::default(), &path, json.as_bytes()) {
        eprintln!("error: failed to write {}: {err}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// One timed pass over the kernel scan set: total support (the
/// equality witness) plus the wall clock.
struct KernelPass {
    total_support: u64,
    wall_nanos: u128,
}

/// All injective bindings the kernel panel scans: for each complex
/// pattern, `rotations` rotations of its ground-truth binding over `V2`.
/// Rotation 0 is the truth — the co-occurrence-heavy case with full
/// candidate lists and real matches — and the rest exercise sparse and
/// out-of-pattern bindings. Rotating distinct indices mod `|V2|` keeps
/// every binding injective.
fn kernel_bindings(
    patterns: &[evematch_pattern::Pattern],
    truth: &Mapping,
    n2: u32,
    rotations: u32,
) -> Vec<(usize, Vec<EventId>)> {
    let mut out = Vec::new();
    for (pi, p) in patterns.iter().enumerate() {
        let evs = p.events();
        for r in 0..rotations {
            let images: Vec<EventId> = evs
                .iter()
                .map(|e| {
                    let base = truth.get(*e).expect("ground truth is complete");
                    EventId((base.index() as u32 + r) % n2)
                })
                .collect();
            out.push((pi, images));
        }
    }
    out
}

fn run_matcher() -> ExitCode {
    let seed = evematch_bench::seeds()[0];
    let kernel_traces = env_or("EVEMATCH_TRACES", 3000usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let iters = env_or("EVEMATCH_BENCH_ITERS", 3u32);
    let rotations = 8u32;
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ds = datasets::larger_synthetic(modules, kernel_traces, seed);
    let log2 = &ds.pair.log2;
    let idx = log2.trace_index();
    let n2 = log2.event_count() as u32;
    println!(
        "bench matcher: {} complex patterns on larger_synthetic({modules}, {kernel_traces}, \
         seed {seed}), {rotations} bindings each, {iters} iters (host parallelism {host})",
        ds.patterns.len()
    );

    let idx1 = ds.pair.log1.trace_index();
    let evaluated: Vec<EvaluatedPattern> = ds
        .patterns
        .iter()
        .map(|p| EvaluatedPattern::new(p.clone(), &ds.pair.log1, &idx1))
        .collect();
    let mut fallbacks = 0u64;
    for ep in &evaluated {
        if let Err(err) = &ep.compiled {
            // Typed, counted, never silent — the same contract the
            // evaluator's `matcher.fallback.*` info facts enforce.
            println!("  fallback to interpreter: {err}");
            fallbacks += 1;
        }
    }
    let bindings = kernel_bindings(&ds.patterns, &ds.pair.truth, n2, rotations);
    // The oracle pays `map_events` per scan and the scan its dense
    // reverse lookup — what the evaluator's cache-miss path pays.
    let oracle = |pi: usize, images: &[EventId]| {
        let p = &ds.patterns[pi];
        let evs = p.events();
        let mapped = p.map_events(&|e| images[evs.binary_search(&e).expect("own event")]);
        pattern_support(&mapped, log2, &idx)
    };
    let scan = |pi: usize, images: &[EventId], stats: &mut SupportStats| {
        evaluated[pi]
            .scan(images, &idx, log2.columns(), &mut || true, stats)
            .expect("unfueled scans complete")
    };

    // Correctness first (untimed): every binding's support must agree.
    let mut kernel_stats = SupportStats::default();
    for (pi, images) in &bindings {
        let (want, got) = (oracle(*pi, images), scan(*pi, images, &mut kernel_stats));
        if want != got {
            eprintln!(
                "error: scan diverged from the oracle on pattern #{pi} {:?} under {images:?}: \
                 oracle {want} vs scan {got}",
                ds.patterns[*pi]
            );
            return ExitCode::from(3);
        }
    }

    let kernel_pass = |support: &dyn Fn(usize, &[EventId]) -> usize| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the kernel timing is advisory; the perf gate compares work counters only"
        )]
        let start = Instant::now();
        let mut total = 0u64;
        for _ in 0..iters {
            for (pi, images) in &bindings {
                total += support(*pi, images) as u64;
            }
        }
        KernelPass {
            total_support: total,
            wall_nanos: start.elapsed().as_nanos(),
        }
    };
    let oracle_pass = kernel_pass(&oracle);
    let scan_pass = kernel_pass(&|pi, images| scan(pi, images, &mut SupportStats::default()));
    if oracle_pass.total_support != scan_pass.total_support {
        eprintln!(
            "error: timed passes disagree on total support: oracle {} vs scan {}",
            oracle_pass.total_support, scan_pass.total_support
        );
        return ExitCode::from(3);
    }
    let speedup = oracle_pass.wall_nanos as f64 / scan_pass.wall_nanos.max(1) as f64;
    let scans = bindings.len() as u64 * u64::from(iters);
    println!(
        "  kernel: oracle {:.3}s  scan {:.3}s  speedup {speedup:.2}x  \
         ({scans} scans, {fallbacks} fallbacks)",
        oracle_pass.wall_nanos as f64 / 1e9,
        scan_pass.wall_nanos as f64 / 1e9,
    );

    // -----------------------------------------------------------------
    // Artifact, in the flat work/wall_nanos shape `xtask perf` ingests.
    // -----------------------------------------------------------------
    let (total, oracle_ns, scan_ns) = (
        scan_pass.total_support,
        oracle_pass.wall_nanos,
        scan_pass.wall_nanos,
    );
    let SupportStats {
        index_probes,
        candidate_traces,
        matched_traces,
    } = kernel_stats;
    let head = format!(
        "\"workload\":{{\"dataset\":\"larger_synthetic\",\"modules\":{modules},\
         \"kernel_traces\":{kernel_traces},\"seed\":{seed},\"rotations\":{rotations},\
         \"iters\":{iters}}},\"host_parallelism\":{host},\"speedup\":{speedup:.4},\
         \"kernel\":{{\"scans\":{scans},\"fallbacks\":{fallbacks},\"total_support\":{total},\
         \"oracle_wall_nanos\":{oracle_ns},\"scan_wall_nanos\":{scan_ns}}}"
    );
    write_bench(
        "matcher",
        &head,
        [
            ("kernel/scans", scans),
            ("kernel/total_support", total),
            ("kernel/index_probes", index_probes),
            ("kernel/candidate_traces", candidate_traces),
            ("kernel/matched_traces", matched_traces),
        ],
        [("kernel/oracle", oracle_ns), ("kernel/scan", scan_ns)],
    )
}

fn main() -> ExitCode {
    let sub = std::env::args().nth(1).unwrap_or_default();
    match sub.as_str() {
        "profile" => run_profile(),
        "matcher" => run_matcher(),
        other => {
            eprintln!(
                "usage: bench <subcommand>\n  profile    phase-profiled run under a pure cap; emits BENCH_profile.json for `xtask perf`\n  matcher    support kernel: the one scan checked against, then timed against, the interpreter oracle; emits BENCH_matcher.json"
            );
            if other.is_empty() {
                ExitCode::from(2)
            } else {
                eprintln!("error: unknown subcommand `{other}`");
                ExitCode::from(2)
            }
        }
    }
}
