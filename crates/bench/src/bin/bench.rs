//! `bench` — benchmark subcommands emitting machine-readable `BENCH_*.json`
//! evidence under the output directory.
//!
//! Usage:
//!
//! ```text
//! bench parpool
//! bench profile
//! bench matcher
//! bench verify [dir]
//! ```
//!
//! ## `bench parpool`
//!
//! Measures the parallel support-evaluation kernel (`core::parpool`)
//! against the sequential baseline on a scan-heavy exact-search workload,
//! and the cross-method warm-up effect of the shared per-cell support
//! cache. Emits `BENCH_parpool.json` with:
//!
//! * seq-vs-parallel wall-clock and the full deterministic scan counters
//!   (`eval.log_scans`, `frequency.*`) for both runs — the deterministic
//!   sections must be byte-identical, and the bench prints the first
//!   diverging metric key (with both values) and exits with code 3 if
//!   they are not;
//! * `parpool.batches` / `parpool.steals` execution-shape facts for the
//!   parallel run;
//! * a shared-cache panel: the measured method's `eval.cache.shared_hits`
//!   and scan savings when another method warmed the cache first.
//!
//! Knobs: `EVEMATCH_BENCH_MODULES` (process-model modules, default 2 —
//! 20 events, the most composite-heavy configuration), `EVEMATCH_TRACES`
//! (default 3000), `EVEMATCH_SEEDS` (first seed used, default 11),
//! `EVEMATCH_EVAL_THREADS` (parallel thread count, default 8),
//! `EVEMATCH_LIMIT_PROCESSED` (processed-mapping cap keeping the exact
//! search bounded, default 20,000). Wall-clock numbers reflect
//! the host: on a single-core machine the parallel run shows pool overhead
//! rather than speedup, which is why `host_parallelism` is recorded in the
//! artifact.
//!
//! ## `bench profile`
//!
//! Runs the hierarchical phase profiler over the same scan-heavy workload
//! under a *pure-cap* budget (processed-mapping cap only, no wall-clock
//! deadline, so the deterministic section is bit-stable across hosts and
//! reruns) and emits `BENCH_profile.json` in the shape `xtask perf append`
//! ingests:
//!
//! * `work` — the flattened deterministic work counters
//!   (`"<phase-path>/<column>": n`), byte-identical across
//!   `EVEMATCH_EVAL_THREADS`; the perf-trajectory gate
//!   (`cargo xtask perf check`) alerts on regressions in these;
//! * `wall_nanos` — the flattened per-phase wall clocks plus
//!   `overlay/<name>` entries, advisory only (host-dependent).
//!
//! The deterministic sections of a sequential and a parallel run are
//! compared first; a divergence prints both documents' first differing
//! byte region and exits with code 3 — the artifact is only written from
//! a verified profile. Same knobs as `bench parpool`.
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
//! ## `bench verify [dir]`
//!
//! Walks an output directory (default: the `EVEMATCH_OUT` / `results`
//! directory) and checks every artifact's integrity offline — `.evmi`
//! checksum sidecars for whole-file artifacts, the framed header and
//! per-record trailers for `*.journal` files (see
//! `evematch_core::persist::integrity`). Prints a per-file report; exits
//! 0 when everything verifies (files without integrity data are warnings)
//! and 2 on any corruption or orphaned sidecar.
//!
//! Exits with code 2 if the artifact cannot be written.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use evematch_core::telemetry::MetricsSnapshot;
use evematch_core::{Budget, Mapping};
use evematch_datagen::datasets;
use evematch_eval::SupportCachePool;
use evematch_eval::{Method, RunOutcome};
use evematch_eventlog::{ColumnarLog, EventId};
use evematch_pattern::{pattern_support, EvaluatedPattern, SupportStats};

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One timed run: wall-clock plus the metrics snapshot.
struct Timed {
    wall_nanos: u128,
    out: RunOutcome,
}

fn timed_run(
    method: Method,
    ds: &evematch_datagen::Dataset,
    budget: Budget,
    threads: usize,
    pool: Option<&SupportCachePool>,
) -> Timed {
    let start = Instant::now();
    let out = method.run_with(&ds.pair, &ds.patterns, budget, threads, pool);
    Timed {
        wall_nanos: start.elapsed().as_nanos(),
        out,
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// The first key (in section, then key order) whose value differs between
/// the two deterministic sections, with both values rendered — so a
/// determinism regression names the diverging metric instead of forcing a
/// JSON-blob eyeball diff. Returns `(section.key, seq value, par value)`;
/// a key missing on one side renders as `<absent>`.
fn first_divergence(
    seq: &MetricsSnapshot,
    par: &MetricsSnapshot,
) -> Option<(String, String, String)> {
    fn diff_maps<V: PartialEq + std::fmt::Debug>(
        section: &str,
        a: &std::collections::BTreeMap<String, V>,
        b: &std::collections::BTreeMap<String, V>,
    ) -> Option<(String, String, String)> {
        let render = |v: Option<&V>| v.map_or_else(|| "<absent>".into(), |v| format!("{v:?}"));
        a.keys()
            .chain(b.keys())
            .find(|k| a.get(*k) != b.get(*k))
            .map(|k| (format!("{section}.{k}"), render(a.get(k)), render(b.get(k))))
    }
    diff_maps("counters", &seq.counters, &par.counters)
        .or_else(|| diff_maps("gauges", &seq.gauges, &par.gauges))
        .or_else(|| diff_maps("histograms", &seq.histograms, &par.histograms))
}

fn info(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.info.get(name).copied().unwrap_or(0)
}

/// The scan-facing counters of one run as a JSON object fragment.
fn push_run(out: &mut String, t: &Timed, threads: usize) {
    let snap = t.out.metrics();
    let _ = write!(
        out,
        "{{\"threads\":{},\"wall_nanos\":{},\"log_scans\":{},\"candidate_traces\":{},\
         \"matched_traces\":{},\"index_probes\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"shared_hits\":{},\"parpool_batches\":{},\"parpool_steals\":{}}}",
        threads,
        t.wall_nanos,
        counter(snap, "eval.log_scans"),
        counter(snap, "frequency.candidate_traces"),
        counter(snap, "frequency.matched_traces"),
        counter(snap, "frequency.index_probes"),
        counter(snap, "eval.cache_hits"),
        counter(snap, "eval.cache_misses"),
        counter(snap, "eval.cache.shared_hits"),
        info(snap, "parpool.batches"),
        info(snap, "parpool.steals"),
    );
}

fn run_parpool() -> ExitCode {
    let seed = std::env::var("EVEMATCH_SEEDS")
        .ok()
        .and_then(|s| s.split(',').next().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(11u64);
    let traces = env_or("EVEMATCH_TRACES", 3000usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let par_threads = env_or("EVEMATCH_EVAL_THREADS", 8usize).max(2);
    let cap = env_or("EVEMATCH_LIMIT_PROCESSED", 20_000u64);
    let budget = Budget::UNLIMITED.with_processed_cap(cap);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ds = datasets::larger_synthetic(modules, traces, seed);
    let method = Method::PatternTight;

    println!(
        "bench parpool: {} on larger_synthetic({modules}, {traces}, seed {seed}), \
         cap {cap}, {par_threads} threads (host parallelism {host})",
        method.name()
    );

    // Panel 1: sequential vs parallel, each on a cold private cache.
    let seq = timed_run(method, &ds, budget, 1, None);
    let par = timed_run(method, &ds, budget, par_threads, None);

    let identical =
        seq.out.metrics().deterministic_json() == par.out.metrics().deterministic_json();
    let speedup = seq.wall_nanos as f64 / par.wall_nanos.max(1) as f64;
    println!(
        "  seq {:.3}s  par {:.3}s  speedup {speedup:.2}x  deterministic sections identical: {identical}",
        seq.wall_nanos as f64 / 1e9,
        par.wall_nanos as f64 / 1e9,
    );

    // Panel 2: shared-cache warm-up — the advanced heuristic runs first on
    // the shared pool, then the measured method reuses its scans.
    let pool = SupportCachePool::new();
    let warm_method = Method::HeuristicAdvanced;
    let warm = timed_run(warm_method, &ds, budget, 1, Some(&pool));
    let warmed = timed_run(method, &ds, budget, 1, Some(&pool));
    let shared_hits = counter(warmed.out.metrics(), "eval.cache.shared_hits");
    println!(
        "  shared cache: {} warmed {} -> shared_hits {shared_hits}, log_scans {} (cold: {})",
        warm_method.name(),
        method.name(),
        counter(warmed.out.metrics(), "eval.log_scans"),
        counter(seq.out.metrics(), "eval.log_scans"),
    );

    let mut json = String::from("{\"bench\":\"parpool\",\"workload\":{");
    let _ = write!(
        json,
        "\"dataset\":\"larger_synthetic\",\"modules\":{modules},\"traces\":{traces},\
         \"seed\":{seed},\"method\":\"{}\",\"processed_cap\":{cap}}},\
         \"host_parallelism\":{host},",
        method.name()
    );
    json.push_str("\"seq\":");
    push_run(&mut json, &seq, 1);
    json.push_str(",\"par\":");
    push_run(&mut json, &par, par_threads);
    let _ = write!(
        json,
        ",\"speedup\":{speedup:.4},\"identical_outputs\":{identical},\"shared_cache\":{{\
         \"warm_method\":\"{}\",\"measured_method\":\"{}\",\"shared_hits\":{shared_hits},\
         \"cold_log_scans\":{},\"warmed_log_scans\":{},\"warm_wall_nanos\":{},\
         \"warmed_wall_nanos\":{}}}}}",
        warm_method.name(),
        method.name(),
        counter(seq.out.metrics(), "eval.log_scans"),
        counter(warmed.out.metrics(), "eval.log_scans"),
        warm.wall_nanos,
        warmed.wall_nanos,
    );
    json.push('\n');

    let path = match evematch_bench::out_dir() {
        Ok(dir) => dir.join("BENCH_parpool.json"),
        Err(err) => {
            eprintln!("error: cannot create output dir: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = evematch_core::persist::atomic_write_verified(&path, json.as_bytes()) {
        eprintln!("error: failed to write {}: {err}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());

    if !identical {
        eprintln!("error: parallel deterministic section diverged from sequential");
        match first_divergence(seq.out.metrics(), par.out.metrics()) {
            Some((key, seq_v, par_v)) => {
                eprintln!("  first divergence: {key}\n    seq: {seq_v}\n    par: {par_v}");
            }
            // The JSON strings differed but the typed maps agree — the
            // serializer itself is non-deterministic, which is its own bug.
            None => eprintln!("  (no diverging key: serialization is non-deterministic)"),
        }
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

fn run_profile() -> ExitCode {
    let seed = std::env::var("EVEMATCH_SEEDS")
        .ok()
        .and_then(|s| s.split(',').next().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(11u64);
    let traces = env_or("EVEMATCH_TRACES", 3000usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let par_threads = env_or("EVEMATCH_EVAL_THREADS", 8usize).max(2);
    let cap = env_or("EVEMATCH_LIMIT_PROCESSED", 20_000u64);
    // Pure cap — a wall-clock deadline would make the charged work
    // host-dependent and the perf gate's counters noisy.
    let budget = Budget::UNLIMITED.with_processed_cap(cap);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ds = datasets::larger_synthetic(modules, traces, seed);
    let method = Method::PatternTight;

    println!(
        "bench profile: {} on larger_synthetic({modules}, {traces}, seed {seed}), \
         cap {cap} (pure), {par_threads} threads (host parallelism {host})",
        method.name()
    );

    let seq = timed_run(method, &ds, budget, 1, None);
    let par = timed_run(method, &ds, budget, par_threads, None);

    let seq_det = seq.out.profile().deterministic_json();
    let par_det = par.out.profile().deterministic_json();
    if seq_det != par_det {
        eprintln!("error: profile deterministic section diverged across thread counts");
        let split = seq_det
            .bytes()
            .zip(par_det.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(seq_det.len().min(par_det.len()));
        let lo = split.saturating_sub(40);
        eprintln!(
            "  seq[{lo}..]: {}",
            &seq_det[lo..(split + 40).min(seq_det.len())]
        );
        eprintln!(
            "  par[{lo}..]: {}",
            &par_det[lo..(split + 40).min(par_det.len())]
        );
        return ExitCode::from(3);
    }
    let profile = seq.out.profile();
    println!(
        "  seq {:.3}s  par {:.3}s  deterministic sections identical: true",
        seq.wall_nanos as f64 / 1e9,
        par.wall_nanos as f64 / 1e9,
    );

    let mut json = String::from("{\"bench\":\"profile\",\"workload\":{");
    let _ = write!(
        json,
        "\"dataset\":\"larger_synthetic\",\"modules\":{modules},\"traces\":{traces},\
         \"seed\":{seed},\"method\":\"{}\",\"processed_cap\":{cap}}},\
         \"host_parallelism\":{host},\"work\":{{",
        method.name()
    );
    for (i, (key, n)) in profile.flat_work().iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{key}\":{n}");
    }
    json.push_str("},\"wall_nanos\":{");
    for (i, (key, n)) in profile.flat_wall().iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{key}\":{n}");
    }
    json.push_str("}}\n");

    let path = match evematch_bench::out_dir() {
        Ok(dir) => dir.join("BENCH_profile.json"),
        Err(err) => {
            eprintln!("error: cannot create output dir: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = evematch_core::persist::atomic_write_verified(&path, json.as_bytes()) {
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
    let seed = std::env::var("EVEMATCH_SEEDS")
        .ok()
        .and_then(|s| s.split(',').next().and_then(|x| x.trim().parse().ok()))
        .unwrap_or(11u64);
    let kernel_traces = env_or("EVEMATCH_TRACES", 3000usize);
    let modules = env_or("EVEMATCH_BENCH_MODULES", 2usize);
    let iters = env_or("EVEMATCH_BENCH_ITERS", 3u32);
    let rotations = 8u32;
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ds = datasets::larger_synthetic(modules, kernel_traces, seed);
    let log2 = &ds.pair.log2;
    let idx = log2.trace_index();
    let col = ColumnarLog::from_log(log2);
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
            .scan(images, &idx, |t| col.trace(t), &mut || true, stats)
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
    let json = format!(
        "{{\"bench\":\"matcher\",\"workload\":{{\"dataset\":\"larger_synthetic\",\
         \"modules\":{modules},\"kernel_traces\":{kernel_traces},\"seed\":{seed},\
         \"rotations\":{rotations},\"iters\":{iters}}},\
         \"host_parallelism\":{host},\"speedup\":{speedup:.4},\
         \"kernel\":{{\"scans\":{scans},\"fallbacks\":{fallbacks},\"total_support\":{total},\
         \"oracle_wall_nanos\":{oracle_ns},\"scan_wall_nanos\":{scan_ns}}},\
         \"work\":{{\"kernel/scans\":{scans},\"kernel/total_support\":{total},\
         \"kernel/index_probes\":{index_probes},\"kernel/candidate_traces\":{candidate_traces},\
         \"kernel/matched_traces\":{matched_traces}}},\
         \"wall_nanos\":{{\"kernel/oracle\":{oracle_ns},\"kernel/scan\":{scan_ns}}}}}\n"
    );

    let path = match evematch_bench::out_dir() {
        Ok(dir) => dir.join("BENCH_matcher.json"),
        Err(err) => {
            eprintln!("error: cannot create output dir: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = evematch_core::persist::atomic_write_verified(&path, json.as_bytes()) {
        eprintln!("error: failed to write {}: {err}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// `bench verify [dir]` — the offline integrity walk; see the module docs.
fn run_verify(dir_arg: Option<String>) -> ExitCode {
    let dir = match dir_arg {
        Some(d) => std::path::PathBuf::from(d),
        None => match evematch_bench::out_dir() {
            Ok(dir) => dir,
            Err(err) => {
                eprintln!("error: cannot resolve output dir: {err}");
                return ExitCode::from(2);
            }
        },
    };
    match evematch_core::persist::integrity::verify_dir(&dir) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(err) => {
            eprintln!("error: cannot read {}: {err}", dir.display());
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let sub = std::env::args().nth(1).unwrap_or_default();
    match sub.as_str() {
        "parpool" => run_parpool(),
        "profile" => run_profile(),
        "matcher" => run_matcher(),
        "verify" => run_verify(std::env::args().nth(2)),
        other => {
            eprintln!(
                "usage: bench <subcommand>\n  parpool    seq-vs-parallel support evaluation + shared-cache warm-up\n  profile    phase-profiled run under a pure cap; emits BENCH_profile.json for `xtask perf`\n  matcher    support kernel: the one scan checked against, then timed against, the interpreter oracle; emits BENCH_matcher.json\n  verify     offline integrity check of an output directory (default: results)"
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
