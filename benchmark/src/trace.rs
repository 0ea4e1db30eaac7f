//! `benchmark trace`: each workload's op replayed in-process with a span
//! around every call into a layer's public function, giving the per-layer
//! metrics. Spans stay in memory and are written at the end as a Chrome
//! trace (`trace.json`) and a per-layer summary (`layers.json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use evematch::core::telemetry::json::{push_key, push_string};
use evematch::eval::experiments::{run_grid, FIG12_METHODS};
use evematch::pattern::EvaluatedPattern;
use evematch::prelude::*;

use crate::check::{self, Reference};
use crate::report::{Metric, RunResult};
use crate::run::{self, Env, Prepared};
use crate::stats;
use crate::workload::{self, CliInputs, Instance, Op, Workload, LIMIT_SECS};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call's name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op it belongs to.
    pub op: usize,
    /// The recording thread.
    pub tid: u64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// An in-memory span recorder, shared by the grid's worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span; returns its id.
    pub fn open(&self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
            tid: TID.with(|t| *t),
        };
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Closes span `id`; returns its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let end = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end;
        (end - spans[id].start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span; returns its value and duration in seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, op, parent);
        let value = std::hint::black_box(f());
        (value, self.close(id))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// What one traced op measured, before it is turned into metrics.
#[derive(Clone, Debug, Default)]
pub struct LayerInput {
    /// The op span.
    pub op_s: f64,
    /// The op span's direct children.
    pub children_s: f64,
    /// Dataset generation.
    pub generate_s: f64,
    /// Both logs' `read_log_with`.
    pub read_s: f64,
    /// Bytes those reads consumed.
    pub read_bytes: u64,
    /// Trace indices, dependency graphs and the columnar view.
    pub index_s: f64,
    /// `EvaluatedPattern::new` over the pattern set.
    pub evaluate_s: f64,
    /// Patterns evaluated.
    pub patterns: usize,
    /// `MatchContext::new`.
    pub context_s: f64,
    /// The solver.
    pub solve_s: f64,
    /// Output emission.
    pub emit_s: f64,
    /// The solver runs' telemetry, merged.
    pub metrics: MetricsSnapshot,
    /// The solver runs' phase walls (nanoseconds by phase path), summed.
    pub walls: BTreeMap<String, u64>,
    /// The solver runs' phase work (by `path/column`), summed.
    pub work: BTreeMap<String, u64>,
    /// Grid-only layers.
    pub grid: Option<GridLayers>,
}

/// Layers only the grid has.
#[derive(Clone, Copy, Debug, Default)]
pub struct GridLayers {
    /// `run_grid`.
    pub grid_s: f64,
    /// Worker threads.
    pub workers: usize,
    /// Σ solver-run walls and dataset generations.
    pub busy_s: f64,
    /// Bytes written to the output directory.
    pub bytes: u64,
    /// `persist::integrity::verify_dir`.
    pub verify_s: f64,
}

impl LayerInput {
    fn absorb(&mut self, metrics: &MetricsSnapshot, profile: &ProfileSnapshot) {
        self.metrics.merge(metrics);
        for (k, v) in profile.flat_wall() {
            *self.walls.entry(k).or_insert(0) += v;
        }
        for (k, v) in profile.flat_work() {
            *self.work.entry(k).or_insert(0) += v;
        }
    }
}

/// The per-layer metrics of one traced op. Counters are read by name; a
/// name the program no longer writes leaves its metrics out.
pub fn layer_metrics(x: &LayerInput) -> Vec<Metric> {
    let counter = |name: &str| x.metrics.counters.get(name).map(|&v| v as f64);
    let wall = |path: &str| x.walls.get(path).map_or(0.0, |&ns| ns as f64 / 1e9);
    let support_eval = wall("search/support-eval");
    let processed = counter("budget.processed");
    let (hits, misses) = (counter("eval.cache_hits"), counter("eval.cache_misses"));
    let candidates = counter("frequency.candidate_traces");
    let exhausted = x
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("budget.exhausted."))
        .map(|(_, v)| v)
        .sum::<u64>() as f64;
    let ratio = |a: Option<f64>, b: Option<f64>| Some(stats::ratio(a?, b?));
    let mut out = vec![
        ("datagen.generate_s", Some(x.generate_s)),
        ("eventlog.read_log_s", Some(x.read_s)),
        (
            "eventlog.read_log_mib_per_s",
            Some(stats::ratio(
                x.read_bytes as f64 / (1 << 20) as f64,
                x.read_s,
            )),
        ),
        ("eventlog.index_s", Some(x.index_s)),
        ("pattern.evaluate_s", Some(x.evaluate_s)),
        ("pattern.patterns", Some(x.patterns as f64)),
        (
            "pattern.evaluate_us_per_pattern",
            Some(stats::ratio(x.evaluate_s * 1e6, x.patterns as f64)),
        ),
        ("core.context_s", Some(x.context_s)),
        ("core.solve_s", Some(x.solve_s)),
        (
            "core.search_self_s",
            Some(x.solve_s - support_eval - wall("search/probe")),
        ),
        ("core.processed", processed),
        ("core.pops", x.work.get("search/pops").map(|&v| v as f64)),
        (
            "core.us_per_processed",
            ratio(Some(x.solve_s * 1e6), processed),
        ),
        ("core.support_eval_s", Some(support_eval)),
        ("core.support_evals", misses),
        ("core.candidate_traces", candidates),
        (
            "core.match_ratio",
            ratio(counter("frequency.matched_traces"), candidates),
        ),
        (
            "core.ns_per_candidate_trace",
            ratio(Some(support_eval * 1e9), candidates),
        ),
        (
            "core.cache_hit_ratio",
            ratio(hits, hits.zip(misses).map(|(h, m)| h + m)),
        ),
        (
            "core.shared_hit_ratio",
            ratio(counter("eval.cache.shared_hits"), hits),
        ),
        ("core.budget_exhausted", Some(exhausted)),
        // Only a solver that keeps a frontier raises this gauge.
        (
            "core.frontier_high_water",
            Some(
                x.metrics
                    .gauges
                    .get("search.frontier_high_water")
                    .map_or(0.0, |&v| v as f64),
            ),
        ),
        ("op.emit_s", Some(x.emit_s)),
        ("op.traced_s", Some(x.op_s)),
        (
            "op.unattributed_frac",
            Some(stats::ratio(x.op_s - x.children_s, x.op_s)),
        ),
    ];
    if let Some(g) = x.grid {
        out.extend([
            ("eval.grid_s", Some(g.grid_s)),
            (
                "eval.worker_busy_frac",
                Some(stats::ratio(g.busy_s, g.workers as f64 * g.grid_s)),
            ),
            ("persist.emit_s", Some(x.emit_s)),
            ("persist.bytes", Some(g.bytes as f64)),
            ("persist.verify_s", Some(g.verify_s)),
        ]);
    }
    out.into_iter()
        .filter_map(|(name, v)| Metric::new(name, v?, 1))
        .collect()
}

/// The CLI's ingest of one log pair under `parent`: both logs through
/// `read_log_with` and the declared patterns through `parse_pattern`, each
/// in a span. Records the read time and bytes in `x`; returns the logs, the
/// patterns and the parse time.
fn load(
    tr: &Tracer,
    op: usize,
    parent: Option<usize>,
    files: &CliInputs,
    x: &mut LayerInput,
) -> Result<(EventLog, EventLog, Vec<Pattern>, f64), String> {
    let ingest = IngestOptions::strict().with_limits(IngestLimits::unlimited());
    let read = |path: &Path| -> Result<EventLog, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        read_log_with(BufReader::new(file), &ingest)
            .map(|i| i.log)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let (log1, t1) = tr.time("eventlog.read_log", op, parent, || read(&files.l1));
    let (log2, t2) = tr.time("eventlog.read_log", op, parent, || read(&files.l2));
    let (log1, log2) = (log1?, log2?);
    x.read_s = t1 + t2;
    x.read_bytes = [&files.l1, &files.l2]
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    let (patterns, t_parse) = tr.time("pattern.parse", op, parent, || {
        let text = std::fs::read_to_string(&files.patterns).map_err(|e| e.to_string())?;
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| parse_pattern(l, log1.events()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<Pattern>, String>>()
    });
    Ok((log1, log2, patterns?, t_parse))
}

/// The pattern set `evematch --method <method>` matches with.
fn pattern_set(method: &str, patterns: Vec<Pattern>) -> PatternSetBuilder {
    match method {
        "vertex" => PatternSetBuilder::new().vertices(),
        "vertex-edge" | "iterative" | "entropy" => PatternSetBuilder::new().vertices().edges(),
        _ => PatternSetBuilder::new()
            .vertices()
            .edges()
            .complex_all(patterns),
    }
}

/// Replays `evematch.rs::run` for one CLI op on `inst`, then probes the
/// index and pattern layers outside the op span. Returns the layer input
/// and the mapping as the CLI prints it.
fn traced_cli(
    tr: &Tracer,
    op: usize,
    inst: &Instance,
    w: &Workload,
) -> Result<(LayerInput, String), String> {
    let Op::Cli {
        method,
        modules,
        traces,
        limit_processed,
    } = w.op
    else {
        return Err("not a CLI workload".into());
    };
    let mut x = LayerInput::default();
    let root = tr.open("op", op, None);
    let (log1, log2, patterns, t_parse) = load(tr, op, Some(root), &inst.files, &mut x)?;
    let names1 = log1.clone();
    let names2 = log2.clone();
    let builder = pattern_set(method, patterns);
    let (ctx, t_ctx) = tr.time("core.context", op, Some(root), || {
        MatchContext::new(log1, log2, builder)
    });
    let ctx = ctx.map_err(|e| e.to_string())?;
    x.context_s = t_ctx;
    let mut budget = Budget::UNLIMITED.with_deadline(Duration::from_secs(LIMIT_SECS));
    if let Some(cap) = limit_processed {
        budget = budget.with_processed_cap(cap);
    }
    let (outcome, t_solve) = tr.time("core.solve", op, Some(root), || match method {
        "exact" => Ok(ExactMatcher::new(BoundKind::Tight)
            .with_budget(budget)
            .solve(&ctx)),
        "advanced" => Ok(AdvancedHeuristic::new(BoundKind::Tight)
            .with_budget(budget)
            .solve(&ctx)),
        "iterative" => Ok(IterativeMatcher::new().with_budget(budget).solve(&ctx)),
        other => Err(format!("no traced replay for --method {other}")),
    });
    let outcome = outcome?;
    x.solve_s = t_solve;
    let (text, t_emit) = tr.time("op.emit", op, Some(root), || {
        let mut text = String::new();
        if let Some(gap) = outcome.completion.optimality_gap() {
            let _ = writeln!(text, "# degraded (gap={gap:.6})");
        }
        for (a, b) in outcome.mapping.pairs() {
            let _ = writeln!(
                text,
                "{}\t{}",
                names1.events().name(a),
                names2.events().name(b)
            );
        }
        text
    });
    x.emit_s = t_emit;
    x.op_s = tr.close(root);
    x.children_s = x.read_s + t_parse + t_ctx + t_solve + t_emit;
    x.absorb(&outcome.metrics, &outcome.profile);
    x.generate_s = tr
        .time("datagen.generate", op, None, || {
            datasets::larger_synthetic(modules, traces, inst.seed)
        })
        .1;
    probe_index_and_patterns(tr, op, &ctx, &mut x);
    Ok((x, text))
}

/// Times the index and pattern layers on `ctx`'s logs, outside the op.
fn probe_index_and_patterns(tr: &Tracer, op: usize, ctx: &MatchContext, x: &mut LayerInput) {
    let (index1, t_index) = tr.time("eventlog.index", op, None, || {
        let index1 = ctx.log1().trace_index();
        let rest = (
            ctx.log1().dep_graph(),
            ctx.log2().trace_index(),
            ctx.log2().dep_graph(),
            ColumnarLog::from_log(ctx.log2()),
        );
        std::hint::black_box(rest);
        index1
    });
    x.index_s = t_index;
    let (evaluated, t_eval) = tr.time("pattern.evaluate", op, None, || {
        ctx.patterns()
            .iter()
            .map(|ep| EvaluatedPattern::new(ep.pattern.clone(), ctx.log1(), &index1))
            .collect::<Vec<_>>()
    });
    x.evaluate_s = t_eval;
    x.patterns = evaluated.len();
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .filter(std::fs::Metadata::is_file)
            .map(|m| m.len())
            .sum()
    })
}

/// Replays `repro_fig12` (`fig12` over `run_grid`, then `emit_figure`)
/// with a span around each dataset generation, then probes the read,
/// index and pattern layers on the grid's largest cell and verifies the
/// output directory. Returns the layer input and the grid's panels.
fn traced_grid(
    tr: &Tracer,
    op: usize,
    p: &Prepared,
    out: &Path,
) -> Result<(LayerInput, Vec<u8>), String> {
    let Op::Grid {
        modules,
        traces,
        limit_processed,
    } = p.workload.op
    else {
        return Err("not the grid workload".into());
    };
    // The same environment as the process op, read by the same code.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("EVEMATCH_") {
            std::env::remove_var(k);
        }
    }
    for (k, v) in workload::grid_env(modules, traces, limit_processed, p.seed, out) {
        std::env::set_var(k, v);
    }
    let cfg = evematch_bench::sweep_config();
    let fig_traces = evematch_bench::fig12_traces();
    let mut x = LayerInput::default();
    let root = tr.open("op", op, None);
    let grid_span = tr.open("eval.grid", op, Some(root));
    let xs: Vec<usize> = (1..=modules).map(|m| m * 10).collect();
    let generate_s = Mutex::new(0.0);
    let fig = run_grid("Fig12", "#events", &xs, &FIG12_METHODS, &cfg, |x, seed| {
        let (ds, t) = tr.time("datagen.generate", op, Some(grid_span), || {
            datasets::larger_synthetic(x / 10, fig_traces, seed)
        });
        *generate_s
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) += t;
        ds
    });
    let grid_s = tr.close(grid_span);
    let (emitted, emit_s) = tr.time("persist.emit", op, Some(root), || {
        evematch_bench::emit_figure(&mut io::sink(), &fig, "fig12")
    });
    emitted.map_err(|e| format!("emit_figure: {e}"))?;
    x.op_s = tr.close(root);
    x.children_s = grid_s + emit_s;
    x.emit_s = emit_s;
    x.generate_s = generate_s
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for ((_, m), (_, prof)) in fig.metrics.iter().zip(&fig.profiles) {
        x.absorb(m, prof);
    }
    let wall = |k: &str| x.walls.get(k).map_or(0.0, |&ns| ns as f64 / 1e9);
    x.context_s = wall("index");
    x.solve_s = wall("search");
    let (report, verify_s) = tr.time("persist.verify", op, None, || {
        persist::integrity::verify_dir(out)
    });
    if !report.is_ok_and(|r| r.is_clean()) {
        return Err(format!("{}: integrity walk not clean", out.display()));
    }
    x.grid = Some(GridLayers {
        grid_s,
        workers: cfg.workers,
        busy_s: x.context_s + x.solve_s + x.generate_s,
        bytes: dir_bytes(out),
        verify_s,
    });
    // The grid parses no log: probe the eventlog and pattern layers on
    // its largest cell, with the Pattern methods' set.
    let (log1, log2, patterns, _) = load(tr, op, None, &p.pool[0].files, &mut x)?;
    let ctx =
        MatchContext::new(log1, log2, pattern_set("exact", patterns)).map_err(|e| e.to_string())?;
    probe_index_and_patterns(tr, op, &ctx, &mut x);
    Ok((x, check::grid_output(out)))
}

/// Per-layer results of one traced workload.
pub struct Traced {
    /// The result line's run (per-layer metrics: medians over traced ops).
    pub run: RunResult,
    /// The spans of its traced ops.
    pub spans: Vec<Span>,
}

/// One traced run of `w`: set-up, half the window as an end-to-end closed
/// loop (for `op.e2e_delta_s` and the reference outputs), half as traced
/// in-process ops checked against the CLI's outputs.
pub fn trace(env: &Env, w: Workload, seed: u64, seconds: f64) -> io::Result<Traced> {
    let mut p = Prepared::new(env, w, seed)?;
    if let Op::Grid {
        modules, traces, ..
    } = w.op
    {
        let ds = datasets::larger_synthetic(modules, traces, seed);
        p.pool = vec![workload::write_inputs(
            &ds,
            &env.out_dir.join("work").join(w.name).join("probe"),
            seed,
        )?];
    }
    let (samples, _) = run::closed_loop(&mut p, seconds / 2.0)?;
    let golden = env.golden(&w, seed);
    let (mut tally, _) = run::check_samples(&mut p, &samples, golden.as_deref());
    let walls: Vec<f64> = samples.iter().map(|s| s.2.wall_s).collect();
    let e2e_p50 = stats::nearest_rank(&walls, 50.0).unwrap_or(0.0);

    let tracer = Tracer::new();
    let start = Instant::now();
    let mut per_op: Vec<Vec<Metric>> = Vec::new();
    let min_ops = 2;
    while start.elapsed().as_secs_f64() < seconds / 2.0 || per_op.len() < min_ops {
        let op = per_op.len();
        let i = op % p.first.len();
        let result = match w.op {
            Op::Cli { .. } => {
                traced_cli(&tracer, op, &p.pool[i], &w).map(|(x, t)| (x, t.into_bytes()))
            }
            Op::Grid { .. } => {
                let out = env
                    .out_dir
                    .join("work")
                    .join(w.name)
                    .join(format!("traced-{op}"));
                let r = traced_grid(&tracer, op, &p, &out);
                let _ = std::fs::remove_dir_all(&out);
                r
            }
        };
        let (x, output) = result.map_err(io::Error::other)?;
        // The replay must print exactly what the binary printed, which the
        // end-to-end half has already checked.
        let refs = Reference {
            first: p.first[i].as_deref(),
            golden: None,
        };
        tally.record(&refs.causes(&output));
        per_op.push(layer_metrics(&x));
    }
    let mut metrics = median_metrics(&per_op);
    let traced_p50 = metrics
        .iter()
        .find(|m| m.name == "op.traced_s")
        .map_or(0.0, |m| m.value);
    metrics.extend(Metric::new(
        "op.e2e_delta_s",
        e2e_p50 - traced_p50,
        samples.len(),
    ));
    p.clean();
    Ok(Traced {
        run: RunResult {
            workload: w.name,
            seed,
            tally,
            metrics,
        },
        spans: tracer.spans(),
    })
}

/// Each metric's median over ops (in first-seen order), with the op
/// count as its sample count.
fn median_metrics(per_op: &[Vec<Metric>]) -> Vec<Metric> {
    let mut names: Vec<&str> = Vec::new();
    for m in per_op.iter().flatten() {
        if !names.contains(&m.name.as_str()) {
            names.push(&m.name);
        }
    }
    names
        .into_iter()
        .filter_map(|name| {
            let values: Vec<f64> = per_op
                .iter()
                .flatten()
                .filter(|m| m.name == name)
                .map(|m| m.value)
                .collect();
            let (_, median, _) = stats::quartiles(&values)?;
            Metric::new(name, median, values.len())
        })
        .collect()
}

/// `trace.json`: every span as a Chrome `trace_event` complete event, one
/// process per workload.
pub fn chrome_trace(traced: &[Traced]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, t) in traced.iter().enumerate() {
        for s in &t.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{");
            push_key(&mut out, "name");
            push_string(&mut out, s.name);
            out.push(',');
            push_key(&mut out, "cat");
            push_string(&mut out, t.run.workload);
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"op\":{},\"parent\":{parent}}}}}",
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                pid + 1,
                s.tid,
                s.op
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
