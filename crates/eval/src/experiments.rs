//! Drivers that regenerate every table and figure of the paper's Section 6.
//!
//! Each `figN` function returns a [`FigureResult`] with three tables — the
//! F-measure panel (a), the time panel (b) and the processed-mappings panel
//! (c) — averaged over the configured seeds. `table3` and `table4`
//! reproduce the dataset-characteristics and random-log tables. The
//! `repro_*` binaries in `evematch-bench` print and save these.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use evematch_core::claim::ClaimCursor;
use evematch_core::fault::Faults;
use evematch_core::persist::journal::{self, JournalLoad};
use evematch_core::retry::{retry_io, RealClock, RetryPolicy};
use evematch_core::{Budget, Mapping, MetricsSnapshot, ProfileSnapshot};
use evematch_datagen::{datasets, Dataset};

use crate::checkpoint::{self, MethodRecord};
use crate::method::{Method, SupportCachePool};
use crate::project::{project_dataset, truncate_traces};
use crate::report::Table;

/// Sweep configuration shared by the figure drivers.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Seeds to average over (each seed generates an independent dataset).
    pub seeds: Vec<u64>,
    /// Resource budget applied to every method (the polynomial methods
    /// essentially never trip it; the exhaustive ones degrade gracefully).
    pub budget: Budget,
    /// Worker threads for the grid (1 = fully sequential, most faithful
    /// timings). The grid is the only parallel layer: each solver run is
    /// sequential, and outputs are byte-identical across worker counts —
    /// only wall-clock changes.
    pub workers: usize,
    /// Trace count for the fixed-trace sweeps (Figures 7 and 9; the paper
    /// uses the full 3,000).
    pub traces: usize,
    /// Checkpoint directory. When set, each completed `(x, seed)` job is
    /// durably appended to `<dir>/<figure>.journal` and a rerun replays
    /// the journal instead of recomputing — how the `repro_*` binaries
    /// resume after a kill (their `--resume` flag). `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Supervisor retry policy for transient cell failures (worker
    /// panics, injected `grid.cell` faults) and journal appends: bounded
    /// exponential backoff, then the cell is quarantined as a typed DNF.
    /// `RetryPolicy::no_retries()` restores the pre-supervisor behavior.
    pub retry: RetryPolicy,
    /// The run's fault plan: its failpoint schedule (disarmed by default),
    /// the `fault.*`/`integrity.*` counters the grid's supervisor, journal
    /// and writes report into, and, for the crash-consistency explorer, its
    /// op recorder.
    pub faults: Arc<Faults>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seeds: vec![11, 23, 37],
            budget: Budget::UNLIMITED
                .with_processed_cap(2_000_000)
                .with_deadline(Duration::from_secs(60)),
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            traces: 3000,
            checkpoint: None,
            retry: RetryPolicy::io_default(),
            faults: Arc::default(),
        }
    }
}

/// The panels of one figure.
#[derive(Clone, Debug)]
pub struct FigureResult {
    /// Panel (a): F-measure per x-value and method, paper-faithful — DNF
    /// cells contribute nothing.
    pub f_measure: Table,
    /// Panel (a′): anytime F-measure — every run contributes the mapping it
    /// actually returned, degraded runs included.
    pub anytime_f: Table,
    /// Panel (b): wall-clock seconds per x-value and method.
    pub time: Table,
    /// Panel (c): processed mappings per x-value and method.
    pub processed: Table,
    /// Per-method telemetry, merged over every `(x, seed)` cell of the
    /// sweep (counters/buckets summed, gauges maxed — see
    /// [`MetricsSnapshot::merge`]). The `repro_*` binaries save this as
    /// `<stem>_metrics.json` next to the CSV panels.
    pub metrics: Vec<(String, MetricsSnapshot)>,
    /// Per-method phase profiles, merged over every `(x, seed)` cell
    /// (work counters summed, root walls accumulated — see
    /// [`ProfileSnapshot::merge`]). The `repro_*` binaries save these as
    /// `<stem>_profile.json` plus Chrome-trace and folded-stack views.
    pub profiles: Vec<(String, ProfileSnapshot)>,
    /// The sweep's fault plan (the config's, shared): its telemetry covers
    /// the grid, and the `repro_*` binaries write the panels under it.
    pub faults: Arc<Faults>,
}

/// Aggregate of one (x, method) cell over the seeds.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    f_sum: f64,
    anytime_f_sum: f64,
    secs_sum: f64,
    processed_sum: u64,
    finished: usize,
    total: usize,
}

impl Cell {
    fn add(&mut self, rec: &MethodRecord) {
        self.total += 1;
        self.anytime_f_sum += rec.anytime_f;
        if rec.finished {
            self.finished += 1;
            self.f_sum += rec.f;
            self.secs_sum += rec.secs;
            self.processed_sum += rec.processed;
        }
    }

    fn f_avg(&self) -> f64 {
        if self.finished == 0 {
            f64::NAN
        } else {
            self.f_sum / self.finished as f64
        }
    }

    fn anytime_f_avg(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.anytime_f_sum / self.total as f64
        }
    }

    fn secs_avg(&self) -> f64 {
        if self.finished == 0 {
            f64::NAN
        } else {
            self.secs_sum / self.finished as f64
        }
    }

    fn processed_avg(&self) -> u64 {
        if self.finished == 0 {
            u64::MAX
        } else {
            self.processed_sum / self.finished as u64
        }
    }
}

/// Runs one supervised unit of grid work (dataset generation or a single
/// method run) through [`retry_io`] at site `grid.cell`. Each attempt
/// first consults the `grid.cell` failpoint, then runs `op`, both behind
/// `catch_unwind`: a caught panic is a crashed worker, which fails the
/// attempt as `Interrupted` and so retries like any transient fault.
/// When the attempt budget is spent — or the fault is permanent/corrupt,
/// where retrying is futile — the unit is quarantined and the typed DNF
/// record to use is returned as the `Err`. On success, the number of
/// retries it took rides along so the cell's record can carry
/// `fault.retries.grid.cell`.
fn supervise<T>(cfg: &SweepConfig, op: impl Fn() -> T) -> Result<(T, u64), Box<MethodRecord>> {
    let panicked = std::cell::Cell::new(false);
    let attempt = || {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cfg.faults.guard("grid.cell")?;
            Ok(op())
        }));
        panicked.set(outcome.is_err());
        outcome.unwrap_or_else(|_| {
            Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "grid worker panicked",
            ))
        })
    };
    match retry_io(
        &cfg.faults,
        &cfg.retry,
        "grid.cell",
        &mut RealClock,
        attempt,
    ) {
        Ok(done) => Ok((done.value, u64::from(done.retries))),
        Err(failed) => {
            let retries = u64::from(failed.attempts - 1);
            let rec = if panicked.get() {
                let mut rec = MethodRecord::panicked();
                if retries > 0 {
                    rec.metrics.set_counter("fault.retries.grid.cell", retries);
                }
                rec
            } else {
                MethodRecord::quarantined(failed.class, retries)
            };
            // Boxed: the DNF record is cold-path and much larger than `T`.
            Err(Box::new(rec))
        }
    }
}

/// One `(x, seed)` job: dataset generation plus every method's run, each
/// a supervised unit (see [`supervise`]) so a panicking solver (or
/// generator) is retried a bounded number of times and then degrades its
/// own record to a typed DNF instead of killing the other methods'
/// results or poisoning the grid's locks.
fn run_job(
    x: usize,
    seed: u64,
    methods: &[Method],
    cfg: &SweepConfig,
    make: &(impl Fn(usize, u64) -> Dataset + Sync),
) -> Vec<MethodRecord> {
    let ds = match supervise(cfg, || make(x, seed)) {
        Ok((ds, _)) => ds,
        Err(rec) => return methods.iter().map(|_| (*rec).clone()).collect(),
    };
    // One support-cache pool per cell: methods run in a fixed order, so
    // the memo contents every method observes are deterministic, and a
    // later method reuses scans an earlier one already paid for
    // (`eval.cache.shared_hits`).
    let pool = SupportCachePool::new(&ds);
    methods
        .iter()
        .map(|&m| match supervise(cfg, || pool.run(m, cfg.budget)) {
            Ok((out, retries)) => {
                let mut rec = MethodRecord::of(&out);
                if retries > 0 {
                    rec.metrics.set_counter("fault.retries.grid.cell", retries);
                }
                rec
            }
            Err(rec) => *rec,
        })
        .collect()
}

/// Runs the `xs × seeds × methods` grid and aggregates into the three
/// panels. `make(x, seed)` produces the dataset for one cell.
///
/// With `cfg.checkpoint` set, completed jobs found in the journal are
/// replayed instead of recomputed, and freshly computed jobs are appended
/// to it (best-effort: an unwritable journal must not take down the run;
/// see [`journal`]).
pub fn run_grid(
    figure: &str,
    x_label: &str,
    xs: &[usize],
    methods: &[Method],
    cfg: &SweepConfig,
    make: impl Fn(usize, u64) -> Dataset + Sync,
) -> FigureResult {
    let fingerprint = checkpoint::grid_fingerprint(
        figure,
        x_label,
        xs,
        methods,
        &cfg.seeds,
        cfg.traces,
        &cfg.budget,
    );
    let journal: Option<PathBuf> = cfg
        .checkpoint
        .as_ref()
        .map(|dir| dir.join(format!("{figure}.journal")));
    let load = match &journal {
        Some(path) => journal::replay(path, &fingerprint, |payload| {
            checkpoint::parse_entry(payload, &fingerprint, xs, &cfg.seeds, methods.len())
        }),
        None => JournalLoad::default(),
    };
    for label in &load.integrity {
        cfg.faults.note_integrity(label);
    }
    // A job journaled twice (a crash between its append and the next claim
    // reruns it) resolves to the last entry.
    let done: BTreeMap<(usize, u64), Vec<MethodRecord>> = load.records.into_iter().collect();
    let mut jobs: Vec<(usize, u64)> = xs
        .iter()
        .enumerate()
        .flat_map(|(xi, _)| cfg.seeds.iter().map(move |&s| (xi, s)))
        .filter(|key| !done.contains_key(key))
        .collect();
    // Longest jobs first: a cell's cost grows with its x (events or
    // traces), so claiming in descending x leaves the short jobs to fill
    // the workers' tails. Records fold in `(x, seed)` key order below, so
    // the claim order never reaches an output.
    jobs.sort_by_key(|&(xi, _)| Reverse(xs[xi]));
    if let Some(path) = &journal {
        match load.rebuild {
            Some(reason) => {
                // The typed rebuild warning: the journal existed but could
                // not be trusted; the counted reason is also in
                // `integrity.journal_rebuilt.<reason>` telemetry.
                #[expect(
                    clippy::print_stderr,
                    reason = "operator-facing integrity warning; counters carry the typed reason"
                )]
                if reason != "missing" {
                    eprintln!(
                        "warning: checkpoint journal {} rebuilt from scratch ({reason})",
                        path.display()
                    );
                }
                journal::start(&cfg.faults, &cfg.retry, path, &fingerprint);
            }
            None if !jobs.is_empty() => journal::seal_torn_tail(path),
            None => {}
        }
    }
    let results: Mutex<BTreeMap<(usize, u64), Vec<MethodRecord>>> = Mutex::new(done);
    let journal_append = Mutex::new(());
    let cursor = ClaimCursor::new(jobs.len());
    let workers = cfg.workers.clamp(1, jobs.len().max(1));
    #[expect(
        clippy::disallowed_methods,
        reason = "the sweep's job fan-out is the one parallel layer: workers claim jobs through \
                  the claim cursor and records merge in job order"
    )]
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(i) = cursor.claim() {
                    let (xi, seed) = jobs[i];
                    let records = run_job(xs[xi], seed, methods, cfg, &make);
                    if let Some(path) = &journal {
                        let payload =
                            checkpoint::journal_line(&fingerprint, xs[xi], seed, &records);
                        let _one_writer = journal_append
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        journal::append(&cfg.faults, &cfg.retry, path, &payload);
                    }
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert((xi, seed), records);
                }
            });
        }
    });
    let results = results.into_inner().unwrap_or_else(PoisonError::into_inner);

    // Deterministic aggregation: records fold in `(x, seed)` key order
    // regardless of worker completion order or the replayed/computed
    // split, so the f64 sums are bit-stable and a resumed grid renders
    // byte-identical deterministic panels.
    let mut cells = vec![vec![Cell::default(); methods.len()]; xs.len()];
    let mut merged = vec![MetricsSnapshot::default(); methods.len()];
    let mut merged_profiles = vec![ProfileSnapshot::default(); methods.len()];
    for ((xi, _seed), records) in &results {
        for (mi, rec) in records.iter().enumerate() {
            cells[*xi][mi].add(rec);
            merged[mi].merge(&rec.metrics);
            merged_profiles[mi].merge(&rec.profile);
        }
    }

    // Not `map(Method::name)`: the fn-item type would pin the chained
    // iterator's item to `&'static str` and demand `x_label: 'static`;
    // the closure reborrows and lets the item lifetime shrink.
    #[allow(clippy::redundant_closure_for_method_calls)]
    let headers: Vec<&str> = std::iter::once(x_label)
        .chain(methods.iter().map(|m| m.name()))
        .collect();
    let mut f_measure = Table::new(&format!("{figure}a: F-measure"), &headers);
    let mut anytime_f = Table::new(
        &format!("{figure}a': anytime F-measure (degraded runs included)"),
        &headers,
    );
    let mut time = Table::new(&format!("{figure}b: time (s)"), &headers);
    let mut processed = Table::new(&format!("{figure}c: processed mappings"), &headers);
    for (xi, &x) in xs.iter().enumerate() {
        let label = x.to_string();
        f_measure.add_row(
            std::iter::once(label.clone())
                .chain(cells[xi].iter().map(|c| Table::fmt_f64(c.f_avg())))
                .collect(),
        );
        anytime_f.add_row(
            std::iter::once(label.clone())
                .chain(cells[xi].iter().map(|c| Table::fmt_f64(c.anytime_f_avg())))
                .collect(),
        );
        time.add_row(
            std::iter::once(label.clone())
                .chain(cells[xi].iter().map(|c| Table::fmt_secs(c.secs_avg())))
                .collect(),
        );
        processed.add_row(
            std::iter::once(label)
                .chain(
                    cells[xi]
                        .iter()
                        .map(|c| Table::fmt_count(c.processed_avg())),
                )
                .collect(),
        );
    }
    let metrics = methods
        .iter()
        .map(|m| m.name().to_owned())
        .zip(merged)
        .collect();
    let profiles = methods
        .iter()
        .map(|m| m.name().to_owned())
        .zip(merged_profiles)
        .collect();
    FigureResult {
        f_measure,
        anytime_f,
        time,
        processed,
        metrics,
        profiles,
        faults: Arc::clone(&cfg.faults),
    }
}

/// Methods compared in the exact-approach figures (7 and 8).
pub const EXACT_FIGURE_METHODS: [Method; 5] = [
    Method::Vertex,
    Method::VertexEdge,
    Method::Iterative,
    Method::PatternSimple,
    Method::PatternTight,
];

/// Methods compared in the heuristic figures (9 and 10). `Pattern-Tight`
/// plays the paper's "Exact" role.
pub const HEURISTIC_FIGURE_METHODS: [Method; 6] = [
    Method::Vertex,
    Method::VertexEdge,
    Method::Iterative,
    Method::PatternTight,
    Method::HeuristicSimple,
    Method::HeuristicAdvanced,
];

/// Methods compared on the larger synthetic data (Figure 12).
pub const FIG12_METHODS: [Method; 7] = [
    Method::Vertex,
    Method::VertexEdge,
    Method::Iterative,
    Method::Entropy,
    Method::PatternTight,
    Method::HeuristicSimple,
    Method::HeuristicAdvanced,
];

/// Figure 7: exact approaches over event-set sizes 2..=11 on the real-like
/// dataset.
pub fn fig7(cfg: &SweepConfig) -> FigureResult {
    let xs: Vec<usize> = (2..=11).collect();
    run_grid(
        "Fig7",
        "#events",
        &xs,
        &EXACT_FIGURE_METHODS,
        cfg,
        |x, seed| {
            let ds = datasets::real_like_sized(cfg.traces, cfg.traces, seed);
            project_dataset(&ds, x)
        },
    )
}

/// Figure 8: exact approaches over trace counts 500..=3,000 (full 11
/// events).
pub fn fig8(cfg: &SweepConfig) -> FigureResult {
    let xs = [500, 1000, 1500, 2000, 2500, 3000];
    run_grid(
        "Fig8",
        "#traces",
        &xs,
        &EXACT_FIGURE_METHODS,
        cfg,
        |y, seed| {
            let ds = datasets::real_like_sized(3000, 3000, seed);
            truncate_traces(&ds, y)
        },
    )
}

/// Figure 9: heuristic approaches over event-set sizes.
pub fn fig9(cfg: &SweepConfig) -> FigureResult {
    let xs: Vec<usize> = (2..=11).collect();
    run_grid(
        "Fig9",
        "#events",
        &xs,
        &HEURISTIC_FIGURE_METHODS,
        cfg,
        |x, seed| {
            let ds = datasets::real_like_sized(cfg.traces, cfg.traces, seed);
            project_dataset(&ds, x)
        },
    )
}

/// Figure 10: heuristic approaches over trace counts.
pub fn fig10(cfg: &SweepConfig) -> FigureResult {
    let xs = [500, 1000, 1500, 2000, 2500, 3000];
    run_grid(
        "Fig10",
        "#traces",
        &xs,
        &HEURISTIC_FIGURE_METHODS,
        cfg,
        |y, seed| {
            let ds = datasets::real_like_sized(3000, 3000, seed);
            truncate_traces(&ds, y)
        },
    )
}

/// Figure 12: all approaches on the larger synthetic data, 10..=100 events
/// (1..=10 modules), `traces` traces per side.
pub fn fig12(cfg: &SweepConfig, traces: usize, max_modules: usize) -> FigureResult {
    let xs: Vec<usize> = (1..=max_modules).map(|m| m * 10).collect();
    run_grid("Fig12", "#events", &xs, &FIG12_METHODS, cfg, |x, seed| {
        datasets::larger_synthetic(x / 10, traces, seed)
    })
}

/// Table 3: dataset characteristics.
pub fn table3(seed: u64) -> Table {
    let mut t = Table::new(
        "Table 3: characteristics of the logs",
        &["dataset", "#traces", "#events", "#edges", "#patterns"],
    );
    let real = datasets::real_like(seed);
    let synth = datasets::larger_synthetic(10, 10_000, seed);
    let random = datasets::random_pair(4, 1000, seed);
    for (name, log, patterns) in [
        ("real-like", &real.pair.log1, real.patterns.len()),
        ("synthetic", &synth.pair.log1, synth.patterns.len()),
        ("random", &random.log1, 0),
    ] {
        let stats = log.stats();
        t.add_row(vec![
            name.to_owned(),
            stats.traces.to_string(),
            stats.events.to_string(),
            stats.edges.to_string(),
            patterns.to_string(),
        ]);
    }
    t
}

/// Methods compared in Table 4.
pub const TABLE4_METHODS: [Method; 3] = [
    Method::PatternTight,
    Method::HeuristicSimple,
    Method::HeuristicAdvanced,
];

/// Table 4: counts of returned mappings over `runs` random 4-event log
/// pairs — no mapping should be clearly favoured.
pub fn table4(runs: usize, base_seed: u64) -> Table {
    let n = 4usize;
    let perms = permutations(n);
    let mut counts = vec![[0usize; TABLE4_METHODS.len()]; perms.len()];
    for run in 0..runs {
        let pair = datasets::random_pair(n, 1000, base_seed + run as u64);
        for (mi, m) in TABLE4_METHODS.iter().enumerate() {
            let out = m.run(&pair, &[], Budget::UNLIMITED);
            if !out.finished() {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "perms enumerates all 4! injections of a 4x4 instance, and Finished \
                          mappings are complete"
            )]
            let idx = perms
                .iter()
                .position(|p| perm_matches(p, &out.mapping))
                .expect("complete 4-event mapping is one of the 24");
            counts[idx][mi] += 1;
        }
    }
    let mut t = Table::new(
        &format!("Table 4: returned mappings over {runs} random-log runs"),
        &["mapping", "Exact", "Heuristic-Simple", "Heuristic-Advanced"],
    );
    for (p, row) in perms.iter().zip(&counts) {
        let label = p
            .iter()
            .enumerate()
            .map(|(a, &b)| format!("u{a}->v{b}"))
            .collect::<Vec<_>>()
            .join(",");
        t.add_row(vec![
            label,
            row[0].to_string(),
            row[1].to_string(),
            row[2].to_string(),
        ]);
    }
    t
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(n: usize, cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for v in 0..n {
            if !used[v] {
                used[v] = true;
                cur.push(v);
                go(n, cur, used, out);
                cur.pop();
                used[v] = false;
            }
        }
    }
    let mut out = Vec::new();
    go(n, &mut Vec::new(), &mut vec![false; n], &mut out);
    out
}

fn perm_matches(perm: &[usize], mapping: &Mapping) -> bool {
    perm.iter().enumerate().all(|(a, &b)| {
        mapping.get(evematch_eventlog::EventId(a as u32))
            == Some(evematch_eventlog::EventId(b as u32))
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use evematch_core::telemetry::json;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            seeds: vec![11],
            budget: Budget::UNLIMITED
                .with_processed_cap(200_000)
                .with_deadline(Duration::from_secs(20)),
            workers: 2,
            traces: 60,
            checkpoint: None,
            retry: RetryPolicy::io_default(),
            faults: Arc::default(),
        }
    }

    #[test]
    fn fig7_shape_and_sanity() {
        let cfg = tiny_cfg();
        let fig = fig7(&cfg);
        assert_eq!(fig.f_measure.row_count(), 10);
        assert_eq!(fig.anytime_f.row_count(), 10);
        assert_eq!(fig.time.row_count(), 10);
        assert_eq!(fig.processed.row_count(), 10);
        // At 8 events (row 6; the vertex-only search may blow its budget
        // at full size), Pattern-Tight should be at least as accurate as
        // Vertex (columns: 1=Vertex, .., 5=Pattern-Tight).
        let vertex: f64 = fig.f_measure.cell(6, 1).parse().unwrap();
        let tight: f64 = fig.f_measure.cell(6, 5).parse().unwrap();
        assert!(tight >= vertex - 1e-9, "tight {tight} < vertex {vertex}");
        // One merged telemetry snapshot per method, with real work in it.
        assert_eq!(fig.metrics.len(), EXACT_FIGURE_METHODS.len());
        for (name, snap) in &fig.metrics {
            assert!(
                snap.counters.get("budget.processed").copied().unwrap_or(0) > 0,
                "{name}: merged snapshot has no processed work"
            );
        }
        // One merged phase profile per method: an index root and a search
        // root, the latter carrying the step count.
        assert_eq!(fig.profiles.len(), EXACT_FIGURE_METHODS.len());
        for (name, profile) in &fig.profiles {
            let names: Vec<&str> = profile.roots.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["index", "search"], "{name}: roots {names:?}");
            let work = profile.flat_work();
            assert!(
                work.get("search/pops").copied().unwrap_or(0) > 0,
                "{name}: search root has no pops"
            );
        }
    }

    #[test]
    fn table3_shape() {
        // Use small substitutes to keep the test fast: only assert shape
        // via the real function on a tiny scale is too slow, so check the
        // row/column layout of the full call lazily — generation itself is
        // linear in traces and acceptable at reduced trace counts.
        let t = table3(5);
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.cell(0, 2), "11");
        assert_eq!(t.cell(1, 2), "100");
        assert_eq!(t.cell(1, 4), "16");
        assert_eq!(t.cell(2, 2), "4");
    }

    #[test]
    fn table4_counts_sum_to_runs() {
        let t = table4(6, 100);
        assert_eq!(t.row_count(), 24);
        for col in 1..=3 {
            let sum: usize = (0..24)
                .map(|r| t.cell(r, col).parse::<usize>().unwrap())
                .sum();
            assert_eq!(sum, 6, "column {col}");
        }
    }

    /// A small deterministic grid for the checkpoint tests: pure-cap
    /// budget (no wall-clock deadline), so every run of the same job is
    /// bit-identical and byte-identity of resumed panels is meaningful.
    fn ckpt_cfg(dir: Option<PathBuf>) -> SweepConfig {
        SweepConfig {
            seeds: vec![11, 23],
            budget: Budget::UNLIMITED.with_processed_cap(200_000),
            workers: 2,
            traces: 40,
            checkpoint: dir,
            retry: RetryPolicy::io_default(),
            faults: Arc::default(),
        }
    }

    fn ckpt_grid(cfg: &SweepConfig) -> FigureResult {
        run_grid(
            "FigT",
            "#events",
            &[3, 4],
            &[Method::Vertex, Method::PatternTight],
            cfg,
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

    /// The deterministic panels (everything but wall-clock time).
    fn det_panels(fig: &FigureResult) -> [String; 3] {
        [
            csv(&fig.f_measure),
            csv(&fig.anytime_f),
            csv(&fig.processed),
        ]
    }

    #[test]
    fn killed_grid_resumes_byte_identically_from_damaged_journal() {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-grid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("FigT.journal");

        // Reference run without any checkpointing.
        let reference = ckpt_grid(&ckpt_cfg(None));
        // Checkpointed run from scratch: same numbers, and a full journal
        // (framed header + 4 jobs × one line).
        let checkpointed = ckpt_grid(&ckpt_cfg(Some(dir.clone())));
        assert_eq!(det_panels(&reference), det_panels(&checkpointed));
        let full = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(full.lines().count(), 5);
        assert!(full.starts_with(journal::JOURNAL_MAGIC));

        // Simulate a kill: the header and the first appended line survive
        // intact, followed by a torn half-line — exactly what
        // `persist::append_line` guarantees at worst — plus some unrelated
        // garbage (quarantined, never misread).
        let header = full.lines().next().unwrap();
        let first = full.lines().nth(1).unwrap();
        let torn = &full.lines().nth(2).unwrap()[..first.len() / 2];
        std::fs::write(&journal, format!("{header}\n{first}\nnot json\n{torn}")).unwrap();

        // Resume: one job replays, three recompute; the deterministic
        // panels are byte-identical to the uninterrupted run.
        let resumed = ckpt_grid(&ckpt_cfg(Some(dir.clone())));
        assert_eq!(det_panels(&reference), det_panels(&resumed));

        // The resume completed the journal, so a further rerun replays
        // everything — including the wall-clock panel, byte for byte.
        let replayed = ckpt_grid(&ckpt_cfg(Some(dir.clone())));
        assert_eq!(det_panels(&resumed), det_panels(&replayed));
        assert_eq!(csv(&resumed.time), csv(&replayed.time));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_from_another_config_is_rebuilt() {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut cfg = ckpt_cfg(Some(dir.clone()));
        ckpt_grid(&cfg);
        let journal = dir.join("FigT.journal");
        let before = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(before.lines().count(), 5, "header + 4 jobs");

        // A different budget changes the fingerprint: the header context
        // no longer matches, so the journal is rebuilt from scratch — a
        // fresh header and four fresh entries, none of the stale ones.
        cfg.budget = Budget::UNLIMITED.with_processed_cap(150_000);
        ckpt_grid(&cfg);
        let after = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(after.lines().count(), 5, "fresh header + 4 fresh jobs");
        assert_ne!(
            before.lines().next(),
            after.lines().next(),
            "the rebuilt header carries the new context"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_of_an_older_record_shape_is_rebuilt_not_quarantined() {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-shape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let reference = ckpt_grid(&ckpt_cfg(None));
        let cfg = ckpt_cfg(Some(dir.clone()));
        ckpt_grid(&cfg);

        // Rewrite the journal as a build of record shape 1 wrote it: the
        // same grid's entries under the `v1|` fingerprint, behind a header
        // for that fingerprint.
        let methods = [Method::Vertex, Method::PatternTight];
        let current = checkpoint::grid_fingerprint(
            "FigT",
            "#events",
            &[3, 4],
            &methods,
            &cfg.seeds,
            cfg.traces,
            &cfg.budget,
        );
        let old = current.replacen(&format!("v{}|", checkpoint::RECORD_SHAPE), "v1|", 1);
        assert_ne!(old, current);
        let quoted = |fp: &str| {
            let mut out = String::new();
            json::push_string(&mut out, fp);
            out
        };
        let journal = dir.join("FigT.journal");
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines = vec![journal::journal_header(&old)];
        for line in text.lines().skip(1) {
            let payload = journal::verify_record(line).unwrap();
            assert!(payload.contains(&quoted(&current)));
            lines.push(journal::frame_record(&payload.replacen(
                &quoted(&current),
                &quoted(&old),
                1,
            )));
        }
        assert_eq!(lines.len(), 5, "header + 4 jobs");
        std::fs::write(&journal, lines.join("\n") + "\n").unwrap();

        // The resume rebuilds the journal once at its header: no entry is
        // quarantined, and the panels equal a fresh run's.
        let resumed = ckpt_grid(&cfg);
        assert_eq!(det_panels(&reference), det_panels(&resumed));
        let integrity: Vec<(String, u64)> = resumed
            .faults
            .telemetry()
            .into_iter()
            .filter(|(k, _)| k.starts_with("integrity."))
            .collect();
        assert_eq!(
            integrity,
            [("integrity.journal_rebuilt.context_changed".to_owned(), 1)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_worker_degrades_its_cell_instead_of_killing_the_grid() {
        let cfg = SweepConfig {
            seeds: vec![11],
            budget: Budget::UNLIMITED.with_processed_cap(100_000),
            workers: 2,
            traces: 20,
            checkpoint: None,
            // No retries: the generator panics deterministically, so the
            // test asserts the quarantine outcome without backoff waits.
            retry: RetryPolicy::no_retries(),
            faults: Arc::default(),
        };
        let fig = run_grid(
            "FigP",
            "#events",
            &[2, 3],
            &[Method::Vertex],
            &cfg,
            |x, seed| {
                assert_ne!(x, 3, "injected generator failure");
                let ds = datasets::real_like_sized(cfg.traces, cfg.traces, seed);
                project_dataset(&ds, x)
            },
        );
        // The healthy x = 2 row is intact...
        let ok: f64 = fig.f_measure.cell(0, 1).parse().unwrap();
        assert!(ok.is_finite());
        // ...while the panicking x = 3 row degrades to DNF dashes.
        assert_eq!(fig.f_measure.cell(1, 1), "—");
        assert_eq!(fig.processed.cell(1, 1), "—");
        assert_eq!(fig.anytime_f.cell(1, 1), "0.000");
        // And the failure is visible in the merged telemetry.
        let (_, snap) = &fig.metrics[0];
        assert_eq!(snap.counters.get("grid.worker_panics"), Some(&1));
    }

    #[test]
    fn permutations_of_four() {
        let p = permutations(4);
        assert_eq!(p.len(), 24);
        let mut dedup = p.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 24);
    }
}
