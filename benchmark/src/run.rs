//! The end-to-end run: a closed loop of real `evematch` / `repro_fig12`
//! processes, one client, each op checked.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use evematch::core::persist::integrity::verify_dir;

use crate::check::{self, Reference, Tally};
use crate::report::{Metric, RunResult};
use crate::stats;
use crate::workload::{self, Instance, Op, Workload, POOL};

/// The seed the golden files were made at.
pub const GOLDEN_SEED: u64 = 11;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// How often the child's peak memory is read. Reading it every 1 ms slowed
/// a 0.2 s `cli-exact` op by 3–7% on a 2-vCPU host; every 5 ms did not.
const RSS_POLL: Duration = Duration::from_millis(5);

/// Where the benchmark finds its programs and keeps its files.
#[derive(Clone, Debug)]
pub struct Env {
    /// The directory holding `evematch`, `repro_fig12` and `benchmark`.
    pub bin_dir: PathBuf,
    /// `<target>/benchmark`: work files, `report.json`, `trace.json`,
    /// `layers.json`.
    pub out_dir: PathBuf,
    /// The committed golden files.
    pub golden_dir: PathBuf,
}

impl Env {
    /// The layout around the running executable.
    pub fn locate() -> io::Result<Env> {
        let exe = std::env::current_exe()?;
        let bin_dir = exe.parent().map(Path::to_path_buf).unwrap_or_default();
        let target = bin_dir.parent().map(Path::to_path_buf).unwrap_or_default();
        Ok(Env {
            bin_dir,
            out_dir: target.join("benchmark"),
            golden_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden")),
        })
    }

    fn golden_path(&self, w: &Workload) -> PathBuf {
        self.golden_dir.join(format!("{}.txt", w.name))
    }

    /// The committed golden output of `w`, or `None` off the golden seed.
    /// A missing file reads as empty, so every op fails its golden check.
    pub fn golden(&self, w: &Workload, seed: u64) -> Option<String> {
        (seed == GOLDEN_SEED)
            .then(|| std::fs::read_to_string(self.golden_path(w)).unwrap_or_default())
    }
}

/// One finished process.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Wall time from spawn to exit.
    pub wall_s: f64,
    /// Peak resident set (`VmHWM`), polled from `/proc/<pid>/status`.
    pub rss_kib: u64,
    /// Exit code (`None` if killed by a signal).
    pub code: Option<i32>,
    /// Captured standard output.
    pub stdout: Vec<u8>,
}

fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `cmd` to completion with its output in files under `work`,
/// polling its peak memory every [`RSS_POLL`]. Every `EVEMATCH_*` variable
/// of this process is withheld from it.
pub fn run_process(mut cmd: Command, work: &Path) -> io::Result<Measured> {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EVEMATCH_") {
            cmd.env_remove(key);
        }
    }
    let stdout_path = work.join("stdout");
    let stderr_path = work.join("stderr");
    cmd.stdin(Stdio::null())
        .stdout(std::fs::File::create(&stdout_path)?)
        .stderr(std::fs::File::create(&stderr_path)?);
    let start = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| io::Error::new(e.kind(), format!("cannot start {cmd:?}: {e}")))?;
    let pid = child.id();
    let (done, exited) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let status = child.wait();
        let end = Instant::now();
        let _ = done.send(());
        (status, end)
    });
    let mut rss_kib = 0;
    loop {
        let reading = vm_hwm_kib(pid);
        // A reading taken as the child exits may belong to a reused pid,
        // so only one followed by a timeout (the child still running)
        // counts.
        match exited.recv_timeout(RSS_POLL) {
            Err(RecvTimeoutError::Timeout) => rss_kib = rss_kib.max(reading.unwrap_or(0)),
            _ => break,
        }
    }
    let (status, end) = waiter
        .join()
        .map_err(|_| io::Error::other("process waiter panicked"))?;
    let status = status?;
    let stdout = std::fs::read(&stdout_path)?;
    if !status.success() && status.code() != Some(2) {
        let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        eprintln!(
            "benchmark: {cmd:?} exited with {status}: {}",
            stderr.trim_end()
        );
    }
    Ok(Measured {
        wall_s: (end - start).as_secs_f64(),
        rss_kib,
        code: status.code(),
        stdout,
    })
}

/// A prepared workload: its inputs, and how to run one op.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// The pool of log pairs (CLI workloads; for the grid, empty, or the
    /// one pair a traced run probes the read and index layers on).
    pub pool: Vec<Instance>,
    /// Each pool instance's reference output (the first op on it); for
    /// the grid, one entry.
    pub first: Vec<Option<Vec<u8>>>,
    /// Set-up times.
    pub setups: Vec<f64>,
    work: PathBuf,
    bin_dir: PathBuf,
    ops: usize,
}

impl Prepared {
    /// Prepares `w` under `env`: [`SETUP_REPS`] times input generation,
    /// file writes and one untimed warm-up op.
    pub fn new(env: &Env, w: Workload, seed: u64) -> io::Result<Prepared> {
        let work = env.out_dir.join("work").join(w.name);
        if work.exists() {
            std::fs::remove_dir_all(&work)?;
        }
        std::fs::create_dir_all(&work)?;
        let mut p = Prepared {
            workload: w,
            seed,
            pool: Vec::new(),
            first: Vec::new(),
            setups: Vec::new(),
            work,
            bin_dir: env.bin_dir.clone(),
            ops: 0,
        };
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            if let Op::Cli {
                modules, traces, ..
            } = w.op
            {
                p.pool = workload::write_pool(&p.work.join("pool"), modules, traces, seed, POOL)?;
            }
            let (n, out) = p.op(0)?;
            let _ = std::fs::remove_dir_all(p.grid_dir(n));
            p.first = vec![None; p.pool.len().max(1)];
            p.first[0] = Some(out.stdout);
            p.setups.push(t.elapsed().as_secs_f64());
        }
        Ok(p)
    }

    /// The grid output directory of op number `n`.
    fn grid_dir(&self, n: usize) -> PathBuf {
        self.work.join(format!("out-{n}"))
    }

    /// Runs one op on pool instance `i` (ignored by the grid). For the
    /// grid, `stdout` is replaced by the deterministic panels it wrote.
    pub fn op(&mut self, i: usize) -> io::Result<(usize, Measured)> {
        let n = self.ops;
        self.ops += 1;
        match self.workload.op {
            Op::Cli {
                method,
                limit_processed,
                ..
            } => {
                let mut cmd = Command::new(self.bin_dir.join("evematch"));
                cmd.args(self.pool[i].files.args(method, limit_processed));
                Ok((n, run_process(cmd, &self.work)?))
            }
            Op::Grid {
                modules,
                traces,
                limit_processed,
            } => {
                let dir = self.grid_dir(n);
                let mut cmd = Command::new(self.bin_dir.join("repro_fig12"));
                cmd.envs(workload::grid_env(
                    modules,
                    traces,
                    limit_processed,
                    self.seed,
                    &dir,
                ));
                let mut m = run_process(cmd, &self.work)?;
                m.stdout = check::grid_output(&dir);
                Ok((n, m))
            }
        }
    }

    /// Checks one op's output (and, for the grid, removes its directory).
    /// Returns the failed causes and the output's F-measure.
    pub fn check(
        &mut self,
        n: usize,
        i: usize,
        m: &Measured,
        golden: Option<&str>,
    ) -> (Vec<check::Cause>, f64) {
        let dir = self.grid_dir(n);
        let first = self.first[i].get_or_insert_with(|| m.stdout.clone());
        match self.workload.op {
            Op::Cli {
                limit_processed, ..
            } => {
                let key = format!("instance-{i}");
                let refs = Reference {
                    first: Some(first),
                    golden: golden.map(|g| check::section(g, &key).unwrap_or("").as_bytes()),
                };
                check::check_cli(
                    m.code,
                    &m.stdout,
                    &self.pool[i],
                    limit_processed.is_some(),
                    refs,
                )
            }
            Op::Grid { .. } => {
                let clean = verify_dir(&dir).is_ok_and(|r| r.is_clean());
                let refs = Reference {
                    first: Some(first),
                    golden: golden.map(str::as_bytes),
                };
                let causes = check::check_grid(m.code, &m.stdout, clean, refs);
                let _ = std::fs::remove_dir_all(&dir);
                (causes, check::grid_f_measure(&m.stdout))
            }
        }
    }

    /// The reference outputs in golden-file layout.
    pub fn golden_text(&self) -> String {
        let text = |o: &Option<Vec<u8>>| {
            String::from_utf8_lossy(o.as_deref().unwrap_or_default()).into_owned()
        };
        match self.workload.op {
            Op::Cli { .. } => self
                .first
                .iter()
                .enumerate()
                .map(|(i, o)| format!("## instance-{i}\n{}", text(o)))
                .collect(),
            Op::Grid { .. } => text(&self.first[0]),
        }
    }

    /// Removes the work files.
    pub fn clean(self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Ops of a closed loop: `(pool instance, op number, result)`.
pub type Samples = Vec<(usize, usize, Measured)>;

/// Runs ops back to back until `seconds` have passed and every pool
/// instance has run at least once. Returns the samples and the window.
pub fn closed_loop(p: &mut Prepared, seconds: f64) -> io::Result<(Samples, f64)> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let min_ops = p.pool.len().max(1);
    while start.elapsed().as_secs_f64() < seconds || samples.len() < min_ops {
        let i = samples.len() % min_ops;
        let (n, m) = p.op(i)?;
        samples.push((i, n, m));
    }
    Ok((samples, start.elapsed().as_secs_f64()))
}

/// Checks every sample; returns the tally and the mean F-measure over
/// pool instances.
pub fn check_samples(p: &mut Prepared, samples: &Samples, golden: Option<&str>) -> (Tally, f64) {
    let mut tally = Tally::default();
    let mut f = vec![None; p.first.len()];
    for (i, n, m) in samples {
        let (causes, fi) = p.check(*n, *i, m, golden);
        tally.record(&causes);
        f[*i].get_or_insert(fi);
    }
    let fs: Vec<f64> = f.into_iter().flatten().collect();
    (tally, stats::mean(&fs))
}

/// The end-to-end metrics of a checked closed loop.
pub fn e2e_metrics(
    samples: &Samples,
    window_s: f64,
    f: f64,
    instances: usize,
    setups: &[f64],
    tally: &Tally,
) -> Vec<Metric> {
    let walls: Vec<f64> = samples.iter().map(|s| s.2.wall_s).collect();
    let rss: Vec<f64> = samples
        .iter()
        .map(|s| s.2.rss_kib as f64 / 1024.0)
        .collect();
    let n = samples.len();
    [
        stats::nearest_rank(&walls, 50.0).and_then(|v| Metric::new("latency_s.p50", v, n)),
        stats::tail_percentile(&walls, 90.0, 10).and_then(|v| Metric::new("latency_s.p90", v, n)),
        Metric::new("ops_per_s", stats::ratio(n as f64, window_s), n),
        Metric::new("f_measure", f, instances),
        stats::nearest_rank(&rss, 50.0).and_then(|v| Metric::new("peak_rss_mib", v, n)),
        stats::nearest_rank(setups, 50.0).and_then(|v| Metric::new("setup_s", v, setups.len())),
        Metric::new("failed_frac", tally.failed_frac(), tally.attempted as usize),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// One end-to-end run of `w`: set-up, a closed loop of `seconds`, checks.
/// With `bless`, the golden file is rewritten from the run's outputs
/// instead of checked.
pub fn run(env: &Env, w: Workload, seed: u64, seconds: f64, bless: bool) -> io::Result<RunResult> {
    let mut p = Prepared::new(env, w, seed)?;
    let (samples, window) = closed_loop(&mut p, seconds)?;
    let golden = if bless { None } else { env.golden(&w, seed) };
    let (tally, f) = check_samples(&mut p, &samples, golden.as_deref());
    if bless {
        std::fs::create_dir_all(&env.golden_dir)?;
        std::fs::write(env.golden_path(&w), p.golden_text())?;
    }
    let metrics = e2e_metrics(&samples, window, f, p.first.len(), &p.setups, &tally);
    p.clean();
    Ok(RunResult {
        workload: w.name,
        seed,
        tally,
        metrics,
    })
}
