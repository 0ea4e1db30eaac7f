//! The benchmark's workloads and their seeded inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsString;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use evematch::prelude::*;

/// What one op of a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// One `evematch --quiet --method M [--limit-processed N] --patterns P
    /// L1 L2` invocation on `larger_synthetic(modules, traces, ·)`.
    Cli {
        /// The `--method` value.
        method: &'static str,
        /// Synthetic modules (10 events each).
        modules: usize,
        /// Traces per log.
        traces: usize,
        /// `--limit-processed`: a fixed amount of search work per op, so
        /// that the op costs the same on every seed.
        limit_processed: Option<u64>,
    },
    /// One `repro_fig12` invocation over `1..=modules` modules.
    Grid {
        /// `EVEMATCH_FIG12_MODULES`.
        modules: usize,
        /// `EVEMATCH_FIG12_TRACES`.
        traces: usize,
        /// `EVEMATCH_LIMIT_PROCESSED`.
        limit_processed: u64,
    },
}

/// A named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name used by `--workload` and in reports.
    pub name: &'static str,
    /// What each op runs.
    pub op: Op,
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cli-exact",
        op: Op::Cli {
            method: "exact",
            modules: 2,
            traces: 3000,
            limit_processed: Some(30_000),
        },
    },
    Workload {
        name: "cli-heuristic",
        op: Op::Cli {
            method: "advanced",
            modules: 4,
            traces: 1000,
            limit_processed: None,
        },
    },
    Workload {
        name: "cli-context",
        op: Op::Cli {
            method: "iterative",
            modules: 5,
            traces: 3000,
            limit_processed: None,
        },
    },
    Workload {
        name: "grid-fig12",
        op: Op::Grid {
            modules: 2,
            traces: 3000,
            limit_processed: 20_000,
        },
    },
];

/// CLI workloads cycle through this many generated log pairs, so that a
/// run's accuracy and latency do not hang on one draw of the generator.
pub const POOL: usize = 32;

/// Wall-clock budget handed to every op; never reached, so outcomes are
/// decided by the deterministic processed-mapping caps alone.
pub const LIMIT_SECS: u64 = 600;

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The dataset seed of pool instance `i` for benchmark seed `seed`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    seed + 1000 * i as u64
}

/// The environment a grid op runs under (every other `EVEMATCH_*`
/// variable is removed): three dataset seeds per cell, and two workers or
/// fewer on a smaller host.
pub fn grid_env(
    modules: usize,
    traces: usize,
    limit: u64,
    seed: u64,
    out: &Path,
) -> Vec<(&'static str, OsString)> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    vec![
        ("EVEMATCH_FIG12_MODULES", modules.to_string().into()),
        ("EVEMATCH_FIG12_TRACES", traces.to_string().into()),
        (
            "EVEMATCH_SEEDS",
            format!("{seed},{},{}", seed + 12, seed + 26).into(),
        ),
        ("EVEMATCH_LIMIT_PROCESSED", limit.to_string().into()),
        ("EVEMATCH_LIMIT_SECS", LIMIT_SECS.to_string().into()),
        ("EVEMATCH_WORKERS", workers.to_string().into()),
        ("EVEMATCH_OUT", out.as_os_str().to_owned()),
    ]
}

/// The files a CLI op reads.
#[derive(Clone, Debug)]
pub struct CliInputs {
    /// Source log.
    pub l1: PathBuf,
    /// Target log.
    pub l2: PathBuf,
    /// Declared patterns, one per line.
    pub patterns: PathBuf,
    /// Ground truth, one `source<TAB>target` pair per line.
    pub truth: PathBuf,
}

impl CliInputs {
    /// The file names under `dir`.
    pub fn under(dir: &Path) -> Self {
        CliInputs {
            l1: dir.join("l1.log"),
            l2: dir.join("l2.log"),
            patterns: dir.join("patterns.txt"),
            truth: dir.join("truth.tsv"),
        }
    }

    /// The `evematch` arguments of one op of `method` on these files.
    pub fn args(&self, method: &str, limit_processed: Option<u64>) -> Vec<OsString> {
        let mut args: Vec<OsString> = vec![
            "--quiet".into(),
            "--method".into(),
            method.into(),
            "--limit-secs".into(),
            LIMIT_SECS.to_string().into(),
        ];
        if let Some(n) = limit_processed {
            args.push("--limit-processed".into());
            args.push(n.to_string().into());
        }
        args.push("--patterns".into());
        args.extend([&self.patterns, &self.l1, &self.l2].map(|p| p.as_os_str().to_owned()));
        args
    }
}

/// One generated log pair, with what the output checker needs to know.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Its files.
    pub files: CliInputs,
    /// Its dataset seed.
    pub seed: u64,
    /// `V1`.
    pub v1: BTreeSet<String>,
    /// `V2`.
    pub v2: BTreeSet<String>,
    /// The ground truth `V1 → V2` by name.
    pub truth: BTreeMap<String, String>,
}

/// Writes `ds` as the four input files under `dir`.
pub fn write_inputs(ds: &Dataset, dir: &Path, seed: u64) -> io::Result<Instance> {
    std::fs::create_dir_all(dir)?;
    let files = CliInputs::under(dir);
    let (log1, log2) = (&ds.pair.log1, &ds.pair.log2);
    for (log, path) in [(log1, &files.l1), (log2, &files.l2)] {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write_log(log, &mut out)?;
        out.flush()?;
    }
    let mut out = BufWriter::new(std::fs::File::create(&files.patterns)?);
    for p in &ds.patterns {
        writeln!(out, "{}", p.display(log1.events()))?;
    }
    out.flush()?;
    let truth: BTreeMap<String, String> = ds
        .pair
        .truth
        .pairs()
        .map(|(a, b)| {
            let (a, b) = (log1.events().name(a), log2.events().name(b));
            (a.to_owned(), b.to_owned())
        })
        .collect();
    let mut out = BufWriter::new(std::fs::File::create(&files.truth)?);
    for (a, b) in &truth {
        writeln!(out, "{a}\t{b}")?;
    }
    out.flush()?;
    Ok(Instance {
        files,
        seed,
        v1: log1.events().names().map(str::to_owned).collect(),
        v2: log2.events().names().map(str::to_owned).collect(),
        truth,
    })
}

/// Generates and writes pool instances `0..count` for `seed` under
/// `dir/<i>/`.
pub fn write_pool(
    dir: &Path,
    modules: usize,
    traces: usize,
    seed: u64,
    count: usize,
) -> io::Result<Vec<Instance>> {
    (0..count)
        .map(|i| {
            let s = instance_seed(seed, i);
            let ds = datasets::larger_synthetic(modules, traces, s);
            write_inputs(&ds, &dir.join(i.to_string()), s)
        })
        .collect()
}

/// `benchmark gen`: writes every CLI workload's pool for `seed` under
/// `out/<workload>/<i>/`.
pub fn generate_all(out: &Path, seed: u64) -> io::Result<()> {
    for w in WORKLOADS {
        if let Op::Cli {
            modules, traces, ..
        } = w.op
        {
            let dir = out.join(w.name);
            write_pool(&dir, modules, traces, seed, POOL)?;
            println!("wrote {} ({POOL} log pairs)", dir.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("evematch-benchmark-{tag}-{}", std::process::id()))
    }

    fn read_all(dir: &Path) -> Vec<Vec<u8>> {
        let f = CliInputs::under(dir);
        [f.l1, f.l2, f.patterns, f.truth]
            .iter()
            .map(|p| std::fs::read(p).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_files() {
        let base = scratch("gen");
        let gen = |sub: &str, seed| {
            let dir = base.join(sub);
            write_inputs(&datasets::larger_synthetic(2, 200, seed), &dir, seed).unwrap();
            read_all(&dir)
        };
        let a = gen("a", 11);
        assert_eq!(a, gen("b", 11));
        assert_ne!(a, gen("c", 12));
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn pool_instances_differ_and_patterns_parse_back() {
        let base = scratch("pool");
        let pool = write_pool(&base, 2, 50, 11, 2).unwrap();
        assert_eq!(pool[0].seed, 11);
        assert_ne!(read_all(&base.join("0")), read_all(&base.join("1")));
        let file = std::fs::File::open(&pool[0].files.l1).unwrap();
        let log1 = read_log(io::BufReader::new(file)).unwrap();
        let text = std::fs::read_to_string(&pool[0].files.patterns).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            parse_pattern(line, log1.events()).unwrap();
        }
        assert_eq!(pool[0].truth.len(), 20);
        let _ = std::fs::remove_dir_all(&base);
    }
}
