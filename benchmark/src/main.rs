//! `benchmark` — the evematch repository benchmark.
//!
//! ```text
//! USAGE:
//!     benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                     [--runs N] [--bless]
//!     benchmark trace [--workload NAME] [--seed N] [--seconds S]
//!     benchmark gen [--seed N] [--out DIR]
//!     benchmark compare A.json B.json
//! ```
//!
//! `run` drives the `evematch` and `repro_fig12` binaries found next to
//! this executable in a closed loop and prints every end-to-end metric;
//! `--trace 1` (or `trace`) replays the ops in-process and prints the
//! per-layer metrics instead. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Reports go
//! to `<target>/benchmark/`. See README.md.

mod check;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Host, RunResult, Spec};
use run::Env;
use workload::Workload;

#[derive(Debug)]
struct Args {
    command: String,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    bless: bool,
    out: PathBuf,
    files: Vec<String>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut raw = std::env::args().skip(1).peekable();
    let command = match raw.peek().map(String::as_str) {
        Some("run" | "trace" | "gen" | "compare") => raw.next().unwrap_or_default(),
        _ => "run".to_owned(),
    };
    let mut args = Args {
        trace: command == "trace",
        command,
        workloads: workload::WORKLOADS.to_vec(),
        seed: run::GOLDEN_SEED,
        seconds: spec.run_seconds,
        runs: 1,
        bless: false,
        out: PathBuf::from("benchmark-inputs"),
        files: Vec::new(),
    };
    while let Some(arg) = raw.next() {
        let mut value = |name: &str| {
            raw.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w =
                    workload::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--bless" => args.bless = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            file => args.files.push(file.to_owned()),
        }
    }
    if args.bless && args.seed != run::GOLDEN_SEED {
        return Err(format!(
            "--bless writes the golden files of seed {}",
            run::GOLDEN_SEED
        ));
    }
    Ok(args)
}

/// The checkout's commit, read from `.git` without running git.
fn git_sha() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_run(r: &RunResult) {
    println!(
        "{} (seed {}): {} ops, {} failed {:?}",
        r.workload, r.seed, r.tally.attempted, r.tally.failed, r.tally.causes
    );
    for m in &r.metrics {
        println!("  {:<32} {:>14.6}  n={}", m.name, m.value, m.n);
    }
    if let (Some(ops), None) = (r.get("ops_per_s"), r.get("latency_s.p90")) {
        println!(
            "  {:<32} {:>14}  n={} (fewer than ten samples beyond it)",
            "latency_s.p90", "-", ops.n
        );
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main_run(args: &Args, spec: &Spec) -> Result<bool, String> {
    let env = Env::locate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&env.out_dir).map_err(|e| e.to_string())?;
    let host = Host {
        parallelism: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        git_sha: git_sha(),
    };
    let mut runs = Vec::new();
    if args.trace {
        let mut traced = Vec::new();
        for w in &args.workloads {
            let t = trace::trace(&env, *w, args.seed, args.seconds)
                .map_err(|e| format!("{}: {e}", w.name))?;
            print_run(&t.run);
            runs.push(t.run.clone());
            traced.push(t);
        }
        write(
            &env.out_dir.join("trace.json"),
            &trace::chrome_trace(&traced),
        )?;
    } else {
        for r in 0..args.runs {
            for w in &args.workloads {
                let result = run::run(&env, *w, args.seed + r, args.seconds, args.bless)
                    .map_err(|e| format!("{}: {e}", w.name))?;
                print_run(&result);
                runs.push(result);
            }
        }
    }
    let report = report::report_json(&host, args.seed, args.seconds, &runs, spec);
    let name = if args.trace {
        "layers.json"
    } else {
        "report.json"
    };
    write(&env.out_dir.join(name), &report)?;
    println!(
        "host_parallelism={} git_sha={}",
        host.parallelism, host.git_sha
    );
    let specs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", report::result_line(&runs, specs));
    Ok(runs.iter().all(|r| r.tally.failed == 0))
}

fn main() -> ExitCode {
    let spec = report::spec();
    let args = match parse_args(&spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: see the benchmark README");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "gen" => workload::generate_all(&args.out, args.seed)
            .map(|()| true)
            .map_err(|e| e.to_string()),
        "compare" => match args.files.as_slice() {
            [a, b] => {
                let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
                read(a).and_then(|a| {
                    let (table, worse) = report::compare(&a, &read(b)?, &spec)?;
                    print!("{table}");
                    Ok(!worse)
                })
            }
            _ => Err("compare takes two report files".into()),
        },
        _ => main_run(&args, &spec),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use evematch::prelude::MetricsSnapshot;

    use crate::report::{spec, Metric, MetricSpec, REPORT_ONLY};
    use crate::run::{e2e_metrics, Measured};
    use crate::trace::{layer_metrics, GridLayers, LayerInput};

    fn names(metrics: &[Metric]) -> BTreeSet<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    }

    fn spec_names(specs: &[MetricSpec]) -> BTreeSet<String> {
        specs.iter().map(|m| m.name.clone()).collect()
    }

    /// Emitted names minus the declared report-only extras.
    fn driver_facing(metrics: &[Metric]) -> BTreeSet<String> {
        let extra: BTreeSet<&str> = REPORT_ONLY.iter().map(|(n, _)| *n).collect();
        names(metrics)
            .into_iter()
            .filter(|n| !extra.contains(n.as_str()))
            .collect()
    }

    #[test]
    fn end_to_end_names_match_benchmark_json_both_ways() {
        let samples = (0..120)
            .map(|i| {
                let m = Measured {
                    wall_s: 0.1 + i as f64 * 1e-4,
                    rss_kib: 4096,
                    code: Some(0),
                    stdout: Vec::new(),
                };
                (i % 4, i, m)
            })
            .collect();
        let mut tally = crate::check::Tally::default();
        tally.record(&[]);
        let metrics = e2e_metrics(&samples, 12.0, 0.9, 4, &[0.5, 0.6, 0.7], &tally);
        assert_eq!(driver_facing(&metrics), spec_names(&spec().end_to_end));
        assert!(names(&metrics).contains("latency_s.p90"));
    }

    #[test]
    fn per_layer_names_match_benchmark_json_both_ways() {
        let mut x = LayerInput {
            op_s: 1.0,
            read_s: 0.1,
            ..LayerInput::default()
        };
        x.metrics = MetricsSnapshot::default();
        for c in [
            "budget.processed",
            "eval.cache_hits",
            "eval.cache_misses",
            "eval.cache.shared_hits",
            "frequency.candidate_traces",
            "frequency.matched_traces",
        ] {
            x.metrics.set_counter(c, 7);
        }
        x.work.insert("search/pops".into(), 3);
        let mut metrics = layer_metrics(&x);
        // `trace` adds the end-to-end delta over a whole traced run.
        metrics.extend(Metric::new("op.e2e_delta_s", 0.01, 1));
        let want = spec_names(&spec().per_layer);
        assert_eq!(driver_facing(&metrics), want);
        assert_eq!(names(&metrics), want, "a CLI op emits no report-only layer");
        x.grid = Some(GridLayers::default());
        assert_eq!(driver_facing(&layer_metrics(&x)).len() + 1, want.len());
    }
}
