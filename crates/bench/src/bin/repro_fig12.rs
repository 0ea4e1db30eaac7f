//! Regenerates Figure 12: all approaches on the larger synthetic data,
//! 10..=100 events.
//!
//! The exhaustive methods (Vertex+Edge and the exact pattern matchers) run
//! under the configured budget and report did-not-finish (`—`) once the
//! event count defeats them — the paper observes the same beyond 20 events.
//!
//! Pass `--resume` (or set `EVEMATCH_RESUME`) to checkpoint completed
//! sweep jobs and resume a killed run. Exits with code 2 if a result
//! artifact cannot be written.

use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = evematch_bench::sweep_config();
    let traces = evematch_bench::fig12_traces();
    let max_modules = evematch_bench::env_or("EVEMATCH_FIG12_MODULES", 10usize);
    eprintln!(
        "Figure 12 sweep: seeds {:?}, {traces} traces, up to {} events",
        cfg.seeds,
        max_modules * 10
    );
    let fig = evematch_eval::experiments::fig12(&cfg, traces, max_modules);
    if let Err(err) = evematch_bench::emit_figure(&mut std::io::stdout(), &fig, "fig12") {
        eprintln!("error: failed to write results: {err}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
