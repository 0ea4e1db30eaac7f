//! Regenerates every table and figure of the paper's evaluation in one go.
//!
//! Equivalent to running `repro_table3`, `repro_fig7` … `repro_fig12`,
//! `repro_table4` in sequence; see `evematch-bench`'s crate docs for the
//! environment knobs. A full-fidelity pass (3,000 / 10,000 traces, three
//! seeds) takes a while; set `EVEMATCH_TRACES`, `EVEMATCH_FIG12_TRACES`
//! and `EVEMATCH_TABLE4_RUNS` lower for a quick pass.
//!
//! Pass `--resume` (or set `EVEMATCH_RESUME`) to checkpoint each completed
//! sweep job under the output dir and resume a killed pass where it left
//! off. Exits with code 2 if a result artifact cannot be written.

use std::io;
use std::process::ExitCode;

use evematch_eval::experiments;

fn run() -> io::Result<()> {
    let cfg = evematch_bench::sweep_config();
    eprintln!(
        "reproduction pass: seeds {:?}, {} traces, workers {}{}",
        cfg.seeds,
        cfg.traces,
        cfg.workers,
        if cfg.checkpoint.is_some() {
            ", resumable"
        } else {
            ""
        }
    );

    let seed = cfg.seeds.first().copied().unwrap_or(11);
    evematch_bench::emit(
        &mut io::stdout(),
        &experiments::table3(seed),
        "table3",
        &cfg.faults,
    )?;

    evematch_bench::emit_figure(&mut io::stdout(), &experiments::fig7(&cfg), "fig7")?;
    evematch_bench::emit_figure(&mut io::stdout(), &experiments::fig8(&cfg), "fig8")?;
    evematch_bench::emit_figure(&mut io::stdout(), &experiments::fig9(&cfg), "fig9")?;
    evematch_bench::emit_figure(&mut io::stdout(), &experiments::fig10(&cfg), "fig10")?;

    let modules = evematch_bench::env_or("EVEMATCH_FIG12_MODULES", 10usize);
    evematch_bench::emit_figure(
        &mut io::stdout(),
        &experiments::fig12(&cfg, evematch_bench::fig12_traces(), modules),
        "fig12",
    )?;

    let runs = evematch_bench::env_or("EVEMATCH_TABLE4_RUNS", 200usize);
    evematch_bench::emit(
        &mut io::stdout(),
        &experiments::table4(runs, 0xE7E),
        "table4",
        &cfg.faults,
    )?;

    eprintln!("done; CSVs in {}", evematch_bench::out_dir()?.display());
    Ok(())
}

fn main() -> ExitCode {
    if let Err(err) = run() {
        eprintln!("error: failed to write results: {err}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
