//! Regenerates Table 4: counts of returned mappings over random logs.
//!
//! `EVEMATCH_TABLE4_RUNS` controls the number of random log pairs
//! (paper: 1,000; default here 200 to keep a full reproduction pass
//! affordable — the uniformity conclusion is insensitive to the count).
//!
//! Honors the `EVEMATCH_FAULT_SCHEDULE` / `EVEMATCH_FAULT_SEED` chaos knobs
//! for its artifact write. Exits with code 2 if the result artifact cannot
//! be written.

use std::process::ExitCode;

fn main() -> ExitCode {
    let runs = evematch_bench::env_or("EVEMATCH_TABLE4_RUNS", 200usize);
    eprintln!("Table 4: {runs} random-log runs");
    let t = evematch_eval::experiments::table4(runs, 0xE7E);
    let faults = evematch_bench::faults_from_env();
    if let Err(err) = evematch_bench::emit(&mut std::io::stdout(), &t, "table4", &faults) {
        eprintln!("error: failed to write results: {err}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
