//! Regenerates Table 3: characteristics of the three datasets.
//!
//! Honors the `EVEMATCH_FAULT_SCHEDULE` / `EVEMATCH_FAULT_SEED` chaos knobs
//! for its artifact write. Exits with code 2 if the result artifact cannot
//! be written.

use std::process::ExitCode;

fn main() -> ExitCode {
    let seed = evematch_bench::seeds()[0];
    let t = evematch_eval::experiments::table3(seed);
    let faults = evematch_bench::faults_from_env();
    if let Err(err) = evematch_bench::emit(&mut std::io::stdout(), &t, "table3", &faults) {
        eprintln!("error: failed to write results: {err}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
