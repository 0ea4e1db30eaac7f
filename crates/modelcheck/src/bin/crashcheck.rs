//! CI entry point for the crash-consistency explorer (DESIGN.md §14).
//!
//! Traces a small checkpointed grid run, replays every prefix of its
//! durable-op list (plus torn final-op variants) into sandboxes, runs
//! recovery from each simulated crash state, and asserts the recovery
//! invariant: deterministic panels byte-identical to the crash-free run
//! and an integrity-clean artifact directory. Then runs the
//! buggy-recovery self-test proving the checker catches wrong data that
//! passes the journal reader.
//!
//! Every crash point is explored. `EVEMATCH_CRASH_TRACES` sets the dataset
//! size per side (default 12); a malformed value stops the run with its
//! name.
//!
//! Exit code 0 = invariant held everywhere and the self-test caught the
//! seeded bug; 1 = any failure (evidence sandboxes are kept and their
//! paths printed).

use std::process::ExitCode;

use evematch_modelcheck::crashcheck::{buggy_recovery_self_test, explore, traces_from_env};

fn main() -> ExitCode {
    let traces = traces_from_env();
    println!("crashcheck: traces={traces}");

    let mut failed = false;
    match explore(traces) {
        Ok(report) => {
            print!("{}", report.render());
            failed |= !report.is_clean();
        }
        Err(e) => {
            eprintln!("crashcheck: explorer harness error: {e}");
            failed = true;
        }
    }

    match buggy_recovery_self_test(traces) {
        Ok(outcome) => {
            println!(
                "self-test: forged_divergence_caught={} verified_recovery_clean={}",
                outcome.forged_divergence_caught, outcome.verified_recovery_clean
            );
            if !outcome.forged_divergence_caught {
                eprintln!(
                    "crashcheck: SELF-TEST FAILED — replay of a forged (re-framed) \
                     journal record did not diverge; the checker would miss a \
                     buggy recovery"
                );
                failed = true;
            }
            if !outcome.verified_recovery_clean {
                eprintln!(
                    "crashcheck: SELF-TEST FAILED — verified recovery did not \
                     reproduce the reference panels"
                );
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("crashcheck: self-test harness error: {e}");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("crashcheck: OK");
        ExitCode::SUCCESS
    }
}
