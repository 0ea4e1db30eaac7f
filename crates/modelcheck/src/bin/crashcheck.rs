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
//! Environment knobs (a malformed value stops the run with its name):
//!
//! - `EVEMATCH_CRASH_MAX_OPS` — cap on explored crash scenarios
//!   (evenly sampled; the report states how many of the total ran).
//! - `EVEMATCH_CRASH_TRACES` — dataset size per side (default 12).
//!
//! Exit code 0 = invariant held everywhere and the self-test caught the
//! seeded bug; 1 = any failure (evidence sandboxes are kept and their
//! paths printed).

use std::process::ExitCode;

use evematch_modelcheck::crashcheck::{buggy_recovery_self_test, explore, CrashConfig};

fn main() -> ExitCode {
    let cfg = CrashConfig::from_env();
    println!(
        "crashcheck: traces={} max_scenarios={:?}",
        cfg.traces, cfg.max_scenarios
    );

    let mut failed = false;
    match explore(&cfg) {
        Ok(report) => {
            print!("{}", report.render());
            if report.explored < report.total {
                println!(
                    "note: bounded run — {} of {} scenarios explored \
                     (EVEMATCH_CRASH_MAX_OPS)",
                    report.explored, report.total
                );
            }
            failed |= !report.is_clean();
        }
        Err(e) => {
            eprintln!("crashcheck: explorer harness error: {e}");
            failed = true;
        }
    }

    match buggy_recovery_self_test(cfg.traces) {
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
