//! Order-fulfillment scenario: the paper's motivating use case at scale.
//!
//! Two departments of a manufacturer run the same 11-step order process;
//! their ERP systems log it under independent encodings. We simulate both
//! logs (3,000 traces each by default — set `TRACES` to change), run every
//! matching approach, and compare accuracy and cost against the known
//! ground truth.
//!
//! Run with: `cargo run --release -p evematch --example order_fulfillment`

use evematch::eval::experiments; // for the method lists
use evematch::prelude::*;

fn main() {
    let traces: usize = std::env::var("TRACES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    let seed: u64 = std::env::var("SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);

    println!("simulating the order process: {traces} traces per department, seed {seed}");
    let ds = datasets::real_like_sized(traces, traces, seed);
    println!("L1: {}", ds.pair.log1.stats());
    println!("L2: {}", ds.pair.log2.stats());
    println!("declared complex patterns:");
    for p in &ds.patterns {
        println!("  {}", p.display(ds.pair.log1.events()));
    }

    // EVEMATCH_LIMIT_SECS / EVEMATCH_LIMIT_PROCESSED / EVEMATCH_LIMIT_FRONTIER
    // override the example's stock budget wholesale when any is set.
    let env_budget = Budget::from_env();
    let budget = if env_budget.is_unlimited() {
        Budget::UNLIMITED
            .with_processed_cap(5_000_000)
            .with_deadline(std::time::Duration::from_secs(120))
    } else {
        env_budget
    };

    let mut table = Table::new(
        "order fulfillment: all methods",
        &[
            "method",
            "F-measure",
            "precision",
            "recall",
            "time",
            "processed",
        ],
    );
    let methods = experiments::HEURISTIC_FIGURE_METHODS
        .iter()
        .chain([Method::Entropy, Method::PatternSimple].iter());
    let mut any_degraded = false;
    for m in methods {
        let out = m.run(&ds.pair, &ds.patterns, budget);
        let mark = if out.finished() { "" } else { "*" };
        any_degraded |= !out.finished();
        table.add_row(vec![
            format!("{}{mark}", m.name()),
            format!("{}{mark}", Table::fmt_f64(out.quality.f_measure)),
            format!("{}{mark}", Table::fmt_f64(out.quality.precision)),
            format!("{}{mark}", Table::fmt_f64(out.quality.recall)),
            Table::fmt_secs(out.elapsed.as_secs_f64()),
            out.processed().to_string(),
        ]);
    }
    println!("\n{table}");
    if any_degraded {
        println!("* budget exhausted: degraded anytime mapping (paper reports DNF)");
    }
}
