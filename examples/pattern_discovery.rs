//! Discovering discriminative patterns instead of declaring them.
//!
//! The paper assumes patterns are given (designed by analysts or mined by
//! frequent-episode discovery) and offers guidelines for choosing
//! discriminative ones. This example closes the loop: mine SEQ/AND
//! composites from `L1` with `discover_patterns`, then use them for
//! matching — no human-declared patterns at all.
//!
//! Run with: `cargo run --release -p evematch --example pattern_discovery`

use evematch::prelude::*;

fn main() {
    let seed: u64 = std::env::var("SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let ds = datasets::real_like_sized(800, 800, seed);

    // Logging jitter makes the dependency graph dense (many structural
    // twins) and thins window frequencies — loosen both filters.
    let cfg = DiscoveryConfig {
        min_support: 0.15,
        max_len: 4,
        max_patterns: 6,
        max_structural_twins: 200,
    };
    let mined = discover_patterns(&ds.pair.log1, &cfg);
    println!("mined {} composite patterns from L1:", mined.len());
    let idx = ds.pair.log1.trace_index();
    for p in &mined {
        println!(
            "  {}  (f1 = {:.3})",
            p.display(ds.pair.log1.events()),
            pattern_freq(p, &ds.pair.log1, &idx)
        );
    }

    let mut table = Table::new(
        "declared vs mined patterns",
        &["pattern source", "F-measure", "time"],
    );
    for (label, patterns) in [
        ("none (Vertex+Edge)", vec![]),
        ("declared (3 composites)", ds.patterns.clone()),
        ("mined", mined),
    ] {
        let method = if patterns.is_empty() {
            Method::VertexEdge
        } else {
            Method::PatternTight
        };
        // Unlimited unless EVEMATCH_LIMIT_* env vars say otherwise; a
        // tripped budget still yields a (flagged) degraded mapping.
        let out = method.run(&ds.pair, &patterns, Budget::from_env());
        let flag = if out.finished() { "" } else { "*" };
        table.add_row(vec![
            format!("{label}{flag}"),
            Table::fmt_f64(out.quality.f_measure),
            Table::fmt_secs(out.elapsed.as_secs_f64()),
        ]);
    }
    println!("\n{table}");
}
