//! Quickstart: match two tiny heterogeneous logs with a declared pattern.
//!
//! Run with: `cargo run -p evematch --example quickstart`

use evematch::prelude::*;

fn main() {
    // Department 1 logs readable step names; the order of the concurrent
    // payment / inventory-check steps varies per order.
    let mut b1 = LogBuilder::new();
    for _ in 0..6 {
        b1.push_named_trace(["receive", "pay", "check", "ship", "invoice"]);
    }
    for _ in 0..4 {
        b1.push_named_trace(["receive", "check", "pay", "ship", "invoice"]);
    }
    let log1 = b1.build();

    // Department 2 logs the same process under opaque codes — and the
    // concurrency is biased the other way.
    let mut b2 = LogBuilder::new();
    for _ in 0..3 {
        b2.push_named_trace(["K4", "K1", "K7", "K2", "K9"]);
    }
    for _ in 0..7 {
        b2.push_named_trace(["K4", "K7", "K1", "K2", "K9"]);
    }
    let log2 = b2.build();

    println!("L1: {}", log1.stats());
    println!("L2: {}", log2.stats());

    // Declare the composite the analysts know: payment and inventory check
    // run concurrently between receive and ship.
    let p1 = parse_pattern("SEQ(receive, AND(pay, check), ship)", log1.events())
        .expect("pattern parses against L1's vocabulary");
    println!("pattern: {} ", p1.display(log1.events()));

    let ctx = MatchContext::new(
        log1,
        log2,
        PatternSetBuilder::new().vertices().edges().complex(p1),
    )
    .expect("|V1| <= |V2|");

    // Unlimited unless EVEMATCH_LIMIT_* env vars say otherwise.
    let result = ExactMatcher::new(BoundKind::Tight)
        .with_budget(Budget::from_env())
        .solve(&ctx);

    match result.completion.optimality_gap() {
        None => println!(
            "\noptimal mapping (pattern normal distance {:.3}, {} mappings processed):",
            result.score,
            result.processed()
        ),
        Some(gap) => println!(
            "\nbudget exhausted — degraded mapping (distance {:.3}, gap ≤ {:.3}, {} processed):",
            result.score,
            gap,
            result.processed()
        ),
    }
    for (a, b) in result.mapping.pairs() {
        println!(
            "  {:10} -> {}",
            ctx.log1().events().name(a),
            ctx.log2().events().name(b)
        );
    }
}
