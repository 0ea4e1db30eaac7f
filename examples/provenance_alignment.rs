//! Provenance alignment in the presence of decoy events.
//!
//! A provenance-analysis scenario from the paper's introduction: the same
//! data-preparation workflow is executed in two sectors, but the second
//! sector's log contains *extra* bookkeeping events with no counterpart.
//! Structure-only matching is drawn to the decoys; pattern anchoring
//! recovers the true step correspondence.
//!
//! This runs on the workspace's adversarial running-example instance
//! (`datasets::fig1_like`), where the exact Vertex+Edge optimum is provably
//! a wrong mapping while the pattern-based optimum is the ground truth.
//!
//! Run with: `cargo run -p evematch --example provenance_alignment`

use evematch::prelude::*;

fn show_mapping(label: &str, ds: &Dataset, mapping: &Mapping) {
    println!("{label}:");
    for (a, b) in mapping.pairs() {
        let ok = ds.pair.truth.get(a) == Some(b);
        println!(
            "  {:3} -> {:5} {}",
            ds.pair.log1.events().name(a),
            ds.pair.log2.events().name(b),
            if ok { "✓" } else { "✗" }
        );
    }
}

fn main() {
    let ds = datasets::fig1_like();
    println!(
        "workflow with {} steps; the second log has {} events ({} decoys)\n",
        ds.pair.log1.event_count(),
        ds.pair.log2.event_count(),
        ds.pair.log2.event_count() - ds.pair.log1.event_count()
    );

    // Unlimited unless EVEMATCH_LIMIT_* env vars say otherwise; a tripped
    // budget still yields a (flagged) degraded mapping.
    let budget = Budget::from_env();
    let ve = Method::VertexEdge.run(&ds.pair, &ds.patterns, budget);
    let pat = Method::PatternTight.run(&ds.pair, &ds.patterns, budget);
    let flag = |out: &RunOutcome| if out.finished() { "" } else { " [degraded]" };

    show_mapping(
        &format!("Vertex+Edge (structure only){}", flag(&ve)),
        &ds,
        &ve.mapping,
    );
    println!("  F-measure: {:.3}\n", ve.quality.f_measure);
    show_mapping(
        &format!("Pattern-based (with composites){}", flag(&pat)),
        &ds,
        &pat.mapping,
    );
    println!("  F-measure: {:.3}\n", pat.quality.f_measure);
    println!("declared composites that anchored the alignment:");
    for p in &ds.patterns {
        println!("  {}", p.display(ds.pair.log1.events()));
    }
}
