//! Byte-identity where read masks collide. A bound's read mask keeps one
//! bit per target, `t mod 64`, so past 64 targets two targets share a bit
//! and the rescoring table must fall back to recomputing. These solves on
//! a 70-event instance must reproduce the committed record of their
//! mappings, score bits and deterministic counters.

use std::fmt::Write as _;

use evematch::prelude::*;

/// Every solve's mapping, score bits and deterministic metrics, one line
/// each per solve.
fn record(ds: &Dataset) -> String {
    let capped = Budget::UNLIMITED.with_processed_cap(20_000);
    let solves = [
        (Method::PatternTight, capped),
        (Method::PatternSimple, capped),
        (Method::VertexEdge, capped),
        (Method::HeuristicSimple, Budget::UNLIMITED),
        (Method::HeuristicAdvanced, capped),
    ];
    let mut out = String::new();
    for (method, budget) in solves {
        let run = method.run(&ds.pair, &ds.patterns, budget);
        let pairs: Vec<String> = run
            .mapping
            .pairs()
            .map(|(a, b)| format!("{}>{}", a.0, b.0))
            .collect();
        writeln!(out, "{}", method.name()).unwrap();
        writeln!(out, "mapping {}", pairs.join(" ")).unwrap();
        writeln!(out, "score {:016x}", run.score.to_bits()).unwrap();
        writeln!(out, "metrics {}", run.metrics.deterministic_json()).unwrap();
    }
    out
}

#[test]
fn solves_past_64_targets_reproduce_the_golden_record() {
    let ds = datasets::larger_synthetic(7, 200, 5);
    assert!(
        ds.pair.log2.events().len() > 64,
        "the instance must have over 64 targets"
    );
    let got = record(&ds);
    let want = include_str!("golden/read_mask_collisions.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the golden record", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
