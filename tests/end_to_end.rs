//! Cross-crate end-to-end pipelines: generate → index → match → evaluate.

use evematch::prelude::*;

/// Every method completes the full pipeline on a mid-size real-like pair
/// and produces a complete, injective mapping.
#[test]
fn all_methods_run_the_full_pipeline() {
    let ds = datasets::real_like_sized(200, 200, 7);
    for m in ALL_METHODS {
        let out = m.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
        assert!(out.finished(), "{} did not finish", m.name());
        assert!(out.mapping.is_complete(), "{} incomplete", m.name());
        let mut images: Vec<_> = out.mapping.pairs().map(|(_, b)| b).collect();
        images.sort();
        images.dedup();
        assert_eq!(images.len(), ds.pair.log1.event_count(), "{}", m.name());
    }
}

/// Structure-aware methods should comfortably beat the structure-blind
/// entropy baseline on clean heterogeneous pairs (averaged over seeds).
#[test]
fn structural_methods_beat_entropy_on_average() {
    let mut entropy = 0.0;
    let mut tight = 0.0;
    let mut advanced = 0.0;
    let seeds = [1u64, 2, 3, 4, 5];
    for &seed in &seeds {
        let ds = datasets::real_like_sized(400, 400, seed);
        entropy += Method::Entropy
            .run(&ds.pair, &ds.patterns, Budget::UNLIMITED)
            .f_measure();
        tight += Method::PatternTight
            .run(&ds.pair, &ds.patterns, Budget::UNLIMITED)
            .f_measure();
        advanced += Method::HeuristicAdvanced
            .run(&ds.pair, &ds.patterns, Budget::UNLIMITED)
            .f_measure();
    }
    let n = seeds.len() as f64;
    assert!(
        tight / n > entropy / n,
        "pattern exact {tight} should beat entropy {entropy}"
    );
    assert!(
        advanced / n > entropy / n,
        "advanced heuristic {advanced} should beat entropy {entropy}"
    );
}

/// The event-projection sweep preserves the pipeline invariants at every
/// size.
#[test]
fn projection_sweep_is_well_formed() {
    let ds = datasets::real_like_sized(120, 120, 9);
    for x in 2..=11 {
        let p = evematch::eval::project_dataset(&ds, x);
        let out = Method::HeuristicAdvanced.run(&p.pair, &p.patterns, Budget::UNLIMITED);
        assert!(out.finished(), "heuristics always finish");
        assert_eq!(out.mapping.len(), x);
    }
}

/// Pattern discovery feeds the matcher without any declared pattern.
#[test]
fn mined_patterns_plug_into_the_matcher() {
    let ds = datasets::real_like_sized(300, 300, 13);
    // Swap noise densifies the dependency graph (structural twins are
    // common) and thins window frequencies; loosen both filters.
    let cfg = DiscoveryConfig {
        min_support: 0.15,
        max_len: 4,
        max_patterns: 5,
        max_structural_twins: 200,
    };
    let mined = discover_patterns(&ds.pair.log1, &cfg);
    assert!(!mined.is_empty(), "discovery should find composites");
    let out = Method::HeuristicAdvanced.run(&ds.pair, &mined, Budget::UNLIMITED);
    assert!(out.finished());
    assert!(out.f_measure() > 0.3, "mined-pattern F {}", out.f_measure());
}

/// Logs round-trip through the text format and produce identical matching
/// results.
#[test]
fn matching_is_invariant_under_io_roundtrip() {
    let ds = datasets::real_like_sized(80, 80, 17);
    let roundtrip = |log: &EventLog| -> EventLog {
        let mut buf = Vec::new();
        write_log(log, &mut buf).unwrap();
        read_log(buf.as_slice()).unwrap()
    };
    let pair2 = LogPair {
        log1: roundtrip(&ds.pair.log1),
        log2: roundtrip(&ds.pair.log2),
        truth: ds.pair.truth.clone(),
    };
    let a = Method::HeuristicAdvanced.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
    let b = Method::HeuristicAdvanced.run(&pair2, &ds.patterns, Budget::UNLIMITED);
    assert!(a.finished() && b.finished(), "both finish");
    // Re-reading interns events by first occurrence, so ids may permute;
    // compare the mappings at the name level.
    let names = |pair: &LogPair, m: &Mapping| -> std::collections::BTreeMap<String, String> {
        m.pairs()
            .map(|(x, y)| {
                (
                    pair.log1.events().name(x).to_owned(),
                    pair.log2.events().name(y).to_owned(),
                )
            })
            .collect()
    };
    assert_eq!(names(&ds.pair, &a.mapping), names(&pair2, &b.mapping));
}

/// Larger synthetic data: heuristics finish on 30+ events while the exact
/// matcher under a tiny budget reports DNF — the Figure-12 mechanism.
#[test]
fn heuristics_scale_where_exact_search_gives_up() {
    let ds = datasets::larger_synthetic(3, 150, 19);
    assert_eq!(ds.pair.log1.event_count(), 30);
    let tiny = Budget::UNLIMITED.with_processed_cap(20_000);
    let exact = Method::PatternTight.run(&ds.pair, &ds.patterns, tiny);
    assert!(
        !exact.finished(),
        "30-event exact search should exceed 20k mappings"
    );
    // The anytime engine still salvages a complete degraded mapping.
    assert!(exact.mapping.is_complete());
    assert!(exact
        .completion
        .optimality_gap()
        .is_some_and(|gap| gap >= 0.0));
    let heur = Method::HeuristicAdvanced.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
    assert!(heur.finished());
    assert!(
        heur.f_measure() > 0.2,
        "heuristic F {} too low",
        heur.f_measure()
    );
}
