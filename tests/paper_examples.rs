//! Integration tests pinning the paper's running examples and theorems.

use evematch::prelude::*;

/// Examples 1–4: on the adversarial running-example instance, the exact
/// Vertex+Edge optimum is a wrong mapping while the exact pattern-based
/// optimum is the ground truth.
#[test]
fn examples_1_to_4_vertex_edge_misled_patterns_recover() {
    let ds = datasets::fig1_like();
    let ve = Method::VertexEdge.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
    let pat = Method::PatternTight.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
    assert!(ve.finished() && pat.finished(), "unlimited runs finish");
    let n = ds.pair.truth.len();
    assert!(
        ve.mapping.agreement_with(&ds.pair.truth) < n,
        "vertex+edge should be misled on the adversarial instance"
    );
    assert_eq!(
        pat.mapping.agreement_with(&ds.pair.truth),
        n,
        "pattern matching should recover the full truth"
    );
}

/// Example 4's mechanism: under the true mapping the mapped composite
/// exists in `L2` with high frequency; under the misleading vertex+edge
/// optimum at least one composite contributes strictly less.
#[test]
fn example_4_pattern_contribution_separates_the_mappings() {
    let ds = datasets::fig1_like();
    let full = PatternSetBuilder::new()
        .vertices()
        .edges()
        .complex_all(ds.patterns.iter().cloned());
    let ctx = MatchContext::new(ds.pair.log1.clone(), ds.pair.log2.clone(), full).unwrap();
    let truth_score = score::pattern_normal_distance(&ctx, &ds.pair.truth);

    // The vertex+edge optimum, rescored under the full pattern set, must
    // fall below the truth (that is *why* the pattern argmax flips).
    let ve = Method::VertexEdge.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
    assert!(ve.finished(), "finishes");
    let ve_rescored = score::pattern_normal_distance(&ctx, &ve.mapping);
    assert!(
        truth_score > ve_rescored + 1e-9,
        "truth {truth_score} must beat the misled mapping {ve_rescored} under patterns"
    );
}

/// Example 3's headline: vertex and vertex+edge normal distances are not
/// discriminative — the misled mapping scores at least as high as the
/// truth under Definition 2.
#[test]
fn example_3_normal_distance_prefers_the_wrong_mapping() {
    let ds = datasets::fig1_like();
    let dep1 = ds.pair.log1.dep_graph();
    let dep2 = ds.pair.log2.dep_graph();
    let ve = Method::VertexEdge.run(&ds.pair, &ds.patterns, Budget::UNLIMITED);
    assert!(ve.finished(), "finishes");
    let wrong = score::normal_distance_vertex_edge(&dep1, &dep2, &ve.mapping);
    let truth = score::normal_distance_vertex_edge(&dep1, &dep2, &ds.pair.truth);
    assert!(
        wrong >= truth - 1e-9,
        "the vertex+edge optimum ({wrong}) must not score below the truth ({truth})"
    );
}

/// Theorem 2 / Proposition 6: for vertex-only patterns the advanced
/// heuristic returns the optimal matching in polynomial time.
#[test]
fn theorem_2_vertex_patterns_solved_optimally_by_heuristic() {
    for seed in [3u64, 5, 8, 13] {
        let ds = datasets::real_like_sized(40, 40, seed);
        let ctx = MatchContext::new(
            ds.pair.log1.clone(),
            ds.pair.log2.clone(),
            PatternSetBuilder::new().vertices(),
        )
        .unwrap();
        let exact = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let heur = AdvancedHeuristic::new(BoundKind::Tight).solve(&ctx);
        assert!(
            (heur.score - exact.score).abs() < 1e-6,
            "seed {seed}: heuristic {} vs exact {}",
            heur.score,
            exact.score
        );
    }
}

/// Theorem 1's reduction, run end to end through the public API.
#[test]
fn theorem_1_reduction_decides_subgraph_isomorphism() {
    use evematch::graph::{is_subgraph_monomorphic, DiGraph};
    let cases = [
        // (pattern graph, host graph)
        (
            DiGraph::from_edges(3, [(0, 1), (1, 2)]),
            DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ),
        (
            DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]),
            DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        ),
        (
            DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
            DiGraph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
        ),
    ];
    for (g1, g2) in &cases {
        let inst = hardness::reduce(g1, g2);
        let ctx = MatchContext::new(
            inst.log1.clone(),
            inst.log2.clone(),
            PatternSetBuilder::new().complex_all(inst.patterns.iter().cloned()),
        )
        .unwrap();
        let out = ExactMatcher::new(BoundKind::Tight).solve(&ctx);
        let embeds = is_subgraph_monomorphic(g1, g2);
        assert_eq!(
            (out.score - inst.k as f64).abs() < 1e-9,
            embeds,
            "reduction equivalence failed"
        );
        if embeds {
            assert!(hardness::certifies_embedding(g1, g2, &out.mapping));
        }
    }
}

/// Proposition 3 in action: mapped patterns whose graph form cannot be
/// realized along `G2` dependency edges are pruned without log scans.
#[test]
fn proposition_3_existence_pruning_fires() {
    let ds = datasets::fig1_like();
    let ctx = MatchContext::new(
        ds.pair.log1.clone(),
        ds.pair.log2.clone(),
        PatternSetBuilder::new()
            .vertices()
            .edges()
            .complex_all(ds.patterns.iter().cloned()),
    )
    .unwrap();
    let out = ExactMatcher::new(BoundKind::Simple).solve(&ctx);
    let pruned = out.metrics.counters["eval.existence_pruned"];
    assert!(
        pruned > 0,
        "the search should hit unrealizable mapped patterns: {:?}",
        out.metrics.counters
    );
}

/// Figure 7c's mechanism in miniature: the tight bound expands no more
/// mappings than the simple bound, at an identical optimum.
#[test]
fn tight_bound_prunes_more_than_simple() {
    let ds = datasets::real_like_sized(150, 150, 21);
    let proj = evematch::eval::project_dataset(&ds, 8);
    let simple = Method::PatternSimple.run(&proj.pair, &proj.patterns, Budget::UNLIMITED);
    let tight = Method::PatternTight.run(&proj.pair, &proj.patterns, Budget::UNLIMITED);
    assert!(tight.processed() <= simple.processed());
    assert!(simple.finished() && tight.finished(), "both finish");
    let (s, t) = (simple.score, tight.score);
    assert!((s - t).abs() < 1e-9, "same optimum: {s} vs {t}");
}
