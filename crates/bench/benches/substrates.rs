//! Criterion benches over the substrates the matchers stand on: dependency
//! graphs, trace indices, pattern frequency evaluation, assignment, and
//! subgraph monomorphism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use evematch_core::assignment::max_weight_assignment;
use evematch_datagen::datasets;
use evematch_eventlog::EventLog;
use evematch_graph::{is_subgraph_monomorphic, DiGraph};
use evematch_pattern::{EvaluatedPattern, PatternGraph, SupportStats};

fn big_log() -> EventLog {
    datasets::real_like_sized(3000, 3000, 11).pair.log1
}

/// Definition-1 construction cost over the full 3,000-trace log.
fn bench_dep_graph(c: &mut Criterion) {
    let log = big_log();
    c.bench_function("dep_graph_3000_traces", |b| {
        b.iter(|| black_box(black_box(&log).dep_graph().edge_count()));
    });
}

/// Inverted-index construction and intersection (Section 3.2.3).
fn bench_trace_index(c: &mut Criterion) {
    let log = big_log();
    c.bench_function("trace_index_build", |b| {
        b.iter(|| black_box(black_box(&log).trace_index().event_count()));
    });
    let idx = log.trace_index();
    let events: Vec<_> = log.events().ids().take(4).collect();
    c.bench_function("trace_index_intersect4", |b| {
        b.iter(|| black_box(idx.traces_with_all(black_box(&events))).len());
    });
}

/// Pattern support through the one scan (`EvaluatedPattern::scan` over
/// the log's arena, as the evaluator runs it), with and without the index
/// prefilter effect: a frequent composite vs a never-matching one.
fn bench_pattern_frequency(c: &mut Criterion) {
    let ds = datasets::real_like_sized(3000, 3000, 11);
    let log = &ds.pair.log1;
    let idx = log.trace_index();
    let mut group = c.benchmark_group("pattern_support_3000");
    for (name, p) in [
        ("frequent_composite", ds.patterns[0].clone()),
        ("branch_composite", ds.patterns[1].clone()),
    ] {
        let ep = EvaluatedPattern::new(p, log, &idx);
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(ep.scan(
                    black_box(&ep.events),
                    &idx,
                    log.columns(),
                    &mut || true,
                    &mut SupportStats::default(),
                ))
            });
        });
    }
    group.finish();
}

/// Kuhn–Munkres assignment at growing sizes.
fn bench_assignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for n in [10usize, 30, 100] {
        // Deterministic pseudo-random weights.
        let w: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| (((i * 31 + j * 17) % 97) as f64) / 97.0)
                    .collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &w, |b, w| {
            b.iter(|| black_box(max_weight_assignment(black_box(w))));
        });
    }
    group.finish();
}

/// Subgraph monomorphism: a pattern graph into a dependency graph
/// (structural-probe / hardness-reduction workload).
fn bench_monomorphism(c: &mut Criterion) {
    let ds = datasets::real_like_sized(500, 500, 11);
    let dep = ds.pair.log1.dep_graph();
    let pg = PatternGraph::of(&ds.patterns[0]);
    c.bench_function("monomorphism_pattern_into_dep", |b| {
        b.iter(|| black_box(is_subgraph_monomorphic(pg.graph(), dep.graph())));
    });
    // A harder instance: path into a dense-ish random graph.
    let path = DiGraph::from_edges(8, (0..7u32).map(|i| (i, i + 1)));
    let host = DiGraph::from_edges(
        24,
        (0..24u32).flat_map(|i| [(i, (i * 7 + 3) % 24), (i, (i * 5 + 1) % 24)]),
    );
    c.bench_function("monomorphism_path8_into_host24", |b| {
        b.iter(|| black_box(is_subgraph_monomorphic(&path, &host)));
    });
}

criterion_group!(
    benches,
    bench_dep_graph,
    bench_trace_index,
    bench_pattern_frequency,
    bench_assignment,
    bench_monomorphism
);
criterion_main!(benches);
