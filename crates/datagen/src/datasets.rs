//! The concrete experiment datasets (Table 3) and the running-example
//! instance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use evematch_core::Mapping;
use evematch_eventlog::{EventLog, LogBuilder};
use evematch_pattern::Pattern;

use crate::heterogenize::{heterogenize, HeterogenizeConfig, LogPair};
use crate::process::{Block, ProcessModel};
use crate::Dataset;

/// The 11-activity order-processing model standing in for the paper's
/// proprietary bus-manufacturer ERP process: a receive step, concurrent
/// payment/inventory checks, an approval, then either a pick–pack‖label–ship
/// branch or a cancellation, then invoicing with an optional archive step.
///
/// Concurrency is *biased* (65% one order) — as in the paper's Figure 1,
/// where the `AB`/`AC` edges carry different frequencies — so concurrent
/// steps remain identifiable by their order statistics while both orders
/// still occur (AND patterns match either).
pub fn order_process_model() -> ProcessModel {
    let biased_pair = |x: &str, y: &str| {
        Block::Choice(vec![
            (0.65, Block::Seq(vec![Block::act(x), Block::act(y)])),
            (0.35, Block::Seq(vec![Block::act(y), Block::act(x)])),
        ])
    };
    ProcessModel::new(Block::Seq(vec![
        Block::act("ReceiveOrder"),
        biased_pair("Payment", "CheckInventory"),
        Block::act("Approve"),
        Block::Choice(vec![
            (
                0.75,
                Block::Seq(vec![
                    Block::act("PickGoods"),
                    biased_pair("Pack", "Label"),
                    Block::act("ShipGoods"),
                ]),
            ),
            (0.25, Block::act("Cancel")),
        ]),
        Block::act("Invoice"),
        Block::Optional(0.4, Box::new(Block::act("Archive"))),
    ]))
}

/// The three declared complex patterns over the order-processing model
/// (ids refer to [`order_process_model`]'s declaration order).
fn order_process_patterns(log1: &EventLog) -> Vec<Pattern> {
    let id = |name: &str| log1.events().lookup(name).expect("model activity");
    let e = |name: &str| Pattern::Event(id(name));
    vec![
        // SEQ(ReceiveOrder, AND(Payment, CheckInventory), Approve)
        Pattern::seq(vec![
            e("ReceiveOrder"),
            Pattern::and(vec![e("Payment"), e("CheckInventory")]).expect("distinct"),
            e("Approve"),
        ])
        .expect("distinct"),
        // SEQ(PickGoods, AND(Pack, Label), ShipGoods)
        Pattern::seq(vec![
            e("PickGoods"),
            Pattern::and(vec![e("Pack"), e("Label")]).expect("distinct"),
            e("ShipGoods"),
        ])
        .expect("distinct"),
        // SEQ(ShipGoods, Invoice) extended by the archive step.
        Pattern::seq(vec![e("ShipGoods"), e("Invoice"), e("Archive")]).expect("distinct"),
    ]
}

/// The substitute for the paper's **real** dataset (Table 3 row 1):
/// 3,000 traces per side over 11 events, heterogenized with mild
/// behavioural drift, plus 3 declared complex patterns.
pub fn real_like(seed: u64) -> Dataset {
    real_like_sized(3000, 3000, seed)
}

/// [`real_like`] with explicit trace counts (the Figure-8/10 sweeps vary
/// them).
pub fn real_like_sized(traces1: usize, traces2: usize, seed: u64) -> Dataset {
    let cfg = HeterogenizeConfig {
        traces1,
        traces2,
        prob_jitter: 0.18,
        extra_events: 2,
        extra_event_prob: 0.38,
        swap_noise: 0.04,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = heterogenize(&order_process_model(), &cfg, &mut rng);
    let patterns = order_process_patterns(&pair.log1);
    Dataset {
        patterns,
        pair,
        name: "real-like",
    }
}

/// A 6-activity miniature of the order flow used by the running-example
/// dataset: `a (b ∥ c) d e f`, where the `b`/`c` concurrency is biased
/// (70% `b` first) so the two concurrent steps stay distinguishable, as in
/// the paper's Figure 1 where `AB` and `AC` carry different frequencies.
pub fn mini_process_model() -> ProcessModel {
    ProcessModel::new(Block::Seq(vec![
        Block::act("a"),
        Block::Choice(vec![
            (0.7, Block::seq_of(&["b", "c"])),
            (0.3, Block::seq_of(&["c", "b"])),
        ]),
        Block::act("d"),
        Block::act("e"),
        Block::Optional(0.8, Box::new(Block::act("f"))),
    ]))
}

/// Seed for [`fig1_like`], chosen by `find-adversarial` (see
/// `src/bin/find_adversarial.rs`) so that the instance provably exhibits
/// the paper's Figure-1/Example-3/4 phenomenon: the exact Vertex+Edge
/// optimum maps *every* event wrong (frequency coincidences mislead the
/// structure-only objective completely), while adding the complex patterns
/// `SEQ(a, AND(b, c), d)` and `SEQ(d, e, f)` makes the exact matcher
/// recover the full ground truth.
pub const FIG1_SEED: u64 = 77;

/// The running-example instance: 6 events vs 8 (two decoys), small trace
/// counts so frequency coincidences arise, and two complex patterns in the
/// spirit of the paper's `p1 = SEQ(A, AND(B, C), D)`.
///
/// A regression test pins the adversarial property (see
/// `tests/paper_examples.rs`); if generator internals change, re-run
/// `find-adversarial` and update [`FIG1_SEED`].
pub fn fig1_like() -> Dataset {
    fig1_like_with_seed(FIG1_SEED)
}

/// [`fig1_like`] with an explicit seed (used by the seed-search tool).
pub fn fig1_like_with_seed(seed: u64) -> Dataset {
    let cfg = HeterogenizeConfig {
        traces1: 12,
        traces2: 12,
        prob_jitter: 0.2,
        extra_events: 2,
        extra_event_prob: 0.75,
        swap_noise: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = heterogenize(&mini_process_model(), &cfg, &mut rng);
    let id = |n: &str| pair.log1.events().lookup(n).expect("mini activity");
    let p1 = Pattern::seq(vec![
        Pattern::Event(id("a")),
        Pattern::and(vec![Pattern::Event(id("b")), Pattern::Event(id("c"))]).expect("distinct"),
        Pattern::Event(id("d")),
    ])
    .expect("distinct");
    let p2 = Pattern::seq(vec![
        Pattern::Event(id("d")),
        Pattern::Event(id("e")),
        Pattern::Event(id("f")),
    ])
    .expect("distinct");
    Dataset {
        pair,
        patterns: vec![p1, p2],
        name: "fig1-like",
    }
}

/// One module of the larger synthetic structure (Figure 11): four fully
/// concurrent steps, a join step, an exclusive 4-way choice, and a close
/// step — 10 events per module, repeated with fresh names.
///
/// Event frequencies carry a *rotating* signature: the concurrent steps
/// are optional with probabilities rotating modulo 4, the choice weights
/// rotate modulo 4, and the close step's probability cycles modulo 5. Like
/// the paper's randomly drawn trace sets, this makes nearby modules
/// distinguishable by frequency while far-apart modules collide again —
/// reproducing the Figure-12 observation that "events are more similar
/// with each other when there are more events" and accuracy decays as the
/// event count grows.
fn synthetic_module(m: usize) -> Block {
    let n = |s: &str| format!("{s}{m}");
    let opt = [1.0, 0.95, 0.9, 0.85];
    let parallel = ["a", "b", "c", "d"]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let p = opt[(i + m) % 4];
            if p >= 1.0 {
                Block::act(&n(s))
            } else {
                Block::Optional(p, Box::new(Block::act(&n(s))))
            }
        })
        .collect();
    let weights = [0.4, 0.3, 0.2, 0.1];
    let branches = ["f", "g", "h", "i"]
        .iter()
        .enumerate()
        .map(|(i, s)| (weights[(i + m) % 4], Block::act(&n(s))))
        .collect();
    Block::Seq(vec![
        Block::Parallel(parallel),
        Block::act(&n("e")),
        Block::Choice(branches),
        Block::Optional(0.72 + 0.05 * (m % 5) as f64, Box::new(Block::act(&n("j")))),
    ])
}

/// The larger synthetic dataset (Figure 11 / Table 3 row 2): `modules`
/// chained copies of [`synthetic_module`] (10 events each — 10 modules =
/// 100 events), simulated into `traces` traces per side.
///
/// Patterns: one `AND(a, b, c, d)` per module, plus
/// `SEQ(AND(a, b, c, d), e)` for the first six modules — 16 patterns at the
/// paper's 10-module scale.
pub fn larger_synthetic(modules: usize, traces: usize, seed: u64) -> Dataset {
    assert!(modules >= 1);
    let model = ProcessModel::new(Block::Seq((0..modules).map(synthetic_module).collect()));
    let cfg = HeterogenizeConfig {
        traces1: traces,
        traces2: traces,
        prob_jitter: 0.05,
        extra_events: 0,
        extra_event_prob: 0.0,
        swap_noise: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = heterogenize(&model, &cfg, &mut rng);
    let id = |n: String| pair.log1.events().lookup(&n).expect("module activity");
    let mut patterns = Vec::new();
    for m in 0..modules {
        let and = Pattern::and(
            ["a", "b", "c", "d"]
                .iter()
                .map(|s| Pattern::Event(id(format!("{s}{m}"))))
                .collect(),
        )
        .expect("distinct");
        patterns.push(and.clone());
        if m < 6 {
            patterns.push(
                Pattern::seq(vec![and, Pattern::Event(id(format!("e{m}")))]).expect("distinct"),
            );
        }
    }
    Dataset {
        pair,
        patterns,
        name: "synthetic",
    }
}

/// Two *independent* random logs over `n_events` events (Table 4 / Table 3
/// row 3): no true mapping exists, so the `truth` of the returned pair is
/// empty. Trace lengths are uniform in `2..=8`; events are uniform.
pub fn random_pair(n_events: usize, traces: usize, seed: u64) -> LogPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen_log = |prefix: &str| -> EventLog {
        let mut b = LogBuilder::new();
        for i in 0..n_events {
            b.intern(&format!("{prefix}{i}"));
        }
        // Event `{prefix}{i}` is interned as id `i`.
        for _ in 0..traces {
            let len = rng.gen_range(2..=8usize);
            b.push_trace((0..len).map(|_| rng.gen_range(0..n_events) as u32));
        }
        b.build()
    };
    let log1 = gen_log("u");
    let log2 = gen_log("v");
    let truth = Mapping::empty(log1.event_count(), log2.event_count());
    LogPair { log1, log2, truth }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_like_matches_table3_shape() {
        let ds = real_like_sized(300, 300, 1);
        assert_eq!(ds.pair.log1.event_count(), 11);
        // L2 carries two decoy events on top of the 11 true ones.
        assert_eq!(ds.pair.log2.event_count(), 13);
        assert_eq!(ds.pair.log1.len(), 300);
        assert_eq!(ds.patterns.len(), 3);
        assert!(ds.pair.truth.is_complete());
        assert_eq!(ds.pair.truth.len(), 11);
        // Dependency graph is rich (Table 3 reports 57 edges at full size).
        assert!(ds.pair.log1.dep_graph().edge_count() >= 15);
    }

    #[test]
    fn real_like_patterns_occur_frequently() {
        let ds = real_like_sized(500, 500, 2);
        let idx = ds.pair.log1.trace_index();
        // p1 spans the unconditional prefix: it matches whenever swap
        // noise leaves the four steps contiguous (~0.88 at 4% noise).
        let f = evematch_pattern::pattern_freq(&ds.patterns[0], &ds.pair.log1, &idx);
        assert!(f > 0.8, "p1 frequency {f}");
        // p2 sits inside the 0.75-weighted branch, thinned by noise.
        let f2 = evematch_pattern::pattern_freq(&ds.patterns[1], &ds.pair.log1, &idx);
        assert!((0.5..0.8).contains(&f2), "p2 frequency {f2}");
    }

    #[test]
    fn fig1_like_has_decoys() {
        let ds = fig1_like();
        assert_eq!(ds.pair.log1.event_count(), 6);
        assert_eq!(ds.pair.log2.event_count(), 8);
        assert_eq!(ds.patterns.len(), 2);
        assert_eq!(ds.pair.truth.len(), 6);
    }

    #[test]
    fn larger_synthetic_scales_by_modules() {
        let ds = larger_synthetic(3, 200, 3);
        assert_eq!(ds.pair.log1.event_count(), 30);
        assert_eq!(ds.pair.log2.event_count(), 30);
        // 3 AND patterns + 3 SEQ(AND, e) composites.
        assert_eq!(ds.patterns.len(), 6);
        let ds10 = larger_synthetic(10, 10, 4);
        assert_eq!(ds10.pair.log1.event_count(), 100);
        assert_eq!(ds10.patterns.len(), 16, "paper's Table 3: 16 patterns");
    }

    #[test]
    fn synthetic_and_patterns_are_frequent() {
        let ds = larger_synthetic(2, 300, 5);
        let idx = ds.pair.log1.trace_index();
        // AND(a0..d0) matches whenever all four optional concurrent steps
        // fire: ≈ 1.0 · 0.95 · 0.9 · 0.85 ≈ 0.73.
        let f = evematch_pattern::pattern_freq(&ds.patterns[0], &ds.pair.log1, &idx);
        assert!((f - 0.727).abs() < 0.1, "AND block frequency {f}");
    }

    #[test]
    fn synthetic_events_have_distinguishable_frequencies() {
        // The rotating signature gives nearby modules distinct profiles;
        // the paired log agrees with the source on the truth pairs.
        let ds = larger_synthetic(2, 2000, 8);
        let l1 = &ds.pair.log1;
        let a0 = l1.events().lookup("a0").unwrap();
        let b0 = l1.events().lookup("b0").unwrap();
        assert!(
            (l1.vertex_freq(a0) - l1.vertex_freq(b0)).abs() > 0.02,
            "concurrent steps should differ in frequency"
        );
        let j0 = l1.events().lookup("j0").unwrap();
        let j1 = l1.events().lookup("j1").unwrap();
        // Close probabilities (0.72 vs 0.77) still separate at 2000 traces.
        assert!((l1.vertex_freq(j0) - l1.vertex_freq(j1)).abs() > 0.015);
    }

    #[test]
    fn random_pair_has_no_truth() {
        let p = random_pair(4, 100, 6);
        assert_eq!(p.log1.event_count(), 4);
        assert_eq!(p.log2.event_count(), 4);
        assert_eq!(p.log1.len(), 100);
        assert!(p.truth.is_empty());
        // The two logs are genuinely different samples.
        assert_ne!(p.log1.columns(), p.log2.columns());
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = real_like_sized(50, 50, 9);
        let b = real_like_sized(50, 50, 9);
        assert_eq!(a.pair.log1, b.pair.log1);
        assert_eq!(a.pair.log2, b.pair.log2);
        let c = fig1_like();
        let d = fig1_like();
        assert_eq!(c.pair.log2, d.pair.log2);
    }
}
