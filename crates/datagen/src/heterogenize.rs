//! Turning one process model into a *heterogeneous* pair of logs.
//!
//! Two departments running "the same" process produce logs that differ in
//! exactly the ways the paper motivates:
//!
//! * **opaque names** — the second log's events are renamed to meaningless
//!   codes (the paper's `FH` for `Ship Goods`), and its vocabulary is
//!   re-ordered so positional ids carry no signal;
//! * **behavioural drift** — branch probabilities are jittered, so
//!   frequencies on the two sides are similar but not equal;
//! * **extra events** — the second department may log additional optional
//!   steps (`|V1| ≤ |V2|`), which act as decoys for structure-only
//!   matchers.
//!
//! The ground-truth mapping is retained for evaluation.

use rand::Rng;

use evematch_core::Mapping;
use evematch_eventlog::{EventLog, LogBuilder};

use crate::process::{shuffled, Block, ProcessModel};

/// Configuration for [`heterogenize`].
#[derive(Clone, Copy, Debug)]
pub struct HeterogenizeConfig {
    /// Traces simulated into `L1`.
    pub traces1: usize,
    /// Traces simulated into `L2`.
    pub traces2: usize,
    /// Relative jitter applied to every choice weight and optional
    /// probability of the second model: each is multiplied by a value drawn
    /// uniformly from `[1 − jitter, 1 + jitter]`.
    pub prob_jitter: f64,
    /// Number of extra optional decoy activities appended to the second
    /// model (so `|V2| = |V1| + extra_events`).
    pub extra_events: usize,
    /// Execution probability of each decoy activity.
    pub extra_event_prob: f64,
    /// Logging jitter: after sampling, each adjacent event pair of a trace
    /// is swapped with this probability (one left-to-right pass, applied
    /// independently to both logs). Real information systems record
    /// near-simultaneous steps in unstable order; this is what gives the
    /// paper's real dataset its dense dependency graph (57 edges over 11
    /// events).
    pub swap_noise: f64,
}

impl Default for HeterogenizeConfig {
    fn default() -> Self {
        HeterogenizeConfig {
            traces1: 1000,
            traces2: 1000,
            prob_jitter: 0.1,
            extra_events: 0,
            extra_event_prob: 0.5,
            swap_noise: 0.0,
        }
    }
}

/// A heterogeneous pair of logs with the ground-truth event mapping
/// (`L1` event → its `L2` counterpart; decoy events have no pre-image).
#[derive(Clone, Debug)]
pub struct LogPair {
    /// The first department's log.
    pub log1: EventLog,
    /// The second department's log (opaque names, jittered behaviour,
    /// possibly extra events).
    pub log2: EventLog,
    /// Ground truth `V1 → V2`.
    pub truth: Mapping,
}

/// Simulates `model` twice — once as-is into `L1`, once renamed/jittered/
/// extended into `L2` — returning the pair and the ground truth.
pub fn heterogenize(model: &ProcessModel, cfg: &HeterogenizeConfig, rng: &mut impl Rng) -> LogPair {
    let mut log1 = model.simulate(rng, cfg.traces1);
    if cfg.swap_noise > 0.0 {
        log1 = apply_swap_noise(&log1, cfg.swap_noise, rng);
    }

    // Opaque renaming: shuffled meaningless codes.
    let names1 = model.activity_names();
    let total2 = names1.len() + cfg.extra_events;
    let codes = shuffled(
        rng,
        (0..total2).map(|i| format!("X{i:03}")).collect::<Vec<_>>(),
    );
    let rename = |name: &str| -> String {
        let pos = names1
            .iter()
            .position(|n| n == name)
            .expect("activity belongs to the model");
        codes[pos].clone()
    };

    // Jitter branch behaviour.
    let jitter = cfg.prob_jitter.abs();
    let jittered = jitter_block(&model.root, jitter, rng);
    let renamed = rename_block(&jittered, &rename);

    // Decoy tail: extra optional activities only the second department
    // logs.
    let mut root2 = vec![renamed];
    for i in 0..cfg.extra_events {
        root2.push(Block::Optional(
            cfg.extra_event_prob,
            Box::new(Block::Activity(codes[names1.len() + i].clone())),
        ));
    }
    let model2 = ProcessModel::new(Block::Seq(root2));

    // Simulate L2 with a *shuffled* vocabulary order so ids are opaque too.
    let vocab2 = shuffled(rng, model2.activity_names());
    let mut builder = LogBuilder::new();
    for name in &vocab2 {
        builder.intern(name);
    }
    let mut scratch = Vec::new();
    for _ in 0..cfg.traces2 {
        scratch.clear();
        model2.root.sample(rng, &mut scratch);
        builder.push_named_trace(scratch.iter().map(String::as_str));
    }
    let mut log2 = builder.build();
    if cfg.swap_noise > 0.0 {
        log2 = apply_swap_noise(&log2, cfg.swap_noise, rng);
    }

    let truth = Mapping::from_pairs(
        log1.event_count(),
        log2.event_count(),
        names1.iter().map(|name| {
            (
                log1.events().lookup(name).expect("interned in L1"),
                log2.events().lookup(&rename(name)).expect("interned in L2"),
            )
        }),
    );
    LogPair { log1, log2, truth }
}

/// Multiplies every choice weight and optional probability by an
/// independent factor from `[1 − jitter, 1 + jitter]`.
fn jitter_block(block: &Block, jitter: f64, rng: &mut impl Rng) -> Block {
    if jitter <= 0.0 {
        return block.clone();
    }
    match block {
        Block::Activity(n) => Block::Activity(n.clone()),
        Block::Seq(bs) => Block::Seq(bs.iter().map(|b| jitter_block(b, jitter, rng)).collect()),
        Block::Parallel(bs) => {
            Block::Parallel(bs.iter().map(|b| jitter_block(b, jitter, rng)).collect())
        }
        Block::Choice(bs) => Block::Choice(
            bs.iter()
                .map(|(w, b)| {
                    let f: f64 = rng.gen_range(1.0 - jitter..=1.0 + jitter);
                    ((w * f).max(1e-6), jitter_block(b, jitter, rng))
                })
                .collect(),
        ),
        Block::Optional(p, b) => {
            let f: f64 = rng.gen_range(1.0 - jitter..=1.0 + jitter);
            Block::Optional(
                (p * f).clamp(0.0, 1.0),
                Box::new(jitter_block(b, jitter, rng)),
            )
        }
    }
}

/// One left-to-right pass over each trace, swapping each adjacent pair
/// with probability `rate`.
fn apply_swap_noise(log: &EventLog, rate: f64, rng: &mut impl Rng) -> EventLog {
    let mut noisy = LogBuilder::with_events(log.events().clone());
    for t in log.traces() {
        let mut e = t.to_vec();
        let mut i = 1;
        while i < e.len() {
            if rng.gen_bool(rate.clamp(0.0, 1.0)) {
                e.swap(i - 1, i);
                i += 1; // don't re-swap the element just moved
            }
            i += 1;
        }
        noisy.push_trace(e);
    }
    noisy.build()
}

fn rename_block(block: &Block, rename: &impl Fn(&str) -> String) -> Block {
    match block {
        Block::Activity(n) => Block::Activity(rename(n)),
        Block::Seq(bs) => Block::Seq(bs.iter().map(|b| rename_block(b, rename)).collect()),
        Block::Parallel(bs) => {
            Block::Parallel(bs.iter().map(|b| rename_block(b, rename)).collect())
        }
        Block::Choice(bs) => Block::Choice(
            bs.iter()
                .map(|(w, b)| (*w, rename_block(b, rename)))
                .collect(),
        ),
        Block::Optional(p, b) => Block::Optional(*p, Box::new(rename_block(b, rename))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> ProcessModel {
        ProcessModel::new(Block::Seq(vec![
            Block::act("Receive"),
            Block::Parallel(vec![Block::act("Pay"), Block::act("Check")]),
            Block::Choice(vec![(0.8, Block::act("Ship")), (0.2, Block::act("Cancel"))]),
        ]))
    }

    fn pair(cfg: &HeterogenizeConfig, seed: u64) -> LogPair {
        heterogenize(&model(), cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn sizes_and_truth_shape() {
        let cfg = HeterogenizeConfig {
            traces1: 100,
            traces2: 150,
            extra_events: 2,
            ..Default::default()
        };
        let p = pair(&cfg, 1);
        assert_eq!(p.log1.len(), 100);
        assert_eq!(p.log2.len(), 150);
        assert_eq!(p.log1.event_count(), 5);
        assert_eq!(p.log2.event_count(), 7);
        // Every L1 event has exactly one image; decoys have none.
        assert_eq!(p.truth.len(), 5);
        assert!(p.truth.is_complete());
    }

    #[test]
    fn names_are_opaque_in_l2() {
        let p = pair(&HeterogenizeConfig::default(), 2);
        for name in p.log2.events().names() {
            assert!(name.starts_with('X'), "leaked name {name}");
        }
        // And none of the original names survive.
        assert!(p.log2.events().lookup("Receive").is_none());
    }

    #[test]
    fn truth_maps_matching_behaviour() {
        let cfg = HeterogenizeConfig {
            traces1: 800,
            traces2: 800,
            prob_jitter: 0.05,
            ..Default::default()
        };
        let p = pair(&cfg, 3);
        // The always-first activity must map to an always-first activity.
        let receive = p.log1.events().lookup("Receive").unwrap();
        let image = p.truth.get(receive).unwrap();
        let first_count = p
            .log2
            .traces()
            .filter(|t| t.first() == Some(&image))
            .count();
        assert_eq!(first_count, p.log2.len());
        // Frequencies of truth-paired events are close (jitter is small).
        for (a, b) in p.truth.pairs() {
            let (f1, f2) = (p.log1.vertex_freq(a), p.log2.vertex_freq(b));
            assert!(
                (f1 - f2).abs() < 0.15,
                "{a}->{b}: f1 {f1} vs f2 {f2} drifted too far"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = HeterogenizeConfig::default();
        let a = pair(&cfg, 42);
        let b = pair(&cfg, 42);
        assert_eq!(a.log1, b.log1);
        assert_eq!(a.log2, b.log2);
        assert_eq!(a.truth, b.truth);
        let c = pair(&cfg, 43);
        assert_ne!(a.log2, c.log2);
    }

    #[test]
    fn decoys_actually_occur() {
        let cfg = HeterogenizeConfig {
            traces1: 50,
            traces2: 400,
            extra_events: 3,
            extra_event_prob: 0.5,
            ..Default::default()
        };
        let p = pair(&cfg, 4);
        // Each decoy (no pre-image under truth) occurs in roughly half the
        // traces.
        let images: Vec<_> = p.truth.pairs().map(|(_, b)| b).collect();
        let mut decoys = 0;
        for e in p.log2.events().ids() {
            if !images.contains(&e) {
                decoys += 1;
                let f = p.log2.vertex_freq(e);
                assert!((f - 0.5).abs() < 0.15, "decoy {e} frequency {f}");
            }
        }
        assert_eq!(decoys, 3);
    }
}
