//! Block-structured process models and their simulation into event logs.
//!
//! Real business processes are (per the modeling guidelines the paper
//! cites) decomposed into small block-structured components: sequences,
//! concurrent branches, exclusive choices, optional steps. A
//! [`ProcessModel`] is such a block tree; [`ProcessModel::simulate`] samples
//! traces from it — concurrent branches are riffle-interleaved uniformly at
//! random, choices are drawn by weight.

use rand::seq::SliceRandom;
use rand::Rng;

use evematch_eventlog::{EventLog, LogBuilder};

/// One node of a block-structured process model.
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    /// A single activity (event), identified by name.
    Activity(String),
    /// Children executed one after another.
    Seq(Vec<Block>),
    /// Children executed concurrently: their traces are riffle-interleaved
    /// (each child's internal order is preserved; global order is random).
    Parallel(Vec<Block>),
    /// Exactly one child executes, drawn with the given weights.
    Choice(Vec<(f64, Block)>),
    /// The child executes with probability `p`, otherwise it is skipped.
    Optional(f64, Box<Block>),
}

impl Block {
    /// Convenience: an activity block.
    pub fn act(name: &str) -> Block {
        Block::Activity(name.to_owned())
    }

    /// Convenience: a sequence of activities.
    pub fn seq_of(names: &[&str]) -> Block {
        Block::Seq(names.iter().map(|n| Block::act(n)).collect())
    }

    /// All activity names in the block, in declaration order (with
    /// duplicates if an activity appears in several places).
    pub fn activities(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_activities(&mut out);
        out
    }

    fn collect_activities<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Block::Activity(n) => out.push(n),
            Block::Seq(bs) | Block::Parallel(bs) => {
                for b in bs {
                    b.collect_activities(out);
                }
            }
            Block::Choice(bs) => {
                for (_, b) in bs {
                    b.collect_activities(out);
                }
            }
            Block::Optional(_, b) => b.collect_activities(out),
        }
    }

    /// Samples one execution of the block into `out`, as names borrowed
    /// from the block tree.
    pub(crate) fn sample<'a>(&'a self, rng: &mut impl Rng, out: &mut Vec<&'a str>) {
        match self {
            Block::Activity(n) => out.push(n),
            Block::Seq(bs) => {
                for b in bs {
                    b.sample(rng, out);
                }
            }
            Block::Parallel(bs) => {
                let sequences: Vec<Vec<&str>> = bs
                    .iter()
                    .map(|b| {
                        let mut s = Vec::new();
                        b.sample(rng, &mut s);
                        s
                    })
                    .collect();
                riffle(rng, &sequences, out);
            }
            Block::Choice(bs) => {
                assert!(!bs.is_empty(), "Choice must have at least one branch");
                let total: f64 = bs.iter().map(|(w, _)| *w).sum();
                assert!(total > 0.0, "Choice weights must sum to a positive value");
                let mut draw = rng.gen_range(0.0..total);
                for (w, b) in bs {
                    if draw < *w {
                        b.sample(rng, out);
                        return;
                    }
                    draw -= w;
                }
                // Floating-point fallthrough: take the last branch.
                bs.last().expect("non-empty").1.sample(rng, out);
            }
            Block::Optional(p, b) => {
                if rng.gen_bool(p.clamp(0.0, 1.0)) {
                    b.sample(rng, out);
                }
            }
        }
    }

    /// Rewrites every choice weight and optional probability through `f`
    /// (used by the heterogenizer to jitter branch behaviour between the
    /// two "departments").
    pub fn map_probabilities(&self, f: &impl Fn(f64) -> f64) -> Block {
        match self {
            Block::Activity(n) => Block::Activity(n.clone()),
            Block::Seq(bs) => Block::Seq(bs.iter().map(|b| b.map_probabilities(f)).collect()),
            Block::Parallel(bs) => {
                Block::Parallel(bs.iter().map(|b| b.map_probabilities(f)).collect())
            }
            Block::Choice(bs) => Block::Choice(
                bs.iter()
                    .map(|(w, b)| (f(*w).max(1e-6), b.map_probabilities(f)))
                    .collect(),
            ),
            Block::Optional(p, b) => {
                Block::Optional(f(*p).clamp(0.0, 1.0), Box::new(b.map_probabilities(f)))
            }
        }
    }
}

/// Uniform riffle merge: interleaves the sequences preserving each one's
/// internal order; every interleaving of the remaining symbols is equally
/// likely at each step (weighted by remaining length).
fn riffle<'a>(rng: &mut impl Rng, sequences: &[Vec<&'a str>], out: &mut Vec<&'a str>) {
    let mut cursors = vec![0usize; sequences.len()];
    let mut total: usize = sequences.iter().map(Vec::len).sum();
    while total > 0 {
        // Draw a source weighted by how many events it still holds — this
        // makes every full interleaving equally likely. An exhausted
        // source holds none, so the walk passes over it.
        let mut draw = rng.gen_range(0..total);
        for (s, cursor) in sequences.iter().zip(&mut cursors) {
            let left = s.len() - *cursor;
            if draw < left {
                out.push(s[*cursor]);
                *cursor += 1;
                break;
            }
            draw -= left;
        }
        total -= 1;
    }
}

/// A process model: a named block tree plus a fixed activity vocabulary
/// (declaration order defines event interning order in simulated logs).
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessModel {
    /// The root block.
    pub root: Block,
}

impl ProcessModel {
    /// Wraps a root block.
    pub fn new(root: Block) -> Self {
        ProcessModel { root }
    }

    /// The vocabulary: distinct activity names in declaration order.
    pub fn activity_names(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for a in self.root.activities() {
            if !seen.iter().any(|s: &String| s == a) {
                seen.push(a.to_owned());
            }
        }
        seen
    }

    /// Simulates `n` traces. The log's vocabulary is pre-interned in
    /// declaration order so that event ids are stable even if an activity
    /// never fires.
    pub fn simulate(&self, rng: &mut impl Rng, n: usize) -> EventLog {
        let mut builder = LogBuilder::new();
        for name in self.activity_names() {
            builder.intern(&name);
        }
        let mut scratch = Vec::new();
        for _ in 0..n {
            scratch.clear();
            self.root.sample(rng, &mut scratch);
            builder.push_named_trace(scratch.iter().copied());
        }
        builder.build()
    }
}

/// Shuffles a vector deterministically with the given rng (re-exported
/// convenience for dataset builders).
pub(crate) fn shuffled<T>(rng: &mut impl Rng, mut items: Vec<T>) -> Vec<T> {
    items.shuffle(rng);
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn order_flow() -> ProcessModel {
        ProcessModel::new(Block::Seq(vec![
            Block::act("Receive"),
            Block::Parallel(vec![Block::act("Pay"), Block::act("Inventory")]),
            Block::Choice(vec![(0.7, Block::act("Ship")), (0.3, Block::act("Cancel"))]),
            Block::Optional(0.5, Box::new(Block::act("Survey"))),
        ]))
    }

    #[test]
    fn vocabulary_is_declaration_ordered_and_deduped() {
        let m = order_flow();
        assert_eq!(
            m.activity_names(),
            vec!["Receive", "Pay", "Inventory", "Ship", "Cancel", "Survey"]
        );
    }

    #[test]
    fn simulation_respects_structure() {
        let m = order_flow();
        let log = m.simulate(&mut rng(1), 500);
        assert_eq!(log.len(), 500);
        let ev = log.events();
        let receive = ev.lookup("Receive").unwrap();
        let pay = ev.lookup("Pay").unwrap();
        let inv = ev.lookup("Inventory").unwrap();
        let ship = ev.lookup("Ship").unwrap();
        let cancel = ev.lookup("Cancel").unwrap();
        for t in log.traces() {
            // Receive always first.
            assert_eq!(t[0], receive);
            // Pay and Inventory both present, in some order, before the
            // choice outcome.
            assert!(t.contains(&pay) && t.contains(&inv));
            // Exactly one of Ship/Cancel.
            assert!(t.contains(&ship) ^ t.contains(&cancel));
        }
    }

    #[test]
    fn parallel_produces_both_orders() {
        let m = order_flow();
        let log = m.simulate(&mut rng(2), 300);
        let ev = log.events();
        let pay = ev.lookup("Pay").unwrap();
        let inv = ev.lookup("Inventory").unwrap();
        let pay_first = log.edge_support(pay, inv);
        let inv_first = log.edge_support(inv, pay);
        assert!(pay_first > 50, "expected both interleavings: {pay_first}");
        assert!(inv_first > 50, "expected both interleavings: {inv_first}");
        assert_eq!(pay_first + inv_first, 300);
    }

    #[test]
    fn choice_weights_are_respected() {
        let m = order_flow();
        let log = m.simulate(&mut rng(3), 2000);
        let ship = log.events().lookup("Ship").unwrap();
        let freq = log.vertex_freq(ship);
        assert!((freq - 0.7).abs() < 0.05, "ship frequency {freq} ≉ 0.7");
    }

    #[test]
    fn optional_probability_is_respected() {
        let m = order_flow();
        let log = m.simulate(&mut rng(4), 2000);
        let survey = log.events().lookup("Survey").unwrap();
        let freq = log.vertex_freq(survey);
        assert!((freq - 0.5).abs() < 0.05, "survey frequency {freq} ≉ 0.5");
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let m = order_flow();
        let a = m.simulate(&mut rng(7), 50);
        let b = m.simulate(&mut rng(7), 50);
        assert_eq!(a, b);
        let c = m.simulate(&mut rng(8), 50);
        assert_ne!(a, c);
    }

    #[test]
    fn map_probabilities_rewrites_weights() {
        let m = order_flow();
        let doubled = m.root.map_probabilities(&|p| p * 0.5);
        if let Block::Seq(bs) = &doubled {
            if let Block::Choice(cs) = &bs[2] {
                assert!((cs[0].0 - 0.35).abs() < 1e-12);
            } else {
                panic!("expected choice");
            }
            if let Block::Optional(p, _) = &bs[3] {
                assert!((p - 0.25).abs() < 1e-12);
            } else {
                panic!("expected optional");
            }
        } else {
            panic!("expected seq");
        }
    }

    #[test]
    fn riffle_preserves_internal_order() {
        let mut r = rng(9);
        for _ in 0..50 {
            let mut out = Vec::new();
            riffle(
                &mut r,
                &[vec!["a1", "a2", "a3"], vec!["b1", "b2"]],
                &mut out,
            );
            assert_eq!(out.len(), 5);
            let pos = |x: &str| out.iter().position(|&o| o == x).unwrap();
            assert!(pos("a1") < pos("a2") && pos("a2") < pos("a3"));
            assert!(pos("b1") < pos("b2"));
        }
    }

    #[test]
    #[should_panic(expected = "at least one branch")]
    fn empty_choice_panics() {
        let m = ProcessModel::new(Block::Choice(vec![]));
        m.simulate(&mut rng(0), 1);
    }
}
