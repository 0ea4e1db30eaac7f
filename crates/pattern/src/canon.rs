//! Canonical memo keys for mapped patterns.
//!
//! Definition 4 lets an `AND` take its children in any block order, so a
//! mapped pattern's support cannot change when two same-shaped children of
//! one `AND` swap images: `AND(a, b)` under `a ↦ x, b ↦ y` and under
//! `a ↦ y, b ↦ x` are both `AND(x, y)`, and `AND(SEQ(a, b), SEQ(c, d))`
//! under `(x, y, z, w)` and `(z, w, x, y)` both allow exactly `xyzw` and
//! `zwxy`. A search that maps a pattern's events one at a time reaches
//! one set of images in many such orders; keying the support memo by the
//! raw image tuple scans the log once for each.
//!
//! [`CanonPlan`] is built once per pattern from its AST. It holds each
//! event's pre-order position and, innermost first, every group of
//! same-shaped children of one `AND` node (a child's events are one
//! contiguous block in pre-order). [`CanonPlan::key_into`] lays an image
//! tuple out in pre-order and sorts each group's blocks, so every binding
//! that differs only by such swaps gets one key. Two children have the same
//! shape when their ASTs are equal up to event ids, child order included.

use evematch_eventlog::EventId;

use crate::ast::Pattern;

/// The same-shaped children of one `AND` node: each child's block starts
/// at one of `starts` and holds `len` events.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Group {
    len: usize,
    starts: Vec<usize>,
}

/// How to turn an image tuple of one pattern into its canonical memo key
/// (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonPlan {
    /// `pre[i]`: the pre-order position of the pattern's `i`-th event in
    /// ascending id order (the order of `EvaluatedPattern::events` and of
    /// image tuples).
    pre: Vec<usize>,
    /// Groups of interchangeable blocks, innermost first, so an outer
    /// group compares blocks whose inner groups are already sorted.
    groups: Vec<Group>,
}

impl CanonPlan {
    /// The plan of `pattern`.
    #[must_use]
    pub fn of(pattern: &Pattern) -> Self {
        let mut order = Vec::new();
        let mut groups = Vec::new();
        walk(pattern, &mut order, &mut groups);
        let mut by_event: Vec<(EventId, usize)> = order.into_iter().zip(0..).collect();
        by_event.sort_unstable();
        CanonPlan {
            pre: by_event.into_iter().map(|(_, at)| at).collect(),
            groups,
        }
    }

    /// Writes the canonical key of `images` (aligned with the pattern's
    /// events in ascending id order) into `key`, reusing its allocation.
    ///
    /// Only a pairwise-distinct binding is canonicalized. A binding that
    /// repeats an image is matched by the interpreter, whose `AND` takes
    /// the first remaining child holding the next event, so its support
    /// can depend on child order; its key stays the plain pre-order tuple,
    /// which no distinct binding's key equals.
    pub fn key_into(&self, images: &[EventId], key: &mut Vec<EventId>) {
        debug_assert_eq!(images.len(), self.pre.len());
        key.clear();
        key.resize(images.len(), EventId(0));
        for (&image, &at) in images.iter().zip(&self.pre) {
            key[at] = image;
        }
        let distinct = images
            .iter()
            .enumerate()
            .all(|(i, a)| !images[i + 1..].contains(a));
        if !distinct {
            return;
        }
        for g in &self.groups {
            // Insertion sort over whole blocks: an `AND` has at most
            // `MAX_AND_ARITY` children, and most groups hold two to four.
            for i in 1..g.starts.len() {
                for j in (1..=i).rev() {
                    let (a, b) = (g.starts[j - 1], g.starts[j]);
                    if key[a..a + g.len] <= key[b..b + g.len] {
                        break;
                    }
                    for k in 0..g.len {
                        key.swap(a + k, b + k);
                    }
                }
            }
        }
    }
}

/// Appends `p`'s events to `order` in pre-order and its `AND` groups to
/// `groups` in post-order, returning `p`'s shape: its AST with every
/// event written as `e`.
fn walk(p: &Pattern, order: &mut Vec<EventId>, groups: &mut Vec<Group>) -> Vec<u8> {
    let children = match p {
        Pattern::Event(e) => {
            order.push(*e);
            return vec![b'e'];
        }
        Pattern::Seq(cs) | Pattern::And(cs) => cs,
    };
    let is_and = matches!(p, Pattern::And(_));
    let mut shape = vec![if is_and { b'A' } else { b'S' }];
    let mut blocks: Vec<(usize, Vec<u8>)> = Vec::with_capacity(children.len());
    for c in children {
        let start = order.len();
        let child = walk(c, order, groups);
        shape.extend_from_slice(&child);
        blocks.push((start, child));
    }
    shape.push(b')');
    if is_and {
        // Group the children by shape, each group led by its first child.
        for (i, (_, lead)) in blocks.iter().enumerate() {
            if blocks[..i].iter().any(|(_, s)| s == lead) {
                continue;
            }
            let starts: Vec<usize> = blocks[i..]
                .iter()
                .filter(|(_, s)| s == lead)
                .map(|&(start, _)| start)
                .collect();
            if starts.len() > 1 {
                let len = lead.iter().filter(|&&b| b == b'e').count();
                groups.push(Group { len, starts });
            }
        }
    }
    shape
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use evematch_eventlog::{EventLog, EventSet, LogBuilder};

    use crate::frequency::pattern_support;

    fn e(i: u32) -> Pattern {
        Pattern::event(i)
    }

    fn ids(v: &[u32]) -> Vec<EventId> {
        v.iter().copied().map(EventId).collect()
    }

    fn key(plan: &CanonPlan, images: &[u32]) -> Vec<EventId> {
        let mut k = Vec::new();
        plan.key_into(&ids(images), &mut k);
        k
    }

    #[test]
    fn and_children_share_a_key_in_any_order() {
        let plan = CanonPlan::of(&Pattern::and_of_events(ids(&[0, 1, 2])).unwrap());
        let k = key(&plan, &[7, 8, 9]);
        assert_eq!(k, ids(&[7, 8, 9]));
        for images in [[8, 9, 7], [9, 7, 8], [7, 9, 8]] {
            assert_eq!(key(&plan, &images), k, "{images:?}");
        }
        let seq = CanonPlan::of(&Pattern::seq_of_events(ids(&[0, 1, 2])).unwrap());
        assert_ne!(key(&seq, &[7, 8, 9]), key(&seq, &[9, 7, 8]));
    }

    #[test]
    fn only_same_shaped_blocks_swap_and_inner_groups_sort_first() {
        // AND(SEQ(0,1), SEQ(2,3)): the two SEQ blocks swap as wholes.
        let p = Pattern::and(vec![
            Pattern::seq(vec![e(0), e(1)]).unwrap(),
            Pattern::seq(vec![e(2), e(3)]).unwrap(),
        ])
        .unwrap();
        let plan = CanonPlan::of(&p);
        assert_eq!(key(&plan, &[5, 6, 1, 2]), key(&plan, &[1, 2, 5, 6]));
        assert_ne!(key(&plan, &[5, 6, 1, 2]), key(&plan, &[6, 5, 1, 2]));
        // AND(0, SEQ(1,2), 3): the events 0 and 3 swap around the SEQ,
        // which keeps its place.
        let p = Pattern::and(vec![e(0), Pattern::seq(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        let plan = CanonPlan::of(&p);
        assert_eq!(key(&plan, &[9, 1, 2, 4]), ids(&[4, 1, 2, 9]));
        assert_ne!(key(&plan, &[1, 9, 2, 4]), key(&plan, &[9, 1, 2, 4]));
        // AND(AND(0,1), AND(2,3)): inner pairs sort, then the pairs.
        let p = Pattern::and(vec![
            Pattern::and(vec![e(0), e(1)]).unwrap(),
            Pattern::and(vec![e(2), e(3)]).unwrap(),
        ])
        .unwrap();
        let plan = CanonPlan::of(&p);
        assert_eq!(key(&plan, &[8, 6, 4, 2]), ids(&[2, 4, 6, 8]));
    }

    #[test]
    fn a_binding_that_repeats_an_image_keeps_its_pre_order() {
        let plan = CanonPlan::of(&Pattern::and_of_events(ids(&[0, 1, 2])).unwrap());
        assert_eq!(key(&plan, &[3, 3, 1]), ids(&[3, 3, 1]));
        assert_ne!(key(&plan, &[3, 3, 1]), key(&plan, &[1, 3, 3]));
    }

    /// Structural shape of a pattern; leaves get distinct events later.
    #[derive(Clone, Debug)]
    enum Shape {
        Leaf,
        Seq(Vec<Shape>),
        And(Vec<Shape>),
    }

    fn shape_strategy() -> impl Strategy<Value = Shape> {
        Just(Shape::Leaf).prop_recursive(3, 6, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 2..=3).prop_map(Shape::Seq),
                prop::collection::vec(inner, 2..=3).prop_map(Shape::And),
            ]
        })
    }

    fn leaves(s: &Shape) -> usize {
        match s {
            Shape::Leaf => 1,
            Shape::Seq(cs) | Shape::And(cs) => cs.iter().map(leaves).sum(),
        }
    }

    fn depth(s: &Shape) -> usize {
        match s {
            Shape::Leaf => 0,
            Shape::Seq(cs) | Shape::And(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
        }
    }

    fn to_pattern(s: &Shape, next: &mut u32) -> Pattern {
        let built = match s {
            Shape::Leaf => {
                *next += 1;
                return e(*next - 1);
            }
            Shape::Seq(cs) => Pattern::seq(cs.iter().map(|c| to_pattern(c, next)).collect()),
            Shape::And(cs) => Pattern::and(cs.iter().map(|c| to_pattern(c, next)).collect()),
        };
        built.unwrap_or_else(|err| panic!("fresh events build: {err}"))
    }

    /// A log over `n` events whose traces are drawn by `rng`; every
    /// fourth trace is a permutation of all `n`, so wide patterns match.
    fn random_log(n: u32, rng: &mut StdRng) -> EventLog {
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let mut b = LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)));
        for t in 0..24 {
            let mut trace: Vec<u32> = (0..n).collect();
            trace.shuffle(rng);
            if t % 4 != 0 {
                let len = rng.gen_range(1..=n as usize);
                trace.truncate(len);
            }
            b.push_trace(trace);
        }
        b.build()
    }

    /// `p` under `images` (aligned with `p`'s sorted events).
    fn mapped(p: &Pattern, images: &[EventId]) -> Pattern {
        let events = p.events();
        p.map_events(&|x| events.binary_search(&x).map_or(x, |i| images[i]))
    }

    /// Whether `a` and `b` are equal up to event ids.
    fn same_shape(a: &Pattern, b: &Pattern) -> bool {
        match (a, b) {
            (Pattern::Event(_), Pattern::Event(_)) => true,
            (Pattern::Seq(xs), Pattern::Seq(ys)) | (Pattern::And(xs), Pattern::And(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_shape(x, y))
            }
            _ => false,
        }
    }

    /// Pairs `(sorted-event indices of two blocks)` of every same-shaped
    /// `AND` sibling pair, found on the AST independently of the plan.
    fn sibling_swaps(p: &Pattern, out: &mut Vec<(Vec<usize>, Vec<usize>)>) {
        let events = p.events();
        let pos = |q: &Pattern| -> Vec<usize> {
            let mut pre = Vec::new();
            let mut stack = vec![q];
            while let Some(x) = stack.pop() {
                match x {
                    Pattern::Event(ev) => pre.push(events.binary_search(ev).unwrap_or(0)),
                    Pattern::Seq(cs) | Pattern::And(cs) => stack.extend(cs.iter().rev()),
                }
            }
            pre
        };
        let mut stack = vec![p];
        while let Some(q) = stack.pop() {
            if let Pattern::Seq(cs) | Pattern::And(cs) = q {
                if matches!(q, Pattern::And(_)) {
                    for (i, a) in cs.iter().enumerate() {
                        for b in &cs[i + 1..] {
                            if same_shape(a, b) {
                                out.push((pos(a), pos(b)));
                            }
                        }
                    }
                }
                stack.extend(cs.iter());
            }
        }
    }

    /// Pairs of sorted-event indices of two single events that are
    /// children of one `SEQ`.
    fn seq_event_pairs(p: &Pattern, out: &mut Vec<(usize, usize)>) {
        let events = p.events();
        let at = |x: &EventId| events.binary_search(x).unwrap_or(0);
        let mut stack = vec![p];
        while let Some(q) = stack.pop() {
            if let Pattern::Seq(cs) | Pattern::And(cs) = q {
                if matches!(q, Pattern::Seq(_)) {
                    let singles: Vec<usize> = cs
                        .iter()
                        .filter_map(|c| match c {
                            Pattern::Event(x) => Some(at(x)),
                            _ => None,
                        })
                        .collect();
                    for (i, &a) in singles.iter().enumerate() {
                        out.extend(singles[i + 1..].iter().map(|&b| (a, b)));
                    }
                }
                stack.extend(cs.iter());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random SEQ/AND patterns (at most 6 events, depth at most
        /// 3) and random injective bindings into a random log: swapping
        /// the images of same-shaped `AND` siblings keeps the key, equal
        /// keys give equal interpreter supports, and swapping two `SEQ`
        /// positions' images changes the key.
        #[test]
        fn canonical_keys_are_sound_and_order_aware(shape in shape_strategy(), seed in 0u64..1_000_000) {
            prop_assume!(leaves(&shape) <= 6 && depth(&shape) <= 3);
            let p = to_pattern(&shape, &mut 0);
            let plan = CanonPlan::of(&p);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 8u32;
            let log = random_log(n, &mut rng);
            let index = log.trace_index();
            let k = p.size();
            let mut images: Vec<EventId> = (0..n).map(EventId).collect();
            images.shuffle(&mut rng);
            images.truncate(k);
            let mut base = Vec::new();
            plan.key_into(&images, &mut base);
            let support = pattern_support(&mapped(&p, &images), &log, &index);

            let mut swaps = Vec::new();
            sibling_swaps(&p, &mut swaps);
            for (a, b) in &swaps {
                let mut swapped = images.clone();
                for (&i, &j) in a.iter().zip(b) {
                    swapped.swap(i, j);
                }
                let mut k2 = Vec::new();
                plan.key_into(&swapped, &mut k2);
                prop_assert_eq!(&k2, &base);
                prop_assert_eq!(pattern_support(&mapped(&p, &swapped), &log, &index), support);
            }

            // Equal keys, equal supports: shuffles of one image set
            // collide whenever an `AND` group is permuted.
            let mut seen: Vec<(Vec<EventId>, usize)> = vec![(base.clone(), support)];
            for _ in 0..32 {
                let mut shuffled = images.clone();
                shuffled.shuffle(&mut rng);
                let mut k2 = Vec::new();
                plan.key_into(&shuffled, &mut k2);
                let s2 = pattern_support(&mapped(&p, &shuffled), &log, &index);
                match seen.iter().find(|(k, _)| *k == k2) {
                    Some(&(_, s1)) => prop_assert_eq!(s2, s1),
                    None => seen.push((k2, s2)),
                }
            }

            let mut pairs = Vec::new();
            seq_event_pairs(&p, &mut pairs);
            for (i, j) in pairs {
                let mut swapped = images.clone();
                swapped.swap(i, j);
                let mut k2 = Vec::new();
                plan.key_into(&swapped, &mut k2);
                prop_assert!(k2 != base, "SEQ swap kept the key of {:?}", p);
            }
        }
    }
}
