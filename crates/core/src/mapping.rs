//! Event mappings `M : V1 → V2`.

use std::fmt;

use evematch_eventlog::EventId;

/// A (possibly partial) injective mapping from the events of `L1` to the
/// events of `L2`.
///
/// Stored densely: `slot v1 = Some(v2)` means `M(v1) = v2`. Injectivity is
/// enforced on every insertion.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Mapping {
    image: Vec<Option<EventId>>,
    /// `used[v2]` — whether `v2` is already an image.
    used: Vec<bool>,
}

impl Clone for Mapping {
    fn clone(&self) -> Self {
        Mapping {
            image: self.image.clone(),
            used: self.used.clone(),
        }
    }

    /// Copies `source` into this mapping's storage, allocating only when it
    /// is too small.
    fn clone_from(&mut self, source: &Self) {
        self.image.clone_from(&source.image);
        self.used.clone_from(&source.used);
    }
}

impl Mapping {
    /// The empty partial mapping between vocabularies of size `n1` and `n2`.
    pub fn empty(n1: usize, n2: usize) -> Self {
        Mapping {
            image: vec![None; n1],
            used: vec![false; n2],
        }
    }

    /// Builds a mapping from `(v1, v2)` pairs. Panics on out-of-range ids,
    /// on remapping a source, or on reusing a target.
    pub fn from_pairs(
        n1: usize,
        n2: usize,
        pairs: impl IntoIterator<Item = (EventId, EventId)>,
    ) -> Self {
        let mut m = Mapping::empty(n1, n2);
        for (a, b) in pairs {
            m.insert(a, b);
        }
        m
    }

    /// Number of source events `|V1|`.
    pub fn source_len(&self) -> usize {
        self.image.len()
    }

    /// Number of target events `|V2|`.
    pub fn target_len(&self) -> usize {
        self.used.len()
    }

    /// The image of `v1`, if mapped.
    #[inline]
    pub fn get(&self, v1: EventId) -> Option<EventId> {
        self.image[v1.index()]
    }

    /// Whether `v1` has been mapped.
    #[inline]
    pub fn is_mapped(&self, v1: EventId) -> bool {
        self.image[v1.index()].is_some()
    }

    /// Whether `v2` is the image of some source event.
    #[inline]
    pub fn is_used(&self, v2: EventId) -> bool {
        self.used[v2.index()]
    }

    /// Adds `v1 -> v2`. Panics if `v1` is already mapped or `v2` already
    /// used (injectivity).
    pub fn insert(&mut self, v1: EventId, v2: EventId) {
        assert!(
            self.image[v1.index()].is_none(),
            "source {v1} already mapped"
        );
        assert!(!self.used[v2.index()], "target {v2} already used");
        self.image[v1.index()] = Some(v2);
        self.used[v2.index()] = true;
    }

    /// Removes the assignment of `v1`, returning its former image.
    pub fn remove(&mut self, v1: EventId) -> Option<EventId> {
        let old = self.image[v1.index()].take();
        if let Some(v2) = old {
            self.used[v2.index()] = false;
        }
        old
    }

    /// Number of mapped pairs `|M|`.
    pub fn len(&self) -> usize {
        self.image.iter().filter(|x| x.is_some()).count()
    }

    /// Whether nothing is mapped yet.
    pub fn is_empty(&self) -> bool {
        self.image.iter().all(Option::is_none)
    }

    /// Whether every source event is mapped (`U1 = ∅`).
    pub fn is_complete(&self) -> bool {
        self.image.iter().all(Option::is_some)
    }

    /// Iterates over mapped pairs in source order.
    pub fn pairs(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.image
            .iter()
            .enumerate()
            .filter_map(|(i, &img)| img.map(|v2| (EventId(i as u32), v2)))
    }

    /// Unmapped source events `U1`, ascending.
    pub fn unmapped_sources(&self) -> Vec<EventId> {
        self.image
            .iter()
            .enumerate()
            .filter_map(|(i, img)| img.is_none().then_some(EventId(i as u32)))
            .collect()
    }

    /// Unused target events `U2`, ascending.
    pub fn unused_targets(&self) -> Vec<EventId> {
        self.used
            .iter()
            .enumerate()
            .filter_map(|(i, &u)| (!u).then_some(EventId(i as u32)))
            .collect()
    }

    /// Number of correct pairs w.r.t. a ground-truth mapping (same
    /// dimensions assumed).
    pub fn agreement_with(&self, truth: &Mapping) -> usize {
        self.pairs()
            .filter(|&(a, b)| truth.get(a) == Some(b))
            .count()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, b)) in self.pairs().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}->{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    #[test]
    fn insert_get_remove() {
        let mut m = Mapping::empty(3, 4);
        assert!(m.is_empty());
        m.insert(ev(0), ev(2));
        assert_eq!(m.get(ev(0)), Some(ev(2)));
        assert!(m.is_used(ev(2)));
        assert!(!m.is_complete());
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(ev(0)), Some(ev(2)));
        assert!(!m.is_used(ev(2)));
        assert!(m.is_empty());
        assert_eq!(m.remove(ev(0)), None);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn remapping_source_panics() {
        let mut m = Mapping::empty(2, 2);
        m.insert(ev(0), ev(0));
        m.insert(ev(0), ev(1));
    }

    #[test]
    #[should_panic(expected = "already used")]
    fn reusing_target_panics() {
        let mut m = Mapping::empty(2, 2);
        m.insert(ev(0), ev(1));
        m.insert(ev(1), ev(1));
    }

    #[test]
    fn unmapped_and_unused_sets() {
        let m = Mapping::from_pairs(3, 4, [(ev(1), ev(3))]);
        assert_eq!(m.unmapped_sources(), vec![ev(0), ev(2)]);
        assert_eq!(m.unused_targets(), vec![ev(0), ev(1), ev(2)]);
    }

    #[test]
    fn completeness_and_pairs() {
        let m = Mapping::from_pairs(2, 2, [(ev(0), ev(1)), (ev(1), ev(0))]);
        assert!(m.is_complete());
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![(ev(0), ev(1)), (ev(1), ev(0))]);
    }

    #[test]
    fn agreement_counts_shared_pairs() {
        let truth = Mapping::from_pairs(3, 3, [(ev(0), ev(0)), (ev(1), ev(1)), (ev(2), ev(2))]);
        let found = Mapping::from_pairs(3, 3, [(ev(0), ev(0)), (ev(1), ev(2)), (ev(2), ev(1))]);
        assert_eq!(found.agreement_with(&truth), 1);
        assert_eq!(truth.agreement_with(&truth), 3);
    }

    #[test]
    fn display_lists_pairs() {
        let m = Mapping::from_pairs(2, 2, [(ev(0), ev(1))]);
        assert_eq!(m.to_string(), "{e0->e1}");
    }
}
