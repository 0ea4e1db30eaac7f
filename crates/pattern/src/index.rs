//! Inverted pattern index `I_p` (Section 3.2.1).

use evematch_eventlog::EventId;

/// Inverted index from each event to the patterns that involve it.
///
/// Two uses in the search (Section 3):
///
/// * computing `P_new` — when the partial mapping is extended with
///   `a -> b`, the newly *completed* patterns are exactly those in
///   `I_p(a)` whose other events were already mapped;
/// * the expansion order — Algorithm 1 picks the unmapped event involved
///   in the most patterns, so completed patterns appear (and prune) early.
#[derive(Clone, Debug, Default)]
pub struct PatternIndex {
    /// `lists[v]` = indices of patterns involving event `v`.
    lists: Vec<Vec<usize>>,
    /// `events[i]` = sorted events of pattern `i`.
    events: Vec<Vec<EventId>>,
}

impl PatternIndex {
    /// Builds the index for `n_events` vocabulary entries over the given
    /// per-pattern (sorted) event lists.
    pub fn new(n_events: usize, pattern_events: Vec<Vec<EventId>>) -> Self {
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n_events];
        for (i, evs) in pattern_events.iter().enumerate() {
            debug_assert!(
                evs.windows(2).all(|w| w[0] < w[1]),
                "must be sorted+distinct"
            );
            for &e in evs {
                if e.index() < n_events {
                    lists[e.index()].push(i);
                }
            }
        }
        PatternIndex {
            lists,
            events: pattern_events,
        }
    }

    /// Number of indexed patterns.
    pub fn pattern_count(&self) -> usize {
        self.events.len()
    }

    /// Indices of patterns involving event `v`.
    pub fn patterns_of(&self, v: EventId) -> &[usize] {
        &self.lists[v.index()]
    }

    /// Number of patterns involving event `v` (the Algorithm-1 expansion
    /// priority).
    pub fn involvement(&self, v: EventId) -> usize {
        self.lists[v.index()].len()
    }

    /// Sorted events of pattern `i`.
    pub fn pattern_events(&self, i: usize) -> &[EventId] {
        &self.events[i]
    }

    /// Events ordered by descending pattern involvement (ties by id), the
    /// static expansion order of Algorithm 1 line 5.
    pub fn expansion_order(&self) -> Vec<EventId> {
        let mut order: Vec<EventId> = (0..self.lists.len() as u32).map(EventId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.involvement(v)), v));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> EventId {
        EventId(i)
    }

    fn index() -> PatternIndex {
        // p0 = {0,1}, p1 = {1,2,3}, p2 = {3}.
        PatternIndex::new(
            5,
            vec![vec![ev(0), ev(1)], vec![ev(1), ev(2), ev(3)], vec![ev(3)]],
        )
    }

    #[test]
    fn patterns_of_event() {
        let idx = index();
        assert_eq!(idx.patterns_of(ev(1)), &[0, 1]);
        assert_eq!(idx.patterns_of(ev(3)), &[1, 2]);
        assert_eq!(idx.patterns_of(ev(4)), &[] as &[usize]);
        assert_eq!(idx.pattern_count(), 3);
    }

    #[test]
    fn expansion_order_by_involvement() {
        let idx = index();
        let order = idx.expansion_order();
        // Involvements: e0=1, e1=2, e2=1, e3=2, e4=0. Ties by id.
        assert_eq!(order, vec![ev(1), ev(3), ev(0), ev(2), ev(4)]);
    }

    #[test]
    fn out_of_range_pattern_events_are_ignored() {
        let idx = PatternIndex::new(1, vec![vec![ev(0), ev(7)]]);
        assert_eq!(idx.patterns_of(ev(0)), &[0]);
        assert_eq!(idx.pattern_events(0), &[ev(0), ev(7)]);
    }
}
