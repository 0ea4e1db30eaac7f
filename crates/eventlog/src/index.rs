//! Inverted trace index `I_t` (Section 3.2.3 of the paper).

use crate::event::EventId;
use crate::log::EventLog;

/// Inverted index from each event to the (sorted) ids of traces containing
/// it.
///
/// Pattern frequency counting (Section 3.2.3) scans only
/// `⋂_{v ∈ V(p)} I_t(v)` instead of the whole log — a trace can only match a
/// pattern if it contains every event of the pattern.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceIndex {
    /// `lists[v]` = sorted trace ids containing event `v`.
    lists: Vec<Vec<u32>>,
}

impl TraceIndex {
    /// Builds the index in one pass over the log.
    pub fn from_log(log: &EventLog) -> Self {
        let n = log.event_count();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, t) in log.traces().enumerate() {
            for &e in t {
                let list = &mut lists[e.index()];
                // Events may repeat within a trace; the id is appended once.
                if list.last() != Some(&(i as u32)) {
                    list.push(i as u32);
                }
            }
        }
        TraceIndex { lists }
    }

    /// Sorted ids of traces containing event `v`.
    pub fn traces_with(&self, v: EventId) -> &[u32] {
        &self.lists[v.index()]
    }

    /// Number of indexed events.
    pub fn event_count(&self) -> usize {
        self.lists.len()
    }

    /// Sorted ids of traces containing *all* of `events`.
    ///
    /// Empty `events` yields an empty list (a pattern always has ≥ 1 event,
    /// so "all traces" is never the right answer here).
    pub fn traces_with_all(&self, events: &[EventId]) -> Vec<u32> {
        let Some((&first, rest)) = events.split_first() else {
            return Vec::new();
        };
        // Intersect starting from the rarest event to keep the working set
        // small.
        let mut order: Vec<EventId> = std::iter::once(first).chain(rest.iter().copied()).collect();
        order.sort_by_key(|&e| self.lists[e.index()].len());
        let mut acc: Vec<u32> = self.lists[order[0].index()].clone();
        for &e in &order[1..] {
            if acc.is_empty() {
                break;
            }
            acc = intersect_sorted(&acc, &self.lists[e.index()]);
        }
        acc
    }
}

/// Intersection of two sorted, deduplicated id lists.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogBuilder;

    fn log() -> EventLog {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A", "B", "C"]); // 0
        b.push_named_trace(["A", "A", "B"]); // 1
        b.push_named_trace(["C"]); // 2
        b.push_named_trace(["B", "A"]); // 3
        b.build()
    }

    #[test]
    fn lists_are_sorted_and_deduped() {
        let l = log();
        let idx = l.trace_index();
        let a = l.events().lookup("A").unwrap();
        assert_eq!(idx.traces_with(a), &[0, 1, 3]);
        let c = l.events().lookup("C").unwrap();
        assert_eq!(idx.traces_with(c), &[0, 2]);
    }

    #[test]
    fn intersection_of_two_events() {
        let l = log();
        let idx = l.trace_index();
        let a = l.events().lookup("A").unwrap();
        let b = l.events().lookup("B").unwrap();
        let c = l.events().lookup("C").unwrap();
        assert_eq!(idx.traces_with_all(&[a, b]), vec![0, 1, 3]);
        assert_eq!(idx.traces_with_all(&[a, c]), vec![0]);
        assert_eq!(idx.traces_with_all(&[a, b, c]), vec![0]);
    }

    #[test]
    fn empty_query_yields_empty() {
        let idx = log().trace_index();
        assert!(idx.traces_with_all(&[]).is_empty());
    }

    #[test]
    fn disjoint_events_yield_empty() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["A"]);
        b.push_named_trace(["B"]);
        let l = b.build();
        let idx = l.trace_index();
        let a = l.events().lookup("A").unwrap();
        let bb = l.events().lookup("B").unwrap();
        assert!(idx.traces_with_all(&[a, bb]).is_empty());
    }

    #[test]
    fn single_event_query_is_the_posting_list() {
        let l = log();
        let idx = l.trace_index();
        let b = l.events().lookup("B").unwrap();
        assert_eq!(idx.traces_with_all(&[b]), idx.traces_with(b).to_vec());
    }
}
