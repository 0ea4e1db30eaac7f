//! Inverted trace index `I_t` (Section 3.2.3 of the paper).

use crate::event::EventId;
use crate::log::EventLog;

/// Inverted index from each event to the (sorted) ids of traces containing
/// it.
///
/// Pattern frequency counting (Section 3.2.3) scans only
/// `⋂_{v ∈ V(p)} I_t(v)` instead of the whole log — a trace can only match a
/// pattern if it contains every event of the pattern.
///
/// Every event whose posting list holds at least `n_traces / 32` ids (the
/// exact rule: `2·⌈n_traces/64⌉` ids, so its `⌈n_traces/64⌉`-word row
/// never takes more bytes than its list) also gets a *dense row*: one bit
/// per trace. [`Self::traces_with_all`] tests a dense event with one bit
/// probe per candidate and walks a sparse one's list with a forward
/// cursor, so an intersection neither clones nor merges lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceIndex {
    /// `lists[v]` = sorted trace ids containing event `v`.
    lists: Vec<Vec<u32>>,
    /// `rows[v]` = where event `v`'s dense row starts in `bits`, or `None`
    /// when its list is sparse.
    rows: Vec<Option<usize>>,
    /// Every dense row, `words` words each: bit `t % 64` of word `t / 64`
    /// is set iff trace `t` contains the row's event.
    bits: Vec<u64>,
    /// Words per dense row, `⌈n_traces/64⌉`.
    words: usize,
}

impl TraceIndex {
    /// Builds the index in one pass over the log, then one dense row per
    /// event whose list is at least as large as a row.
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
        let words = log.len().div_ceil(64);
        let mut rows = vec![None; n];
        let mut bits = Vec::new();
        for (row, list) in rows.iter_mut().zip(&lists) {
            // 8 bytes per word against 4 per id: a row is no larger than
            // its list once the list holds two ids per word.
            if 2 * words <= list.len() {
                let start = bits.len();
                bits.resize(start + words, 0);
                for &t in list {
                    bits[start + t as usize / 64] |= 1 << (t % 64);
                }
                *row = Some(start);
            }
        }
        TraceIndex {
            lists,
            rows,
            bits,
            words,
        }
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
    /// One loop over the rarest event's list keeps each id that every
    /// other event's dense row has set, or that its sparse list holds
    /// (found by a cursor that only moves forward). The ids come out
    /// ascending, exactly as a pairwise merge of the lists would give
    /// them, so a support scan over them visits, polls its fuel at and
    /// counts the same candidates in the same order. Empty `events`
    /// yields an empty list (a pattern always has ≥ 1 event, so "all
    /// traces" is never the right answer here). Panics on an event
    /// outside the index's vocabulary; callers guard against those.
    pub fn traces_with_all(&self, events: &[EventId]) -> Vec<u32> {
        let Some(&rarest) = events.iter().min_by_key(|&&e| self.lists[e.index()].len()) else {
            return Vec::new();
        };
        let mut filters: Vec<Filter<'_>> = events
            .iter()
            .filter(|&&e| e != rarest)
            .map(|&e| match self.rows[e.index()] {
                Some(start) => Filter::Row(&self.bits[start..start + self.words]),
                None => Filter::List(&self.lists[e.index()]),
            })
            .collect();
        let candidates = &self.lists[rarest.index()];
        let mut out = Vec::with_capacity(candidates.len());
        'candidates: for &t in candidates {
            for filter in &mut filters {
                match filter {
                    Filter::Row(row) => {
                        if row[t as usize / 64] & (1 << (t % 64)) == 0 {
                            continue 'candidates;
                        }
                    }
                    Filter::List(list) => {
                        let skip = list.iter().take_while(|&&x| x < t).count();
                        *list = &list[skip..];
                        match list.first() {
                            Some(&x) if x == t => {}
                            Some(_) => continue 'candidates,
                            // No later id can be in this list.
                            None => break 'candidates,
                        }
                    }
                }
            }
            out.push(t);
        }
        out
    }
}

/// How [`TraceIndex::traces_with_all`] tests a candidate against one
/// event that is not the rarest.
enum Filter<'a> {
    /// The event's dense row.
    Row(&'a [u64]),
    /// What is left of the event's sparse list past the previous
    /// candidate.
    List(&'a [u32]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSet;
    use crate::log::LogBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Events in a [`random_log`]'s vocabulary; the last two occur in no
    /// trace.
    const VOCABULARY: u32 = 12;

    /// A log of 0–300 traces (half the time within two of a multiple of
    /// 64, where a dense row's last word fills up), one in eight of them
    /// empty. Each used event has its own inclusion rate — high, low or
    /// anywhere — so dense and sparse lists mix, and an included event
    /// occurs one to three times, in shuffled order.
    fn random_log(rng: &mut StdRng) -> EventLog {
        let n = if rng.gen_bool(0.5) {
            (64 * rng.gen_range(0..5i64) + rng.gen_range(-2..=2i64)).clamp(0, 300) as usize
        } else {
            rng.gen_range(0..=300usize)
        };
        let rates: Vec<f64> = (0..VOCABULARY - 2)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0.5..1.0),
                1 => rng.gen_range(0.0..0.05),
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        let names: Vec<String> = (0..VOCABULARY).map(|i| format!("e{i}")).collect();
        let mut b = LogBuilder::with_events(EventSet::from_names(&names));
        for _ in 0..n {
            let mut trace: Vec<u32> = Vec::new();
            if !rng.gen_bool(0.125) {
                for (e, &rate) in rates.iter().enumerate() {
                    if rng.gen_bool(rate) {
                        let copies = rng.gen_range(1..=3usize);
                        trace.extend(std::iter::repeat(e as u32).take(copies));
                    }
                }
                trace.shuffle(rng);
            }
            b.push_trace(trace);
        }
        b.build()
    }

    /// 1–6 distinct events of the vocabulary, in random order.
    fn random_query(rng: &mut StdRng) -> Vec<EventId> {
        let mut events: Vec<EventId> = (0..VOCABULARY).map(EventId).collect();
        events.shuffle(rng);
        events.truncate(rng.gen_range(1..=6usize));
        events
    }

    /// The traces holding every one of `events`, by scanning each trace.
    fn brute_force(log: &EventLog, events: &[EventId]) -> Vec<u32> {
        (0..log.len())
            .filter(|&t| events.iter().all(|e| log.trace(t).contains(e)))
            .map(|t| t as u32)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn traces_with_all_equals_a_scan_of_every_trace(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let log = random_log(&mut rng);
            let idx = log.trace_index();
            for _ in 0..8 {
                let events = random_query(&mut rng);
                prop_assert_eq!(idx.traces_with_all(&events), brute_force(&log, &events));
            }
        }
    }

    #[test]
    fn random_queries_mix_dense_and_sparse_events() {
        // The property above covers both filters in one query only if the
        // generator makes such queries; count them.
        let mut mixed = 0;
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let idx = random_log(&mut rng).trace_index();
            for _ in 0..8 {
                let events = random_query(&mut rng);
                let dense = events.iter().filter(|e| idx.rows[e.index()].is_some());
                let dense = dense.count();
                if dense > 0 && dense < events.len() {
                    mixed += 1;
                }
            }
        }
        assert!(
            mixed >= 64,
            "only {mixed} of 512 queries mix dense and sparse events"
        );
    }

    #[test]
    fn dense_rows_never_take_more_bytes_than_their_lists() {
        for seed in 0..64 {
            let idx = random_log(&mut StdRng::seed_from_u64(seed)).trace_index();
            let mut rows = 0;
            for (row, list) in idx.rows.iter().zip(&idx.lists) {
                if row.is_some() {
                    rows += 1;
                    assert!(
                        idx.words * size_of::<u64>() <= list.len() * size_of::<u32>(),
                        "seed {seed}: a {}-word row for a {}-id list",
                        idx.words,
                        list.len()
                    );
                }
            }
            assert_eq!(idx.bits.len(), rows * idx.words, "seed {seed}");
        }
    }

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
