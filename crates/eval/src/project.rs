//! Dataset projection for the experiment sweeps (Section 6.1).
//!
//! The paper varies the event-set size by "projecting the first *x* events
//! appearing in the dataset" and the trace number by "selecting the first
//! *y* traces". Projection must stay consistent across the pair: keeping
//! event `v` in `L1` keeps its ground-truth image in `L2` (decoy events
//! without a pre-image are always kept, so `|V1| ≤ |V2|` is preserved), the
//! truth is re-indexed, and declared patterns that lose an event are
//! dropped.

use evematch_core::Mapping;
use evematch_datagen::{Dataset, LogPair};
use evematch_eventlog::EventId;
use evematch_pattern::Pattern;

/// Projects `ds` onto the first `x` events of `L1` (by event id order) and
/// the corresponding events of `L2`.
pub fn project_dataset(ds: &Dataset, x: usize) -> Dataset {
    let keep1: Vec<EventId> = (0..ds.pair.log1.event_count().min(x) as u32)
        .map(EventId)
        .collect();
    // L2 keeps the images of kept events plus every decoy (no pre-image).
    let images: Vec<EventId> = keep1.iter().filter_map(|&v| ds.pair.truth.get(v)).collect();
    let mut keep2 = images.clone();
    for e in (0..ds.pair.log2.event_count() as u32).map(EventId) {
        if !ds.pair.truth.pairs().any(|(_, b)| b == e) {
            keep2.push(e);
        }
    }
    keep2.sort_unstable();

    let (log1, remap1) = ds.pair.log1.project_events(&keep1);
    let (log2, remap2) = ds.pair.log2.project_events(&keep2);
    let truth = Mapping::from_pairs(
        log1.event_count(),
        log2.event_count(),
        ds.pair
            .truth
            .pairs()
            .filter_map(|(a, b)| match (remap1[a.index()], remap2[b.index()]) {
                (Some(na), Some(nb)) => Some((na, nb)),
                _ => None,
            }),
    );
    #[expect(
        clippy::expect_used,
        reason = "the filter keeps only patterns whose events all remap"
    )]
    let patterns: Vec<Pattern> = ds
        .patterns
        .iter()
        .filter(|p| p.events().iter().all(|e| remap1[e.index()].is_some()))
        .map(|p| p.map_events(&|e| remap1[e.index()].expect("checked above")))
        .collect();
    Dataset {
        pair: LogPair { log1, log2, truth },
        patterns,
        name: ds.name,
    }
}

/// Restricts both logs of `ds` to their first `y` traces.
pub fn truncate_traces(ds: &Dataset, y: usize) -> Dataset {
    Dataset {
        pair: LogPair {
            log1: ds.pair.log1.take_traces(y),
            log2: ds.pair.log2.take_traces(y),
            truth: ds.pair.truth.clone(),
        },
        patterns: ds.patterns.clone(),
        name: ds.name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evematch_datagen::datasets::{fig1_like, real_like_sized};

    #[test]
    fn projection_shrinks_both_sides_consistently() {
        let ds = real_like_sized(100, 100, 1);
        for x in 2..=11 {
            let p = project_dataset(&ds, x);
            assert_eq!(p.pair.log1.event_count(), x);
            // The real-like pair carries 2 decoys, which are always kept.
            assert_eq!(p.pair.log2.event_count(), x + 2);
            assert_eq!(p.pair.truth.len(), x);
            // Truth still maps behaviourally-identical events: frequencies
            // correspond approximately.
            for (a, b) in p.pair.truth.pairs() {
                let (f1, f2) = (p.pair.log1.vertex_freq(a), p.pair.log2.vertex_freq(b));
                assert!((f1 - f2).abs() < 0.2, "projected pair {a}->{b}");
            }
        }
    }

    #[test]
    fn projection_keeps_decoys() {
        let ds = fig1_like();
        let p = project_dataset(&ds, 3);
        assert_eq!(p.pair.log1.event_count(), 3);
        // 3 images + 2 decoys.
        assert_eq!(p.pair.log2.event_count(), 5);
        assert_eq!(p.pair.truth.len(), 3);
    }

    #[test]
    fn projection_drops_patterns_with_missing_events() {
        let ds = fig1_like();
        // Keeping all 6 events keeps both patterns.
        assert_eq!(project_dataset(&ds, 6).patterns.len(), 2);
        // The patterns span events up to id ≥ 3; a 2-event projection
        // cannot keep them.
        assert_eq!(project_dataset(&ds, 2).patterns.len(), 0);
    }

    #[test]
    fn projection_beyond_vocabulary_is_identity_sized() {
        let ds = fig1_like();
        let p = project_dataset(&ds, 99);
        assert_eq!(p.pair.log1.event_count(), 6);
        assert_eq!(p.pair.log2.event_count(), 8);
        assert_eq!(p.patterns.len(), 2);
    }

    #[test]
    fn truncation_takes_trace_prefix() {
        let ds = real_like_sized(50, 50, 2);
        let t = truncate_traces(&ds, 10);
        assert_eq!(t.pair.log1.len(), 10);
        assert_eq!(t.pair.log2.len(), 10);
        assert_eq!(t.pair.log1.trace(0), ds.pair.log1.trace(0));
        assert_eq!(t.patterns.len(), ds.patterns.len());
    }
}
