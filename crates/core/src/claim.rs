//! The shared claim cursor that hands out job indices to racing workers.
//!
//! `eval::experiments::run_grid` fans its `(x, seed)` jobs out over scoped
//! worker threads; every worker claims its next job through one
//! [`ClaimCursor`]. Determinism never depends on which worker claims which
//! job: results are keyed by job index and merged in index order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hands out item indices `0..len` to racing workers, each index to
/// exactly one worker.
///
/// One `fetch_add` per claim: its atomicity alone makes every index
/// unique (DESIGN.md §11).
#[derive(Debug)]
pub struct ClaimCursor {
    next: AtomicUsize,
    len: usize,
}

impl ClaimCursor {
    /// A cursor over the item indices `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Claims the next unassigned item index, or `None` when every index
    /// has been handed out. Each index in `0..len` is returned exactly once
    /// across all threads.
    pub fn claim(&self) -> Option<usize> {
        // ordering: Relaxed suffices — the fetch_add's atomicity alone
        // guarantees unique indices, and the claimed item's data is
        // published to workers by the thread::scope spawn (and results
        // back by join), not by this counter. See DESIGN.md §11.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i < self.len {
            Some(i)
        } else {
            None
        }
    }

    /// Number of items the cursor hands out.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cursor has nothing to hand out.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_cursor_hands_out_each_index_once_and_then_none() {
        let cursor = ClaimCursor::new(3);
        assert_eq!(cursor.len(), 3);
        assert!(!cursor.is_empty());
        let claims: Vec<_> = std::iter::from_fn(|| cursor.claim()).collect();
        assert_eq!(claims, vec![0, 1, 2]);
        assert_eq!(cursor.claim(), None);
        assert!(ClaimCursor::new(0).is_empty());
        assert_eq!(ClaimCursor::new(0).claim(), None);
    }

    #[test]
    fn racing_workers_claim_each_index_once() {
        const THREADS: usize = 8;
        for len in [0, 1, 3, 1000] {
            let cursor = ClaimCursor::new(len);
            // Every worker waits at the barrier, so all of them race from
            // the first claim on.
            let start = std::sync::Barrier::new(THREADS);
            let per_thread: Vec<Vec<usize>> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            std::iter::from_fn(|| cursor.claim()).collect()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("workers never panic"))
                    .collect()
            });
            for claims in &per_thread {
                assert!(
                    claims.windows(2).all(|w| w[0] < w[1]),
                    "len {len}: one thread's claims must increase: {claims:?}"
                );
            }
            let mut all: Vec<usize> = per_thread.concat();
            all.sort_unstable();
            assert_eq!(all, (0..len).collect::<Vec<_>>(), "len {len}");
            assert_eq!(cursor.claim(), None);
        }
    }
}
