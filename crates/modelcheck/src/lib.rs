//! Bounded interleaving model checks for the workspace's three core
//! concurrency invariants (see DESIGN.md §11):
//!
//! 1. **Claim cursor** — `core::claim::ClaimCursor`, through which the
//!    experiment grid's workers claim their `(x, seed)` jobs, never
//!    double-assigns or skips an item, under any schedule.
//! 2. **Deadline latch** — racing `tick()` callers on one `BudgetMeter`
//!    latch the elapsed deadline, and the latch stays set.
//! 3. **Shard poisoning** — a solver thread dying inside a
//!    `SharedSupportCache` shard is always recovered without losing the
//!    poisoned shard's entries or their first-owner attribution, even with
//!    a concurrent writer on the same shard.
//!
//! The harnesses drive the *real* runtime types through the instrumented
//! `core::sync` shim and `core::sync::model`'s DFS scheduler, so they only
//! do anything when built with `RUSTFLAGS='--cfg evematch_model'`:
//!
//! ```text
//! RUSTFLAGS='--cfg evematch_model' cargo test -p evematch-modelcheck
//! ```
//!
//! Without the cfg the crate compiles to a stub (one metadata function), so
//! the tier-1 suite neither pays for nor depends on model mode. Each
//! invariant is paired with a *seeded-bug* harness — the same scenario with
//! a deliberately racy implementation — proving the checker can actually
//! catch the class of bug it guards against. `EVEMATCH_MODEL_PREEMPTIONS`
//! and `EVEMATCH_MODEL_MAX_SCHEDULES` deepen the exploration (nightly CI).
//!
//! The [`crashcheck`] module (and its `crashcheck` binary) is the
//! *storage* counterpart: an ALICE-style crash-consistency explorer over
//! the persistence layer's recorded write/fsync/rename traces (DESIGN.md
//! §14). It needs no special cfg — it drives the real code on a real
//! filesystem.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crashcheck;

/// Whether this build carries the instrumented scheduler (`--cfg
/// evematch_model`). The stub build returns `false` and exposes nothing
/// else.
#[must_use]
pub fn model_mode_enabled() -> bool {
    cfg!(evematch_model)
}

#[cfg(evematch_model)]
mod harness {
    use std::sync::Arc;
    use std::time::Duration;

    use evematch_core::claim::ClaimCursor;
    use evematch_core::sync::model::{check, spawn, ModelConfig, Report};
    use evematch_core::sync::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
    use evematch_core::{Budget, Exhaustion, SharedSupportCache};
    use evematch_eventlog::EventId;

    /// Invariant 1: `threads` workers drain a [`ClaimCursor`] over `items`
    /// items; across every bounded interleaving each index is claimed
    /// exactly once and none is skipped.
    pub fn check_claim_cursor(config: &ModelConfig, threads: usize, items: usize) -> Report {
        check(config, move || {
            let cursor = Arc::new(ClaimCursor::new(items));
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    spawn(move || {
                        let mut got = Vec::new();
                        while let Some(i) = cursor.claim() {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            let mut claimed: Vec<usize> = Vec::new();
            for worker in workers {
                claimed.extend(worker.join().expect("workers never panic"));
            }
            claimed.sort_unstable();
            let expected: Vec<usize> = (0..items).collect();
            assert_eq!(
                claimed, expected,
                "claim cursor must hand out each index exactly once"
            );
        })
    }

    /// Invariant 2: threads polling an already-elapsed deadline through
    /// `tick` latch [`Exhaustion::Deadline`], in every interleaving, and
    /// the latch is sticky.
    pub fn check_deadline_latch(config: &ModelConfig, workers: usize) -> Report {
        check(config, move || {
            // A zero deadline has already elapsed at metering time and a
            // poll interval of 1 polls on every tick, so the scenario is
            // deterministic: whichever thread polls first wins the latch.
            let meter = Arc::new(
                Budget::UNLIMITED
                    .with_deadline(Duration::ZERO)
                    .with_poll_interval(1)
                    .meter(),
            );
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let meter = Arc::clone(&meter);
                    spawn(move || meter.tick())
                })
                .collect();
            for handle in handles {
                handle.join().expect("workers never panic");
            }
            assert_eq!(meter.exhaustion(), Some(Exhaustion::Deadline));
            // Sticky: a later tick leaves the cause, and no work is
            // charged past it.
            meter.tick();
            assert_eq!(meter.exhaustion(), Some(Exhaustion::Deadline));
            assert!(!meter.charge_processed());
        })
    }

    /// Invariant 3: a thread dying while holding a shard's write guard
    /// races a writer inserting into the same shard; in every interleaving
    /// the pre-existing entry keeps its first owner, the shard recovers for
    /// reads and writes, and the panic surfaces only through `join`.
    pub fn check_poisoned_shard_recovery(config: &ModelConfig) -> Report {
        check(config, || {
            let images = [EventId(0), EventId(1)];
            let cache = Arc::new(SharedSupportCache::model_private());
            cache.model_insert(7, &images, 42, 0);
            let poisoner = {
                let cache = Arc::clone(&cache);
                spawn(move || cache.model_poison_shard(7, &[EventId(0), EventId(1)]))
            };
            let writer = {
                let cache = Arc::clone(&cache);
                // Same key, different owner: contends on the same shard
                // lock, and must never displace the original entry.
                spawn(move || cache.model_insert(7, &[EventId(0), EventId(1)], 42, 1))
            };
            assert!(
                poisoner.join().is_err(),
                "the poisoning panic must surface via join"
            );
            writer
                .join()
                .expect("the writer must survive the poisoned shard");
            assert_eq!(
                cache.model_get(7, &images),
                Some((42, 0)),
                "first-owner attribution survives poisoning"
            );
            // The poisoned shard keeps accepting fresh keys.
            cache.model_insert(9, &images, 5, 1);
            assert_eq!(cache.model_get(9, &images), Some((5, 1)));
        })
    }

    /// Seeded bug for invariant 1: a cursor whose claim is a non-atomic
    /// load-then-store. The checker must find a schedule where two workers
    /// claim the same index.
    pub fn check_seeded_racy_cursor(config: &ModelConfig) -> Report {
        struct RacyCursor {
            next: AtomicUsize,
            len: usize,
        }
        impl RacyCursor {
            fn claim(&self) -> Option<usize> {
                // ordering: Relaxed — deliberately broken claim (the bug
                // is the lost read-modify-write, not the ordering).
                let i = self.next.load(Ordering::Relaxed);
                // ordering: Relaxed — second half of the seeded race.
                self.next.store(i + 1, Ordering::Relaxed);
                (i < self.len).then_some(i)
            }
        }
        check(config, || {
            let cursor = Arc::new(RacyCursor {
                next: AtomicUsize::new(0),
                len: 2,
            });
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let cursor = Arc::clone(&cursor);
                    spawn(move || {
                        let mut got = Vec::new();
                        while let Some(i) = cursor.claim() {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            let mut claimed: Vec<usize> = Vec::new();
            for worker in workers {
                claimed.extend(worker.join().expect("workers never panic"));
            }
            claimed.sort_unstable();
            assert_eq!(claimed, vec![0, 1], "seeded racy cursor double-assigned");
        })
    }

    /// Seeded bug for invariant 2: a check-then-set latch (no CAS). The
    /// checker must find a schedule where both threads win the latch.
    pub fn check_seeded_racy_latch(config: &ModelConfig) -> Report {
        struct RacyLatch {
            state: AtomicU8,
            trips: AtomicU64,
        }
        impl RacyLatch {
            fn trip(&self) {
                // ordering: Acquire — deliberately broken latch: the bug
                // is check-then-set instead of compare_exchange.
                if self.state.load(Ordering::Acquire) == 0 {
                    // ordering: Release — publish the (racy) latch.
                    self.state.store(1, Ordering::Release);
                    // ordering: Relaxed — trip statistic.
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        check(config, || {
            let latch = Arc::new(RacyLatch {
                state: AtomicU8::new(0),
                trips: AtomicU64::new(0),
            });
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let latch = Arc::clone(&latch);
                    spawn(move || latch.trip())
                })
                .collect();
            for handle in handles {
                handle.join().expect("workers never panic");
            }
            // ordering: Relaxed — read after joins; the joins synchronize.
            assert_eq!(
                latch.trips.load(Ordering::Relaxed),
                1,
                "seeded racy latch tripped more than once"
            );
        })
    }
}

#[cfg(evematch_model)]
pub use harness::{
    check_claim_cursor, check_deadline_latch, check_poisoned_shard_recovery,
    check_seeded_racy_cursor, check_seeded_racy_latch,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_mode_flag_reflects_the_build() {
        // In a tier-1 build this is the whole crate: a stub that reports
        // model mode is off. Under --cfg evematch_model the invariant
        // tests below do the real work.
        assert_eq!(model_mode_enabled(), cfg!(evematch_model));
    }

    #[cfg(evematch_model)]
    mod model {
        use super::super::*;
        use evematch_core::sync::model::ModelConfig;

        fn config() -> ModelConfig {
            ModelConfig::from_env()
        }

        #[test]
        fn claim_cursor_never_double_assigns_or_skips() {
            // Two workers over three items and three workers over two
            // items: both shapes explored exhaustively within the bound.
            check_claim_cursor(&config(), 2, 3).assert_ok();
            check_claim_cursor(&config(), 3, 2).assert_ok();
        }

        #[test]
        fn deadline_latch_trips_exactly_once_across_all_schedules() {
            check_deadline_latch(&config(), 2).assert_ok();
        }

        #[test]
        fn poisoned_shard_recovery_preserves_first_owner_attribution() {
            check_poisoned_shard_recovery(&config()).assert_ok();
        }

        #[test]
        fn the_checker_catches_a_seeded_racy_cursor() {
            let report = check_seeded_racy_cursor(&config());
            let failure = report
                .failure
                .expect("the seeded double-assign must be found");
            assert!(
                failure.message.contains("double-assigned"),
                "unexpected failure: {}",
                failure.message
            );
            assert!(
                !failure.schedule.is_empty(),
                "failing schedule is replayable"
            );
        }

        #[test]
        fn the_checker_catches_a_seeded_racy_latch() {
            let report = check_seeded_racy_latch(&config());
            let failure = report
                .failure
                .expect("the seeded double-trip must be found");
            assert!(
                failure.message.contains("more than once"),
                "unexpected failure: {}",
                failure.message
            );
        }
    }
}
