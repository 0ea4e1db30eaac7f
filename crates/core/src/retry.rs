//! Bounded exponential backoff for transient faults.
//!
//! The typed taxonomy in [`crate::fault`] splits consumed I/O errors into
//! transient / permanent / corrupt; this module supplies the recovery
//! half: [`retry_io`] re-runs an operation while its failures classify as
//! [`FaultClass::Transient`], sleeping a deterministic exponential backoff
//! between attempts, up to a budgeted attempt cap. Permanent and corrupt
//! faults fail fast — retrying a `PermissionDenied` or re-reading torn
//! bytes cannot help.
//!
//! Sleeping is abstracted behind the [`Clock`] trait so tests drive the
//! policy with a [`VirtualClock`] that records the exact backoff sequence
//! instead of stalling the test suite; production callers use
//! [`RealClock`]. Retry outcomes feed the fault telemetry of the run's
//! plan (`fault.retries.<site>` / `fault.exhausted.<site>`) via
//! [`Faults::note_retries`] / [`Faults::note_exhausted`].

use std::io;
use std::time::Duration;

use crate::fault::{classify_io, FaultClass, Faults};

/// Bounded retry policy: attempt cap plus exponential backoff shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so `1` means "never retry").
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Backoff cap; the doubling sequence saturates here.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// The default I/O policy: 4 attempts, 10 ms → 20 ms → 40 ms backoff
    /// capped at 500 ms. Small enough that a permanently failing disk
    /// stalls a grid cell by well under a second.
    #[must_use]
    pub const fn io_default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }

    /// A policy that never retries (single attempt).
    #[must_use]
    pub const fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::from_millis(0),
            max_delay: Duration::from_millis(0),
        }
    }

    /// The deterministic backoff before retry number `retry` (0-based):
    /// `base_delay * 2^retry`, saturating at `max_delay`.
    #[must_use]
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(factor)
            .unwrap_or(self.max_delay)
            .min(self.max_delay)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::io_default()
    }
}

/// Where backoff sleeps go — real time in production, a recorded log in
/// tests.
pub trait Clock {
    /// Waits for `d` (or pretends to).
    fn sleep(&mut self, d: Duration);
}

/// Production clock: `thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealClock;

impl Clock for RealClock {
    fn sleep(&mut self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Deterministic test clock: records every requested sleep and returns
/// immediately, so tests assert the exact backoff sequence without
/// waiting it out.
#[derive(Debug, Default)]
pub struct VirtualClock {
    /// Every sleep requested, in order.
    pub slept: Vec<Duration>,
}

impl Clock for VirtualClock {
    fn sleep(&mut self, d: Duration) {
        self.slept.push(d);
    }
}

/// A successful [`retry_io`] outcome: the value plus how many retries it
/// took to get there (0 = first attempt succeeded).
#[derive(Debug)]
pub struct Recovered<T> {
    /// The operation's result.
    pub value: T,
    /// Retries performed before success.
    pub retries: u32,
}

/// A failed [`retry_io`] outcome: the supervisor gave up.
#[derive(Debug)]
pub struct RetryExhausted {
    /// Class of the final error: `Transient` means the attempt budget ran
    /// out; `Permanent`/`Corrupt` mean the failure was not retryable.
    pub class: FaultClass,
    /// Attempts performed, including the first.
    pub attempts: u32,
    /// The last error observed.
    pub last: io::Error,
}

impl RetryExhausted {
    /// Unwraps back into the final `io::Error` (for callers whose
    /// signature is `io::Result`), keeping the attempt count in the
    /// message when retries actually happened.
    #[must_use]
    pub fn into_io(self) -> io::Error {
        if self.attempts > 1 {
            io::Error::new(
                self.last.kind(),
                format!(
                    "{} ({} fault; gave up after {} attempts)",
                    self.last, self.class, self.attempts
                ),
            )
        } else {
            self.last
        }
    }
}

impl std::fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fault after {} attempt(s): {}",
            self.class, self.attempts, self.last
        )
    }
}

impl std::error::Error for RetryExhausted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.last)
    }
}

/// Runs `op`, retrying transient failures under `policy` with the backoff
/// slept on `clock`. Retries and give-ups are recorded in `faults`'
/// telemetry under `site`.
///
/// # Errors
/// [`RetryExhausted`] when the attempt budget is spent on transient
/// failures, or immediately on the first permanent/corrupt failure.
pub fn retry_io<T>(
    faults: &Faults,
    policy: &RetryPolicy,
    site: &str,
    clock: &mut dyn Clock,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<Recovered<T>, RetryExhausted> {
    let mut retries: u32 = 0;
    loop {
        match op() {
            Ok(value) => {
                faults.note_retries(site, u64::from(retries));
                return Ok(Recovered { value, retries });
            }
            Err(last) => {
                let class = classify_io(&last);
                let attempts = retries + 1;
                if class != FaultClass::Transient || attempts >= policy.max_attempts.max(1) {
                    faults.note_retries(site, u64::from(retries));
                    faults.note_exhausted(site);
                    return Err(RetryExhausted {
                        class,
                        attempts,
                        last,
                    });
                }
                clock.sleep(policy.backoff(retries));
                retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "flaky")
    }

    #[test]
    fn first_attempt_success_needs_no_clock() {
        let mut clock = VirtualClock::default();
        let faults = Faults::default();
        let got = retry_io(&faults, &RetryPolicy::io_default(), "t", &mut clock, || {
            Ok(7)
        })
        .unwrap();
        assert_eq!((got.value, got.retries), (7, 0));
        assert!(clock.slept.is_empty());
    }

    #[test]
    fn transient_failures_recover_with_exponential_backoff() {
        let mut clock = VirtualClock::default();
        let faults = Faults::default();
        let mut left = 2;
        let got = retry_io(&faults, &RetryPolicy::io_default(), "t", &mut clock, || {
            if left > 0 {
                left -= 1;
                Err(transient())
            } else {
                Ok("done")
            }
        })
        .unwrap();
        assert_eq!((got.value, got.retries), ("done", 2));
        assert_eq!(
            clock.slept,
            vec![Duration::from_millis(10), Duration::from_millis(20)],
            "virtual clock records the deterministic backoff sequence"
        );
        assert_eq!(faults.telemetry(), vec![("fault.retries.t".to_owned(), 2)]);
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let mut clock = VirtualClock::default();
        let faults = Faults::default();
        let mut calls = 0;
        let err = retry_io(&faults, &RetryPolicy::io_default(), "t", &mut clock, || {
            calls += 1;
            Err::<(), _>(io::Error::new(io::ErrorKind::PermissionDenied, "no"))
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.class, FaultClass::Permanent);
        assert_eq!(err.attempts, 1);
        assert!(clock.slept.is_empty());
        assert_eq!(
            faults.telemetry(),
            vec![("fault.exhausted.t".to_owned(), 1)],
            "an unretried failure is exhausted with no retries key"
        );
    }

    #[test]
    fn corrupt_failures_are_not_retried() {
        let mut clock = VirtualClock::default();
        let faults = Faults::default();
        let err = retry_io(&faults, &RetryPolicy::io_default(), "t", &mut clock, || {
            Err::<(), _>(io::Error::new(io::ErrorKind::InvalidData, "torn"))
        })
        .unwrap_err();
        assert_eq!(err.class, FaultClass::Corrupt);
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn attempt_budget_is_a_hard_cap() {
        let mut clock = VirtualClock::default();
        let faults = Faults::default();
        let mut calls = 0u32;
        let err = retry_io(&faults, &RetryPolicy::io_default(), "t", &mut clock, || {
            calls += 1;
            Err::<(), _>(transient())
        })
        .unwrap_err();
        assert_eq!(calls, 4, "max_attempts counts the first attempt");
        assert_eq!(err.attempts, 4);
        assert_eq!(err.class, FaultClass::Transient);
        assert_eq!(clock.slept.len(), 3, "one backoff per retry");
        assert_eq!(
            faults.telemetry(),
            vec![
                ("fault.retries.t".to_owned(), 3),
                ("fault.exhausted.t".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn exactly_at_cap_recovers_one_over_exhausts() {
        // Failing (max_attempts - 1) times leaves the last attempt to
        // succeed; failing max_attempts times exhausts the budget.
        let policy = RetryPolicy::io_default();
        let run = |failures: u32| {
            let mut clock = VirtualClock::default();
            let faults = Faults::default();
            let mut left = failures;
            retry_io(&faults, &policy, "t", &mut clock, || {
                if left > 0 {
                    left -= 1;
                    Err(transient())
                } else {
                    Ok(())
                }
            })
        };
        let at_cap = run(policy.max_attempts - 1).expect("last attempt succeeds");
        assert_eq!(at_cap.retries, policy.max_attempts - 1);
        let over = run(policy.max_attempts).expect_err("one more failure exhausts");
        assert_eq!(over.attempts, policy.max_attempts);
    }

    #[test]
    fn backoff_saturates_at_max_delay() {
        let policy = RetryPolicy {
            max_attempts: 40,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(10));
        assert_eq!(policy.backoff(3), Duration::from_millis(80));
        assert_eq!(policy.backoff(4), Duration::from_millis(100));
        assert_eq!(policy.backoff(35), Duration::from_millis(100));
    }

    #[test]
    fn no_retries_policy_fails_on_first_transient() {
        let mut clock = VirtualClock::default();
        let faults = Faults::default();
        let err = retry_io(&faults, &RetryPolicy::no_retries(), "t", &mut clock, || {
            Err::<(), _>(transient())
        })
        .unwrap_err();
        assert_eq!(err.attempts, 1);
    }
}
