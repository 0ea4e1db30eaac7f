//! Cooperative resource budgets shared by every solver.
//!
//! A [`Budget`] declares the resources a caller is willing to spend on one
//! `solve` call: a wall-clock deadline, a cap on processed candidate
//! mappings, and a cap on the search frontier size. A [`BudgetMeter`] is
//! the running instance of a budget: solvers *charge* it for each unit of
//! work and *tick* it from inner loops (frequency counting, bound
//! evaluation, VF2 descent) so a deadline is observed even when a single
//! outer step is expensive.
//!
//! Design rules, relied on by the rest of the crate:
//!
//! - **Sticky exhaustion.** Once a limit trips, the meter stays exhausted;
//!   solvers may finish a bounded amount of uncharged "grace" work (e.g.
//!   completing the current node's children) and must then return.
//! - **Determinism.** The clock is read only when a deadline is actually
//!   set. A budget with only `max_processed`/`max_frontier` limits is
//!   bit-deterministic: two runs with the same cap perform identical work.
//! - **Poll cadence.** When a deadline is set, the clock is read on the
//!   first work unit and then again on the first work unit after each
//!   `poll_interval` further units — not only when a global counter
//!   happens to be a multiple of the interval.
//!
//! This module and `core::telemetry`'s span clock are the only places in
//! the solver crates allowed to read the wall clock (clippy's
//! `disallowed_methods`, rule T6, flags any other read; these two carry
//! `#[expect]` waivers). The division of labour:
//! this module may *branch* on the clock (that is what a deadline is),
//! while telemetry spans only ever *record* it.
//!
//! One meter belongs to one solver run and is used from the thread driving
//! it. Its counters and latch are [`Cell`]s, so every method takes `&self`
//! and a fuel closure can tick the meter through a shared reference while
//! the run holds it; the latch keeps the *first* limit that trips.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Declarative resource limits for one solver invocation.
///
/// The default budget is [`Budget::UNLIMITED`]; use the builder methods to
/// restrict it. `Budget` is `Copy` so solvers can store it by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of candidate (partial) mappings to process, i.e.
    /// chargeable units of search work. `None` = unlimited.
    pub max_processed: Option<u64>,
    /// Wall-clock deadline for the whole call. `None` = unlimited.
    /// Deadline budgets are *not* deterministic; see the module docs.
    pub max_duration: Option<Duration>,
    /// Maximum frontier (priority-queue) size for frontier-based searches.
    /// `None` = unlimited. Solvers without a frontier ignore this.
    pub max_frontier: Option<usize>,
    /// How many work units pass between clock reads when a deadline is
    /// set. Values below 1 are treated as 1.
    pub poll_interval: u32,
}

/// Default number of work units between deadline polls.
pub const DEFAULT_POLL_INTERVAL: u32 = 64;

impl Budget {
    /// No limits at all: solvers run to completion and never poll the
    /// clock, preserving bit-determinism.
    pub const UNLIMITED: Self = Self {
        max_processed: None,
        max_duration: None,
        max_frontier: None,
        poll_interval: DEFAULT_POLL_INTERVAL,
    };

    /// Returns a copy with a processed-mapping cap. Deterministic.
    #[must_use]
    pub fn with_processed_cap(mut self, cap: u64) -> Self {
        self.max_processed = Some(cap);
        self
    }

    /// Returns a copy with a wall-clock deadline. Not deterministic.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.max_duration = Some(deadline);
        self
    }

    /// Returns a copy with a frontier-size cap. Deterministic.
    #[must_use]
    pub fn with_frontier_cap(mut self, cap: usize) -> Self {
        self.max_frontier = Some(cap);
        self
    }

    /// Returns a copy with the given poll interval (clamped to ≥ 1 at
    /// metering time).
    #[must_use]
    pub fn with_poll_interval(mut self, interval: u32) -> Self {
        self.poll_interval = interval;
        self
    }

    /// `true` when no limit is set; solvers skip all anytime machinery.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_processed.is_none() && self.max_duration.is_none() && self.max_frontier.is_none()
    }

    /// Reads a budget from the `EVEMATCH_LIMIT_SECS`,
    /// `EVEMATCH_LIMIT_PROCESSED` and `EVEMATCH_LIMIT_FRONTIER`
    /// environment variables. An unset variable leaves its limit unset, so
    /// with no variables this returns [`Budget::UNLIMITED`].
    ///
    /// # Panics
    /// When a variable is set but is not an unsigned integer (say `10k`):
    /// running on without the limit would silently ignore it.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_vars(|key| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`Self::from_env`] over an injected variable lookup (`None` =
    /// unset), so the parse policy is testable without the process
    /// environment.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let limit = |key: &str| {
            let value = var(key)?;
            match value.trim().parse::<u64>() {
                Ok(n) => Some(n),
                #[expect(
                    clippy::panic,
                    reason = "a malformed limit must stop the run, not silently lift the limit; \
                              documented under # Panics on from_env"
                )]
                Err(e) => panic!("{key}={value:?} is not an unsigned integer: {e}"),
            }
        };
        let mut b = Self::UNLIMITED;
        if let Some(secs) = limit("EVEMATCH_LIMIT_SECS") {
            b.max_duration = Some(Duration::from_secs(secs));
        }
        b.max_processed = limit("EVEMATCH_LIMIT_PROCESSED");
        b.max_frontier = limit("EVEMATCH_LIMIT_FRONTIER").map(|n| n as usize);
        b
    }

    /// Starts metering this budget. The wall clock is sampled here (once)
    /// even for deadline-free budgets; it is *read again* only when a
    /// deadline is set.
    #[must_use]
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            budget: *self,
            #[expect(
                clippy::disallowed_methods,
                reason = "the budget module owns the deadline poll every solver shares"
            )]
            start: Instant::now(),
            processed: Cell::new(0),
            polls: Cell::new(0),
            since_poll: Cell::new(0),
            exhausted: Cell::new(None),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// Which limit of a [`Budget`] tripped first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Exhaustion {
    /// The processed-mapping cap was reached.
    Processed,
    /// The wall-clock deadline elapsed.
    Deadline,
    /// The frontier grew past its cap.
    Frontier,
}

impl Exhaustion {
    /// Stable machine-readable key, used as the `budget.exhausted.<key>`
    /// metrics counter name.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Self::Processed => "processed",
            Self::Deadline => "deadline",
            Self::Frontier => "frontier",
        }
    }
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Processed => write!(f, "processed-mapping cap"),
            Self::Deadline => write!(f, "deadline"),
            Self::Frontier => write!(f, "frontier cap"),
        }
    }
}

/// The running instance of a [`Budget`]: counts work, polls the deadline,
/// and latches the first limit that trips.
///
/// Determinism is a protocol, not a property of the struct: only the
/// search loop calls [`charge_processed`](Self::charge_processed) and
/// [`note_frontier`](Self::note_frontier); inner loops only
/// [`tick`](Self::tick).
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    budget: Budget,
    start: Instant,
    processed: Cell<u64>,
    polls: Cell<u64>,
    since_poll: Cell<u64>,
    exhausted: Cell<Option<Exhaustion>>,
}

impl BudgetMeter {
    /// Charges one unit of primary search work (one candidate mapping).
    ///
    /// Returns `false` when the budget is exhausted — either already
    /// latched, because this charge would exceed the processed cap (the
    /// cap is checked *before* counting, so with `max_processed = N` the
    /// meter reports exactly `N` processed units at exhaustion), or
    /// because the deadline poll latches first (polled *before* counting,
    /// so `processed()` only ever counts units whose work was actually
    /// performed). On success the unit is counted.
    pub fn charge_processed(&self) -> bool {
        if self.is_exhausted() {
            return false;
        }
        if let Some(cap) = self.budget.max_processed {
            if self.processed.get() >= cap {
                self.latch(Exhaustion::Processed);
                return false;
            }
        }
        self.advance_poll();
        if self.is_exhausted() {
            return false;
        }
        self.processed.set(self.processed.get() + 1);
        true
    }

    /// Advances the poll cadence by one *secondary* work unit (a log scan,
    /// a bound evaluation, one VF2 node) without charging the processed
    /// cap. Inner loops call this so a deadline is observed even inside a
    /// single expensive outer step.
    pub fn tick(&self) {
        if !self.is_exhausted() {
            self.advance_poll();
        }
    }

    /// Records the current frontier size, latching [`Exhaustion::Frontier`]
    /// when it exceeds the cap.
    pub fn note_frontier(&self, len: usize) {
        if !self.is_exhausted() {
            if let Some(cap) = self.budget.max_frontier {
                if len > cap {
                    self.latch(Exhaustion::Frontier);
                }
            }
        }
    }

    /// Latches `cause` if nothing tripped yet: the first cause sticks.
    fn latch(&self, cause: Exhaustion) {
        if self.exhausted.get().is_none() {
            self.exhausted.set(Some(cause));
        }
    }

    /// The poll cadence: with a deadline set, the clock is read on the
    /// first work unit after each interval completes (units 1, 1+I,
    /// 1+2I, …), so a deadline that elapsed during a long unit is seen at
    /// the next interval boundary at the latest. Without a deadline this
    /// is a no-op, keeping capped runs bit-deterministic and poll-free.
    fn advance_poll(&self) {
        if self.budget.max_duration.is_none() {
            return;
        }
        let interval = u64::from(self.budget.poll_interval.max(1));
        let n = self.since_poll.get();
        self.since_poll.set(n + 1);
        if n % interval == 0 {
            self.poll_deadline();
        }
    }

    fn poll_deadline(&self) {
        self.polls.set(self.polls.get() + 1);
        if let Some(max) = self.budget.max_duration {
            if self.start.elapsed() >= max {
                self.latch(Exhaustion::Deadline);
            }
        }
    }

    /// The limit that tripped, if any. Sticky: never resets.
    #[must_use]
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.exhausted.get()
    }

    /// `true` once any limit has tripped.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted.get().is_some()
    }

    /// Charged primary work units so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed.get()
    }

    /// Clock reads performed so far (0 for deadline-free budgets).
    #[must_use]
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// The budget being metered.
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts_and_never_polls() {
        let m = Budget::UNLIMITED.meter();
        for _ in 0..10_000 {
            assert!(m.charge_processed());
            m.tick();
        }
        assert_eq!(m.exhaustion(), None);
        assert_eq!(m.polls(), 0);
        assert_eq!(m.processed(), 10_000);
    }

    #[test]
    fn processed_cap_checks_before_counting() {
        let m = Budget::UNLIMITED.with_processed_cap(3).meter();
        assert!(m.charge_processed());
        assert!(m.charge_processed());
        assert!(m.charge_processed());
        assert!(!m.charge_processed());
        assert_eq!(m.processed(), 3);
        assert_eq!(m.exhaustion(), Some(Exhaustion::Processed));
        // Sticky: further charges and ticks stay exhausted.
        assert!(!m.charge_processed());
        m.tick();
        assert_eq!(m.processed(), 3);
    }

    #[test]
    fn zero_cap_exhausts_on_the_first_charge() {
        let m = Budget::UNLIMITED.with_processed_cap(0).meter();
        assert!(!m.charge_processed());
        assert_eq!(m.processed(), 0);
    }

    #[test]
    fn capped_budgets_never_read_the_clock() {
        let m = Budget::UNLIMITED.with_processed_cap(1000).meter();
        for _ in 0..500 {
            m.charge_processed();
            m.tick();
        }
        assert_eq!(m.polls(), 0, "no deadline set, so no clock reads");
    }

    #[test]
    fn elapsed_deadline_is_seen_at_the_first_poll() {
        // A zero deadline has already elapsed when metering starts; the
        // very first work unit must observe it.
        let m = Budget::UNLIMITED
            .with_deadline(Duration::from_secs(0))
            .meter();
        assert!(!m.charge_processed());
        assert_eq!(m.exhaustion(), Some(Exhaustion::Deadline));
        assert_eq!(m.polls(), 1);
        // The refused unit's work never happened, so it is not counted.
        assert_eq!(m.processed(), 0);
    }

    #[test]
    fn deadline_polls_once_per_interval() {
        let m = Budget::UNLIMITED
            .with_deadline(Duration::from_secs(3600))
            .with_poll_interval(10)
            .meter();
        for _ in 0..95 {
            assert!(m.charge_processed());
        }
        // Polls at units 1, 11, 21, …, 91 → 10 reads for 95 units.
        assert_eq!(m.polls(), 10);
    }

    #[test]
    fn ticks_share_the_poll_cadence_with_charges() {
        let m = Budget::UNLIMITED
            .with_deadline(Duration::from_secs(3600))
            .with_poll_interval(4)
            .meter();
        m.charge_processed(); // unit 1: poll
        m.tick(); // unit 2
        m.tick(); // unit 3
        m.tick(); // unit 4
        assert_eq!(m.polls(), 1);
        m.tick(); // unit 5: poll
        assert_eq!(m.polls(), 2);
    }

    #[test]
    fn frontier_cap_latches() {
        let m = Budget::UNLIMITED.with_frontier_cap(8).meter();
        m.note_frontier(8);
        assert!(!m.is_exhausted());
        m.note_frontier(9);
        assert_eq!(m.exhaustion(), Some(Exhaustion::Frontier));
        assert!(!m.charge_processed());
    }

    #[test]
    fn concurrent_latch_attempts_keep_the_first_cause() {
        // Frontier latched first; later deadline polls must not overwrite
        // it.
        let m = Budget::UNLIMITED
            .with_frontier_cap(1)
            .with_deadline(Duration::ZERO)
            .with_poll_interval(1)
            .meter();
        m.note_frontier(2);
        assert_eq!(m.exhaustion(), Some(Exhaustion::Frontier));
        m.latch(Exhaustion::Deadline);
        assert_eq!(m.exhaustion(), Some(Exhaustion::Frontier));
    }

    /// A [`Budget::from_vars`] lookup over `(key, value)` pairs.
    fn vars<'a>(set: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            set.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_owned())
        }
    }

    #[test]
    fn limits_from_vars_parse_and_unset_ones_stay_unlimited() {
        assert!(Budget::from_vars(vars(&[])).is_unlimited());
        let b = Budget::from_vars(vars(&[
            ("EVEMATCH_LIMIT_SECS", "3"),
            ("EVEMATCH_LIMIT_PROCESSED", " 10000 "),
            ("EVEMATCH_LIMIT_FRONTIER", "64"),
        ]));
        assert_eq!(b.max_duration, Some(Duration::from_secs(3)));
        assert_eq!(b.max_processed, Some(10_000));
        assert_eq!(b.max_frontier, Some(64));
        let only_cap = Budget::from_vars(vars(&[("EVEMATCH_LIMIT_PROCESSED", "0")]));
        assert_eq!(only_cap, Budget::UNLIMITED.with_processed_cap(0));
    }

    #[test]
    fn a_malformed_limit_panics_with_its_name_and_value() {
        for key in [
            "EVEMATCH_LIMIT_SECS",
            "EVEMATCH_LIMIT_PROCESSED",
            "EVEMATCH_LIMIT_FRONTIER",
        ] {
            for bad in ["10k", "", "-1", "1.5"] {
                let set = [(key, bad)];
                let err = std::panic::catch_unwind(|| Budget::from_vars(vars(&set)))
                    .expect_err("a malformed limit must panic");
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    msg.contains(&format!("{key}={bad:?}")),
                    "{key}={bad:?}: {msg}"
                );
            }
        }
    }
}
