//! Deterministic failpoints and the typed fault taxonomy.
//!
//! Long-running matching services see transient I/O errors, slow disks and
//! worker crashes as routine events, not exceptions. This module provides
//! the *active* half of the robustness story: named failpoint sites
//! (tikv `fail-rs`-style, listed in [`SITES`]) compiled into the hot paths
//! of persistence, ingestion, the checkpoint journal and the experiment
//! grid. Every site consults a [`Faults`] plan that the run owns and passes
//! down by reference; a disarmed plan answers with one `Option` check and
//! takes no lock. An armed plan holds a **schedule** parsed from a compact
//! spec string; schedules are fully deterministic given the spec and a
//! seed, so any chaos failure replays locally from the spec alone.
//!
//! The plan also keeps the run's fault telemetry ([`Faults::telemetry`])
//! and, for the crash-consistency explorer, an optional recorder of the
//! durable operations the persistence layer performs
//! ([`Faults::recording`]).
//!
//! The second half is the typed fault taxonomy: every `io::Error`
//! consumed by the runtime crates is classified as [`FaultClass::Transient`]
//! (worth retrying), [`FaultClass::Permanent`] (retrying is futile) or
//! [`FaultClass::Corrupt`] (data cannot be trusted) via [`classify_io`].
//! The companion [`crate::retry`] module retries transients under a bounded
//! exponential backoff; the xtask tidy lint `no-unclassified-io` (T13)
//! keeps ad-hoc `.ok()`-style swallowing of I/O errors from reappearing.
//!
//! # Schedule spec grammar
//!
//! ```text
//! SPEC   := RULE (';' RULE)*
//! RULE   := <site> '=' ACTION MOD*
//! ACTION := fail-transient | fail-permanent | fail-corrupt
//!         | torn | panic | delay(<millis>)
//! MOD    := x<count>      fire at most <count> times (default: unbounded)
//!         | /<nth>        fire only on every <nth> hit (default: every hit)
//!         | %<permille>   fire with probability <permille>/1000, drawn
//!                         from a per-site splitmix64 stream seeded from
//!                         the schedule seed (default: always)
//! ```
//!
//! `<site>` must be one of [`SITES`]: a schedule naming any other site is
//! rejected rather than silently run fault-free. Examples:
//! `persist.rename=fail-transient x2`, `persist.fsync=fail-transient /3`,
//! `persist.append=torn x1`, `grid.cell=panic x1`,
//! `persist.write=delay(25) %500`.
//!
//! The CLI builds its plan from `--fault-schedule`/`--fault-seed`, the
//! `repro_*` binaries from `EVEMATCH_FAULT_SCHEDULE`/`EVEMATCH_FAULT_SEED`,
//! each grid carries one in its `SweepConfig`, and each test builds its
//! own, so no two runs in one process observe each other's faults.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Read};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::persist::iotrace::IoOp;

/// Every failpoint site compiled into the tree. A schedule naming any
/// other site is rejected by [`Faults::armed`]. The retry-counter sites
/// (`cli.artifact`, `bench.artifact`, `journal.append`, `journal.rebuild`)
/// only label [`crate::retry::retry_io`] calls and are not failpoints.
pub const SITES: [&str; 9] = [
    "grid.cell",
    "ingest.read",
    "persist.create_temp",
    "persist.write",
    "persist.fsync",
    "persist.rename",
    "persist.fsync_dir",
    "persist.append",
    "persist.append_fsync",
];

/// The typed fault taxonomy every consumed `io::Error` maps into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// The operation may succeed if retried (interrupted syscall, timeout,
    /// contended resource). The supervisor retries these under backoff.
    Transient,
    /// Retrying is futile (permission denied, missing directory, read-only
    /// filesystem). Fail fast and surface the error.
    Permanent,
    /// The data itself cannot be trusted (torn write, invalid payload).
    /// Callers must quarantine or recompute, never retry blindly.
    Corrupt,
}

impl FaultClass {
    /// Stable lower-case name used in telemetry counters and CLI output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Transient => "transient",
            FaultClass::Permanent => "permanent",
            FaultClass::Corrupt => "corrupt",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classifies an `io::Error` into the typed fault taxonomy.
///
/// `Interrupted`, `WouldBlock` and `TimedOut` are transient; `InvalidData`
/// and `UnexpectedEof` mean the bytes cannot be trusted; everything else
/// (permissions, missing paths, unsupported operations, …) is permanent.
#[must_use]
pub fn classify_io(e: &io::Error) -> FaultClass {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            FaultClass::Transient
        }
        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => FaultClass::Corrupt,
        _ => FaultClass::Permanent,
    }
}

/// What an armed trigger injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected `io::Error` of the given class.
    Fail(FaultClass),
    /// For append sites: write a torn prefix of the payload (no trailing
    /// newline) and then fail transiently — a crash mid-append. At sites
    /// without a torn-write notion this degrades to `Fail(Corrupt)`.
    Torn,
    /// Sleep for the given number of milliseconds, then proceed normally
    /// (slow-disk simulation).
    Delay(u64),
    /// Panic at the site (worker-crash simulation).
    Panic,
}

/// One armed rule: when and what to inject at a single site.
#[derive(Debug)]
struct Trigger {
    action: FaultAction,
    /// `xN`: stop firing after N injections.
    max_fires: Option<u64>,
    /// `/N`: fire only on every Nth hit.
    every_nth: u64,
    /// `%P`: fire with probability P/1000 per eligible hit.
    permille: Option<u64>,
    hits: u64,
    /// Injections so far, reported as `fault.injected.<site>`.
    fires: u64,
    rng: u64,
}

impl Trigger {
    fn decide(&mut self) -> Option<FaultAction> {
        self.hits += 1;
        if self.hits % self.every_nth != 0 {
            return None;
        }
        if self.max_fires.is_some_and(|max| self.fires >= max) {
            return None;
        }
        if let Some(p) = self.permille {
            if splitmix64(&mut self.rng) % 1000 >= p {
                return None;
            }
        }
        self.fires += 1;
        Some(self.action)
    }
}

/// splitmix64 step: tiny, seedable, and good enough for per-site
/// probability draws (same generator the datagen crate family uses).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-site rng seed: FNV-1a over the site name folded into the schedule
/// seed, so distinct sites draw independent deterministic streams.
fn site_seed(seed: u64, site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed
}

/// One run's fault plan: the armed schedule (if any), the run's fault
/// telemetry, and an optional recorder of durable operations.
///
/// Grid workers share one plan by reference, so its state sits behind
/// mutexes. A disarmed plan answers every failpoint with one `Option`
/// check and takes no lock; an injected `panic` fires after the schedule
/// lock is released.
#[derive(Debug, Default)]
pub struct Faults {
    /// Armed triggers keyed by site; `None` = disarmed.
    schedule: Option<Mutex<BTreeMap<String, Trigger>>>,
    /// Retry, exhaustion and integrity counters.
    notes: Mutex<Notes>,
    /// The op recorder: ops whose primary path falls under the root.
    recorder: Option<(PathBuf, Mutex<Vec<IoOp>>)>,
}

/// The counters [`Faults::telemetry`] reports besides injections.
#[derive(Debug, Default)]
struct Notes {
    retries: BTreeMap<String, u64>,
    exhausted: BTreeMap<String, u64>,
    integrity: BTreeMap<String, u64>,
}

/// Locks one of a plan's mutexes. They guard plain counters, triggers and
/// ops that no panic can leave half-updated (injected panics fire outside
/// every lock), so poison is safe to strip.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Faults {
    /// A plan armed with `spec` (see the module docs for the grammar),
    /// `seed` driving all `%permille` probability draws.
    ///
    /// # Errors
    /// Returns a human-readable message when the spec does not parse or
    /// names a site outside [`SITES`].
    pub fn armed(spec: &str, seed: u64) -> Result<Faults, String> {
        Ok(Faults {
            schedule: Some(Mutex::new(parse_spec(spec, seed)?)),
            ..Faults::default()
        })
    }

    /// A disarmed plan that records every durable operation whose
    /// [`IoOp::primary_path`] falls under `root` (an empty root records
    /// everything); read them back with [`Faults::take_ops`].
    pub fn recording(root: impl Into<PathBuf>) -> Faults {
        Faults {
            recorder: Some((root.into(), Mutex::default())),
            ..Faults::default()
        }
    }

    /// Whether this plan carries a fault schedule.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.schedule.is_some()
    }

    /// The failpoint primitive: returns the action to inject at `site`, or
    /// `None` (always, on a disarmed plan).
    #[must_use]
    pub fn hit(&self, site: &str) -> Option<FaultAction> {
        debug_assert!(SITES.contains(&site), "`{site}` is not a failpoint site");
        let schedule = self.schedule.as_ref()?;
        lock(schedule).get_mut(site)?.decide()
    }

    /// The common failpoint shape for fallible I/O paths: consult the
    /// schedule and apply whatever fires (see [`apply_io`]).
    ///
    /// # Errors
    /// Returns the injected error when a `Fail`/`Torn` action fires.
    pub fn guard(&self, site: &str) -> io::Result<()> {
        match self.hit(site) {
            None => Ok(()),
            Some(action) => apply_io(site, action),
        }
    }

    /// Records `n` supervised retries at `site` (`fault.retries.<site>`).
    pub fn note_retries(&self, site: &str, n: u64) {
        if n > 0 {
            *lock(&self.notes)
                .retries
                .entry(site.to_owned())
                .or_insert(0) += n;
        }
    }

    /// Records that the retry budget at `site` was exhausted (or the
    /// failure was fatal and not retried): `fault.exhausted.<site>`.
    pub fn note_exhausted(&self, site: &str) {
        *lock(&self.notes)
            .exhausted
            .entry(site.to_owned())
            .or_insert(0) += 1;
    }

    /// Records one integrity-policy event under `kind` (a snake_case label
    /// such as `journal_quarantined.checksum_mismatch` or
    /// `journal_rebuilt.version_skew`): `integrity.<kind>`. Readers that
    /// quarantine or rebuild damaged persisted state report here so every
    /// such decision is counted, never silent.
    pub fn note_integrity(&self, kind: &str) {
        *lock(&self.notes)
            .integrity
            .entry(kind.to_owned())
            .or_insert(0) += 1;
    }

    /// Snapshot of the plan's fault telemetry, in deterministic key order:
    /// `fault.injected.<site>` (times a trigger fired),
    /// `fault.retries.<site>` (supervised retries that recovered or kept
    /// trying), `fault.exhausted.<site>` (gave up: retry budget spent or
    /// the fault was not transient), and `integrity.<kind>` (typed
    /// corruption quarantine/rebuild decisions).
    #[must_use]
    pub fn telemetry(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        if let Some(schedule) = &self.schedule {
            for (site, trigger) in lock(schedule).iter() {
                if trigger.fires > 0 {
                    out.push((format!("fault.injected.{site}"), trigger.fires));
                }
            }
        }
        let notes = lock(&self.notes);
        for (prefix, counts) in [
            ("fault.retries", &notes.retries),
            ("fault.exhausted", &notes.exhausted),
            ("integrity", &notes.integrity),
        ] {
            for (key, n) in counts {
                out.push((format!("{prefix}.{key}"), *n));
            }
        }
        out
    }

    /// Records `op` if this plan records and the op falls under its root.
    /// The persistence primitives call this after each durable step.
    pub(crate) fn record(&self, op: impl FnOnce() -> IoOp) {
        let Some((root, ops)) = &self.recorder else {
            return;
        };
        let op = op();
        if op.primary_path().starts_with(root) {
            lock(ops).push(op);
        }
    }

    /// Drains the recorded ops, in the order they hit the filesystem
    /// (empty for a plan built without [`Faults::recording`]).
    #[must_use]
    pub fn take_ops(&self) -> Vec<IoOp> {
        match &self.recorder {
            Some((_, ops)) => std::mem::take(&mut *lock(ops)),
            None => Vec::new(),
        }
    }
}

/// Builds the injected error for a `Fail` action: the `io::ErrorKind` is
/// chosen so [`classify_io`] round-trips to the requested class.
#[must_use]
pub fn injected_error(site: &str, class: FaultClass) -> io::Error {
    let kind = match class {
        FaultClass::Transient => io::ErrorKind::Interrupted,
        FaultClass::Permanent => io::ErrorKind::PermissionDenied,
        FaultClass::Corrupt => io::ErrorKind::InvalidData,
    };
    io::Error::new(kind, format!("injected {class} fault at {site}"))
}

/// Applies an action in an `io::Result` context: `Delay` sleeps then
/// succeeds, `Fail` returns the injected error, `Torn` degrades to a
/// corrupt failure (sites with a real torn-write notion intercept it
/// before calling this), `Panic` panics.
///
/// # Errors
/// Returns the injected error for `Fail` and `Torn` actions.
pub fn apply_io(site: &str, action: FaultAction) -> io::Result<()> {
    match action {
        FaultAction::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        FaultAction::Fail(class) => Err(injected_error(site, class)),
        FaultAction::Torn => Err(injected_error(site, FaultClass::Corrupt)),
        #[expect(
            clippy::panic,
            reason = "the whole point of the `panic` action is a deterministic injected crash"
        )]
        FaultAction::Panic => panic!("injected panic at fault site {site}"),
    }
}

fn parse_spec(spec: &str, seed: u64) -> Result<BTreeMap<String, Trigger>, String> {
    let mut out = BTreeMap::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, rule) = part
            .split_once('=')
            .ok_or_else(|| format!("fault rule `{part}` is missing `=`"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("fault rule `{part}` has an empty site name"));
        }
        if !SITES.contains(&site) {
            return Err(format!(
                "unknown failpoint site `{site}` (valid sites: {})",
                SITES.join(", ")
            ));
        }
        let mut action = None;
        let mut max_fires = None;
        let mut every_nth = 1u64;
        let mut permille = None;
        for tok in rule.split_whitespace() {
            if let Some(n) = tok.strip_prefix('x') {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("`{site}`: bad fire count `{tok}`"))?;
                max_fires = Some(n);
            } else if let Some(n) = tok.strip_prefix('/') {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("`{site}`: bad every-nth `{tok}`"))?;
                if n == 0 {
                    return Err(format!("`{site}`: every-nth must be >= 1"));
                }
                every_nth = n;
            } else if let Some(p) = tok.strip_prefix('%') {
                let p: u64 = p
                    .parse()
                    .map_err(|_| format!("`{site}`: bad permille `{tok}`"))?;
                if p > 1000 {
                    return Err(format!("`{site}`: permille must be <= 1000"));
                }
                permille = Some(p);
            } else {
                if action.is_some() {
                    return Err(format!("`{site}`: more than one action in `{rule}`"));
                }
                action = Some(parse_action(site, tok)?);
            }
        }
        let action = action.ok_or_else(|| format!("`{site}`: rule `{rule}` names no action"))?;
        if out.contains_key(site) {
            return Err(format!("site `{site}` appears twice in the schedule"));
        }
        out.insert(
            site.to_owned(),
            Trigger {
                action,
                max_fires,
                every_nth,
                permille,
                hits: 0,
                fires: 0,
                rng: site_seed(seed, site),
            },
        );
    }
    if out.is_empty() {
        return Err("empty fault schedule".to_owned());
    }
    Ok(out)
}

fn parse_action(site: &str, tok: &str) -> Result<FaultAction, String> {
    match tok {
        "fail-transient" => Ok(FaultAction::Fail(FaultClass::Transient)),
        "fail-permanent" => Ok(FaultAction::Fail(FaultClass::Permanent)),
        "fail-corrupt" => Ok(FaultAction::Fail(FaultClass::Corrupt)),
        "torn" => Ok(FaultAction::Torn),
        "panic" => Ok(FaultAction::Panic),
        _ => {
            let ms = tok
                .strip_prefix("delay(")
                .and_then(|rest| rest.strip_suffix(')'))
                .ok_or_else(|| format!("`{site}`: unknown action `{tok}`"))?;
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("`{site}`: bad delay millis `{tok}`"))?;
            Ok(FaultAction::Delay(ms))
        }
    }
}

/// A `Read`/`BufRead` adapter that consults the failpoint `site` of a plan
/// on every refill, so faults can be threaded through event-log ingestion
/// without the `eventlog` crate (which sits below `core` in the crate DAG)
/// knowing about fault plans: the CLI wraps its file readers in this.
pub struct FaultyRead<'a, R> {
    inner: R,
    site: &'static str,
    faults: &'a Faults,
}

impl<'a, R> FaultyRead<'a, R> {
    /// Wraps `inner`, consulting `site` of `faults` before every
    /// read/refill.
    pub fn new(inner: R, site: &'static str, faults: &'a Faults) -> Self {
        FaultyRead {
            inner,
            site,
            faults,
        }
    }
}

impl<R: Read> Read for FaultyRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.faults.guard(self.site)?;
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for FaultyRead<'_, R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.faults.guard(self.site)?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_failpoints_are_noops() {
        let faults = Faults::default();
        assert!(!faults.is_armed());
        for site in SITES {
            assert!(faults.hit(site).is_none());
            assert!(faults.guard(site).is_ok());
        }
        assert!(faults.telemetry().is_empty());
    }

    #[test]
    fn fail_once_fires_exactly_once_and_round_trips_the_class() {
        let faults = Faults::armed("persist.rename=fail-transient x1", 7).unwrap();
        assert!(faults.is_armed());
        let Some(FaultAction::Fail(class)) = faults.hit("persist.rename") else {
            panic!("first hit must fire");
        };
        assert_eq!(class, FaultClass::Transient);
        assert!(faults.hit("persist.rename").is_none(), "x1 fires only once");
        let err = injected_error("persist.rename", class);
        assert_eq!(classify_io(&err), FaultClass::Transient);
        assert_eq!(
            faults.telemetry(),
            vec![("fault.injected.persist.rename".to_owned(), 1)]
        );
    }

    #[test]
    fn every_nth_fires_on_multiples_only() {
        let faults = Faults::armed("persist.write=fail-permanent /3", 0).unwrap();
        let fired: Vec<bool> = (0..9)
            .map(|_| faults.hit("persist.write").is_some())
            .collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn probability_draws_are_deterministic_per_seed() {
        let draws = |seed: u64| -> Vec<bool> {
            let faults = Faults::armed("persist.fsync=fail-transient %500", seed).unwrap();
            (0..32)
                .map(|_| faults.hit("persist.fsync").is_some())
                .collect()
        };
        assert_eq!(draws(42), draws(42), "same seed, same schedule decisions");
        assert_ne!(
            draws(42),
            draws(43),
            "different seeds draw different streams (32 draws at p=0.5)"
        );
    }

    #[test]
    fn delay_and_unscheduled_sites_do_not_fail() {
        let faults = Faults::armed("persist.write=delay(1)", 0).unwrap();
        assert!(
            faults.guard("persist.write").is_ok(),
            "delay proceeds after sleeping"
        );
        assert!(
            faults.guard("persist.rename").is_ok(),
            "unscheduled sites pass"
        );
    }

    #[test]
    fn spec_parse_errors_are_reported_not_panicked() {
        for bad in [
            "",
            "no-equals",
            "=fail-transient",
            "persist.write=warble",
            "persist.write=fail-transient xmany",
            "persist.write=fail-transient /0",
            "persist.write=fail-transient %2000",
            "grid.cell=panic; grid.cell=panic",
            "grid.cell=panic torn",
            "persist.write=x3",
            "persist.write=delay(forever)",
            "persist.renme=fail-permanent",
            "grid.cell=panic; persist.apend=torn x1",
        ] {
            assert!(
                Faults::armed(bad, 0).is_err(),
                "spec `{bad}` must be rejected"
            );
        }
        // A misspelled site names itself and every valid site.
        let err = Faults::armed("persist.renme=fail-permanent", 0).unwrap_err();
        assert!(err.contains("`persist.renme`"), "{err}");
        for site in SITES {
            assert!(err.contains(site), "{err} does not list {site}");
        }
    }

    #[test]
    fn faulty_read_injects_into_the_stream() {
        let faults = Faults::armed("ingest.read=fail-transient x1", 0).unwrap();
        let mut reader =
            FaultyRead::new(io::BufReader::new(&b"a,b,c\n"[..]), "ingest.read", &faults);
        let err = reader.fill_buf().unwrap_err();
        assert_eq!(classify_io(&err), FaultClass::Transient);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "a,b,c\n", "stream is intact after the injected error");
    }

    #[test]
    fn retry_and_exhaustion_notes_accumulate() {
        let faults = Faults::default();
        faults.note_retries("journal.append", 2);
        faults.note_retries("journal.append", 0);
        faults.note_retries("journal.append", 1);
        faults.note_exhausted("grid.cell");
        faults.note_integrity("journal_torn_tail");
        assert_eq!(
            faults.telemetry(),
            vec![
                ("fault.retries.journal.append".to_owned(), 3),
                ("fault.exhausted.grid.cell".to_owned(), 1),
                ("integrity.journal_torn_tail".to_owned(), 1),
            ]
        );
    }
}
