//! Deterministic failpoints and the typed fault taxonomy.
//!
//! Long-running matching services see transient I/O errors, slow disks and
//! worker crashes as routine events, not exceptions. This module provides
//! the *active* half of the robustness story: named failpoint sites
//! (tikv `fail-rs`-style) compiled into the hot paths of persistence,
//! ingestion, the checkpoint journal and the experiment grid, which stay a
//! single relaxed atomic load (a branch-free no-op in practice) until a
//! **schedule** is armed. Schedules are parsed from a compact spec string
//! and are fully deterministic given the spec and a seed, so any chaos
//! failure replays locally from the armed schedule alone.
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
//! Examples: `persist.rename=fail-transient x2`,
//! `persist.fsync=fail-transient /3`, `persist.append=torn x1`,
//! `grid.cell=panic x1`, `persist.write=delay(25) %500`.
//!
//! Arming is process-global (`--fault-schedule`/`--fault-seed` on the CLI,
//! `EVEMATCH_FAULT_SCHEDULE`/`EVEMATCH_FAULT_SEED` for the repro
//! binaries); tests use [`arm_scoped`], which also serializes fault-armed
//! tests against each other.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

/// An `io::Error` classified at a named site — the typed form the
/// supervisor and quarantine paths work with.
#[derive(Debug)]
pub struct Fault {
    /// The failpoint or call site the error was observed at.
    pub site: String,
    /// Taxonomy class per [`classify_io`] (or the injected class).
    pub class: FaultClass,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl Fault {
    /// Classifies `source` at `site`.
    #[must_use]
    pub fn from_io(site: &str, source: io::Error) -> Self {
        Fault {
            site: site.to_owned(),
            class: classify_io(&source),
            source,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fault at {}: {}", self.class, self.site, self.source)
    }
}

impl std::error::Error for Fault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
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

/// Global registry state: the armed schedule plus injection/retry counts.
struct Registry {
    schedule: Option<BTreeMap<String, Trigger>>,
    injected: BTreeMap<String, u64>,
    retries: BTreeMap<String, u64>,
    exhausted: BTreeMap<String, u64>,
    integrity: BTreeMap<String, u64>,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            schedule: None,
            injected: BTreeMap::new(),
            retries: BTreeMap::new(),
            exhausted: BTreeMap::new(),
            integrity: BTreeMap::new(),
        }
    }
}

// ordering: Relaxed — ARMED is a fast-path hint only; the REGISTRY mutex is
// the real synchronization point for the schedule, and a stale flag read
// merely costs one extra (or one missed) slow-path lock around arm/disarm.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());
/// Serializes fault-armed tests; see [`arm_scoped`].
static SCOPE: Mutex<()> = Mutex::new(());

fn registry() -> MutexGuard<'static, Registry> {
    // The registry holds plain counters and triggers; a panic while holding
    // the guard (injected `panic` actions fire *outside* the lock) cannot
    // leave it inconsistent, so poison is safe to strip.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms `spec` (see the module docs for the grammar) with `seed` driving
/// all `%permille` probability draws. Replaces any previous schedule and
/// resets the telemetry counters.
///
/// # Errors
/// Returns a human-readable message when the spec does not parse.
pub fn arm(spec: &str, seed: u64) -> Result<(), String> {
    let schedule = parse_spec(spec, seed)?;
    let mut reg = registry();
    reg.schedule = Some(schedule);
    reg.injected.clear();
    reg.retries.clear();
    reg.exhausted.clear();
    reg.integrity.clear();
    drop(reg);
    // ordering: Relaxed — see the ARMED declaration; the mutex above
    // publishes the schedule itself.
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarms the registry: every failpoint returns to its no-op fast path.
/// Telemetry counters are kept until the next [`arm`] so post-run
/// reporting can still read them.
pub fn disarm() {
    // ordering: Relaxed — see the ARMED declaration.
    ARMED.store(false, Ordering::Relaxed);
    registry().schedule = None;
}

/// Whether a fault schedule is currently armed.
#[must_use]
pub fn is_armed() -> bool {
    // ordering: Relaxed — see the ARMED declaration; callers use this for
    // reporting, not synchronization.
    ARMED.load(Ordering::Relaxed)
}

/// The failpoint primitive: returns the action to inject at `site`, or
/// `None` (the overwhelmingly common case — a single relaxed load).
#[must_use]
pub fn hit(site: &str) -> Option<FaultAction> {
    // ordering: Relaxed — see the ARMED declaration; when the flag reads
    // true the registry lock below synchronizes the schedule access.
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut reg = registry();
    let action = reg.schedule.as_mut()?.get_mut(site)?.decide()?;
    *reg.injected.entry(site.to_owned()).or_insert(0) += 1;
    Some(action)
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
        // tidy-allow: no-panic -- the whole point of the `panic` action is a deterministic injected crash
        FaultAction::Panic => panic!("injected panic at fault site {site}"),
    }
}

/// The common failpoint shape for fallible I/O paths: consult the
/// registry and apply whatever fires. Equivalent to
/// `faultpoint!(site)` without the early-return sugar.
///
/// # Errors
/// Returns the injected error when a `Fail`/`Torn` action fires.
pub fn io_guard(site: &str) -> io::Result<()> {
    match hit(site) {
        None => Ok(()),
        Some(action) => apply_io(site, action),
    }
}

/// Records `n` supervised retries at `site` (`fault.retries.<site>`).
pub fn note_retries(site: &str, n: u64) {
    if n == 0 {
        return;
    }
    *registry().retries.entry(site.to_owned()).or_insert(0) += n;
}

/// Records that the retry budget at `site` was exhausted (or the failure
/// was fatal and not retried): `fault.exhausted.<site>`.
pub fn note_exhausted(site: &str) {
    *registry().exhausted.entry(site.to_owned()).or_insert(0) += 1;
}

/// Records one integrity-policy event under `kind` (a snake_case label
/// such as `journal_quarantined.checksum_mismatch` or
/// `journal_rebuilt.version_skew`): `integrity.<kind>` in [`telemetry`].
/// Readers that quarantine or rebuild damaged persisted state call this
/// so every such decision is counted, never silent.
pub fn note_integrity(kind: &str) {
    *registry().integrity.entry(kind.to_owned()).or_insert(0) += 1;
}

/// Snapshot of the fault telemetry counters, in deterministic key order:
/// `fault.injected.<site>` (times a trigger fired),
/// `fault.retries.<site>` (supervised retries that recovered or kept
/// trying), `fault.exhausted.<site>` (gave up: retry budget spent or the
/// fault was not transient), and `integrity.<kind>` (typed corruption
/// quarantine/rebuild decisions — see [`note_integrity`]).
#[must_use]
pub fn telemetry() -> Vec<(String, u64)> {
    let reg = registry();
    let mut out = Vec::new();
    for (site, n) in &reg.injected {
        out.push((format!("fault.injected.{site}"), *n));
    }
    for (site, n) in &reg.retries {
        out.push((format!("fault.retries.{site}"), *n));
    }
    for (site, n) in &reg.exhausted {
        out.push((format!("fault.exhausted.{site}"), *n));
    }
    for (kind, n) in &reg.integrity {
        out.push((format!("integrity.{kind}"), *n));
    }
    out
}

/// RAII guard for fault-armed tests: holds a global mutex so armed tests
/// never overlap, and disarms on drop. Obtain via [`arm_scoped`].
pub struct ScopedFault {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ScopedFault {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms `spec` for the lifetime of the returned guard, serializing against
/// every other [`arm_scoped`] caller in the process (the registry is
/// global, so concurrently armed tests would observe each other's faults).
///
/// # Errors
/// Returns a human-readable message when the spec does not parse.
pub fn arm_scoped(spec: &str, seed: u64) -> Result<ScopedFault, String> {
    // A previous armed test that panicked (injected panics are routine
    // here) poisons this mutex without invalidating anything: the guard's
    // only job is mutual exclusion.
    let serial = SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
    arm(spec, seed)?;
    Ok(ScopedFault { _serial: serial })
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

/// A `Read`/`BufRead` adapter that consults the failpoint `site` on every
/// refill, so faults can be threaded through event-log ingestion without
/// the `eventlog` crate (which sits below `core` in the crate DAG) knowing
/// about the registry: the CLI wraps its file readers in this.
pub struct FaultyRead<R> {
    inner: R,
    site: &'static str,
}

impl<R> FaultyRead<R> {
    /// Wraps `inner`, consulting `site` before every read/refill.
    pub fn new(inner: R, site: &'static str) -> Self {
        FaultyRead { inner, site }
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io_guard(self.site)?;
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for FaultyRead<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        io_guard(self.site)?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

/// Failpoint sugar for fallible I/O paths: `faultpoint!("site")` expands
/// to `fault::io_guard("site")?`, so an armed `Fail` action early-returns
/// the injected error from the enclosing `io::Result` function.
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        $crate::fault::io_guard($site)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Holds the [`SCOPE`] serialization without arming anything: while
    /// it is held no [`arm_scoped`] guard is alive, so the registry is
    /// disarmed (every armed test in this binary arms through a scope).
    fn disarmed_scope() -> MutexGuard<'static, ()> {
        SCOPE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `fault.injected.*` counters only: they move solely while a
    /// schedule is armed, unlike the retry/exhaustion/integrity notes that
    /// unarmed tests running concurrently may bump.
    fn injected() -> Vec<(String, u64)> {
        telemetry()
            .into_iter()
            .filter(|(key, _)| key.starts_with("fault.injected."))
            .collect()
    }

    #[test]
    fn disarmed_failpoints_are_noops() {
        let _serial = disarmed_scope();
        assert!(hit("nowhere").is_none());
        assert!(io_guard("nowhere").is_ok());
        assert!(!is_armed());
    }

    #[test]
    fn fail_once_fires_exactly_once_and_round_trips_the_class() {
        let _guard = arm_scoped("persist.rename=fail-transient x1", 7).unwrap();
        let Some(FaultAction::Fail(class)) = hit("persist.rename") else {
            panic!("first hit must fire");
        };
        assert_eq!(class, FaultClass::Transient);
        assert!(hit("persist.rename").is_none(), "x1 fires only once");
        let err = injected_error("persist.rename", class);
        assert_eq!(classify_io(&err), FaultClass::Transient);
        assert_eq!(
            injected(),
            vec![("fault.injected.persist.rename".to_owned(), 1)]
        );
    }

    #[test]
    fn every_nth_fires_on_multiples_only() {
        let _guard = arm_scoped("s=fail-permanent /3", 0).unwrap();
        let fired: Vec<bool> = (0..9).map(|_| hit("s").is_some()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn probability_draws_are_deterministic_per_seed() {
        let draws = |seed: u64| -> Vec<bool> {
            let _guard = arm_scoped("s=fail-transient %500", seed).unwrap();
            (0..32).map(|_| hit("s").is_some()).collect()
        };
        assert_eq!(draws(42), draws(42), "same seed, same schedule decisions");
        assert_ne!(
            draws(42),
            draws(43),
            "different seeds draw different streams (32 draws at p=0.5)"
        );
    }

    #[test]
    fn delay_and_unknown_sites_do_not_fail() {
        let _guard = arm_scoped("slow=delay(1)", 0).unwrap();
        assert!(io_guard("slow").is_ok(), "delay proceeds after sleeping");
        assert!(io_guard("other.site").is_ok(), "unscheduled sites pass");
    }

    #[test]
    fn spec_parse_errors_are_reported_not_panicked() {
        for bad in [
            "",
            "no-equals",
            "=fail-transient",
            "s=warble",
            "s=fail-transient xmany",
            "s=fail-transient /0",
            "s=fail-transient %2000",
            "s=panic; s=panic",
            "s=panic torn",
            "s=x3",
            "s=delay(forever)",
        ] {
            assert!(parse_spec(bad, 0).is_err(), "spec `{bad}` must be rejected");
        }
    }

    #[test]
    fn scoped_guard_disarms_on_drop() {
        {
            let _guard = arm_scoped("s=panic", 0).unwrap();
            assert!(is_armed());
        }
        // Another test may arm between the drop and here; re-taking the
        // scope waits until it has disarmed again.
        let _serial = disarmed_scope();
        assert!(!is_armed());
        assert!(hit("s").is_none());
    }

    #[test]
    fn faulty_read_injects_into_the_stream() {
        let _guard = arm_scoped("ingest.read=fail-transient x1", 0).unwrap();
        let mut reader = FaultyRead::new(io::BufReader::new(&b"a,b,c\n"[..]), "ingest.read");
        let err = reader.fill_buf().unwrap_err();
        assert_eq!(classify_io(&err), FaultClass::Transient);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "a,b,c\n", "stream is intact after the injected error");
    }

    #[test]
    fn retry_and_exhaustion_notes_accumulate() {
        let _guard = arm_scoped("s=panic", 0).unwrap();
        note_retries("journal.append", 2);
        note_retries("journal.append", 0);
        note_exhausted("grid.cell");
        let t = telemetry();
        assert!(t.contains(&("fault.retries.journal.append".to_owned(), 2)));
        assert!(t.contains(&("fault.exhausted.grid.cell".to_owned(), 1)));
    }
}
