//! A deterministic bounded-interleaving model checker for the workspace's
//! concurrency primitives (loom/shuttle-style, zero dependencies).
//!
//! Only compiled under `--cfg evematch_model`. [`check`] runs a closure — the
//! *body*, executing as virtual thread 0 — many times, once per thread
//! schedule. Inside the body, [`spawn`] creates additional virtual threads.
//! Every operation on a [`crate::sync`] primitive (atomic op, lock
//! acquisition) is a *sync point*: the executing thread parks and the
//! scheduler decides who runs next. Real OS threads execute the code, but at
//! most one is ever runnable, so each schedule is fully deterministic and
//! replayable from its decision sequence.
//!
//! The explorer performs a depth-first search over the decision tree with
//! CHESS-style *preemption bounding*: schedules are explored exhaustively up
//! to [`ModelConfig::preemption_bound`] involuntary context switches (a
//! switch away from a thread that could have continued). Voluntary switches
//! — a thread blocking on a lock or a join — are free. Most real
//! concurrency bugs manifest within two preemptions, so a small bound buys
//! exhaustiveness over a drastically smaller space.
//!
//! What is modeled: interleavings of sync operations, lock
//! blocking/availability (including read/write modes), lock poisoning (real
//! `std` locks sit underneath, so a panicking virtual thread genuinely
//! poisons), joins and panic propagation, and deadlock detection. What is
//! *not* modeled: weak-memory reorderings — the explorer is sequentially
//! consistent. Memory-ordering arguments are justified statically (tidy lint
//! T10, DESIGN.md §11) and dynamically by the ThreadSanitizer CI job.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, Once, PoisonError};

/// Configuration for one [`check`] run.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Maximum number of involuntary context switches per schedule.
    pub preemption_bound: usize,
    /// Hard cap on explored schedules; exceeding it reports
    /// `complete: false` rather than running forever.
    pub max_schedules: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_schedules: 200_000,
        }
    }
}

impl ModelConfig {
    /// The default configuration overridden by `EVEMATCH_MODEL_PREEMPTIONS`
    /// and `EVEMATCH_MODEL_MAX_SCHEDULES` when set (the nightly CI job uses
    /// these to explore a deeper bound than the per-PR run).
    #[must_use]
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(bound) = env_usize("EVEMATCH_MODEL_PREEMPTIONS") {
            config.preemption_bound = bound;
        }
        if let Some(max) = env_usize("EVEMATCH_MODEL_MAX_SCHEDULES") {
            config.max_schedules = max as u64;
        }
        config
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Outcome of a [`check`] run.
#[derive(Debug)]
pub struct Report {
    /// Number of schedules executed.
    pub schedules: u64,
    /// True when the bounded schedule space was explored exhaustively
    /// (no failure, no `max_schedules` cutoff).
    pub complete: bool,
    /// The first failing schedule, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics with a readable message unless the run explored its bounded
    /// space exhaustively with no failure. Test-harness sugar.
    pub fn assert_ok(&self) {
        assert!(
            self.failure.is_none(),
            "model check failed after {} schedule(s): {}",
            self.schedules,
            self.failure
                .as_ref()
                .map_or_else(String::new, |f| f.message.clone()),
        );
        assert!(
            self.complete,
            "model check hit the schedule cap ({} schedules) without finishing; \
             raise max_schedules or shrink the scenario",
            self.schedules
        );
    }
}

/// A failing schedule: what went wrong and the thread choice sequence that
/// reproduces it.
#[derive(Debug)]
pub struct Failure {
    /// Human-readable description (panic payload, deadlock report, …).
    pub message: String,
    /// The sequence of thread ids granted at each decision point.
    pub schedule: Vec<usize>,
}

/// Lock acquisition mode, as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum LockMode {
    Read,
    Write,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ThState {
    /// Ready to be granted the token.
    Runnable,
    /// Currently holds the token.
    Running,
    /// Wants the lock keyed by address; runnable once it is available.
    AcquireWait(usize, LockMode),
    /// Waiting for the target virtual thread to finish.
    JoinWait(usize),
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    Scheduler,
    Thread(usize),
}

#[derive(Debug, Default)]
struct LockState {
    writer: Option<usize>,
    readers: Vec<usize>,
}

impl LockState {
    fn available(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Write => self.writer.is_none() && self.readers.is_empty(),
            LockMode::Read => self.writer.is_none(),
        }
    }
}

struct ThreadSlot {
    state: ThState,
    panicked: Option<String>,
    joined: bool,
}

impl ThreadSlot {
    fn new() -> Self {
        Self {
            state: ThState::Runnable,
            panicked: None,
            joined: false,
        }
    }
}

struct Inner {
    turn: Turn,
    threads: Vec<ThreadSlot>,
    locks: BTreeMap<usize, LockState>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
    aborted: bool,
}

struct Exec {
    m: StdMutex<Inner>,
    cv: StdCondvar,
}

impl Exec {
    fn new() -> Self {
        Self {
            m: StdMutex::new(Inner {
                turn: Turn::Scheduler,
                threads: Vec::new(),
                locks: BTreeMap::new(),
                os_handles: Vec::new(),
                aborted: false,
            }),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // The scheduler mutex can only be poisoned by an internal bug; keep
        // going so the run can still be torn down and reported.
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Panic payload used to unwind virtual threads when a schedule is aborted
/// (deadlock or replay divergence). Distinguished from user panics so it is
/// not misreported as a body failure.
struct ModelAbort;

#[derive(Clone)]
struct ThreadCtx {
    exec: Arc<Exec>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

fn current() -> Option<ThreadCtx> {
    CTX.with(|c| c.borrow().clone())
}

/// True when the calling thread is a virtual thread inside a [`check`] run.
#[must_use]
pub fn scheduler_active() -> bool {
    current().is_some()
}

/// Blocks until the scheduler grants this thread the token.
/// The caller must already have published its (non-Running) state.
fn await_turn(exec: &Exec, tid: usize) {
    let mut inner = exec.lock();
    loop {
        if inner.aborted {
            drop(inner);
            std::panic::panic_any(ModelAbort);
        }
        if inner.turn == Turn::Thread(tid) {
            inner.threads[tid].state = ThState::Running;
            return;
        }
        inner = exec.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Publishes `state`, hands the token back to the scheduler, and blocks
/// until this thread is granted the token again.
fn yield_to_scheduler(exec: &Exec, tid: usize, state: ThState) {
    {
        let mut inner = exec.lock();
        inner.threads[tid].state = state;
        inner.turn = Turn::Scheduler;
        exec.cv.notify_all();
    }
    await_turn(exec, tid);
}

/// A sync point with no blocking semantics: atomics call this before every
/// operation. No-op outside a model run.
pub(super) fn sync_point() {
    if let Some(ctx) = current() {
        yield_to_scheduler(&ctx.exec, ctx.tid, ThState::Runnable);
    }
}

/// Ownership token for a lock acquired through the scheduler; releasing is
/// its `Drop`, so it survives panic unwinding (which is exactly when shard
/// poisoning needs the scheduler's books to stay correct).
pub(super) struct HeldLock {
    exec: Arc<Exec>,
    tid: usize,
    lock_addr: usize,
    mode: LockMode,
}

impl std::fmt::Debug for HeldLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeldLock")
            .field("tid", &self.tid)
            .field("lock_addr", &self.lock_addr)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Drop for HeldLock {
    fn drop(&mut self) {
        let mut inner = self.exec.lock();
        let entry = inner.locks.entry(self.lock_addr).or_default();
        match self.mode {
            LockMode::Write => entry.writer = None,
            LockMode::Read => entry.readers.retain(|&t| t != self.tid),
        }
        // No turn change: releasing is not a scheduling point; the running
        // thread keeps the token and yields at its next sync point, where the
        // scheduler will see the newly-available lock.
    }
}

/// Blocks (in scheduler terms) until `lock_addr` is available in `mode`,
/// then records ownership. Returns `None` outside a model run.
pub(super) fn acquire(lock_addr: usize, mode: LockMode) -> Option<HeldLock> {
    let ctx = current()?;
    yield_to_scheduler(&ctx.exec, ctx.tid, ThState::AcquireWait(lock_addr, mode));
    // Granted: the scheduler only hands the token to an AcquireWait thread
    // when the lock is available, and nothing else ran since.
    let mut inner = ctx.exec.lock();
    let entry = inner.locks.entry(lock_addr).or_default();
    match mode {
        LockMode::Write => entry.writer = Some(ctx.tid),
        LockMode::Read => entry.readers.push(ctx.tid),
    }
    drop(inner);
    Some(HeldLock {
        exec: ctx.exec,
        tid: ctx.tid,
        lock_addr,
        mode,
    })
}

/// Stable identity for a lock during one execution: its address.
pub(super) fn lock_addr<T: ?Sized>(lock: &T) -> usize {
    lock as *const T as *const () as usize
}

/// Handle to a virtual thread created by [`spawn`]; joining returns the
/// closure's value, or `Err` with the panic message if it panicked.
pub struct JoinHandle<T> {
    tid: usize,
    slot: Arc<StdMutex<Option<T>>>,
}

impl<T: Send + 'static> JoinHandle<T> {
    /// Blocks (in scheduler terms) until the target thread finishes.
    ///
    /// # Errors
    /// Returns the panic message when the target thread panicked.
    ///
    /// # Panics
    /// Panics when called from outside a model run.
    pub fn join(self) -> Result<T, String> {
        let ctx = current().expect("model::JoinHandle::join called outside model::check");
        yield_to_scheduler(&ctx.exec, ctx.tid, ThState::JoinWait(self.tid));
        // Granted: the scheduler only wakes a JoinWait thread once the
        // target is Finished.
        let mut inner = ctx.exec.lock();
        inner.threads[self.tid].joined = true;
        let panicked = inner.threads[self.tid].panicked.clone();
        drop(inner);
        if let Some(message) = panicked {
            return Err(message);
        }
        let value = self
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        value.ok_or_else(|| "virtual thread finished without storing a result".to_owned())
    }
}

/// Spawns a new virtual thread running `f` under the current model run.
///
/// # Panics
/// Panics when called from outside a model run: virtual threads only make
/// sense under the scheduler. (Runtime code never calls this: the grid's
/// real worker threads reach the model only through the shim's atomics.)
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let ctx = current().expect("model::spawn called outside model::check");
    let exec = Arc::clone(&ctx.exec);
    let slot: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
    let tid = {
        let mut inner = exec.lock();
        let tid = inner.threads.len();
        inner.threads.push(ThreadSlot::new());
        tid
    };
    let body_slot = Arc::clone(&slot);
    let os = spawn_vthread(Arc::clone(&exec), tid, move || {
        let value = f();
        *body_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
    });
    exec.lock().os_handles.push(os);
    // Spawning is itself a sync point: the child is now runnable and the
    // scheduler decides whether parent or child proceeds.
    yield_to_scheduler(&exec, ctx.tid, ThState::Runnable);
    JoinHandle { tid, slot }
}

/// Spawns the OS thread backing virtual thread `tid`. The thread waits for
/// its first token grant, runs `body` under `catch_unwind`, and reports
/// Finished. Thread names carry the `evematch-model` prefix so the quiet
/// panic hook can tell model-run panics from real test failures.
fn spawn_vthread(
    exec: Arc<Exec>,
    tid: usize,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("evematch-model-{tid}"))
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(ThreadCtx {
                    exec: Arc::clone(&exec),
                    tid,
                });
            });
            let result = catch_unwind(AssertUnwindSafe(|| {
                await_turn(&exec, tid);
                body();
            }));
            let panicked = match result {
                Ok(()) => None,
                Err(payload) if payload.is::<ModelAbort>() => None,
                Err(payload) => Some(payload_message(payload.as_ref())),
            };
            CTX.with(|c| *c.borrow_mut() = None);
            let mut inner = exec.lock();
            inner.threads[tid].state = ThState::Finished;
            inner.threads[tid].panicked = panicked;
            inner.turn = Turn::Scheduler;
            exec.cv.notify_all();
        })
        .expect("the host can spawn a model thread")
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One scheduling decision, recorded for replay and backtracking.
struct Decision {
    /// Grantable thread ids, default choice first.
    candidates: Vec<usize>,
    /// Index into `candidates` actually granted.
    idx: usize,
    /// Involuntary switches accrued by earlier decisions.
    preemptions_before: usize,
    /// Whether the previously-running thread was grantable here (making
    /// every non-default choice a preemption).
    running_was_runnable: bool,
}

struct ScheduleOutcome {
    decisions: Vec<Decision>,
    failure: Option<String>,
}

/// Explores the bounded schedule space of `body`, which runs as virtual
/// thread 0 and may [`spawn`] more virtual threads. Returns after the
/// first failing schedule, the schedule cap, or exhaustion of the space.
pub fn check<F>(config: &ModelConfig, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    quiet_model_panics();
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut forced: Vec<usize> = Vec::new();
    let mut schedules: u64 = 0;
    loop {
        let outcome = run_one_schedule(Arc::clone(&body), &forced);
        schedules += 1;
        if let Some(message) = outcome.failure {
            let schedule = outcome
                .decisions
                .iter()
                .map(|d| d.candidates[d.idx])
                .collect();
            return Report {
                schedules,
                complete: false,
                failure: Some(Failure { message, schedule }),
            };
        }
        if schedules >= config.max_schedules {
            return Report {
                schedules,
                complete: false,
                failure: None,
            };
        }
        match next_prefix(outcome.decisions, config.preemption_bound) {
            Some(prefix) => forced = prefix,
            None => {
                return Report {
                    schedules,
                    complete: true,
                    failure: None,
                }
            }
        }
    }
}

/// Backtracks to the deepest decision with an unexplored alternative that
/// stays within the preemption bound; returns the forced index prefix for
/// the next schedule, or `None` when the bounded space is exhausted.
fn next_prefix(mut decisions: Vec<Decision>, bound: usize) -> Option<Vec<usize>> {
    while let Some(d) = decisions.pop() {
        let alt = d.idx + 1;
        if alt >= d.candidates.len() {
            continue;
        }
        // Every non-default candidate costs one preemption iff the running
        // thread could have continued; the default (idx 0) costs none.
        let cost = d.preemptions_before + usize::from(d.running_was_runnable);
        if cost > bound {
            continue;
        }
        let mut prefix: Vec<usize> = decisions.iter().map(|p| p.idx).collect();
        prefix.push(alt);
        return Some(prefix);
    }
    None
}

/// Executes one full schedule: decisions `0..forced.len()` replay the given
/// candidate indices, later ones take the default (continue the running
/// thread when possible, else lowest thread id).
fn run_one_schedule(body: Arc<dyn Fn() + Send + Sync>, forced: &[usize]) -> ScheduleOutcome {
    let exec = Arc::new(Exec::new());
    {
        let mut inner = exec.lock();
        inner.threads.push(ThreadSlot::new());
    }
    let os0 = spawn_vthread(Arc::clone(&exec), 0, move || body());
    exec.lock().os_handles.push(os0);

    let mut decisions: Vec<Decision> = Vec::new();
    let mut preemptions: usize = 0;
    let mut last_running: Option<usize> = None;
    let mut failure: Option<String> = None;

    loop {
        let mut inner = exec.lock();
        while inner.turn != Turn::Scheduler {
            inner = exec.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        if inner.threads.iter().all(|t| t.state == ThState::Finished) {
            break;
        }
        let runnable = runnable_tids(&inner);
        if runnable.is_empty() {
            failure = Some(deadlock_report(&inner));
            abort(&mut inner, &exec);
            break;
        }
        let candidates = order_candidates(runnable, last_running);
        let running_was_runnable = last_running.is_some_and(|r| candidates[0] == r);
        let idx = forced.get(decisions.len()).copied().unwrap_or(0);
        if idx >= candidates.len() {
            failure = Some(format!(
                "internal model error: replay divergence at decision {} \
                 (forced index {idx}, {} candidate(s)) — the body is not \
                 deterministic between schedules",
                decisions.len(),
                candidates.len()
            ));
            abort(&mut inner, &exec);
            break;
        }
        let chosen = candidates[idx];
        if running_was_runnable && chosen != candidates[0] {
            preemptions += 1;
        }
        decisions.push(Decision {
            candidates,
            idx,
            preemptions_before: if running_was_runnable && idx > 0 {
                preemptions - 1
            } else {
                preemptions
            },
            running_was_runnable,
        });
        last_running = Some(chosen);
        inner.turn = Turn::Thread(chosen);
        exec.cv.notify_all();
        drop(inner);
    }

    let handles = {
        let mut inner = exec.lock();
        std::mem::take(&mut inner.os_handles)
    };
    for handle in handles {
        // A vthread's own panic is captured inside spawn_vthread; the OS
        // thread itself never unwinds, so join errors cannot happen here.
        let _ = handle.join();
    }

    if failure.is_none() {
        let inner = exec.lock();
        if let Some(message) = inner.threads[0].panicked.clone() {
            failure = Some(message);
        } else if let Some((tid, slot)) = inner
            .threads
            .iter()
            .enumerate()
            .find(|(_, t)| t.panicked.is_some() && !t.joined)
        {
            failure = Some(format!(
                "virtual thread {tid} panicked and was never joined: {}",
                slot.panicked.clone().unwrap_or_default()
            ));
        }
    }
    ScheduleOutcome { decisions, failure }
}

/// Thread ids the scheduler may grant right now, in ascending id order.
fn runnable_tids(inner: &Inner) -> Vec<usize> {
    inner
        .threads
        .iter()
        .enumerate()
        .filter(|(_, slot)| match &slot.state {
            ThState::Runnable => true,
            ThState::AcquireWait(addr, mode) => match inner.locks.get(addr) {
                Some(lock) => lock.available(*mode),
                None => true,
            },
            ThState::JoinWait(target) => inner.threads[*target].state == ThState::Finished,
            ThState::Running | ThState::Finished => false,
        })
        .map(|(tid, _)| tid)
        .collect()
}

/// Orders grantable threads with the default choice first: continue the
/// running thread when possible (no preemption), else lowest id.
fn order_candidates(runnable: Vec<usize>, last_running: Option<usize>) -> Vec<usize> {
    let mut candidates = runnable;
    if let Some(r) = last_running {
        if let Some(pos) = candidates.iter().position(|&t| t == r) {
            candidates.remove(pos);
            candidates.insert(0, r);
        }
    }
    candidates
}

fn deadlock_report(inner: &Inner) -> String {
    let stuck: Vec<String> = inner
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.state != ThState::Finished)
        .map(|(tid, t)| format!("thread {tid} is {:?}", t.state))
        .collect();
    format!("deadlock: no runnable thread ({})", stuck.join("; "))
}

/// Wakes every parked virtual thread with a `ModelAbort` panic so the run
/// can be torn down after a deadlock or internal error.
fn abort(inner: &mut Inner, exec: &Exec) {
    inner.aborted = true;
    exec.cv.notify_all();
}

/// Installs (once per process) a panic hook that silences panics on
/// `evematch-model-*` threads: seeded-bug and poisoning scenarios panic by
/// design on every explored schedule, and thousands of backtraces would
/// drown real test output. Panics on other threads pass through unchanged.
fn quiet_model_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_model_thread = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("evematch-model"));
            if !on_model_thread {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{AtomicUsize, Mutex, Ordering};

    #[test]
    fn a_single_threaded_body_runs_exactly_one_schedule() {
        let report = check(&ModelConfig::default(), || {
            let n = AtomicUsize::new(0);
            n.fetch_add(1, Ordering::Relaxed);
            assert_eq!(n.load(Ordering::Relaxed), 1);
        });
        report.assert_ok();
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn two_racing_increments_explore_multiple_schedules_and_stay_atomic() {
        let report = check(&ModelConfig::default(), || {
            let n = Arc::new(AtomicUsize::new(0));
            let a = {
                let n = Arc::clone(&n);
                spawn(move || n.fetch_add(1, Ordering::Relaxed))
            };
            let b = {
                let n = Arc::clone(&n);
                spawn(move || n.fetch_add(1, Ordering::Relaxed))
            };
            a.join().expect("no panic");
            b.join().expect("no panic");
            assert_eq!(n.load(Ordering::Relaxed), 2);
        });
        report.assert_ok();
        assert!(
            report.schedules > 1,
            "expected >1 interleaving, got {}",
            report.schedules
        );
    }

    #[test]
    fn a_racy_read_modify_write_is_caught() {
        // Seeded bug: load-then-store instead of fetch_add. Some schedule
        // interleaves the two loads before either store, losing an update.
        let report = check(&ModelConfig::default(), || {
            let n = Arc::new(AtomicUsize::new(0));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    spawn(move || {
                        let seen = n.load(Ordering::Relaxed);
                        n.store(seen + 1, Ordering::Relaxed);
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("no panic");
            }
            assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
        });
        assert!(report.failure.is_some(), "the lost update must be found");
        let failure = report.failure.expect("checked above");
        assert!(
            failure.message.contains("lost update"),
            "got: {}",
            failure.message
        );
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn mutual_exclusion_blocks_the_second_locker() {
        let report = check(&ModelConfig::default(), || {
            let cell = Arc::new(Mutex::new(0_u64));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    spawn(move || {
                        let mut guard = cell.lock().expect("not poisoned");
                        // Non-atomic read-modify-write, safe only under the lock.
                        let seen = *guard;
                        *guard = seen + 1;
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("no panic");
            }
            assert_eq!(*cell.lock().expect("not poisoned"), 2);
        });
        report.assert_ok();
    }

    #[test]
    fn abba_lock_order_deadlock_is_detected() {
        let report = check(&ModelConfig::default(), || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let t1 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                spawn(move || {
                    let _ga = a.lock().expect("not poisoned");
                    let _gb = b.lock().expect("not poisoned");
                })
            };
            let t2 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                spawn(move || {
                    let _gb = b.lock().expect("not poisoned");
                    let _ga = a.lock().expect("not poisoned");
                })
            };
            let _ = t1.join();
            let _ = t2.join();
        });
        let failure = report.failure.expect("ABBA deadlock must be found");
        assert!(
            failure.message.contains("deadlock"),
            "got: {}",
            failure.message
        );
    }

    #[test]
    fn poisoning_propagates_through_the_model_scheduler() {
        let report = check(&ModelConfig::default(), || {
            let cell = Arc::new(Mutex::new(7_u32));
            let poisoner = {
                let cell = Arc::clone(&cell);
                spawn(move || {
                    let _guard = cell.lock().expect("first lock succeeds");
                    panic!("poison under the model");
                })
            };
            assert!(poisoner.join().is_err(), "the panic must surface via join");
            let recovered = cell.lock().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(*recovered, 7, "poisoned state is still readable");
        });
        report.assert_ok();
    }

    #[test]
    fn preemption_bound_zero_runs_fewer_schedules_than_bound_two() {
        let body = |n: Arc<AtomicUsize>| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                        n.fetch_add(1, Ordering::Relaxed)
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("no panic");
            }
        };
        let tight = check(
            &ModelConfig {
                preemption_bound: 0,
                max_schedules: 100_000,
            },
            move || body(Arc::new(AtomicUsize::new(0))),
        );
        let loose = check(
            &ModelConfig {
                preemption_bound: 2,
                max_schedules: 100_000,
            },
            move || body(Arc::new(AtomicUsize::new(0))),
        );
        tight.assert_ok();
        loose.assert_ok();
        assert!(
            tight.schedules < loose.schedules,
            "bound 0 ({}) must explore fewer schedules than bound 2 ({})",
            tight.schedules,
            loose.schedules
        );
    }
}
