//! Evaluation of pattern contributions `d(p)` under (partial) mappings,
//! with memoization and Proposition-3 existence pruning.
//!
//! The memo is a [`SharedSupportCache`]: a sharded, `RwLock`-striped map
//! that one solver owns privately by default, or that several solver runs
//! over the *same* [`MatchContext`] data can share (an experiment-grid
//! cell runs every method against one context, so the heuristics warm the
//! exact search's cache — hits on entries another run inserted surface as
//! `eval.cache.shared_hits`). Parallel successor evaluation goes through
//! [`Evaluator::prefetch_supports`]: worker threads compute support
//! *outcomes* without touching the cache, the registry, or the primary
//! budget counters, and the driving thread then replays the sequential
//! consumption order, attributing counters exactly as a sequential run
//! would — which is what keeps scores, tie-breaks and the deterministic
//! metrics section byte-identical across `--eval-threads` settings.

// The memo cache is only ever point-queried, but BTreeMap keeps the
// deterministic crates hash-free outright (tidy lint no-hash-iter); keys
// are a pattern index plus at most a handful of event ids, so ordered
// lookups cost about the same as hashing the boxed slice.
use crate::sync::{AtomicU32, Ordering, PoisonError, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

use evematch_eventlog::EventId;
use evematch_graph::{IsoStats, MonoSearch};
use evematch_pattern::{
    compiled_pattern_support_stats, compiled_pattern_support_with_fuel_stats, is_realizable,
    is_realizable_with_fuel, pattern_support_stats, pattern_support_with_fuel_stats,
    CompiledPattern, Interrupted, MatcherEngine, PatternShape, SupportStats,
};

use crate::bounds::PruneReason;
use crate::budget::{Budget, BudgetMeter};
use crate::context::MatchContext;
use crate::mapping::Mapping;
use crate::parpool;
use crate::score::sim;
use crate::telemetry::{CounterId, MetricsSnapshot, ProgressBeacon, Telemetry, WorkCol};

/// Memo key: pattern index plus the image tuple of its sorted events.
type SupportKey = (u32, Box<[EventId]>);

/// Number of lock stripes in a [`SharedSupportCache`]. Shard choice is a
/// deterministic hash of the key, so two runs stripe identically.
const SHARD_COUNT: usize = 16;

/// One memoized support value, tagged with the run that computed it.
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    support: u32,
    owner: u32,
}

/// A sharded `(pattern, images) → support` memo shareable across solver
/// runs over the same [`MatchContext`] data.
///
/// Entries are tagged with the inserting run's owner id so a later run can
/// tell a *shared* hit (another method already paid the scan) from a hit
/// on its own work. The cache is fingerprinted over both logs and the
/// pattern set: [`Evaluator::with_config`] silently falls back to a
/// private cache when the fingerprint does not match its context, so a
/// cache can never leak support values across grid cells with different
/// data. Lock poisoning (a panicking solver thread) is recovered by
/// adopting the poisoned guard — every entry is written atomically under
/// the lock, so a poisoned shard still holds only complete entries.
#[derive(Debug)]
pub struct SharedSupportCache {
    fingerprint: u64,
    shards: Vec<RwLock<BTreeMap<SupportKey, CacheEntry>>>,
    next_owner: AtomicU32,
}

impl SharedSupportCache {
    /// A cache bound (by fingerprint) to `ctx`'s logs and pattern set.
    #[must_use]
    pub fn for_context(ctx: &MatchContext) -> Self {
        Self::with_fingerprint(context_fingerprint(ctx))
    }

    /// A private cache that no other context can validly share. Used for
    /// solo runs, where the fingerprint is never checked.
    fn private() -> Self {
        Self::with_fingerprint(0)
    }

    fn with_fingerprint(fingerprint: u64) -> Self {
        SharedSupportCache {
            fingerprint,
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(BTreeMap::new()))
                .collect(),
            next_owner: AtomicU32::new(0),
        }
    }

    /// Whether this cache was built for `ctx`'s data (same logs, same
    /// pattern set).
    #[must_use]
    pub fn matches(&self, ctx: &MatchContext) -> bool {
        self.fingerprint == context_fingerprint(ctx)
    }

    /// Registers one solver run as an entry owner.
    fn register_owner(&self) -> u32 {
        // ordering: Relaxed — owner ids only need uniqueness, which the
        // fetch_add's atomicity provides; entry data is published by the
        // shard RwLock, never by this counter. See DESIGN.md §11.
        self.next_owner.fetch_add(1, Ordering::Relaxed)
    }

    fn shard_of(&self, key: &SupportKey) -> usize {
        let mut h = fnv_seed();
        h = fnv_u64(h, u64::from(key.0));
        for e in key.1.iter() {
            h = fnv_u64(h, e.index() as u64);
        }
        (h % self.shards.len() as u64) as usize
    }

    fn get(&self, key: &SupportKey) -> Option<CacheEntry> {
        let shard = self.shards[self.shard_of(key)]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.get(key).copied()
    }

    /// Inserts a support value. An existing entry is kept (it holds the
    /// same exact value; keeping it preserves first-owner attribution).
    fn insert(&self, key: SupportKey, support: u32, owner: u32) {
        let mut shard = self.shards[self.shard_of(&key)]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        shard.entry(key).or_insert(CacheEntry { support, owner });
    }

    /// Total number of memoized entries (test/diagnostic use).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether no entry has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Model-checking accessors, compiled only under `--cfg evematch_model`:
/// they expose just enough of the private shard machinery for
/// `crates/modelcheck` to drive the poisoned-shard-recovery invariant over
/// every bounded interleaving. Never part of the normal API surface.
#[cfg(evematch_model)]
impl SharedSupportCache {
    /// A private (fingerprint-free) cache for model scenarios.
    #[must_use]
    pub fn model_private() -> Self {
        Self::private()
    }

    /// [`Self::register_owner`] for model scenarios.
    #[must_use]
    pub fn model_register_owner(&self) -> u32 {
        self.register_owner()
    }

    /// [`Self::insert`] keyed by `(pattern, images)`, for model scenarios.
    pub fn model_insert(&self, pattern: u32, images: &[EventId], support: u32, owner: u32) {
        self.insert((pattern, images.into()), support, owner);
    }

    /// [`Self::get`], returning `(support, owner)`, for model scenarios.
    #[must_use]
    pub fn model_get(&self, pattern: u32, images: &[EventId]) -> Option<(u32, u32)> {
        self.get(&(pattern, images.into()))
            .map(|e| (e.support, e.owner))
    }

    /// Panics while holding the write guard of the shard that stores
    /// `(pattern, images)`, poisoning it — the model scenario's stand-in
    /// for a solver thread dying mid-insert.
    ///
    /// # Panics
    /// Always (that is its purpose).
    pub fn model_poison_shard(&self, pattern: u32, images: &[EventId]) {
        let key: SupportKey = (pattern, images.into());
        let _guard = self.shards[self.shard_of(&key)].write();
        // tidy-allow: no-panic -- deliberate: model-only helper whose entire job is poisoning a shard
        panic!("model: poison the shard");
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_seed() -> u64 {
    FNV_OFFSET
}

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Deterministic fingerprint of everything a support value can depend on:
/// both logs' trace contents and the pattern set's structure, frequency
/// and order (the memo key uses pattern *indices*, so the set's order is
/// part of identity).
fn context_fingerprint(ctx: &MatchContext) -> u64 {
    let mut h = fnv_seed();
    for log in [ctx.log1(), ctx.log2()] {
        h = fnv_u64(h, log.event_count() as u64);
        h = fnv_u64(h, log.len() as u64);
        for trace in log.traces() {
            h = fnv_u64(h, trace.events().len() as u64);
            for &e in trace.events() {
                h = fnv_u64(h, e.index() as u64);
            }
        }
    }
    h = fnv_u64(h, ctx.patterns().len() as u64);
    for ep in ctx.patterns() {
        h = fnv_u64(h, ep.events.len() as u64);
        for &e in &ep.events {
            h = fnv_u64(h, e.index() as u64);
        }
        for (a, b) in ep.graph.edges_global() {
            h = fnv_u64(h, (a.index() as u64) << 32 | b.index() as u64);
        }
        h = fnv_u64(h, ep.support as u64);
        h = fnv_u64(h, ep.freq.to_bits());
    }
    h
}

/// How a solver run evaluates pattern supports: its budget, how many
/// worker threads batched successor evaluation may use, and an optional
/// pre-built cache shared with other runs over the same context data.
#[derive(Clone, Debug, Default)]
pub struct EvalConfig {
    /// Resource budget for the run.
    pub budget: Budget,
    /// Worker threads for batched successor evaluation; `0` and `1` both
    /// mean fully sequential (today's default behavior).
    pub threads: usize,
    /// A cache built by [`SharedSupportCache::for_context`] on the run's
    /// context. `None`, or a fingerprint mismatch, gives the run a fresh
    /// private cache.
    pub shared_cache: Option<Arc<SharedSupportCache>>,
    /// A live-progress beacon attached to the run's phase profiler, so a
    /// heartbeat thread can report the open phase path and charged-work
    /// rate (`evematch --progress`). `None` costs nothing.
    pub beacon: Option<Arc<ProgressBeacon>>,
    /// Which matching engine support scans use (default: compiled, with
    /// per-pattern typed fallback to the interpreter). Both engines are
    /// byte-equivalent on every deterministic output; the choice is
    /// recorded in the metrics info section as `matcher.engine`.
    pub engine: MatcherEngine,
}

impl EvalConfig {
    /// A sequential, privately-cached configuration with `budget`.
    #[must_use]
    pub fn from_budget(budget: Budget) -> Self {
        EvalConfig {
            budget,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shared support cache.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<SharedSupportCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Attaches a live-progress beacon (see [`EvalConfig::beacon`]).
    #[must_use]
    pub fn with_beacon(mut self, beacon: Arc<ProgressBeacon>) -> Self {
        self.beacon = Some(beacon);
        self
    }

    /// Selects the matching engine (see [`EvalConfig::engine`]).
    #[must_use]
    pub fn with_engine(mut self, engine: MatcherEngine) -> Self {
        self.engine = engine;
        self
    }
}

/// A support value computed ahead of time on a worker thread, together
/// with everything the driving thread needs to attribute counters exactly
/// as the sequential evaluation would have.
#[derive(Clone, Copy, Debug)]
struct PrefetchOutcome {
    /// The exact support, or `None` when the scan was fuel-interrupted
    /// (only a deadline can do that; the consumer recomputes inline).
    support: Option<u32>,
    /// Fuel polls the computation performed (replayed into
    /// `eval.fuel_spent` when consumed on the fueled path).
    fuel_polls: u64,
    /// The scan's work counters.
    scan: SupportStats,
    /// Whether Proposition 3 answered without a log scan.
    existence_pruned: bool,
}

/// Counters describing how much work an evaluator did — these feed the
/// "processed mappings" and pruning plots (Figures 7c, 8c, 9c, 10c).
///
/// Since the telemetry registry became the source of truth this is a
/// *compatibility view*, produced on demand by [`Evaluator::stats`]; the
/// same values (and many more) appear as `eval.*` counters in
/// [`Evaluator::metrics_snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Mapped-pattern frequency evaluations that scanned the log.
    pub log_scans: u64,
    /// Evaluations answered by the memo cache.
    pub cache_hits: u64,
    /// Evaluations answered `0` by the Proposition-3 existence check
    /// without touching the log.
    pub existence_pruned: u64,
    /// Evaluations abandoned mid-flight when a deadline tripped their
    /// fuel. Their provisional `0` is *not* cached, and any search that
    /// saw one must fall back to a static optimality-gap certificate
    /// (fuel-interrupted scores can under-estimate).
    pub interrupted_evals: u64,
}

/// Registered counter handles for the evaluator's hot paths.
#[derive(Clone, Copy, Debug)]
struct EvalCounters {
    log_scans: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    existence_pruned: CounterId,
    interrupted_evals: CounterId,
    grace_evals: CounterId,
    fuel_spent: CounterId,
    index_probes: CounterId,
    candidate_traces: CounterId,
    matched_traces: CounterId,
    prune_size_rule: CounterId,
    prune_zero_f1: CounterId,
    prune_vertex_cap: CounterId,
    prune_edge_group_cap: CounterId,
    shared_hits: CounterId,
}

impl EvalCounters {
    fn register(tele: &mut Telemetry) -> Self {
        let reg = &mut tele.registry;
        EvalCounters {
            log_scans: reg.counter("eval.log_scans"),
            cache_hits: reg.counter("eval.cache_hits"),
            cache_misses: reg.counter("eval.cache_misses"),
            existence_pruned: reg.counter("eval.existence_pruned"),
            interrupted_evals: reg.counter("eval.interrupted_evals"),
            grace_evals: reg.counter("eval.grace_evals"),
            fuel_spent: reg.counter("eval.fuel_spent"),
            index_probes: reg.counter("frequency.index_probes"),
            candidate_traces: reg.counter("frequency.candidate_traces"),
            matched_traces: reg.counter("frequency.matched_traces"),
            prune_size_rule: reg.counter("bounds.pruned.size_rule"),
            prune_zero_f1: reg.counter("bounds.pruned.zero_f1"),
            prune_vertex_cap: reg.counter("bounds.pruned.vertex_cap"),
            prune_edge_group_cap: reg.counter("bounds.pruned.edge_group_cap"),
            shared_hits: reg.counter("eval.cache.shared_hits"),
        }
    }
}

/// Fuel granted to the structural probe per complex pattern (VF2 extension
/// steps); embedding enumeration additionally stops at
/// [`PROBE_EMBED_CAP`]. Both caps are pure work counts, so the probe is
/// bit-deterministic.
const PROBE_FUEL: u64 = 4096;

/// Embeddings counted per pattern before the structural probe stops (the
/// Section-2.2 discriminativeness question only needs "few or many").
const PROBE_EMBED_CAP: u64 = 4;

/// Evaluates `d(p) = 1 − |f1(p) − f2(M(p))| / (f1(p) + f2(M(p)))` for the
/// patterns of a [`MatchContext`] under concrete event images.
///
/// One evaluator is owned by one solver run; its memo cache is keyed by
/// `(pattern, image tuple)`, so re-visiting the same partial assignment on a
/// different search branch is free. Single-event and single-edge patterns
/// bypass the cache entirely — their frequencies come straight from the
/// dependency graph of `L2`.
///
/// The evaluator also owns the run's [`Telemetry`]: solvers register their
/// own counters on it and the whole registry is frozen into
/// `MatchOutcome::metrics` when the run finishes.
pub struct Evaluator<'a> {
    ctx: &'a MatchContext,
    cache: Arc<SharedSupportCache>,
    /// This run's owner id within `cache`; hits on entries another owner
    /// inserted count as `eval.cache.shared_hits`.
    owner: u32,
    /// Outcomes computed ahead of time by [`Self::prefetch_supports`],
    /// consumed (and counter-attributed) in sequential order by
    /// [`Self::mapped_support`].
    prefetched: BTreeMap<SupportKey, PrefetchOutcome>,
    /// Worker threads batched prefetches may use (`<= 1` = sequential).
    threads: usize,
    /// The solver run's budget meter. The evaluator ticks it before every
    /// log scan, so a deadline is observed even inside one expensive outer
    /// search step.
    meter: BudgetMeter,
    tele: Telemetry,
    counters: EvalCounters,
    parpool_batches: u64,
    parpool_steals: u64,
    /// Which engine [`Self::mapped_support`] scans with (per-pattern
    /// fallback aside). Recorded in the metrics info section.
    engine: MatcherEngine,
    /// Cache-miss evaluations the compiled engine actually handled.
    compiled_evals: u64,
    /// Cache-miss evaluations that fell back to the interpreter because
    /// the pattern exceeded the automaton state budget.
    fallback_state_budget: u64,
    /// Cache-miss evaluations that fell back because the image tuple was
    /// not pairwise distinct (cannot happen under injective mappings;
    /// counted so a regression could never hide).
    fallback_binding: u64,
}

impl<'a> Evaluator<'a> {
    /// Creates a fresh evaluator (empty cache, zeroed counters) with an
    /// unlimited budget.
    pub fn new(ctx: &'a MatchContext) -> Self {
        Self::with_budget(ctx, Budget::UNLIMITED)
    }

    /// Creates a fresh evaluator metering `budget`.
    pub fn with_budget(ctx: &'a MatchContext, budget: Budget) -> Self {
        Self::with_config(ctx, &EvalConfig::from_budget(budget))
    }

    /// Creates an evaluator from a full [`EvalConfig`]. A shared cache
    /// whose fingerprint does not match `ctx` is **rejected**: the run
    /// gets a fresh private cache instead, so stale support values can
    /// never cross between contexts with different data.
    pub fn with_config(ctx: &'a MatchContext, config: &EvalConfig) -> Self {
        let cache = match &config.shared_cache {
            Some(shared) if shared.matches(ctx) => Arc::clone(shared),
            _ => Arc::new(SharedSupportCache::private()),
        };
        let owner = cache.register_owner();
        let mut tele = Telemetry::new();
        if let Some(beacon) = &config.beacon {
            tele.profile.attach_beacon(Arc::clone(beacon));
        }
        let counters = EvalCounters::register(&mut tele);
        Evaluator {
            ctx,
            cache,
            owner,
            prefetched: BTreeMap::new(),
            threads: config.threads.max(1),
            meter: config.budget.meter(),
            tele,
            counters,
            parpool_batches: 0,
            parpool_steals: 0,
            engine: config.engine,
            compiled_evals: 0,
            fallback_state_budget: 0,
            fallback_binding: 0,
        }
    }

    /// The engine this evaluator's support scans use.
    pub fn engine(&self) -> MatcherEngine {
        self.engine
    }

    /// Worker threads available to batched successor evaluation.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Work counters as the legacy [`EvalStats`] view.
    pub fn stats(&self) -> EvalStats {
        let reg = &self.tele.registry;
        EvalStats {
            log_scans: reg.counter_value(self.counters.log_scans),
            cache_hits: reg.counter_value(self.counters.cache_hits),
            existence_pruned: reg.counter_value(self.counters.existence_pruned),
            interrupted_evals: reg.counter_value(self.counters.interrupted_evals),
        }
    }

    /// This run's telemetry (registry + trace buffer).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// This run's telemetry, for registering and bumping solver counters.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.tele
    }

    /// Records one bound-analysis prune (called by
    /// [`crate::score::heuristic_bound`]).
    pub(crate) fn count_prune(&mut self, reason: PruneReason) {
        let id = match reason {
            PruneReason::SizeRule => self.counters.prune_size_rule,
            PruneReason::ZeroF1 => self.counters.prune_zero_f1,
            PruneReason::VertexCap => self.counters.prune_vertex_cap,
            PruneReason::EdgeGroupCap => self.counters.prune_edge_group_cap,
        };
        self.tele.registry.inc(id);
    }

    /// Runs the deterministic **structural probe**: embeds each complex
    /// pattern's graph form into `G2` with the VF2-style [`MonoSearch`],
    /// under a pure fuel cap. This is the Section-2.2 discriminativeness
    /// measure (a pattern whose structure has many embeddings carries
    /// little signal), surfaced as the `iso.*` counters. Purely
    /// observational: no search decision reads these numbers. Solvers call
    /// it once per run; repeat calls are no-ops.
    pub fn probe_structure(&mut self) {
        // Register every iso.* key up front so the snapshot always names
        // them, even when there is no composite pattern to probe.
        let reg = &mut self.tele.registry;
        let probes = reg.counter("iso.probes");
        let steps = reg.counter("iso.steps");
        let backtracks = reg.counter("iso.backtracks");
        let embeddings = reg.counter("iso.embeddings_found");
        let fuel_interrupts = reg.counter("iso.fuel_interrupts");
        let max_depth = reg.gauge("iso.max_depth");
        if reg.counter_value(probes) > 0 {
            return;
        }
        // One "probe" phase per run (the early return above keeps the
        // phase's call count at 1 regardless of how often solvers re-ask).
        self.tele.profile.open("probe");
        let target = self.ctx.dep2().graph();
        let mut total = IsoStats::default();
        let mut probed = 0u64;
        let mut found = 0u64;
        let mut interrupted = 0u64;
        for ep in self.ctx.patterns() {
            // Vertex and edge special patterns embed trivially; only the
            // composite structures are worth a probe.
            if ep.size() < 3 {
                continue;
            }
            let mut n = 0u64;
            let mut fuel_left = PROBE_FUEL;
            let r = MonoSearch::new(ep.graph.graph(), target).enumerate_with_fuel_stats(
                &mut |_| {
                    n += 1;
                    n < PROBE_EMBED_CAP
                },
                &mut || {
                    if fuel_left == 0 {
                        return false;
                    }
                    fuel_left -= 1;
                    true
                },
                &mut total,
            );
            probed += 1;
            found += n;
            if r.is_err() {
                interrupted += 1;
            }
        }
        let reg = &mut self.tele.registry;
        reg.add(probes, probed);
        reg.add(steps, total.steps);
        reg.add(backtracks, total.backtracks);
        reg.add(embeddings, found);
        reg.add(fuel_interrupts, interrupted);
        reg.gauge_max(max_depth, total.max_depth);
        self.tele.trace.point(
            "iso.probe",
            vec![
                ("patterns".to_owned(), probed),
                ("steps".to_owned(), total.steps),
                ("embeddings".to_owned(), found),
            ],
        );
        self.tele.profile.close();
    }

    /// Freezes this run's metrics, folding in the budget meter's view:
    /// `budget.processed`, `budget.polls`, and — when a limit tripped —
    /// `budget.exhausted.<cause>` (see [`crate::Exhaustion::key`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.tele.registry.snapshot();
        snap.set_counter("budget.processed", self.meter.processed());
        snap.set_counter("budget.polls", self.meter.polls());
        // Deterministic by design: without a deadline, worker ticks touch
        // nothing and this stays 0 for every thread count.
        snap.set_counter("budget.cross_thread_trips", self.meter.cross_thread_trips());
        if let Some(cause) = self.meter.exhaustion() {
            snap.set_counter(&format!("budget.exhausted.{}", cause.key()), 1);
        }
        // Execution-shape facts (how the work was scheduled, not what was
        // computed) go in the non-deterministic info section.
        snap.set_info("parpool.batches", self.parpool_batches);
        snap.set_info("parpool.steals", self.parpool_steals);
        // Engine facts likewise: both engines produce byte-identical
        // deterministic sections, so *which* engine ran (and how often it
        // fell back) is an execution-shape fact, never a counter.
        snap.set_info(
            "matcher.engine",
            match self.engine {
                MatcherEngine::Interpreted => 0,
                MatcherEngine::Compiled => 1,
            },
        );
        snap.set_info("matcher.compiled_evals", self.compiled_evals);
        snap.set_info("matcher.fallback.state_budget", self.fallback_state_budget);
        snap.set_info("matcher.fallback.binding", self.fallback_binding);
        snap
    }

    /// The context this evaluator works on.
    pub fn context(&self) -> &'a MatchContext {
        self.ctx
    }

    /// The run's budget meter.
    pub fn meter(&self) -> &BudgetMeter {
        &self.meter
    }

    /// The run's budget meter, for charging work against it.
    pub fn meter_mut(&mut self) -> &mut BudgetMeter {
        &mut self.meter
    }

    /// The images of pattern `p_idx`'s (sorted) events under `m`, or `None`
    /// while any of them is unmapped.
    pub fn images_under(&self, p_idx: usize, m: &Mapping) -> Option<Vec<EventId>> {
        self.ctx.patterns()[p_idx]
            .events
            .iter()
            .map(|&e| m.get(e))
            .collect()
    }

    /// `d(p)` under `m`, or `None` while the pattern is not fully mapped.
    pub fn d(&mut self, p_idx: usize, m: &Mapping) -> Option<f64> {
        let images = self.images_under(p_idx, m)?;
        Some(self.d_with_images(p_idx, &images))
    }

    /// `d(p)` given explicit images (aligned with the pattern's sorted
    /// event list).
    pub fn d_with_images(&mut self, p_idx: usize, images: &[EventId]) -> f64 {
        let f1 = self.ctx.patterns()[p_idx].freq;
        let support2 = self.mapped_support(p_idx, images);
        let n2 = self.ctx.log2().len();
        let f2 = if n2 == 0 {
            0.0
        } else {
            support2 as f64 / n2 as f64
        };
        sim(f1, f2)
    }

    /// Unnormalized support of the mapped pattern `M(p)` in `L2`.
    ///
    /// Composite-pattern evaluations run *fueled*: the realizability check
    /// (worst-case exponential in `AND` fan-out) and the log scan both poll
    /// the deadline from inside, so one pathological pattern cannot overrun
    /// the budget. A fuel-interrupted evaluation reports `0` without
    /// caching it and bumps [`EvalStats::interrupted_evals`]. Once the
    /// meter is exhausted, evaluations instead run to completion unfueled —
    /// the polynomial-bounded "grace" work that scores the anytime result
    /// exactly.
    pub fn mapped_support(&mut self, p_idx: usize, images: &[EventId]) -> u32 {
        let ctx = self.ctx;
        let ep = &ctx.patterns()[p_idx];
        debug_assert_eq!(images.len(), ep.events.len());
        let dep2 = ctx.dep2();
        // Fast paths: vertex and edge special patterns (the bulk of P) read
        // straight off the dependency graph, exactly as their `f1` was
        // read off `dep1` when the context was built.
        match ep.shape {
            PatternShape::Vertex(v) => return dep2.vertex_support(image_of(ep, v, images)),
            PatternShape::Edge(a, b) => {
                return dep2.edge_support(image_of(ep, a, images), image_of(ep, b, images))
            }
            PatternShape::Complex => {}
        }
        let key = (p_idx as u32, images.to_vec().into_boxed_slice());
        if let Some(entry) = self.cache.get(&key) {
            self.tele.registry.inc(self.counters.cache_hits);
            // A hit is still one cache-layer evaluation, charged to the
            // phase the *caller* has open (typically `search`).
            self.tele.profile.charge(WorkCol::Evals, 1);
            self.tele.profile.charge(WorkCol::CacheHits, 1);
            if entry.owner != self.owner {
                self.tele.registry.inc(self.counters.shared_hits);
            }
            return entry.support;
        }
        // The slow path (every cache miss, including prefetched replays)
        // is the `support-eval` phase: its call count equals
        // `eval.cache_misses`, which is invariant across `--eval-threads`
        // because prefetched outcomes replay through this same path in
        // sequential consumption order.
        self.tele.profile.open("support-eval");
        self.tele.profile.charge(WorkCol::Evals, 1);
        self.tele.profile.charge(WorkCol::CacheMisses, 1);
        let support = self.mapped_support_slow(key, p_idx, images);
        self.tele.profile.close();
        support
    }

    /// The cache-miss body of [`Self::mapped_support`], bracketed by the
    /// `support-eval` profiler phase at the single call site above.
    fn mapped_support_slow(&mut self, key: SupportKey, p_idx: usize, images: &[EventId]) -> u32 {
        let ctx = self.ctx;
        let ep = &ctx.patterns()[p_idx];
        let ids = self.counters;
        self.tele.registry.inc(ids.cache_misses);
        // Engine dispatch for this evaluation, decided (and its fallbacks
        // counted) *before* the prefetch-replay branch so replayed
        // outcomes attribute engine facts exactly like inline ones.
        let compiled = self.dispatch_engine(ep, images);
        // A realizability check or log scan is the expensive inner unit of
        // work; advance the deadline poll cadence before paying it.
        self.meter.tick();
        self.tele.profile.charge(WorkCol::MeterTicks, 1);
        // Replay a prefetched outcome if a worker already paid for this
        // key, attributing counters exactly as the inline path below would
        // at *this* point of the sequential order.
        if let Some(out) = self.prefetched.remove(&key) {
            if self.meter.is_exhausted() {
                if let Some(support) = out.support {
                    // The sequential run would take the grace path here. A
                    // completed fueled scan produced the same exact value
                    // (and scan counters) a grace recomputation would, and
                    // grace evaluations never charge fuel.
                    self.tele.registry.inc(ids.grace_evals);
                    if out.existence_pruned {
                        self.tele.registry.inc(ids.existence_pruned);
                    } else {
                        self.tele.registry.inc(ids.log_scans);
                    }
                    self.absorb_scan(&out.scan);
                    self.cache.insert(key, support, self.owner);
                    return support;
                }
                // Interrupted prefetch: fall through to the inline grace
                // recomputation below.
            } else if let Some(support) = out.support {
                // Fueled path, replayed: the worker's fuel polls are the
                // ones the inline computation would have performed.
                if out.existence_pruned {
                    self.tele.registry.inc(ids.existence_pruned);
                } else {
                    self.tele.registry.inc(ids.log_scans);
                }
                self.tele.registry.add(ids.fuel_spent, out.fuel_polls);
                self.tele
                    .profile
                    .charge(WorkCol::MeterTicks, out.fuel_polls);
                self.absorb_scan(&out.scan);
                self.cache.insert(key, support, self.owner);
                return support;
            }
            // `out.support == None` with a non-exhausted meter cannot
            // happen (workers only interrupt after the shared meter
            // latched); recompute inline if it somehow does.
        }
        let dep2 = ctx.dep2();
        let mapped = ep.pattern.map_events(&|e| image_of(ep, e, images));
        let edge_ok = |a: EventId, b: EventId| dep2.has_edge(a, b);
        let mut scan = SupportStats::default();
        // Proposition 3 (sound form): if no allowed order of the mapped
        // pattern can be realized along dependency edges of G2, no trace of
        // L2 matches it — skip the log scan.
        if self.meter.is_exhausted() {
            // Grace mode (see the method docs): exact, unfueled, cached.
            self.tele.registry.inc(ids.grace_evals);
            let support = if !is_realizable(&mapped, &edge_ok) {
                self.tele.registry.inc(ids.existence_pruned);
                0
            } else {
                self.tele.registry.inc(ids.log_scans);
                match compiled {
                    Some(cp) => compiled_pattern_support_stats(
                        cp,
                        images,
                        ctx.columnar2(),
                        ctx.index2(),
                        &mut scan,
                    ) as u32,
                    None => {
                        pattern_support_stats(&mapped, ctx.log2(), ctx.index2(), &mut scan) as u32
                    }
                }
            };
            self.absorb_scan(&scan);
            self.cache.insert(key, support, self.owner);
            return support;
        }
        let meter = &self.meter;
        let mut fuel_polls = 0u64;
        let mut fuel = || {
            fuel_polls += 1;
            meter.tick();
            // Only a deadline can latch inside a tick, so "not exhausted"
            // is exactly "the deadline has not tripped".
            !meter.is_exhausted()
        };
        let support = match is_realizable_with_fuel(&mapped, &edge_ok, &mut fuel) {
            Ok(false) => {
                self.tele.registry.inc(ids.existence_pruned);
                Some(0)
            }
            Ok(true) => {
                self.tele.registry.inc(ids.log_scans);
                let scanned = match compiled {
                    Some(cp) => compiled_pattern_support_with_fuel_stats(
                        cp,
                        images,
                        ctx.columnar2(),
                        ctx.index2(),
                        &mut fuel,
                        &mut scan,
                    ),
                    None => pattern_support_with_fuel_stats(
                        &mapped,
                        ctx.log2(),
                        ctx.index2(),
                        &mut fuel,
                        &mut scan,
                    ),
                };
                match scanned {
                    Ok(s) => Some(s as u32),
                    Err(Interrupted) => None,
                }
            }
            Err(Interrupted) => None,
        };
        self.tele.registry.add(ids.fuel_spent, fuel_polls);
        self.tele.profile.charge(WorkCol::MeterTicks, fuel_polls);
        self.absorb_scan(&scan);
        match support {
            Some(support) => {
                self.cache.insert(key, support, self.owner);
                support
            }
            None => {
                // Abandoned mid-flight: report 0 but do NOT cache it — a
                // later grace evaluation of the same key recomputes it
                // exactly — and record that this run's scores may now
                // under-estimate.
                self.tele.registry.inc(ids.interrupted_evals);
                0
            }
        }
    }

    /// Pre-computes, on up to [`Self::threads`] scoped worker threads, the
    /// support values behind a batch of upcoming `(pattern, images)`
    /// evaluations — typically every composite pattern completed by the
    /// successor children of one expanded search node.
    ///
    /// Workers are **side-effect free** against everything that feeds the
    /// deterministic output: they never touch the cache, the telemetry
    /// registry, or the primary budget counters; the only shared state a
    /// worker mutates is the deadline latch (via
    /// [`BudgetMeter::tick_worker`], a no-op for cap-only budgets). The
    /// driving thread later consumes each outcome from
    /// [`Self::mapped_support`] in sequential order, attributing counters
    /// exactly as an inline evaluation would at that point. Keys already
    /// cached, already prefetched, or answerable by a fast path are
    /// skipped; duplicates are computed once. Sequential configurations
    /// (`threads <= 1`) and exhausted meters make this a no-op.
    pub fn prefetch_supports(&mut self, keys: &[(usize, Vec<EventId>)]) {
        if self.threads <= 1 || self.meter.is_exhausted() {
            return;
        }
        let mut seen: std::collections::BTreeSet<SupportKey> = std::collections::BTreeSet::new();
        let mut todo: Vec<SupportKey> = Vec::new();
        for (p_idx, images) in keys {
            let ep = &self.ctx.patterns()[*p_idx];
            if images.len() != ep.events.len() {
                continue;
            }
            // Fast-path keys (vertex / edge patterns) never reach the
            // cache, so there is nothing to prefetch for them.
            if ep.shape != PatternShape::Complex {
                continue;
            }
            let key: SupportKey = (*p_idx as u32, images.clone().into_boxed_slice());
            if self.prefetched.contains_key(&key) || self.cache.get(&key).is_some() {
                continue;
            }
            if !seen.insert(key.clone()) {
                continue;
            }
            todo.push(key);
        }
        if todo.is_empty() {
            return;
        }
        let ctx = self.ctx;
        let meter = &self.meter;
        let engine = self.engine;
        // The batch is a thread-count-dependent *overlay*: it only exists
        // when threads > 1, so its wall time and worker lanes live in the
        // profile's non-deterministic section, never in the phase tree.
        let clock = self.tele.profile.lane_clock();
        let t0 = clock.now_nanos();
        let (outcomes, stats, lanes) =
            parpool::run_batch_traced(self.threads, &todo, Some(&clock), |key| {
                compute_support_outcome(ctx, meter, engine, key.0 as usize, &key.1)
            });
        self.tele
            .profile
            .record_overlay("parpool.prefetch", t0, clock.now_nanos());
        self.tele.profile.record_lanes(&lanes);
        self.parpool_batches += stats.batches;
        self.parpool_steals += stats.steals;
        for (key, out) in todo.into_iter().zip(outcomes) {
            self.prefetched.insert(key, out);
        }
    }

    /// Resolves which engine handles one cache-miss evaluation and
    /// counts the decision: `Some(cp)` scans with the compiled automaton,
    /// `None` with the interpreter (either by configuration or by typed
    /// per-pattern fallback).
    fn dispatch_engine(
        &mut self,
        ep: &'a evematch_pattern::EvaluatedPattern,
        images: &[EventId],
    ) -> Option<&'a CompiledPattern> {
        let cp = select_compiled(self.engine, ep, images)?;
        match cp {
            Ok(cp) => {
                self.compiled_evals += 1;
                Some(cp)
            }
            Err(EngineFallback::StateBudget) => {
                self.fallback_state_budget += 1;
                None
            }
            Err(EngineFallback::Binding) => {
                self.fallback_binding += 1;
                None
            }
        }
    }

    /// Folds one support scan's counters into the registry.
    fn absorb_scan(&mut self, scan: &SupportStats) {
        let reg = &mut self.tele.registry;
        reg.add(self.counters.index_probes, scan.index_probes);
        reg.add(self.counters.candidate_traces, scan.candidate_traces);
        reg.add(self.counters.matched_traces, scan.matched_traces);
    }
}

/// Why a compiled-engine evaluation must use the interpreter instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EngineFallback {
    /// The pattern's automaton exceeded the state budget at compile time.
    StateBudget,
    /// The image tuple is not pairwise distinct, so the compiled reverse
    /// lookup would be ambiguous (the interpreter on the mapped AST
    /// defines the degenerate semantics).
    Binding,
}

/// The pure engine-dispatch predicate shared by the driving thread and
/// the side-effect-free parpool workers: `None` when the engine is the
/// interpreter by configuration, otherwise the compiled pattern or the
/// typed reason this evaluation falls back.
fn select_compiled<'c>(
    engine: MatcherEngine,
    ep: &'c evematch_pattern::EvaluatedPattern,
    images: &[EventId],
) -> Option<Result<&'c CompiledPattern, EngineFallback>> {
    match engine {
        MatcherEngine::Interpreted => None,
        MatcherEngine::Compiled => Some(match &ep.compiled {
            Err(_) => Err(EngineFallback::StateBudget),
            Ok(cp) => {
                let distinct = images
                    .iter()
                    .enumerate()
                    .all(|(i, a)| !images[i + 1..].contains(a));
                if distinct {
                    Ok(cp)
                } else {
                    Err(EngineFallback::Binding)
                }
            }
        }),
    }
}

/// The worker-side body of [`Evaluator::prefetch_supports`]: the exact
/// computation [`Evaluator::mapped_support`]'s fueled path performs, minus
/// every side effect on cache, registry, or primary budget counters. Fuel
/// polls only observe the deadline ([`BudgetMeter::tick_worker`]), so for
/// cap-only budgets this touches no shared state at all.
fn compute_support_outcome(
    ctx: &MatchContext,
    meter: &BudgetMeter,
    engine: MatcherEngine,
    p_idx: usize,
    images: &[EventId],
) -> PrefetchOutcome {
    let ep = &ctx.patterns()[p_idx];
    let compiled = select_compiled(engine, ep, images).and_then(Result::ok);
    let dep2 = ctx.dep2();
    let mapped = ep.pattern.map_events(&|e| image_of(ep, e, images));
    let edge_ok = |a: EventId, b: EventId| dep2.has_edge(a, b);
    let mut fuel_polls = 0u64;
    let mut fuel = || {
        fuel_polls += 1;
        meter.tick_worker();
        !meter.is_exhausted()
    };
    let mut scan = SupportStats::default();
    let (support, existence_pruned) = match is_realizable_with_fuel(&mapped, &edge_ok, &mut fuel) {
        Ok(false) => (Some(0), true),
        Ok(true) => {
            let scanned = match compiled {
                Some(cp) => compiled_pattern_support_with_fuel_stats(
                    cp,
                    images,
                    ctx.columnar2(),
                    ctx.index2(),
                    &mut fuel,
                    &mut scan,
                ),
                None => pattern_support_with_fuel_stats(
                    &mapped,
                    ctx.log2(),
                    ctx.index2(),
                    &mut fuel,
                    &mut scan,
                ),
            };
            match scanned {
                Ok(s) => (Some(s as u32), false),
                Err(Interrupted) => (None, false),
            }
        }
        Err(Interrupted) => (None, false),
    };
    PrefetchOutcome {
        support,
        fuel_polls,
        scan,
        existence_pruned,
    }
}

/// The image of `e` under the positional `images` of `ep`'s sorted events.
#[inline]
fn image_of(ep: &evematch_pattern::EvaluatedPattern, e: EventId, images: &[EventId]) -> EventId {
    let pos = ep
        .events
        .binary_search(&e)
        // tidy-allow: no-panic -- e comes from ep's own pattern, and ep.events is exactly that pattern's sorted event list
        .expect("event belongs to the pattern");
    images[pos]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PatternSetBuilder;
    use evematch_eventlog::LogBuilder;
    use evematch_pattern::Pattern;

    /// L1: A (B‖C) D, both orders; L2: w (x‖y) z but only the x-before-y
    /// order, plus one noise trace.
    fn ctx() -> MatchContext {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C", "D"]);
        b1.push_named_trace(["A", "C", "B", "D"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["w", "x", "y", "z"]);
        b2.push_named_trace(["w", "z"]);
        let p1 = Pattern::seq(vec![
            Pattern::event(0),
            Pattern::and(vec![Pattern::event(1), Pattern::event(2)]).unwrap(),
            Pattern::event(3),
        ])
        .unwrap();
        MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges().complex(p1),
        )
        .unwrap()
    }

    fn identity(n1: usize, n2: usize) -> Mapping {
        Mapping::from_pairs(n1, n2, (0..n1 as u32).map(|i| (EventId(i), EventId(i))))
    }

    #[test]
    fn vertex_pattern_fast_path() {
        let c = ctx();
        let mut ev = Evaluator::new(&c);
        // Pattern 0 is the vertex pattern for A; map A -> w (freq 1.0 both).
        let d = ev.d_with_images(0, &[EventId(0)]);
        assert!((d - 1.0).abs() < 1e-12);
        // Map A -> x (f2 = 0.5): sim(1.0, 0.5) = 1 - 0.5/1.5.
        let d = ev.d_with_images(0, &[EventId(1)]);
        assert!((d - (1.0 - 0.5 / 1.5)).abs() < 1e-12);
        // Fast paths never touch the cache or the log.
        assert_eq!(ev.stats().log_scans, 0);
        assert_eq!(ev.stats().cache_hits, 0);
    }

    #[test]
    fn complex_pattern_is_counted_and_cached() {
        let c = ctx();
        let p1_idx = c.patterns().len() - 1;
        let mut ev = Evaluator::new(&c);
        // Identity mapping: p1 -> SEQ(w, AND(x, y), z); L2 has one matching
        // trace of two, so f2 = 0.5, f1 = 1.0.
        let images: Vec<EventId> = (0..4).map(EventId).collect();
        let d = ev.d_with_images(p1_idx, &images);
        assert!((d - sim(1.0, 0.5)).abs() < 1e-12);
        assert_eq!(ev.stats().log_scans, 1);
        let _ = ev.d_with_images(p1_idx, &images);
        assert_eq!(ev.stats().cache_hits, 1);
        assert_eq!(ev.stats().log_scans, 1);
    }

    #[test]
    fn existence_pruning_skips_log_scan() {
        let c = ctx();
        let p1_idx = c.patterns().len() - 1;
        let mut ev = Evaluator::new(&c);
        // Map A->z, B->x, C->y, D->w: SEQ(z, AND(x,y), w) needs edge z->x
        // or z->y in G2 — absent, so the pattern cannot be realized.
        let images = vec![EventId(3), EventId(1), EventId(2), EventId(0)];
        let d = ev.d_with_images(p1_idx, &images);
        assert_eq!(d, 0.0);
        assert_eq!(ev.stats().existence_pruned, 1);
        assert_eq!(ev.stats().log_scans, 0);
    }

    #[test]
    fn d_returns_none_for_incomplete_mapping() {
        let c = ctx();
        let p1_idx = c.patterns().len() - 1;
        let mut ev = Evaluator::new(&c);
        let mut m = Mapping::empty(c.n1(), c.n2());
        m.insert(EventId(0), EventId(0));
        assert_eq!(ev.d(p1_idx, &m), None);
        // Vertex pattern of A is complete.
        assert!(ev.d(0, &m).is_some());
        let full = identity(c.n1(), c.n2());
        assert!(ev.d(p1_idx, &full).is_some());
    }

    #[test]
    fn edge_pattern_fast_path_respects_direction() {
        let c = ctx();
        // Find the SEQ(B, C) edge pattern (B->C edge exists in L1).
        let idx = c
            .patterns()
            .iter()
            .position(|ep| ep.shape == PatternShape::Edge(EventId(1), EventId(2)))
            .expect("edge pattern B->C exists");
        let mut ev = Evaluator::new(&c);
        // B -> x, C -> y: edge x->y occurs in 1 of 2 traces.
        let s = ev.mapped_support(idx, &[EventId(1), EventId(2)]);
        assert_eq!(s, 1);
        // B -> y, C -> x: edge y->x never occurs.
        let s = ev.mapped_support(idx, &[EventId(2), EventId(1)]);
        assert_eq!(s, 0);
    }

    /// A second context over *different* logs: same vocabulary sizes, so a
    /// stale cache would silently serve wrong supports if the fingerprint
    /// let it through.
    fn other_ctx() -> MatchContext {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C", "D"]);
        b1.push_named_trace(["A", "B", "C", "D"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["w", "x", "y", "z"]);
        b2.push_named_trace(["w", "x", "y", "z"]);
        let p1 = Pattern::seq(vec![
            Pattern::event(0),
            Pattern::and(vec![Pattern::event(1), Pattern::event(2)]).unwrap(),
            Pattern::event(3),
        ])
        .unwrap();
        MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new().vertices().edges().complex(p1),
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_rejects_a_cache_from_different_logs() {
        let c = ctx();
        let other = other_ctx();
        let cache = Arc::new(SharedSupportCache::for_context(&c));
        assert!(cache.matches(&c));
        assert!(
            !cache.matches(&other),
            "a cache fingerprinted for one log pair must not match another"
        );

        // `with_config` enforces the rejection behaviorally: the evaluator
        // falls back to a private cache, so the mismatched cache never
        // receives the other context's entries — and the run is identical
        // to one that never saw a shared cache.
        let config = EvalConfig::default().with_shared_cache(Arc::clone(&cache));
        let mut ev = Evaluator::with_config(&other, &config);
        let p1_idx = other.patterns().len() - 1;
        let images: Vec<EventId> = (0..4).map(EventId).collect();
        let support = ev.mapped_support(p1_idx, &images);
        assert!(cache.is_empty(), "rejected cache must stay untouched");
        assert_eq!(ev.metrics_snapshot().counters["eval.cache.shared_hits"], 0);
        let mut plain = Evaluator::new(&other);
        assert_eq!(support, plain.mapped_support(p1_idx, &images));
    }

    #[test]
    fn accepted_shared_cache_attributes_foreign_hits() {
        let c = ctx();
        let cache = Arc::new(SharedSupportCache::for_context(&c));
        let config = EvalConfig::default().with_shared_cache(Arc::clone(&cache));
        let p1_idx = c.patterns().len() - 1;
        let images: Vec<EventId> = (0..4).map(EventId).collect();

        // First evaluator computes and owns the entry.
        let mut first = Evaluator::with_config(&c, &config);
        let support = first.mapped_support(p1_idx, &images);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            first.metrics_snapshot().counters["eval.cache.shared_hits"],
            0
        );

        // Second evaluator hits the foreign-owned entry without scanning.
        let mut second = Evaluator::with_config(&c, &config);
        assert_eq!(second.mapped_support(p1_idx, &images), support);
        let snap = second.metrics_snapshot();
        assert_eq!(snap.counters["eval.cache.shared_hits"], 1);
        assert_eq!(snap.counters["eval.log_scans"], 0);
    }

    #[test]
    fn poisoned_shard_recovers_for_reads_and_writes() {
        let c = ctx();
        let cache = SharedSupportCache::for_context(&c);
        let key: SupportKey = (7, vec![EventId(0), EventId(1)].into_boxed_slice());
        cache.insert(key.clone(), 42, 0);

        // Poison exactly the shard holding the key: panic while holding
        // its write guard.
        let shard = cache.shard_of(&key);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.shards[shard].write().unwrap();
            panic!("poison the shard");
        }));
        assert!(r.is_err());
        assert!(cache.shards[shard].is_poisoned());

        // Reads, writes and sizing all recover via `into_inner`: a dead
        // worker can cost its in-flight value, never the whole memo.
        assert_eq!(cache.get(&key).map(|e| e.support), Some(42));
        let key2: SupportKey = (8, vec![EventId(2)].into_boxed_slice());
        cache.insert(key2.clone(), 9, 1);
        assert_eq!(cache.get(&key2).map(|e| e.support), Some(9));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn poisoning_racing_a_concurrent_writer_keeps_first_owner_attribution() {
        // A solver thread dies holding a shard's write guard while another
        // thread keeps inserting into the *same* shard. Whatever the
        // interleaving, the pre-existing entry must keep its original
        // owner/support, the concurrent writer's distinct key must land,
        // and the shard must stay fully usable. (The bounded model checker
        // in crates/modelcheck proves this over every schedule up to its
        // preemption bound; this test exercises real OS scheduling.)
        let c = ctx();
        let cache = SharedSupportCache::for_context(&c);
        let key: SupportKey = (7, vec![EventId(0), EventId(1)].into_boxed_slice());
        cache.insert(key.clone(), 42, 0);
        let shard = cache.shard_of(&key);
        // A second key steered into the same shard, so writer and poisoner
        // genuinely contend on one lock.
        let same_shard_key: SupportKey = (0..u32::MAX)
            .map(|p| (p, vec![EventId(2)].into_boxed_slice()))
            .find(|k| cache.shard_of(k) == shard && *k != key)
            .expect("some key lands in the same shard");

        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for _ in 0..64 {
                    cache.insert(same_shard_key.clone(), 9, 1);
                    // Same-key re-inserts must also never displace the
                    // original entry, poisoned shard or not.
                    cache.insert(key.clone(), 42, 1);
                }
            });
            let poisoner = scope.spawn(|| {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _guard = cache.shards[shard]
                        .write()
                        .unwrap_or_else(PoisonError::into_inner);
                    panic!("poison the shard mid-race");
                }));
                assert!(caught.is_err());
            });
            writer.join().expect("writer never panics");
            poisoner.join().expect("poisoner's panic is caught inside");
        });

        assert!(cache.shards[shard].is_poisoned());
        let entry = cache.get(&key).expect("original entry survives");
        assert_eq!(
            (entry.support, entry.owner),
            (42, 0),
            "first owner attribution"
        );
        let raced = cache.get(&same_shard_key).expect("concurrent insert lands");
        assert_eq!((raced.support, raced.owner), (9, 1));
        // The poisoned shard keeps serving both reads and writes.
        let after: SupportKey = (u32::MAX, vec![EventId(3)].into_boxed_slice());
        cache.insert(after.clone(), 5, 2);
        assert_eq!(cache.get(&after).map(|e| e.support), Some(5));
    }
}
