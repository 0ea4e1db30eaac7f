//! Evaluation of pattern contributions `d(p)` under (partial) mappings,
//! with memoization and Proposition-3 existence pruning.
//!
//! The memo is a [`SupportMemo`], keyed per pattern by the *canonical*
//! key of an image tuple ([`evematch_pattern::CanonPlan`]): the images in
//! the pattern's pre-order with the blocks of every group of same-shaped
//! `AND` children sorted. Definition 4 lets an `AND` take its children in
//! any block order, so bindings that differ only by such swaps have one
//! support, and a search that reaches one image set in several orders
//! scans `L2` once for it. `eval.cache_misses` therefore counts distinct
//! canonical keys, and a miss scans under the binding it was given.
//!
//! One solver run owns a private memo by default, or runs over the *same*
//! log pair and pattern set take turns with one lent memo (an
//! experiment-grid cell runs its methods one after another on one
//! dataset, so the heuristics warm the exact search's memo — hits on
//! entries another run inserted surface as `eval.cache.shared_hits`). A
//! solver run evaluates sequentially on the thread that drives it;
//! parallelism lives one layer up, in the grid workers of
//! `eval::experiments::run_grid`.

use std::cell::RefCell;
// The memo is only ever point-queried. It stays a BTreeMap, so rule T2
// (clippy's `disallowed_types`) holds here without a waiver. Its keys are
// a handful of event ids, cheap to compare; string keys are what made
// ordered lookups ~3x slower than hashing in `EventSet`'s name index, the
// one waived `HashMap`. A hashed memo has not been measured.
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use evematch_eventlog::EventId;
use evematch_pattern::{is_realizable_with_fuel, Interrupted, PatternShape, SupportStats};

use crate::bounds::PruneCounts;
use crate::budget::{Budget, BudgetMeter};
use crate::context::MatchContext;
use crate::exact::{Completion, MatchOutcome};
use crate::mapping::Mapping;
use crate::score::sim;
use crate::telemetry::{CounterId, MetricsSnapshot, ProgressBeacon, Telemetry};

/// One memoized support value, tagged with the run that computed it.
#[derive(Clone, Copy, Debug)]
struct MemoEntry {
    support: u32,
    owner: u32,
}

/// A `(pattern, canonical key) → support` memo for complex patterns: one
/// map per pattern index, keyed by the canonical key
/// ([`evematch_pattern::CanonPlan::key_into`]) of an image tuple, so every
/// binding that only permutes same-shaped `AND` children shares one entry.
///
/// Entries are tagged with the inserting run's owner id so a later run can
/// tell a *shared* hit (another method already paid the scan) from a hit
/// on its own work. A memo holds supports of one log pair under one
/// pattern set (the key is a pattern *index*); lending it to a run over
/// other data would serve it wrong supports, so only lend a memo to runs
/// over the same [`MatchContext`] data.
#[derive(Debug, Default)]
pub struct SupportMemo {
    by_pattern: Vec<BTreeMap<Box<[EventId]>, MemoEntry>>,
    next_owner: u32,
}

impl SupportMemo {
    /// Registers one solver run as an entry owner.
    fn register_owner(&mut self) -> u32 {
        let owner = self.next_owner;
        self.next_owner += 1;
        owner
    }

    fn get(&self, p_idx: usize, key: &[EventId]) -> Option<MemoEntry> {
        self.by_pattern.get(p_idx)?.get(key).copied()
    }

    /// Inserts a support value under a canonical key. An existing entry is
    /// kept (it holds the same exact value; keeping it preserves
    /// first-owner attribution).
    fn insert(&mut self, p_idx: usize, key: &[EventId], support: u32, owner: u32) {
        if self.by_pattern.len() <= p_idx {
            self.by_pattern.resize_with(p_idx + 1, BTreeMap::new);
        }
        self.by_pattern[p_idx]
            .entry(key.into())
            .or_insert(MemoEntry { support, owner });
    }
}

/// How a solver run evaluates pattern supports: its budget and an
/// optional memo lent by other runs over the same context data.
#[derive(Clone, Debug, Default)]
pub struct EvalConfig {
    /// Resource budget for the run.
    pub budget: Budget,
    /// A memo lent to the run. It must come from runs over the same log
    /// pair and pattern set as this run's context: a memo keys supports by
    /// pattern index and canonical image key, so one filled under other data
    /// would serve wrong supports. `None` gives the run a fresh private
    /// memo.
    pub memo: Option<Rc<RefCell<SupportMemo>>>,
    /// A live-progress beacon fed by the run's phase profiler (the open
    /// phase path) and by the evaluator (the solver's step counter), so a
    /// heartbeat thread can report both (`evematch --progress`). `None`
    /// costs nothing.
    pub beacon: Option<Arc<ProgressBeacon>>,
}

impl EvalConfig {
    /// A privately-memoized configuration with `budget`.
    #[must_use]
    pub fn from_budget(budget: Budget) -> Self {
        EvalConfig {
            budget,
            ..Self::default()
        }
    }

    /// Attaches a live-progress beacon (see [`EvalConfig::beacon`]).
    #[must_use]
    pub fn with_beacon(mut self, beacon: Arc<ProgressBeacon>) -> Self {
        self.beacon = Some(beacon);
        self
    }
}

/// Everything one cache-miss evaluation computed: the evaluator
/// attributes counters from it in one place.
#[derive(Clone, Copy, Debug)]
struct SupportOutcome {
    /// The exact support, or `None` when fuel ran dry mid-evaluation.
    support: Option<u32>,
    /// Fuel polls the computation performed (charged to `eval.fuel_spent`
    /// unless the evaluation is consumed in grace mode).
    fuel_polls: u64,
    /// The scan's work counters.
    scan: SupportStats,
    /// Whether Proposition 3 answered without a log scan.
    existence_pruned: bool,
    /// Whether the log scan started (it counts as `eval.log_scans` even
    /// when fuel interrupted it).
    log_scan: bool,
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

/// Evaluates `d(p) = 1 − |f1(p) − f2(M(p))| / (f1(p) + f2(M(p)))` for the
/// patterns of a [`MatchContext`] under concrete event images.
///
/// One evaluator is owned by one solver run; its memo is keyed by
/// `(pattern, canonical image key)`, so re-visiting the same partial
/// assignment on a different search branch, or reaching an image set whose
/// `AND` blocks another branch placed in another order, is free.
/// Single-event and single-edge patterns bypass the memo entirely — their
/// frequencies come straight from the dependency graph of `L2`.
///
/// The evaluator also owns the run's [`Telemetry`]: solvers register their
/// own counters on it and the whole registry is frozen into
/// `MatchOutcome::metrics` when the run finishes.
pub struct Evaluator<'a> {
    ctx: &'a MatchContext,
    memo: Rc<RefCell<SupportMemo>>,
    /// This run's owner id within `memo`; hits on entries another owner
    /// inserted count as `eval.cache.shared_hits`.
    owner: u32,
    /// Scratch image tuple reused by [`Self::d`].
    images: Vec<EventId>,
    /// Scratch canonical key reused by [`Self::mapped_support`], so a memo
    /// hit allocates nothing.
    key: Vec<EventId>,
    /// The solver run's budget meter. The evaluator ticks it before every
    /// log scan, so a deadline is observed even inside one expensive outer
    /// search step.
    meter: BudgetMeter,
    tele: Telemetry,
    counters: EvalCounters,
    /// The solver's step counter, named once in [`Self::start_search`]
    /// and bumped through [`Self::step`].
    step: Option<CounterId>,
    beacon: Option<Arc<ProgressBeacon>>,
    /// Cache-miss evaluations whose scan falls back to the interpreter
    /// because the pattern did not compile (it exceeded the automaton
    /// state budget).
    fallback_state_budget: u64,
    /// Cache-miss evaluations that fell back because the image tuple was
    /// not pairwise distinct (cannot happen under injective mappings;
    /// counted so a regression could never hide).
    fallback_binding: u64,
}

impl<'a> Evaluator<'a> {
    /// Creates a fresh evaluator (empty memo, zeroed counters) with an
    /// unlimited budget.
    pub fn new(ctx: &'a MatchContext) -> Self {
        Self::with_budget(ctx, Budget::UNLIMITED)
    }

    /// Creates a fresh evaluator metering `budget`.
    pub fn with_budget(ctx: &'a MatchContext, budget: Budget) -> Self {
        Self::with_config(ctx, &EvalConfig::from_budget(budget))
    }

    /// Creates an evaluator from a full [`EvalConfig`], registering the
    /// run as a new owner of the lent memo (or of a fresh private one).
    pub fn with_config(ctx: &'a MatchContext, config: &EvalConfig) -> Self {
        let memo = config.memo.clone().unwrap_or_default();
        let owner = memo.borrow_mut().register_owner();
        let mut tele = Telemetry::new();
        if let Some(beacon) = &config.beacon {
            tele.profile.attach_beacon(Arc::clone(beacon));
        }
        let counters = EvalCounters::register(&mut tele);
        Evaluator {
            ctx,
            memo,
            owner,
            images: Vec::new(),
            key: Vec::new(),
            meter: config.budget.meter(),
            tele,
            counters,
            step: None,
            beacon: config.beacon.clone(),
            fallback_state_budget: 0,
            fallback_binding: 0,
        }
    }

    /// The solver prologue every matcher shares: an evaluator for
    /// `config` with the `search` root phase opened and the solver's step
    /// counter (`search.pops`, `search.levels`, `km.rounds`,
    /// `iterative.rounds` or `entropy.weight_rows`) registered.
    pub(crate) fn start_search(ctx: &'a MatchContext, config: &EvalConfig, step: &str) -> Self {
        let mut eval = Self::with_config(ctx, config);
        eval.step = Some(eval.tele.registry.counter(step));
        eval.tele.profile.open("search");
        eval
    }

    /// Counts `n` solver steps on the counter named in
    /// [`Self::start_search`] and on the progress beacon; returns the
    /// counter's new total.
    pub(crate) fn step(&mut self, n: u64) -> u64 {
        let Some(id) = self.step else {
            return 0;
        };
        if let Some(beacon) = &self.beacon {
            beacon.add_steps(n);
        }
        self.tele.registry.add(id, n);
        self.tele.registry.counter_value(id)
    }

    /// Ends the run and packs its result: the one place a
    /// [`MatchOutcome`] is built. Closing the phase tree gives the
    /// profile, the run's one record of wall time; its `search` root's
    /// `pops` is a copy of the step counter, and every counter stays
    /// bit-deterministic.
    pub(crate) fn finish(
        mut self,
        mapping: Mapping,
        score: f64,
        completion: Completion,
    ) -> MatchOutcome {
        let steps = self
            .step
            .map_or(0, |id| self.tele.registry.counter_value(id));
        let mut profile = self.tele.profile.finish();
        for root in profile.roots.iter_mut().filter(|r| r.name == "search") {
            root.pops = steps;
        }
        let metrics = self.metrics_snapshot();
        MatchOutcome {
            mapping,
            score,
            completion,
            metrics,
            trace: self.tele.trace,
            profile,
        }
    }

    /// Evaluations a deadline abandoned mid-flight so far
    /// (`eval.interrupted_evals`). Their provisional `0` is not cached,
    /// and a search that saw one must fall back to a static
    /// optimality-gap certificate: fuel-interrupted scores can
    /// under-estimate.
    pub(crate) fn interrupted_evals(&self) -> u64 {
        self.tele
            .registry
            .counter_value(self.counters.interrupted_evals)
    }

    /// This run's telemetry (registry + trace buffer).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// This run's telemetry, for registering and bumping solver counters.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.tele
    }

    /// Records the bound-analysis prunes of one scored mapping.
    pub(crate) fn count_prunes(&mut self, prunes: &PruneCounts) {
        let (ids, reg) = (self.counters, &mut self.tele.registry);
        reg.add(ids.prune_size_rule, prunes.size_rule);
        reg.add(ids.prune_zero_f1, prunes.zero_f1);
        reg.add(ids.prune_vertex_cap, prunes.vertex_cap);
        reg.add(ids.prune_edge_group_cap, prunes.edge_group_cap);
    }

    /// Freezes this run's metrics, folding in the budget meter's view:
    /// `budget.processed`, `budget.polls`, and — when a limit tripped —
    /// `budget.exhausted.<cause>` (see [`crate::Exhaustion::key`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.tele.registry.snapshot();
        snap.set_counter("budget.processed", self.meter.processed());
        snap.set_counter("budget.polls", self.meter.polls());
        if let Some(cause) = self.meter.exhaustion() {
            snap.set_counter(&format!("budget.exhausted.{}", cause.key()), 1);
        }
        // Which decider a scan used never changes a support value, so the
        // interpreter fallbacks are execution-shape facts: they go in the
        // non-deterministic info section.
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

    /// `d(p)` under `m`, or `None` while the pattern is not fully mapped.
    /// A vertex or edge pattern reads its support straight off `G2`; only
    /// a complex pattern builds its image tuple (the source of its
    /// canonical memo key).
    pub fn d(&mut self, p_idx: usize, m: &Mapping) -> Option<f64> {
        let ctx = self.ctx;
        let ep = &ctx.patterns()[p_idx];
        if let Some(d) = special_d(ctx, ep, m) {
            return d;
        }
        let mut images = std::mem::take(&mut self.images);
        images.clear();
        images.extend(ep.events.iter().map_while(|&e| m.get(e)));
        let d = (images.len() == ep.events.len()).then(|| self.d_with_images(p_idx, &images));
        self.images = images;
        d
    }

    /// `d(p)` given explicit images (aligned with the pattern's sorted
    /// event list).
    pub fn d_with_images(&mut self, p_idx: usize, images: &[EventId]) -> f64 {
        let f1 = self.ctx.patterns()[p_idx].freq;
        let support2 = self.mapped_support(p_idx, images);
        similarity(self.ctx, f1, support2)
    }

    /// Unnormalized support of the mapped pattern `M(p)` in `L2`.
    ///
    /// Composite-pattern evaluations run *fueled*: the realizability check
    /// (worst-case exponential in `AND` fan-out) and the log scan both poll
    /// the deadline from inside, so one pathological pattern cannot overrun
    /// the budget. A fuel-interrupted evaluation reports `0` without
    /// caching it and bumps `eval.interrupted_evals`. Once the
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
        let mut key = std::mem::take(&mut self.key);
        ep.canon.key_into(images, &mut key);
        let hit = self.memo.borrow().get(p_idx, &key);
        let support = match hit {
            Some(entry) => {
                self.tele.registry.inc(self.counters.cache_hits);
                if entry.owner != self.owner {
                    self.tele.registry.inc(self.counters.shared_hits);
                }
                entry.support
            }
            None => {
                // The slow path (every cache miss) is the `support-eval`
                // phase: its call count equals `eval.cache_misses`.
                self.tele.profile.open("support-eval");
                let support = self.mapped_support_slow(p_idx, images, &key);
                self.tele.profile.close();
                support
            }
        };
        self.key = key;
        support
    }

    /// The cache-miss body of [`Self::mapped_support`], bracketed by the
    /// `support-eval` profiler phase at the single call site above: scans
    /// under `images` and memoizes under their canonical `key`.
    fn mapped_support_slow(&mut self, p_idx: usize, images: &[EventId], key: &[EventId]) -> u32 {
        let ctx = self.ctx;
        let ep = &ctx.patterns()[p_idx];
        let ids = self.counters;
        self.tele.registry.inc(ids.cache_misses);
        if ep.compiled_for(images).is_none() {
            if ep.compiled.is_err() {
                self.fallback_state_budget += 1;
            } else {
                self.fallback_binding += 1;
            }
        }
        // A realizability check or log scan is the expensive inner unit of
        // work; advance the deadline poll cadence before paying it.
        self.meter.tick();
        // Once the meter is exhausted, evaluations run in grace mode:
        // exact, unfueled, and charging no fuel.
        let grace = self.meter.is_exhausted();
        let out = if grace {
            support_outcome(ctx, p_idx, images, &mut || true)
        } else {
            let meter = &self.meter;
            support_outcome(ctx, p_idx, images, &mut || {
                meter.tick();
                // Only a deadline can latch inside a tick, so "not
                // exhausted" is exactly "the deadline has not tripped".
                !meter.is_exhausted()
            })
        };
        let reg = &mut self.tele.registry;
        if grace {
            reg.inc(ids.grace_evals);
        } else {
            reg.add(ids.fuel_spent, out.fuel_polls);
        }
        if out.existence_pruned {
            reg.inc(ids.existence_pruned);
        } else if out.log_scan {
            reg.inc(ids.log_scans);
        }
        self.absorb_scan(&out.scan);
        match out.support {
            Some(support) => {
                self.memo
                    .borrow_mut()
                    .insert(p_idx, key, support, self.owner);
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

    /// Folds one support scan's counters into the registry.
    fn absorb_scan(&mut self, scan: &SupportStats) {
        let reg = &mut self.tele.registry;
        reg.add(self.counters.index_probes, scan.index_probes);
        reg.add(self.counters.candidate_traces, scan.candidate_traces);
        reg.add(self.counters.matched_traces, scan.matched_traces);
    }
}

/// The one evaluation of a pattern under a cache-missed binding: the
/// Proposition-3 existence check, then the log scan, both polling `fuel`.
/// Pure — no cache or registry is touched — so the fueled path and grace
/// mode (`|| true`) differ only in the fuel they pass.
fn support_outcome(
    ctx: &MatchContext,
    p_idx: usize,
    images: &[EventId],
    fuel: &mut dyn FnMut() -> bool,
) -> SupportOutcome {
    let ep = &ctx.patterns()[p_idx];
    let dep2 = ctx.dep2();
    let mapped = ep.pattern.map_events(&|e| image_of(ep, e, images));
    let mut fuel_polls = 0u64;
    let mut fuel = || {
        fuel_polls += 1;
        fuel()
    };
    let mut scan = SupportStats::default();
    // Proposition 3 (sound form): if no allowed order of the mapped
    // pattern can be realized along dependency edges of G2, no trace of L2
    // matches it — skip the log scan.
    let realizable = is_realizable_with_fuel(&mapped, &|a, b| dep2.has_edge(a, b), &mut fuel);
    let support = match realizable {
        Ok(false) => Some(0),
        Ok(true) => {
            debug_assert_eq!(
                ctx.index2().event_count(),
                ctx.n2(),
                "a context with a complex pattern builds L2's trace index"
            );
            let traces = ctx.log2().columns();
            ep.scan(images, ctx.index2(), traces, &mut fuel, &mut scan)
                .ok()
                .map(|s| s as u32)
        }
        Err(Interrupted) => None,
    };
    SupportOutcome {
        support,
        fuel_polls,
        scan,
        existence_pruned: realizable == Ok(false),
        log_scan: realizable == Ok(true),
    }
}

/// `d(p)` of a vertex or edge pattern under `m` (`Some(None)` while it is
/// not fully mapped), read straight off `G2`; `None` for a complex
/// pattern, whose support needs the evaluator. Side-effect free, so the
/// search's pattern tables can store it.
#[inline]
pub(crate) fn special_d(
    ctx: &MatchContext,
    ep: &evematch_pattern::EvaluatedPattern,
    m: &Mapping,
) -> Option<Option<f64>> {
    let dep2 = ctx.dep2();
    let support2 = match ep.shape {
        PatternShape::Vertex(v) => m.get(v).map(|x| dep2.vertex_support(x)),
        PatternShape::Edge(a, b) => m.get(a).zip(m.get(b)).map(|(x, y)| dep2.edge_support(x, y)),
        PatternShape::Complex => return None,
    };
    Some(support2.map(|s| similarity(ctx, ep.freq, s)))
}

/// `sim(f1, f2)` for a pattern whose mapped support in `L2` is `support2`.
#[inline]
fn similarity(ctx: &MatchContext, f1: f64, support2: u32) -> f64 {
    let n2 = ctx.log2().len();
    let f2 = if n2 == 0 {
        0.0
    } else {
        support2 as f64 / n2 as f64
    };
    sim(f1, f2)
}

/// The image of `e` under the positional `images` of `ep`'s sorted events.
#[inline]
fn image_of(ep: &evematch_pattern::EvaluatedPattern, e: EventId, images: &[EventId]) -> EventId {
    #[expect(
        clippy::expect_used,
        reason = "e comes from ep's own pattern, and ep.events is exactly that pattern's sorted \
                  event list"
    )]
    let pos = ep
        .events
        .binary_search(&e)
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

    /// One counter of the evaluator's metrics snapshot.
    fn counter(ev: &Evaluator<'_>, name: &str) -> u64 {
        ev.metrics_snapshot().counters[name]
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
        assert_eq!(counter(&ev, "eval.log_scans"), 0);
        assert_eq!(counter(&ev, "eval.cache_hits"), 0);
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
        assert_eq!(counter(&ev, "eval.log_scans"), 1);
        let _ = ev.d_with_images(p1_idx, &images);
        assert_eq!(counter(&ev, "eval.cache_hits"), 1);
        assert_eq!(counter(&ev, "eval.log_scans"), 1);
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
        assert_eq!(counter(&ev, "eval.existence_pruned"), 1);
        assert_eq!(counter(&ev, "eval.log_scans"), 0);
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

    /// One complex key evaluated on a live meter (the fueled route) and
    /// after a processed cap tripped (the grace route) gives the same exact
    /// support; only the fueled route charges fuel.
    #[test]
    fn grace_evaluation_is_exact_and_charges_no_fuel() {
        let c = ctx();
        let p1_idx = c.patterns().len() - 1;
        let images: Vec<EventId> = (0..4).map(EventId).collect();
        for trip in [false, true] {
            let budget = Budget::UNLIMITED.with_processed_cap(0);
            let mut ev = Evaluator::with_budget(&c, budget);
            if trip {
                assert!(!ev.meter().charge_processed(), "cap 0 trips at once");
            }
            assert_eq!(ev.mapped_support(p1_idx, &images), 1, "trip {trip}");
            let snap = ev.metrics_snapshot();
            let counters = &snap.counters;
            assert_eq!(counters["eval.log_scans"], 1);
            assert_eq!(counters["eval.grace_evals"], u64::from(trip));
            if trip {
                assert_eq!(counters["eval.fuel_spent"], 0, "grace charges no fuel");
            } else {
                assert!(counters["eval.fuel_spent"] > 0);
            }
        }
    }

    #[test]
    fn accepted_shared_cache_attributes_foreign_hits() {
        let c = ctx();
        let memo = Rc::new(RefCell::new(SupportMemo::default()));
        let config = EvalConfig {
            memo: Some(Rc::clone(&memo)),
            ..EvalConfig::default()
        };
        let p1_idx = c.patterns().len() - 1;
        let images: Vec<EventId> = (0..4).map(EventId).collect();
        let entries = |m: &SupportMemo| m.by_pattern.iter().map(BTreeMap::len).sum::<usize>();

        // First evaluator computes and owns the entry.
        let mut first = Evaluator::with_config(&c, &config);
        let support = first.mapped_support(p1_idx, &images);
        assert_eq!(entries(&memo.borrow()), 1);
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

        // Re-inserting a key keeps its first owner and value.
        let mut key = Vec::new();
        c.patterns()[p1_idx].canon.key_into(&images, &mut key);
        memo.borrow_mut().insert(p1_idx, &key, support, 1);
        let entry = memo.borrow().get(p1_idx, &key).expect("memoized");
        assert_eq!((entry.support, entry.owner), (support, 0));
        assert_eq!(entries(&memo.borrow()), 1);
    }

    /// `AND(A,B,C)` under `(x,y,z)` and then `(z,x,y)` is one canonical
    /// key: one scan, then one hit. `SEQ(A,B,C)` under the same two
    /// bindings is two mapped patterns and costs two scans.
    #[test]
    fn and_bindings_that_permute_images_share_one_scan() {
        let mut b1 = LogBuilder::new();
        b1.push_named_trace(["A", "B", "C"]);
        let mut b2 = LogBuilder::new();
        b2.push_named_trace(["x", "y", "z"]);
        b2.push_named_trace(["z", "x", "y"]);
        let events = || (0..3).map(EventId);
        let c = MatchContext::new(
            b1.build(),
            b2.build(),
            PatternSetBuilder::new()
                .complex(Pattern::and_of_events(events()).unwrap())
                .complex(Pattern::seq_of_events(events()).unwrap()),
        )
        .unwrap();
        let (x, y, z) = (EventId(0), EventId(1), EventId(2));
        for (p_idx, supports, scans, hits) in [(0, [2, 2], 1, 1), (1, [1, 1], 2, 0)] {
            let mut ev = Evaluator::new(&c);
            let got = [
                ev.mapped_support(p_idx, &[x, y, z]),
                ev.mapped_support(p_idx, &[z, x, y]),
            ];
            assert_eq!(got, supports, "pattern {p_idx}");
            assert_eq!(counter(&ev, "eval.log_scans"), scans, "pattern {p_idx}");
            assert_eq!(counter(&ev, "eval.cache_misses"), scans, "pattern {p_idx}");
            assert_eq!(counter(&ev, "eval.cache_hits"), hits, "pattern {p_idx}");
        }
    }
}
