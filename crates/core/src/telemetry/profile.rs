//! Hierarchical phase profiler: where a solver's time and *work* go.
//!
//! The flat registry answers "how much work happened"; this module
//! answers "in which phase". A [`PhaseProfiler`] maintains a tree of
//! named phases (`ingest → index → search → support-eval → emit`, nested
//! arbitrarily) opened and closed with [`PhaseProfiler::open`] /
//! [`PhaseProfiler::close`] or the [`phase!`](crate::phase!) macro. Each
//! node carries two strictly separated kinds of data, mirroring the
//! registry's split (DESIGN.md §8):
//!
//! * **deterministic work attribution** — call counts plus the
//!   [`WorkCol`] columns (meter ticks, evals, pops, cache hits/misses,
//!   fault retries), charged to the innermost open phase via
//!   [`PhaseProfiler::charge`]. Under pure caps these are pure functions
//!   of the work performed, so [`ProfileSnapshot::deterministic_json`]
//!   is byte-identical across reruns and grid worker counts;
//! * **non-deterministic wall clock** — per-phase inclusive nanos with
//!   min/max per call.
//!
//! A [`ProfileSnapshot`] is mergeable (grids fold per-method cells) and
//! exports three artifact formats: the two-section profile JSON, a
//! Chrome `trace_event` JSON viewable in `about:tracing` / Perfetto
//! ([`ProfileSnapshot::to_chrome_trace`]), and a folded-stack file
//! consumable by `inferno` / `flamegraph.pl`
//! ([`ProfileSnapshot::to_folded`]).
//!
//! This module only ever *records* the clock — nothing here branches on
//! time, so search determinism is unaffected; its one clock read carries
//! an `#[expect]` waiver of rule T6 (`disallowed_methods`). It is the one
//! source of wall time in a run's telemetry: the registry's timing
//! section only mirrors its root walls (`Telemetry::finish_phases`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::json::{push_key, push_string, JsonValue};

/// Number of deterministic work columns on each phase node.
pub const WORK_COLS: usize = 6;

/// A deterministic work column charged to the innermost open phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkCol {
    /// Budget-meter ticks (deadline polls / fuel units consumed).
    MeterTicks = 0,
    /// Composite pattern-support evaluations reaching the cache layer.
    Evals = 1,
    /// Search-node expansions (frontier pops, level candidates).
    Pops = 2,
    /// Support-cache hits.
    CacheHits = 3,
    /// Support-cache misses (each pays a log scan).
    CacheMisses = 4,
    /// Supervised retries of faulted operations charged to this phase.
    FaultRetries = 5,
}

/// The JSON key for each column, in enum-index order.
const WORK_KEYS: [&str; WORK_COLS] = [
    "meter_ticks",
    "evals",
    "pops",
    "cache_hits",
    "cache_misses",
    "fault_retries",
];

/// One phase node in a [`ProfileSnapshot`]: name, call count, the
/// deterministic work columns (exclusive — charged while this phase was
/// innermost), inclusive wall-clock, and children in first-open order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Phase name (`"search"`, `"support-eval"`, …).
    pub name: String,
    /// How many times the phase was opened.
    pub calls: u64,
    /// Deterministic work columns, indexed by [`WorkCol`].
    pub work: [u64; WORK_COLS],
    /// Total inclusive wall-clock nanos over all calls (non-deterministic).
    pub wall_nanos: u64,
    /// Fastest single call, nanos (meaningful only when `calls > 0`).
    pub wall_min: u64,
    /// Slowest single call, nanos (meaningful only when `calls > 0`).
    pub wall_max: u64,
    /// Child phases, in first-open order (deterministic under pure caps).
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn named(name: &str) -> Self {
        ProfileNode {
            name: name.to_owned(),
            ..ProfileNode::default()
        }
    }

    /// Exclusive (self) wall nanos: inclusive minus the children's
    /// inclusive total, clamped at zero (children measured on their own
    /// clock reads can nominally exceed the parent by nanoseconds).
    fn self_wall_nanos(&self) -> u64 {
        let children: u64 = self
            .children
            .iter()
            .map(|c| c.wall_nanos)
            .fold(0, u64::saturating_add);
        self.wall_nanos.saturating_sub(children)
    }

    fn merge_from(&mut self, other: &ProfileNode) {
        self.work = std::array::from_fn(|i| self.work[i].saturating_add(other.work[i]));
        self.wall_nanos = self.wall_nanos.saturating_add(other.wall_nanos);
        if other.calls > 0 {
            if self.calls == 0 {
                self.wall_min = other.wall_min;
                self.wall_max = other.wall_max;
            } else {
                self.wall_min = self.wall_min.min(other.wall_min);
                self.wall_max = self.wall_max.max(other.wall_max);
            }
        }
        self.calls = self.calls.saturating_add(other.calls);
        merge_nodes(&mut self.children, &other.children);
    }
}

/// Name-matched recursive merge: `other`'s nodes fold into same-named
/// nodes of `into` (preserving `into`'s order); unseen names append in
/// `other`'s order, so merging is deterministic.
fn merge_nodes(into: &mut Vec<ProfileNode>, other: &[ProfileNode]) {
    for node in other {
        match into.iter_mut().find(|n| n.name == node.name) {
            Some(existing) => existing.merge_from(node),
            None => into.push(node.clone()),
        }
    }
}

/// Shared live-progress surface for the `--progress` heartbeat: the
/// profiler (when a beacon is attached) publishes the currently open
/// phase path and a monotonic count of charged work units; the heartbeat
/// thread reads both and prints a rate. Costs nothing when no beacon is
/// attached.
#[derive(Debug, Default)]
pub struct ProgressBeacon {
    path: Mutex<String>,
    work: AtomicU64,
}

impl ProgressBeacon {
    /// A fresh beacon (empty path, zero work).
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently open phase path (e.g. `"search/support-eval"`) and
    /// the cumulative charged work units.
    pub fn snapshot(&self) -> (String, u64) {
        let path = self
            .path
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        // ordering: Relaxed — a monotonic display-only counter; the
        // heartbeat tolerates reading it a few charges stale, and no
        // other state is published through it.
        (path, self.work.load(Ordering::Relaxed))
    }

    fn set_path(&self, path: &str) {
        let mut guard = self.path.lock().unwrap_or_else(PoisonError::into_inner);
        guard.clear();
        guard.push_str(path);
    }

    fn add_work(&self, n: u64) {
        // ordering: Relaxed — see `snapshot`; only the total ever matters
        // and the fetch_add's atomicity alone keeps it exact.
        self.work.fetch_add(n, Ordering::Relaxed);
    }
}

/// Arena node (profiler-internal; snapshots use [`ProfileNode`]).
#[derive(Clone, Debug)]
struct Node {
    name: String,
    children: Vec<usize>,
    calls: u64,
    work: [u64; WORK_COLS],
    wall_nanos: u64,
    wall_min: u64,
    wall_max: u64,
    /// Epoch-relative open time of the current call (valid while on the
    /// stack).
    open_t0: u64,
}

impl Node {
    fn named(name: &str) -> Self {
        Node {
            name: name.to_owned(),
            children: Vec::new(),
            calls: 0,
            work: [0; WORK_COLS],
            wall_nanos: 0,
            wall_min: 0,
            wall_max: 0,
            open_t0: 0,
        }
    }
}

/// The live phase tree of one run. Owned by [`super::Telemetry`];
/// snapshot with [`PhaseProfiler::finish`] (usually via
/// [`super::Telemetry::finish_phases`], which also mirrors root walls
/// into the registry's timing section).
///
/// Re-opening a name that already exists under the current parent reuses
/// its node (`calls += 1`), so the tree aggregates rather than grows —
/// a million `support-eval` calls are one node.
#[derive(Clone, Debug)]
pub struct PhaseProfiler {
    epoch: Instant,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
    beacon: Option<Arc<ProgressBeacon>>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler {
            #[expect(
                clippy::disallowed_methods,
                reason = "the phase profiler records durations without ever branching on them; they \
                          land in the non-deterministic section of a snapshot"
            )]
            epoch: Instant::now(),
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
            beacon: None,
        }
    }
}

impl PhaseProfiler {
    /// A fresh profiler whose epoch is now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a progress beacon; subsequent opens/closes/charges
    /// publish to it.
    pub fn attach_beacon(&mut self, beacon: Arc<ProgressBeacon>) {
        self.beacon = Some(beacon);
    }

    /// Nanos since the profiler epoch (recording-only).
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens phase `name` under the innermost open phase (or as a root).
    /// Reuses the same-named child if one exists.
    pub fn open(&mut self, name: &str) {
        let siblings = match self.stack.last() {
            Some(&parent) => &self.nodes[parent].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name);
        let idx = match found {
            Some(idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node::named(name));
                match self.stack.last() {
                    Some(&parent) => self.nodes[parent].children.push(idx),
                    None => self.roots.push(idx),
                }
                idx
            }
        };
        let t0 = self.now_nanos();
        let node = &mut self.nodes[idx];
        node.calls = node.calls.saturating_add(1);
        node.open_t0 = t0;
        self.stack.push(idx);
        self.publish_path();
    }

    /// Closes the innermost open phase (no-op when none is open).
    pub fn close(&mut self) {
        let Some(idx) = self.stack.pop() else {
            return;
        };
        let now = self.now_nanos();
        let node = &mut self.nodes[idx];
        let dur = now.saturating_sub(node.open_t0);
        node.wall_nanos = node.wall_nanos.saturating_add(dur);
        if node.calls <= 1 {
            node.wall_min = dur;
            node.wall_max = dur;
        } else {
            node.wall_min = node.wall_min.min(dur);
            node.wall_max = node.wall_max.max(dur);
        }
        self.publish_path();
    }

    /// Closes every open phase (deepest first) — the defensive path for
    /// early returns and exhaustion exits.
    pub fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.close();
        }
    }

    /// Charges `n` units of `col` to the innermost open phase. A no-op
    /// when no phase is open (library users who never open phases pay
    /// nothing and get an empty tree).
    pub fn charge(&mut self, col: WorkCol, n: u64) {
        if let Some(&idx) = self.stack.last() {
            let slot = &mut self.nodes[idx].work[col as usize];
            *slot = slot.saturating_add(n);
            if let Some(beacon) = &self.beacon {
                beacon.add_work(n);
            }
        }
    }

    /// The currently open phase path, `/`-joined (empty when idle).
    pub fn open_path(&self) -> String {
        let names: Vec<&str> = self
            .stack
            .iter()
            .map(|&i| self.nodes[i].name.as_str())
            .collect();
        names.join("/")
    }

    fn publish_path(&self) {
        if let Some(beacon) = &self.beacon {
            beacon.set_path(&self.open_path());
        }
    }

    /// Closes every open phase and returns the snapshot. The profiler
    /// keeps its state (a second `finish` returns the same tree with no
    /// additional wall time).
    pub fn finish(&mut self) -> ProfileSnapshot {
        self.close_all();
        ProfileSnapshot {
            roots: self.roots.iter().map(|&i| self.node_snapshot(i)).collect(),
        }
    }

    fn node_snapshot(&self, idx: usize) -> ProfileNode {
        let node = &self.nodes[idx];
        ProfileNode {
            name: node.name.clone(),
            calls: node.calls,
            work: node.work,
            wall_nanos: node.wall_nanos,
            wall_min: node.wall_min,
            wall_max: node.wall_max,
            children: node
                .children
                .iter()
                .map(|&c| self.node_snapshot(c))
                .collect(),
        }
    }
}

/// Scopes a profiler phase around an expression:
/// `phase!(profiler, "ingest", { … })` opens the phase, evaluates the
/// body, closes the phase, and yields the body's value. The profiler
/// expression must be a place expression (a variable or field access) —
/// it is named twice. An early return (`?`, `return`) inside the body
/// skips the close; [`PhaseProfiler::close_all`] in the finish path
/// repairs the stack, at the cost of that call's wall time extending to
/// the finish.
#[macro_export]
macro_rules! phase {
    ($prof:expr, $name:expr, $body:expr) => {{
        $prof.open($name);
        let __evematch_phase_out = $body;
        $prof.close();
        __evematch_phase_out
    }};
}

/// A finished, mergeable, serializable phase profile.
///
/// Serialized shape (see DESIGN.md §13):
///
/// ```json
/// {"deterministic": {"phases": [{"name": "search", "calls": 1,
///    "work": {"meter_ticks": 9, …}, "children": […]}]},
///  "non_deterministic": {"wall": [{"name": "search", "nanos": 12,
///    "min": 12, "max": 12, "children": […]}]}}
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Root phases in first-open order.
    pub roots: Vec<ProfileNode>,
}

impl ProfileSnapshot {
    /// Whether the snapshot carries no phases at all.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Wall time of the profiled run: its root phases' walls, summed.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.roots.iter().map(|r| r.wall_nanos).sum())
    }

    /// Folds `other` into `self`: same-named phases merge recursively
    /// (work summed, walls summed, min/max combined), unseen phases
    /// append in `other`'s order.
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        merge_nodes(&mut self.roots, &other.roots);
    }

    /// Charges `n` units of `col` to the root phase named `root`
    /// (created if absent) — how the grid supervisor attributes cell
    /// retries to a record computed without a live profiler.
    pub fn charge_root(&mut self, root: &str, col: WorkCol, n: u64) {
        let node = match self.roots.iter_mut().find(|r| r.name == root) {
            Some(node) => node,
            None => {
                self.roots.push(ProfileNode::named(root));
                // Just pushed, so last() is the new node.
                match self.roots.last_mut() {
                    Some(node) => node,
                    None => return,
                }
            }
        };
        node.work[col as usize] = node.work[col as usize].saturating_add(n);
    }

    /// The deterministic section only — byte-identical across reruns
    /// and grid worker counts under pure caps.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::from("{\"phases\":[");
        for (i, root) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_det_node(&mut out, root);
        }
        out.push_str("]}");
        out
    }

    /// The full two-section JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"deterministic\":");
        out.push_str(&self.deterministic_json());
        out.push_str(",\"non_deterministic\":{\"wall\":[");
        for (i, root) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_wall_node(&mut out, root);
        }
        out.push_str("]}}");
        out
    }

    /// Parses a document produced by [`ProfileSnapshot::to_json_string`].
    /// Returns `None` on malformed input.
    pub fn from_json(text: &str) -> Option<ProfileSnapshot> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// Parses an already-parsed JSON value: both sections, every work
    /// column and one wall entry per phase, exactly as
    /// [`ProfileSnapshot::to_json_string`] writes them.
    pub fn from_json_value(v: &JsonValue) -> Option<ProfileSnapshot> {
        let mut roots = Vec::new();
        for node in v.get("deterministic")?.get("phases")?.as_arr()? {
            roots.push(parse_det_node(node)?);
        }
        let walls = v.get("non_deterministic")?.get("wall")?.as_arr()?;
        fill_walls(&mut roots, walls)?;
        Some(ProfileSnapshot { roots })
    }

    /// Flat deterministic work counters, keyed `path/column` (plus
    /// `path/calls`) with `/`-joined phase paths — the shape `xtask
    /// perf` records and diffs.
    pub fn flat_work(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for root in &self.roots {
            flatten_work(root, "", &mut out);
        }
        out
    }

    /// Flat per-phase inclusive wall nanos, keyed by `/`-joined path
    /// (advisory-only in `xtask perf`).
    pub fn flat_wall(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for root in &self.roots {
            flatten_wall(root, "", &mut out);
        }
        out
    }

    /// Chrome `trace_event` JSON (load in `about:tracing` or Perfetto).
    ///
    /// Thread 0 shows the *aggregated* phase tree laid out sequentially
    /// from t=0 (each node one slice of its total inclusive wall;
    /// children packed left-to-right inside the parent) — a profile
    /// view, not a timeline.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        self.chrome_trace_events(1, "evematch", &mut events);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(ev);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Pushes this snapshot's trace events under process id `pid` named
    /// `process_name` — lets a grid export pack one process per method
    /// into a single trace file.
    pub fn chrome_trace_events(&self, pid: u64, process_name: &str, out: &mut Vec<String>) {
        let mut meta = String::from("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        meta.push_str(&pid.to_string());
        meta.push_str(",\"args\":{\"name\":");
        push_string(&mut meta, process_name);
        meta.push_str("}}");
        out.push(meta);
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"phases\"}}}}"
        ));
        let mut t = 0u64;
        for root in &self.roots {
            push_trace_slice(out, pid, 0, root, t);
            t = t.saturating_add(root.wall_nanos);
        }
    }

    /// Folded-stack lines (`a;b;c <self-nanos>`) consumable by
    /// `inferno` / `flamegraph.pl`. Each line's value is the phase's
    /// *exclusive* wall nanos. `prefix` (a method name, or `""`)
    /// becomes the stack root of every line.
    pub fn to_folded(&self, prefix: &str) -> String {
        let mut out = String::new();
        for root in &self.roots {
            push_folded(&mut out, prefix, root);
        }
        out
    }
}

fn push_det_node(out: &mut String, node: &ProfileNode) {
    out.push_str("{\"name\":");
    push_string(out, &node.name);
    out.push_str(&format!(",\"calls\":{},\"work\":{{", node.calls));
    // Alphabetical key order keeps the document canonical regardless of
    // the enum's numbering.
    let mut keys: Vec<usize> = (0..WORK_COLS).collect();
    keys.sort_by_key(|&i| WORK_KEYS[i]);
    for (j, &i) in keys.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        push_key(out, WORK_KEYS[i]);
        out.push_str(&node.work[i].to_string());
    }
    out.push_str("},\"children\":[");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_det_node(out, child);
    }
    out.push_str("]}");
}

fn push_wall_node(out: &mut String, node: &ProfileNode) {
    out.push_str("{\"name\":");
    push_string(out, &node.name);
    out.push_str(&format!(
        ",\"nanos\":{},\"min\":{},\"max\":{},\"children\":[",
        node.wall_nanos, node.wall_min, node.wall_max
    ));
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_wall_node(out, child);
    }
    out.push_str("]}");
}

fn parse_det_node(v: &JsonValue) -> Option<ProfileNode> {
    let mut node = ProfileNode::named(v.get("name")?.as_str()?);
    node.calls = v.get("calls")?.as_u64()?;
    let work = v.get("work")?;
    for (slot, key) in node.work.iter_mut().zip(WORK_KEYS) {
        *slot = work.get(key)?.as_u64()?;
    }
    for child in v.get("children")?.as_arr()? {
        node.children.push(parse_det_node(child)?);
    }
    Some(node)
}

/// Copies wall stats from the parsed `wall` array into the deterministic
/// nodes, which it mirrors position by position.
fn fill_walls(nodes: &mut [ProfileNode], walls: &[JsonValue]) -> Option<()> {
    if nodes.len() != walls.len() {
        return None;
    }
    for (node, wall) in nodes.iter_mut().zip(walls) {
        node.wall_nanos = wall.get("nanos")?.as_u64()?;
        node.wall_min = wall.get("min")?.as_u64()?;
        node.wall_max = wall.get("max")?.as_u64()?;
        fill_walls(&mut node.children, wall.get("children")?.as_arr()?)?;
    }
    Some(())
}

fn flatten_work(node: &ProfileNode, parent: &str, out: &mut BTreeMap<String, u64>) {
    let path = if parent.is_empty() {
        node.name.clone()
    } else {
        format!("{parent}/{}", node.name)
    };
    out.insert(format!("{path}/calls"), node.calls);
    for (key, n) in WORK_KEYS.iter().zip(node.work.iter()) {
        out.insert(format!("{path}/{key}"), *n);
    }
    for child in &node.children {
        flatten_work(child, &path, out);
    }
}

fn flatten_wall(node: &ProfileNode, parent: &str, out: &mut BTreeMap<String, u64>) {
    let path = if parent.is_empty() {
        node.name.clone()
    } else {
        format!("{parent}/{}", node.name)
    };
    out.insert(path.clone(), node.wall_nanos);
    for child in &node.children {
        flatten_wall(child, &path, out);
    }
}

fn push_trace_slice(out: &mut Vec<String>, pid: u64, tid: u64, node: &ProfileNode, t0: u64) {
    let mut ev = String::from("{\"name\":");
    push_string(&mut ev, &node.name);
    ev.push_str(&format!(
        ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"calls\":{}",
        t0 / 1000,
        node.wall_nanos / 1000,
        node.calls
    ));
    for (key, n) in WORK_KEYS.iter().zip(node.work.iter()) {
        if *n > 0 {
            ev.push_str(&format!(",\"{key}\":{n}"));
        }
    }
    ev.push_str("}}");
    out.push(ev);
    let mut t = t0;
    for child in &node.children {
        push_trace_slice(out, pid, tid, child, t);
        t = t.saturating_add(child.wall_nanos);
    }
}

fn push_folded(out: &mut String, prefix: &str, node: &ProfileNode) {
    let stack = if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix};{}", node.name)
    };
    out.push_str(&format!("{stack} {}\n", node.self_wall_nanos()));
    for child in &node.children {
        push_folded(out, &stack, child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileSnapshot {
        let mut p = PhaseProfiler::new();
        p.open("search");
        p.charge(WorkCol::Pops, 3);
        p.open("support-eval");
        p.charge(WorkCol::Evals, 5);
        p.charge(WorkCol::CacheMisses, 2);
        p.close();
        p.open("support-eval");
        p.charge(WorkCol::Evals, 1);
        p.close();
        p.charge(WorkCol::CacheHits, 4);
        p.close();
        p.finish()
    }

    #[test]
    fn tree_aggregates_and_attributes_to_innermost() {
        let snap = sample();
        assert_eq!(snap.roots.len(), 1);
        let search = &snap.roots[0];
        assert_eq!(search.name, "search");
        assert_eq!(search.calls, 1);
        assert_eq!(search.work[WorkCol::Pops as usize], 3);
        assert_eq!(search.work[WorkCol::CacheHits as usize], 4);
        // Two opens of the same child reuse one aggregating node.
        assert_eq!(search.children.len(), 1);
        let se = &search.children[0];
        assert_eq!(se.calls, 2);
        assert_eq!(se.work[WorkCol::Evals as usize], 6);
        assert_eq!(se.work[WorkCol::CacheMisses as usize], 2);
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let parsed = ProfileSnapshot::from_json(&snap.to_json_string()).expect("parses");
        assert_eq!(parsed, snap);
        // Shapes this build does not write are rejected, not defaulted:
        // the deterministic section alone, or a phase missing a column.
        let det_doc = format!("{{\"deterministic\":{}}}", snap.deterministic_json());
        let no_pops = snap.to_json_string().replacen(",\"pops\":3", "", 1);
        assert_ne!(no_pops, snap.to_json_string());
        for old in [det_doc, no_pops] {
            assert_eq!(ProfileSnapshot::from_json(&old), None, "{old}");
        }
    }

    #[test]
    fn deterministic_json_excludes_wall_clock() {
        let det = sample().deterministic_json();
        assert!(!det.contains("nanos"), "wall leaked: {det}");
        assert!(det.contains("\"evals\":6"), "work missing: {det}");
    }

    #[test]
    fn merge_sums_work_and_combines_extremes() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.roots[0].calls, 2);
        assert_eq!(a.roots[0].work[WorkCol::Pops as usize], 6);
        assert_eq!(a.roots[0].children[0].work[WorkCol::Evals as usize], 12);
        let min = a.roots[0].wall_min;
        let max = a.roots[0].wall_max;
        assert!(min <= max);
    }

    #[test]
    fn merge_appends_unseen_phases_in_order() {
        let mut a = ProfileSnapshot::default();
        a.charge_root("ingest", WorkCol::FaultRetries, 1);
        let mut b = ProfileSnapshot::default();
        b.charge_root("search", WorkCol::Pops, 2);
        a.merge(&b);
        let names: Vec<&str> = a.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["ingest", "search"]);
    }

    #[test]
    fn close_all_repairs_a_dangling_stack() {
        let mut p = PhaseProfiler::new();
        p.open("a");
        p.open("b");
        p.open("c");
        let snap = p.finish();
        assert_eq!(snap.roots.len(), 1);
        assert_eq!(snap.roots[0].children[0].children[0].name, "c");
        assert_eq!(p.open_path(), "");
    }

    #[test]
    fn charges_without_an_open_phase_are_dropped() {
        let mut p = PhaseProfiler::new();
        p.charge(WorkCol::Evals, 7);
        assert!(p.finish().is_empty());
    }

    #[test]
    fn chrome_trace_parses_and_covers_phases() {
        let trace = sample().to_chrome_trace();
        let doc = JsonValue::parse(&trace).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        let slices: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        // One slice per phase node: search and its support-eval child.
        assert_eq!(slices.len(), 2);
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M")));
        assert!(slices.iter().any(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("support-eval")
                && e.get("args")
                    .and_then(|a| a.get("evals"))
                    .and_then(JsonValue::as_u64)
                    == Some(6)
        }));
    }

    #[test]
    fn folded_stacks_use_exclusive_time() {
        let mut snap = sample();
        // Pin walls so the exclusive arithmetic is checkable.
        snap.roots[0].wall_nanos = 100;
        snap.roots[0].children[0].wall_nanos = 30;
        let folded = snap.to_folded("Exact");
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"Exact;search 70"), "{folded}");
        assert!(lines.contains(&"Exact;search;support-eval 30"), "{folded}");
        assert_eq!(lines.len(), 2, "{folded}");
    }

    #[test]
    fn flat_work_keys_are_slash_paths() {
        let flat = sample().flat_work();
        assert_eq!(flat["search/pops"], 3);
        assert_eq!(flat["search/support-eval/evals"], 6);
        assert_eq!(flat["search/support-eval/calls"], 2);
        let wall = sample().flat_wall();
        let keys: Vec<&str> = wall.keys().map(String::as_str).collect();
        assert_eq!(keys, ["search", "search/support-eval"]);
    }

    #[test]
    fn beacon_publishes_path_and_work() {
        let beacon = Arc::new(ProgressBeacon::new());
        let mut p = PhaseProfiler::new();
        p.attach_beacon(beacon.clone());
        p.open("search");
        p.open("support-eval");
        p.charge(WorkCol::Evals, 3);
        let (path, work) = beacon.snapshot();
        assert_eq!(path, "search/support-eval");
        assert_eq!(work, 3);
        p.close_all();
        let (path, _) = beacon.snapshot();
        assert_eq!(path, "");
    }

    #[test]
    fn phase_macro_scopes_and_yields() {
        let mut p = PhaseProfiler::new();
        let v = crate::phase!(p, "ingest", {
            p.charge(WorkCol::MeterTicks, 1);
            42
        });
        assert_eq!(v, 42);
        let snap = p.finish();
        assert_eq!(snap.roots[0].name, "ingest");
        assert_eq!(snap.roots[0].work[WorkCol::MeterTicks as usize], 1);
    }
}
