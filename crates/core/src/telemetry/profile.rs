//! Hierarchical phase profiler: where a solver's time goes.
//!
//! The flat registry answers "how much work happened"; this module
//! answers "in which phase". A [`PhaseProfiler`] maintains a tree of
//! named phases (`ingest → index → search → support-eval → emit`, nested
//! arbitrarily) opened and closed with [`PhaseProfiler::open`] /
//! [`PhaseProfiler::close`] or the [`phase!`](crate::phase!) macro. Each
//! node carries two strictly separated kinds of data, mirroring the
//! registry's split (DESIGN.md §8):
//!
//! * **deterministic** — the call count, plus `pops`: the solver's step
//!   count, which the evaluator copies from the registry onto the
//!   `search` root when the run finishes (every other node reads 0).
//!   Under pure caps both are pure functions of the work performed, so
//!   [`ProfileSnapshot::deterministic_json`] is byte-identical across
//!   reruns and grid worker counts;
//! * **non-deterministic** — per-phase inclusive wall nanos.
//!
//! The profile counts no unit of work itself: the registry is the one
//! count of every unit, and a phase's `calls` is the only number the
//! profile adds (the `support-eval` phase's equals `eval.cache_misses`).
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
//! record of wall time in a run's telemetry: the metrics registry holds
//! none.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::json::{push_string, JsonValue};

/// One phase node in a [`ProfileSnapshot`]: name, call count, step count,
/// inclusive wall-clock, and children in first-open order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Phase name (`"search"`, `"support-eval"`, …).
    pub name: String,
    /// How many times the phase was opened.
    pub calls: u64,
    /// The solver's step count (`search.pops`, `km.rounds`, …), copied
    /// from the registry onto the `search` root; 0 on every other phase.
    pub pops: u64,
    /// Total inclusive wall-clock nanos over all calls (non-deterministic).
    pub wall_nanos: u64,
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
        self.calls = self.calls.saturating_add(other.calls);
        self.pops = self.pops.saturating_add(other.pops);
        self.wall_nanos = self.wall_nanos.saturating_add(other.wall_nanos);
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
/// phase path, and the solver's evaluator a monotonic count of its steps;
/// the heartbeat thread reads both and prints a rate. Costs nothing when
/// no beacon is attached.
#[derive(Debug, Default)]
pub struct ProgressBeacon {
    path: Mutex<String>,
    steps: AtomicU64,
}

impl ProgressBeacon {
    /// A fresh beacon (empty path, zero steps).
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently open phase path (e.g. `"search/support-eval"`) and
    /// the cumulative solver steps.
    pub fn snapshot(&self) -> (String, u64) {
        let path = self
            .path
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        // ordering: Relaxed — a monotonic display-only counter; the
        // heartbeat tolerates reading it a few steps stale, and no other
        // state is published through it.
        (path, self.steps.load(Ordering::Relaxed))
    }

    fn set_path(&self, path: &str) {
        let mut guard = self.path.lock().unwrap_or_else(PoisonError::into_inner);
        guard.clear();
        guard.push_str(path);
    }

    /// Adds `n` solver steps (see `Evaluator::step`).
    pub(crate) fn add_steps(&self, n: u64) {
        // ordering: Relaxed — see `snapshot`; only the total ever matters
        // and the fetch_add's atomicity alone keeps it exact.
        self.steps.fetch_add(n, Ordering::Relaxed);
    }
}

/// Arena node (profiler-internal; snapshots use [`ProfileNode`]).
#[derive(Clone, Debug)]
struct Node {
    name: String,
    children: Vec<usize>,
    calls: u64,
    wall_nanos: u64,
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
            wall_nanos: 0,
            open_t0: 0,
        }
    }
}

/// The live phase tree of one run. Owned by [`super::Telemetry`];
/// snapshot with [`PhaseProfiler::finish`].
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

    /// Attaches a progress beacon; subsequent opens and closes publish
    /// the open phase path to it.
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
        node.wall_nanos = node
            .wall_nanos
            .saturating_add(now.saturating_sub(node.open_t0));
        self.publish_path();
    }

    /// Closes every open phase (deepest first) — the defensive path for
    /// early returns and exhaustion exits.
    pub fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.close();
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
            pops: 0,
            wall_nanos: node.wall_nanos,
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
///    "pops": 9, "children": […]}]},
///  "non_deterministic": {"wall": [{"name": "search", "nanos": 12,
///    "children": […]}]}}
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
    /// (calls, pops and walls summed), unseen phases append in `other`'s
    /// order.
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        merge_nodes(&mut self.roots, &other.roots);
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

    /// Parses an already-parsed JSON value: both sections, each phase's
    /// `calls` and `pops` and one wall entry per phase, exactly as
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

    /// Flat deterministic counts, keyed `path/calls` and `path/pops` with
    /// `/`-joined phase paths — the shape `xtask perf` records and diffs.
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
    out.push_str(&format!(
        ",\"calls\":{},\"pops\":{},\"children\":[",
        node.calls, node.pops
    ));
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
    out.push_str(&format!(",\"nanos\":{},\"children\":[", node.wall_nanos));
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
    node.pops = v.get("pops")?.as_u64()?;
    for child in v.get("children")?.as_arr()? {
        node.children.push(parse_det_node(child)?);
    }
    Some(node)
}

/// Copies wall nanos from the parsed `wall` array into the deterministic
/// nodes, which it mirrors position by position.
fn fill_walls(nodes: &mut [ProfileNode], walls: &[JsonValue]) -> Option<()> {
    if nodes.len() != walls.len() {
        return None;
    }
    for (node, wall) in nodes.iter_mut().zip(walls) {
        node.wall_nanos = wall.get("nanos")?.as_u64()?;
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
    out.insert(format!("{path}/pops"), node.pops);
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
        ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"calls\":{},\"pops\":{}}}}}",
        t0 / 1000,
        node.wall_nanos / 1000,
        node.calls,
        node.pops
    ));
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

    /// `search` (3 pops, as the evaluator copies them) with two calls of
    /// one `support-eval` child.
    fn sample() -> ProfileSnapshot {
        let mut p = PhaseProfiler::new();
        p.open("search");
        p.open("support-eval");
        p.close();
        p.open("support-eval");
        p.close();
        p.close();
        let mut snap = p.finish();
        snap.roots[0].pops = 3;
        snap
    }

    #[test]
    fn tree_aggregates_reopened_phases() {
        let snap = sample();
        assert_eq!(snap.roots.len(), 1);
        let search = &snap.roots[0];
        assert_eq!((search.name.as_str(), search.calls), ("search", 1));
        // Two opens of the same child reuse one aggregating node.
        assert_eq!(search.children.len(), 1);
        let se = &search.children[0];
        assert_eq!((se.calls, se.pops), (2, 0));
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let parsed = ProfileSnapshot::from_json(&snap.to_json_string()).expect("parses");
        assert_eq!(parsed, snap);
        // Shapes this build does not write are rejected, not defaulted:
        // the deterministic section alone, or a phase missing `pops`.
        let det_doc = format!("{{\"deterministic\":{}}}", snap.deterministic_json());
        let no_pops = snap.to_json_string().replacen(",\"pops\":3", "", 1);
        assert_ne!(no_pops, snap.to_json_string());
        for old in [det_doc, no_pops] {
            assert_eq!(ProfileSnapshot::from_json(&old), None, "{old}");
        }
    }

    #[test]
    fn deterministic_json_excludes_wall_clock() {
        // Each node is its name, calls, pops and children, and nothing else.
        let det = sample().deterministic_json();
        assert_eq!(
            det,
            "{\"phases\":[{\"name\":\"search\",\"calls\":1,\"pops\":3,\"children\":[\
             {\"name\":\"support-eval\",\"calls\":2,\"pops\":0,\"children\":[]}]}]}"
        );
    }

    #[test]
    fn merge_sums_calls_pops_and_walls() {
        let mut a = sample();
        a.roots[0].wall_nanos = 10;
        let mut b = sample();
        b.roots[0].wall_nanos = 5;
        a.merge(&b);
        let search = &a.roots[0];
        assert_eq!((search.calls, search.pops, search.wall_nanos), (2, 6, 15));
        assert_eq!(search.children[0].calls, 4);
    }

    #[test]
    fn merge_appends_unseen_phases_in_order() {
        let root = |name: &str| {
            let mut p = PhaseProfiler::new();
            crate::phase!(p, name, ());
            p.finish()
        };
        let mut a = root("ingest");
        a.merge(&root("search"));
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
        let arg = |name: &str, key: &str| {
            slices
                .iter()
                .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
                .and_then(|e| e.get("args")?.get(key)?.as_u64())
        };
        assert_eq!(arg("search", "pops"), Some(3));
        assert_eq!(arg("support-eval", "calls"), Some(2));
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
        let keys: Vec<(&str, u64)> = flat.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        assert_eq!(
            keys,
            [
                ("search/calls", 1),
                ("search/pops", 3),
                ("search/support-eval/calls", 2),
                ("search/support-eval/pops", 0),
            ]
        );
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
        beacon.add_steps(3);
        assert_eq!(beacon.snapshot(), ("search/support-eval".to_owned(), 3));
        p.close_all();
        assert_eq!(beacon.snapshot(), (String::new(), 3));
    }

    #[test]
    fn phase_macro_scopes_and_yields() {
        let mut p = PhaseProfiler::new();
        let v = crate::phase!(p, "ingest", 42);
        assert_eq!(v, 42);
        let snap = p.finish();
        assert_eq!(
            (snap.roots[0].name.as_str(), snap.roots[0].calls),
            ("ingest", 1)
        );
    }
}
