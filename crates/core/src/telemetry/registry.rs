//! The metrics registry: named counters, gauges and histograms.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::hist::{Histogram, HistogramSnapshot};
use super::json;

/// Handle to a registered counter (index into the registry's slot table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named metrics.
///
/// Registration (`counter` / `gauge` / `histogram`) is get-or-create by
/// name and returns a cheap `Copy` handle; the hot-path mutators (`inc`,
/// `add`, `gauge_max`, `observe`) are O(1) slot updates. Every metric kind
/// is **deterministic**: its value depends only on the work performed,
/// never on the clock. Wall time lives in the phase profile alone — see
/// the module docs.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_owned(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        if let Some((_, v)) = self.counters.get_mut(id.0) {
            *v = v.saturating_add(n);
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters.get(id.0).map_or(0, |(_, v)| *v)
    }

    /// One-shot increment by name (cold paths only; prefer handles in
    /// loops).
    pub fn add_named(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.add(id, n);
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_owned(), 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Raises a gauge to `v` if `v` exceeds its current value (high-water
    /// mark semantics — the merge of two snapshots takes the max, so this
    /// is the only gauge mode that aggregates coherently).
    pub fn gauge_max(&mut self, id: GaugeId, v: u64) {
        if let Some((_, g)) = self.gauges.get_mut(id.0) {
            *g = (*g).max(v);
        }
    }

    /// Registers (or finds) the histogram `name` with the given bucket
    /// bounds (see [`HistogramSnapshot`] for the bucket layout). Bounds are
    /// only used on first registration.
    pub fn histogram(&mut self, name: &str, bounds: &[u64]) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms
            .push((name.to_owned(), Histogram::new(bounds)));
        HistogramId(self.histograms.len() - 1)
    }

    /// Records one histogram observation.
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        if let Some((_, h)) = self.histograms.get_mut(id.0) {
            h.observe(v);
        }
    }

    /// Freezes the registry into a snapshot (sorted by metric name).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().cloned().collect(),
            gauges: self.gauges.iter().cloned().collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
            info: BTreeMap::new(),
        }
    }
}

/// A frozen view of a [`MetricsRegistry`], split into the deterministic
/// half (counters, gauges, histograms) and the non-deterministic half
/// (execution-shape info).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone work counters.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Execution-shape facts — how the work was done, not what it
    /// computed — e.g. `matcher.fallback.state_budget`, which records
    /// which decider a scan used. Kept out of the deterministic section,
    /// and merged additively like counters.
    pub info: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Sets (or overwrites) one counter. Used to fold externally-metered
    /// values — e.g. the budget meter's poll count — into a snapshot.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_owned(), v);
    }

    /// Sets (or overwrites) one non-deterministic info value (see the
    /// `info` field).
    pub fn set_info(&mut self, name: &str, v: u64) {
        self.info.insert(name.to_owned(), v);
    }

    /// Sets (or raises) one gauge.
    pub fn set_gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_owned()).or_insert(0);
        *g = (*g).max(v);
    }

    /// Merges `other` into `self`: counters and info add, gauges take the
    /// max, histograms add bucket-wise (when bounds agree).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            let c = self.counters.entry(name.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            self.set_gauge_max(name, *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, v) in &other.info {
            let slot = self.info.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
    }

    /// The deterministic section only, as canonical JSON: keys sorted,
    /// no whitespace, no info. Two runs under identical pure caps
    /// produce byte-identical output (enforced by `tests/determinism.rs`).
    pub fn deterministic_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "counters");
        json::push_counters(&mut out, &self.counters);
        out.push(',');
        json::push_key(&mut out, "gauges");
        json::push_counters(&mut out, &self.gauges);
        out.push(',');
        json::push_key(&mut out, "histograms");
        out.push('{');
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push('{');
            json::push_key(&mut out, "bounds");
            push_u64_list(&mut out, &h.bounds);
            out.push(',');
            json::push_key(&mut out, "buckets");
            push_u64_list(&mut out, &h.buckets);
            out.push('}');
        }
        out.push('}');
        out.push('}');
        out
    }

    /// The whole snapshot as JSON: the deterministic section under
    /// `"deterministic"` and execution-shape facts under
    /// `"non_deterministic"."info"`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "deterministic");
        out.push_str(&self.deterministic_json());
        out.push(',');
        json::push_key(&mut out, "non_deterministic");
        out.push('{');
        json::push_key(&mut out, "info");
        json::push_counters(&mut out, &self.info);
        out.push_str("}}");
        out
    }

    /// Parses a snapshot previously rendered by [`Self::to_json_string`].
    ///
    /// Returns `None` on malformed input — a torn line, or any shape this
    /// build does not write — so callers can skip bad records instead of
    /// failing.
    pub fn from_json(text: &str) -> Option<MetricsSnapshot> {
        Self::from_json_value(&json::JsonValue::parse(text)?)
    }

    /// Like [`Self::from_json`], from an already-parsed [`json::JsonValue`]
    /// (e.g. one field of a larger journal entry).
    pub fn from_json_value(v: &json::JsonValue) -> Option<MetricsSnapshot> {
        let det = v.get("deterministic")?;
        let mut snap = MetricsSnapshot {
            counters: json_u64_map(det.get("counters")?)?,
            gauges: json_u64_map(det.get("gauges")?)?,
            ..MetricsSnapshot::default()
        };
        let json::JsonValue::Obj(hists) = det.get("histograms")? else {
            return None;
        };
        for (name, h) in hists {
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds: json_u64_list(h.get("bounds")?)?,
                    buckets: json_u64_list(h.get("buckets")?)?,
                },
            );
        }
        snap.info = json_u64_map(v.get("non_deterministic")?.get("info")?)?;
        Some(snap)
    }
}

fn json_u64_map(v: &json::JsonValue) -> Option<BTreeMap<String, u64>> {
    let json::JsonValue::Obj(fields) = v else {
        return None;
    };
    let mut out = BTreeMap::new();
    for (k, val) in fields {
        out.insert(k.clone(), val.as_u64()?);
    }
    Some(out)
}

fn json_u64_list(v: &json::JsonValue) -> Option<Vec<u64>> {
    v.as_arr()?.iter().map(json::JsonValue::as_u64).collect()
}

fn push_u64_list(out: &mut String, xs: &[u64]) {
    out.push('[');
    for (i, v) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::json::JsonValue;

    #[test]
    fn counters_register_once_and_accumulate() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x.pops");
        let b = reg.counter("x.pops");
        assert_eq!(a, b);
        reg.inc(a);
        reg.add(b, 4);
        assert_eq!(reg.counter_value(a), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x.pops"], 5);
    }

    #[test]
    fn gauges_keep_the_high_water_mark() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("frontier");
        reg.gauge_max(g, 10);
        reg.gauge_max(g, 3);
        assert_eq!(reg.snapshot().gauges["frontier"], 10);
    }

    #[test]
    fn snapshot_json_is_canonical_and_parseable() {
        let mut reg = MetricsRegistry::new();
        reg.add_named("b", 2);
        reg.add_named("a", 1);
        let h = reg.histogram("depth", &[1, 4]);
        reg.observe(h, 2);
        let snap = reg.snapshot();
        let det = snap.deterministic_json();
        // Keys come out sorted regardless of registration order.
        assert!(det.find("\"a\"").unwrap() < det.find("\"b\"").unwrap());
        let full = JsonValue::parse(&snap.to_json_string()).unwrap();
        let counters = full.get("deterministic").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("a").unwrap().as_u64(), Some(1));
        // The registry records no wall time: `info` is the whole
        // non-deterministic section.
        let non_det = full.get("non_deterministic").unwrap().as_obj().unwrap();
        let keys: Vec<&str> = non_det.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["info"]);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsSnapshot::default();
        a.set_counter("n", 2);
        a.set_gauge_max("g", 5);
        let mut b = MetricsSnapshot::default();
        b.set_counter("n", 3);
        b.set_counter("m", 1);
        b.set_gauge_max("g", 4);
        a.merge(&b);
        assert_eq!(a.counters["n"], 5);
        assert_eq!(a.counters["m"], 1);
        assert_eq!(a.gauges["g"], 5);
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let mut reg = MetricsRegistry::new();
        reg.add_named("search.pops", 42);
        reg.add_named("ingest.quarantined.short_row", u64::MAX);
        let g = reg.gauge("frontier");
        reg.gauge_max(g, 7);
        let h = reg.histogram("depth", &[1, 4, 9]);
        reg.observe(h, 0);
        reg.observe(h, 5);
        let mut snap = reg.snapshot();
        snap.set_info("matcher.fallback.binding", 3);
        let back = MetricsSnapshot::from_json(&snap.to_json_string()).unwrap();
        assert_eq!(back, snap);
        // And the re-rendered JSON is byte-identical.
        assert_eq!(back.to_json_string(), snap.to_json_string());
    }

    #[test]
    fn from_json_rejects_torn_or_malformed_input() {
        let mut reg = MetricsRegistry::new();
        reg.add_named("x", 1);
        let full = reg.snapshot().to_json_string();
        for cut in [1, full.len() / 2, full.len() - 1] {
            assert!(
                MetricsSnapshot::from_json(&full[..cut]).is_none(),
                "truncation at {cut} should not parse"
            );
        }
        assert!(MetricsSnapshot::from_json("{}").is_none());
        assert!(MetricsSnapshot::from_json("not json").is_none());
        // A shape this build does not write (no `info` section) is
        // rejected, not defaulted.
        assert!(MetricsSnapshot::from_json(&full).is_some());
        let old = full.replace("\"info\":{}", "");
        assert_ne!(old, full);
        assert!(MetricsSnapshot::from_json(&old).is_none(), "{old}");
    }

    #[test]
    fn info_section_round_trips_merges_and_stays_non_deterministic() {
        let mut a = MetricsSnapshot::default();
        a.set_counter("n", 1);
        a.set_info("matcher.fallback.binding", 7);
        a.set_info("matcher.fallback.state_budget", 2);
        let det = a.deterministic_json();
        assert!(
            !det.contains("matcher"),
            "info leaked into the deterministic section: {det}"
        );
        let full = a.to_json_string();
        let parsed = JsonValue::parse(&full).unwrap();
        assert_eq!(
            parsed
                .get("non_deterministic")
                .unwrap()
                .get("info")
                .unwrap()
                .get("matcher.fallback.binding")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        let back = MetricsSnapshot::from_json(&full).unwrap();
        assert_eq!(back, a);
        let mut b = MetricsSnapshot::default();
        b.set_info("matcher.fallback.binding", 3);
        a.merge(&b);
        assert_eq!(a.info["matcher.fallback.binding"], 10);
        assert_eq!(a.info["matcher.fallback.state_budget"], 2);
    }

    #[test]
    fn merge_sums_histograms() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("d", &[2]);
        reg.observe(h, 1);
        let mut a = reg.snapshot();
        let mut reg2 = MetricsRegistry::new();
        let h2 = reg2.histogram("d", &[2]);
        reg2.observe(h2, 3);
        a.merge(&reg2.snapshot());
        assert_eq!(a.histograms["d"].buckets, vec![1, 1]);
    }
}
