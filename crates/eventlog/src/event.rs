//! Events and the interned event vocabulary.

use std::fmt;

/// A dense identifier for an event within one log's vocabulary.
///
/// Event names are *opaque* in this problem setting (the whole point of
/// uninterpreted matching is that `Ship Goods` in one log and `FH` in the
/// other carry no usable lexical signal), so all algorithms operate on these
/// dense ids; the [`EventSet`] keeps the id ↔ name mapping purely for
/// presentation and I/O.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u32);

impl EventId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for EventId {
    fn from(v: u32) -> Self {
        EventId(v)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The interned vocabulary of one event log: a bijection between event names
/// and dense [`EventId`]s, in insertion order.
///
/// Equality and `Debug` read only `names`, the id → name side. The name →
/// id side is a lookup-only hash index: nothing iterates it, so its
/// per-process seed never reaches an id, an output or a comparison.
#[derive(Clone, Default)]
pub struct EventSet {
    names: Vec<String>,
    /// Name → id, so [`Self::lookup`] and [`Self::intern`] are one probe
    /// each. Every name crossing the I/O boundary pays one, and a hashed
    /// probe costs a third of an ordered walk over string keys. The
    /// default per-process `RandomState` keys the table, so no crafted
    /// vocabulary can force collisions and make ingest quadratic.
    #[expect(
        clippy::disallowed_types,
        reason = "point lookups only: nothing iterates the map, and ids come from insertion order"
    )]
    by_name: std::collections::HashMap<Box<str>, EventId>,
}

impl PartialEq for EventSet {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for EventSet {}

impl fmt::Debug for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSet")
            .field("names", &self.names)
            .finish_non_exhaustive()
    }
}

impl EventSet {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a vocabulary from names, in order. Duplicate names are
    /// collapsed to their first occurrence.
    pub fn from_names<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> Self {
        let mut set = Self::new();
        for n in names {
            set.intern(n.as_ref());
        }
        set
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> EventId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let id = EventId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.into(), id);
        id
    }

    /// Returns the id for `name` if already interned.
    pub fn lookup(&self, name: &str) -> Option<EventId> {
        self.by_name.get(name).copied()
    }

    /// The name of event `id`. Panics if out of range.
    pub fn name(&self, id: EventId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct events.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All event ids, in interning order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = EventId> + '_ {
        (0..self.names.len() as u32).map(EventId)
    }

    /// All names, in interning order.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.names.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Up to 300 names: the empty name, multi-byte UTF-8, names sharing
    /// the prefix `X` (`X000`–`X999`, and `X` itself), and repeats of
    /// earlier names.
    fn random_names(rng: &mut StdRng) -> Vec<String> {
        const WIDE: [&str; 5] = ["é", "事件", "🚚", "Größe", "ق"];
        let mut names: Vec<String> = Vec::new();
        for _ in 0..rng.gen_range(0..=300usize) {
            let name = match rng.gen_range(0..5u32) {
                0 => String::new(),
                1 => format!("X{:03}", rng.gen_range(0..1000u32)),
                2 => "X".repeat(rng.gen_range(1..=3usize)),
                3 => {
                    let wide = WIDE[rng.gen_range(0..WIDE.len())];
                    format!("{wide}{}", rng.gen_range(0..4u32))
                }
                _ if !names.is_empty() => names[rng.gen_range(0..names.len())].clone(),
                _ => "X000".to_owned(),
            };
            names.push(name);
        }
        names
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn intern_and_lookup_agree_with_an_ordered_oracle(seed in 0u64..u64::MAX) {
            let names = random_names(&mut StdRng::seed_from_u64(seed));
            let mut oracle: BTreeMap<&str, EventId> = BTreeMap::new();
            let mut order: Vec<&str> = Vec::new();
            let mut set = EventSet::new();
            for name in &names {
                let next = EventId(oracle.len() as u32);
                let want = *oracle.entry(name).or_insert_with(|| {
                    order.push(name);
                    next
                });
                prop_assert_eq!(set.intern(name), want);
            }
            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.names().collect::<Vec<_>>(), order);
            for (name, &id) in &oracle {
                prop_assert_eq!(set.lookup(name), Some(id));
                prop_assert_eq!(set.name(id), *name);
            }
            prop_assert_eq!(set.lookup("X1000"), None);
            prop_assert_eq!(set.lookup("事"), None);
            let again = EventSet::from_names(&names);
            prop_assert_eq!(&again, &set);
            prop_assert_eq!(format!("{again:?}"), format!("{set:?}"));
        }
    }

    #[test]
    fn equality_and_debug_read_the_names_in_order() {
        let ab = EventSet::from_names(["A", "B"]);
        let ba = EventSet::from_names(["B", "A"]);
        assert_ne!(ab, ba);
        assert_eq!(ab, ab.clone());
        assert_eq!(format!("{ab:?}"), r#"EventSet { names: ["A", "B"], .. }"#);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut s = EventSet::new();
        let a = s.intern("A");
        let b = s.intern("B");
        assert_eq!(s.intern("A"), a);
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lookup_and_name_roundtrip() {
        let s = EventSet::from_names(["Payment", "Check Inventory", "Ship Goods"]);
        let id = s.lookup("Check Inventory").unwrap();
        assert_eq!(s.name(id), "Check Inventory");
        assert_eq!(id, EventId(1));
        assert!(s.lookup("FH").is_none());
    }

    #[test]
    fn from_names_collapses_duplicates() {
        let s = EventSet::from_names(["A", "B", "A"]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ids_enumerate_in_order() {
        let s = EventSet::from_names(["x", "y"]);
        let ids: Vec<_> = s.ids().collect();
        assert_eq!(ids, vec![EventId(0), EventId(1)]);
        let names: Vec<_> = s.names().collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(EventId(7).to_string(), "e7");
    }
}
