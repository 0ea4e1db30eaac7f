//! Events and the interned event vocabulary.

use std::collections::BTreeMap;
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventSet {
    names: Vec<String>,
    /// Name → id, so [`Self::lookup`] and [`Self::intern`] are one probe
    /// each. Ordered (not hashed), so nothing here depends on a hash seed.
    by_name: BTreeMap<String, EventId>,
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
        self.by_name.insert(name.to_owned(), id);
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
