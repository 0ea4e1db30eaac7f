//! The SEQ/AND pattern AST (Definition 3).

use std::fmt;

use evematch_eventlog::{EventId, EventSet};

/// A composite event pattern.
///
/// Invariants, established at construction and relied on everywhere else:
///
/// * operators have at least two children (singleton `SEQ`/`AND` are
///   collapsed to their child by the smart constructors);
/// * the events of a pattern are pairwise distinct (the paper forbids
///   duplicates because distinct patterns could otherwise share a graph
///   form, e.g. `SEQ(A,B,A,B)` vs `AND(A,B)`).
///
/// Build patterns with [`Pattern::event`], [`Pattern::seq`] and
/// [`Pattern::and`], or parse them with
/// [`parse_pattern`](crate::parse_pattern).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pattern {
    /// A single event.
    Event(EventId),
    /// Sub-patterns occurring sequentially, in the given order.
    Seq(Vec<Pattern>),
    /// Sub-patterns occurring as contiguous blocks in any order.
    And(Vec<Pattern>),
}

/// Maximum nesting depth of a pattern built through the smart
/// constructors. Bounds every recursive traversal of the AST
/// (`initials`, `finals`, `map_events`, matching, graph-form
/// construction) so a hostile pattern can never overflow the stack.
pub const MAX_DEPTH: usize = 256;

/// Maximum number of direct children of an `AND` operator. This
/// formalizes the matcher's realization invariant: `AND` blocks are
/// tracked with a 32-bit mask, so arity beyond 32 was previously only a
/// `debug_assert`.
pub const MAX_AND_ARITY: usize = 32;

/// Errors from the smart constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternError {
    /// An operator was given no children.
    EmptyOperator,
    /// The same event appears more than once within the pattern.
    DuplicateEvent(EventId),
    /// The pattern nests deeper than [`MAX_DEPTH`].
    NestingTooDeep {
        /// Depth the pattern would have had.
        depth: usize,
    },
    /// An `AND` operator has more than [`MAX_AND_ARITY`] children.
    TooManyChildren {
        /// Children found.
        found: usize,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::EmptyOperator => write!(f, "SEQ/AND requires at least one child"),
            PatternError::DuplicateEvent(e) => {
                write!(f, "event {e} occurs more than once in the pattern")
            }
            PatternError::NestingTooDeep { depth } => {
                write!(f, "pattern nests {depth} levels deep (max {MAX_DEPTH})")
            }
            PatternError::TooManyChildren { found } => {
                write!(f, "AND has {found} children (max {MAX_AND_ARITY})")
            }
        }
    }
}

impl std::error::Error for PatternError {}

impl Pattern {
    /// The single-event pattern.
    pub fn event(e: impl Into<EventId>) -> Pattern {
        Pattern::Event(e.into())
    }

    /// `SEQ(children…)`. Collapses a singleton; rejects empty operators and
    /// duplicated events.
    pub fn seq(children: Vec<Pattern>) -> Result<Pattern, PatternError> {
        Self::operator(children, Pattern::Seq)
    }

    /// `AND(children…)`. Collapses a singleton; rejects empty operators and
    /// duplicated events.
    pub fn and(children: Vec<Pattern>) -> Result<Pattern, PatternError> {
        Self::operator(children, Pattern::And)
    }

    fn operator(
        mut children: Vec<Pattern>,
        make: fn(Vec<Pattern>) -> Pattern,
    ) -> Result<Pattern, PatternError> {
        match children.pop() {
            None => Err(PatternError::EmptyOperator),
            // Singleton operators collapse to their only child.
            Some(only) if children.is_empty() => Ok(only),
            Some(last) => {
                children.push(last);
                let p = make(children);
                if let Pattern::And(ps) = &p {
                    if ps.len() > MAX_AND_ARITY {
                        return Err(PatternError::TooManyChildren { found: ps.len() });
                    }
                }
                // Depth first (iteratively, so even raw-built deep children
                // are measured safely) — it gates the recursive traversals
                // below and everywhere else in the crate.
                let depth = p.depth();
                if depth > MAX_DEPTH {
                    return Err(PatternError::NestingTooDeep { depth });
                }
                p.check_distinct()?;
                Ok(p)
            }
        }
    }

    /// Nesting depth: 1 for a single event, 1 + max child depth for
    /// operators. Computed with an explicit stack, so it is safe to call
    /// on ASTs of any depth (including raw-built ones that bypassed the
    /// smart constructors).
    pub fn depth(&self) -> usize {
        let mut max = 0;
        let mut stack: Vec<(&Pattern, usize)> = vec![(self, 1)];
        while let Some((p, d)) = stack.pop() {
            max = max.max(d);
            if let Pattern::Seq(ps) | Pattern::And(ps) = p {
                for c in ps {
                    stack.push((c, d + 1));
                }
            }
        }
        max
    }

    /// Convenience: `SEQ` of single events.
    pub fn seq_of_events(
        events: impl IntoIterator<Item = EventId>,
    ) -> Result<Pattern, PatternError> {
        Self::seq(events.into_iter().map(Pattern::Event).collect())
    }

    /// Convenience: `AND` of single events.
    pub fn and_of_events(
        events: impl IntoIterator<Item = EventId>,
    ) -> Result<Pattern, PatternError> {
        Self::and(events.into_iter().map(Pattern::Event).collect())
    }

    fn check_distinct(&self) -> Result<(), PatternError> {
        let mut evs = Vec::new();
        self.collect_events(&mut evs);
        evs.sort_unstable();
        for w in evs.windows(2) {
            if w[0] == w[1] {
                return Err(PatternError::DuplicateEvent(w[0]));
            }
        }
        Ok(())
    }

    fn collect_events(&self, out: &mut Vec<EventId>) {
        // Iterative so it is safe on arbitrarily deep (raw-built) ASTs;
        // children are pushed in reverse to preserve left-to-right order.
        let mut stack: Vec<&Pattern> = vec![self];
        while let Some(p) = stack.pop() {
            match p {
                Pattern::Event(e) => out.push(*e),
                Pattern::Seq(ps) | Pattern::And(ps) => stack.extend(ps.iter().rev()),
            }
        }
    }

    /// The events of the pattern, `V(p)`, sorted ascending.
    pub fn events(&self) -> Vec<EventId> {
        let mut evs = Vec::new();
        self.collect_events(&mut evs);
        evs.sort_unstable();
        evs
    }

    /// Number of events, `|p|` in the paper's notation. Iterative, so it
    /// is safe on arbitrarily deep ASTs.
    pub fn size(&self) -> usize {
        let mut n = 0;
        let mut stack: Vec<&Pattern> = vec![self];
        while let Some(p) = stack.pop() {
            match p {
                Pattern::Event(_) => n += 1,
                Pattern::Seq(ps) | Pattern::And(ps) => stack.extend(ps.iter()),
            }
        }
        n
    }

    /// Events that can begin a linearization of this pattern.
    pub fn initials(&self) -> Vec<EventId> {
        match self {
            Pattern::Event(e) => vec![*e],
            Pattern::Seq(ps) => ps[0].initials(),
            Pattern::And(ps) => {
                let mut out: Vec<EventId> = ps.iter().flat_map(Pattern::initials).collect();
                out.sort_unstable();
                out
            }
        }
    }

    /// Events that can end a linearization of this pattern.
    pub fn finals(&self) -> Vec<EventId> {
        match self {
            Pattern::Event(e) => vec![*e],
            // Operators are non-empty by construction; an empty SEQ would
            // simply have no finals.
            Pattern::Seq(ps) => ps.last().map(Pattern::finals).unwrap_or_default(),
            Pattern::And(ps) => {
                let mut out: Vec<EventId> = ps.iter().flat_map(Pattern::finals).collect();
                out.sort_unstable();
                out
            }
        }
    }

    /// Rewrites every event through `f`, preserving structure. This is how
    /// a pattern `p` over `L1` becomes the corresponded pattern `M(p)` over
    /// `L2` (Definition 5).
    ///
    /// The mapping is expected to be injective on `V(p)`; a non-injective
    /// map would merge events and change the semantics, so it is rejected in
    /// debug builds.
    pub fn map_events(&self, f: &impl Fn(EventId) -> EventId) -> Pattern {
        let mapped = self.map_events_unchecked(f);
        debug_assert!(
            {
                let evs = mapped.events();
                evs.windows(2).all(|w| w[0] != w[1])
            },
            "event mapping must be injective on the pattern's events"
        );
        mapped
    }

    fn map_events_unchecked(&self, f: &impl Fn(EventId) -> EventId) -> Pattern {
        match self {
            Pattern::Event(e) => Pattern::Event(f(*e)),
            Pattern::Seq(ps) => {
                Pattern::Seq(ps.iter().map(|p| p.map_events_unchecked(f)).collect())
            }
            Pattern::And(ps) => {
                Pattern::And(ps.iter().map(|p| p.map_events_unchecked(f)).collect())
            }
        }
    }

    /// Renders the pattern with event names resolved against `events`.
    pub fn display<'a>(&'a self, events: &'a EventSet) -> PatternDisplay<'a> {
        PatternDisplay {
            pattern: self,
            events,
        }
    }
}

impl Drop for Pattern {
    /// Iterative drop: the default (compiler-generated) drop glue recurses
    /// per nesting level, so dropping a raw-built AST thousands of levels
    /// deep would overflow the stack. Children are moved onto an explicit
    /// stack instead, making drops O(size) with O(width) auxiliary memory
    /// and constant stack depth.
    fn drop(&mut self) {
        let ps = match self {
            Pattern::Event(_) => return,
            Pattern::Seq(ps) | Pattern::And(ps) => ps,
        };
        if ps.iter().all(|p| matches!(p, Pattern::Event(_))) {
            return; // Flat operator: default glue is already non-recursive.
        }
        let mut stack: Vec<Pattern> = std::mem::take(ps);
        while let Some(mut p) = stack.pop() {
            if let Pattern::Seq(cs) | Pattern::And(cs) = &mut p {
                stack.append(cs);
            }
            // `p` now has no children and drops without recursing.
        }
    }
}

/// Helper returned by [`Pattern::display`].
pub struct PatternDisplay<'a> {
    pattern: &'a Pattern,
    events: &'a EventSet,
}

impl fmt::Display for PatternDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Pattern, ev: &EventSet, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match p {
                Pattern::Event(e) => write!(f, "{}", ev.name(*e)),
                Pattern::Seq(ps) | Pattern::And(ps) => {
                    write!(
                        f,
                        "{}(",
                        if matches!(p, Pattern::Seq(_)) {
                            "SEQ"
                        } else {
                            "AND"
                        }
                    )?;
                    for (i, c) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        go(c, ev, f)?;
                    }
                    write!(f, ")")
                }
            }
        }
        go(self.pattern, self.events, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> Pattern {
        Pattern::event(i)
    }

    #[test]
    fn smart_constructors_collapse_singletons() {
        let p = Pattern::seq(vec![e(0)]).unwrap();
        assert_eq!(p, e(0));
        let q = Pattern::and(vec![Pattern::seq(vec![e(1), e(2)]).unwrap()]).unwrap();
        assert_eq!(q, Pattern::seq(vec![e(1), e(2)]).unwrap());
    }

    #[test]
    fn empty_operator_rejected() {
        assert_eq!(Pattern::seq(vec![]), Err(PatternError::EmptyOperator));
        assert_eq!(Pattern::and(vec![]), Err(PatternError::EmptyOperator));
    }

    #[test]
    fn duplicate_events_rejected() {
        let err = Pattern::seq(vec![e(1), e(2), e(1)]).unwrap_err();
        assert_eq!(err, PatternError::DuplicateEvent(EventId(1)));
        // Nested duplicates are caught too.
        let nested = Pattern::and(vec![Pattern::seq(vec![e(0), e(1)]).unwrap(), e(1)]);
        assert_eq!(
            nested.unwrap_err(),
            PatternError::DuplicateEvent(EventId(1))
        );
    }

    #[test]
    fn events_and_size() {
        // SEQ(A, AND(B, C), D) — the paper's p1 with A=0, B=1, C=2, D=3.
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        assert_eq!(p.size(), 4);
        assert_eq!(
            p.events(),
            vec![EventId(0), EventId(1), EventId(2), EventId(3)]
        );
    }

    #[test]
    fn initials_and_finals() {
        // SEQ(A, AND(B, C), D): starts with A, ends with D.
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        assert_eq!(p.initials(), vec![EventId(0)]);
        assert_eq!(p.finals(), vec![EventId(3)]);
        // AND(SEQ(a,b), c): can start with a or c; end with b or c.
        let q = Pattern::and(vec![Pattern::seq(vec![e(0), e(1)]).unwrap(), e(2)]).unwrap();
        assert_eq!(q.initials(), vec![EventId(0), EventId(2)]);
        assert_eq!(q.finals(), vec![EventId(1), EventId(2)]);
    }

    #[test]
    fn map_events_preserves_structure() {
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap()]).unwrap();
        let m = p.map_events(&|ev| EventId(ev.0 + 10));
        assert_eq!(
            m,
            Pattern::seq(vec![e(10), Pattern::and(vec![e(11), e(12)]).unwrap()]).unwrap()
        );
    }

    #[test]
    fn display_with_names() {
        let names = EventSet::from_names(["A", "B", "C", "D"]);
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap(), e(3)]).unwrap();
        assert_eq!(p.display(&names).to_string(), "SEQ(A,AND(B,C),D)");
    }

    /// Builds a raw (constructor-bypassing) chain `Seq(e, Seq(e, …))` of
    /// the given depth.
    fn raw_deep(depth: usize) -> Pattern {
        let mut p = e(0);
        for _ in 0..depth {
            p = Pattern::Seq(vec![e(1), p]);
        }
        p
    }

    #[test]
    fn depth_is_iterative_and_correct() {
        assert_eq!(e(0).depth(), 1);
        let p = Pattern::seq(vec![e(0), Pattern::and(vec![e(1), e(2)]).unwrap()]).unwrap();
        assert_eq!(p.depth(), 3);
        // Does not overflow on a raw 100k-deep AST.
        assert_eq!(raw_deep(100_000).depth(), 100_001);
    }

    #[test]
    fn deep_raw_asts_drop_without_overflow() {
        let p = raw_deep(200_000);
        assert_eq!(p.size(), 200_001);
        drop(p); // Iterative Drop: must not blow the stack.
    }

    #[test]
    fn constructors_reject_excessive_nesting() {
        // Build a legal pattern at exactly MAX_DEPTH, then one deeper.
        let mut p = e(0);
        for i in 1..MAX_DEPTH as u32 {
            p = Pattern::seq(vec![e(i), p]).unwrap();
        }
        assert_eq!(p.depth(), MAX_DEPTH);
        let err = Pattern::seq(vec![e(MAX_DEPTH as u32), p]).unwrap_err();
        assert_eq!(
            err,
            PatternError::NestingTooDeep {
                depth: MAX_DEPTH + 1
            }
        );
    }

    #[test]
    fn and_arity_is_capped_at_the_bitmask_width() {
        let ok = Pattern::and((0..32).map(e).collect::<Vec<_>>()).unwrap();
        assert!(matches!(ok, Pattern::And(_)));
        let err = Pattern::and((0..33).map(e).collect::<Vec<_>>()).unwrap_err();
        assert_eq!(err, PatternError::TooManyChildren { found: 33 });
        // SEQ arity is not capped (no bitmask involved).
        assert!(Pattern::seq((0..100).map(e).collect::<Vec<_>>()).is_ok());
    }
}
