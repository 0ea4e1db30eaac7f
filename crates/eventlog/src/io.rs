//! Line-oriented text format for event logs.
//!
//! One trace per line, events separated by whitespace:
//!
//! ```text
//! #! events: RO Payment CheckInventory ShipGoods
//! # order-processing log, department 1
//! RO Payment CheckInventory ShipGoods
//! RO CheckInventory Payment ShipGoods
//! ```
//!
//! `#`-prefixed lines are comments; `#!`-prefixed lines are directives. The
//! `#! events:` directive pins the vocabulary and its interning order, so a
//! written log reads back with identical event ids (matching algorithms
//! break ties by id, so id stability makes results reproducible across
//! round-trips). Without the directive, events intern in order of first
//! occurrence.
//!
//! Blank lines are skipped; an *empty trace* is the literal marker
//! `<empty>`. Event names may contain any non-whitespace characters, but
//! a name with whitespace, the name `<empty>` and a name starting with `#`
//! would not read back as written, so [`write_log`] rejects them.

use std::fmt;
use std::io::{BufRead, Write};

use crate::event::{EventId, EventSet};
use crate::ingest::{
    Ingest, IngestOptions, LimitExceeded, LimitKind, LineReader, Quarantine, QuarantineCause,
    QuarantineEntry, RawLine,
};
use crate::log::{EventLog, LogBuilder};

/// Error raised while parsing the text log format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogParseError {
    /// An I/O error, carried as a message to keep the error type `Clone`.
    Io(String),
    /// The `<empty>` marker was mixed with event names on one line.
    MixedEmptyMarker {
        /// 1-based line number.
        line: usize,
    },
    /// A line is not valid UTF-8 (strict mode only; lenient quarantines).
    InvalidUtf8 {
        /// 1-based line number.
        line: usize,
    },
    /// An [`crate::IngestLimits`] resource guard was exceeded.
    Limit(LimitExceeded),
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogParseError::Io(msg) => write!(f, "i/o error: {msg}"),
            LogParseError::MixedEmptyMarker { line } => write!(
                f,
                "line {line}: `<empty>` marker cannot be combined with event names"
            ),
            LogParseError::InvalidUtf8 { line } => {
                write!(f, "line {line}: invalid UTF-8")
            }
            LogParseError::Limit(l) => l.fmt(f),
        }
    }
}

impl std::error::Error for LogParseError {}

impl From<std::io::Error> for LogParseError {
    fn from(e: std::io::Error) -> Self {
        LogParseError::Io(e.to_string())
    }
}

impl From<LimitExceeded> for LogParseError {
    fn from(l: LimitExceeded) -> Self {
        LogParseError::Limit(l)
    }
}

/// Marker for an intentionally empty trace.
const EMPTY_TRACE: &str = "<empty>";

/// Vocabulary directive prefix.
const EVENTS_DIRECTIVE: &str = "#! events:";

/// Reads a log from the line-oriented text format (strict mode, no
/// limits — fails fast on the first malformed line).
pub fn read_log(reader: impl BufRead) -> Result<EventLog, LogParseError> {
    read_log_with(reader, &IngestOptions::strict()).map(|ingest| ingest.log)
}

/// Reads a log from the line-oriented text format under [`IngestOptions`].
///
/// In lenient mode, malformed lines (invalid UTF-8, overlong lines, mixed
/// `<empty>` markers, unknown `#!` directives, overlong traces) are
/// skipped into the returned [`Quarantine`] instead of aborting the load.
/// The aggregate guards (`max_events`, `max_traces`) are enforced in both
/// modes: exceeding them returns [`LogParseError::Limit`].
pub fn read_log_with(reader: impl BufRead, opts: &IngestOptions) -> Result<Ingest, LogParseError> {
    let lenient = opts.is_lenient();
    let limits = opts.limits;
    let mut builder = LogBuilder::new();
    let mut quarantine = Quarantine::new();
    let mut lines = LineReader::new(reader, limits.max_line_bytes);
    let mut ids: Vec<EventId> = Vec::new();
    let mut line_no: usize = 0;
    while let Some((byte_offset, raw)) = lines.next_line()? {
        line_no += 1;
        // Quarantine (lenient) or fail (strict) with `cause` for this line.
        macro_rules! reject {
            ($cause:expr, $excerpt:expr, $strict_err:expr) => {{
                if lenient {
                    quarantine.record(QuarantineEntry {
                        line: line_no,
                        byte_offset,
                        cause: $cause,
                        excerpt: $excerpt,
                    });
                    continue;
                }
                return Err($strict_err);
            }};
        }
        let text = match raw {
            RawLine::Text(text) => text,
            RawLine::InvalidUtf8 { excerpt } => reject!(
                QuarantineCause::InvalidUtf8,
                excerpt,
                LogParseError::InvalidUtf8 { line: line_no }
            ),
            RawLine::TooLong { len, excerpt } => reject!(
                QuarantineCause::LineTooLong,
                excerpt,
                LogParseError::Limit(LimitExceeded {
                    kind: LimitKind::LineBytes,
                    observed: len,
                    max: limits.max_line_bytes,
                    line: line_no,
                })
            ),
        };
        let trimmed = text.trim();
        if let Some(rest) = trimmed.strip_prefix(EVENTS_DIRECTIVE) {
            for name in rest.split_whitespace() {
                if builder.events().lookup(name).is_none() {
                    check_vocabulary(builder.events().len() + 1, &limits, line_no)?;
                    builder.intern(name);
                }
            }
            continue;
        }
        if trimmed.starts_with("#!") && lenient {
            // Strict mode keeps the historical contract (unknown
            // directives fall through as comments); lenient surfaces them
            // so silently ignored directives become visible.
            quarantine.record(QuarantineEntry {
                line: line_no,
                byte_offset,
                cause: QuarantineCause::UnknownDirective,
                excerpt: crate::ingest::excerpt(trimmed.as_bytes()),
            });
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // One lookup per token: a known name gives its id, a new one the
        // id it gets once `fresh` (the line's new names, in order of first
        // appearance) is interned, which happens only if the line passes.
        // Past `max_trace_events` the line is rejected anyway, so tokens
        // are only counted (and checked for the marker).
        let known = builder.events();
        let mut fresh = EventSet::new();
        let (mut count, mut saw_empty) = (0usize, false);
        ids.clear();
        for token in trimmed.split_whitespace() {
            count += 1;
            if token == EMPTY_TRACE {
                saw_empty = true;
            } else if count <= limits.max_trace_events {
                ids.push(known.lookup(token).unwrap_or_else(|| {
                    EventId((known.len() + fresh.intern(token).index()) as u32)
                }));
            }
        }
        if saw_empty && count != 1 {
            reject!(
                QuarantineCause::MixedEmptyMarker,
                crate::ingest::excerpt(trimmed.as_bytes()),
                LogParseError::MixedEmptyMarker { line: line_no }
            );
        }
        if !saw_empty && count > limits.max_trace_events {
            reject!(
                QuarantineCause::TraceTooLong,
                crate::ingest::excerpt(trimmed.as_bytes()),
                LogParseError::Limit(LimitExceeded {
                    kind: LimitKind::TraceEvents,
                    observed: count,
                    max: limits.max_trace_events,
                    line: line_no,
                })
            );
        }
        if builder.trace_count() >= limits.max_traces {
            return Err(LimitExceeded {
                kind: LimitKind::Traces,
                observed: builder.trace_count() + 1,
                max: limits.max_traces,
                line: line_no,
            }
            .into());
        }
        check_vocabulary(known.len() + fresh.len(), &limits, line_no)?;
        for name in fresh.names() {
            builder.intern(name);
        }
        // A lone `<empty>` marker leaves `ids` empty: an empty trace.
        builder.push_trace(ids.iter().copied());
    }
    Ok(Ingest {
        log: builder.build(),
        quarantine,
    })
}

/// Fails if the vocabulary would grow to `projected` names, past
/// `limits.max_events`. Enforced in both modes: an unbounded vocabulary is
/// a resource-exhaustion condition, not a single bad line.
fn check_vocabulary(
    projected: usize,
    limits: &crate::ingest::IngestLimits,
    line: usize,
) -> Result<(), LimitExceeded> {
    if projected > limits.max_events {
        return Err(LimitExceeded {
            kind: LimitKind::Events,
            observed: projected,
            max: limits.max_events,
            line,
        });
    }
    Ok(())
}

/// Writes a log in the line-oriented text format, leading with the
/// `#! events:` vocabulary directive so ids survive a round-trip.
///
/// Returns `InvalidInput` if any event name would not read back as written:
/// an empty name, one containing whitespace (the format separates events by
/// whitespace), the `<empty>` marker, or one starting with `#` (a comment).
pub fn write_log(log: &EventLog, mut writer: impl Write) -> std::io::Result<()> {
    for name in log.events().names() {
        if name.is_empty()
            || name == EMPTY_TRACE
            || name.starts_with('#')
            || name.chars().any(char::is_whitespace)
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("event name {name:?} is not representable in the text format"),
            ));
        }
    }
    if !log.events().is_empty() {
        write!(writer, "{EVENTS_DIRECTIVE}")?;
        for name in log.events().names() {
            write!(writer, " {name}")?;
        }
        writeln!(writer)?;
    }
    for trace in log.traces() {
        if trace.is_empty() {
            writeln!(writer, "{EMPTY_TRACE}")?;
            continue;
        }
        let mut first = true;
        for &e in trace {
            if !first {
                write!(writer, " ")?;
            }
            write!(writer, "{}", log.events().name(e))?;
            first = false;
        }
        writeln!(writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> EventLog {
        read_log(text.as_bytes()).unwrap()
    }

    #[test]
    fn parses_traces_and_skips_comments() {
        let log = roundtrip("# hello\nA B C\n\nA C B\n");
        assert_eq!(log.len(), 2);
        assert_eq!(log.event_count(), 3);
        assert_eq!(log.trace(1).len(), 3);
    }

    #[test]
    fn empty_marker_produces_empty_trace() {
        let log = roundtrip("A\n<empty>\nB\n");
        assert_eq!(log.len(), 3);
        assert!(log.trace(1).is_empty());
    }

    #[test]
    fn mixed_empty_marker_is_an_error() {
        let err = read_log("A <empty>\n".as_bytes()).unwrap_err();
        assert_eq!(err, LogParseError::MixedEmptyMarker { line: 1 });
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let log = roundtrip("ship goods\npay check ship\n<empty>\n");
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let again = read_log(buf.as_slice()).unwrap();
        assert_eq!(again.len(), log.len());
        for (a, b) in log.traces().zip(again.traces()) {
            let names_a: Vec<_> = a.iter().map(|&e| log.events().name(e)).collect();
            let names_b: Vec<_> = b.iter().map(|&e| again.events().name(e)).collect();
            assert_eq!(names_a, names_b);
        }
    }

    #[test]
    fn events_directive_pins_interning_order() {
        // Vocabulary declared z-first; traces mention a first.
        let log = roundtrip("#! events: z a\na z\n");
        assert_eq!(log.events().lookup("z"), Some(EventId(0)));
        assert_eq!(log.events().lookup("a"), Some(EventId(1)));
    }

    #[test]
    fn write_emits_directive_and_ids_survive() {
        let mut b = LogBuilder::new();
        b.intern("late"); // id 0 but occurs last in the trace
        b.push_named_trace(["early", "late"]);
        let log = b.build();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("#! events: late early\n"), "{text}");
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.events().lookup("late"), Some(EventId(0)));
        assert_eq!(back.columns(), log.columns());
    }

    #[test]
    fn whitespace_in_names_is_rejected_on_write() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["Check Inventory"]);
        let log = b.build();
        let err = write_log(&log, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn comment_and_marker_names_are_rejected_on_write() {
        // `#x B` would read back as a comment, `<empty>` as an empty trace.
        for name in ["#x", "<empty>"] {
            let mut b = LogBuilder::new();
            b.push_named_trace([name, "B"]);
            b.push_named_trace(["B"]);
            let err = write_log(&b.build(), &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{name}");
        }
    }

    #[test]
    fn whitespace_variants_are_tolerated() {
        let log = roundtrip("  A\t B  \n");
        assert_eq!(log.len(), 1);
        assert_eq!(log.trace(0).len(), 2);
    }

    use crate::ingest::{IngestLimits, IngestOptions, LimitKind, QuarantineCause};

    #[test]
    fn lenient_quarantines_mixed_empty_marker_and_keeps_going() {
        let input = "A B\nA <empty>\nB C\n";
        let ingest = read_log_with(input.as_bytes(), &IngestOptions::lenient()).unwrap();
        assert_eq!(ingest.log.len(), 2);
        assert_eq!(ingest.quarantine.total(), 1);
        let e = &ingest.quarantine.entries()[0];
        assert_eq!(e.line, 2);
        assert_eq!(e.byte_offset, 4);
        assert_eq!(e.cause, QuarantineCause::MixedEmptyMarker);
        assert_eq!(e.excerpt, "A <empty>");
    }

    #[test]
    fn lenient_quarantines_invalid_utf8_lines() {
        let input: &[u8] = b"A B\n\xff\xfe\nC\n";
        let ingest = read_log_with(input, &IngestOptions::lenient()).unwrap();
        assert_eq!(ingest.log.len(), 2);
        assert_eq!(ingest.quarantine.counts().get("invalid_utf8"), Some(&1));
        // Strict mode reports the same line as a typed error.
        let err = read_log_with(input, &IngestOptions::strict()).unwrap_err();
        assert_eq!(err, LogParseError::InvalidUtf8 { line: 2 });
    }

    #[test]
    fn lenient_flags_unknown_directives_strict_ignores_them() {
        let input = "#! schema: v2\nA\n";
        let strict = read_log_with(input.as_bytes(), &IngestOptions::strict()).unwrap();
        assert!(strict.quarantine.is_empty());
        assert_eq!(strict.log.len(), 1);
        let lenient = read_log_with(input.as_bytes(), &IngestOptions::lenient()).unwrap();
        assert_eq!(lenient.log.len(), 1);
        assert_eq!(
            lenient.quarantine.entries()[0].cause,
            QuarantineCause::UnknownDirective
        );
    }

    #[test]
    fn line_byte_limit_quarantines_or_errors() {
        let opts =
            IngestOptions::lenient().with_limits(IngestLimits::unlimited().with_max_line_bytes(8));
        let input = "A B\nthis-line-is-way-too-long\nC\n";
        let ingest = read_log_with(input.as_bytes(), &opts).unwrap();
        assert_eq!(ingest.log.len(), 2);
        assert_eq!(ingest.quarantine.counts().get("line_too_long"), Some(&1));
        let strict = IngestOptions::strict().with_limits(opts.limits);
        let err = read_log_with(input.as_bytes(), &strict).unwrap_err();
        match err {
            LogParseError::Limit(l) => {
                assert_eq!(l.kind, LimitKind::LineBytes);
                assert_eq!(l.observed, 25);
                assert_eq!(l.line, 2);
            }
            other => panic!("expected limit error, got {other:?}"),
        }
    }

    #[test]
    fn trace_length_limit_quarantines_in_lenient_mode() {
        let opts = IngestOptions::lenient()
            .with_limits(IngestLimits::unlimited().with_max_trace_events(2));
        let ingest = read_log_with("A B\nA B C\n<empty>\n".as_bytes(), &opts).unwrap();
        assert_eq!(ingest.log.len(), 2);
        assert_eq!(ingest.quarantine.counts().get("trace_too_long"), Some(&1));
    }

    #[test]
    fn trace_count_limit_is_fatal_in_both_modes() {
        let limits = IngestLimits::unlimited().with_max_traces(2);
        for opts in [
            IngestOptions::strict().with_limits(limits),
            IngestOptions::lenient().with_limits(limits),
        ] {
            let err = read_log_with("A\nB\nC\n".as_bytes(), &opts).unwrap_err();
            match err {
                LogParseError::Limit(l) => assert_eq!(l.kind, LimitKind::Traces),
                other => panic!("expected limit error, got {other:?}"),
            }
        }
    }

    #[test]
    fn vocabulary_limit_is_fatal_in_both_modes() {
        let limits = IngestLimits::unlimited().with_max_events(2);
        for opts in [
            IngestOptions::strict().with_limits(limits),
            IngestOptions::lenient().with_limits(limits),
        ] {
            let err = read_log_with("A B\nA C\n".as_bytes(), &opts).unwrap_err();
            match err {
                LogParseError::Limit(l) => {
                    assert_eq!(l.kind, LimitKind::Events);
                    assert_eq!(l.line, 2);
                }
                other => panic!("expected limit error, got {other:?}"),
            }
        }
        // The events directive is guarded the same way, one name at a time.
        let err = read_log_with(
            "#! events: A B C\n".as_bytes(),
            &IngestOptions::strict().with_limits(limits),
        )
        .unwrap_err();
        let want = LimitExceeded {
            kind: LimitKind::Events,
            observed: 3,
            max: 2,
            line: 1,
        };
        assert_eq!(err, LogParseError::Limit(want));
        // A trace line counts its distinct new names once each.
        let err = read_log_with(
            "A B\nC C D\n".as_bytes(),
            &IngestOptions::strict().with_limits(IngestLimits::unlimited().with_max_events(3)),
        )
        .unwrap_err();
        let want = LimitExceeded {
            kind: LimitKind::Events,
            observed: 4,
            max: 3,
            line: 2,
        };
        assert_eq!(err, LogParseError::Limit(want));
    }

    #[test]
    fn strict_ok_inputs_are_lenient_ok_with_empty_quarantine() {
        let input = "#! events: z a\n# comment\nA B\n<empty>\nz a\n";
        let strict = read_log_with(input.as_bytes(), &IngestOptions::strict()).unwrap();
        let lenient = read_log_with(input.as_bytes(), &IngestOptions::lenient()).unwrap();
        assert!(lenient.quarantine.is_empty());
        assert_eq!(strict.log, lenient.log);
    }

    #[test]
    fn quarantine_reports_are_deterministic() {
        let input: &[u8] = b"A <empty>\n\xff\nB C D\n#! weird\n";
        let a = read_log_with(input, &IngestOptions::lenient()).unwrap();
        let b = read_log_with(input, &IngestOptions::lenient()).unwrap();
        assert_eq!(a.quarantine, b.quarantine);
        assert_eq!(a.quarantine.render(), b.quarantine.render());
    }
}
