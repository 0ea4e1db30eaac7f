//! CSV event-log interchange: one `(case, activity)` row per event.
//!
//! Real systems export event logs as flat tables — one row per event
//! occurrence with a *case* (trace) identifier and an *activity* name,
//! usually ordered by timestamp within a case. This module reads and
//! writes that shape:
//!
//! ```csv
//! case,activity
//! order-1,ReceiveOrder
//! order-1,Payment
//! order-2,ReceiveOrder
//! ```
//!
//! * The first line must be a header; the `case` and `activity` columns
//!   are located by name (case-insensitive), so extra columns — e.g. a
//!   timestamp — are tolerated and ignored.
//! * Rows of one case need not be contiguous, but the order of rows
//!   *within* a case defines the trace's event order (timestamps are the
//!   exporter's responsibility, as in Definition 1 the model only
//!   consumes order).
//! * Traces appear in the output log in order of each case's first row.
//! * Values may be double-quoted; quoted values may contain commas and
//!   doubled quotes (`""`). Newlines inside values are not supported, and
//!   fields are trimmed, so [`write_csv_log`] rejects names with a line
//!   break or with leading or trailing whitespace.

use std::fmt;
use std::io::{BufRead, Write};

use crate::event::{EventId, EventSet};
use crate::ingest::{
    Ingest, IngestOptions, LimitExceeded, LimitKind, LineReader, Quarantine, QuarantineCause,
    QuarantineEntry, RawLine,
};
use crate::log::{EventLog, LogBuilder};

/// Errors raised while parsing CSV event logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvLogError {
    /// An I/O error, carried as a message to keep the error type `Clone`.
    Io(String),
    /// The input is empty or the header is missing a required column.
    MissingColumn {
        /// The column that could not be located.
        column: &'static str,
    },
    /// A data row has fewer fields than the header requires.
    ShortRow {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields needed to cover the case/activity columns.
        needed: usize,
    },
    /// A quoted field was not terminated before the end of the line.
    UnterminatedQuote {
        /// 1-based line number.
        line: usize,
    },
    /// A line is not valid UTF-8 (strict mode, or in the header).
    InvalidUtf8 {
        /// 1-based line number.
        line: usize,
    },
    /// An [`crate::IngestLimits`] resource guard was exceeded.
    Limit(LimitExceeded),
}

impl fmt::Display for CsvLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvLogError::Io(msg) => write!(f, "i/o error: {msg}"),
            CsvLogError::MissingColumn { column } => {
                write!(f, "header does not contain a `{column}` column")
            }
            CsvLogError::ShortRow {
                line,
                found,
                needed,
            } => write!(
                f,
                "line {line}: row has {found} fields, needs at least {needed}"
            ),
            CsvLogError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvLogError::InvalidUtf8 { line } => write!(f, "line {line}: invalid UTF-8"),
            CsvLogError::Limit(l) => l.fmt(f),
        }
    }
}

impl std::error::Error for CsvLogError {}

impl From<std::io::Error> for CsvLogError {
    fn from(e: std::io::Error) -> Self {
        CsvLogError::Io(e.to_string())
    }
}

impl From<LimitExceeded> for CsvLogError {
    fn from(l: LimitExceeded) -> Self {
        CsvLogError::Limit(l)
    }
}

/// Reads a CSV event log (header required; `case` and `activity` columns
/// located by name). Strict mode, no limits.
pub fn read_csv_log(reader: impl BufRead) -> Result<EventLog, CsvLogError> {
    read_csv_log_with(reader, &IngestOptions::strict()).map(|ingest| ingest.log)
}

/// Reads a CSV event log under [`IngestOptions`].
///
/// Header problems (missing/unreadable header, missing columns) are fatal
/// in *both* modes — without a header no row can be interpreted. In
/// lenient mode, malformed data rows (short rows, unterminated quotes,
/// invalid UTF-8, overlong lines) are skipped into the returned
/// [`Quarantine`]. The aggregate guards (`max_events` over distinct
/// activities, `max_traces` over distinct cases) are enforced in both
/// modes and return [`CsvLogError::Limit`].
pub fn read_csv_log_with(
    reader: impl BufRead,
    opts: &IngestOptions,
) -> Result<Ingest, CsvLogError> {
    let lenient = opts.is_lenient();
    let limits = opts.limits;
    let mut lines = LineReader::new(reader, limits.max_line_bytes);
    let mut quarantine = Quarantine::new();

    let header = match lines.next_line()? {
        None => return Err(CsvLogError::MissingColumn { column: "case" }),
        Some((_, RawLine::Text(text))) => text,
        Some((_, RawLine::InvalidUtf8 { .. })) => {
            return Err(CsvLogError::InvalidUtf8 { line: 1 });
        }
        Some((_, RawLine::TooLong { len, .. })) => {
            return Err(LimitExceeded {
                kind: LimitKind::LineBytes,
                observed: len,
                max: limits.max_line_bytes,
                line: 1,
            }
            .into());
        }
    };
    let cols = split_row(header, 1)?;
    let find = |name: &'static str| -> Result<usize, CsvLogError> {
        cols.iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or(CsvLogError::MissingColumn { column: name })
    };
    let case_col = find("case")?;
    let act_col = find("activity")?;
    let needed = case_col.max(act_col) + 1;

    // Each case's trace, in order of the case's first row, as row-time
    // activity ids; the log re-interns the names in trace order below.
    #[expect(
        clippy::disallowed_types,
        reason = "point lookups only: nothing iterates the map, and trace order is first-row order"
    )]
    let mut case_of: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut traces: Vec<Vec<EventId>> = Vec::new();
    let mut activities = EventSet::new();
    let mut line_no: usize = 1;
    while let Some((byte_offset, raw)) = lines.next_line()? {
        line_no += 1;
        // Quarantine (lenient) or fail (strict) with `cause` for this row.
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
                CsvLogError::InvalidUtf8 { line: line_no }
            ),
            RawLine::TooLong { len, excerpt } => reject!(
                QuarantineCause::LineTooLong,
                excerpt,
                CsvLogError::Limit(LimitExceeded {
                    kind: LimitKind::LineBytes,
                    observed: len,
                    max: limits.max_line_bytes,
                    line: line_no,
                })
            ),
        };
        if text.trim().is_empty() {
            continue;
        }
        let fields = match split_row(text, line_no) {
            Ok(fields) => fields,
            Err(err @ CsvLogError::UnterminatedQuote { .. }) => reject!(
                QuarantineCause::UnterminatedQuote,
                crate::ingest::excerpt(text.as_bytes()),
                err
            ),
            Err(other) => return Err(other),
        };
        if fields.len() < needed {
            reject!(
                QuarantineCause::ShortRow {
                    found: fields.len(),
                    needed,
                },
                crate::ingest::excerpt(text.as_bytes()),
                CsvLogError::ShortRow {
                    line: line_no,
                    found: fields.len(),
                    needed,
                }
            );
        }
        let (case, activity) = (&fields[case_col], &fields[act_col]);
        let known_case = case_of.get(case).copied();
        if known_case.is_none() && traces.len() >= limits.max_traces {
            return Err(LimitExceeded {
                kind: LimitKind::Traces,
                observed: traces.len() + 1,
                max: limits.max_traces,
                line: line_no,
            }
            .into());
        }
        let known_activity = activities.lookup(activity);
        if known_activity.is_none() && activities.len() >= limits.max_events {
            return Err(LimitExceeded {
                kind: LimitKind::Events,
                observed: activities.len() + 1,
                max: limits.max_events,
                line: line_no,
            }
            .into());
        }
        // A new case opens its trace even if this row is then rejected.
        let t = known_case.unwrap_or_else(|| {
            case_of.insert(case.clone(), traces.len());
            traces.push(Vec::new());
            traces.len() - 1
        });
        if traces[t].len() >= limits.max_trace_events {
            reject!(
                QuarantineCause::TraceTooLong,
                crate::ingest::excerpt(text.as_bytes()),
                CsvLogError::Limit(LimitExceeded {
                    kind: LimitKind::TraceEvents,
                    observed: traces[t].len() + 1,
                    max: limits.max_trace_events,
                    line: line_no,
                })
            );
        }
        traces[t].push(known_activity.unwrap_or_else(|| activities.intern(activity)));
    }

    let mut builder = LogBuilder::new();
    for trace in &traces {
        builder.push_named_trace(trace.iter().map(|&e| activities.name(e)));
    }
    Ok(Ingest {
        log: builder.build(),
        quarantine,
    })
}

/// Writes a log as CSV with synthetic case ids `t0, t1, …`.
///
/// Returns `InvalidInput` if any event name would not read back as
/// written: one with a line break, or with leading or trailing whitespace
/// (the reader trims every field).
pub fn write_csv_log(log: &EventLog, mut writer: impl Write) -> std::io::Result<()> {
    for name in log.events().names() {
        if name.contains(['\n', '\r']) || name.trim() != name {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("event name {name:?} is not representable in the CSV format"),
            ));
        }
    }
    writeln!(writer, "case,activity")?;
    for (i, trace) in log.traces().enumerate() {
        for &e in trace {
            writeln!(writer, "t{i},{}", quote(log.events().name(e)))?;
        }
    }
    Ok(())
}

/// Quotes a field when it contains a comma or quote.
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Splits one CSV row, honouring double-quoted fields.
fn split_row(line: &str, line_no: usize) -> Result<Vec<String>, CsvLogError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(CsvLogError::UnterminatedQuote { line: line_no });
    }
    fields.push(cur);
    Ok(fields.into_iter().map(|f| f.trim().to_owned()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_basic_case_activity_rows() {
        let csv = "case,activity\no1,Receive\no1,Pay\no2,Receive\no2,Ship\n";
        let log = read_csv_log(csv.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.trace(0).len(), 2);
        let receive = log.events().lookup("Receive").unwrap();
        assert_eq!(log.vertex_support(receive), 2);
    }

    #[test]
    fn interleaved_cases_are_grouped_in_first_seen_order() {
        let csv = "case,activity\nB,x\nA,y\nB,z\nA,w\n";
        let log = read_csv_log(csv.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        // Case B appeared first.
        let names: Vec<&str> = log.trace(0).iter().map(|&e| log.events().name(e)).collect();
        assert_eq!(names, vec!["x", "z"]);
        // The vocabulary interns in trace order, not row order.
        let vocabulary: Vec<&str> = log.events().names().collect();
        assert_eq!(vocabulary, ["x", "z", "y", "w"]);
    }

    #[test]
    fn extra_columns_and_case_insensitive_header() {
        let csv = "timestamp,Case,Activity,actor\n1,o1,Receive,ann\n2,o1,Ship,bob\n";
        let log = read_csv_log(csv.as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.trace(0).len(), 2);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "case,activity\no1,\"Check, Inventory\"\no1,\"Say \"\"hi\"\"\"\n";
        let log = read_csv_log(csv.as_bytes()).unwrap();
        assert!(log.events().lookup("Check, Inventory").is_some());
        assert!(log.events().lookup("Say \"hi\"").is_some());
    }

    #[test]
    fn missing_columns_are_reported() {
        let err = read_csv_log("id,activity\n1,x\n".as_bytes()).unwrap_err();
        assert_eq!(err, CsvLogError::MissingColumn { column: "case" });
        let err = read_csv_log("".as_bytes()).unwrap_err();
        assert!(matches!(err, CsvLogError::MissingColumn { .. }));
    }

    #[test]
    fn short_rows_are_reported_with_line_numbers() {
        let err = read_csv_log("case,activity\no1\n".as_bytes()).unwrap_err();
        assert_eq!(
            err,
            CsvLogError::ShortRow {
                line: 2,
                found: 1,
                needed: 2
            }
        );
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_csv_log("case,activity\no1,\"oops\n".as_bytes()).unwrap_err();
        assert_eq!(err, CsvLogError::UnterminatedQuote { line: 2 });
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "case,activity\n\no1,x\n\n";
        let log = read_csv_log(csv.as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut b = LogBuilder::new();
        b.push_named_trace(["Receive", "Check, Inventory", "Ship"]);
        b.push_named_trace(["Receive", "Cancel"]);
        let log = b.build();
        let mut buf = Vec::new();
        write_csv_log(&log, &mut buf).unwrap();
        let back = read_csv_log(buf.as_slice()).unwrap();
        assert_eq!(back.len(), log.len());
        for (a, b) in log.traces().zip(back.traces()) {
            let na: Vec<&str> = a.iter().map(|&e| log.events().name(e)).collect();
            let nb: Vec<&str> = b.iter().map(|&e| back.events().name(e)).collect();
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn names_the_reader_would_trim_or_split_are_rejected_on_write() {
        for name in [" Ship", "Ship\t", "Check\nInventory", "Pay\r"] {
            let mut b = LogBuilder::new();
            b.push_named_trace([name]);
            let err = write_csv_log(&b.build(), &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{name:?}");
        }
    }

    use crate::ingest::{IngestLimits, IngestOptions, LimitKind, QuarantineCause};

    #[test]
    fn lenient_quarantines_short_rows_and_keeps_the_rest() {
        let csv = "case,activity\no1,Receive\no1\no1,Ship\n";
        let ingest = read_csv_log_with(csv.as_bytes(), &IngestOptions::lenient()).unwrap();
        assert_eq!(ingest.log.len(), 1);
        assert_eq!(ingest.log.trace(0).len(), 2);
        let e = &ingest.quarantine.entries()[0];
        assert_eq!(e.line, 3);
        assert_eq!(
            e.cause,
            QuarantineCause::ShortRow {
                found: 1,
                needed: 2
            }
        );
    }

    #[test]
    fn lenient_quarantines_unterminated_quotes_and_bad_utf8() {
        let csv: &[u8] = b"case,activity\no1,\"oops\no1,\xff\xfe\no1,fine\n";
        let ingest = read_csv_log_with(csv, &IngestOptions::lenient()).unwrap();
        assert_eq!(ingest.log.len(), 1);
        assert_eq!(ingest.log.trace(0).len(), 1);
        assert_eq!(
            ingest.quarantine.counts().get("unterminated_quote"),
            Some(&1)
        );
        assert_eq!(ingest.quarantine.counts().get("invalid_utf8"), Some(&1));
    }

    #[test]
    fn header_problems_are_fatal_even_in_lenient_mode() {
        let err = read_csv_log_with("id,activity\n1,x\n".as_bytes(), &IngestOptions::lenient())
            .unwrap_err();
        assert_eq!(err, CsvLogError::MissingColumn { column: "case" });
        let bad_header: &[u8] = b"\xffcase,activity\no1,x\n";
        let err = read_csv_log_with(bad_header, &IngestOptions::lenient()).unwrap_err();
        assert_eq!(err, CsvLogError::InvalidUtf8 { line: 1 });
    }

    #[test]
    fn case_and_activity_limits_are_fatal_in_both_modes() {
        let csv = "case,activity\no1,a\no2,b\no3,c\n";
        let limits = IngestLimits::unlimited().with_max_traces(2);
        for opts in [
            IngestOptions::strict().with_limits(limits),
            IngestOptions::lenient().with_limits(limits),
        ] {
            let err = read_csv_log_with(csv.as_bytes(), &opts).unwrap_err();
            match err {
                CsvLogError::Limit(l) => {
                    assert_eq!(l.kind, LimitKind::Traces);
                    assert_eq!(l.line, 4);
                }
                other => panic!("expected limit error, got {other:?}"),
            }
        }
        let vocab = IngestLimits::unlimited().with_max_events(2);
        let err = read_csv_log_with(csv.as_bytes(), &IngestOptions::lenient().with_limits(vocab))
            .unwrap_err();
        assert!(matches!(
            err,
            CsvLogError::Limit(LimitExceeded {
                kind: LimitKind::Events,
                ..
            })
        ));
    }

    #[test]
    fn overlong_trace_rows_are_quarantined_in_lenient_mode() {
        let csv = "case,activity\no1,a\no1,b\no1,c\no2,x\n";
        let opts = IngestOptions::lenient()
            .with_limits(IngestLimits::unlimited().with_max_trace_events(2));
        let ingest = read_csv_log_with(csv.as_bytes(), &opts).unwrap();
        assert_eq!(ingest.log.trace(0).len(), 2);
        assert_eq!(ingest.log.trace(1).len(), 1);
        assert_eq!(ingest.quarantine.counts().get("trace_too_long"), Some(&1));
    }

    #[test]
    fn csv_quarantine_reports_are_deterministic() {
        let csv: &[u8] = b"case,activity\no1\no2,\"x\no3,\xff\no4,ok\n";
        let a = read_csv_log_with(csv, &IngestOptions::lenient()).unwrap();
        let b = read_csv_log_with(csv, &IngestOptions::lenient()).unwrap();
        assert_eq!(a.quarantine, b.quarantine);
        assert_eq!(a.quarantine.render(), b.quarantine.render());
        assert_eq!(a.log, b.log);
    }

    #[test]
    fn empty_log_writes_header_only() {
        let log = LogBuilder::new().build();
        let mut buf = Vec::new();
        write_csv_log(&log, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "case,activity\n");
        // And a header-only file reads back as an empty log.
        let back = read_csv_log("case,activity\n".as_bytes()).unwrap();
        assert!(back.is_empty());
    }
}
