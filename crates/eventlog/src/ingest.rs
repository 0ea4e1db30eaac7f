//! Hardened ingestion: lenient parsing with quarantine reports and
//! configurable resource limits.
//!
//! Production logs are dirty: encodings drift, exporters truncate lines,
//! rows lose fields. The strict readers ([`crate::read_log`],
//! [`crate::read_csv_log`]) keep their fail-fast contract, while the
//! `*_with` variants accept [`IngestOptions`] selecting a **lenient** mode
//! that skips malformed input into a structured [`Quarantine`] report
//! instead of aborting the whole load. Orthogonally, [`IngestLimits`]
//! bound the resources any input may claim (vocabulary size, trace count,
//! trace length, line bytes), turning resource-exhaustion inputs into
//! typed [`LimitExceeded`] errors.
//!
//! Quarantine reports are deterministic: the same input bytes produce a
//! byte-identical [`Quarantine::render`] output, and the per-cause counts
//! are exposed as `ingest.quarantined.<cause>` counter pairs for the
//! telemetry registry (the CLI merges them into its metrics snapshot).

use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

use crate::log::EventLog;

/// How malformed input is handled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IngestMode {
    /// Fail fast on the first malformed line (today's contract).
    #[default]
    Strict,
    /// Skip malformed lines into a [`Quarantine`] report and keep going.
    Lenient,
}

/// Resource guards applied while ingesting.
///
/// Every limit defaults to "unlimited" (`usize::MAX`). Limits on the
/// *aggregate* resources a file may claim — vocabulary size and trace
/// count — are enforced in **both** modes, because exceeding them means
/// the caller cannot safely hold the result in memory; per-line limits
/// (line bytes, trace length) quarantine the offending line in lenient
/// mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestLimits {
    /// Maximum number of distinct event names (vocabulary size).
    pub max_events: usize,
    /// Maximum number of traces.
    pub max_traces: usize,
    /// Maximum number of events in a single trace.
    pub max_trace_events: usize,
    /// Maximum bytes in a single input line (terminator excluded).
    pub max_line_bytes: usize,
}

impl Default for IngestLimits {
    fn default() -> Self {
        IngestLimits {
            max_events: usize::MAX,
            max_traces: usize::MAX,
            max_trace_events: usize::MAX,
            max_line_bytes: usize::MAX,
        }
    }
}

impl IngestLimits {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the vocabulary size.
    #[must_use]
    pub fn with_max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Caps the number of traces.
    #[must_use]
    pub fn with_max_traces(mut self, n: usize) -> Self {
        self.max_traces = n;
        self
    }

    /// Caps the length of a single trace.
    #[must_use]
    pub fn with_max_trace_events(mut self, n: usize) -> Self {
        self.max_trace_events = n;
        self
    }

    /// Caps the bytes of a single input line.
    #[must_use]
    pub fn with_max_line_bytes(mut self, n: usize) -> Self {
        self.max_line_bytes = n;
        self
    }
}

/// Options steering an ingestion run: mode plus limits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestOptions {
    /// Strict (fail-fast) or lenient (quarantine) handling.
    pub mode: IngestMode,
    /// Resource guards.
    pub limits: IngestLimits,
}

impl IngestOptions {
    /// Strict mode, no limits — the behaviour of the plain readers.
    pub fn strict() -> Self {
        Self::default()
    }

    /// Lenient mode, no limits.
    pub fn lenient() -> Self {
        IngestOptions {
            mode: IngestMode::Lenient,
            limits: IngestLimits::default(),
        }
    }

    /// Replaces the limits.
    #[must_use]
    pub fn with_limits(mut self, limits: IngestLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Whether malformed lines are quarantined instead of fatal.
    pub fn is_lenient(&self) -> bool {
        self.mode == IngestMode::Lenient
    }
}

/// Which [`IngestLimits`] bound was exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitKind {
    /// `max_events` (vocabulary size).
    Events,
    /// `max_traces`.
    Traces,
    /// `max_trace_events`.
    TraceEvents,
    /// `max_line_bytes`.
    LineBytes,
}

impl LimitKind {
    /// Human-readable name of the limit.
    pub fn name(self) -> &'static str {
        match self {
            LimitKind::Events => "max-events",
            LimitKind::Traces => "max-traces",
            LimitKind::TraceEvents => "max-trace-len",
            LimitKind::LineBytes => "max-line-bytes",
        }
    }
}

/// Typed resource-exhaustion error: an [`IngestLimits`] bound was hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LimitExceeded {
    /// Which bound.
    pub kind: LimitKind,
    /// The observed value that crossed the bound.
    pub observed: usize,
    /// The configured maximum.
    pub max: usize,
    /// 1-based line number where the bound was crossed.
    pub line: usize,
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} limit exceeded ({} > {})",
            self.line,
            self.kind.name(),
            self.observed,
            self.max
        )
    }
}

impl std::error::Error for LimitExceeded {}

/// Why a line was quarantined in lenient mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuarantineCause {
    /// The line is not valid UTF-8.
    InvalidUtf8,
    /// The line exceeds `max_line_bytes`.
    LineTooLong,
    /// The trace on this line exceeds `max_trace_events`.
    TraceTooLong,
    /// The `<empty>` marker was mixed with event names.
    MixedEmptyMarker,
    /// A `#!` directive the text format does not understand.
    UnknownDirective,
    /// A CSV row with fewer fields than the header requires.
    ShortRow {
        /// Fields found.
        found: usize,
        /// Fields needed to cover the case/activity columns.
        needed: usize,
    },
    /// A CSV quoted field not terminated before end of line.
    UnterminatedQuote,
}

impl QuarantineCause {
    /// Stable slug used as the `ingest.quarantined.<cause>` counter key.
    pub fn slug(&self) -> &'static str {
        match self {
            QuarantineCause::InvalidUtf8 => "invalid_utf8",
            QuarantineCause::LineTooLong => "line_too_long",
            QuarantineCause::TraceTooLong => "trace_too_long",
            QuarantineCause::MixedEmptyMarker => "mixed_empty_marker",
            QuarantineCause::UnknownDirective => "unknown_directive",
            QuarantineCause::ShortRow { .. } => "short_row",
            QuarantineCause::UnterminatedQuote => "unterminated_quote",
        }
    }
}

impl fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineCause::ShortRow { found, needed } => {
                write!(f, "short_row (found {found}, needed {needed})")
            }
            other => f.write_str(other.slug()),
        }
    }
}

/// One quarantined line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// 1-based line number in the input.
    pub line: usize,
    /// Byte offset of the start of the line.
    pub byte_offset: u64,
    /// Why the line was skipped.
    pub cause: QuarantineCause,
    /// A short, lossily-decoded excerpt of the raw line.
    pub excerpt: String,
}

/// Maximum number of [`QuarantineEntry`] values stored verbatim; counts
/// keep accumulating past this, so totals stay exact on hostile inputs
/// while memory stays bounded.
pub const MAX_QUARANTINE_ENTRIES: usize = 100;

/// Maximum bytes kept in a [`QuarantineEntry::excerpt`].
pub const MAX_EXCERPT_BYTES: usize = 80;

/// Structured report of everything lenient ingestion skipped.
///
/// Deterministic: the same input bytes yield an identical report
/// ([`Quarantine::render`] is byte-stable), so reports can be diffed and
/// asserted on in tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Quarantine {
    entries: Vec<QuarantineEntry>,
    counts: BTreeMap<&'static str, u64>,
    total: u64,
}

impl Quarantine {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one skipped line. The first [`MAX_QUARANTINE_ENTRIES`]
    /// entries are stored verbatim; later ones only bump the counts.
    pub fn record(&mut self, entry: QuarantineEntry) {
        *self.counts.entry(entry.cause.slug()).or_insert(0) += 1;
        self.total += 1;
        if self.entries.len() < MAX_QUARANTINE_ENTRIES {
            self.entries.push(entry);
        }
    }

    /// Whether nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total number of quarantined lines (exact, even past the stored cap).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The stored entries (first [`MAX_QUARANTINE_ENTRIES`] only).
    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }

    /// Per-cause counts keyed by [`QuarantineCause::slug`].
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Deterministic `(counter name, count)` pairs for the telemetry
    /// registry: `ingest.quarantined.<cause>`.
    pub fn counter_pairs(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        self.counts
            .iter()
            .map(|(slug, n)| (format!("ingest.quarantined.{slug}"), *n))
    }

    /// Renders the report as deterministic human-readable text: a count
    /// summary followed by the stored entries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("quarantined {} line(s)\n", self.total));
        for (slug, n) in &self.counts {
            out.push_str(&format!("  {slug}: {n}\n"));
        }
        for e in &self.entries {
            out.push_str(&format!(
                "  line {} (byte {}): {} | {:?}\n",
                e.line, e.byte_offset, e.cause, e.excerpt
            ));
        }
        if (self.entries.len() as u64) < self.total {
            out.push_str(&format!(
                "  … {} more not stored\n",
                self.total - self.entries.len() as u64
            ));
        }
        out
    }
}

/// Result of a lenient (or strict) ingestion run: the parsed log plus the
/// quarantine report (always empty in strict mode — strict fails instead).
#[derive(Clone, Debug, PartialEq)]
pub struct Ingest {
    /// The successfully parsed portion of the input.
    pub log: EventLog,
    /// What was skipped, and why.
    pub quarantine: Quarantine,
}

/// Truncates `bytes` to at most [`MAX_EXCERPT_BYTES`], decodes lossily,
/// and trims to a character boundary, appending `…` when cut.
pub(crate) fn excerpt(bytes: &[u8]) -> String {
    let cut = bytes.len() > MAX_EXCERPT_BYTES;
    let slice = if cut {
        &bytes[..MAX_EXCERPT_BYTES]
    } else {
        bytes
    };
    let mut s = String::from_utf8_lossy(slice).into_owned();
    if cut {
        s.push('…');
    }
    s
}

/// One raw physical line as delivered by [`LineReader`].
pub(crate) enum RawLine<'a> {
    /// A complete, valid-UTF-8 line (terminator stripped), borrowed from
    /// the reader's line buffer.
    Text(&'a str),
    /// The line was not valid UTF-8; carries an excerpt of the raw bytes.
    InvalidUtf8 {
        /// Lossy excerpt of the offending bytes.
        excerpt: String,
    },
    /// The line exceeded `max_line_bytes`; carries its true byte length
    /// (terminator excluded) and an excerpt of the retained prefix.
    TooLong {
        /// Total bytes the line actually occupied.
        len: usize,
        /// Lossy excerpt of the retained prefix.
        excerpt: String,
    },
}

/// A bounded, byte-offset-tracking line reader.
///
/// Unlike [`BufRead::lines`], this never buffers more than
/// `max_line_bytes` of a single line: excess bytes are counted and
/// discarded while scanning for the terminator, so a terabyte-long line
/// costs O(`max_line_bytes`) memory. It also reports the byte offset of
/// each line start and keeps invalid UTF-8 a per-line condition instead
/// of a stream-fatal error. One buffer is reused for every line.
pub(crate) struct LineReader<R> {
    inner: R,
    /// Byte offset of the next unread byte.
    offset: u64,
    max_line_bytes: usize,
    /// The retained bytes of the current line.
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(inner: R, max_line_bytes: usize) -> Self {
        LineReader {
            inner,
            offset: 0,
            max_line_bytes,
            buf: Vec::new(),
        }
    }

    /// Returns the next line as `(start_offset, raw)`, or `None` at EOF.
    pub(crate) fn next_line(&mut self) -> std::io::Result<Option<(u64, RawLine<'_>)>> {
        let start = self.offset;
        // Retain one extra byte so a line of exactly `max_line_bytes`
        // bytes is distinguishable from a longer one without a flag.
        let keep = self.max_line_bytes.saturating_add(1);
        let buf = &mut self.buf;
        buf.clear();
        let mut line_len: usize = 0;
        let mut saw_any = false;
        let mut terminated = false;
        // Whether the line so far ends in `\r`, retained or not.
        let mut ends_in_cr = false;
        while !terminated {
            let chunk = self.inner.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            saw_any = true;
            let (line_part, consumed) = match chunk.iter().position(|&b| b == b'\n') {
                Some(p) => {
                    terminated = true;
                    (&chunk[..p], p + 1)
                }
                None => (chunk, chunk.len()),
            };
            line_len += line_part.len();
            ends_in_cr = line_part.last().map_or(ends_in_cr, |&b| b == b'\r');
            if buf.len() < keep {
                let room = keep - buf.len();
                buf.extend_from_slice(&line_part[..line_part.len().min(room)]);
            }
            self.inner.consume(consumed);
            self.offset += consumed as u64;
        }
        if !saw_any {
            return Ok(None);
        }
        // Tolerate CRLF: a trailing `\r` belongs to the terminator; the
        // truncation drops it only where it was retained.
        if terminated && ends_in_cr {
            line_len -= 1;
            buf.truncate(line_len);
        }
        let raw = if line_len > self.max_line_bytes {
            RawLine::TooLong {
                len: line_len,
                // Drop the disambiguation byte so the excerpt only shows
                // bytes within the configured limit.
                excerpt: excerpt(&buf[..buf.len().min(self.max_line_bytes)]),
            }
        } else {
            match std::str::from_utf8(buf) {
                Ok(text) => RawLine::Text(text),
                Err(_) => RawLine::InvalidUtf8 {
                    excerpt: excerpt(buf),
                },
            }
        };
        Ok(Some((start, raw)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(input: &[u8], max: usize) -> Vec<(u64, String)> {
        let mut r = LineReader::new(input, max);
        let mut out = Vec::new();
        while let Some((off, raw)) = r.next_line().unwrap() {
            let tag = match raw {
                RawLine::Text(t) => format!("ok:{t}"),
                RawLine::InvalidUtf8 { excerpt } => format!("bad-utf8:{excerpt}"),
                RawLine::TooLong { len, excerpt } => format!("long({len}):{excerpt}"),
            };
            out.push((off, tag));
        }
        out
    }

    #[test]
    fn tracks_byte_offsets_per_line() {
        let got = lines_of(b"ab\ncd\n\nxyz", usize::MAX);
        assert_eq!(
            got,
            vec![
                (0, "ok:ab".into()),
                (3, "ok:cd".into()),
                (6, "ok:".into()),
                (7, "ok:xyz".into()),
            ]
        );
    }

    #[test]
    fn crlf_terminators_are_stripped() {
        let got = lines_of(b"ab\r\ncd\r\n", usize::MAX);
        assert_eq!(got[0].1, "ok:ab");
        assert_eq!(got[1].1, "ok:cd");
        // The \r still counts toward the next line's offset.
        assert_eq!(got[1].0, 4);
    }

    #[test]
    fn overlong_lines_report_true_length_without_buffering() {
        let mut input = vec![b'x'; 1000];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = lines_of(&input, 8);
        assert_eq!(got[0].1, "long(1000):xxxxxxxx");
        assert_eq!(got[1], (1001, "ok:ok".into()));
        // The `\r` of a CRLF terminator is not part of the length either.
        let got = lines_of(b"123456789012\r\nok\r\n", 10);
        assert_eq!(got[0].1, "long(12):1234567890");
        assert_eq!(got[1], (14, "ok:ok".into()));
    }

    #[test]
    fn line_exactly_at_the_limit_is_fine() {
        let got = lines_of(b"12345678\n", 8);
        assert_eq!(got[0].1, "ok:12345678");
    }

    #[test]
    fn invalid_utf8_is_per_line_not_stream_fatal() {
        let got = lines_of(b"ok\n\xff\xfe\nalso-ok\n", usize::MAX);
        assert_eq!(got[0].1, "ok:ok");
        assert!(got[1].1.starts_with("bad-utf8:"));
        assert_eq!(got[2].1, "ok:also-ok");
    }

    #[test]
    fn excerpt_truncates_at_char_boundary() {
        // 40 two-byte characters = 80 bytes, then one more pushes past.
        let s = "é".repeat(41);
        let e = excerpt(s.as_bytes());
        assert!(e.ends_with('…'));
        assert!(e.chars().count() <= 41);
    }

    #[test]
    fn quarantine_counts_are_exact_past_the_stored_cap() {
        let mut q = Quarantine::new();
        for i in 0..(MAX_QUARANTINE_ENTRIES + 7) {
            q.record(QuarantineEntry {
                line: i + 1,
                byte_offset: 0,
                cause: QuarantineCause::InvalidUtf8,
                excerpt: String::new(),
            });
        }
        assert_eq!(q.entries().len(), MAX_QUARANTINE_ENTRIES);
        assert_eq!(q.total(), (MAX_QUARANTINE_ENTRIES + 7) as u64);
        assert_eq!(
            q.counts().get("invalid_utf8"),
            Some(&((MAX_QUARANTINE_ENTRIES + 7) as u64))
        );
        let pairs: Vec<_> = q.counter_pairs().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, "ingest.quarantined.invalid_utf8");
        assert!(q.render().contains("more not stored"));
    }

    #[test]
    fn quarantine_cap_boundary_exactly_at_cap_stores_everything() {
        // Exactly MAX_QUARANTINE_ENTRIES records: every entry is stored
        // verbatim and the render claims no truncation.
        let mut q = Quarantine::new();
        for i in 0..MAX_QUARANTINE_ENTRIES {
            q.record(QuarantineEntry {
                line: i + 1,
                byte_offset: 0,
                cause: QuarantineCause::InvalidUtf8,
                excerpt: String::new(),
            });
        }
        assert_eq!(q.entries().len(), MAX_QUARANTINE_ENTRIES);
        assert_eq!(q.total(), MAX_QUARANTINE_ENTRIES as u64);
        assert_eq!(
            q.entries().last().map(|e| e.line),
            Some(MAX_QUARANTINE_ENTRIES)
        );
        assert!(
            !q.render().contains("more not stored"),
            "at exactly the cap nothing was dropped, so the render must not claim truncation"
        );
    }

    #[test]
    fn quarantine_cap_boundary_one_over_drops_only_the_last() {
        // One past the cap: the first MAX_QUARANTINE_ENTRIES entries stay
        // verbatim (the overflow entry is the one not stored), the total
        // stays exact, and the render discloses the truncation.
        let mut q = Quarantine::new();
        for i in 0..=MAX_QUARANTINE_ENTRIES {
            q.record(QuarantineEntry {
                line: i + 1,
                byte_offset: 0,
                cause: QuarantineCause::InvalidUtf8,
                excerpt: String::new(),
            });
        }
        assert_eq!(q.entries().len(), MAX_QUARANTINE_ENTRIES);
        assert_eq!(q.total(), MAX_QUARANTINE_ENTRIES as u64 + 1);
        assert_eq!(
            q.entries().last().map(|e| e.line),
            Some(MAX_QUARANTINE_ENTRIES)
        );
        assert!(q.render().contains("more not stored"));
    }

    #[test]
    fn limit_exceeded_displays_all_fields() {
        let e = LimitExceeded {
            kind: LimitKind::Events,
            observed: 11,
            max: 10,
            line: 3,
        };
        let s = e.to_string();
        assert!(s.contains("line 3"));
        assert!(s.contains("max-events"));
        assert!(s.contains("11 > 10"));
    }
}
