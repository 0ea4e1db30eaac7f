//! Bounded in-memory search traces, serialized as JSON Lines.
//!
//! # Schema
//!
//! One JSON object per line, each an instantaneous point event:
//!
//! ```json
//! {"seq":4,"kind":"point","name":"search.pop","fields":{"depth":5}}
//! ```
//!
//! * `seq` — deterministic, strictly increasing event number (assigned in
//!   emission order, including events later dropped by the cap);
//! * `kind` — always `"point"`;
//! * `name` — dotted event name, same namespace as the metrics registry;
//! * `fields` — deterministic integer payload, sorted by key.
//!
//! No field reads the clock, so a trace is wholly deterministic: two runs
//! under the same processed cap write byte-identical files. Wall-clock time
//! lives in the phase profile ([`super::profile`]).
//!
//! A trailing meta line reports truncation:
//!
//! ```json
//! {"seq":4096,"kind":"point","name":"trace.dropped","fields":{"count":12}}
//! ```

use std::fmt::Write as _;
use std::io;

use super::json::{self, JsonValue};

/// Default maximum number of buffered events ([`TraceBuffer::new`]).
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// One trace event (see the module docs for the JSONL schema).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Deterministic emission number.
    pub seq: u64,
    /// Dotted event name.
    pub name: String,
    /// Deterministic integer payload, sorted by key at emission.
    pub fields: Vec<(String, u64)>,
}

impl TraceEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"seq\":{},\"kind\":\"point\",", self.seq);
        json::push_key(&mut out, "name");
        json::push_string(&mut out, &self.name);
        out.push(',');
        json::push_key(&mut out, "fields");
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, k);
            let _ = write!(out, "{v}");
        }
        out.push_str("}}");
        out
    }

    /// Parses one JSON line back into an event (inverse of
    /// [`TraceEvent::to_jsonl`]). `None` on any schema violation.
    pub fn parse(line: &str) -> Option<TraceEvent> {
        let v = JsonValue::parse(line.trim())?;
        let seq = v.get("seq")?.as_u64()?;
        if v.get("kind")?.as_str()? != "point" {
            return None;
        }
        let name = v.get("name")?.as_str()?.to_owned();
        let fields = match v.get("fields")? {
            JsonValue::Obj(pairs) => pairs
                .iter()
                .map(|(k, fv)| Some((k.clone(), fv.as_u64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(TraceEvent { seq, name, fields })
    }
}

/// A bounded buffer of trace events.
///
/// Events past the cap are counted (deterministically) and dropped; the
/// count is appended as a final `trace.dropped` meta event on export, so a
/// truncated trace is always recognizable as such.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuffer {
    /// A buffer holding up to [`DEFAULT_TRACE_CAP`] events.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_TRACE_CAP)
    }

    /// A buffer holding up to `cap` events.
    pub fn with_cap(cap: usize) -> Self {
        TraceBuffer {
            events: Vec::new(),
            cap,
            dropped: 0,
            next_seq: 0,
        }
    }

    /// Records one point event. `fields` are sorted by key before storage
    /// so the serialized form is canonical.
    pub fn point(&mut self, name: &str, mut fields: Vec<(String, u64)>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        fields.sort();
        self.events.push(TraceEvent {
            seq,
            name: name.to_owned(),
            fields,
        });
    }

    /// The buffered events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events dropped by the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the buffer as JSON Lines, appending a `trace.dropped` meta
    /// event when the cap truncated the stream.
    pub fn write_jsonl(&self, out: &mut dyn io::Write) -> io::Result<()> {
        for e in &self.events {
            writeln!(out, "{}", e.to_jsonl())?;
        }
        if self.dropped > 0 {
            let meta = TraceEvent {
                seq: self.next_seq,
                name: "trace.dropped".to_owned(),
                fields: vec![("count".to_owned(), self.dropped)],
            };
            writeln!(out, "{}", meta.to_jsonl())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_spans_and_points() {
        let mut buf = TraceBuffer::new();
        buf.point(
            "search.pop",
            vec![("pops".to_owned(), 17), ("depth".to_owned(), 3)],
        );
        buf.point("iso.probe", vec![("patterns".to_owned(), 5)]);
        for e in buf.events() {
            let line = e.to_jsonl();
            assert!(line.contains("\"kind\":\"point\""), "line: {line}");
            let back = TraceEvent::parse(&line).expect("round-trip parse");
            assert_eq!(&back, e, "line: {line}");
        }
        // Every event is a point; a line of any other kind is refused.
        let span = "{\"seq\":3,\"kind\":\"span\",\"name\":\"solve\",\"fields\":{},\"dur_nanos\":5}";
        assert!(TraceEvent::parse(span).is_none());
    }

    #[test]
    fn fields_are_canonically_sorted() {
        let mut buf = TraceBuffer::new();
        buf.point("x", vec![("b".to_owned(), 2), ("a".to_owned(), 1)]);
        assert_eq!(buf.events()[0].fields[0].0, "a");
    }

    #[test]
    fn cap_drops_and_counts_deterministically() {
        let mut buf = TraceBuffer::with_cap(2);
        for i in 0..5 {
            buf.point("e", vec![("i".to_owned(), i)]);
        }
        assert_eq!(buf.events().len(), 2);
        assert_eq!(buf.dropped(), 3);
        let mut out = Vec::new();
        buf.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let meta = TraceEvent::parse(lines[2]).unwrap();
        assert_eq!(meta.name, "trace.dropped");
        assert_eq!(meta.fields, vec![("count".to_owned(), 3)]);
        assert_eq!(meta.seq, 5, "meta seq continues the deterministic count");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(TraceEvent::parse("not json").is_none());
        assert!(TraceEvent::parse("{\"seq\":1}").is_none());
        assert!(
            TraceEvent::parse("{\"seq\":1,\"kind\":\"wat\",\"name\":\"x\",\"fields\":{}}")
                .is_none()
        );
        assert!(TraceEvent::parse(
            "{\"seq\":1,\"kind\":\"point\",\"name\":\"x\",\"fields\":{\"a\":\"str\"}}"
        )
        .is_none());
    }
}
