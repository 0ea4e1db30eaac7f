//! Minimal zero-dependency JSON writing and reading.
//!
//! The workspace bakes in no serialization crates, so the telemetry layer
//! hand-rolls the tiny subset of JSON it needs: object/array/string/number
//! writing with correct string escaping, a recursive-descent reader used by
//! the JSONL round-trip tests, schema validation and `cargo xtask perf`,
//! and a minified renderer for parsed values. Numbers are kept as raw
//! token strings on the read side so `u64` counters survive round-trips
//! exactly (no `f64` detour).

use std::fmt::{Display, Write as _};

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `"key":` to `out`.
pub fn push_key(out: &mut String, key: &str) {
    push_string(out, key);
    out.push(':');
}

/// Appends a flat `{"key":n,…}` object of counters, in iteration order.
pub fn push_counters<K: AsRef<str>, V: Display>(
    out: &mut String,
    counters: impl IntoIterator<Item = (K, V)>,
) {
    out.push('{');
    for (i, (key, n)) in counters.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_key(out, key.as_ref());
        let _ = write!(out, "{n}");
    }
    out.push('}');
}

/// A parsed JSON value. Numbers keep their raw token text so integer
/// values round-trip without floating-point loss.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token text (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Option<JsonValue> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Looks up `key` in an object; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is an integer number token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields in source order, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as minified JSON. Field order and number tokens
    /// are kept as parsed, so a minified document renders back to its own
    /// bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => push_string(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_key(out, key);
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'n' => eat(bytes, pos, "null").map(|_| JsonValue::Null),
        b't' => eat(bytes, pos, "true").map(|_| JsonValue::Bool(true)),
        b'f' => eat(bytes, pos, "false").map(|_| JsonValue::Bool(false)),
        b'"' => parse_string(bytes, pos).map(JsonValue::Str),
        b'[' => parse_array(bytes, pos),
        b'{' => parse_object(bytes, pos),
        _ => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    eat(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        // Surrogate pairs are not produced by our writer;
                        // lone surrogates map to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).ok()?;
    // Validate the token by parsing it as f64 (value is kept as text).
    raw.parse::<f64>().ok()?;
    Some(JsonValue::Num(raw.to_owned()))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    eat(bytes, pos, "[")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(JsonValue::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    eat(bytes, pos, "{")?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        eat(bytes, pos, ":")?;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(JsonValue::Obj(fields));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g — ünïcödé";
        let mut out = String::new();
        push_string(&mut out, nasty);
        let parsed = JsonValue::parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some(nasty));
    }

    #[test]
    fn u64_numbers_round_trip_exactly() {
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn objects_arrays_and_lookup() {
        let v = JsonValue::parse(r#"{"a": [1, 2, {"b": true}], "c": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].get("b"),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_obj().map(<[_]>::len), Some(2));
    }

    #[test]
    fn round_trips_minified_documents() {
        let doc = r#"{"work":{"search/pops":120},"x":[true,false,null,"q\"\n",-2.5e3,[]],"o":{}}"#;
        assert_eq!(JsonValue::parse(doc).unwrap().render(), doc);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(JsonValue::parse("{} x").is_none());
        assert!(JsonValue::parse("[1,]").is_none());
        assert!(JsonValue::parse("{\"a\" 1}").is_none());
        assert!(JsonValue::parse("").is_none());
    }
}
