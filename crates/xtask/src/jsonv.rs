//! A minimal JSON value parser for the perf tooling.
//!
//! Hand-rolled for the same reason the rest of xtask is: the build
//! containers are offline and the maintenance tool must never be the
//! thing that fails to build. Covers exactly the JSON the workspace's
//! own artifacts emit (objects, arrays, strings with the standard
//! escapes, numbers, booleans, null); object key order is preserved so
//! re-rendering a parsed document is canonical for documents produced by
//! the same writer.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep insertion order (no hash tables —
/// rendering must be deterministic).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; every counter this tool reads
    /// is well below 2^53, where `f64` is exact.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut at = 0;
        let value = parse_value(src, bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing garbage at byte {at}"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for other shapes.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Renders the value back to minified JSON, preserving object order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= u64::MAX as f64 {
                    let _ = write!(out, "{}", *n as i128);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn parse_value(src: &str, bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(src, bytes, at),
        Some(b'[') => parse_array(src, bytes, at),
        Some(b'"') => parse_string(src, bytes, at).map(Json::Str),
        Some(b't') => parse_literal(src, at, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(src, at, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(src, at, "null", Json::Null),
        Some(_) => parse_number(src, bytes, at),
    }
}

fn parse_literal(src: &str, at: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if src[*at..].starts_with(lit) {
        *at += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {at}", at = *at))
    }
}

fn parse_object(src: &str, bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    *at += 1; // consume `{`
    let mut pairs = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, at);
        let key = parse_string(src, bytes, at)?;
        skip_ws(bytes, at);
        if bytes.get(*at) != Some(&b':') {
            return Err(format!("expected `:` at byte {at}", at = *at));
        }
        *at += 1;
        let value = parse_value(src, bytes, at)?;
        pairs.push((key, value));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {at}", at = *at)),
        }
    }
}

fn parse_array(src: &str, bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    *at += 1; // consume `[`
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(src, bytes, at)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {at}", at = *at)),
        }
    }
}

fn parse_string(src: &str, bytes: &[u8], at: &mut usize) -> Result<String, String> {
    if bytes.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}", at = *at));
    }
    *at += 1;
    let mut out = String::new();
    loop {
        let rest = &src[*at..];
        let Some(c) = rest.chars().next() else {
            return Err("unterminated string".to_string());
        };
        *at += c.len_utf8();
        match c {
            '"' => return Ok(out),
            '\\' => {
                let Some(esc) = src[*at..].chars().next() else {
                    return Err("unterminated escape".to_string());
                };
                *at += esc.len_utf8();
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{0008}'),
                    'f' => out.push('\u{000c}'),
                    'u' => {
                        let hex = src
                            .get(*at..*at + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *at += 4;
                        // Surrogates never appear in this workspace's
                        // ASCII-escaped artifacts; map them to U+FFFD
                        // rather than failing the whole parse.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape `\\{other}`")),
                }
            }
            c => out.push(c),
        }
    }
}

fn parse_number(src: &str, bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    while *at < bytes.len() && matches!(bytes[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *at += 1;
    }
    src[start..*at]
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_shapes() {
        let doc = r#"{"bench":"profile","workload":{"seed":11,"method":"Pattern-Tight"},
            "host_parallelism":8,"work":{"search/pops":120,"search/meter_ticks":240},
            "wall_nanos":{"search":12345,"search/support-eval":99}}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("profile"));
        assert_eq!(v.get("host_parallelism").and_then(Json::as_u64), Some(8));
        let work = v.get("work").and_then(Json::as_obj).expect("work object");
        assert_eq!(work[0], ("search/pops".to_string(), Json::Num(120.0)));
        assert_eq!(
            v.get("workload").map(Json::render).as_deref(),
            Some(r#"{"seed":11,"method":"Pattern-Tight"}"#)
        );
    }

    #[test]
    fn parses_scalars_arrays_escapes_and_rejects_garbage() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(
            Json::parse("[1,2.5,\"a\\nb\",false]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Str("a\nb".to_string()),
                Json::Bool(false),
            ])
        );
        assert_eq!(
            Json::parse("\"\\u0041\"").unwrap(),
            Json::Str("A".to_string())
        );
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{\"a\"").is_err());
    }

    #[test]
    fn round_trips_minified_documents() {
        let doc = r#"{"a":1,"b":[true,null,"x\"y"],"c":{"d":-2}}"#;
        assert_eq!(Json::parse(doc).unwrap().render(), doc);
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
