//! Lexical source model for the tidy lints.
//!
//! Tidy is a line-oriented scanner in the spirit of rust-lang/rust's
//! `tidy`: it does not parse Rust, it *lexes* it just enough that the
//! lints never fire on the contents of comments or string literals, know
//! which lines live inside `#[cfg(test)] mod … { … }` regions, and can
//! read `// tidy-allow:` waivers out of comments.

/// One scanned source line.
#[derive(Clone, Debug)]
pub struct Line {
    /// Code with comment bodies and string/char-literal contents blanked
    /// out (delimiters retained), so token searches cannot match prose.
    pub code: String,
    /// Concatenated comment text appearing on this line.
    pub comment: String,
    /// Whether the line lies in a `#[cfg(test)]`-gated module region.
    pub in_test_code: bool,
}

/// An inline waiver: `// tidy-allow: <lint>[, <lint>…] -- <justification>`.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// 1-based line the waiver comment sits on.
    pub at_line: usize,
    /// 1-based line the waiver applies to (same line if it shares one with
    /// code, otherwise the next line carrying code).
    pub target_line: usize,
    /// Lint names being waived.
    pub lints: Vec<String>,
}

/// A parse problem with a waiver comment itself.
#[derive(Clone, Debug)]
pub struct WaiverError {
    /// 1-based line of the malformed waiver.
    pub at_line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// A fully scanned source file.
#[derive(Clone, Debug)]
pub struct ScannedFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The scanned lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// Well-formed waivers found in comments.
    pub waivers: Vec<Waiver>,
    /// Malformed waivers (reported as violations by the driver).
    pub waiver_errors: Vec<WaiverError>,
}

/// Lexer mode between lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Code,
    /// Inside `/* … */`; block comments nest in Rust.
    BlockComment(u32),
    /// Inside a plain `"…"` string, which may span lines (raw newlines
    /// and `\`-continuations are both legal in Rust string literals).
    Str,
    /// Inside a raw string with this many `#`s in the delimiter.
    RawString(u32),
}

impl ScannedFile {
    /// Scans `source`, producing the lexical model the lints run on.
    pub fn parse(path: &str, source: &str) -> ScannedFile {
        let mut lines = Vec::new();
        let mut mode = Mode::Code;
        for raw in source.lines() {
            let (line, next_mode) = scan_line(raw, mode);
            mode = next_mode;
            lines.push(line);
        }
        mark_test_regions(&mut lines);
        let (waivers, waiver_errors) = collect_waivers(&lines);
        ScannedFile {
            path: path.to_string(),
            lines,
            waivers,
            waiver_errors,
        }
    }
}

/// Scans one physical line starting in `mode`; returns the scanned line
/// and the mode the next line starts in.
fn scan_line(raw: &str, start_mode: Mode) -> (Line, Mode) {
    let chars: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut mode = start_mode;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match mode {
            Mode::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    i += 2;
                    mode = if depth > 1 {
                        Mode::BlockComment(depth - 1)
                    } else {
                        Mode::Code
                    };
                } else if c == '/' && next == Some('*') {
                    i += 2;
                    mode = Mode::BlockComment(depth + 1);
                } else {
                    comment.push(c);
                    i += 1;
                }
                if mode == Mode::Code {
                    code.push_str("  ");
                }
            }
            Mode::Str => {
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    i += 1;
                    mode = Mode::Code;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::RawString(hashes) => {
                if c == '"' && raw_close_matches(&chars, i + 1, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    i += 1 + hashes as usize;
                    mode = Mode::Code;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Code => {
                if c == '/' && next == Some('/') {
                    comment.push_str(&raw[byte_index(raw, i + 2)..]);
                    break;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    i += 1;
                    mode = Mode::Str;
                } else if c == 'r'
                    && matches!(next, Some('"') | Some('#'))
                    && raw_string_here(&chars, i + 1)
                {
                    let hashes = count_hashes(&chars, i + 1);
                    code.push('r');
                    for _ in 0..hashes {
                        code.push('#');
                    }
                    code.push('"');
                    i += 1 + hashes as usize + 1;
                    mode = Mode::RawString(hashes);
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    if is_lifetime(&chars, i) {
                        code.push('\'');
                        i += 1;
                    } else {
                        code.push('\'');
                        i += 1;
                        i = skip_char_literal(&chars, i, &mut code);
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    let line = Line {
        code,
        comment,
        in_test_code: false,
    };
    (line, mode)
}

/// Maps a char index into `raw` to the corresponding byte index.
fn byte_index(raw: &str, char_idx: usize) -> usize {
    raw.char_indices()
        .nth(char_idx)
        .map_or(raw.len(), |(b, _)| b)
}

/// Whether the `#…"` run starting at `i` opens a raw string.
fn raw_string_here(chars: &[char], mut i: usize) -> bool {
    while chars.get(i) == Some(&'#') {
        i += 1;
    }
    chars.get(i) == Some(&'"')
}

/// Counts `#`s in a raw-string opener starting at `i`.
fn count_hashes(chars: &[char], mut i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

/// Whether `"` at `i` is followed by exactly `hashes` `#`s (raw close).
fn raw_close_matches(chars: &[char], mut i: usize, hashes: u32) -> bool {
    for _ in 0..hashes {
        if chars.get(i) != Some(&'#') {
            return false;
        }
        i += 1;
    }
    true
}

/// Consumes a char-literal body, blanking contents.
fn skip_char_literal(chars: &[char], mut i: usize, code: &mut String) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                code.push_str("  ");
                i += 2;
            }
            '\'' => {
                code.push('\'');
                return i + 1;
            }
            _ => {
                code.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Distinguishes `'a` (lifetime / loop label) from `'a'` (char literal):
/// a lifetime is `'` + ident char(s) not closed by another `'`.
fn is_lifetime(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some(c) if c.is_alphabetic() || *c == '_' => chars.get(i + 2) != Some(&'\''),
        _ => false,
    }
}

/// Marks lines inside `#[cfg(test)] mod … { … }` regions (including the
/// attribute and closing-brace lines themselves).
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    // When in a region, the depth to return to for the region to end.
    let mut region_exit: Option<i64> = None;
    for line in lines.iter_mut() {
        let opens = line.code.matches('{').count() as i64;
        let closes = line.code.matches('}').count() as i64;
        if let Some(exit) = region_exit {
            line.in_test_code = true;
            depth += opens - closes;
            if depth <= exit {
                region_exit = None;
            }
            continue;
        }
        if line.code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            line.in_test_code = true;
            // An inline `#[cfg(test)] mod t { … }` opener is handled below.
        }
        if pending_cfg_test && contains_token(&line.code, "mod") {
            line.in_test_code = true;
            if depth + opens - closes > depth {
                region_exit = Some(depth);
            }
            pending_cfg_test = false;
        } else if pending_cfg_test {
            let t = line.code.trim();
            // Attribute stacks and blank lines keep the pending flag alive;
            // any other item consumes it (we only skip *modules*).
            if !(t.is_empty() || t.starts_with("#[") || line.code.contains("#[cfg(test)]")) {
                pending_cfg_test = false;
            }
        }
        depth += opens - closes;
    }
}

/// Whether `code` contains `token` delimited by non-identifier characters.
pub fn contains_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

/// Finds `token` in `code` at an identifier boundary; returns its start.
///
/// Boundary checks only apply on sides where the token itself ends in an
/// identifier character, so needles like `.unwrap()` (starts with `.`)
/// match after an identifier while `panic!` cannot match inside
/// `no_panic!`.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let token_bytes = token.as_bytes();
    let check_before = token_bytes.first().copied().is_some_and(is_ident_byte);
    let check_after = token_bytes.last().copied().is_some_and(is_ident_byte);
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let ok_before = !check_before || start == 0 || !is_ident_byte(bytes[start - 1]);
        let ok_after = !check_after || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if ok_before && ok_after {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Extracts well-formed waivers and reports malformed ones.
fn collect_waivers(lines: &[Line]) -> (Vec<Waiver>, Vec<WaiverError>) {
    let mut waivers = Vec::new();
    let mut errors = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // A waiver must be the whole comment (`// tidy-allow: …`), so
        // prose *mentioning* the syntax mid-sentence never parses as one.
        let trimmed = line.comment.trim_start();
        let Some(rest) = trimmed.strip_prefix("tidy-allow:") else {
            continue;
        };
        let at_line = idx + 1;
        let rest = rest.trim();
        let Some((names, justification)) = rest.split_once("--") else {
            errors.push(WaiverError {
                at_line,
                message: "waiver is missing a `-- <justification>` clause".to_string(),
            });
            continue;
        };
        let justification = justification.trim();
        if justification.is_empty() {
            errors.push(WaiverError {
                at_line,
                message: "waiver justification is empty".to_string(),
            });
            continue;
        }
        let lints: Vec<String> = names
            .split([',', ' '])
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if lints.is_empty() {
            errors.push(WaiverError {
                at_line,
                message: "waiver names no lints".to_string(),
            });
            continue;
        }
        // A waiver that shares its line with code applies there; a waiver
        // on a comment-only line applies to the next line carrying code.
        let target_line = if line.code.trim().is_empty() {
            lines
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(_, l)| !l.code.trim().is_empty())
                .map_or(at_line, |(j, _)| j + 1)
        } else {
            at_line
        };
        waivers.push(Waiver {
            at_line,
            target_line,
            lints,
        });
    }
    (waivers, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = ScannedFile::parse(
            "x.rs",
            "let s = \"panic!\"; // panic! in comment\nlet r = r#\"unwrap()\"#;",
        );
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].comment.contains("panic! in comment"));
        assert!(!f.lines[1].code.contains("unwrap"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = ScannedFile::parse(
            "x.rs",
            "/* a /* b */ still */ code();\n/* open\nunwrap()\n*/ tail();",
        );
        assert!(f.lines[0].code.contains("code()"));
        assert!(!f.lines[0].code.contains("still"));
        assert!(!f.lines[2].code.contains("unwrap"));
        assert!(f.lines[3].code.contains("tail()"));
    }

    #[test]
    fn plain_strings_span_lines() {
        // Raw newlines and `\`-continuations are both legal inside `"…"`.
        let f = ScannedFile::parse(
            "x.rs",
            "let s = \"first\nmiddle // tidy-allow: fake -- nope\nlast\"; done();",
        );
        assert!(f.waivers.is_empty());
        assert!(f.waiver_errors.is_empty());
        assert!(!f.lines[1].code.contains("tidy-allow"));
        assert!(f.lines[2].code.contains("done()"));
        let cont = ScannedFile::parse("x.rs", "let s = \"one \\\n  two\"; after();");
        assert!(cont.lines[1].code.contains("after()"));
        assert!(!cont.lines[1].code.contains("two"));
    }

    #[test]
    fn raw_strings_span_lines() {
        let f = ScannedFile::parse("x.rs", "let s = r#\"line one\nunwrap()\n\"#; after();");
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("after()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = ScannedFile::parse("x.rs", "fn f<'a>(x: &'a str) { g::<'_>(x, 'x', '\\n'); }");
        // The code after the lifetime must survive blanking.
        assert!(f.lines[0].code.contains("str"));
        assert!(f.lines[0].code.contains("g::<"));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}";
        let f = ScannedFile::parse("x.rs", src);
        assert!(!f.lines[0].in_test_code);
        assert!(f.lines[1].in_test_code);
        assert!(f.lines[2].in_test_code);
        assert!(f.lines[3].in_test_code);
        assert!(f.lines[4].in_test_code);
        assert!(!f.lines[5].in_test_code);
    }

    #[test]
    fn cfg_test_on_a_function_does_not_swallow_the_file() {
        let src = "#[cfg(test)]\nfn helper() {}\nfn real() { x.unwrap(); }";
        let f = ScannedFile::parse("x.rs", src);
        assert!(!f.lines[2].in_test_code);
    }

    #[test]
    fn waivers_parse_and_target_the_right_line() {
        let src = "// tidy-allow: no-float-eq -- exact half\nlet x = y == 0.5;\nlet z = w == 0.5; // tidy-allow: no-float-eq -- exact half";
        let f = ScannedFile::parse("x.rs", src);
        assert_eq!(f.waivers.len(), 2);
        assert_eq!(f.waivers[0].target_line, 2);
        assert_eq!(f.waivers[1].target_line, 3);
        assert_eq!(f.waivers[0].lints, vec!["no-float-eq"]);
    }

    #[test]
    fn malformed_waivers_are_reported() {
        let src =
            "// tidy-allow: no-float-eq\nlet x = y == 0.5;\n// tidy-allow: no-float-eq -- \nz();";
        let f = ScannedFile::parse("x.rs", src);
        assert_eq!(f.waivers.len(), 0);
        assert_eq!(f.waiver_errors.len(), 2);
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(contains_token("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_token("struct MyHashMapLike;", "HashMap"));
        assert!(!contains_token("no_panic!()", "panic!"));
        assert!(contains_token("panic!(\"boom\")", "panic!"));
    }
}
