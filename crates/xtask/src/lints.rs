//! The tidy lints (T3, T5, T10, T11, T13) and the waiver machinery.
//!
//! Each lint is a pure function from a scanned file (or manifest text) to
//! violations, so the unit tests below can drive them with inline
//! fixtures. Path scoping — which crates and which files a lint applies
//! to — lives here too, and is tested the same way. The rules clippy can
//! check on resolved paths (T1, T2, T4, T6–T9, T15) live in
//! `crates/clippy.toml`, the library roots' `#![warn(...)]` lines and the
//! workspace `[lints]` table instead.

use crate::scan::{find_token, ScannedFile};

/// Crates in which raw floating-point comparisons are forbidden (lint T3).
pub const FLOAT_ORD_CRATES: &[&str] = &["core", "eval", "evematch", "eventlog", "graph", "pattern"];

/// The one module allowed to touch raw float comparison primitives.
pub const FLOAT_ORD_MODULE: &str = "crates/core/src/score/float_ord.rs";

/// How many lines above an atomic `Ordering::` use an `// ordering:`
/// comment may sit and still justify it (lint T10). The window covers
/// multi-line `compare_exchange` argument lists and struct literals whose
/// shared justification sits above the expression.
pub const ORDERING_LOOKBACK: usize = 10;

/// Crates whose runtime source must classify every swallowed I/O error
/// (lint T13). A `.ok()` / `let _ =` on an I/O result erases the
/// [`evematch_core::fault`] taxonomy: the caller can no longer tell a
/// transient hiccup (retry it) from a permanent failure (surface it) from
/// corruption (quarantine it). Swallowing is sometimes right — a
/// best-effort parent-dir fsync, a telemetry write — but each such site
/// carries a waiver saying *why* the class does not matter there.
pub const IO_CLASSIFIED_CRATES: &[&str] = &["bench", "core", "eval", "evematch"];

/// A tidy lint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// T3: no raw `f64` equality or `partial_cmp` outside `float_ord`.
    NoFloatEq,
    /// T10: every atomic `Ordering::` argument carries an `// ordering:`
    /// justification comment.
    OrderingJustified,
    /// T11: lock discipline — no nested guard acquisition, no guard held
    /// across a user-supplied closure call.
    LockDiscipline,
    /// T13: no silently swallowed I/O errors in the fault-classified
    /// crates — every discarded `io::Result` routes through the
    /// `core::fault` taxonomy or carries a waiver.
    UnclassifiedIo,
    /// T5: every crate manifest inherits `[workspace.lints]`.
    LintsTable,
    /// A `tidy-allow` waiver that suppressed nothing.
    UnusedWaiver,
    /// A `tidy-allow` waiver that does not parse.
    BadWaiver,
}

impl Lint {
    /// The lints an inline `tidy-allow:` waiver can suppress.
    pub const WAIVABLE: [Lint; 4] = [
        Lint::NoFloatEq,
        Lint::OrderingJustified,
        Lint::LockDiscipline,
        Lint::UnclassifiedIo,
    ];

    /// The name used in output and in `tidy-allow:` waivers.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoFloatEq => "no-float-eq",
            Lint::OrderingJustified => "ordering-justified",
            Lint::LockDiscipline => "lock-discipline",
            Lint::UnclassifiedIo => "no-unclassified-io",
            Lint::LintsTable => "lints-table",
            Lint::UnusedWaiver => "unused-waiver",
            Lint::BadWaiver => "bad-waiver",
        }
    }
}

/// One tidy violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line (0 for whole-file problems).
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    fn new(path: &str, line: usize, lint: Lint, message: impl Into<String>) -> Self {
        Violation {
            path: path.to_string(),
            line,
            lint,
            message: message.into(),
        }
    }
}

/// Whether `path` is non-test *library* source: under `src/`, not under
/// `src/bin/`, and not in a `tests/`, `benches/`, or `examples/` tree.
pub fn is_library_source(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let Some((_, in_crate)) = rest.split_once('/') else {
        return false;
    };
    in_crate.starts_with("src/") && !in_crate.starts_with("src/bin/")
}

/// Whether `path` is crate *runtime* source: under `src/` — including
/// `src/bin/`, unlike [`is_library_source`] — but not in a `tests/`,
/// `benches/`, or `examples/` tree. Lints T10, T11 and T13 use this wider
/// scope because the repro binaries write artifacts too.
pub fn is_runtime_source(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let Some((_, in_crate)) = rest.split_once('/') else {
        return false;
    };
    in_crate.starts_with("src/")
}

/// T3: flags `partial_cmp` and `==`/`!=` against float literals outside
/// the `float_ord` helper module.
pub fn check_no_float_eq(file: &ScannedFile) -> Vec<Violation> {
    if file.path == FLOAT_ORD_MODULE {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test_code {
            continue;
        }
        if find_token(&line.code, "partial_cmp").is_some() {
            out.push(Violation::new(
                &file.path,
                idx + 1,
                Lint::NoFloatEq,
                "use `core::score::float_ord` (total-order comparison) instead of \
                 `partial_cmp`: NaN-induced `None` here is a silent tie-break landmine",
            ));
        }
        for _ in 0..float_literal_comparisons(&line.code) {
            out.push(Violation::new(
                &file.path,
                idx + 1,
                Lint::NoFloatEq,
                "raw float `==`/`!=` comparison: use the `core::score::float_ord` \
                 helpers (and document why exact equality is correct)",
            ));
        }
    }
    out
}

/// T10: flags atomic `Ordering::` arguments with no `// ordering:`
/// justification comment on the same line or within the
/// [`ORDERING_LOOKBACK`] lines above.
///
/// Every memory-ordering choice in this workspace is an argument about
/// *which* happens-before edges a synchronization site needs (DESIGN.md
/// §11 records the contracts for the claim cursor and the `Relaxed` flags
/// and counters). An uncommented `Ordering::Relaxed` is
/// indistinguishable from an unconsidered one; the comment forces the
/// argument to be written down where the next reader (and reviewer) can
/// check it against the contract. Only the five atomic orderings are
/// matched — `cmp::Ordering::Less`-style comparator code never fires.
pub fn check_ordering_justified(file: &ScannedFile) -> Vec<Violation> {
    const ATOMIC_ORDERINGS: &[&str] = &[
        "Ordering::Relaxed",
        "Ordering::Acquire",
        "Ordering::Release",
        "Ordering::AcqRel",
        "Ordering::SeqCst",
    ];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test_code {
            continue;
        }
        let Some(which) = ATOMIC_ORDERINGS
            .iter()
            .find(|needle| find_token(&line.code, needle).is_some())
        else {
            continue;
        };
        let window_start = idx.saturating_sub(ORDERING_LOOKBACK);
        let justified = file.lines[window_start..=idx]
            .iter()
            .any(|l| l.comment.trim_start().starts_with("ordering:"));
        if !justified {
            out.push(Violation::new(
                &file.path,
                idx + 1,
                Lint::OrderingJustified,
                format!(
                    "`{which}` lacks an `// ordering:` justification within the \
                     preceding {ORDERING_LOOKBACK} lines: say why this ordering \
                     gives every happens-before edge the site needs (see \
                     DESIGN.md §11), or waive with `// tidy-allow: \
                     ordering-justified -- <why>`"
                ),
            ));
        }
    }
    out
}

/// T11: lock discipline over `std::sync` guards.
///
/// Three lexical rules, each aimed at a deadlock or reentrancy class:
///
/// 1. No two lock acquisitions in one expression (`a.lock()` feeding
///    `b.lock()` orders two locks implicitly).
/// 2. No acquisition while a `let`-bound guard is still live — nested
///    guards across any two locks are an ordering commitment nothing
///    enforces globally. Release the first guard (`drop(guard)`) or
///    narrow its scope first.
/// 3. No call of a user-supplied closure parameter while a guard is
///    live — the closure can call back into the same lock and
///    self-deadlock (std locks are not reentrant).
pub fn check_lock_discipline(file: &ScannedFile) -> Vec<Violation> {
    const ACQUIRE_TOKENS: &[&str] = &[".lock()", ".read()", ".write()"];
    struct LiveGuard {
        name: String,
        depth: i64,
        line: usize,
    }
    let mut out = Vec::new();
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut closure_params: Vec<String> = Vec::new();
    let mut depth: i64 = 0;
    // A `let` binding whose initializer continues past its first physical
    // line: (name, depth, 1-based start line, initializer-acquired-a-lock).
    let mut pending_let: Option<(String, i64, usize, bool)> = None;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        if line.in_test_code {
            depth += opens - closes;
            guards.retain(|g| g.depth <= depth);
            continue;
        }
        if find_token(code, "fn").is_some() {
            closure_params.clear();
        }
        closure_params.extend(capture_closure_params(code));
        guards.retain(|g| find_token(code, &format!("drop({})", g.name)).is_none());
        let acquisitions: usize = ACQUIRE_TOKENS.iter().map(|t| count_token(code, t)).sum();
        if acquisitions >= 2 {
            out.push(Violation::new(
                &file.path,
                idx + 1,
                Lint::LockDiscipline,
                "two lock acquisitions in one expression implicitly order two \
                 locks: acquire them in separate statements with an explicit \
                 `drop` between (or waive with `// tidy-allow: lock-discipline \
                 -- <why the ordering is safe>`)",
            ));
        }
        if acquisitions >= 1 {
            if let Some(g) = guards.last() {
                out.push(Violation::new(
                    &file.path,
                    idx + 1,
                    Lint::LockDiscipline,
                    format!(
                        "acquires a lock while guard `{}` (line {}) is still \
                         held: nested guard acquisition is an unenforced \
                         lock-ordering commitment — `drop({})` first or narrow \
                         its scope (or waive with `// tidy-allow: \
                         lock-discipline -- <why the nesting cannot deadlock>`)",
                        g.name, g.line, g.name
                    ),
                ));
            }
        }
        if !guards.is_empty() {
            for param in &closure_params {
                if find_token(code, &format!("{param}(")).is_some() {
                    let g = &guards[guards.len() - 1];
                    out.push(Violation::new(
                        &file.path,
                        idx + 1,
                        Lint::LockDiscipline,
                        format!(
                            "calls user-supplied closure `{param}` while guard \
                             `{}` (line {}) is held: the closure can re-enter \
                             the same lock and self-deadlock — compute outside \
                             the guard (or waive with `// tidy-allow: \
                             lock-discipline -- <why the closure cannot touch \
                             this lock>`)",
                            g.name, g.line
                        ),
                    ));
                }
            }
        }
        let statement_ends = code.trim_end().ends_with(';');
        if let Some(name) = let_binding_name(code) {
            if statement_ends {
                if acquisitions >= 1 {
                    guards.push(LiveGuard {
                        name,
                        depth,
                        line: idx + 1,
                    });
                }
            } else {
                pending_let = Some((name, depth, idx + 1, acquisitions >= 1));
            }
        } else if let Some((name, d, l, acquired)) = pending_let.take() {
            let acquired = acquired || acquisitions >= 1;
            if statement_ends {
                if acquired {
                    guards.push(LiveGuard {
                        name,
                        depth: d,
                        line: l,
                    });
                }
            } else {
                pending_let = Some((name, d, l, acquired));
            }
        }
        depth += opens - closes;
        guards.retain(|g| g.depth <= depth);
    }
    out
}

/// T13: flags lines that perform an I/O operation *and* swallow its
/// result, without routing the error through the `core::fault` taxonomy.
///
/// The fault/retry machinery only works if errors keep their class all
/// the way up: a `let _ = file.sync_all();` turns a transient injected
/// (or real) failure into silence — no retry, no quarantine, no
/// telemetry, and the chaos CI's byte-identity assertion passes vacuously
/// because the fault was never *seen*. The lint is lexical and
/// line-local: an I/O needle plus a swallow needle on one line, with no
/// classification needle (`classify_io`, `retry_io`, or anything
/// `fault::`-qualified) in sight. Genuinely best-effort sites (parent-dir
/// fsync hints, a seal-before-retry) carry a waiver saying why the error
/// class is irrelevant there.
pub fn check_no_unclassified_io(file: &ScannedFile) -> Vec<Violation> {
    const IO_NEEDLES: &[&str] = &[
        "File::open",
        "File::create",
        "fs::write",
        "fs::read",
        "fs::read_to_string",
        "fs::rename",
        "fs::remove_file",
        "fs::create_dir_all",
        "sync_all",
        "sync_data",
        "write_all",
        "fill_buf",
        "read_line",
        "atomic_write",
        "append_line",
        ".sync(",
        ".flush()",
    ];
    const SWALLOW_NEEDLES: &[&str] = &[
        ".ok()",
        ".unwrap_or",
        ".unwrap_or_else",
        ".unwrap_or_default",
        ".map_or",
        ".map_or_else",
        ".is_ok()",
        ".is_err()",
        "let _ =",
    ];
    const CLASSIFY_NEEDLES: &[&str] = &["classify_io", "retry_io"];
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test_code {
            continue;
        }
        let code = &line.code;
        let Some(io_op) = IO_NEEDLES
            .iter()
            .find(|needle| find_token(code, needle).is_some())
        else {
            continue;
        };
        let swallows = SWALLOW_NEEDLES
            .iter()
            .any(|needle| find_token(code, needle).is_some());
        let classified = CLASSIFY_NEEDLES
            .iter()
            .any(|needle| find_token(code, needle).is_some())
            || code.contains("fault::");
        if swallows && !classified {
            out.push(Violation::new(
                &file.path,
                idx + 1,
                Lint::UnclassifiedIo,
                format!(
                    "swallows the result of `{io_op}` without classifying the \
                     error: route it through `core::fault::classify_io` / \
                     `core::retry::retry_io` so transient, permanent, and \
                     corrupt failures keep their meaning (or waive with \
                     `// tidy-allow: no-unclassified-io -- <why the error \
                     class is irrelevant here>`)"
                ),
            ));
        }
    }
    out
}

/// Counts boundary-checked occurrences of `token` in `code`.
fn count_token(code: &str, token: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = find_token(&code[from..], token) {
        n += 1;
        from += pos + token.len();
    }
    n
}

/// The identifier bound by a simple `let [mut] name =`/`: …` statement
/// opener, if this line is one. Pattern bindings (`let Some(x)`,
/// `let (a, b)`) return `None` — a destructured guard is vanishingly rare
/// and the lint prefers silence over guessing.
fn let_binding_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return None;
    }
    let after = rest[name.len()..].trim_start();
    (after.starts_with('=') || after.starts_with(':')).then_some(name)
}

/// Closure-typed parameter names visible on this line: `name: impl Fn…`
/// and `name: F`/`name: &F` where the same line also bounds `F: Fn…`.
/// Lexical and line-local by design — a multi-line `where` clause is out
/// of reach, which errs toward silence, never toward false positives.
fn capture_closure_params(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("impl Fn") {
        let at = from + pos;
        if let Some(name) = param_name_before_colon(code, at) {
            out.push(name);
        }
        from = at + "impl Fn".len();
    }
    // Generic-parameter form: collect `G: Fn…` bounds, then `name: G` params.
    let mut generics: Vec<String> = Vec::new();
    for bound in ["Fn(", "Fn<", "FnMut", "FnOnce"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(bound) {
            let at = from + pos;
            if let Some(generic) = bound_name_before_colon(code, at) {
                if !generics.contains(&generic) {
                    generics.push(generic);
                }
            }
            from = at + bound.len();
        }
    }
    for generic in &generics {
        let needle = format!(": {generic}");
        let mut from = 0;
        while let Some(pos) = code[from..].find(needle.as_str()) {
            let at = from + pos;
            let end = at + needle.len();
            let terminated = matches!(
                code[end..].chars().next(),
                None | Some(',' | ')' | '>' | ' ')
            );
            if terminated {
                if let Some(name) = param_name_before_colon(code, at + 1) {
                    if !out.contains(&name) {
                        out.push(name);
                    }
                }
            }
            from = end;
        }
    }
    out
}

/// The parameter identifier preceding the `:` just before byte `at`
/// (skipping `&`, `&mut`, and whitespace after the colon).
fn param_name_before_colon(code: &str, at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = at;
    while i > 0 && matches!(bytes[i - 1], b' ' | b'&') {
        i -= 1;
    }
    if i >= 4 && &code[i - 4..i] == "mut " {
        i -= 4;
        while i > 0 && matches!(bytes[i - 1], b' ' | b'&') {
            i -= 1;
        }
    }
    if i == 0 || bytes[i - 1] != b':' {
        return None;
    }
    i -= 1;
    let mut start = i;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    let name = &code[start..i];
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .then(|| name.to_string())
}

/// The single-segment generic name preceding the `:` just before byte
/// `at`, e.g. the `F` of `F: FnOnce…`.
fn bound_name_before_colon(code: &str, at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = at;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    if i == 0 || bytes[i - 1] != b':' {
        return None;
    }
    i -= 1;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let mut start = i;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    let name = &code[start..i];
    (!name.is_empty() && name.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .then(|| name.to_string())
}

/// Counts `==`/`!=` operators with a float literal on either side.
fn float_literal_comparisons(code: &str) -> usize {
    let bytes = code.as_bytes();
    let mut out = 0;
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==";
        let is_ne = two == b"!=";
        if !(is_eq || is_ne) {
            i += 1;
            continue;
        }
        // Exclude `<=`, `>=`, `===`-like runs and pattern `..=`.
        let before = i.checked_sub(1).map(|j| bytes[j]);
        let after = bytes.get(i + 2).copied();
        if matches!(
            before,
            Some(b'<') | Some(b'>') | Some(b'=') | Some(b'!') | Some(b'.')
        ) || after == Some(b'=')
        {
            i += 2;
            continue;
        }
        let left = token_before(code, i);
        let right = token_after(code, i + 2);
        if is_float_literal(left) || is_float_literal(right) {
            out += 1;
        }
        i += 2;
    }
    out
}

/// The contiguous literal/identifier token ending just before `at`.
fn token_before(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut end = at;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let b = bytes[start - 1];
        let exponent_sign =
            matches!(b, b'+' | b'-') && start >= 2 && matches!(bytes[start - 2], b'e' | b'E');
        if is_token_byte(b) || exponent_sign {
            start -= 1;
        } else {
            break;
        }
    }
    &code[start..end]
}

/// The contiguous literal/identifier token starting just after `at`.
fn token_after(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = at;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len() {
        let b = bytes[end];
        let exponent_sign =
            matches!(b, b'+' | b'-') && end >= 1 && matches!(bytes[end - 1], b'e' | b'E');
        if is_token_byte(b) || exponent_sign {
            end += 1;
        } else {
            break;
        }
    }
    &code[start..end]
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// Whether a token is a floating-point literal (`1.0`, `2.`, `1e-9`,
/// `3.5f64`, …). Integer literals are *not* flagged: integer equality is
/// exact.
fn is_float_literal(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    let mut chars = t.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !first.is_ascii_digit() {
        return false;
    }
    let has_dot = t.contains('.');
    let has_exp = t[1..].contains(['e', 'E']);
    (has_dot || has_exp || t.len() < token.len())
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '+' | '-'))
}

/// T5: the manifest must inherit the workspace lint table.
pub fn check_lints_table(path: &str, manifest: &str) -> Vec<Violation> {
    let mut in_lints = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_lints = t == "[lints]";
            continue;
        }
        if in_lints && t.split('#').next().unwrap_or("").replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    vec![Violation::new(
        path,
        0,
        Lint::LintsTable,
        "manifest must inherit the workspace lint table: add `[lints]\\nworkspace = true`",
    )]
}

/// Applies the file's waivers to `violations`: suppressed violations are
/// dropped; unused or malformed waivers become violations themselves.
///
/// Staleness is tracked *per lint name*, not per waiver: a
/// `tidy-allow: no-panic, no-println` comment where only the `no-panic`
/// half still matches a finding reports the `no-println` half as stale,
/// so waivers cannot quietly accrete lint names their line no longer
/// needs.
pub fn apply_waivers(file: &ScannedFile, violations: Vec<Violation>) -> Vec<Violation> {
    let known: Vec<&str> = Lint::WAIVABLE.iter().map(|l| l.name()).collect();
    let mut used: Vec<Vec<bool>> = file
        .waivers
        .iter()
        .map(|w| vec![false; w.lints.len()])
        .collect();
    let mut out = Vec::new();
    'violation: for v in violations {
        if Lint::WAIVABLE.contains(&v.lint) {
            for (w_idx, w) in file.waivers.iter().enumerate() {
                if w.target_line == v.line {
                    if let Some(l_idx) = w.lints.iter().position(|l| l == v.lint.name()) {
                        used[w_idx][l_idx] = true;
                        continue 'violation;
                    }
                }
            }
        }
        out.push(v);
    }
    for (w_idx, w) in file.waivers.iter().enumerate() {
        for (l_idx, lint_name) in w.lints.iter().enumerate() {
            if !known.contains(&lint_name.as_str()) {
                out.push(Violation::new(
                    &file.path,
                    w.at_line,
                    Lint::BadWaiver,
                    format!(
                        "waiver names unknown or unwaivable lint `{lint_name}` \
                         (waivable: {})",
                        known.join(", ")
                    ),
                ));
            } else if !used[w_idx][l_idx] {
                out.push(Violation::new(
                    &file.path,
                    w.at_line,
                    Lint::UnusedWaiver,
                    format!(
                        "waiver for `{lint_name}` suppressed nothing on line {}: \
                         remove the stale lint name",
                        w.target_line
                    ),
                ));
            }
        }
    }
    for err in &file.waiver_errors {
        out.push(Violation::new(
            &file.path,
            err.at_line,
            Lint::BadWaiver,
            err.message.clone(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::ScannedFile;

    fn scanned(path: &str, src: &str) -> ScannedFile {
        ScannedFile::parse(path, src)
    }

    // ---- T3 ----

    #[test]
    fn t3_fires_on_partial_cmp_and_float_literal_eq() {
        let src = "fn f(x: f64) {\n  let _ = a.partial_cmp(&b);\n  if x == 0.0 {}\n  if 1.5e-3 != y {}\n  if z == 1.0f64 {}\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = check_no_float_eq(&f);
        assert_eq!(v.len(), 4, "{v:?}");
    }

    #[test]
    fn t3_ignores_integers_ranges_and_the_helper_module() {
        let src = "fn f(n: usize) {\n  if n == 0 {}\n  for i in 0..=9 {}\n  if a <= b {}\n}";
        let f = scanned("crates/core/src/x.rs", src);
        assert!(check_no_float_eq(&f).is_empty());
        let helper = scanned(
            FLOAT_ORD_MODULE,
            "fn g(a: f64, b: f64) -> bool { a == 0.0 }",
        );
        assert!(check_no_float_eq(&helper).is_empty());
    }

    #[test]
    fn t3_scope_is_library_source_only() {
        assert!(is_library_source("crates/core/src/exact.rs"));
        assert!(is_library_source("crates/core/src/heuristic/simple.rs"));
        assert!(!is_library_source("crates/evematch/src/bin/evematch.rs"));
        assert!(!is_library_source("crates/core/tests/integration.rs"));
        assert!(!is_library_source("tests/proptests.rs"));
        assert!(!is_library_source("crates/bench/benches/matching.rs"));
    }

    #[test]
    fn t3_respects_waivers() {
        let src = "fn f(x: f64) {\n  if x == 0.5 { // tidy-allow: no-float-eq -- 0.5 is exactly representable\n  }\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = apply_waivers(&f, check_no_float_eq(&f));
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- T5 ----

    #[test]
    fn t5_fires_without_the_lints_table() {
        let v = check_lints_table("crates/core/Cargo.toml", "[package]\nname = \"x\"\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::LintsTable);
    }

    #[test]
    fn t5_passes_with_workspace_inheritance() {
        let ok = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        assert!(check_lints_table("crates/core/Cargo.toml", ok).is_empty());
        let spaced = "[lints]\n  workspace   =  true\n";
        assert!(check_lints_table("crates/core/Cargo.toml", spaced).is_empty());
    }

    // ---- waiver hygiene ----

    #[test]
    fn unused_waivers_are_violations() {
        let src = "fn f() {\n  clean(); // tidy-allow: no-float-eq -- nothing here\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = apply_waivers(&f, Vec::new());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::UnusedWaiver);
    }

    #[test]
    fn unknown_waiver_lints_are_violations() {
        let src = "if x == 0.5 {} // tidy-allow: no-such-lint -- whatever\n";
        let f = scanned("crates/core/src/x.rs", src);
        let v = apply_waivers(&f, check_no_float_eq(&f));
        // The comparison stays (waiver doesn't name no-float-eq) and the waiver is bad.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.lint == Lint::BadWaiver));
        assert!(v.iter().any(|v| v.lint == Lint::NoFloatEq));
    }

    #[test]
    fn prose_mentioning_the_waiver_syntax_is_not_a_waiver() {
        let src = "/// Use `// tidy-allow: no-float-eq -- reason` to waive.\nfn documented() {}";
        let f = scanned("crates/core/src/x.rs", src);
        assert!(f.waivers.is_empty());
        assert!(f.waiver_errors.is_empty());
        assert!(apply_waivers(&f, Vec::new()).is_empty());
    }

    #[test]
    fn stale_lint_names_within_a_waiver_are_reported_individually() {
        // `no-float-eq` still suppresses a finding; `lock-discipline` no
        // longer matches anything and must be called out as stale on its own.
        let src = "fn f() {\n  if x == 0.5 {} // tidy-allow: no-float-eq, lock-discipline -- exact half\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = apply_waivers(&f, check_no_float_eq(&f));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::UnusedWaiver);
        assert!(v[0].message.contains("lock-discipline"), "{}", v[0].message);
        assert!(!v[0].message.contains("no-float-eq`"), "{}", v[0].message);
    }

    // ---- T10 ----

    #[test]
    fn t10_fires_on_unjustified_atomic_orderings_only() {
        let src = "fn f(n: &AtomicUsize) {\n  n.fetch_add(1, Ordering::Relaxed);\n  if a.cmp(&b) == Ordering::Less {}\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = check_ordering_justified(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::OrderingJustified);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn t10_accepts_same_line_and_lookback_justifications() {
        let src = "fn f(n: &AtomicUsize) {\n  n.store(1, Ordering::Release); // ordering: Release — publishes the init\n  // ordering: AcqRel on success pairs with the Acquire loads;\n  // Acquire on failure observes the winner's write.\n  let _ = n.compare_exchange(\n    0,\n    1,\n    Ordering::AcqRel,\n    Ordering::Acquire,\n  );\n}";
        let f = scanned("crates/core/src/x.rs", src);
        assert!(check_ordering_justified(&f).is_empty());
    }

    #[test]
    fn t10_lookback_window_is_bounded_and_tests_are_exempt() {
        let pad = "  noop();\n".repeat(ORDERING_LOOKBACK + 1);
        let src = format!(
            "fn f(n: &AtomicUsize) {{\n  // ordering: Relaxed — too far above\n{pad}  n.load(Ordering::Relaxed);\n}}"
        );
        let f = scanned("crates/core/src/x.rs", &src);
        assert_eq!(check_ordering_justified(&f).len(), 1);
        let test_src =
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { n.load(Ordering::Relaxed); }\n}";
        let t = scanned("crates/core/src/x.rs", test_src);
        assert!(check_ordering_justified(&t).is_empty());
    }

    #[test]
    fn t10_respects_waivers() {
        let src = "fn f(n: &AtomicUsize) {\n  n.load(Ordering::SeqCst); // tidy-allow: ordering-justified -- exploratory diagnostics counter\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = apply_waivers(&f, check_ordering_justified(&f));
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- T11 ----

    #[test]
    fn t11_fires_on_nested_guard_acquisition() {
        let src = "fn f(&self) {\n  let guard = self.a.lock().unwrap_or_else(PoisonError::into_inner);\n  let other = self.b.lock().unwrap_or_else(PoisonError::into_inner);\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = check_lock_discipline(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::LockDiscipline);
        assert!(v[0].message.contains("`guard`"), "{}", v[0].message);
    }

    #[test]
    fn t11_fires_on_two_acquisitions_in_one_expression() {
        let src =
            "fn f(&self) {\n  let (a, b) = (self.a.lock().unwrap(), self.b.lock().unwrap());\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = check_lock_discipline(&f);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn t11_drop_and_scope_exit_release_guards() {
        // Explicit drop, then a block-scoped guard: the later acquisitions
        // see no live guard and must not fire.
        let src = "fn f(&self) {\n  let guard = self.a.lock().unwrap();\n  drop(guard);\n  let other = self.b.lock().unwrap();\n}\nfn g(&self) {\n  {\n    let inner = self.a.lock().unwrap();\n  }\n  let after = self.b.lock().unwrap();\n}";
        let f = scanned("crates/core/src/x.rs", src);
        assert!(check_lock_discipline(&f).is_empty());
    }

    #[test]
    fn t11_tracks_multi_line_let_chains() {
        // The binding and the `.lock()` sit on different physical lines —
        // the shape the sweep's result sink uses.
        let src = "fn f(&self) {\n  let shard = self.shards[i]\n    .read()\n    .unwrap_or_else(PoisonError::into_inner);\n  let other = self.shards[j].read().unwrap_or_else(PoisonError::into_inner);\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = check_lock_discipline(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`shard`"), "{}", v[0].message);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn t11_fires_on_closure_call_under_guard() {
        let src = "fn f(&self, compute: impl Fn() -> u32) {\n  let mut shard = self.shards[i].write().unwrap();\n  shard.insert(k, compute());\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = check_lock_discipline(&f);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`compute`"), "{}", v[0].message);
        // Generic-bound form: `F: FnOnce` + `f: F`.
        let generic = "fn g<F: FnOnce() -> u32>(&self, make: F) {\n  let guard = self.a.lock().unwrap();\n  let v = make();\n}";
        let g = scanned("crates/core/src/x.rs", generic);
        assert_eq!(check_lock_discipline(&g).len(), 1);
        // Calling the closure with no guard held is fine.
        let free = "fn h(&self, make: impl Fn() -> u32) {\n  let v = make();\n  let guard = self.a.lock().unwrap();\n}";
        let h = scanned("crates/core/src/x.rs", free);
        assert!(check_lock_discipline(&h).is_empty());
    }

    #[test]
    fn t11_respects_waivers() {
        let src = "fn f(&self) {\n  let a = self.a.lock().unwrap();\n  let b = self.b.lock().unwrap(); // tidy-allow: lock-discipline -- a is always taken before b, documented order\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = apply_waivers(&f, check_lock_discipline(&f));
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- T13 ----

    #[test]
    fn t13_fires_on_swallowed_io_results() {
        let src = "fn f() {\n  let _ = dir.sync_all();\n  fs::remove_file(&tmp).ok();\n  file.write_all(buf).unwrap_or_default();\n}";
        let f = scanned("crates/core/src/x.rs", src);
        let v = check_no_unclassified_io(&f);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.lint == Lint::UnclassifiedIo));
    }

    #[test]
    fn t13_ignores_classified_propagated_and_non_io_swallows() {
        // Propagated with `?`, routed through the taxonomy, or swallowing
        // something that is not an I/O result at all — none of these fire.
        let src = "fn f() -> io::Result<()> {\n  file.sync_all()?;\n  retry_io(&policy, \"s\", &mut clock, || fs::rename(&a, &b)).ok();\n  map.get(&k).map_err(|e| fault::classify_io(&e)).ok();\n  let _ = queue.pop();\n  Ok(())\n}";
        let f = scanned("crates/core/src/x.rs", src);
        assert!(check_no_unclassified_io(&f).is_empty());
    }

    #[test]
    fn t13_skips_test_code_and_respects_waivers() {
        let test_src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { let _ = fs::remove_file(&p); }\n}";
        let t = scanned("crates/core/src/x.rs", test_src);
        assert!(check_no_unclassified_io(&t).is_empty());
        let src = "fn f() {\n  let _ = dir.sync_all(); // tidy-allow: no-unclassified-io -- best-effort durability hint, rename already happened\n}";
        let f = scanned("crates/core/src/persist.rs", src);
        let v = apply_waivers(&f, check_no_unclassified_io(&f));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn t13_scope_covers_binaries_like_t8() {
        // Same rationale as T8: the repro binaries write artifacts, so
        // their swallowed I/O errors matter just as much as the libraries'.
        assert!(IO_CLASSIFIED_CRATES.contains(&"bench"));
        assert!(is_runtime_source("crates/bench/src/lib.rs"));
        assert!(is_runtime_source("crates/bench/src/bin/repro_all.rs"));
        assert!(!is_runtime_source("crates/core/tests/integration.rs"));
        assert!(!is_runtime_source("crates/bench/benches/matching.rs"));
        assert!(!is_runtime_source("tests/adversarial.rs"));
    }
}
