//! `cargo xtask` — workspace maintenance tasks.
//!
//! Two tasks today: `tidy`, the custom static-analysis pass (modeled on
//! rust-lang/rust's `tidy`) that enforces the determinism and
//! panic-freedom invariants the reproduction's results depend on, and
//! `perf`, the perf-trajectory history and regression gate over the
//! bench binaries' deterministic work counters. See `DESIGN.md` §6 and
//! §13 and the README's "Tidy" section for the lint catalogue and the
//! waiver syntax.
//!
//! Zero dependencies by design: the build containers are offline, and a
//! lint pass must never be the thing that fails to build.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

mod jsonv;
mod lints;
mod perf;
mod scan;
mod tidy;

use lints::Violation;

/// The workspace root, two levels above this crate's manifest.
pub(crate) fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Renders one violation in the familiar `path:line: [lint] message` shape.
pub(crate) fn render(v: &Violation) -> String {
    if v.line == 0 {
        format!("{}: [{}] {}", v.path, v.lint.name(), v.message)
    } else {
        format!("{}:{}: [{}] {}", v.path, v.line, v.lint.name(), v.message)
    }
}

const USAGE: &str = "\
cargo xtask — workspace maintenance tasks

USAGE:
    cargo xtask tidy        run the static-analysis pass (exit 1 on violations)
    cargo xtask tidy --list print the lint catalogue and exit
    cargo xtask tidy --format json
                            emit findings as JSON on stdout
                            ({\"findings\":[{path,line,lint,message}…],\"count\":N});
                            exit codes match the plain-text mode
    cargo xtask perf append <artifact.json>… [--sha S] [--history FILE]
                            normalize bench artifacts into results/perf_history.jsonl
    cargo xtask perf diff <A.json> <B.json>
                            compare two artifacts/history lines counter by counter
    cargo xtask perf check <artifact.json>… [--threshold PCT] [--history FILE]
                            regression gate: exit 2 when a deterministic work
                            counter grew beyond the threshold (default 10%)
                            vs its baseline; wall-clock deltas are advisory
    cargo xtask perf --help full perf usage

LINTS (see DESIGN.md §6):
    no-panic       T1  no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented!
                       in non-test code of the library crates
    no-hash-iter   T2  no HashMap/HashSet in the deterministic crates (core, pattern)
    no-float-eq    T3  no raw f64 ==/!= or partial_cmp outside core::score::float_ord
    crate-attrs    T4  crate roots carry #![forbid(unsafe_code)] and #![deny(missing_docs)]
    lints-table    T5  every crate manifest inherits [workspace.lints]
    no-raw-deadline T6 no Instant::now/SystemTime::now in the solver crates
                       (core, graph, pattern) outside core::budget and
                       core::telemetry::span (recording-only clock)
    no-println     T7  no println!/eprintln!/print!/eprint! in library crates
                       (xtask, src/bin/ and test code exempt): take a Write
                       sink from the caller or record telemetry instead
    no-raw-artifact-write T8 no File::create/fs::write in the artifact-producing
                       crates (bench, core, eval, evematch) INCLUDING src/bin/:
                       route result writes through core::persist::atomic_write
                       so a crash never leaves a torn file under the final name
    no-raw-thread-spawn T9 no thread::spawn/thread::scope/thread::Builder outside
                       eval::experiments (INCLUDING src/bin/): stray threads
                       bypass the grid's job-ordered merge and the
                       cooperative budget
    ordering-justified T10 every atomic Ordering:: argument carries an
                       `// ordering:` justification comment on the same line or
                       within the 10 lines above (memory-ordering contracts:
                       DESIGN.md §11)
    lock-discipline    T11 no nested guard acquisition, no two acquisitions in
                       one expression, no user-supplied closure called while a
                       guard is held
    no-unclassified-io T13 no silently swallowed I/O results (.ok(), let _ =,
                       unwrap_or…) in bench/core/eval/evematch runtime code:
                       route errors through core::fault::classify_io or
                       core::retry::retry_io so transient/permanent/corrupt
                       failures keep their class (best-effort sites waive)
    phase-discipline   T14 no raw Span::start/record_timing/record_span in
                       runtime code outside core::telemetry (INCLUDING
                       src/bin/): attribute time by opening a profiler phase
                       (core::phase!) so walls stay quarantined in the
                       non-deterministic profile section and the perf gate
                       sees the work they cover
    no-unverified-artifact-read T15 no raw File::open/fs::read/fs::read_to_string
                       in the artifact-consuming crates (bench, core, eval,
                       evematch) INCLUDING src/bin/: read result/journal
                       artifacts through core::persist::integrity::read_verified
                       or the framed journal loader so checksums and format
                       versions are checked (input logs/patterns waive)
    unused-waiver      a tidy-allow waiver lint name that suppressed nothing
                       (tracked per name, so stale names inside multi-lint
                       waivers are caught too)
    bad-waiver         a tidy-allow waiver that does not parse

WAIVERS:
    <code>  // tidy-allow: <lint>[, <lint>…] -- <justification>
    A waiver on its own line applies to the next code line.
";

/// Output shape for `tidy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("tidy") if args.iter().any(|a| a == "--list") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("tidy") => match parse_format(&args[1..]) {
            Ok(format) => run_tidy(format),
            Err(message) => {
                eprintln!("{message}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("perf") => perf::run(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--format <text|json>` from the arguments after `tidy`.
fn parse_format(args: &[String]) -> Result<Format, String> {
    let mut format = Format::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                Some(other) => return Err(format!("unknown format `{other}` (text|json)")),
                None => return Err("--format needs a value (text|json)".to_string()),
            },
            other => return Err(format!("unknown tidy flag `{other}`")),
        }
    }
    Ok(format)
}

fn run_tidy(format: Format) -> ExitCode {
    let root = workspace_root();
    if let Err(message) = tidy::verify_scopes(&root) {
        eprintln!("tidy: {message}");
        return ExitCode::FAILURE;
    }
    match tidy::run(&root) {
        Ok(violations) => {
            match format {
                Format::Text => {
                    if violations.is_empty() {
                        println!("tidy: workspace is clean");
                    } else {
                        for v in &violations {
                            println!("{}", render(v));
                        }
                        println!("\ntidy: {} violation(s)", violations.len());
                    }
                }
                Format::Json => println!("{}", render_json(&violations)),
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("tidy: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the findings as a single-line JSON document. Hand-rolled
/// because xtask is dependency-free by design; the escaper covers
/// everything [`json_escape`] documents, which is everything a path,
/// lint name, or lint message can contain.
fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (idx, v) in violations.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"line\":{},\"lint\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&v.path),
            v.line,
            v.lint.name(),
            json_escape(&v.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", violations.len()));
    out
}

/// Escapes a string for a JSON string literal: `"`, `\`, and control
/// characters (as `\n`/`\t`/`\r` or `\u00XX`).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lints::Lint;

    #[test]
    fn json_rendering_escapes_and_counts() {
        let violations = vec![Violation {
            path: "crates/core/src/x.rs".to_string(),
            line: 3,
            lint: Lint::NoPanic,
            message: "uses `panic!(\"boom\")`\nbadly".to_string(),
        }];
        let doc = render_json(&violations);
        assert_eq!(
            doc,
            "{\"findings\":[{\"path\":\"crates/core/src/x.rs\",\"line\":3,\
             \"lint\":\"no-panic\",\"message\":\"uses `panic!(\\\"boom\\\")`\\nbadly\"}],\
             \"count\":1}"
        );
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}");
    }

    #[test]
    fn format_flag_parses_and_rejects_unknowns() {
        assert_eq!(parse_format(&[]), Ok(Format::Text));
        let json = ["--format".to_string(), "json".to_string()];
        assert_eq!(parse_format(&json), Ok(Format::Json));
        let text = ["--format".to_string(), "text".to_string()];
        assert_eq!(parse_format(&text), Ok(Format::Text));
        assert!(parse_format(&["--format".to_string()]).is_err());
        assert!(parse_format(&["--format".to_string(), "yaml".to_string()]).is_err());
        assert!(parse_format(&["--bogus".to_string()]).is_err());
    }
}
