//! `cargo xtask` — workspace maintenance tasks.
//!
//! Two tasks today: `tidy`, the custom static-analysis pass (modeled on
//! rust-lang/rust's `tidy`) for the determinism and concurrency rules
//! that no clippy lint expresses (float equality, memory-ordering
//! justifications, lock discipline, classified I/O errors, the inherited
//! lint table), and `perf`, the perf-trajectory history and regression
//! gate over the bench binaries' deterministic work counters. The other
//! rules (panic-freedom, hash iteration, clock reads, raw artifact I/O,
//! raw threads, printing, crate attributes) are clippy's: see
//! `crates/clippy.toml`. See `DESIGN.md` §6 and §13 and the README's
//! "Static analysis" section for the rule catalogue and the waiver syntax.
//!
//! The only dependency is `evematch-core`, which depends on nothing
//! outside the workspace, so xtask builds offline. `perf` reads JSON and
//! the checksummed bench artifacts through core's codec and verified
//! reader, and `tidy --format json` writes through the same codec.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use evematch_core::telemetry::json::push_string;

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

LINTS (see DESIGN.md §6; clippy enforces T1, T2, T4, T6-T9 and T15 through
crates/clippy.toml, the workspace [lints] table and the library roots'
#![warn(...)] lines):
    no-float-eq    T3  no raw f64 ==/!= or partial_cmp outside core::score::float_ord
    lints-table    T5  every crate manifest inherits [workspace.lints]
    ordering-justified T10 every atomic Ordering:: argument in runtime source
                       (src/, including src/bin/) carries an `// ordering:`
                       justification comment on the same line or within the
                       10 lines above (memory-ordering contracts: DESIGN.md §11)
    lock-discipline    T11 no nested guard acquisition, no two acquisitions in
                       one expression, no user-supplied closure called while a
                       guard is held (runtime source)
    no-unclassified-io T13 no silently swallowed I/O results (.ok(), let _ =,
                       unwrap_or…) in bench/core/eval/evematch runtime code:
                       route errors through core::fault::classify_io or
                       core::retry::retry_io so transient/permanent/corrupt
                       failures keep their class (best-effort sites waive)
    unused-waiver      a tidy-allow waiver lint name that suppressed nothing
                       (tracked per name, so stale names inside multi-lint
                       waivers are caught too)
    bad-waiver         a tidy-allow waiver that does not parse

WAIVERS:
    <code>  // tidy-allow: <lint>[, <lint>…] -- <justification>
    A waiver on its own line applies to the next code line. The clippy rules
    waive with #[expect(clippy::<lint>, reason = \"<justification>\")] on the
    statement; an expectation that matches nothing fails clippy.
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

/// Renders the findings as a single-line JSON document. Paths and
/// messages go through core's string escaper; lint names are fixed
/// kebab-case identifiers.
fn render_json(violations: &[Violation]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (idx, v) in violations.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        push_string(&mut out, &v.path);
        let _ = write!(
            out,
            ",\"line\":{},\"lint\":\"{}\",\"message\":",
            v.line,
            v.lint.name()
        );
        push_string(&mut out, &v.message);
        out.push('}');
    }
    let _ = write!(out, "],\"count\":{}}}", violations.len());
    out
}

/// The JSON values `perf` reads and re-renders — bench artifacts, history
/// lines, canonical workload keys — checked through core's codec, the
/// only JSON parser xtask uses.
#[cfg(test)]
mod jsonv {
    mod tests {
        use evematch_core::telemetry::json::JsonValue;

        fn num(raw: &str) -> JsonValue {
            JsonValue::Num(raw.to_string())
        }

        #[test]
        fn parses_the_artifact_shapes() {
            let doc = r#"{"bench":"profile","workload":{"seed":11,"method":"Pattern-Tight"},
                "host_parallelism":8,"work":{"search/pops":120,"search/meter_ticks":240},
                "wall_nanos":{"search":12345,"search/support-eval":99}}"#;
            let v = JsonValue::parse(doc).expect("parses");
            assert_eq!(v.get("bench").and_then(JsonValue::as_str), Some("profile"));
            assert_eq!(
                v.get("host_parallelism").and_then(JsonValue::as_u64),
                Some(8)
            );
            let work = v.get("work").and_then(JsonValue::as_obj).expect("work");
            assert_eq!(work[0], ("search/pops".to_string(), num("120")));
            assert_eq!(
                v.get("workload").map(JsonValue::render).as_deref(),
                Some(r#"{"seed":11,"method":"Pattern-Tight"}"#)
            );
        }

        #[test]
        fn parses_scalars_arrays_escapes_and_rejects_garbage() {
            assert_eq!(JsonValue::parse(" null "), Some(JsonValue::Null));
            assert_eq!(JsonValue::parse("true"), Some(JsonValue::Bool(true)));
            assert_eq!(
                JsonValue::parse("[1,2.5,\"a\\nb\",false]"),
                Some(JsonValue::Arr(vec![
                    num("1"),
                    num("2.5"),
                    JsonValue::Str("a\nb".to_string()),
                    JsonValue::Bool(false),
                ]))
            );
            assert_eq!(
                JsonValue::parse("\"\\u0041\""),
                Some(JsonValue::Str("A".to_string()))
            );
            assert_eq!(JsonValue::parse("{\"a\":1,}"), None);
            assert_eq!(JsonValue::parse("1 2"), None);
            assert_eq!(JsonValue::parse("{\"a\""), None);
        }

        #[test]
        fn round_trips_minified_documents() {
            let doc = r#"{"a":1,"b":[true,null,"x\"y"],"c":{"d":-2}}"#;
            assert_eq!(JsonValue::parse(doc).unwrap().render(), doc);
        }

        #[test]
        fn as_u64_rejects_fractions_and_negatives() {
            assert_eq!(num("7").as_u64(), Some(7));
            assert_eq!(num("7.5").as_u64(), None);
            assert_eq!(num("-1").as_u64(), None);
        }
    }
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
            lint: Lint::NoFloatEq,
            message: "uses `x == 0.5` on \"floats\"\nbadly".to_string(),
        }];
        let doc = render_json(&violations);
        assert_eq!(
            doc,
            "{\"findings\":[{\"path\":\"crates/core/src/x.rs\",\"line\":3,\
             \"lint\":\"no-float-eq\",\"message\":\"uses `x == 0.5` on \\\"floats\\\"\\nbadly\"}],\
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
