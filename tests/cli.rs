//! End-to-end tests of the `evematch` command-line binary.

#![allow(clippy::disallowed_methods)]

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evematch"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("evematch-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

/// The `deterministic` section of the two-section artifact at `path`: the
/// text before its `non_deterministic` key.
fn deterministic_section(path: &std::path::Path) -> String {
    let json = std::fs::read_to_string(path).unwrap();
    let end = json
        .find(",\"non_deterministic\"")
        .unwrap_or_else(|| panic!("no non_deterministic section: {json}"));
    json[..end].to_owned()
}

/// `larger_synthetic(2, 200, 11)`'s two logs, written as `<tag>1.log` and
/// `<tag>2.log`: large enough for a capped exact search to pop hundreds of
/// nodes.
fn synthetic_logs(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    use evematch::prelude::{datasets, write_log, EventLog};
    let ds = datasets::larger_synthetic(2, 200, 11);
    let file = |n: u8, log: &EventLog| {
        let mut text = Vec::new();
        write_log(log, &mut text).unwrap();
        write_temp(
            &format!("{tag}{n}.log"),
            std::str::from_utf8(&text).unwrap(),
        )
    };
    (file(1, &ds.pair.log1), file(2, &ds.pair.log2))
}

const L1_TEXT: &str = "receive pay check ship\nreceive check pay ship\nreceive pay check ship\n";

const L2_CSV: &str = "case,activity\n\
a,K4\na,K1\na,K7\na,K2\n\
b,K4\nb,K7\nb,K1\nb,K2\n\
c,K4\nc,K1\nc,K7\nc,K2\n";

#[test]
fn matches_text_against_csv_with_patterns() {
    let l1 = write_temp("l1.log", L1_TEXT);
    let l2 = write_temp("l2.csv", L2_CSV);
    let pats = write_temp(
        "pats.txt",
        "# composite\nSEQ(receive, AND(pay, check), ship)\n",
    );
    let out = bin()
        .args(["--method", "exact", "--patterns"])
        .arg(&pats)
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The anchors are unambiguous; the concurrent pair is resolved by the
    // matching interleaving bias (pay first 2/3 ↔ K1 first 2/3).
    assert!(stdout.contains("receive\tK4"), "{stdout}");
    assert!(stdout.contains("ship\tK2"), "{stdout}");
    assert!(stdout.contains("pay\tK1"), "{stdout}");
    assert!(stdout.contains("check\tK7"), "{stdout}");
}

#[test]
fn every_method_flag_works() {
    let l1 = write_temp("m1.log", L1_TEXT);
    let l2 = write_temp("m2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    for method in [
        "exact",
        "simple",
        "advanced",
        "vertex",
        "vertex-edge",
        "iterative",
        "entropy",
    ] {
        let out = bin()
            .args(["--quiet", "--method", method])
            .arg(&l1)
            .arg(&l2)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "method {method}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout.lines().count(), 4, "method {method}: {stdout}");
    }
}

#[test]
fn quiet_suppresses_diagnostics() {
    let l1 = write_temp("q1.log", L1_TEXT);
    let l2 = write_temp("q2.log", "x y z w\nx z y w\nx y z w\n");
    let out = bin().args(["--quiet"]).arg(&l1).arg(&l2).output().unwrap();
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn missing_log_is_a_clean_error() {
    let out = bin()
        .args(["/nonexistent/a.log", "/nonexistent/b.log"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn wrong_arity_prints_usage() {
    let out = bin().arg("only-one.log").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn bad_pattern_reports_file_and_line() {
    let l1 = write_temp("p1.log", L1_TEXT);
    let l2 = write_temp("p2.log", "x y z w\n");
    let pats = write_temp("bad.txt", "SEQ(receive, nosuch)\n");
    let out = bin()
        .arg("--patterns")
        .arg(&pats)
        .arg(&l1)
        .arg(&l2)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bad.txt:1"), "{stderr}");
    assert!(stderr.contains("nosuch"), "{stderr}");
}

#[test]
fn help_exits_zero() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
}

#[test]
fn exhausted_budget_prints_degraded_header_and_exits_two() {
    let l1 = write_temp("d1.log", L1_TEXT);
    let l2 = write_temp("d2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let out = bin()
        .args(["--quiet", "--method", "exact", "--limit-processed", "1"])
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "budget exhaustion exits 2");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    let header = lines.next().unwrap_or_default();
    assert!(
        header.starts_with("# degraded (gap="),
        "missing degraded header: {stdout}"
    );
    // The degraded mapping is still complete: one pair per source event.
    assert_eq!(lines.count(), 4, "{stdout}");
}

#[test]
fn budgets_apply_to_every_method_flag() {
    let l1 = write_temp("b1.log", L1_TEXT);
    let l2 = write_temp("b2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    for method in [
        "exact",
        "simple",
        "advanced",
        "vertex",
        "vertex-edge",
        "iterative",
        "entropy",
    ] {
        let out = bin()
            .args(["--quiet", "--method", method, "--limit-processed", "0"])
            .arg(&l1)
            .arg(&l2)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "method {method} ignored budget");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.starts_with("# degraded (gap="),
            "method {method}: {stdout}"
        );
    }
}

#[test]
fn metrics_out_writes_counters_from_every_layer() {
    let l1 = write_temp("mo1.log", L1_TEXT);
    let l2 = write_temp("mo2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let pats = write_temp("mo.pats", "SEQ(receive, AND(pay, check), ship)\n");
    let metrics = write_temp("mo.json", "");
    let out = bin()
        .args(["--quiet", "--method", "exact", "--patterns"])
        .arg(&pats)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    // The acceptance criterion: counters from the exact search, the
    // evaluator and the budget meter, plus the separated non-deterministic
    // `info` section (wall time lives in the phase profile alone).
    for needle in [
        "\"deterministic\"",
        "\"non_deterministic\"",
        "\"search.pops\"",
        "\"search.expansions\"",
        "\"eval.cache_misses\"",
        "\"budget.processed\"",
        "\"info\"",
    ] {
        assert!(json.contains(needle), "metrics missing {needle}: {json}");
    }
}

/// A solve that writes no trace point (the heuristic on the 4-event
/// instance) still writes its `--trace-out` file: empty, with a sidecar
/// that `evematch verify` accepts.
#[test]
fn trace_out_without_points_is_an_empty_verified_file() {
    let l1 = write_temp("te1.log", L1_TEXT);
    let l2 = write_temp("te2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let pats = write_temp("te.pats", "SEQ(receive, AND(pay, check), ship)\n");
    let dir = std::env::temp_dir().join(format!("evematch-cli-empty-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let out = bin()
        .args(["--quiet", "--method", "advanced", "--patterns"])
        .arg(&pats)
        .arg("--trace-out")
        .arg(&trace)
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&trace).unwrap(), b"");
    let verify = bin().arg("verify").arg(&dir).output().expect("binary runs");
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// No trace field reads the clock, so two runs under the same processed
/// cap write byte-identical trace files, and every line parses back into
/// a [`TraceEvent`](evematch::prelude::TraceEvent). The instance is large
/// enough for the exact search to emit `search.pop` points (one per 64
/// pops).
#[test]
fn capped_trace_out_runs_are_byte_identical() {
    let (l1, l2) = synthetic_logs("td");
    let trace = |run: &str| {
        let path = write_temp(&format!("td_{run}.jsonl"), "");
        let out = bin()
            .args(["--quiet", "--method", "exact", "--limit-processed", "5000"])
            .arg("--trace-out")
            .arg(&path)
            .arg(&l1)
            .arg(&l2)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "cap 5000 must trip: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&path).unwrap()
    };
    let first = trace("a");
    let second = trace("b");
    assert_eq!(first, second, "trace bytes diverged across capped runs");
    let text = String::from_utf8(first).unwrap();
    let mut pops = 0;
    for line in text.lines() {
        let event = evematch::prelude::TraceEvent::parse(line)
            .unwrap_or_else(|| panic!("unparseable trace line `{line}`"));
        pops += usize::from(event.name == "search.pop");
    }
    assert!(pops >= 2, "expected search.pop points: {text}");
}

/// The CLI-level form of the byte-identity acceptance criterion: two runs
/// under the same pure processed cap write metrics files whose
/// `deterministic` sections are byte-identical (the `info` section is
/// allowed to differ).
#[test]
fn capped_metrics_out_runs_are_byte_identical_in_counters() {
    let l1 = write_temp("bi1.log", L1_TEXT);
    let l2 = write_temp("bi2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let pats = write_temp("bi.pats", "SEQ(receive, AND(pay, check), ship)\n");
    let counters = |name: &str| {
        let path = write_temp(name, "");
        let out = bin()
            .args([
                "--quiet",
                "--method",
                "exact",
                "--limit-processed",
                "6",
                "--patterns",
            ])
            .arg(&pats)
            .arg("--metrics-out")
            .arg(&path)
            .arg(&l1)
            .arg(&l2)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "cap 6 must trip");
        deterministic_section(&path)
    };
    let a = counters("bi_a.json");
    let b = counters("bi_b.json");
    assert_eq!(a, b, "counter sections differ across identical capped runs");
    assert!(a.contains("\"budget.exhausted.processed\""), "{a}");
}

#[test]
fn profile_out_writes_three_parseable_artifacts() {
    let l1 = write_temp("pr1.log", L1_TEXT);
    let l2 = write_temp("pr2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let pats = write_temp("pr.pats", "SEQ(receive, AND(pay, check), ship)\n");
    let profile = write_temp("pr.json", "");
    let out = bin()
        .args(["--quiet", "--method", "exact", "--patterns"])
        .arg(&pats)
        .arg("--profile-out")
        .arg(&profile)
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Artifact 1: the two-section snapshot, parseable back into a
    // ProfileSnapshot, with the CLI's full phase taxonomy.
    let json = std::fs::read_to_string(&profile).unwrap();
    let snap = evematch::prelude::ProfileSnapshot::from_json(&json)
        .unwrap_or_else(|| panic!("profile does not parse: {json}"));
    for needle in [
        "\"deterministic\"",
        "\"non_deterministic\"",
        "\"ingest\"",
        "\"index\"",
        "\"search\"",
        "\"emit\"",
    ] {
        assert!(json.contains(needle), "profile missing {needle}: {json}");
    }
    // The CLI merges three profilers (ingest + index, the solver's search
    // tree, emit); the roots keep run order.
    let roots: Vec<&str> = snap.roots.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(roots, ["ingest", "index", "search", "emit"], "{json}");
    assert!(
        snap.flat_work().get("search/pops").copied().unwrap_or(0) > 0,
        "profile carries no search work: {json}"
    );
    // Artifact 2: the Chrome trace_event view.
    let trace_path = profile.with_file_name("pr_trace.json");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let v = evematch::core::telemetry::json::JsonValue::parse(&trace)
        .unwrap_or_else(|| panic!("trace is not valid JSON: {trace}"));
    let events = v
        .get("traceEvents")
        .and_then(evematch::core::telemetry::json::JsonValue::as_arr)
        .unwrap_or_else(|| panic!("no traceEvents array: {trace}"));
    assert!(!events.is_empty(), "{trace}");
    // Artifact 3: the folded-stack view, one `stack nanos` line each.
    let folded = std::fs::read_to_string(profile.with_file_name("pr.folded")).unwrap();
    assert!(!folded.trim().is_empty());
    for line in folded.lines() {
        let (stack, nanos) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("folded line has no value: `{line}`"));
        nanos
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad folded value: `{line}`"));
        assert!(!stack.is_empty(), "`{line}`");
    }
    assert!(folded.contains("search"), "{folded}");
}

#[test]
fn profile_out_env_var_is_honored() {
    let l1 = write_temp("pe1.log", L1_TEXT);
    let l2 = write_temp("pe2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let profile = write_temp("pe.json", "");
    let out = bin()
        .args(["--quiet", "--method", "vertex"])
        .env("EVEMATCH_PROFILE_OUT", &profile)
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&profile).unwrap();
    assert!(
        evematch::prelude::ProfileSnapshot::from_json(&json).is_some(),
        "env-routed profile does not parse: {json}"
    );
}

/// The profiler-level byte-identity acceptance criterion at CLI scale:
/// under a pure processed cap, the `deterministic` section of the profile
/// artifact is byte-identical across runs (walls live in the
/// non-deterministic section and are free to differ).
#[test]
fn capped_profile_out_det_sections_are_byte_identical_across_runs() {
    let l1 = write_temp("pd1.log", L1_TEXT);
    let l2 = write_temp("pd2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let pats = write_temp("pd.pats", "SEQ(receive, AND(pay, check), ship)\n");
    let phases = |run: &str| {
        let path = write_temp(&format!("pd_{run}.json"), "");
        let out = bin()
            .args([
                "--quiet",
                "--method",
                "exact",
                "--limit-processed",
                "100000",
                "--patterns",
            ])
            .arg(&pats)
            .arg("--profile-out")
            .arg(&path)
            .arg(&l1)
            .arg(&l2)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        deterministic_section(&path)
    };
    let first = phases("a");
    let second = phases("b");
    assert_eq!(first, second, "profile det section diverged on rerun");
    assert!(first.contains("\"search\""), "{first}");
}

/// `--progress` only reads the run: a capped exact run with and without
/// the heartbeat exits with the same code and writes the same stdout and
/// the same `--profile-out` deterministic section.
#[test]
fn progress_heartbeat_leaves_stdout_and_profile_unchanged() {
    let (l1, l2) = synthetic_logs("pg");
    let run = |progress: bool| {
        let path = write_temp(&format!("pg_{progress}.json"), "");
        let mut cmd = bin();
        cmd.args(["--quiet", "--method", "exact", "--limit-processed", "5000"]);
        if progress {
            cmd.arg("--progress");
        }
        let out = cmd
            .arg("--profile-out")
            .arg(&path)
            .arg(&l1)
            .arg(&l2)
            .output()
            .expect("binary runs");
        (out, deterministic_section(&path))
    };
    let (quiet, quiet_det) = run(false);
    let (beating, beating_det) = run(true);
    assert_eq!(quiet.status.code(), Some(2), "cap 5000 must trip");
    assert_eq!(beating.status.code(), quiet.status.code());
    assert_eq!(beating.stdout, quiet.stdout, "--progress changed stdout");
    assert_eq!(beating_det, quiet_det, "--progress changed the profile");
}

#[test]
fn bad_limit_processed_value_is_a_usage_error() {
    let l1 = write_temp("v1.log", L1_TEXT);
    let l2 = write_temp("v2.log", "x y z w\n");
    let out = bin()
        .args(["--limit-processed", "not-a-number"])
        .arg(&l1)
        .arg(&l2)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--limit-processed"), "{stderr}");
}

#[test]
fn source_larger_than_target_is_a_clean_error() {
    let l1 = write_temp("big.log", "a b c d e\n");
    let l2 = write_temp("small.log", "x y\n");
    let out = bin().arg(&l1).arg(&l2).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("|V1|"), "{stderr}");
}

#[test]
fn strict_mode_rejects_what_lenient_mode_quarantines() {
    let dir = std::env::temp_dir().join(format!("evematch-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let l1 = dir.join("len1.log");
    std::fs::write(
        &l1,
        b"receive pay check ship\n\xff\xfe garbage\nreceive check pay ship\n",
    )
    .unwrap();
    let l2 = write_temp("len2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\n");

    // Strict (the default): fail fast with the line number, exit 1.
    let out = bin().arg(&l1).arg(&l2).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2: invalid UTF-8"), "{stderr}");

    // Lenient: the bad line is quarantined, the match still runs, and the
    // report lands on stderr and in the metrics artifact.
    let metrics = dir.join("len_metrics.json");
    let out = bin()
        .arg("--lenient")
        .arg("--metrics-out")
        .arg(&metrics)
        .arg(&l1)
        .arg(&l2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantined 1 line(s)"), "{stderr}");
    assert!(stderr.contains("invalid_utf8: 1"), "{stderr}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        json.contains("\"ingest.quarantined.invalid_utf8\":1"),
        "{json}"
    );

    // --quiet keeps the quarantine summary off stderr.
    let out = bin()
        .args(["--lenient", "--quiet"])
        .arg(&l1)
        .arg(&l2)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn ingest_limits_are_clean_input_errors() {
    let l1 = write_temp("lim1.log", L1_TEXT);
    let l2 = write_temp("lim2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\n");
    for (flag, needle) in [
        ("--max-events", "max-events limit exceeded"),
        ("--max-traces", "max-traces limit exceeded"),
        ("--max-trace-len", "max-trace-len limit exceeded"),
        ("--max-line-bytes", "max-line-bytes limit exceeded"),
    ] {
        let out = bin().args([flag, "1"]).arg(&l1).arg(&l2).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{flag}: {stderr}");
    }
    // A generous cap changes nothing.
    let out = bin()
        .args(["--quiet", "--max-events", "100", "--max-line-bytes", "4096"])
        .arg(&l1)
        .arg(&l2)
        .output()
        .unwrap();
    assert!(out.status.success());
}

/// An injected corrupt read surfaces as an input error naming the fault.
#[test]
fn fault_schedule_injects_a_corrupt_read_into_ingestion() {
    let l1 = write_temp("fr1.log", L1_TEXT);
    let l2 = write_temp("fr2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let out = bin()
        .args(["--quiet", "--fault-schedule", "ingest.read=fail-corrupt x1"])
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("injected corrupt fault at ingest.read"),
        "{stderr}"
    );
}

/// Transient rename faults on the artifact writes are retried: the run
/// ends as the unarmed one does, and every artifact it writes verifies.
#[test]
fn transient_artifact_faults_recover_to_verified_artifacts() {
    let l1 = write_temp("fa1.log", L1_TEXT);
    let l2 = write_temp("fa2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let dir = std::env::temp_dir().join(format!("evematch-cli-faulted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |schedule: Option<&str>| {
        let mut cmd = bin();
        cmd.args(["--quiet", "--method", "exact"])
            .arg("--metrics-out")
            .arg(dir.join("m.json"))
            .arg("--trace-out")
            .arg(dir.join("t.jsonl"))
            .arg("--profile-out")
            .arg(dir.join("p.json"));
        if let Some(spec) = schedule {
            cmd.args(["--fault-schedule", spec]);
        }
        cmd.arg(&l1).arg(&l2).output().expect("binary runs")
    };
    let unarmed = run(None);
    for name in std::fs::read_dir(&dir).unwrap() {
        std::fs::remove_file(name.unwrap().path()).unwrap();
    }
    let armed = run(Some("persist.rename=fail-transient x2"));
    assert_eq!(
        armed.status.code(),
        unarmed.status.code(),
        "stderr: {}",
        String::from_utf8_lossy(&armed.stderr)
    );
    assert_eq!(armed.stdout, unarmed.stdout);
    for name in ["m.json", "t.jsonl", "p.json", "p_trace.json", "p.folded"] {
        assert!(dir.join(name).is_file(), "{name} was not written");
    }
    let verify = bin().arg("verify").arg(&dir).output().expect("binary runs");
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `verify` without a directory, or with one that does not exist, is a
/// usage/io error (exit 1), distinct from clean (0) and corrupt (2).
#[test]
fn verify_without_a_readable_dir_exits_one() {
    let missing = std::env::temp_dir().join(format!("evematch-cli-absent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    for out in [
        bin().arg("verify").output().expect("binary runs"),
        bin()
            .arg("verify")
            .arg(&missing)
            .output()
            .expect("binary runs"),
    ] {
        assert_eq!(
            out.status.code(),
            Some(1),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A misspelled failpoint site is a usage error, not a fault-free run.
#[test]
fn unknown_fault_site_is_a_usage_error() {
    let l1 = write_temp("fu1.log", L1_TEXT);
    let l2 = write_temp("fu2.log", "K4 K1 K7 K2\nK4 K7 K1 K2\nK4 K1 K7 K2\n");
    let out = bin()
        .args([
            "--quiet",
            "--fault-schedule",
            "persist.renme=fail-permanent",
        ])
        .arg("--metrics-out")
        .arg(write_temp("fu.json", ""))
        .arg(&l1)
        .arg(&l2)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--fault-schedule:"), "{stderr}");
    assert!(stderr.contains("persist.renme"), "{stderr}");
}
