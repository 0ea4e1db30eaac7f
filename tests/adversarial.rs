//! Adversarial-input suite: hostile, malformed, or truncated inputs must
//! yield typed errors or quarantine reports — never a panic, process
//! abort, or stack overflow. Everything here goes through the public API
//! (`evematch::prelude` and the crate re-exports), the same surface the
//! CLI and the repro binaries use.

use evematch::eventlog::{CsvLogError, LogParseError, QuarantineCause};
use evematch::pattern::{ParsePatternError, PatternError, MAX_AND_ARITY, MAX_DEPTH};
use evematch::prelude::*;

use proptest::prelude::*;

// ---------------------------------------------------------------------
// Pattern parsing: depth and arity bombs
// ---------------------------------------------------------------------

#[test]
fn hostile_pattern_nesting_is_a_typed_error_not_a_stack_overflow() {
    // 100k wrapped singletons: far past MAX_PARSE_DEPTH. The work-list
    // parser must reject this with a typed error without recursing.
    let n = 100_000;
    let input = format!("{}a{}", "SEQ(".repeat(n), ")".repeat(n));
    let events = EventSet::from_names(["a"]);
    let err = parse_pattern(&input, &events).unwrap_err();
    assert!(matches!(err, ParsePatternError::TooDeep { .. }), "{err}");
    // The AND spelling hits the same guard.
    let input = format!("{}a{}", "AND(".repeat(n), ")".repeat(n));
    let err = parse_pattern(&input, &events).unwrap_err();
    assert!(matches!(err, ParsePatternError::TooDeep { .. }), "{err}");
}

#[test]
fn genuine_nesting_past_max_depth_is_rejected_at_parse_time() {
    // Two-ary SEQ nests with distinct events: depth 300 > MAX_DEPTH, but
    // well inside the parser's own work-list cap — so the rejection comes
    // from the AST constructor, surfaced through the parser.
    let levels = 299;
    let names: Vec<String> = (0..=levels).map(|i| format!("e{i}")).collect();
    let mut input = String::new();
    for name in &names[..levels] {
        input.push_str(&format!("SEQ({name}, "));
    }
    input.push_str(&names[levels]);
    input.push_str(&")".repeat(levels));
    let events = EventSet::from_names(names.iter().map(String::as_str));
    let err = parse_pattern(&input, &events).unwrap_err();
    assert!(
        matches!(
            err,
            ParsePatternError::Invalid(PatternError::NestingTooDeep { .. })
        ),
        "{err}"
    );
}

#[test]
fn and_arity_bomb_is_rejected_with_the_cap_in_the_message() {
    let names: Vec<String> = (0..=MAX_AND_ARITY).map(|i| format!("e{i}")).collect();
    let input = format!("AND({})", names.join(", "));
    let events = EventSet::from_names(names.iter().map(String::as_str));
    let err = parse_pattern(&input, &events).unwrap_err();
    assert!(
        matches!(
            err,
            ParsePatternError::Invalid(PatternError::TooManyChildren { found }) if found == MAX_AND_ARITY + 1
        ),
        "{err}"
    );
    assert!(err.to_string().contains(&MAX_AND_ARITY.to_string()));
}

#[test]
fn maximal_legal_patterns_build_and_drop_cleanly() {
    // The deepest pattern the constructors admit: a 2-ary SEQ chain at
    // exactly MAX_DEPTH. Building, cloning, and dropping it must not
    // overflow the stack (Drop is iterative).
    let mut p = Pattern::event(0u32);
    for i in 1..MAX_DEPTH as u32 {
        p = Pattern::seq(vec![Pattern::event(i), p]).expect("within depth cap");
    }
    assert_eq!(p.depth(), MAX_DEPTH);
    let clone = p.clone();
    drop(p);
    drop(clone);
    // And the widest: a flat SEQ over a large vocabulary.
    let wide = Pattern::seq((0..100_000u32).map(Pattern::event).collect()).expect("flat SEQ");
    assert_eq!(wide.depth(), 2);
    drop(wide);
}

// ---------------------------------------------------------------------
// Text format: `<empty>` marker and directive edge cases
// ---------------------------------------------------------------------

#[test]
fn empty_marker_edge_cases_are_handled_consistently() {
    // Doubled marker is "mixed" too: the marker must stand alone.
    let doubled = "<empty> <empty>\n";
    let err = read_log_with(doubled.as_bytes(), &IngestOptions::strict()).unwrap_err();
    assert!(matches!(err, LogParseError::MixedEmptyMarker { line: 1 }));
    let lenient = read_log_with(doubled.as_bytes(), &IngestOptions::lenient()).unwrap();
    assert_eq!(lenient.log.len(), 0);
    assert_eq!(
        lenient.quarantine.counts().get("mixed_empty_marker"),
        Some(&1)
    );

    // A token merely *containing* the marker text is an ordinary event
    // name, not a marker.
    let ingest = read_log_with("x<empty>\n".as_bytes(), &IngestOptions::strict()).unwrap();
    assert_eq!(ingest.log.len(), 1);
    assert_eq!(ingest.log.trace(0).len(), 1);
    assert!(ingest.log.events().lookup("x<empty>").is_some());

    // Marker surrounded by whitespace still counts as alone.
    let ingest = read_log_with("   <empty>   \n".as_bytes(), &IngestOptions::strict()).unwrap();
    assert_eq!(ingest.log.len(), 1);
    assert!(ingest.log.trace(0).is_empty());
}

#[test]
fn directive_edge_cases_quarantine_in_lenient_and_stay_comments_in_strict() {
    // `#!` alone, a malformed spelling of the events directive (no space),
    // and an unknown directive: strict keeps the historical
    // comment-fallthrough contract, lenient surfaces all three.
    let input = "#!\n#!events: a\n#! schema: v2\nA B\n";
    let strict = read_log_with(input.as_bytes(), &IngestOptions::strict()).unwrap();
    assert_eq!(strict.log.len(), 1);
    assert!(strict.quarantine.is_empty());
    let lenient = read_log_with(input.as_bytes(), &IngestOptions::lenient()).unwrap();
    assert_eq!(lenient.log.len(), 1);
    assert_eq!(
        lenient.quarantine.counts().get("unknown_directive"),
        Some(&3)
    );
    assert_eq!(strict.log, lenient.log);

    // An events directive with no names is legal and interns nothing.
    let ingest = read_log_with("#! events:\nA\n".as_bytes(), &IngestOptions::lenient()).unwrap();
    assert!(ingest.quarantine.is_empty());
    assert_eq!(ingest.log.event_count(), 1);
}

#[test]
fn truncated_text_log_still_parses_the_intact_prefix() {
    // A torn write: the file ends mid-line without a newline. The partial
    // token parses as an (odd-looking) event name — no panic, no data loss
    // on the intact prefix.
    let input = b"A B C\nA C B\nA B C".as_slice();
    let truncated = &input[..input.len() - 2]; // "…\nA B "  minus "C"
    let ingest = read_log_with(truncated, &IngestOptions::lenient()).unwrap();
    assert_eq!(ingest.log.len(), 3);
    assert!(ingest.quarantine.is_empty());
}

// ---------------------------------------------------------------------
// CSV: header arity, quoting, and encoding hostility
// ---------------------------------------------------------------------

#[test]
fn csv_header_problems_are_fatal_in_both_modes() {
    for opts in [IngestOptions::strict(), IngestOptions::lenient()] {
        let err = read_csv_log_with(b"".as_slice(), &opts).unwrap_err();
        assert!(matches!(err, CsvLogError::MissingColumn { column: "case" }));
        let err = read_csv_log_with(b"case,timestamp\no1,9\n".as_slice(), &opts).unwrap_err();
        assert!(matches!(
            err,
            CsvLogError::MissingColumn { column: "activity" }
        ));
        let err = read_csv_log_with(b"\xffcase,activity\n".as_slice(), &opts).unwrap_err();
        assert!(matches!(err, CsvLogError::InvalidUtf8 { line: 1 }));
    }
}

#[test]
fn csv_hostile_rows_quarantine_in_lenient_and_fail_fast_in_strict() {
    let input: &[u8] = b"case,activity,ts\n\
        o1,Receive,1\n\
        just-one-field\n\
        o1,\"unterminated,2\n\
        o2,\xff\xfe,3\n\
        o1,Ship,4\n";
    let ingest = read_csv_log_with(input, &IngestOptions::lenient()).unwrap();
    // Case o2's only row was the invalid-UTF-8 one, so only o1 survives.
    assert_eq!(ingest.log.len(), 1);
    let counts = ingest.quarantine.counts();
    assert_eq!(counts.get("short_row"), Some(&1));
    assert_eq!(counts.get("unterminated_quote"), Some(&1));
    assert_eq!(counts.get("invalid_utf8"), Some(&1));
    // The good rows of case o1 survive in order.
    let names: Vec<&str> = ingest
        .log
        .trace(0)
        .iter()
        .map(|&e| ingest.log.events().name(e))
        .collect();
    assert_eq!(names, ["Receive", "Ship"]);

    // Strict mode stops at the first bad row with its line number.
    let err = read_csv_log_with(input, &IngestOptions::strict()).unwrap_err();
    assert!(
        matches!(err, CsvLogError::ShortRow { line: 3, .. }),
        "{err:?}"
    );
}

#[test]
fn csv_quoting_and_header_case_are_tolerant() {
    let input = "Case,ACTIVITY\n\"o,1\",\"say \"\"hi\"\"\"\n\"o,1\",Done\n";
    let log = read_csv_log(input.as_bytes()).unwrap();
    assert_eq!(log.len(), 1);
    let names: Vec<&str> = log.trace(0).iter().map(|&e| log.events().name(e)).collect();
    assert_eq!(names, ["say \"hi\"", "Done"]);
}

#[test]
fn truncated_csv_quarantines_the_torn_tail() {
    // Torn mid-quoted-field: the final line becomes an unterminated quote
    // in lenient mode instead of poisoning the whole load.
    let input = b"case,activity\no1,Receive\no1,\"Shi".as_slice();
    let ingest = read_csv_log_with(input, &IngestOptions::lenient()).unwrap();
    assert_eq!(ingest.log.len(), 1);
    assert_eq!(
        ingest.quarantine.counts().get("unterminated_quote"),
        Some(&1)
    );
}

// ---------------------------------------------------------------------
// Compiled matcher: state-budget, vocabulary, and degenerate-trace edges
// ---------------------------------------------------------------------

#[test]
fn and_fan_out_at_the_arity_cap_is_a_typed_compile_fallback() {
    use evematch::pattern::CompiledPattern;
    // The widest AND the constructors admit: 32 singleton children. Its
    // match language is all 32! permutations — inherently 2^32 automaton
    // states, so compilation must abort with the typed budget error (and
    // quickly: the config BFS caps at STATE_BUDGET interned states, it
    // never tries to materialize the exponential automaton).
    let p = Pattern::and_of_events((0..MAX_AND_ARITY as u32).map(EventId)).unwrap();
    let err = CompiledPattern::compile(&p).unwrap_err();
    assert!(
        matches!(err, CompileError::StateBudgetExceeded { states } if states > STATE_BUDGET),
        "{err:?}"
    );
    assert!(err.to_string().contains(&STATE_BUDGET.to_string()));
}

#[test]
fn state_budget_fallback_is_counted_in_telemetry_never_silent() {
    // A 7-ary AND needs 2^7 = 128 > STATE_BUDGET states, so an evaluator
    // must (a) scan this pattern with the interpreter, (b) count the
    // fallback in the `matcher.fallback.state_budget` info fact, and (c)
    // return exactly the interpreter oracle's support.
    let n = 7u32;
    let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
    let mut b1 = LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)));
    let mut b2 = LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)));
    for rot in 0..n {
        let t: Vec<u32> = (0..n).map(|i| (i + rot) % n).collect();
        b1.push_trace(t.clone());
        b2.push_trace(t);
    }
    let p = Pattern::and_of_events((0..n).map(EventId)).unwrap();
    let ctx = MatchContext::new(
        b1.build(),
        b2.build(),
        PatternSetBuilder::new().complex(p.clone()),
    )
    .unwrap();
    let images: Vec<EventId> = (0..n).map(EventId).collect();

    let mut eval = evematch::core::Evaluator::new(&ctx);
    let support = eval.mapped_support(0, &images);
    let snap = eval.metrics_snapshot();
    assert_eq!(snap.info.get("matcher.fallback.state_budget"), Some(&1));
    assert_eq!(snap.info.get("matcher.fallback.binding"), Some(&0));
    let oracle = pattern_support(&p, ctx.log2(), ctx.index2());
    assert_eq!(
        oracle, n as usize,
        "every rotation is one window of the AND"
    );
    assert_eq!(support as usize, oracle);
}

#[test]
fn compilable_patterns_take_no_fallback() {
    // The happy-path counterpart: a compilable composite is decided by the
    // bit-parallel automaton, so no fallback fact is counted, and its
    // support is the oracle's.
    let mut b1 = LogBuilder::new();
    b1.push_named_trace(["A", "B", "C"]);
    b1.push_named_trace(["A", "C", "B"]);
    let mut b2 = LogBuilder::new();
    b2.push_named_trace(["x", "y", "z"]);
    b2.push_named_trace(["x", "z", "y"]);
    // Three events: a two-event SEQ would take the dependency-edge fast
    // path and never scan.
    let p = Pattern::seq_of_events([EventId(0), EventId(1), EventId(2)]).unwrap();
    let ctx = MatchContext::new(
        b1.build(),
        b2.build(),
        PatternSetBuilder::new().complex(p.clone()),
    )
    .unwrap();
    let mut eval = evematch::core::Evaluator::new(&ctx);
    let support = eval.mapped_support(0, &[EventId(0), EventId(1), EventId(2)]);
    let snap = eval.metrics_snapshot();
    assert_eq!(snap.counters["eval.log_scans"], 1);
    assert_eq!(snap.info.get("matcher.fallback.state_budget"), Some(&0));
    assert_eq!(snap.info.get("matcher.fallback.binding"), Some(&0));
    assert_eq!(support, 1);
    assert_eq!(
        support as usize,
        pattern_support(&p, ctx.log2(), ctx.index2())
    );
}

/// The one support scan over `log`'s arena, unfueled.
fn scan(
    ep: &evematch::pattern::EvaluatedPattern,
    images: &[EventId],
    log: &EventLog,
    idx: &TraceIndex,
    stats: &mut evematch::pattern::SupportStats,
) -> usize {
    ep.scan(images, idx, log.columns(), &mut || true, stats)
        .unwrap()
}

#[test]
fn out_of_vocabulary_images_yield_zero_support_without_probing() {
    use evematch::pattern::{EvaluatedPattern, SupportStats};
    let mut b = LogBuilder::new();
    b.push_named_trace(["A", "B"]);
    let log = b.build();
    let idx = log.trace_index();
    let p = Pattern::seq_of_events([EventId(0), EventId(1)]).unwrap();
    let ep = EvaluatedPattern::new(p, &log, &idx);
    // An image outside the log's two-event vocabulary: support 0, and —
    // exactly like the interpreter oracle's out-of-vocabulary guard — the
    // index is never probed and no candidate is scanned.
    let mut stats = SupportStats::default();
    let support = scan(&ep, &[EventId(0), EventId(9)], &log, &idx, &mut stats);
    assert_eq!(support, 0);
    assert_eq!(stats, SupportStats::default());
}

#[test]
fn columnar_log_handles_empty_and_singleton_traces() {
    use evematch::pattern::{EvaluatedPattern, SupportStats};
    let mut b = LogBuilder::with_events(EventSet::from_names(["A", "B"]));
    b.push_trace(Vec::<u32>::new());
    b.push_trace([0u32]);
    b.push_trace(Vec::<u32>::new());
    b.push_trace([0u32, 1]);
    let log = b.build();
    let col = log.columns();
    assert_eq!(col.len(), 4);
    assert_eq!(col.total_events(), 3);
    assert_eq!(col.trace(0), &[] as &[EventId]);
    assert_eq!(col.trace(1), &[EventId(0)]);
    assert_eq!(col.trace(2), &[] as &[EventId]);
    assert_eq!(col.trace(3), &[EventId(0), EventId(1)]);
    let idx = log.trace_index();
    // A singleton pattern on the degenerate log: matches the singleton
    // and the pair trace, skips the empty ones — same as the oracle.
    let single = Pattern::event(0u32);
    let ep = EvaluatedPattern::new(single.clone(), &log, &idx);
    let mut stats = SupportStats::default();
    let support = scan(&ep, &[EventId(0)], &log, &idx, &mut stats);
    assert_eq!(support, pattern_support(&single, &log, &idx));
    assert_eq!(support, 2);
    // And a two-event SEQ: only the pair trace can hold a length-2 window.
    let pair = Pattern::seq_of_events([EventId(0), EventId(1)]).unwrap();
    let ep = EvaluatedPattern::new(pair.clone(), &log, &idx);
    let support = scan(&ep, &[EventId(0), EventId(1)], &log, &idx, &mut stats);
    assert_eq!(support, pattern_support(&pair, &log, &idx));
    assert_eq!(support, 1);
}

// ---------------------------------------------------------------------
// Properties: lenient ingestion is total and deterministic
// ---------------------------------------------------------------------

/// A line of byte soup, weighted toward structure that exercises the
/// parser's edge cases (markers, directives, quotes, non-UTF-8 bytes).
fn hostile_line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(0u8..=255u8, 0..64),
        Just(b"A B C".to_vec()),
        Just(b"<empty>".to_vec()),
        Just(b"A <empty>".to_vec()),
        Just(b"#! events: A B".to_vec()),
        Just(b"#! schema: v2".to_vec()),
        Just(b"# comment".to_vec()),
        Just(b"o1,\"unterminated".to_vec()),
        Just(b"\xff\xfe\xfd".to_vec()),
    ]
}

fn hostile_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(hostile_line(), 0..24).prop_map(|lines| {
        let mut out = Vec::new();
        for line in lines {
            out.extend_from_slice(&line);
            out.push(b'\n');
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lenient text ingestion never fails on in-memory input (with
    /// unlimited limits) and is bit-deterministic: same bytes, same log,
    /// same quarantine, same rendered report.
    #[test]
    fn lenient_text_ingestion_is_total_and_deterministic(input in hostile_input()) {
        let a = read_log_with(input.as_slice(), &IngestOptions::lenient()).unwrap();
        let b = read_log_with(input.as_slice(), &IngestOptions::lenient()).unwrap();
        prop_assert_eq!(&a.log, &b.log);
        prop_assert_eq!(&a.quarantine, &b.quarantine);
        prop_assert_eq!(a.quarantine.render(), b.quarantine.render());
    }

    /// Anything strict mode accepts, lenient mode accepts with the same
    /// log — and the only thing lenient may additionally flag is an
    /// unknown directive (which strict deliberately treats as a comment).
    #[test]
    fn strict_ok_implies_lenient_same_log(input in hostile_input()) {
        if let Ok(strict) = read_log_with(input.as_slice(), &IngestOptions::strict()) {
            let lenient = read_log_with(input.as_slice(), &IngestOptions::lenient()).unwrap();
            prop_assert_eq!(&strict.log, &lenient.log);
            prop_assert!(lenient
                .quarantine
                .entries()
                .iter()
                .all(|e| e.cause == QuarantineCause::UnknownDirective));
        }
    }

    /// Lenient CSV ingestion (under a well-formed header) never fails on
    /// in-memory input and is bit-deterministic.
    #[test]
    fn lenient_csv_ingestion_is_total_and_deterministic(body in hostile_input()) {
        let mut input = b"case,activity\n".to_vec();
        input.extend_from_slice(&body);
        let a = read_csv_log_with(input.as_slice(), &IngestOptions::lenient()).unwrap();
        let b = read_csv_log_with(input.as_slice(), &IngestOptions::lenient()).unwrap();
        prop_assert_eq!(&a.log, &b.log);
        prop_assert_eq!(&a.quarantine, &b.quarantine);
    }

    /// Ingest limits surface as typed `Limit` errors — never as panics —
    /// no matter where in the soup the limit trips.
    #[test]
    fn limits_on_hostile_input_are_typed_errors(input in hostile_input(), cap in 1usize..4) {
        let limits = IngestLimits::unlimited()
            .with_max_events(cap)
            .with_max_traces(cap);
        for opts in [
            IngestOptions::strict().with_limits(limits),
            IngestOptions::lenient().with_limits(limits),
        ] {
            match read_log_with(input.as_slice(), &opts) {
                Ok(_) => {}
                Err(LogParseError::Limit(l)) => prop_assert!(l.line >= 1),
                Err(other) => prop_assert!(
                    !opts.is_lenient(),
                    "lenient mode may only fail with Limit, got {other:?}"
                ),
            }
        }
    }
}
