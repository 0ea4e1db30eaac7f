//! Text-format persistence: write → read preserves everything the matcher
//! consumes.

use evematch::prelude::*;
use proptest::prelude::*;

fn roundtrip(log: &EventLog) -> EventLog {
    let mut buf = Vec::new();
    write_log(log, &mut buf).unwrap();
    read_log(buf.as_slice()).unwrap()
}

#[test]
fn generated_logs_roundtrip_exactly() {
    let ds = datasets::real_like_sized(150, 150, 3);
    for log in [&ds.pair.log1, &ds.pair.log2] {
        let back = roundtrip(log);
        assert_eq!(back.len(), log.len());
        // Names may re-intern in a different id order (first occurrence in
        // a trace vs declaration), so compare by name sequences.
        for (a, b) in log.traces().zip(back.traces()) {
            let na: Vec<&str> = a.iter().map(|&e| log.events().name(e)).collect();
            let nb: Vec<&str> = b.iter().map(|&e| back.events().name(e)).collect();
            assert_eq!(na, nb);
        }
    }
}

#[test]
fn dependency_statistics_survive_roundtrip() {
    let ds = datasets::real_like_sized(100, 100, 5);
    let log = &ds.pair.log1;
    let back = roundtrip(log);
    for a in log.events().ids() {
        let a2 = back.events().lookup(log.events().name(a)).unwrap();
        assert_eq!(log.vertex_support(a), back.vertex_support(a2));
        for b in log.events().ids() {
            let b2 = back.events().lookup(log.events().name(b)).unwrap();
            assert_eq!(log.edge_support(a, b), back.edge_support(a2, b2));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary logs with printable single-token names roundtrip.
    #[test]
    fn arbitrary_logs_roundtrip(
        traces in prop::collection::vec(prop::collection::vec(0u32..6, 0..6), 0..10)
    ) {
        let names: Vec<String> = (0..6).map(|i| format!("step-{i}")).collect();
        let mut b = LogBuilder::with_events(EventSet::from_names(names.iter().map(String::as_str)));
        for t in traces {
            b.push_trace(t);
        }
        let log = b.build();
        let back = roundtrip(&log);
        prop_assert_eq!(back.len(), log.len());
        for (a, bt) in log.traces().zip(back.traces()) {
            let na: Vec<&str> = a.iter().map(|&e| log.events().name(e)).collect();
            let nb: Vec<&str> = bt.iter().map(|&e| back.events().name(e)).collect();
            prop_assert_eq!(na, nb);
        }
    }
}
