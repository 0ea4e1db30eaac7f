//! Experiment-grid checkpointing: the per-method record the grid
//! aggregates and its journal payload.
//!
//! A grid with `SweepConfig::checkpoint = Some(dir)` appends one entry per
//! completed `(x, seed)` job to `<dir>/<figure>.journal`, and a rerun
//! replays the journal first and only computes the missing jobs, so a
//! `repro_*` binary killed mid-grid resumes instead of starting over. The
//! journal itself — framing, crash policy, replay and the writers — is
//! [`evematch_core::persist::journal`]; this module owns its content:
//!
//! * the *grid fingerprint* (figure, axis, methods, seeds, traces,
//!   budget) is the journal's context, so a journal left by a
//!   differently-configured run is rebuilt at its header, and every entry
//!   also carries it in-band;
//! * an entry is `{grid, x, seed, methods: [MethodRecord…]}` as one JSON
//!   line, and [`parse_entry`] accepts exactly what this build writes —
//!   any other shape is quarantined and recomputed, never misread;
//! * `f64` panel values are journaled as `to_bits()` integers, so a
//!   replayed record is *bit-identical* to the freshly computed one and a
//!   resumed grid renders byte-identical deterministic panels.

use evematch_core::telemetry::json::{self, JsonValue};
use evematch_core::{Budget, MetricsSnapshot, ProfileSnapshot};

use crate::method::{Method, RunOutcome};

/// Everything the grid aggregation needs from one method's run on one
/// `(x, seed)` job — the unit stored in the checkpoint journal.
///
/// A change to its JSON, the embedded metrics and profile included, bumps
/// [`RECORD_SHAPE`].
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MethodRecord {
    /// Paper-faithful F-measure (meaningful only when `finished`).
    pub f: f64,
    /// Anytime F-measure of whatever mapping the run returned.
    pub anytime_f: f64,
    /// Wall-clock seconds (non-deterministic; excluded from byte-identity
    /// claims, but journaled so full replays reproduce the time panel).
    pub secs: f64,
    /// Mappings processed before the run stopped.
    pub processed: u64,
    /// Whether the run finished within budget.
    pub finished: bool,
    /// The run's telemetry snapshot.
    pub metrics: MetricsSnapshot,
    /// The run's hierarchical phase profile (empty for panicked and
    /// quarantined cells).
    pub profile: ProfileSnapshot,
}

impl MethodRecord {
    /// Captures a run outcome.
    pub fn of(out: &RunOutcome) -> MethodRecord {
        MethodRecord {
            f: out.f_measure(),
            anytime_f: out.anytime_f_measure(),
            secs: out.profile.wall().as_secs_f64(),
            processed: out.processed(),
            finished: out.finished(),
            metrics: out.metrics.clone(),
            profile: out.profile.clone(),
        }
    }

    /// Record for a method whose run panicked: a DNF that returned no
    /// mapping, with a `grid.worker_panics` telemetry marker so the
    /// failure is visible in the merged metrics.
    pub fn panicked() -> MethodRecord {
        let mut metrics = MetricsSnapshot::default();
        metrics.set_counter("grid.worker_panics", 1);
        MethodRecord {
            f: 0.0,
            anytime_f: 0.0,
            secs: 0.0,
            processed: 0,
            finished: false,
            metrics,
            profile: ProfileSnapshot::default(),
        }
    }

    /// Record for a cell the supervisor quarantined after exhausting its
    /// retry budget (or immediately, for a non-transient fault): a typed
    /// DNF carrying the fault class and attempt count in its metrics
    /// (`grid.cell_quarantined.<class>`, `fault.retries.grid.cell`).
    pub fn quarantined(class: evematch_core::fault::FaultClass, retries: u64) -> MethodRecord {
        let mut metrics = MetricsSnapshot::default();
        metrics.set_counter(&format!("grid.cell_quarantined.{}", class.name()), 1);
        if retries > 0 {
            metrics.set_counter("fault.retries.grid.cell", retries);
        }
        MethodRecord {
            f: 0.0,
            anytime_f: 0.0,
            secs: 0.0,
            processed: 0,
            finished: false,
            metrics,
            profile: ProfileSnapshot::default(),
        }
    }

    /// Appends this record as a JSON object. Floats are stored as
    /// `to_bits()` integers for exact round-trips.
    fn push_json(&self, out: &mut String) {
        out.push('{');
        json::push_key(out, "f");
        out.push_str(&self.f.to_bits().to_string());
        out.push(',');
        json::push_key(out, "af");
        out.push_str(&self.anytime_f.to_bits().to_string());
        out.push(',');
        json::push_key(out, "secs");
        out.push_str(&self.secs.to_bits().to_string());
        out.push(',');
        json::push_key(out, "proc");
        out.push_str(&self.processed.to_string());
        out.push(',');
        json::push_key(out, "fin");
        out.push_str(if self.finished { "true" } else { "false" });
        out.push(',');
        json::push_key(out, "metrics");
        out.push_str(&self.metrics.to_json_string());
        out.push(',');
        json::push_key(out, "profile");
        out.push_str(&self.profile.to_json_string());
        out.push('}');
    }

    /// Parses one record; `None` on any malformation.
    fn from_json_value(v: &JsonValue) -> Option<MethodRecord> {
        let JsonValue::Bool(finished) = *v.get("fin")? else {
            return None;
        };
        Some(MethodRecord {
            f: f64::from_bits(v.get("f")?.as_u64()?),
            anytime_f: f64::from_bits(v.get("af")?.as_u64()?),
            secs: f64::from_bits(v.get("secs")?.as_u64()?),
            processed: v.get("proc")?.as_u64()?,
            finished,
            metrics: MetricsSnapshot::from_json_value(v.get("metrics")?)?,
            profile: ProfileSnapshot::from_json_value(v.get("profile")?)?,
        })
    }
}

/// The shape of a journaled [`MethodRecord`], the first field of the grid
/// fingerprint. A journal written with another shape then fails at its
/// header and is rebuilt once (`journal_rebuilt.context_changed`), instead
/// of having every entry quarantined as malformed or, when an old entry
/// still parses, replayed as current. Shape 2: the embedded profile's
/// nodes hold calls, pops and walls only.
pub(crate) const RECORD_SHAPE: u32 = 2;

/// The grid-identity string journal entries are stamped with. Any change
/// to the record shape or to the grid's shape or configuration changes the
/// fingerprint, which invalidates old journal entries (they are skipped,
/// not misapplied).
pub(crate) fn grid_fingerprint(
    figure: &str,
    x_label: &str,
    xs: &[usize],
    methods: &[Method],
    seeds: &[u64],
    traces: usize,
    budget: &Budget,
) -> String {
    let names: Vec<&str> = methods.iter().map(Method::name).collect();
    format!(
        "v{RECORD_SHAPE}|{figure}|{x_label}|xs={xs:?}|methods={names:?}|seeds={seeds:?}|traces={traces}|budget={budget:?}"
    )
}

/// Renders one journal entry (a single line, no embedded newlines — the
/// JSON writer escapes them) for a completed `(x, seed)` job.
pub(crate) fn journal_line(
    fingerprint: &str,
    x: usize,
    seed: u64,
    records: &[MethodRecord],
) -> String {
    let mut out = String::new();
    out.push('{');
    json::push_key(&mut out, "grid");
    json::push_string(&mut out, fingerprint);
    out.push(',');
    json::push_key(&mut out, "x");
    out.push_str(&x.to_string());
    out.push(',');
    json::push_key(&mut out, "seed");
    out.push_str(&seed.to_string());
    out.push(',');
    json::push_key(&mut out, "methods");
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        r.push_json(&mut out);
    }
    out.push_str("]}");
    out
}

/// Parses one journal payload into its job key `(index-of-x, seed)` and
/// records; `None` if it is malformed, stamped with another fingerprint,
/// or names a job or a method count outside the grid.
pub(crate) fn parse_entry(
    payload: &str,
    fingerprint: &str,
    xs: &[usize],
    seeds: &[u64],
    n_methods: usize,
) -> Option<((usize, u64), Vec<MethodRecord>)> {
    let v = JsonValue::parse(payload)?;
    if v.get("grid")?.as_str()? != fingerprint {
        return None;
    }
    let x = usize::try_from(v.get("x")?.as_u64()?).ok()?;
    let xi = xs.iter().position(|&grid_x| grid_x == x)?;
    let seed = v.get("seed")?.as_u64()?;
    let arr = v.get("methods")?.as_arr()?;
    if !seeds.contains(&seed) || arr.len() != n_methods {
        return None;
    }
    let records: Vec<MethodRecord> = arr
        .iter()
        .map(MethodRecord::from_json_value)
        .collect::<Option<_>>()?;
    Some(((xi, seed), records))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};

    use evematch_core::persist::journal::{self, frame_record, journal_header, JournalLoad};

    use super::*;

    fn sample_record() -> MethodRecord {
        let mut metrics = MetricsSnapshot::default();
        metrics.set_counter("budget.processed", 12345);
        metrics.set_gauge_max("frontier", 7);
        MethodRecord {
            f: 0.1 + 0.2, // deliberately not representable as a short decimal
            anytime_f: f64::NAN,
            secs: 1.5e-7,
            processed: u64::MAX - 1,
            finished: true,
            metrics,
            profile: ProfileSnapshot::default(),
        }
    }

    fn fp() -> String {
        grid_fingerprint(
            "FigT",
            "#events",
            &[3, 4],
            &[Method::Vertex],
            &[11, 23],
            60,
            &Budget::UNLIMITED.with_processed_cap(1000),
        )
    }

    /// [`parse_entry`] for the [`fp`] grid: xs `[3, 4]`, seeds `[11, 23]`,
    /// `n_methods` methods.
    fn parse(payload: &str, n_methods: usize) -> Option<((usize, u64), Vec<MethodRecord>)> {
        parse_entry(payload, &fp(), &[3, 4], &[11, 23], n_methods)
    }

    /// Replays the [`fp`] grid's journal at `path` as the grid does.
    fn replay(path: &Path) -> JournalLoad<((usize, u64), Vec<MethodRecord>)> {
        journal::replay(path, &fp(), |payload| parse(payload, 1))
    }

    fn tmp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("FigT.journal")
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let rec = sample_record();
        let line = journal_line(&fp(), 4, 23, std::slice::from_ref(&rec));
        assert!(!line.contains('\n'));
        let (key, parsed) = parse(&line, 1).unwrap();
        assert_eq!(key, (1, 23));
        assert_eq!(parsed[0].f.to_bits(), rec.f.to_bits());
        assert_eq!(parsed[0].anytime_f.to_bits(), rec.anytime_f.to_bits());
        assert_eq!(parsed[0].secs.to_bits(), rec.secs.to_bits());
        assert_eq!(parsed[0].processed, rec.processed);
        assert_eq!(parsed[0].metrics, rec.metrics);
    }

    #[test]
    fn torn_and_foreign_lines_parse_to_none() {
        let line = journal_line(&fp(), 3, 11, &[sample_record()]);
        // Every strict prefix is rejected (the torn-tail crash case).
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(parse(&line[..cut], 1).is_none(), "cut {cut}");
        }
        // Another grid's fingerprint, a job outside the grid, the wrong
        // method count, and a record missing a field this build writes.
        assert!(parse_entry(&line, "v1|other", &[3, 4], &[11, 23], 1).is_none());
        assert!(parse(&journal_line(&fp(), 99, 11, &[sample_record()]), 1).is_none());
        assert!(parse(&journal_line(&fp(), 3, 99, &[sample_record()]), 1).is_none());
        assert!(parse(&line, 2).is_none());
        assert!(parse(&line.replace(",\"profile\":", ",\"old\":"), 1).is_none());
        assert!(parse("not json at all", 1).is_none());
    }

    #[test]
    fn fingerprint_distinguishes_grid_shape_and_budget() {
        let base = fp();
        let other_budget = grid_fingerprint(
            "FigT",
            "#events",
            &[3, 4],
            &[Method::Vertex],
            &[11, 23],
            60,
            &Budget::UNLIMITED.with_processed_cap(2000),
        );
        let other_methods = grid_fingerprint(
            "FigT",
            "#events",
            &[3, 4],
            &[Method::PatternTight],
            &[11, 23],
            60,
            &Budget::UNLIMITED.with_processed_cap(1000),
        );
        assert_ne!(base, other_budget);
        assert_ne!(base, other_methods);
    }

    #[test]
    fn load_journal_skips_junk_and_keeps_last_duplicate() {
        let path = tmp_journal("load");
        let mut first = sample_record();
        first.processed = 1;
        let mut second = sample_record();
        second.processed = 2;
        let full = frame_record(&journal_line(&fp(), 3, 11, &[first]));
        let dup = frame_record(&journal_line(&fp(), 3, 11, std::slice::from_ref(&second)));
        let foreign_x = frame_record(&journal_line(&fp(), 99, 11, &[sample_record()]));
        let torn = &dup[..dup.len() / 2];
        let header = journal_header(&fp());
        let text = format!("{header}\n{full}\ngarbage\n{foreign_x}\n{dup}\n{torn}");
        std::fs::write(&path, text).unwrap();

        let load = replay(&path);
        assert!(load.rebuild.is_none());
        assert_eq!(
            load.integrity,
            [
                "journal_quarantined.torn_tail",
                "journal_quarantined.malformed",
                "journal_torn_tail"
            ]
        );
        // The grid keys replayed jobs in a map: the last duplicate wins.
        let done: BTreeMap<_, _> = load.records.into_iter().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[&(0, 11)][0].processed, 2, "last duplicate wins");

        // A missing journal is the ordinary first-run rebuild.
        let load = replay(&path.with_file_name("absent"));
        assert!(load.records.is_empty() && load.integrity.is_empty());
        assert_eq!(load.rebuild, Some("missing"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn load_journal_rebuilds_on_header_level_damage() {
        let path = tmp_journal("header");
        let record = frame_record(&journal_line(&fp(), 3, 11, &[sample_record()]));
        let rebuild = |header: &str| {
            std::fs::write(&path, format!("{header}\n{record}\n")).unwrap();
            let load = replay(&path);
            assert!(load.records.is_empty());
            load.rebuild
        };

        // A journal from a differently-configured grid: the header context
        // hash diverges, so the whole file is rebuilt, not appended to.
        let other = journal_header(&fp().replace("traces=60", "traces=61"));
        assert_eq!(rebuild(&other), Some("context_changed"));
        // A journal with no header at all (its first line is a record).
        assert_eq!(rebuild(&record), Some("no_header"));
        // A future format version: typed rebuild, never misparse.
        let future = journal_header(&fp()).replacen(" v=1 ", " v=9 ", 1);
        assert_eq!(rebuild(&future), Some("version_skew"));
        // A header with a flipped checksum digit: typed rebuild.
        let mut damaged = journal_header(&fp());
        let flipped = if damaged.ends_with('0') { "1" } else { "0" };
        damaged.replace_range(damaged.len() - 1.., flipped);
        assert_eq!(rebuild(&damaged), Some("header_damaged"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupt_record_is_quarantined_and_counted() {
        let path = tmp_journal("flip");
        let mut rec = sample_record();
        rec.processed = 1111;
        let line = frame_record(&journal_line(&fp(), 3, 11, &[rec]));
        // Flip one digit of the journaled `"proc":1111` payload: the JSON
        // stays valid, only the checksum knows.
        let evil = line.replace("\"proc\":1111", "\"proc\":9111");
        assert_ne!(evil, line, "corruption must hit the payload");
        std::fs::write(&path, format!("{}\n{evil}\n", journal_header(&fp()))).unwrap();

        // The record is quarantined (recomputed), never silently accepted
        // with the wrong number, and the decision is reported for the
        // grid to count.
        let load = replay(&path);
        assert!(load.rebuild.is_none());
        assert!(load.records.is_empty(), "corrupt record must not replay");
        assert_eq!(load.integrity, ["journal_quarantined.checksum_mismatch"]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_splitting_a_multibyte_utf8_sequence_loses_only_its_own_line() {
        let path = tmp_journal("utf8");
        // A crash mid-append can cut anywhere, including inside a
        // multi-byte UTF-8 sequence. Simulate: header, one complete entry,
        // then a torn line ending in the first byte of 'é' (0xC3 without
        // its continuation byte) — the file as a whole is not valid UTF-8.
        let good = frame_record(&journal_line(&fp(), 3, 11, &[sample_record()]));
        let second = journal_line(&fp(), 4, 23, &[sample_record()]);
        let mut bytes = format!("{}\n{good}\n", journal_header(&fp())).into_bytes();
        bytes.extend_from_slice(&second.as_bytes()[..second.len() / 2]);
        bytes.push(0xC3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            std::str::from_utf8(&bytes).is_err(),
            "tail must be torn mid-sequence"
        );

        // The complete entry is still replayed: only the torn line is lost.
        let load = replay(&path);
        assert!(load.rebuild.is_none(), "torn tail is sealed, not rebuilt");
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].0, (0, 11));

        // Sealing terminates the torn bytes; appends then land on a fresh
        // line and both entries replay, with the sealed fragment tolerated.
        journal::seal_torn_tail(&path);
        let faults = evematch_core::fault::Faults::default();
        let retry = evematch_core::retry::RetryPolicy::no_retries();
        journal::append(&faults, &retry, &path, &second);
        assert_eq!(replay(&path).records.len(), 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn quarantined_record_is_a_typed_dnf() {
        use evematch_core::fault::FaultClass;
        let rec = MethodRecord::quarantined(FaultClass::Transient, 3);
        assert!(!rec.finished);
        assert_eq!(
            rec.metrics.counters.get("grid.cell_quarantined.transient"),
            Some(&1)
        );
        assert_eq!(
            rec.metrics.counters.get("fault.retries.grid.cell"),
            Some(&3)
        );
        let immediate = MethodRecord::quarantined(FaultClass::Permanent, 0);
        assert_eq!(
            immediate
                .metrics
                .counters
                .get("grid.cell_quarantined.permanent"),
            Some(&1)
        );
        assert!(!immediate
            .metrics
            .counters
            .contains_key("fault.retries.grid.cell"));
        // And it journals like any other record.
        let line = journal_line(&fp(), 3, 11, std::slice::from_ref(&rec));
        let (_, parsed) = parse(&line, 1).unwrap();
        assert_eq!(parsed[0], rec);
    }

    #[test]
    fn seal_torn_tail_terminates_only_unfinished_lines() {
        let path = tmp_journal("seal");
        // Missing file: no-op, not created.
        journal::seal_torn_tail(&path);
        assert!(!path.exists());

        // Clean tail: untouched.
        std::fs::write(&path, "{\"a\":1}\n").unwrap();
        journal::seal_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");

        // Torn tail: terminated with the seal marker, so the next append
        // starts a fresh line and replay recognizes the fragment.
        std::fs::write(&path, "{\"a\":1}\n{\"b\":").unwrap();
        journal::seal_torn_tail(&path);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{{\"a\":1}}\n{{\"b\":{}\n", journal::SEAL_MARKER)
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn panicked_record_is_a_marked_dnf() {
        let rec = MethodRecord::panicked();
        assert!(!rec.finished);
        assert_eq!(rec.metrics.counters.get("grid.worker_panics"), Some(&1));
        // And it journals like any other record.
        let line = journal_line(&fp(), 3, 11, std::slice::from_ref(&rec));
        let (_, parsed) = parse(&line, 1).unwrap();
        assert_eq!(parsed[0], rec);
    }
}
