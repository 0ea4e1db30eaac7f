//! Experiment-grid checkpointing: the per-method record the grid
//! aggregates, its journal serialization, and journal replay.
//!
//! A grid with `SweepConfig::checkpoint = Some(dir)` appends one JSONL
//! entry per completed `(x, seed)` job to `<dir>/<figure>.journal` via
//! [`evematch_core::persist::append_line_durable`]. A rerun replays the
//! journal first and only computes the missing jobs, so a `repro_*`
//! binary killed mid-grid resumes instead of starting over.
//!
//! Robustness properties (the integrity framing is DESIGN.md §14):
//!
//! * the journal starts with a framed header (`#%EVMJ` magic, format
//!   version, CRC-64 of the grid fingerprint, header CRC-32) and every
//!   record line carries a ` #c=<crc32>` trailer, both verified on load;
//! * every entry also carries the full *grid fingerprint* (figure, axis,
//!   methods, seeds, traces, budget) in-band, so a journal left by a
//!   differently-shaped or differently-configured run — detected at the
//!   header before a single record is parsed — is rebuilt wholesale
//!   rather than mixed in;
//! * damage is never a panic and never silent acceptance: a torn tail
//!   (the crash case `append_line_durable` documents) is sealed with a
//!   ` #sealed` marker and tolerated, a checksum-failing record is
//!   deterministically quarantined and counted
//!   (`integrity.journal_quarantined.<kind>`, bounded by
//!   [`MAX_QUARANTINED_RECORDS`]), and a header from a newer format
//!   version triggers a counted rebuild-from-scratch — the worst outcome
//!   of a damaged journal is recomputation, never wrong numbers;
//! * `f64` panel values are journaled as `to_bits()` integers, so a
//!   replayed record is *bit-identical* to the freshly computed one and a
//!   resumed grid renders byte-identical deterministic panels.

use std::collections::BTreeMap;
use std::path::Path;

use evematch_core::persist::integrity::{self, IntegrityError, JournalHeader, SEAL_MARKER};
use evematch_core::telemetry::json::{self, JsonValue};
use evematch_core::{Budget, MetricsSnapshot, ProfileSnapshot};

use crate::method::{Method, RunOutcome};

/// Quarantine bound: a journal with more checksum-failing records than
/// this is too damaged to trust selectively and is rebuilt wholesale.
pub(crate) const MAX_QUARANTINED_RECORDS: usize = 1000;

/// Everything the grid aggregation needs from one method's run on one
/// `(x, seed)` job — the unit stored in the checkpoint journal.
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
    /// quarantined cells, and for entries journaled before the profile
    /// field existed).
    pub profile: ProfileSnapshot,
}

impl MethodRecord {
    /// Captures a run outcome.
    pub fn of(out: &RunOutcome) -> MethodRecord {
        MethodRecord {
            f: out.f_measure(),
            anytime_f: out.anytime_f_measure(),
            secs: out.elapsed.as_secs_f64(),
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
            // Absent in journals written before the profile existed — an
            // empty profile, not a rejected line.
            profile: match v.get("profile") {
                Some(p) => ProfileSnapshot::from_json_value(p)?,
                None => ProfileSnapshot::default(),
            },
        })
    }
}

/// The grid-identity string journal entries are stamped with. Any change
/// to the grid's shape or configuration changes the fingerprint, which
/// invalidates old journal entries (they are skipped, not misapplied).
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
        "v1|{figure}|{x_label}|xs={xs:?}|methods={names:?}|seeds={seeds:?}|traces={traces}|budget={budget:?}"
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

/// Parses one journal line into `(x, seed, records)`; `None` if the line
/// is torn/malformed, stamped with a different fingerprint, or carries
/// the wrong number of method records.
fn parse_entry(
    line: &str,
    fingerprint: &str,
    n_methods: usize,
) -> Option<(usize, u64, Vec<MethodRecord>)> {
    let v = JsonValue::parse(line)?;
    if v.get("grid")?.as_str()? != fingerprint {
        return None;
    }
    let x = usize::try_from(v.get("x")?.as_u64()?).ok()?;
    let seed = v.get("seed")?.as_u64()?;
    let arr = v.get("methods")?.as_arr()?;
    if arr.len() != n_methods {
        return None;
    }
    let records: Vec<MethodRecord> = arr
        .iter()
        .map(MethodRecord::from_json_value)
        .collect::<Option<_>>()?;
    Some((x, seed, records))
}

/// What a journal replay decided: the reusable jobs, whether the file
/// must be rebuilt from scratch (with the typed reason, for the warning),
/// and every integrity decision it made along the way.
#[derive(Default)]
pub(crate) struct JournalLoad {
    /// Completed jobs of *this* grid, keyed by `(index-of-x, seed)`.
    pub done: BTreeMap<(usize, u64), Vec<MethodRecord>>,
    /// `Some(reason)` when the journal cannot be appended to and the grid
    /// must start a fresh one ("missing" is the ordinary first-run case
    /// and carries no warning).
    pub rebuild: Option<&'static str>,
    /// One label per integrity decision, in order (such as
    /// `journal_quarantined.checksum_mismatch` or
    /// `journal_rebuilt.version_skew`); the grid counts each as
    /// `integrity.<label>` in its plan.
    pub integrity: Vec<String>,
}

/// Replays a journal: verifies the header and every record's checksum
/// trailer, classifying damage into the [`IntegrityError`] policy —
/// rebuild for header-level failures (version skew, truncated/legacy
/// header, changed grid context), bounded counted quarantine for
/// checksum-failing records, tolerate-and-count for sealed or trailing
/// torn fragments. The file is read as *bytes* and decoded line by line:
/// a torn tail that splits a multi-byte UTF-8 sequence (metrics keys are
/// not ASCII-only) poisons only its own line, not the whole journal.
/// Duplicate entries (a crash between append and the next poll can rerun
/// a job) resolve to the last occurrence.
pub(crate) fn load_journal(
    path: &Path,
    fingerprint: &str,
    xs: &[usize],
    seeds: &[u64],
    n_methods: usize,
) -> JournalLoad {
    #[expect(
        clippy::disallowed_methods,
        reason = "this IS the framed journal loader: header and record CRCs are checked below"
    )]
    let Ok(bytes) = std::fs::read(path) else {
        return JournalLoad {
            rebuild: Some("missing"),
            ..JournalLoad::default()
        };
    };
    let mut integrity = Vec::new();
    let rebuilt = |reason: &'static str, mut integrity: Vec<String>| {
        integrity.push(format!("journal_rebuilt.{reason}"));
        JournalLoad {
            done: BTreeMap::new(),
            rebuild: Some(reason),
            integrity,
        }
    };
    let ends_complete = bytes.last() == Some(&b'\n');
    let mut lines = bytes.split(|&b| b == b'\n').peekable();

    // Header line: version and context are decided before any record is
    // parsed.
    let first = lines.peek().copied().unwrap_or_default();
    match std::str::from_utf8(first)
        .map_err(|_| IntegrityError::TruncatedHeader)
        .and_then(integrity::parse_journal_header)
    {
        Ok(JournalHeader { ctx, .. }) => {
            if ctx != integrity::crc64(fingerprint.as_bytes()) {
                // A journal from a differently-configured grid: start
                // fresh rather than interleaving two configurations.
                return rebuilt("context_changed", integrity);
            }
            lines.next();
        }
        Err(IntegrityError::VersionSkew { .. }) => return rebuilt("version_skew", integrity),
        Err(IntegrityError::ChecksumMismatch { .. }) => {
            return rebuilt("header_damaged", integrity)
        }
        // No (complete) header: a legacy pre-integrity journal or a file
        // torn inside the header line.
        Err(_) => return rebuilt("no_header", integrity),
    }

    let mut done = BTreeMap::new();
    let mut quarantined = 0usize;
    while let Some(raw) = lines.next() {
        let is_last = lines.peek().is_none();
        if raw.is_empty() {
            continue;
        }
        if is_last && !ends_complete {
            // The unterminated trailing fragment a crash mid-append
            // leaves; the caller seals it before appending.
            integrity.push("journal_torn_tail".to_owned());
            continue;
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            quarantined += 1;
            integrity.push("journal_quarantined.torn_tail".to_owned());
            continue;
        };
        if line.ends_with(SEAL_MARKER) {
            // A fragment a previous resume sealed: the documented crash
            // leftover, tolerated.
            integrity.push("journal_sealed_fragment".to_owned());
            continue;
        }
        let entry = integrity::verify_record(line)
            .map_err(IntegrityError::name)
            .and_then(|payload| parse_entry(payload, fingerprint, n_methods).ok_or("malformed"));
        let (x, seed, records) = match entry {
            Ok(entry) => entry,
            Err(kind) => {
                quarantined += 1;
                integrity.push(format!("journal_quarantined.{kind}"));
                if quarantined > MAX_QUARANTINED_RECORDS {
                    return rebuilt("too_damaged", integrity);
                }
                continue;
            }
        };
        let Some(xi) = xs.iter().position(|&v| v == x) else {
            continue;
        };
        if !seeds.contains(&seed) {
            continue;
        }
        done.insert((xi, seed), records);
    }
    JournalLoad {
        done,
        rebuild: None,
        integrity,
    }
}

/// If `path` ends in a torn line without a newline (what a crash
/// mid-append leaves), terminates it with the ` #sealed` marker, so that
/// subsequent appends start on a fresh line instead of fusing with the
/// torn fragment — which would silently discard the first checkpoint
/// written by the resumed run. The marker makes the sealed fragment
/// recognizable to [`load_journal`] and the offline verifier as the
/// documented crash leftover rather than corruption (a complete framed
/// record always ends in its 8-hex-digit trailer, never the marker).
/// Best-effort, like the appends themselves.
pub(crate) fn seal_torn_tail(path: &Path) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let Ok(mut f) = std::fs::OpenOptions::new()
        .read(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    if f.metadata().map_or(0, |m| m.len()) == 0 || f.seek(SeekFrom::End(-1)).is_err() {
        return;
    }
    let mut last = [0u8; 1];
    if f.read_exact(&mut last).is_ok() && last[0] != b'\n' {
        // tidy-allow: no-unclassified-io -- best-effort seal: failure means one recomputed job, never wrong numbers
        let _ = f.write_all(format!("{SEAL_MARKER}\n").as_bytes());
        // tidy-allow: no-unclassified-io -- best-effort seal durability; see above
        let _ = f.sync_all();
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
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

    #[test]
    fn records_round_trip_bit_exactly() {
        let rec = sample_record();
        let line = journal_line(&fp(), 4, 23, std::slice::from_ref(&rec));
        assert!(!line.contains('\n'));
        let (x, seed, parsed) = parse_entry(&line, &fp(), 1).unwrap();
        assert_eq!((x, seed), (4, 23));
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
            assert!(parse_entry(&line[..cut], &fp(), 1).is_none(), "cut {cut}");
        }
        // Fingerprint mismatch (another grid's journal) and arity mismatch.
        assert!(parse_entry(&line, "v1|other", 1).is_none());
        assert!(parse_entry(&line, &fp(), 2).is_none());
        assert!(parse_entry("not json at all", &fp(), 1).is_none());
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
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FigT.journal");

        let mut first = sample_record();
        first.processed = 1;
        let mut second = sample_record();
        second.processed = 2;
        let frame = |l: &str| integrity::frame_record(l);
        let full = frame(&journal_line(&fp(), 3, 11, &[first]));
        let dup = frame(&journal_line(&fp(), 3, 11, std::slice::from_ref(&second)));
        let foreign_x = frame(&journal_line(&fp(), 99, 11, &[sample_record()]));
        let foreign_seed = frame(&journal_line(&fp(), 3, 99, &[sample_record()]));
        let torn = &dup[..dup.len() / 2];
        let header = integrity::journal_header(&fp());
        let text = format!("{header}\n{full}\ngarbage\n{foreign_x}\n{foreign_seed}\n{dup}\n{torn}");
        std::fs::write(&path, text).unwrap();

        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert!(load.rebuild.is_none());
        assert_eq!(load.done.len(), 1);
        assert_eq!(load.done[&(0, 11)][0].processed, 2, "last duplicate wins");

        // A missing journal is the ordinary first-run rebuild.
        let load = load_journal(&dir.join("absent"), &fp(), &[3], &[11], 1);
        assert!(load.done.is_empty());
        assert_eq!(load.rebuild, Some("missing"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_journal_rebuilds_on_header_level_damage() {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-header-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FigT.journal");
        let record = integrity::frame_record(&journal_line(&fp(), 3, 11, &[sample_record()]));

        // A journal from a differently-configured grid: the header context
        // hash diverges, so the whole file is rebuilt, not appended to.
        let other = fp().replace("traces=60", "traces=61");
        std::fs::write(
            &path,
            format!("{}\n{record}\n", integrity::journal_header(&other)),
        )
        .unwrap();
        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert_eq!(load.rebuild, Some("context_changed"));
        assert!(load.done.is_empty());

        // A legacy pre-integrity journal (no header at all): rebuild.
        std::fs::write(&path, format!("{record}\n")).unwrap();
        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert_eq!(load.rebuild, Some("no_header"));

        // A future format version: typed rebuild, never misparse.
        let body = format!("#%EVMJ v=9 ctx={:016x}", integrity::crc64(fp().as_bytes()));
        let future = format!("{body} c={:08x}", integrity::crc32(body.as_bytes()));
        std::fs::write(&path, format!("{future}\n{record}\n")).unwrap();
        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert_eq!(load.rebuild, Some("version_skew"));

        // A header with a flipped byte: typed rebuild.
        let mut damaged = integrity::journal_header(&fp()).into_bytes();
        let n = damaged.len();
        damaged[n - 12] ^= 0x01;
        let mut bytes = damaged;
        bytes.push(b'\n');
        bytes.extend_from_slice(record.as_bytes());
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert!(load.rebuild.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_quarantined_and_counted() {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FigT.journal");

        let mut rec = sample_record();
        rec.processed = 1111;
        let line = integrity::frame_record(&journal_line(&fp(), 3, 11, &[rec]));
        // Flip one digit of the journaled `"proc":1111` payload: the JSON
        // stays valid, only the checksum knows.
        let evil = line.replace("\"proc\":1111", "\"proc\":9111");
        assert_ne!(evil, line, "corruption must hit the payload");
        std::fs::write(
            &path,
            format!("{}\n{evil}\n", integrity::journal_header(&fp())),
        )
        .unwrap();

        // The record is quarantined (recomputed), never silently accepted
        // with the wrong number, and the decision is reported for the
        // grid to count.
        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert!(load.rebuild.is_none());
        assert!(load.done.is_empty(), "corrupt record must not replay");
        assert_eq!(load.integrity, ["journal_quarantined.checksum_mismatch"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_splitting_a_multibyte_utf8_sequence_loses_only_its_own_line() {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-utf8-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FigT.journal");

        // A crash mid-append can cut anywhere, including inside a
        // multi-byte UTF-8 sequence. Simulate: header, one complete entry,
        // then a torn line ending in the first byte of 'é' (0xC3 without
        // its continuation byte) — the file as a whole is not valid UTF-8.
        let good = integrity::frame_record(&journal_line(&fp(), 3, 11, &[sample_record()]));
        let torn = integrity::frame_record(&journal_line(&fp(), 4, 23, &[sample_record()]));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(integrity::journal_header(&fp()).as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        bytes.push(0xC3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            std::str::from_utf8(&bytes).is_err(),
            "tail must be torn mid-sequence"
        );

        // The complete entry is still replayed: only the torn line is lost.
        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert!(load.rebuild.is_none(), "torn tail is sealed, not rebuilt");
        assert_eq!(load.done.len(), 1);
        assert!(load.done.contains_key(&(0, 11)));

        // Sealing terminates the torn bytes; appends then land on a fresh
        // line and both entries replay, with the sealed fragment tolerated.
        seal_torn_tail(&path);
        let faults = evematch_core::fault::Faults::default();
        evematch_core::persist::append_line_durable(&faults, &path, &torn).unwrap();
        let load = load_journal(&path, &fp(), &[3, 4], &[11, 23], 1);
        assert_eq!(load.done.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
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
        let (_, _, parsed) = parse_entry(&line, &fp(), 1).unwrap();
        assert_eq!(parsed[0], rec);
    }

    #[test]
    fn seal_torn_tail_terminates_only_unfinished_lines() {
        let dir = std::env::temp_dir().join(format!("evematch-ckpt-seal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.journal");

        // Missing file: no-op, not created.
        seal_torn_tail(&path);
        assert!(!path.exists());

        // Clean tail: untouched.
        std::fs::write(&path, "{\"a\":1}\n").unwrap();
        seal_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");

        // Torn tail: terminated with the seal marker, so the next append
        // starts a fresh line and replay recognizes the fragment.
        std::fs::write(&path, "{\"a\":1}\n{\"b\":").unwrap();
        seal_torn_tail(&path);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{{\"a\":1}}\n{{\"b\":{SEAL_MARKER}\n")
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicked_record_is_a_marked_dnf() {
        let rec = MethodRecord::panicked();
        assert!(!rec.finished);
        assert_eq!(rec.metrics.counters.get("grid.worker_panics"), Some(&1));
        // And it journals like any other record.
        let line = journal_line(&fp(), 3, 11, std::slice::from_ref(&rec));
        let (_, _, parsed) = parse_entry(&line, &fp(), 1).unwrap();
        assert_eq!(parsed[0], rec);
    }
}
