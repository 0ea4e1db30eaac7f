//! The append-only checkpoint journal: its in-band framing, its one line
//! classifier, its replay policy and its two writers.
//!
//! A journal is a header line — magic `#%EVMJ`, format version, CRC-64 of
//! the writer's context fingerprint, header CRC-32 — followed by one
//! record per line, each carrying a ` #c=<crc32>` trailer over its
//! payload. [`start`] writes the header atomically, [`append`] frames and
//! durably appends one record, and a resume first [`seal_torn_tail`]s the
//! fragment a crash mid-append can leave, so later appends start on a
//! fresh line.
//!
//! Both readers walk the file through one line classifier: the header
//! verdict, then one kind per line (record, sealed fragment, torn tail or
//! damaged). [`replay`] (a grid's `--resume`) rebuilds, quarantines or
//! tolerates by kind; the offline verifier
//! ([`super::integrity::verify_dir`]) grades the file by the same kinds.
//! The worst outcome of a damaged journal is recomputation, never wrong
//! numbers (DESIGN.md §14).

use std::path::Path;

use super::integrity::{crc32, crc64, IntegrityError, FORMAT_VERSION};
use crate::fault::Faults;
use crate::retry::{retry_io, RealClock, RetryPolicy};

/// Magic prefix of the journal header line. The leading `#` keeps naive
/// line-oriented readers treating it as a comment.
pub const JOURNAL_MAGIC: &str = "#%EVMJ";

/// Marker [`seal_torn_tail`] appends to terminate a torn line: both
/// readers recognize a sealed fragment as the documented crash case rather
/// than corruption (a complete record always ends in its 8-hex-digit
/// trailer, never the marker).
pub const SEAL_MARKER: &str = " #sealed";

/// Quarantine bound: a journal with more damaged or malformed records than
/// this is too damaged to trust selectively and is rebuilt wholesale.
pub const MAX_QUARANTINED_RECORDS: usize = 1000;

/// The parsed fields of a journal header line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version the journal was written with.
    pub version: u32,
    /// CRC-64 of the writer's context fingerprint (for the checkpoint
    /// journal: the grid fingerprint). A mismatch means the journal
    /// belongs to a differently-configured run.
    pub ctx: u64,
}

/// Renders the journal header line for a writer with context string `ctx`
/// (no trailing newline): `#%EVMJ v=1 ctx=<crc64> c=<crc32 of the rest>`.
#[must_use]
pub fn journal_header(ctx: &str) -> String {
    let body = format!(
        "{JOURNAL_MAGIC} v={FORMAT_VERSION} ctx={:016x}",
        crc64(ctx.as_bytes())
    );
    let c = crc32(body.as_bytes());
    format!("{body} c={c:08x}")
}

/// Parses and verifies a journal header line.
///
/// # Errors
/// [`IntegrityError::TruncatedHeader`] when the line is not a (complete)
/// header; [`IntegrityError::VersionSkew`] when it declares a newer format
/// (checked before the checksum, since a future format may checksum
/// differently); [`IntegrityError::ChecksumMismatch`] when the header
/// fails its own CRC.
pub fn parse_journal_header(line: &str) -> Result<JournalHeader, IntegrityError> {
    let rest = line
        .strip_prefix(JOURNAL_MAGIC)
        .ok_or(IntegrityError::TruncatedHeader)?;
    let mut version = None;
    let mut ctx = None;
    let mut crc = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("v=") {
            version = v.parse::<u32>().ok();
        } else if let Some(x) = tok.strip_prefix("ctx=") {
            ctx = u64::from_str_radix(x, 16).ok();
        } else if let Some(c) = tok.strip_prefix("c=") {
            crc = u32::from_str_radix(c, 16).ok();
        }
    }
    let version = version.ok_or(IntegrityError::TruncatedHeader)?;
    if version > FORMAT_VERSION {
        return Err(IntegrityError::VersionSkew {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let (Some(ctx), Some(expected)) = (ctx, crc) else {
        return Err(IntegrityError::TruncatedHeader);
    };
    let body = line.rsplit_once(" c=").map_or(line, |(body, _)| body);
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(IntegrityError::ChecksumMismatch {
            expected: u64::from(expected),
            actual: u64::from(actual),
        });
    }
    Ok(JournalHeader { version, ctx })
}

/// Frames one journal record line: appends the ` #c=<crc32>` trailer over
/// the payload bytes. The payload must not contain newlines (the durable
/// append rejects them).
#[must_use]
pub fn frame_record(payload: &str) -> String {
    format!("{payload} #c={:08x}", crc32(payload.as_bytes()))
}

/// Verifies one framed journal record line, returning the payload with the
/// trailer stripped.
///
/// # Errors
/// [`IntegrityError::TornTail`] when the trailer is missing or cut short;
/// [`IntegrityError::ChecksumMismatch`] when the payload does not match
/// its trailer.
pub fn verify_record(line: &str) -> Result<&str, IntegrityError> {
    let (payload, crc_hex) = line.rsplit_once(" #c=").ok_or(IntegrityError::TornTail)?;
    if crc_hex.len() != 8 {
        return Err(IntegrityError::TornTail);
    }
    let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| IntegrityError::TornTail)?;
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(IntegrityError::ChecksumMismatch {
            expected: u64::from(expected),
            actual: u64::from(actual),
        });
    }
    Ok(payload)
}

/// What one non-empty line after the header is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Line<'a> {
    /// A complete record whose trailer checked out: its payload.
    Record(&'a str),
    /// A fragment an earlier resume sealed with [`SEAL_MARKER`].
    Sealed,
    /// The unterminated final line: what a crash mid-append leaves.
    TornTail,
    /// A complete line that fails verification (a line that is not UTF-8
    /// is [`IntegrityError::TornTail`]).
    Damaged(IntegrityError),
}

/// The one walk over a journal's bytes: the header verdict (`None` when
/// the first line does not even start with [`JOURNAL_MAGIC`], such as an
/// empty or headerless file), then one [`Line`] per non-empty line after
/// it. The bytes are split before decoding, so a line torn inside a
/// multi-byte UTF-8 sequence poisons only itself.
pub(crate) fn classify(
    bytes: &[u8],
) -> (
    Option<Result<JournalHeader, IntegrityError>>,
    impl Iterator<Item = Line<'_>>,
) {
    let mut split = bytes.split(|&b| b == b'\n');
    let first = split.next().unwrap_or_default();
    let header = first.starts_with(JOURNAL_MAGIC.as_bytes()).then(|| {
        std::str::from_utf8(first)
            .map_err(|_| IntegrityError::TruncatedHeader)
            .and_then(parse_journal_header)
    });
    let mut rest = split.peekable();
    let lines = std::iter::from_fn(move || {
        let raw = rest.find(|raw| !raw.is_empty())?;
        // A newline-terminated file ends in an empty split, so a non-empty
        // last one is unterminated.
        if rest.peek().is_none() {
            return Some(Line::TornTail);
        }
        Some(match std::str::from_utf8(raw) {
            Err(_) => Line::Damaged(IntegrityError::TornTail),
            Ok(line) if line.ends_with(SEAL_MARKER) => Line::Sealed,
            Ok(line) => verify_record(line).map_or_else(Line::Damaged, Line::Record),
        })
    });
    (header, lines)
}

/// What a [`replay`] decided.
#[derive(Debug, Default)]
pub struct JournalLoad<T> {
    /// Every record the caller's parser accepted, in file order.
    pub records: Vec<T>,
    /// `Some(reason)` when the journal cannot be appended to and the
    /// writer must [`start`] a fresh one (`missing` is the ordinary
    /// first-run case and carries no label).
    pub rebuild: Option<&'static str>,
    /// One label per integrity decision, in order (such as
    /// `journal_quarantined.checksum_mismatch` or
    /// `journal_rebuilt.version_skew`); the grid counts each as
    /// `integrity.<label>` in its plan.
    pub integrity: Vec<String>,
}

/// Replays the journal at `path` for a writer with context `ctx`, handing
/// each verified payload to `parse`. Pure: it reads, decides and labels,
/// and writes nothing.
///
/// Policy by line kind: a header from another context, a newer
/// format version, a damaged header or none at all rebuilds the journal;
/// a damaged line or one `parse` rejects (`malformed`) is quarantined and
/// counted, up to [`MAX_QUARANTINED_RECORDS`] before the journal is
/// rebuilt as `too_damaged`; torn and sealed fragments are tolerated and
/// counted.
pub fn replay<T>(
    path: &Path,
    ctx: &str,
    mut parse: impl FnMut(&str) -> Option<T>,
) -> JournalLoad<T> {
    let mut load = JournalLoad {
        records: Vec::new(),
        rebuild: None,
        integrity: Vec::new(),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "this IS the framed journal reader: header and record CRCs are checked below"
    )]
    let Ok(bytes) = std::fs::read(path) else {
        load.rebuild = Some("missing");
        return load;
    };
    let (header, lines) = classify(&bytes);
    load.rebuild = match header {
        Some(Ok(h)) if h.ctx == crc64(ctx.as_bytes()) => None,
        // Another configuration's journal: start fresh rather than
        // interleave two configurations.
        Some(Ok(_)) => Some("context_changed"),
        Some(Err(IntegrityError::VersionSkew { .. })) => Some("version_skew"),
        Some(Err(IntegrityError::ChecksumMismatch { .. })) => Some("header_damaged"),
        // No complete header: a headerless file or one torn inside it.
        _ => Some("no_header"),
    };
    let mut quarantined = 0;
    for line in lines {
        if load.rebuild.is_some() {
            break;
        }
        let kind = match line {
            Line::Record(payload) => match parse(payload) {
                Some(record) => {
                    load.records.push(record);
                    continue;
                }
                None => "malformed",
            },
            Line::Sealed => {
                load.integrity.push("journal_sealed_fragment".to_owned());
                continue;
            }
            Line::TornTail => {
                load.integrity.push("journal_torn_tail".to_owned());
                continue;
            }
            Line::Damaged(e) => e.name(),
        };
        load.integrity.push(format!("journal_quarantined.{kind}"));
        quarantined += 1;
        if quarantined > MAX_QUARANTINED_RECORDS {
            load.records.clear();
            load.rebuild = Some("too_damaged");
        }
    }
    if let Some(reason) = load.rebuild {
        load.integrity.push(format!("journal_rebuilt.{reason}"));
    }
    load
}

/// Starts a fresh journal at `path` for context `ctx`: the header, written
/// atomically under supervised retries at site `journal.rebuild`, so every
/// later append lands under a verified context. Best-effort like
/// [`append`]: a failure is counted in the plan's `fault.*` telemetry and
/// never takes down the run.
pub fn start(faults: &Faults, retry: &RetryPolicy, path: &Path, ctx: &str) {
    let header = journal_header(ctx) + "\n";
    let _ = retry_io(faults, retry, "journal.rebuild", &mut RealClock, || {
        super::atomic_write(faults, path, header.as_bytes())
    });
}

/// Frames `payload` and durably appends it to the journal at `path` under
/// supervised retries at site `journal.append`. A write that fails,
/// injected torn writes included, seals whatever torn bytes it left before
/// the next attempt, so a flaky disk costs milliseconds instead of a
/// recompute on resume. Once the line is written, a failure retries only
/// the fsyncs: writing it again would leave a duplicate record.
/// Best-effort: a journal that stays unwritable is counted in the plan's
/// `fault.*` telemetry and never takes down the run.
pub fn append(faults: &Faults, retry: &RetryPolicy, path: &Path, payload: &str) {
    let line = frame_record(payload);
    let written = retry_io(faults, retry, "journal.append", &mut RealClock, || {
        super::append_line(faults, path, &line).inspect_err(|_| seal_torn_tail(path))
    });
    if let Ok(appended) = written {
        let _ = retry_io(faults, retry, "journal.append", &mut RealClock, || {
            appended.value.sync(faults)
        });
    }
}

/// If `path` ends in a torn line without a newline (what a crash
/// mid-append leaves), terminates it with [`SEAL_MARKER`], so the next
/// append starts on a fresh line instead of fusing with the fragment —
/// which would silently discard the first record written after it.
/// Best-effort, like the appends themselves.
pub fn seal_torn_tail(path: &Path) {
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

    #[test]
    fn replay_quarantines_parse_rejects_and_rebuilds_past_the_bound() {
        let dir = std::env::temp_dir().join(format!("evematch-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.journal");
        let (header, good, bad) = (journal_header("c"), frame_record("keep"), frame_record("x"));
        std::fs::write(&path, format!("{header}\n{good}\n{bad}\n")).unwrap();
        let parse = |p: &str| (p == "keep").then_some(p.len());
        let load = replay(&path, "c", parse);
        assert_eq!((load.records, load.rebuild), (vec![4], None));
        assert_eq!(load.integrity, ["journal_quarantined.malformed"]);

        // One quarantine past the bound rebuilds, dropping the good record.
        let many = format!("{bad}\n").repeat(MAX_QUARANTINED_RECORDS + 1);
        std::fs::write(&path, format!("{header}\n{good}\n{many}")).unwrap();
        let load = replay(&path, "c", parse);
        assert_eq!((load.records, load.rebuild), (vec![], Some("too_damaged")));
        assert_eq!(load.integrity.len(), MAX_QUARANTINED_RECORDS + 2);
        assert_eq!(
            load.integrity.last().unwrap(),
            "journal_rebuilt.too_damaged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
