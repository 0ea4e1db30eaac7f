//! Artifact integrity: checksummed, versioned framing for everything the
//! workspace persists, plus the typed corruption taxonomy its readers
//! classify failures into.
//!
//! Two framing strategies cover the two artifact shapes:
//!
//! * **Whole-file artifacts** (CSV panels, metrics/profile JSON, Chrome
//!   traces, folded stacks, `BENCH_*.json`) get a *sidecar* file —
//!   `<artifact>.evmi`, one JSON line carrying magic, format version,
//!   algorithm, byte length and CRC64 — written atomically right after the
//!   artifact itself. The artifact's own bytes stay untouched, so external
//!   consumers (Perfetto, plotting scripts, `cmp` against committed
//!   results) keep working, while [`read_verified`] and [`verify_dir`]
//!   prove end-to-end integrity whenever the sidecar is present.
//! * **Append-only journals** (the experiment checkpoint journal) get
//!   *in-band* framing, owned by [`super::journal`]: a checksummed header
//!   line and a CRC-32 trailer on every record. [`verify_dir`] grades them
//!   through the journal's own line classifier.
//!
//! Verification failures are never panics and never silent acceptance:
//! they classify into [`IntegrityError`] — [`IntegrityError::TornTail`]
//! (seal and continue), [`IntegrityError::ChecksumMismatch`] (quarantine
//! the record, deterministically and telemetry-counted),
//! [`IntegrityError::VersionSkew`] (rebuild from scratch with a typed
//! warning) and [`IntegrityError::TruncatedHeader`] (rebuild) — which maps
//! onto the [`FaultClass`] taxonomy of [`crate::fault`]. See DESIGN.md §14
//! for the policy table and the crash-consistency invariant the
//! `evematch-modelcheck` explorer enforces on top of this format.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use super::journal::{self, Line};
use crate::fault::{FaultClass, Faults};
use crate::telemetry::json::JsonValue;

/// The framed-format version this build writes and the newest it reads.
/// A header declaring a greater version is [`IntegrityError::VersionSkew`].
pub const FORMAT_VERSION: u32 = 1;

/// File extension of integrity sidecars (`<artifact>.evmi`).
pub const SIDECAR_EXT: &str = "evmi";

/// Typed verification failures — the `IntegrityError` taxonomy.
///
/// Policy (enforced by the readers, see DESIGN.md §14):
///
/// | variant             | class     | policy                              |
/// |---------------------|-----------|-------------------------------------|
/// | `TornTail`          | corrupt   | seal the fragment and continue      |
/// | `ChecksumMismatch`  | corrupt   | quarantine the record, count it     |
/// | `VersionSkew`       | permanent | rebuild from scratch, typed warning |
/// | `TruncatedHeader`   | corrupt   | rebuild from scratch                |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// The final line (or the file) is cut short without its trailer — the
    /// on-disk state a crash mid-append leaves behind.
    TornTail,
    /// The bytes do not match their recorded checksum: a flipped bit, a
    /// partial overwrite, or a record altered after framing.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum computed over the bytes actually read.
        actual: u64,
    },
    /// The header declares a format version newer than this build
    /// supports; nothing after it can be interpreted safely.
    VersionSkew {
        /// Version found in the header.
        found: u32,
        /// Newest version this build reads ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The header is missing, cut short, or not a header at all (which is
    /// also how pre-integrity legacy files present).
    TruncatedHeader,
}

impl IntegrityError {
    /// Where this failure lands in the [`FaultClass`] taxonomy: version
    /// skew is permanent (retrying or re-reading cannot help — the format
    /// is from the future), everything else means the bytes cannot be
    /// trusted.
    #[must_use]
    pub fn class(self) -> FaultClass {
        match self {
            IntegrityError::VersionSkew { .. } => FaultClass::Permanent,
            IntegrityError::TornTail
            | IntegrityError::ChecksumMismatch { .. }
            | IntegrityError::TruncatedHeader => FaultClass::Corrupt,
        }
    }

    /// Stable snake_case name used in telemetry counters
    /// (`integrity.…<name>` — see [`Faults::note_integrity`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IntegrityError::TornTail => "torn_tail",
            IntegrityError::ChecksumMismatch { .. } => "checksum_mismatch",
            IntegrityError::VersionSkew { .. } => "version_skew",
            IntegrityError::TruncatedHeader => "truncated_header",
        }
    }

    /// Converts into an `io::Error` whose kind round-trips through
    /// [`crate::fault::classify_io`] to [`IntegrityError::class`].
    #[must_use]
    pub fn into_io(self) -> io::Error {
        let kind = match self.class() {
            FaultClass::Corrupt => io::ErrorKind::InvalidData,
            _ => io::ErrorKind::Unsupported,
        };
        io::Error::new(kind, self.to_string())
    }
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IntegrityError::TornTail => write!(f, "torn tail: record cut short mid-write"),
            IntegrityError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: recorded {expected:#x}, computed {actual:#x}"
            ),
            IntegrityError::VersionSkew { found, supported } => write!(
                f,
                "version skew: format v{found} is newer than supported v{supported}"
            ),
            IntegrityError::TruncatedHeader => {
                write!(f, "truncated or missing header")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

// ---------------------------------------------------------------------------
// Checksums: zero-dependency CRC32 (IEEE) and CRC64 (ECMA, the XZ variant),
// both reflected, with const-evaluated lookup tables.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u64;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xC96C_5795_D787_0F42 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();
static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-32 (IEEE 802.3, reflected) of `bytes`. Used for per-record journal
/// trailers and header self-checks, where 4 bytes of protection per line
/// is the right cost.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    !c
}

/// CRC-64 (ECMA-182 as used by XZ, reflected) of `bytes`. Used for
/// whole-file sidecars and the journal's context fingerprint, where the
/// inputs are larger and collisions costlier.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = !0u64;
    for &b in bytes {
        c = CRC64_TABLE[usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Sidecar framing for whole-file artifacts.

/// The sidecar path for `path`: the same name with `.evmi` appended
/// (`fig7a.csv` → `fig7a.csv.evmi`), in the same directory.
#[must_use]
pub fn sidecar_path(path: &Path) -> PathBuf {
    let name = path.file_name().map_or_else(
        || "artifact".to_owned(),
        |n| n.to_string_lossy().into_owned(),
    );
    path.with_file_name(format!("{name}.{SIDECAR_EXT}"))
}

/// Renders the one-line sidecar document for an artifact of `bytes`.
#[must_use]
pub fn sidecar_line(bytes: &[u8]) -> String {
    format!(
        "{{\"magic\":\"EVMI\",\"v\":{FORMAT_VERSION},\"algo\":\"crc64/ecma\",\"len\":{},\"crc64\":\"{:016x}\"}}",
        bytes.len(),
        crc64(bytes)
    )
}

/// Parses a sidecar document into `(declared length, declared CRC-64)`.
///
/// # Errors
/// [`IntegrityError::VersionSkew`] for a newer sidecar format;
/// [`IntegrityError::TruncatedHeader`] for anything else unparseable.
pub fn parse_sidecar(text: &str) -> Result<(u64, u64), IntegrityError> {
    let v = JsonValue::parse(text.trim_end()).ok_or(IntegrityError::TruncatedHeader)?;
    if v.get("magic").and_then(JsonValue::as_str) != Some("EVMI") {
        return Err(IntegrityError::TruncatedHeader);
    }
    let version = v
        .get("v")
        .and_then(JsonValue::as_u64)
        .ok_or(IntegrityError::TruncatedHeader)?;
    if version > u64::from(FORMAT_VERSION) {
        return Err(IntegrityError::VersionSkew {
            found: u32::try_from(version).unwrap_or(u32::MAX),
            supported: FORMAT_VERSION,
        });
    }
    let len = v
        .get("len")
        .and_then(JsonValue::as_u64)
        .ok_or(IntegrityError::TruncatedHeader)?;
    let crc = v
        .get("crc64")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(IntegrityError::TruncatedHeader)?;
    Ok((len, crc))
}

/// Verifies artifact `bytes` against their sidecar document.
///
/// # Errors
/// [`IntegrityError::TornTail`] on a length mismatch (a truncated or
/// partially-replaced artifact); [`IntegrityError::ChecksumMismatch`] on a
/// content mismatch; the sidecar's own parse errors pass through.
pub fn verify_file_bytes(bytes: &[u8], sidecar: &str) -> Result<(), IntegrityError> {
    let (len, expected) = parse_sidecar(sidecar)?;
    if len != bytes.len() as u64 {
        return Err(IntegrityError::TornTail);
    }
    let actual = crc64(bytes);
    if actual != expected {
        return Err(IntegrityError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// Writes the sidecar for an artifact already persisted at `path` with
/// content `bytes`, atomically, under the run's plan.
///
/// # Errors
/// Propagates the underlying [`super::atomic_write`] failure.
pub fn write_sidecar(faults: &Faults, path: &Path, bytes: &[u8]) -> io::Result<()> {
    super::atomic_write(
        faults,
        sidecar_path(path),
        (sidecar_line(bytes) + "\n").as_bytes(),
    )
}

/// How a file was (or was not) verified by [`read_verified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verification {
    /// A sidecar was present and the content matched it.
    Verified,
    /// No sidecar exists — a legacy or externally-produced artifact. The
    /// bytes are returned, but nothing vouches for them.
    Unverified,
}

/// Reads an artifact, verifying it against its sidecar when one exists.
/// This is the sanctioned read path for result artifacts (rule T15 in
/// `crates/clippy.toml` points here).
///
/// # Errors
/// I/O errors reading the artifact pass through; a failed verification
/// surfaces as the typed error's [`IntegrityError::into_io`] form
/// (`InvalidData`/`Unsupported`), so `classify_io` sees the right class.
pub fn read_verified(path: &Path) -> io::Result<(Vec<u8>, Verification)> {
    #[expect(clippy::disallowed_methods, reason = "this IS the verified reader")]
    let bytes = fs::read(path)?;
    let side = sidecar_path(path);
    if !side.exists() {
        return Ok((bytes, Verification::Unverified));
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the sidecar is the proof, it has no sidecar of its own"
    )]
    let sidecar = fs::read_to_string(&side)?;
    verify_file_bytes(&bytes, &sidecar).map_err(IntegrityError::into_io)?;
    Ok((bytes, Verification::Verified))
}

// ---------------------------------------------------------------------------
// Offline directory verification (the `evematch verify` subcommand).

/// Per-file outcome of [`verify_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileStatus {
    /// Sidecar present, content matches.
    Verified {
        /// Artifact size in bytes.
        bytes: u64,
    },
    /// An in-band framed journal: header and every record verified.
    JournalVerified {
        /// Records whose trailer checked out.
        records: usize,
        /// Torn/sealed fragments tolerated (the documented crash case).
        torn: usize,
    },
    /// No sidecar (or a journal with no header): nothing vouches for the
    /// bytes. A warning, not a failure.
    Unverified,
    /// Verification failed with a typed error.
    Corrupt(IntegrityError),
    /// A sidecar whose artifact is missing — the signature of a rename
    /// lost to a crash (or a deleted artifact).
    MissingArtifact,
}

impl FileStatus {
    /// Whether this outcome must fail the verify run (exit 2).
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(self, FileStatus::Corrupt(_) | FileStatus::MissingArtifact)
    }
}

/// One file's verification outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileReport {
    /// File name relative to the verified directory.
    pub name: String,
    /// Outcome.
    pub status: FileStatus,
}

/// The result of walking an output directory with [`verify_dir`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Per-file outcomes, in deterministic name order.
    pub files: Vec<FileReport>,
}

impl VerifyReport {
    /// Whether every file verified (warnings allowed, failures not).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.files.iter().any(|f| f.status.is_failure())
    }

    /// Counts of (verified, unverified warnings, failures).
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut ok = 0;
        let mut warn = 0;
        let mut bad = 0;
        for f in &self.files {
            match &f.status {
                FileStatus::Verified { .. } | FileStatus::JournalVerified { .. } => ok += 1,
                FileStatus::Unverified => warn += 1,
                FileStatus::Corrupt(_) | FileStatus::MissingArtifact => bad += 1,
            }
        }
        (ok, warn, bad)
    }

    /// Human-readable per-file report, one line per file plus a summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            let line = match &f.status {
                FileStatus::Verified { bytes } => {
                    format!("ok        {} ({bytes} bytes, sidecar verified)", f.name)
                }
                FileStatus::JournalVerified { records, torn } if *torn > 0 => format!(
                    "ok        {} (journal: {records} records, {torn} sealed torn fragment(s))",
                    f.name
                ),
                FileStatus::JournalVerified { records, .. } => {
                    format!("ok        {} (journal: {records} records)", f.name)
                }
                FileStatus::Unverified => format!("warn      {} (no integrity data)", f.name),
                FileStatus::Corrupt(e) => format!("CORRUPT   {} ({e})", f.name),
                FileStatus::MissingArtifact => {
                    format!("MISSING   {} (sidecar present, artifact gone)", f.name)
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        let (ok, warn, bad) = self.counts();
        out.push_str(&format!(
            "{} file(s): {ok} verified, {warn} unverified, {bad} failed\n",
            self.files.len()
        ));
        out
    }
}

/// Grades one journal's bytes through `journal::classify`: no header at
/// all is [`FileStatus::Unverified`], a damaged header or line is
/// [`FileStatus::Corrupt`], and torn or sealed fragments (the documented
/// crash case) are tolerated and counted.
fn journal_status(bytes: &[u8]) -> FileStatus {
    let (header, mut lines) = journal::classify(bytes);
    match header {
        None => FileStatus::Unverified,
        Some(Err(e)) => FileStatus::Corrupt(e),
        Some(Ok(_)) => lines
            .try_fold((0, 0), |(records, torn), line| match line {
                Line::Record(_) => Ok((records + 1, torn)),
                Line::Sealed | Line::TornTail => Ok((records, torn + 1)),
                Line::Damaged(e) => Err(e),
            })
            .map_or_else(FileStatus::Corrupt, |(records, torn)| {
                FileStatus::JournalVerified { records, torn }
            }),
    }
}

/// Walks `dir` (non-recursive — output directories are flat) and verifies
/// every artifact: journals via their in-band framing, other files via
/// their sidecars when present. Files without integrity data are warnings;
/// checksum/header failures and orphaned sidecars are failures.
///
/// # Errors
/// Only when the directory itself cannot be read; per-file read errors
/// become [`FileStatus::Corrupt`] entries.
pub fn verify_dir(dir: &Path) -> io::Result<VerifyReport> {
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.path().is_file() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    let mut report = VerifyReport::default();
    for name in &names {
        let path = dir.join(name);
        if let Some(stem) = name.strip_suffix(&format!(".{SIDECAR_EXT}")) {
            if !dir.join(stem).is_file() {
                report.files.push(FileReport {
                    name: name.clone(),
                    status: FileStatus::MissingArtifact,
                });
            }
            continue;
        }
        // Hidden temp siblings a crash left behind are not artifacts.
        if name.starts_with('.') && name.ends_with(".tmp") {
            continue;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "this IS the verifier: the raw journal bytes feed the journal's classifier"
        )]
        let status = if name.ends_with(".journal") {
            match fs::read(&path) {
                Ok(bytes) => journal_status(&bytes),
                Err(_) => FileStatus::Corrupt(IntegrityError::TruncatedHeader),
            }
        } else {
            let side = sidecar_path(&path);
            if side.exists() {
                match verify_sidecar_pair(&path, &side) {
                    Ok(bytes) => FileStatus::Verified { bytes },
                    Err(e) => FileStatus::Corrupt(e),
                }
            } else {
                FileStatus::Unverified
            }
        };
        report.files.push(FileReport {
            name: name.clone(),
            status,
        });
    }
    Ok(report)
}

/// Reads and checks one artifact/sidecar pair, returning the artifact's
/// size on success.
fn verify_sidecar_pair(path: &Path, side: &Path) -> Result<u64, IntegrityError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "offline verifier: these reads feed the checksum check itself"
    )]
    let bytes = fs::read(path).map_err(|_| IntegrityError::TruncatedHeader)?;
    #[expect(clippy::disallowed_methods, reason = "see above")]
    let sidecar = fs::read_to_string(side).map_err(|_| IntegrityError::TruncatedHeader)?;
    verify_file_bytes(&bytes, &sidecar)?;
    Ok(bytes.len() as u64)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::persist::journal::{
        frame_record, journal_header, parse_journal_header, verify_record, JOURNAL_MAGIC,
        SEAL_MARKER,
    };

    #[test]
    fn crc_check_values_match_the_standards() {
        // The canonical "123456789" check values for CRC-32/IEEE and
        // CRC-64/XZ (ECMA-182 reflected).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn journal_header_round_trips_and_rejects_damage() {
        let line = journal_header("v1|Fig7|whatever");
        let h = parse_journal_header(&line).unwrap();
        assert_eq!(h.version, FORMAT_VERSION);
        assert_eq!(h.ctx, crc64(b"v1|Fig7|whatever"));

        // Any flipped byte in the header is detected.
        for i in 0..line.len() {
            let mut bad = line.clone().into_bytes();
            bad[i] ^= 0x04;
            let bad = String::from_utf8_lossy(&bad).into_owned();
            assert!(parse_journal_header(&bad).is_err(), "flip at {i}");
        }
        // Every strict prefix is truncated or checksum-broken, never Ok.
        for cut in 1..line.len() {
            assert!(parse_journal_header(&line[..cut]).is_err(), "cut {cut}");
        }
        // A future version is skew even with a valid checksum.
        let body = format!("{JOURNAL_MAGIC} v=2 ctx=0000000000000000");
        let future = format!("{body} c={:08x}", crc32(body.as_bytes()));
        assert_eq!(
            parse_journal_header(&future),
            Err(IntegrityError::VersionSkew {
                found: 2,
                supported: FORMAT_VERSION
            })
        );
        // A legacy record line has no magic: truncated-header (rebuild).
        assert_eq!(
            parse_journal_header("{\"grid\":\"v1|...\"}"),
            Err(IntegrityError::TruncatedHeader)
        );
    }

    #[test]
    fn framed_records_catch_any_single_flipped_byte() {
        let line = frame_record("{\"x\":3,\"seed\":11}");
        assert_eq!(verify_record(&line).unwrap(), "{\"x\":3,\"seed\":11}");
        for i in 0..line.len() {
            let mut bad = line.clone().into_bytes();
            bad[i] ^= 0x01;
            let bad = String::from_utf8_lossy(&bad).into_owned();
            assert!(verify_record(&bad).is_err(), "flip at byte {i} accepted");
        }
        // Cuts look torn, not corrupt — and never parse.
        for cut in 1..line.len() {
            assert!(verify_record(&line[..cut]).is_err(), "cut {cut}");
        }
        assert_eq!(verify_record("no trailer"), Err(IntegrityError::TornTail));
    }

    #[test]
    fn error_classes_map_onto_the_fault_taxonomy() {
        use crate::fault::classify_io;
        let cases = [
            IntegrityError::TornTail,
            IntegrityError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            IntegrityError::VersionSkew {
                found: 9,
                supported: 1,
            },
            IntegrityError::TruncatedHeader,
        ];
        for e in cases {
            assert_eq!(
                classify_io(&e.into_io()),
                e.class(),
                "{e}: io round-trip must preserve the class"
            );
        }
        assert_eq!(IntegrityError::TornTail.class(), FaultClass::Corrupt);
        assert_eq!(
            IntegrityError::VersionSkew {
                found: 2,
                supported: 1
            }
            .class(),
            FaultClass::Permanent
        );
    }

    #[test]
    fn sidecar_round_trip_and_tamper_detection() {
        let bytes = b"x,y\n1,2\n".to_vec();
        let side = sidecar_line(&bytes);
        verify_file_bytes(&bytes, &side).unwrap();
        // Flip any byte of the artifact: checksum mismatch.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(matches!(
                verify_file_bytes(&bad, &side),
                Err(IntegrityError::ChecksumMismatch { .. })
            ));
        }
        // Truncate: torn.
        assert_eq!(
            verify_file_bytes(&bytes[..3], &side),
            Err(IntegrityError::TornTail)
        );
        // A newer sidecar is skew; junk is a truncated header.
        let newer = side.replace("\"v\":1", "\"v\":99");
        assert!(matches!(
            verify_file_bytes(&bytes, &newer),
            Err(IntegrityError::VersionSkew { found: 99, .. })
        ));
        assert_eq!(
            verify_file_bytes(&bytes, "not json"),
            Err(IntegrityError::TruncatedHeader)
        );
    }

    #[test]
    fn verify_dir_reports_every_outcome_kind() {
        let dir =
            std::env::temp_dir().join(format!("evematch-integrity-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        // Verified artifact + sidecar.
        fs::write(dir.join("good.csv"), b"a,b\n").unwrap();
        write_sidecar(&Faults::default(), &dir.join("good.csv"), b"a,b\n").unwrap();
        // Corrupt artifact (sidecar from other content).
        fs::write(dir.join("bad.csv"), b"a,b\n").unwrap();
        write_sidecar(&Faults::default(), &dir.join("bad.csv"), b"x,y\n").unwrap();
        // Unverified artifact.
        fs::write(dir.join("plain.csv"), b"no sidecar\n").unwrap();
        // Orphan sidecar.
        fs::write(dir.join("gone.csv.evmi"), sidecar_line(b"z") + "\n").unwrap();
        // A healthy framed journal with one sealed fragment.
        let rec = frame_record("{\"x\":1}");
        let journal = format!(
            "{}\n{rec}\ncut-short{SEAL_MARKER}\n",
            journal_header("ctx-string")
        );
        fs::write(dir.join("FigT.journal"), journal).unwrap();
        // A corrupt journal: interior record bit-flipped.
        let mut corrupt = format!("{}\n{rec}\n{rec}\n", journal_header("ctx-string")).into_bytes();
        let pos = corrupt.len() - rec.len() - 1 + 3;
        corrupt[pos] ^= 0x01;
        fs::write(dir.join("Bad.journal"), corrupt).unwrap();

        let report = verify_dir(&dir).unwrap();
        assert!(!report.is_clean());
        let status = |name: &str| {
            report
                .files
                .iter()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("{name} missing from report"))
                .status
                .clone()
        };
        assert_eq!(status("good.csv"), FileStatus::Verified { bytes: 4 });
        assert!(matches!(status("bad.csv"), FileStatus::Corrupt(_)));
        assert_eq!(status("plain.csv"), FileStatus::Unverified);
        assert_eq!(status("gone.csv.evmi"), FileStatus::MissingArtifact);
        assert_eq!(
            status("FigT.journal"),
            FileStatus::JournalVerified {
                records: 1,
                torn: 1
            }
        );
        assert!(matches!(status("Bad.journal"), FileStatus::Corrupt(_)));
        let (ok, warn, bad) = report.counts();
        assert_eq!((ok, warn, bad), (2, 1, 3));
        assert!(report.render().contains("CORRUPT"));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_bytes_verifier_handles_torn_and_legacy_shapes() {
        // Unterminated final fragment: tolerated, counted as torn.
        let rec = frame_record("{\"x\":1}");
        let torn = format!("{}\n{rec}\n{}", journal_header("c"), &rec[..rec.len() / 2]);
        assert_eq!(
            journal_status(torn.as_bytes()),
            FileStatus::JournalVerified {
                records: 1,
                torn: 1
            }
        );
        // No header at all (no magic anywhere): a warning, not corruption.
        assert_eq!(
            journal_status(b"{\"grid\":\"v1|old\"}\n"),
            FileStatus::Unverified
        );
        // Empty: nothing to say.
        assert_eq!(journal_status(b""), FileStatus::Unverified);
        // A header torn mid-write (magic present, fields cut): corrupt.
        assert!(matches!(
            journal_status(b"#%EVMJ v=1 ct"),
            FileStatus::Corrupt(_)
        ));
    }

    #[test]
    fn read_verified_accepts_good_flags_bad_and_warns_on_missing() {
        let dir =
            std::env::temp_dir().join(format!("evematch-integrity-read-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        fs::write(&path, b"{\"a\":1}\n").unwrap();
        assert_eq!(
            read_verified(&path).unwrap().1,
            Verification::Unverified,
            "no sidecar yet"
        );
        write_sidecar(&Faults::default(), &path, b"{\"a\":1}\n").unwrap();
        let (bytes, v) = read_verified(&path).unwrap();
        assert_eq!(v, Verification::Verified);
        assert_eq!(bytes, b"{\"a\":1}\n");
        // Flip a byte under the sidecar's nose.
        fs::write(&path, b"{\"a\":2}\n").unwrap();
        let err = read_verified(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }
}
