//! Crash-safe persistence primitives: atomic writes and durable appends.
//!
//! Result artifacts (CSV tables, metrics JSON, trace JSONL) used to be
//! written with plain `File::create`, which tears on a crash: a kill
//! between `create` and the final flush leaves a truncated file that a
//! later run happily parses. [`atomic_write`] closes that window with the
//! classic temp-file + fsync + rename protocol — readers observe either
//! the old contents or the complete new contents, never a prefix.
//!
//! [`append_line`] complements it for files that *grow*: each appended
//! line is fsynced by [`Appended::sync`] before its writer moves on, so
//! at most the line being written when the process dies can be torn. Its
//! one user is the checkpoint [`journal`], whose readers tolerate exactly
//! that trailing partial line. The journal retries the two steps
//! separately, so a failed fsync never writes the line twice.
//!
//! Both primitives take the run's [`Faults`] plan and carry integrity and
//! observability hooks:
//!
//! * [`atomic_write_verified`] also emits the artifact's `.evmi` checksum
//!   sidecar (see [`integrity`]), which [`integrity::read_verified`] and
//!   the offline `evematch verify` subcommand check end-to-end, and
//!   [`write_artifact`] retries it under the default backoff policy — the
//!   one writer every binary's result artifacts go through;
//! * after the rename (and after an append that creates a journal) the
//!   parent directory is fsynced, so the directory entry itself survives
//!   a crash, with the `persist.fsync_dir` failpoint covering that window;
//! * each durable step first passes its `persist.<step>` failpoint and,
//!   once done, is recorded as an [`iotrace::IoOp`] when the plan is a
//!   crash-consistency explorer's recording plan.
//!
//! Clippy's `disallowed_methods` (`crates/clippy.toml`, rule T8) flags raw
//! `File::create`/`fs::write` elsewhere in the workspace and points here;
//! rule T15 does the same for raw reads, pointing at
//! [`integrity::read_verified`].

pub mod integrity;
pub mod iotrace;
pub mod journal;

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::fault::{self, FaultAction, FaultClass, Faults};
use crate::retry::{retry_io, RealClock, RetryExhausted, RetryPolicy};
use iotrace::IoOp;

/// The temp-file sibling used by [`atomic_write`] for `name`.
fn temp_sibling(path: &Path) -> PathBuf {
    let name = path.file_name().map_or_else(
        || "artifact".to_owned(),
        |n| n.to_string_lossy().into_owned(),
    );
    path.with_file_name(format!(".{name}.tmp"))
}

/// Fsyncs `path`'s parent directory so a preceding rename or file
/// creation is durable in the directory *entry*, not just the inode — a
/// crash after rename but before the directory block reaches disk can
/// otherwise lose the whole artifact. Routed through the
/// `persist.fsync_dir` failpoint so the crash-consistency explorer covers
/// exactly that window. `Unsupported` from `sync_all` is tolerated (not
/// every platform/filesystem can fsync a directory handle, and the
/// rename's *atomicity* never depended on it); every other error
/// propagates — silently ignoring them was the durability bug this
/// replaces.
fn fsync_dir_of(faults: &Faults, path: &Path) -> io::Result<()> {
    faults.guard("persist.fsync_dir")?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "directory handle for fsync, no artifact bytes read"
    )]
    let dir = fs::File::open(parent)?;
    if let Err(e) = dir.sync_all() {
        if e.kind() != io::ErrorKind::Unsupported {
            return Err(e);
        }
        return Ok(());
    }
    faults.record(|| IoOp::FsyncDir {
        dir: parent.to_path_buf(),
    });
    Ok(())
}

/// Atomically replaces `path` with `bytes`.
///
/// Writes to a hidden temp sibling (same directory, so the rename cannot
/// cross filesystems), fsyncs it, then renames over `path`. On any error
/// the temp file is removed and `path` is untouched.
pub fn atomic_write(faults: &Faults, path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_sibling(path);
    let result = (|| {
        faults.guard("persist.create_temp")?;
        #[expect(
            clippy::disallowed_methods,
            reason = "this is the atomic_write implementation itself"
        )]
        let mut file = fs::File::create(&tmp)?;
        faults.record(|| IoOp::CreateTemp { path: tmp.clone() });
        faults.guard("persist.write")?;
        file.write_all(bytes)?;
        faults.record(|| IoOp::WriteFile {
            path: tmp.clone(),
            bytes: bytes.to_vec(),
        });
        faults.guard("persist.fsync")?;
        file.sync_all()?;
        faults.record(|| IoOp::Fsync { path: tmp.clone() });
        faults.guard("persist.rename")?;
        fs::rename(&tmp, path)?;
        faults.record(|| IoOp::Rename {
            from: tmp.clone(),
            to: path.to_path_buf(),
        });
        fsync_dir_of(faults, path)
    })();
    if result.is_err() {
        // tidy-allow: no-unclassified-io -- cleanup of the temp sibling; the primary error is already propagating
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Appends `line` (a newline is added) to `path`, creating the file if
/// needed, and returns the not-yet-durable append: the line is durable
/// once [`Appended::sync`] succeeds. The two steps are separate so a
/// caller that retries a failed fsync does not write the line again.
///
/// The write is issued as a single `write_all` of `line + "\n"`; on a
/// crash mid-append the file may end in one torn partial line, which
/// the journal's readers tolerate as its torn tail. Lines must not contain
/// `\n` themselves — embedded newlines would make torn-line recovery
/// ambiguous — so this returns `InvalidInput` for them.
///
/// # Errors
/// `InvalidInput` for an embedded newline, or the open or write error
/// (an injected `persist.append` fault included).
pub fn append_line(faults: &Faults, path: impl AsRef<Path>, line: &str) -> io::Result<Appended> {
    if line.contains('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "journal lines must not contain embedded newlines",
        ));
    }
    let path = path.as_ref().to_path_buf();
    let created = !path.exists();
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    // Failpoint `persist.append`: `torn` writes a newline-less prefix of
    // the payload and then fails transiently — exactly the on-disk state a
    // crash mid-append leaves behind, which the journal's readers tolerate.
    match faults.hit("persist.append") {
        Some(FaultAction::Torn) => {
            file.write_all(&buf[..buf.len() / 2])?;
            file.sync_all()?;
            return Err(fault::injected_error(
                "persist.append",
                FaultClass::Transient,
            ));
        }
        Some(action) => fault::apply_io("persist.append", action)?,
        None => {}
    }
    file.write_all(&buf)?;
    faults.record(|| IoOp::Append {
        path: path.clone(),
        bytes: buf,
    });
    Ok(Appended {
        file,
        path,
        created,
    })
}

/// A line [`append_line`] wrote that may not be durable yet.
#[derive(Debug)]
pub struct Appended {
    file: fs::File,
    path: PathBuf,
    /// Whether the append created the file, so its directory entry needs
    /// an fsync too.
    created: bool,
}

impl Appended {
    /// Fsyncs the appended line and, when the append created the file,
    /// its parent directory. Writes nothing, so it can be retried.
    ///
    /// # Errors
    /// The fsync error (an injected `persist.append_fsync` or
    /// `persist.fsync_dir` fault included).
    pub fn sync(&self, faults: &Faults) -> io::Result<()> {
        faults.guard("persist.append_fsync")?;
        self.file.sync_all()?;
        faults.record(|| IoOp::AppendFsync {
            path: self.path.clone(),
        });
        if self.created {
            // The append created the journal: make its directory entry
            // durable too, or a crash can lose the whole file.
            fsync_dir_of(faults, &self.path)?;
        }
        Ok(())
    }
}

/// Like [`atomic_write`], but also emits the artifact's `.evmi` integrity
/// sidecar (see [`integrity`]) so `verify` subcommands and
/// [`integrity::read_verified`] can prove the bytes end-to-end. The
/// sidecar is written second — a crash between the two writes leaves a
/// stale sidecar that verification reports as corruption, never silent
/// acceptance of mixed state.
pub fn atomic_write_verified(
    faults: &Faults,
    path: impl AsRef<Path>,
    bytes: &[u8],
) -> io::Result<()> {
    let path = path.as_ref();
    atomic_write(faults, path, bytes)?;
    integrity::write_sidecar(faults, path, bytes)
}

/// Writes one verified artifact ([`atomic_write_verified`]) through the
/// supervised retry path: transient failures, real or injected, back off
/// and retry under [`RetryPolicy::io_default`], counted as
/// `fault.retries.<site>` in the plan's telemetry.
///
/// # Errors
/// The last failure once the retries are spent, or the first permanent or
/// corrupt one, annotated with the attempt count
/// ([`RetryExhausted::into_io`]).
pub fn write_artifact(
    faults: &Faults,
    site: &str,
    path: impl AsRef<Path>,
    bytes: &[u8],
) -> io::Result<()> {
    let path = path.as_ref();
    retry_io(
        faults,
        &RetryPolicy::io_default(),
        site,
        &mut RealClock,
        || atomic_write_verified(faults, path, bytes),
    )
    .map(|_| ())
    .map_err(RetryExhausted::into_io)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("evematch-persist-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_creates_and_replaces() {
        let dir = tmp_dir("basic");
        let path = dir.join("out.csv");
        let faults = Faults::default();
        atomic_write(&faults, &path, b"v1").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v1");
        atomic_write(&faults, &path, b"v2-longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v2-longer");
        // No temp residue.
        assert!(!temp_sibling(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fill_leaves_target_untouched_and_no_temp() {
        let dir = tmp_dir("fail");
        let path = dir.join("out.csv");
        atomic_write(&Faults::default(), &path, b"original").unwrap();
        // The temp sibling exists when the write step fails.
        let faults = Faults::armed("persist.write=fail-permanent", 0).unwrap();
        let err = atomic_write(&faults, &path, b"replacement").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(fs::read(&path).unwrap(), b"original");
        assert!(!temp_sibling(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_into_missing_directory_errors_cleanly() {
        let dir = tmp_dir("missing");
        let path = dir.join("no-such-subdir").join("out.csv");
        assert!(atomic_write(&Faults::default(), &path, b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appended_lines_accumulate_and_a_failed_sync_retries_without_a_rewrite() {
        let dir = tmp_dir("journal");
        let path = dir.join("cells.journal");
        let faults = Faults::default();
        append_line(&faults, &path, "{\"a\":1}")
            .unwrap()
            .sync(&faults)
            .unwrap();
        let flaky = Faults::armed("persist.append_fsync=fail-transient x1", 0).unwrap();
        let appended = append_line(&flaky, &path, "{\"b\":2}").unwrap();
        assert!(appended.sync(&flaky).is_err());
        appended.sync(&flaky).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        let err = append_line(&faults, &path, "no\nnewlines").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = fs::remove_dir_all(&dir);
    }
}
