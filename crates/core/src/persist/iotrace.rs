//! Logical I/O tracing for the crash-consistency explorer.
//!
//! When a trace is started ([`start_under`]), the persistence primitives in
//! [`crate::persist`] record every durable-state transition they perform —
//! temp-file creation, content writes, fsyncs, renames, directory fsyncs,
//! journal appends — as an ordered list of [`IoOp`]s. The
//! `evematch-modelcheck` crash explorer replays every prefix of that list
//! (plus torn variants of the final op) into a sandbox directory and
//! asserts that recovery from each simulated crash state restores the
//! invariant documented in DESIGN.md §14.
//!
//! Tracing is strictly a test/checker facility: the recorder is off by
//! default and costs one relaxed atomic load per operation when disabled.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One logical durable-state transition performed by the persistence
/// layer, in the order it hit the filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoOp {
    /// `File::create` of the hidden temp sibling (contents empty).
    CreateTemp {
        /// Temp-file path.
        path: PathBuf,
    },
    /// The temp sibling's full contents were written (buffered; the bytes
    /// are not durable until the following [`IoOp::Fsync`]).
    WriteFile {
        /// Temp-file path.
        path: PathBuf,
        /// The complete bytes written.
        bytes: Vec<u8>,
    },
    /// `sync_all` of a data file.
    Fsync {
        /// File path.
        path: PathBuf,
    },
    /// Atomic rename of the temp sibling over the target.
    Rename {
        /// Source (temp) path.
        from: PathBuf,
        /// Destination (artifact) path.
        to: PathBuf,
    },
    /// `sync_all` of a directory, making a preceding rename or file
    /// creation durable in the directory entry.
    FsyncDir {
        /// Directory path.
        dir: PathBuf,
    },
    /// One journal line appended (newline included in `bytes`).
    Append {
        /// Journal path.
        path: PathBuf,
        /// The appended bytes.
        bytes: Vec<u8>,
    },
    /// `sync_all` of the journal after an append.
    AppendFsync {
        /// Journal path.
        path: PathBuf,
    },
}

impl IoOp {
    /// The path that decides whether this op falls under a trace root:
    /// the file acted on (for renames, the destination; for directory
    /// fsyncs, the directory itself).
    #[must_use]
    pub fn primary_path(&self) -> &Path {
        match self {
            IoOp::CreateTemp { path }
            | IoOp::WriteFile { path, .. }
            | IoOp::Fsync { path }
            | IoOp::Append { path, .. }
            | IoOp::AppendFsync { path } => path,
            IoOp::Rename { to, .. } => to,
            IoOp::FsyncDir { dir } => dir,
        }
    }

    /// A short human-readable label for evidence reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            IoOp::CreateTemp { path } => format!("create-temp {}", path.display()),
            IoOp::WriteFile { path, bytes } => {
                format!("write {} ({} bytes)", path.display(), bytes.len())
            }
            IoOp::Fsync { path } => format!("fsync {}", path.display()),
            IoOp::Rename { from, to } => {
                format!("rename {} -> {}", from.display(), to.display())
            }
            IoOp::FsyncDir { dir } => format!("fsync-dir {}", dir.display()),
            IoOp::Append { path, bytes } => {
                format!("append {} ({} bytes)", path.display(), bytes.len())
            }
            IoOp::AppendFsync { path } => format!("append-fsync {}", path.display()),
        }
    }
}

// ordering: Relaxed — ACTIVE is a fast-path hint only; the TRACE mutex is
// the real synchronization point for the op list, and a stale flag read
// merely records (or skips) one op around start/stop, which single-threaded
// checker harnesses never race.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static TRACE: Mutex<Option<(PathBuf, Vec<IoOp>)>> = Mutex::new(None);

fn trace() -> MutexGuard<'static, Option<(PathBuf, Vec<IoOp>)>> {
    // The trace holds plain data; poison (from a panicking traced run)
    // cannot leave it inconsistent.
    TRACE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts recording ops whose [`IoOp::primary_path`] falls under `root`
/// (an empty root records everything). Any ops from a previous unfinished
/// trace are discarded. Only one trace can be active per process —
/// callers (the crash checker's harness) serialize themselves, and the
/// root filter keeps unrelated concurrent writes (other tests, other
/// output directories) out of the trace.
pub fn start_under(root: impl Into<PathBuf>) {
    *trace() = Some((root.into(), Vec::new()));
    // ordering: Relaxed — see the ACTIVE declaration; the mutex above
    // publishes the buffer itself.
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Stops recording and returns the ordered op list (empty if
/// [`start_under`] was never called).
#[must_use]
pub fn stop() -> Vec<IoOp> {
    // ordering: Relaxed — see the ACTIVE declaration.
    ACTIVE.store(false, Ordering::Relaxed);
    trace().take().map(|(_, ops)| ops).unwrap_or_default()
}

/// Whether a trace is currently recording.
#[must_use]
pub fn is_active() -> bool {
    // ordering: Relaxed — see the ACTIVE declaration; used only as a
    // fast-path skip, not for synchronization.
    ACTIVE.load(Ordering::Relaxed)
}

/// Records `op` if a trace is active. Called by the persistence
/// primitives at each durable-state transition.
pub(crate) fn record(op: impl FnOnce() -> IoOp) {
    // ordering: Relaxed — see the ACTIVE declaration.
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    if let Some((root, ops)) = trace().as_mut() {
        let op = op();
        if op.primary_path().starts_with(root.as_path()) {
            ops.push(op);
        }
    }
}

/// Convenience used by the recorder call sites.
pub(crate) fn record_path(op: fn(PathBuf) -> IoOp, path: &Path) {
    record(|| op(path.to_path_buf()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_captures_only_while_active() {
        // Serialized against other iotrace tests by being the only one.
        // The root keeps concurrent persistence tests (which write under
        // the temp dir) out of the trace.
        let root = PathBuf::from("iotrace-unit");
        record(|| IoOp::Fsync {
            path: root.join("ignored"),
        });
        start_under(&root);
        assert!(is_active());
        record(|| IoOp::Fsync {
            path: root.join("a"),
        });
        record_path(|p| IoOp::AppendFsync { path: p }, &root.join("b"));
        record(|| IoOp::Fsync {
            path: PathBuf::from("elsewhere"),
        });
        let ops = stop();
        assert!(!is_active());
        assert_eq!(
            ops,
            vec![
                IoOp::Fsync {
                    path: root.join("a")
                },
                IoOp::AppendFsync {
                    path: root.join("b")
                },
            ]
        );
        // After stop, nothing records.
        record(|| IoOp::Fsync {
            path: root.join("late"),
        });
        assert!(stop().is_empty());

        // Same test fn (the recorder is process-global, tests must not
        // overlap): a real atomic write + journal append records the full
        // durable-state sequence, ending in the directory fsync that makes
        // the rename / file creation survive a crash.
        let dir = std::env::temp_dir().join(format!("evematch-iotrace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        start_under(&dir);
        crate::persist::atomic_write(dir.join("out.csv"), b"a,b\n").unwrap();
        crate::persist::append_line_durable(dir.join("j.journal"), "line-1").unwrap();
        crate::persist::append_line_durable(dir.join("j.journal"), "line-2").unwrap();
        let ops = stop();
        let shape: Vec<&str> = ops
            .iter()
            .map(|op| match op {
                IoOp::CreateTemp { .. } => "create-temp",
                IoOp::WriteFile { .. } => "write",
                IoOp::Fsync { .. } => "fsync",
                IoOp::Rename { .. } => "rename",
                IoOp::FsyncDir { .. } => "fsync-dir",
                IoOp::Append { .. } => "append",
                IoOp::AppendFsync { .. } => "append-fsync",
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                "create-temp",
                "write",
                "fsync",
                "rename",
                "fsync-dir", // the satellite bugfix: rename is now made durable
                "append",
                "append-fsync",
                "fsync-dir", // first append created the journal file
                "append",
                "append-fsync", // second append: no new directory entry
            ]
        );
        let IoOp::WriteFile { bytes, .. } = &ops[1] else {
            panic!("op 1 should be the content write");
        };
        assert_eq!(bytes, b"a,b\n");
        assert!(!ops[0].describe().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
