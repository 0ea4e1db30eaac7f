//! Logical I/O tracing for the crash-consistency explorer.
//!
//! Under a recording plan ([`crate::fault::Faults::recording`]), the
//! persistence primitives in [`crate::persist`] record every durable-state
//! transition they perform — temp-file creation, content writes, fsyncs,
//! renames, directory fsyncs, journal appends — as an ordered list of
//! [`IoOp`]s, read back with [`crate::fault::Faults::take_ops`]. The
//! `evematch-modelcheck` crash explorer replays every prefix of that list
//! (plus torn variants of the final op) into a sandbox directory and
//! asserts that recovery from each simulated crash state restores the
//! invariant documented in DESIGN.md §14.
//!
//! Recording is strictly a test/checker facility: any other plan records
//! nothing and costs one `Option` check per operation.

use std::path::{Path, PathBuf};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Faults;

    #[test]
    fn recorder_captures_only_while_active() {
        let root = PathBuf::from("iotrace-unit");
        // A plan built without a recorder records nothing.
        let plain = Faults::default();
        plain.record(|| IoOp::Fsync {
            path: root.join("ignored"),
        });
        assert!(plain.take_ops().is_empty());

        // A recording plan keeps the ops under its root, in order.
        let faults = Faults::recording(&root);
        faults.record(|| IoOp::Fsync {
            path: root.join("a"),
        });
        faults.record(|| IoOp::AppendFsync {
            path: root.join("b"),
        });
        faults.record(|| IoOp::Fsync {
            path: PathBuf::from("elsewhere"),
        });
        assert_eq!(
            faults.take_ops(),
            vec![
                IoOp::Fsync {
                    path: root.join("a")
                },
                IoOp::AppendFsync {
                    path: root.join("b")
                },
            ]
        );
        assert!(faults.take_ops().is_empty(), "take_ops drains the recorder");
    }

    #[test]
    fn persistence_records_the_full_durable_sequence() {
        // A real atomic write + journal appends record the full
        // durable-state sequence, ending in the directory fsync that makes
        // the rename / file creation survive a crash.
        let dir = std::env::temp_dir().join(format!("evematch-iotrace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let faults = Faults::recording(&dir);
        crate::persist::atomic_write(&faults, dir.join("out.csv"), b"a,b\n").unwrap();
        for line in ["line-1", "line-2"] {
            let appended =
                crate::persist::append_line(&faults, dir.join("j.journal"), line).unwrap();
            appended.sync(&faults).unwrap();
        }
        let ops = faults.take_ops();
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
                "fsync-dir", // the rename is made durable
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
