//! The crash-consistency checker for the persistence layer (DESIGN.md
//! §14).
//!
//! The [`crashcheck`] module (and its `crashcheck` binary) is an
//! ALICE-style explorer over the persistence layer's recorded
//! write/fsync/rename traces: it simulates a crash at every durable
//! operation of a checkpointed grid run and asserts that recovery
//! reproduces the crash-free panels with an integrity-clean artifact
//! directory. It drives the real code on a real filesystem.
//!
//! ```text
//! cargo run --release -p evematch-modelcheck --bin crashcheck
//! ```

pub mod crashcheck;
