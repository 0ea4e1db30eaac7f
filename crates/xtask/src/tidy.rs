//! The tidy driver: walks the workspace, runs each lint over its scope,
//! and aggregates violations.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lints::{
    apply_waivers, check_lints_table, check_lock_discipline, check_no_float_eq,
    check_no_unclassified_io, check_ordering_justified, is_library_source, is_runtime_source,
    Violation, FLOAT_ORD_CRATES, IO_CLASSIFIED_CRATES,
};
use crate::scan::ScannedFile;

/// The paths `crates/clippy.toml` must disallow: T2 (hash containers),
/// T6 (clock reads), T8 (raw artifact writes), T9 (raw threads) and T15
/// (unverified artifact reads).
const CLIPPY_DISALLOWED: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::fs::File::create",
    "std::fs::write",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder",
    "std::fs::File::open",
    "std::fs::read",
    "std::fs::read_to_string",
];

/// Library crates whose non-test code must be panic-free (T1), and the
/// clippy lints their `src/lib.rs` must switch on for it.
const PANIC_FREE_CRATES: &[&str] = &["core", "eval", "evematch", "eventlog", "graph", "pattern"];
const PANIC_LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// Library crates that must stay silent on stdout/stderr (T7), and the
/// clippy lints their `src/lib.rs` must switch on for it. `xtask` and the
/// binaries are exempt: printing is their job.
const PRINT_FREE_CRATES: &[&str] = &[
    "bench", "core", "datagen", "eval", "evematch", "eventlog", "graph", "pattern",
];
const PRINT_LINTS: &[&str] = &["clippy::print_stdout", "clippy::print_stderr"];

/// Runs every tidy lint over the workspace rooted at `root`.
///
/// # Errors
/// Returns a message when the workspace layout cannot be read (missing
/// `crates/` directory, unreadable file, non-UTF-8 source).
pub fn run(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for crate_dir in member_crate_dirs(root)? {
        let crate_name = dir_name(&crate_dir);
        check_manifest(root, &crate_dir, &mut violations)?;
        for source_path in rust_sources(&crate_dir.join("src"))? {
            let rel = relative_to(root, &source_path);
            let content = read_utf8(&source_path)?;
            let scanned = ScannedFile::parse(&rel, &content);
            let mut file_violations = Vec::new();
            if FLOAT_ORD_CRATES.contains(&crate_name.as_str()) && is_library_source(&rel) {
                file_violations.extend(check_no_float_eq(&scanned));
            }
            if IO_CLASSIFIED_CRATES.contains(&crate_name.as_str()) && is_runtime_source(&rel) {
                file_violations.extend(check_no_unclassified_io(&scanned));
            }
            if is_runtime_source(&rel) {
                file_violations.extend(check_ordering_justified(&scanned));
                file_violations.extend(check_lock_discipline(&scanned));
            }
            violations.extend(apply_waivers(&scanned, file_violations));
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(violations)
}

/// T5 over one crate manifest.
fn check_manifest(
    root: &Path,
    crate_dir: &Path,
    violations: &mut Vec<Violation>,
) -> Result<(), String> {
    let manifest_path = crate_dir.join("Cargo.toml");
    let rel = relative_to(root, &manifest_path);
    let manifest = read_utf8(&manifest_path)?;
    violations.extend(check_lints_table(&rel, &manifest));
    Ok(())
}

/// The workspace's member crate directories, sorted by name so output and
/// exit behavior are deterministic regardless of readdir order.
fn member_crate_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut dirs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read crates/: {e}"))?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            dirs.push(path);
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// All `.rs` files under `dir`, recursively, sorted.
fn rust_sources(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| format!("cannot read {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read {}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[expect(
    clippy::disallowed_methods,
    reason = "reads workspace source and manifests, not result artifacts"
)]
fn read_utf8(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `path` relative to `root`, `/`-separated (for stable display and
/// scope matching on every platform).
fn relative_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Sanity check used by `main` and tier-1: the crates named in the lint
/// tables must exist on disk, so a crate rename cannot silently drop it
/// from tidy; and the clippy half of the rules must still be configured:
/// `crates/clippy.toml` disallows every path in [`CLIPPY_DISALLOWED`], and
/// each panic-free and print-free library root warns on its lints.
pub fn verify_scopes(root: &Path) -> Result<(), String> {
    let present: Vec<String> = member_crate_dirs(root)?
        .iter()
        .map(|d| dir_name(d))
        .collect();
    for scoped in FLOAT_ORD_CRATES.iter().chain(IO_CLASSIFIED_CRATES) {
        if !present.iter().any(|p| p == scoped) {
            return Err(format!(
                "tidy scope names crate `{scoped}` but crates/{scoped} does not exist; \
                 update the scope tables in crates/xtask/src/lints.rs"
            ));
        }
    }
    let clippy_toml = read_utf8(&root.join("crates/clippy.toml"))?;
    let disallowed = disallowed_paths(&clippy_toml);
    for path in CLIPPY_DISALLOWED {
        if !disallowed.contains(path) {
            return Err(format!(
                "crates/clippy.toml no longer disallows `{path}`; restore its entry"
            ));
        }
    }
    for (crates, lints) in [
        (PANIC_FREE_CRATES, PANIC_LINTS),
        (PRINT_FREE_CRATES, PRINT_LINTS),
    ] {
        for name in crates {
            let rel = format!("crates/{name}/src/lib.rs");
            let warned = warned_lints(&ScannedFile::parse(&rel, &read_utf8(&root.join(&rel))?));
            if let Some(lint) = lints.iter().find(|l| !warned.iter().any(|w| w == *l)) {
                return Err(format!("{rel} must carry `#![warn({lint})]`"));
            }
        }
    }
    Ok(())
}

/// The `path = "…"` entries of a clippy.toml, comment lines skipped.
fn disallowed_paths(toml: &str) -> Vec<&str> {
    toml.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .flat_map(|l| l.split("path = \"").skip(1))
        .filter_map(|entry| entry.split('"').next())
        .collect()
}

/// The lint names listed in a file's `#![warn(…)]` inner attributes.
fn warned_lints(file: &ScannedFile) -> Vec<String> {
    let code: String = file
        .lines
        .iter()
        .flat_map(|l| l.code.chars())
        .filter(|c| !c.is_whitespace())
        .collect();
    code.split("#![warn(")
        .skip(1)
        .filter_map(|attr| attr.split(")]").next())
        .flat_map(|list| list.split(','))
        .map(str::to_string)
        .collect()
}

fn dir_name(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tidy_scopes_match_the_real_workspace() {
        let root = crate::workspace_root();
        verify_scopes(&root).expect("scope tables and clippy configuration in sync with crates/");
    }

    #[test]
    fn the_shipped_workspace_is_tidy() {
        let root = crate::workspace_root();
        let violations = run(&root).expect("workspace readable");
        assert!(
            violations.is_empty(),
            "the shipped tree must be tidy; found:\n{}",
            violations
                .iter()
                .map(crate::render)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
