//! The tidy driver: walks the workspace, runs each lint over its scope,
//! and aggregates violations.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lints::{
    apply_waivers, check_crate_attrs, check_lints_table, check_lock_discipline, check_no_float_eq,
    check_no_hash_iter, check_no_panic, check_no_println, check_no_raw_artifact_write,
    check_no_raw_deadline, check_no_raw_thread_spawn, check_no_unclassified_io,
    check_no_unverified_artifact_read, check_ordering_justified, check_phase_discipline,
    is_library_source, is_runtime_source, Violation, ARTIFACT_WRITE_CRATES, DETERMINISTIC_CRATES,
    FLOAT_ORD_CRATES, IO_CLASSIFIED_CRATES, PANIC_FREE_CRATES, PHASE_MODULE_DIR, PRINT_FREE_CRATES,
    RAW_DEADLINE_CRATES, THREAD_MODULES, VERIFIED_READ_CRATES,
};
use crate::scan::ScannedFile;

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
        check_roots(root, &crate_dir, &mut violations)?;
        for source_path in rust_sources(&crate_dir.join("src"))? {
            let rel = relative_to(root, &source_path);
            let content = read_utf8(&source_path)?;
            let scanned = ScannedFile::parse(&rel, &content);
            let mut file_violations = Vec::new();
            if PANIC_FREE_CRATES.contains(&crate_name.as_str()) && is_library_source(&rel) {
                file_violations.extend(check_no_panic(&scanned));
            }
            if DETERMINISTIC_CRATES.contains(&crate_name.as_str()) && is_library_source(&rel) {
                file_violations.extend(check_no_hash_iter(&scanned));
            }
            if FLOAT_ORD_CRATES.contains(&crate_name.as_str()) && is_library_source(&rel) {
                file_violations.extend(check_no_float_eq(&scanned));
            }
            if RAW_DEADLINE_CRATES.contains(&crate_name.as_str()) && is_library_source(&rel) {
                file_violations.extend(check_no_raw_deadline(&scanned));
            }
            if PRINT_FREE_CRATES.contains(&crate_name.as_str()) && is_library_source(&rel) {
                file_violations.extend(check_no_println(&scanned));
            }
            if ARTIFACT_WRITE_CRATES.contains(&crate_name.as_str()) && is_runtime_source(&rel) {
                file_violations.extend(check_no_raw_artifact_write(&scanned));
            }
            if IO_CLASSIFIED_CRATES.contains(&crate_name.as_str()) && is_runtime_source(&rel) {
                file_violations.extend(check_no_unclassified_io(&scanned));
            }
            if VERIFIED_READ_CRATES.contains(&crate_name.as_str()) && is_runtime_source(&rel) {
                file_violations.extend(check_no_unverified_artifact_read(&scanned));
            }
            if is_runtime_source(&rel) {
                file_violations.extend(check_no_raw_thread_spawn(&scanned));
                file_violations.extend(check_ordering_justified(&scanned));
                file_violations.extend(check_lock_discipline(&scanned));
                file_violations.extend(check_phase_discipline(&scanned));
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

/// T4 over the crate's root source files.
fn check_roots(
    root: &Path,
    crate_dir: &Path,
    violations: &mut Vec<Violation>,
) -> Result<(), String> {
    for (file, is_lib) in [("lib.rs", true), ("main.rs", false)] {
        let path = crate_dir.join("src").join(file);
        if !path.is_file() {
            continue;
        }
        let rel = relative_to(root, &path);
        let scanned = ScannedFile::parse(&rel, &read_utf8(&path)?);
        violations.extend(check_crate_attrs(&scanned, is_lib));
    }
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

/// Sanity check used by `main`: the scopes named in the lint tables must
/// exist on disk, so a crate rename cannot silently drop it from tidy.
pub fn verify_scopes(root: &Path) -> Result<(), String> {
    let present: Vec<String> = member_crate_dirs(root)?
        .iter()
        .map(|d| dir_name(d))
        .collect();
    for scoped in PANIC_FREE_CRATES
        .iter()
        .chain(DETERMINISTIC_CRATES)
        .chain(FLOAT_ORD_CRATES)
        .chain(RAW_DEADLINE_CRATES)
        .chain(PRINT_FREE_CRATES)
        .chain(ARTIFACT_WRITE_CRATES)
        .chain(IO_CLASSIFIED_CRATES)
        .chain(VERIFIED_READ_CRATES)
    {
        if !present.iter().any(|p| p == scoped) {
            return Err(format!(
                "tidy scope names crate `{scoped}` but crates/{scoped} does not exist; \
                 update the scope tables in crates/xtask/src/lints.rs"
            ));
        }
    }
    for module in THREAD_MODULES {
        if !root.join(module).is_file() {
            return Err(format!(
                "tidy exempts `{module}` from no-raw-thread-spawn but the file does not \
                 exist; update THREAD_MODULES in crates/xtask/src/lints.rs"
            ));
        }
    }
    if !root.join(PHASE_MODULE_DIR).is_dir() {
        return Err(format!(
            "tidy confines raw timing primitives to `{PHASE_MODULE_DIR}` but the \
             directory does not exist; update PHASE_MODULE_DIR in crates/xtask/src/lints.rs"
        ));
    }
    Ok(())
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
        verify_scopes(&root).expect("scope tables in sync with crates/");
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
