//! Deterministic workspace source discovery.
//!
//! The analyzer walks, in sorted order:
//!
//! * `crates/<name>/src/**/*.rs` for every crate except `crates/vendor`
//!   (the vendored stand-ins are third-party by intent),
//! * `crates/<name>/Cargo.toml` (manifest layering check),
//! * the root crate's `src/*.rs` and `examples/*.rs`.
//!
//! Integration tests (`tests/`) are never walked: they are test code,
//! which the per-file rules exempt wholesale. U001 still reads them, and
//! perfbench's sources, as users of the library crates' `pub` items; see
//! [`user_files`].

use std::path::{Path, PathBuf};

/// A source file to lint, with its workspace-relative display path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Absolute (or root-joined) path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes, used in diagnostics.
    pub rel: String,
    /// Whether this is a `Cargo.toml` manifest rather than Rust source.
    pub manifest: bool,
}

/// Enumerate the workspace's lintable files under `root`, sorted by
/// relative path so diagnostics order never depends on directory layout.
pub fn workspace_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let mut files = Vec::new();

    let crates_dir = root.join("crates");
    for crate_dir in sorted_dirs(&crates_dir)? {
        let name = file_name(&crate_dir);
        if name == "vendor" {
            continue;
        }
        let manifest = crate_dir.join("Cargo.toml");
        if manifest.is_file() {
            files.push(source_file(root, manifest, true));
        }
        collect_rs(root, &crate_dir.join("src"), true, &mut files)?;
    }
    collect_rs(root, &root.join("src"), true, &mut files)?;
    collect_rs(root, &root.join("examples"), true, &mut files)?;

    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// The files that only use the library crates, for U001: the root
/// `tests/*.rs`, every `crates/<name>/tests/*.rs` (not the fixture
/// directories under them) and `perfbench/src/**/*.rs`, sorted by
/// relative path.
pub fn user_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    collect_rs(root, &root.join("tests"), false, &mut files)?;
    for crate_dir in sorted_dirs(&root.join("crates"))? {
        if file_name(&crate_dir) != "vendor" {
            collect_rs(root, &crate_dir.join("tests"), false, &mut files)?;
        }
    }
    collect_rs(root, &root.join("perfbench/src"), true, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn source_file(root: &Path, path: PathBuf, manifest: bool) -> SourceFile {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(&path)
        .to_string_lossy()
        .replace('\\', "/");
    SourceFile {
        path,
        rel,
        manifest,
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Collect `.rs` files under `dir` (sorted within each level), descending
/// into subdirectories when `recurse` is set.
fn collect_rs(
    root: &Path,
    dir: &Path,
    recurse: bool,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if recurse {
                collect_rs(root, &path, recurse, out)?;
            }
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(source_file(root, path, false));
        }
    }
    Ok(())
}
