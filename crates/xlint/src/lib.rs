//! `xlint` — the workspace's own static analyser.
//!
//! Clippy checks Rust; nothing checks *this repo's* layering rules: that
//! raw [`BlockDevice`] I/O stays confined to the accounting layer, that
//! only that layer moves the counters, that a journal commit follows a
//! page-cache flush, and so on. `xlint` closes that gap with a hand-rolled lexer
//! (no `syn`, no dependencies — the build is offline) and ten rules: five
//! lexical ones (R1, R5, R7–R9) plus five concurrency rules (R11–R15)
//! powered by a cross-file symbol/call-graph pass
//! (`symbols.rs`/`callgraph.rs`) that tracks which functions may acquire
//! the server-path locks. Invariants the compiler can hold (no `unsafe`,
//! no panics in the substrate, counter parity, phase restore, a total
//! `is_transient`) are left to rustc, clippy and the types; DESIGN.md maps
//! each to where it lives.
//!
//! Run it with `cargo run -p xlint -- --deny` from the workspace root.
//! Findings print as `file:line: rule — message`; a finding is suppressed
//! by an inline `// xlint::allow(RULE)` pragma on the same line or the
//! line above.
//!
//! [`BlockDevice`]: ../nexsort_extmem/trait.BlockDevice.html

#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod symbols;

pub use callgraph::{Analysis, CallGraph};
pub use rules::{check_manifest, check_rust_file, check_sources, Finding, RULES};

use std::path::{Path, PathBuf};

/// Lint every `crates/*/src/**/*.rs` under `root`, plus the crate
/// manifests and the workspace manifest. Findings come back sorted by
/// (file, line, rule).
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut rust_files = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut rust_files)?;
        }
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)?;
            findings.extend(check_manifest(&rel_of(root, &manifest), &text));
        }
    }
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        let text = std::fs::read_to_string(&root_manifest)?;
        findings.extend(check_manifest("Cargo.toml", &text));
    }

    rust_files.sort();
    // Two-phase pass: build the workspace call graph over every file
    // first, then lint each file against the sealed analysis so the
    // concurrency rules see cross-crate reachability.
    let mut sources = Vec::new();
    for path in &rust_files {
        let text = std::fs::read_to_string(path)?;
        sources.push((rel_of(root, path), text));
    }
    let borrowed: Vec<(&str, &str)> =
        sources.iter().map(|(rel, text)| (rel.as_str(), text.as_str())).collect();
    findings.extend(check_sources(&borrowed));

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
