//! No public function without a caller.
//!
//! simlint's U001 flags a library `pub fn` that no other file in the
//! workspace names and that its own file uses only in tests: surface that
//! only its own unit tests keep alive. This gate runs the workspace lint
//! and asserts that no such function exists, and that every U001 pragma
//! still waives one. The workspace-wide `workspace_tree_is_clean` test in
//! `crates/simlint` covers every rule, including perfbench's wall-clock
//! sites; this one holds the U001 line on its own.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use std::path::Path;

#[test]
fn no_public_fn_is_called_only_by_its_own_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = simlint::lint_workspace(root).expect("lint the workspace");
    let uncalled: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.rule == "U001" || (f.rule == "R004" && f.message.contains("allow(U001")))
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(uncalled.is_empty(), "uncalled public items:\n{}", uncalled.join("\n"));
    assert!(report.files_scanned > 100, "scanned {} files", report.files_scanned);
}
