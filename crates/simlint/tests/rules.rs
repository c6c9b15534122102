//! Fixture-driven integration tests for the simlint rule set.
//!
//! Each rule has one positive fixture (must fire) and one negative
//! fixture (must stay silent) under `tests/fixtures/`. Fixtures are
//! linted via [`simlint::rules::check_file`] with an explicit crate name
//! and `is_test_file = false`, because on disk they live under a
//! `tests/` directory (which the workspace walk deliberately skips and
//! the classifier would otherwise exempt).
//!
//! The tail of the suite drives the real binary via
//! `CARGO_BIN_EXE_simlint`: a seeded violation must produce exit code 1
//! and a `file:line: [RULE]` finding (the PR's acceptance criterion),
//! and `--workspace` on the actual tree must exit 0.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use simlint::rules::{check_file, FileReport};
use std::path::Path;
use std::process::Command;

/// Reads a fixture from `tests/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Lints a fixture as non-test code belonging to `crate_name`.
fn lint_as(name: &str, crate_name: &str) -> FileReport {
    check_file(name, crate_name, &fixture(name), false)
}

fn rules_fired(report: &FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---- D001: no HashMap/HashSet in digest-feeding crates -----------------

#[test]
fn d001_fires_on_hash_containers_in_digest_crates() {
    let r = lint_as("d001_pos.rs", "simcore");
    assert!(
        r.findings.iter().filter(|f| f.rule == "D001").count() >= 2,
        "expected HashMap and HashSet findings, got {:?}",
        r.findings
    );
    assert!(r.findings.iter().all(|f| f.rule == "D001"));
}

#[test]
fn d001_scopes_to_digest_feeding_crates() {
    // simlint itself never touches simulation state and is out of scope.
    let r = lint_as("d001_pos.rs", "simlint");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

#[test]
fn d001_silent_on_ordered_containers() {
    let r = lint_as("d001_neg.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

// ---- D002: no wall-clock reads outside the profiling allowlist ---------

#[test]
fn d002_fires_on_wall_clock_in_sim_crates() {
    let r = lint_as("d002_pos.rs", "simcore");
    let fired = rules_fired(&r);
    assert!(fired.iter().filter(|&&x| x == "D002").count() >= 2, "got {:?}", r.findings);
}

#[test]
fn d002_allows_the_bench_crate() {
    let r = lint_as("d002_pos.rs", "bench");
    assert!(r.findings.iter().all(|f| f.rule != "D002"), "got {:?}", r.findings);
}

#[test]
fn d002_silent_on_sim_time() {
    let r = lint_as("d002_neg.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

// ---- D003: no OS entropy / ambient RNG ---------------------------------

#[test]
fn d003_fires_on_ambient_randomness() {
    let r = lint_as("d003_pos.rs", "simcore");
    let d003 = r.findings.iter().filter(|f| f.rule == "D003").count();
    // thread_rng, the rand:: path, and RandomState all fire.
    assert!(d003 >= 3, "got {:?}", r.findings);
}

#[test]
fn d003_silent_on_seeded_simcore_rng() {
    let r = lint_as("d003_neg.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

// ---- D004: no indexed devices[…] access in digest-feeding crates -------

#[test]
fn d004_fires_on_indexed_devices_access() {
    let r = lint_as("d004_pos.rs", "fleet");
    let d004 = r.findings.iter().filter(|f| f.rule == "D004").count();
    // The write and the read both fire.
    assert_eq!(d004, 2, "got {:?}", r.findings);
}

#[test]
fn d004_scopes_to_digest_feeding_crates() {
    // simlint itself never touches simulation state and is out of scope.
    let r = lint_as("d004_pos.rs", "simlint");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

#[test]
fn d004_silent_on_store_accessors_and_other_names() {
    let r = lint_as("d004_neg.rs", "fleet");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

#[test]
fn d004_pragma_waives_a_local_slice() {
    // The escape hatch for genuinely local `devices` slices (e.g. the
    // mesh model's radio positions) — a trailing pragma with a reason.
    let src = "pub fn f(devices: &[P], a: usize) -> f64 {\n    devices[a].x // simlint: allow(D004, local position slice, not the fleet DeviceStore)\n}\n";
    let r = check_file("m.rs", "net", src, false);
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
    assert_eq!(r.allowed, 1);
}

// ---- P001: no unwrap/expect/panic!/todo! in non-test code --------------

#[test]
fn p001_fires_on_each_panic_form() {
    let r = lint_as("p001_pos.rs", "simcore");
    let p001 = r.findings.iter().filter(|f| f.rule == "P001").count();
    // unwrap, expect, panic!, todo!
    assert_eq!(p001, 4, "got {:?}", r.findings);
}

#[test]
fn p001_silent_on_handled_fallbacks() {
    let r = lint_as("p001_neg.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

// ---- F001: no float == / partial_cmp chains ----------------------------

#[test]
fn f001_fires_on_partial_cmp_and_float_equality() {
    let r = lint_as("f001_pos.rs", "simcore");
    let f001 = r.findings.iter().filter(|f| f.rule == "F001").count();
    // partial_cmp, `== 0.5`, `!= 1.0`
    assert_eq!(f001, 3, "got {:?}", r.findings);
}

#[test]
fn f001_silent_on_total_cmp_and_integer_compares() {
    let r = lint_as("f001_neg.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

// ---- Pragma handling ---------------------------------------------------

#[test]
fn valid_pragmas_waive_and_are_counted() {
    let r = lint_as("pragma_ok.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
    // Two D002 waivers (trailing + standalone) and one P001 waiver.
    assert_eq!(r.allowed, 3, "got allowed = {}", r.allowed);
}

#[test]
fn malformed_pragmas_are_sl000_and_do_not_waive() {
    let r = lint_as("pragma_bad.rs", "simcore");
    let fired = rules_fired(&r);
    assert_eq!(fired.iter().filter(|&&x| x == "SL000").count(), 2, "got {:?}", r.findings);
    // The broken pragma must not waive the unwrap underneath it.
    assert!(fired.contains(&"P001"), "got {:?}", r.findings);
    assert_eq!(r.allowed, 0);
}

// ---- False-positive regressions ----------------------------------------

#[test]
fn trigger_tokens_in_strings_and_comments_never_fire() {
    let r = lint_as("strings_comments.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

#[test]
fn cfg_test_regions_are_exempt() {
    let r = lint_as("cfg_test.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

#[test]
fn same_file_as_test_file_is_fully_exempt() {
    // Whole-file exemption (files under tests/ compile with cfg(test)).
    let r = check_file("p001_pos.rs", "simcore", &fixture("p001_pos.rs"), true);
    assert!(r.findings.is_empty(), "got {:?}", r.findings);
}

// ---- Findings are ordered and rendered for the verify gate -------------

#[test]
fn findings_sort_by_line_and_render_with_location() {
    let r = lint_as("p001_pos.rs", "simcore");
    let lines: Vec<u32> = r.findings.iter().map(|f| f.line).collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted);
    let rendered = r.findings[0].render();
    assert!(
        rendered.starts_with("p001_pos.rs:") && rendered.contains("[P001]"),
        "got {rendered}"
    );
}

// ---- U001: public functions nothing calls ------------------------------

/// A library file whose `pub fn helper` only its own unit test calls.
const LIB_WITH_HELPER: &str = "\
/// Used.
pub fn used() -> u32 {
    2
}

/// Called only from the test below.
pub fn helper() -> u32 {
    used() + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_adds_one() {
        assert_eq!(super::helper(), 3);
    }
}
";

/// Lints a throwaway workspace built under `CARGO_TARGET_TMPDIR` from
/// (relative-path, contents) pairs and returns its U001 findings.
fn u001_in(name: &str, files: &[(&str, &str)]) -> Vec<simlint::rules::Finding> {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simlint_u001").join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear temp ws");
    }
    for (rel, contents) in files {
        let dst = root.join(rel);
        std::fs::create_dir_all(dst.parent().expect("parent")).expect("mkdir");
        std::fs::write(&dst, contents).expect("write");
    }
    let report = simlint::lint_workspace(&root).expect("lint temp ws");
    report.findings.into_iter().filter(|f| f.rule == "U001").collect()
}

/// A caller in another file that names `helper`.
const CALLER: &str = "fn main() {\n    println!(\"{}\", lib::a::helper());\n}\n";

#[test]
fn u001_fires_when_only_its_own_tests_call_it() {
    let found = u001_in(
        "own_tests_only",
        &[("crates/lib/src/a.rs", LIB_WITH_HELPER), ("crates/lib/src/b.rs", "pub fn b() {}\n")],
    );
    let names: Vec<(&str, u32)> = found.iter().map(|f| (f.file.as_str(), f.line)).collect();
    // `helper` (line 7) and `b`; `used` has a non-test caller in its own file.
    assert_eq!(names, vec![("crates/lib/src/a.rs", 7), ("crates/lib/src/b.rs", 1)]);
    assert!(found[0].message.contains("`pub fn helper`"), "got {:?}", found[0]);
}

#[test]
fn u001_silent_when_a_doc_example_calls_it() {
    // rustdoc compiles each doc example as a crate of its own, so a call
    // there is a caller; a `text` block is never compiled and is not one.
    let doc = |fence: &str| {
        format!(
            "//! ```{fence}\n//! assert_eq!(lib::a::helper(), 3);\n//! ```\n\n{LIB_WITH_HELPER}"
        )
    };
    let rust = doc("");
    let found = u001_in("doc_example", &[("crates/lib/src/a.rs", &rust)]);
    assert!(found.is_empty(), "got {found:?}");
    let text = doc("text");
    let found = u001_in("doc_text", &[("crates/lib/src/a.rs", &text)]);
    assert_eq!(found.len(), 1, "got {found:?}");
    assert!(found[0].message.contains("`pub fn helper`"), "got {:?}", found[0]);
}

#[test]
fn u001_silent_when_another_crate_names_it() {
    let found = u001_in(
        "other_crate",
        &[("crates/lib/src/a.rs", LIB_WITH_HELPER), ("crates/app/src/main.rs", CALLER)],
    );
    assert!(found.is_empty(), "got {found:?}");
}

#[test]
fn u001_silent_when_a_root_integration_test_names_it() {
    let found = u001_in(
        "root_test",
        &[
            ("crates/lib/src/a.rs", LIB_WITH_HELPER),
            ("tests/uses_helper.rs", "#[test]\nfn t() {\n    assert_eq!(lib::a::helper(), 3);\n}\n"),
        ],
    );
    assert!(found.is_empty(), "got {found:?}");
}

#[test]
fn u001_silent_when_perfbench_names_it() {
    let found = u001_in(
        "perfbench",
        &[("crates/lib/src/a.rs", LIB_WITH_HELPER), ("perfbench/src/main.rs", CALLER)],
    );
    assert!(found.is_empty(), "got {found:?}");
}

#[test]
fn u001_pragma_waives_and_goes_stale_once_a_caller_appears() {
    let kept = LIB_WITH_HELPER.replace(
        "pub fn helper",
        "// simlint: allow(U001, kept for callers outside the workspace)\npub fn helper",
    );
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simlint_u001").join("pragma");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear temp ws");
    }
    std::fs::create_dir_all(root.join("crates/lib/src")).expect("mkdir");
    std::fs::write(root.join("crates/lib/src/a.rs"), &kept).expect("write");
    let report = simlint::lint_workspace(&root).expect("lint temp ws");
    assert!(report.findings.is_empty(), "got {:?}", report.findings);
    assert_eq!(report.allowed, 1);
    // R004 flags the pragma once the function gains a caller.
    std::fs::create_dir_all(root.join("crates/app/src")).expect("mkdir");
    std::fs::write(root.join("crates/app/src/main.rs"), CALLER).expect("write");
    let report = simlint::lint_workspace(&root).expect("lint temp ws");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["R004"], "got {:?}", report.findings);
    // Linting the file alone cannot judge U001, so it neither fires nor
    // reports the pragma stale.
    let alone = check_file("crates/lib/src/a.rs", "lib", LIB_WITH_HELPER, false);
    assert!(alone.findings.is_empty(), "got {:?}", alone.findings);
}

// ---- The real binary ---------------------------------------------------

/// Copies a fixture into `CARGO_TARGET_TMPDIR` (whose path has no `tests`
/// component, so the binary lints it as non-test code) and returns the
/// new path.
fn stage(fixture_name: &str, as_name: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simlint_fixtures");
    std::fs::create_dir_all(&dir).expect("create tmp fixture dir");
    let dst = dir.join(as_name);
    std::fs::write(&dst, fixture(fixture_name)).expect("stage fixture");
    dst
}

#[test]
fn binary_exits_nonzero_with_file_line_findings_on_violation() {
    let staged = stage("p001_pos.rs", "p001_seeded.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg(&staged)
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p001_seeded.rs:"), "stdout: {stdout}");
    assert!(stdout.contains("[P001]"), "stdout: {stdout}");
    // file:LINE: — the location is machine-greppable.
    assert!(stdout.lines().any(|l| l.contains(":4: [P001]")), "stdout: {stdout}");
}

#[test]
fn binary_emits_json_findings() {
    let staged = stage("f001_pos.rs", "f001_seeded.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--json")
        .arg(&staged)
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"findings\":["), "stdout: {stdout}");
    assert!(stdout.contains("\"rule\":\"F001\""), "stdout: {stdout}");
    assert!(stdout.contains("\"files_scanned\":1"), "stdout: {stdout}");
}

#[test]
fn binary_exits_zero_on_clean_file() {
    let staged = stage("p001_neg.rs", "clean.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg(&staged)
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn binary_exits_two_on_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_simlint")).output().expect("run simlint");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nothing to lint"));
}

#[test]
fn workspace_tree_is_clean() {
    // The acceptance criterion: the shipped tree has zero unpragma'd
    // findings. `--root` points two levels up from this crate.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--workspace")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run simlint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "findings:\n{stdout}");
    assert!(stdout.contains("0 finding(s)"), "stdout: {stdout}");
}
