//! Integration tests for the v2 flow-aware rules: R001 (stream-key
//! stability), R002 (cross-file chain collisions + the STREAMS.md
//! registry), R003 (digest-purity taint) and R004 (stale pragmas).
//!
//! Rule behavior is checked through [`simlint::rules::check_file`] on the
//! fixture corpus; the registry, baseline, and `--streams` workflows are
//! checked end-to-end by driving the real binary over throwaway
//! workspaces built under `CARGO_TARGET_TMPDIR`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use simlint::rules::{check_file, FileReport};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn lint_as(name: &str, crate_name: &str) -> FileReport {
    check_file(name, crate_name, &fixture(name), false)
}

fn rules_fired(report: &FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---- R001: stream keys must be stable entity ids -----------------------

#[test]
fn r001_fires_on_each_unstable_key_shape() {
    let r = lint_as("r001_pos.rs", "net");
    let r001 = r.findings.iter().filter(|f| f.rule == "R001").count();
    // Enumerate-over-local, mutable accumulator, computed label.
    assert_eq!(r001, 3, "got {:?}", r.findings);
    let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("candidates")), "got {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("link_idx")), "got {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("string literal")), "got {msgs:?}");
}

#[test]
fn r001_silent_on_stable_keys_and_shadowed_names() {
    let r = lint_as("r001_neg.rs", "net");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
    // All five mints are extracted as stream sites for R002.
    assert_eq!(r.sites.len(), 5, "got {:?}", r.sites);
}

#[test]
fn r001_pragma_waives_a_deliberate_visit_order_key() {
    let src = "pub fn f(root: &Rng, xs: &[u64]) {\n    let mut k = 0u64;\n    for x in xs {\n        seed(root.split(\"s\", k)); // simlint: allow(R001, xs is append-only; visit order IS the entity id)\n        k += 1;\n    }\n}\n";
    let r = check_file("m.rs", "net", src, false);
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
    assert_eq!(r.allowed, 1);
}

#[test]
fn r001_exempt_in_test_code() {
    let r = check_file("r001_pos.rs", "net", &fixture("r001_pos.rs"), true);
    assert!(r.findings.is_empty(), "got {:?}", r.findings);
    assert!(r.sites.is_empty(), "test-file sites must not feed R002");
}

// ---- R003: digest-purity taint -----------------------------------------

#[test]
fn r003_fires_on_impure_flows_into_sinks() {
    let r = lint_as("r003_pos.rs", "simcore");
    let r003 = r.findings.iter().filter(|f| f.rule == "R003").count();
    // env -> write_str, thread id -> diary log, pointer -> observe.
    assert_eq!(r003, 3, "got {:?}", r.findings);
}

#[test]
fn r003_silent_on_sim_time_and_contained_impurity() {
    let r = lint_as("r003_neg.rs", "simcore");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

#[test]
fn r003_scopes_to_digest_feeding_crates() {
    // simlint itself never computes digests; the taint pass is off.
    let r = lint_as("r003_pos.rs", "simlint");
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

#[test]
fn r003_pragma_waives_a_documented_sink() {
    let src = "pub fn f(digest: &mut D) {\n    let who = std::env::var(\"X\");\n    let t = encode(who);\n    digest.write_str(&t); // simlint: allow(R003, build-stamp string, excluded from the run digest)\n}\n";
    let r = check_file("m.rs", "simcore", src, false);
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
    assert_eq!(r.allowed, 1);
}

// ---- R004: stale pragmas -----------------------------------------------

#[test]
fn r004_fires_on_a_pragma_that_waives_nothing() {
    let r = lint_as("r004_stale.rs", "simcore");
    let fired = rules_fired(&r);
    assert_eq!(fired, vec!["R004"], "got {:?}", r.findings);
    // Anchored at the pragma's own line.
    assert_eq!(r.findings[0].line, 3, "got {:?}", r.findings);
    assert!(r.findings[0].message.contains("waives nothing"));
}

#[test]
fn r004_meta_pragma_keeps_an_intentional_entry() {
    // A trailing pragma kept for a cfg'd-out path, itself waived by a
    // standalone allow(R004, …) targeting its line.
    let src = "// simlint: allow(R004, kept: waives P001 only when the cfg feature is on)\nuse std::fmt; // simlint: allow(P001, feature-gated panic path)\n";
    let r = check_file("m.rs", "simcore", src, false);
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
    assert_eq!(r.allowed, 1);
}

#[test]
fn r004_exempt_in_test_regions() {
    let src = "#[cfg(test)]\nmod tests {\n    // simlint: allow(P001, test-region pragma, never audited)\n    fn f() {}\n}\n";
    let r = check_file("m.rs", "simcore", src, false);
    assert!(rules_fired(&r).is_empty(), "got {:?}", r.findings);
}

// ---- Temp-workspace harness for binary-level R002/baseline tests -------

/// Builds a throwaway workspace under `CARGO_TARGET_TMPDIR` from
/// (relative-path, contents) pairs, clearing any previous run. The
/// functions these workspaces hold are private, so U001 (public functions
/// nothing calls) stays out of tests aimed at other rules.
fn temp_ws(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simlint_v2").join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear temp ws");
    }
    for (rel, contents) in files {
        let dst = root.join(rel);
        std::fs::create_dir_all(dst.parent().expect("parent")).expect("mkdir");
        std::fs::write(&dst, contents).expect("write");
    }
    root
}

fn run_ws(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--workspace")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run simlint")
}

fn stdout_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

const REGISTERED_BOTH: &str = "\
## Shared streams\n\n\
| stream | files | reason |\n\
|--------|-------|--------|\n\
| shared-crn | crates/fleet/src/a.rs crates/net/src/b.rs | CRN pair for the fixture |\n";

// ---- R002: collisions and the STREAMS.md registry ----------------------

#[test]
fn r002_unregistered_collision_fails_both_sites() {
    let a = fixture("r002_collide_a.rs");
    let b = fixture("r002_collide_b.rs");
    let ws = temp_ws(
        "collide",
        &[("crates/fleet/src/a.rs", a.as_str()), ("crates/net/src/b.rs", b.as_str())],
    );
    let out = run_ws(&ws, &[]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("crates/fleet/src/a.rs:5: [R002]"), "stdout: {stdout}");
    assert!(stdout.contains("crates/net/src/b.rs:5: [R002]"), "stdout: {stdout}");
    assert!(stdout.contains("'shared-crn'"), "stdout: {stdout}");
}

#[test]
fn r002_registered_share_passes() {
    let a = fixture("r002_collide_a.rs");
    let b = fixture("r002_collide_b.rs");
    let ws = temp_ws(
        "registered",
        &[
            ("crates/fleet/src/a.rs", a.as_str()),
            ("crates/net/src/b.rs", b.as_str()),
            ("STREAMS.md", REGISTERED_BOTH),
        ],
    );
    let out = run_ws(&ws, &[]);
    let stdout = stdout_of(&out);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("0 finding(s)"), "stdout: {stdout}");
}

#[test]
fn r002_under_registered_share_still_fails() {
    // The registry must cover every minting file, not just one.
    let a = fixture("r002_collide_a.rs");
    let b = fixture("r002_collide_b.rs");
    let partial = "\
## Shared streams\n\n\
| stream | files | reason |\n\
|--------|-------|--------|\n\
| shared-crn | crates/fleet/src/a.rs | only one minter listed |\n";
    let ws = temp_ws(
        "partial",
        &[
            ("crates/fleet/src/a.rs", a.as_str()),
            ("crates/net/src/b.rs", b.as_str()),
            ("STREAMS.md", partial),
        ],
    );
    let out = run_ws(&ws, &[]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout_of(&out));
    assert!(stdout_of(&out).contains("[R002]"));
}

#[test]
fn r002_stale_registry_entry_is_flagged_at_its_row() {
    // Only one live site: the registered share no longer exists.
    let a = fixture("r002_collide_a.rs");
    let ws = temp_ws(
        "stale-registry",
        &[("crates/fleet/src/a.rs", a.as_str()), ("STREAMS.md", REGISTERED_BOTH)],
    );
    let out = run_ws(&ws, &[]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("STREAMS.md:5: [R002]"), "stdout: {stdout}");
    assert!(stdout.contains("stale registry entry"), "stdout: {stdout}");
}

#[test]
fn r002_pragmas_cannot_waive_collisions() {
    // The registry is the only waiver for R002; a pragma neither silences
    // the collision nor survives R004 (it waives nothing).
    let a = fixture("r002_collide_a.rs");
    let b = fixture("r002_collide_b.rs")
        .replace("base.split(\"shared-crn\", 0);", "base.split(\"shared-crn\", 0); // simlint: allow(R002, not how R002 is waived)");
    let ws = temp_ws(
        "pragma-r002",
        &[("crates/fleet/src/a.rs", a.as_str()), ("crates/net/src/b.rs", b.as_str())],
    );
    let out = run_ws(&ws, &[]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("[R002]"), "stdout: {stdout}");
    assert!(stdout.contains("[R004]"), "stdout: {stdout}");
}

// ---- Baseline: the "no new findings" gate ------------------------------

const ACCUMULATOR_VIOLATION: &str = "\
fn f(root: &Rng, xs: &[u64]) {\n\
    let mut k = 0u64;\n\
    for x in xs {\n\
        seed(root.split(\"acc\", k));\n\
        k += 1;\n\
    }\n\
}\n";

const SECOND_VIOLATION: &str = "\
fn g(root: &Rng, name: &str) {\n\
    seed(root.split(name, 0));\n\
}\n";

#[test]
fn baseline_round_trip_gates_only_new_findings() {
    let ws = temp_ws("baseline", &[("crates/fleet/src/acc.rs", ACCUMULATOR_VIOLATION)]);
    let bl = ws.join("simlint-baseline.json");
    let bl_s = bl.to_string_lossy().into_owned();

    // Accept the current findings.
    let out = run_ws(&ws, &["--write-baseline", &bl_s]);
    assert_eq!(out.status.code(), Some(1), "accepting still reports: {}", stdout_of(&out));
    assert!(bl.exists());

    // Gated run: the accepted finding no longer fails the gate.
    let out = run_ws(&ws, &["--baseline", &bl_s]);
    let stdout = stdout_of(&out);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("1 baselined"), "stdout: {stdout}");

    // A new violation fails the gate, reporting only the new finding.
    std::fs::write(ws.join("crates/fleet/src/new.rs"), SECOND_VIOLATION).expect("write");
    let out = run_ws(&ws, &["--baseline", &bl_s]);
    let stdout = stdout_of(&out);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("crates/fleet/src/new.rs:2: [R001]"), "stdout: {stdout}");
    assert!(!stdout.contains("acc.rs:"), "baselined finding leaked: {stdout}");
}

#[test]
fn baseline_survives_line_shifts() {
    let ws = temp_ws("baseline-shift", &[("crates/fleet/src/acc.rs", ACCUMULATOR_VIOLATION)]);
    let bl = ws.join("b.json");
    let bl_s = bl.to_string_lossy().into_owned();
    run_ws(&ws, &["--write-baseline", &bl_s]);

    // Prepend comment lines: every finding moves, none are new.
    let shifted = format!("// shifted\n// shifted again\n{ACCUMULATOR_VIOLATION}");
    std::fs::write(ws.join("crates/fleet/src/acc.rs"), shifted).expect("write");
    let out = run_ws(&ws, &["--baseline", &bl_s]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout_of(&out));
}

#[test]
fn missing_baseline_file_gates_everything() {
    let ws = temp_ws("baseline-missing", &[("crates/fleet/src/acc.rs", ACCUMULATOR_VIOLATION)]);
    let out = run_ws(&ws, &["--baseline", "/nonexistent/simlint-baseline.json"]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout_of(&out));
    assert!(stdout_of(&out).contains("0 baselined"));
}

// ---- --streams inventory -----------------------------------------------

#[test]
fn streams_flag_prints_the_chain_inventory() {
    let a = fixture("r002_collide_a.rs");
    let b = fixture("r002_collide_b.rs");
    let ws = temp_ws(
        "streams",
        &[
            ("crates/fleet/src/a.rs", a.as_str()),
            ("crates/net/src/b.rs", b.as_str()),
            ("STREAMS.md", REGISTERED_BOTH),
        ],
    );
    let out = run_ws(&ws, &["--streams"]);
    assert_eq!(out.status.code(), Some(0), "stdout: {}", stdout_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("| shared-crn |"), "stdout: {stdout}");
    assert!(stdout.contains("crates/fleet/src/a.rs:5"), "stdout: {stdout}");
    assert!(stdout.contains("crates/net/src/b.rs:5"), "stdout: {stdout}");
}

// ---- The PR 8 regression, end to end -----------------------------------

#[test]
fn binary_catches_the_pr8_mesh_keying_bug_with_file_line_and_exit_1() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simlint_v2");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let staged = dir.join("r001_seeded.rs");
    std::fs::write(&staged, fixture("r001_pos.rs")).expect("stage fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg(&staged)
        .output()
        .expect("run simlint");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The pre-fix mesh shape: enumerate counter over a local candidate
    // list keying `dev-link`, reported with a clickable file:line.
    assert!(stdout.contains("r001_seeded.rs:8: [R001]"), "stdout: {stdout}");
    assert!(stdout.contains("'dev-link'"), "stdout: {stdout}");
}
