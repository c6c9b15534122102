//! `simlint` — a dependency-free determinism & panic-safety linter.
//!
//! The century workspace's correctness contract is *the digest*: a run is
//! correct iff its FNV-1a digest matches the golden trace, and serial ==
//! parallel (DESIGN.md §6). Golden tests enforce that contract after the
//! fact; `simlint` enforces it at the source level, before any simulation
//! runs, by rejecting the classic sources of silent nondeterminism and
//! the panics the core has been free of since PR 1. See [`rules`] for the
//! rule catalogue (D001–D003, P001, F001) and DESIGN.md §8 for the
//! policy discussion.
//!
//! Since v2 (DESIGN.md §15) the linter is flow-aware: a hand-rolled
//! structural view ([`parse`]) feeds an RNG stream-lineage analysis
//! ([`lineage`], rules R001/R002 against the `STREAMS.md` [`registry`]),
//! a digest-purity taint pass ([`taint`], R003), and a stale-pragma audit
//! (R004) and a cross-file pass for public functions nothing calls
//! ([`uncalled`], U001). Findings can be gated against a stable [`baseline`] so CI
//! fails only on *new* findings.
//!
//! The crate is self-contained on purpose: no `syn`, no `walkdir`, no
//! `serde` — it builds offline like the rest of the workspace and its
//! lexer ([`lexer`]) is small enough to audit. Run it with:
//!
//! ```text
//! cargo run -p simlint -- --workspace          # human output, exit 1 on findings
//! cargo run -p simlint -- --workspace --json   # machine-readable CI output
//! cargo run -p simlint -- --workspace --baseline B.json   # fail on NEW findings only
//! cargo run -p simlint -- --workspace --streams # print the stream inventory
//! cargo run -p simlint -- path/to/file.rs …    # lint specific files
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod lexer;
pub mod lineage;
pub mod parse;
pub mod registry;
pub mod rules;
pub mod taint;
pub mod uncalled;

use lineage::StreamSite;
use registry::Registry;
use rules::{check_file, check_file_in, FileReport, Finding};
use uncalled::NameIndex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Aggregate result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// All surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Would-be findings waived by valid pragmas (the auditable ledger).
    pub allowed: usize,
    /// Findings subtracted by `--baseline` (accepted pre-existing debt).
    pub baselined: usize,
    /// Every non-test stream mint site in the run (the `--streams`
    /// inventory; also the input to the R002 collision pass).
    pub sites: Vec<StreamSite>,
}

impl RunReport {
    fn absorb(&mut self, file: FileReport) {
        self.findings.extend(file.findings);
        self.allowed += file.allowed;
        self.sites.extend(file.sites);
        self.files_scanned += 1;
    }

    /// Subtracts baseline-covered findings, recording how many were
    /// accepted. The gate then fails only on what remains.
    pub fn apply_baseline(&mut self, baseline: &baseline::Baseline) {
        let before = self.findings.len();
        self.findings.retain(|f| !baseline.covers(f));
        self.baselined += before - self.findings.len();
    }

    /// Renders the stream inventory: every minted chain with its sites,
    /// ready to paste into `STREAMS.md`'s informational section.
    pub fn render_streams(&self) -> String {
        let mut by_chain: BTreeMap<&str, Vec<&StreamSite>> = BTreeMap::new();
        for s in &self.sites {
            by_chain.entry(&s.chain).or_default().push(s);
        }
        let mut out = String::new();
        for (chain, sites) in &by_chain {
            let mut locs: Vec<String> =
                sites.iter().map(|s| format!("{}:{}", s.file, s.line)).collect();
            locs.sort();
            locs.dedup();
            out.push_str(&format!("| {} | {} |\n", chain, locs.join(" ")));
        }
        out.push_str(&format!(
            "simlint: {} stream chain(s) across {} site(s)\n",
            by_chain.len(),
            self.sites.len()
        ));
        out
    }

    /// Renders findings for humans, one per line, plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "simlint: {} finding(s), {} pragma-allowed, {} baselined, {} file(s) scanned\n",
            self.findings.len(),
            self.allowed,
            self.baselined,
            self.files_scanned
        ));
        out
    }

    /// Renders the report as a single JSON object (hand-rolled — no serde;
    /// the schema is `{files_scanned, allowed, baselined, findings:
    /// [{file, line, rule, message}]}`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"files_scanned\":{},\"allowed\":{},\"baselined\":{},\"findings\":[",
            self.files_scanned, self.allowed, self.baselined
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Path prefixes (workspace-relative, `/`-separated) excluded from the
/// workspace walk:
///
/// * `vendor/` — third-party shims (criterion legitimately reads the wall
///   clock); they are not our code and not digest-feeding.
/// * `target/` — build output.
/// * `crates/simlint/tests/fixtures/` — the fixture corpus *deliberately*
///   contains one of every violation.
const EXCLUDED_PREFIXES: [&str; 3] = ["vendor/", "target/", "crates/simlint/tests/fixtures/"];

/// Classifies a workspace-relative path into (crate name, is_test_file).
///
/// `crates/<name>/…` belongs to `<name>`; everything else (`src/`,
/// `tests/`, `examples/` at the root) belongs to the root `workspace`
/// package. Files under any `tests/` directory compile with `cfg(test)`
/// and are test code wholesale.
fn classify(rel: &str) -> (String, bool) {
    let mut parts = rel.split('/');
    let crate_name = if rel.starts_with("crates/") {
        parts.nth(1).unwrap_or("workspace").to_string()
    } else {
        "workspace".to_string()
    };
    let is_test = rel.split('/').any(|p| p == "tests");
    (crate_name, is_test)
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// output, skipping hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace `.rs` file under `root` (excluding
/// `EXCLUDED_PREFIXES`). Returns an error only on I/O failure; findings
/// are data, not errors.
pub fn lint_workspace(root: &Path) -> std::io::Result<RunReport> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    let mut files = Vec::new();
    let mut names = NameIndex::default();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if EXCLUDED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        names.add_file(&lexer::lex(&src));
        files.push((rel, src));
    }
    let mut report = RunReport::default();
    for (rel, src) in &files {
        let (crate_name, is_test) = classify(rel);
        report.absorb(check_file_in(rel, &crate_name, src, is_test, Some(&names)));
    }
    r002_collisions(&mut report, &Registry::load(root));
    report.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(report)
}

/// The cross-file R002 pass: two non-test call sites minting the same
/// lineage chain alias the same substream — an error unless `STREAMS.md`
/// registers the share (deliberate CRN). Registry entries that no longer
/// match at least two live sites are stale, to the same standard R004
/// holds pragmas to. Pragmas cannot waive R002: the registry, with its
/// mandatory reason column, *is* the waiver mechanism.
fn r002_collisions(report: &mut RunReport, registry: &Registry) {
    let mut by_chain: BTreeMap<&str, BTreeSet<(&str, u32)>> = BTreeMap::new();
    for s in &report.sites {
        by_chain.entry(&s.chain).or_default().insert((&s.file, s.line));
    }
    let mut findings = Vec::new();
    for (chain, sites) in &by_chain {
        if sites.len() < 2 {
            continue;
        }
        let files: BTreeSet<&str> = sites.iter().map(|(f, _)| *f).collect();
        if let Some(entry) = registry.entry(chain) {
            if files.iter().all(|f| entry.files.contains(*f)) {
                continue;
            }
        }
        let file_list = files.iter().copied().collect::<Vec<_>>().join(", ");
        for (file, line) in sites {
            findings.push(Finding {
                file: file.to_string(),
                line: *line,
                rule: "R002",
                message: format!(
                    "stream chain '{chain}' is minted at {} call sites ({file_list}): \
                     identical chains alias the same substream; register the share in \
                     STREAMS.md (deliberate CRN) or re-key one site",
                    sites.len()
                ),
            });
        }
    }
    for entry in &registry.entries {
        let live = by_chain.get(entry.chain.as_str()).map(BTreeSet::len).unwrap_or(0);
        if live < 2 {
            findings.push(Finding {
                file: "STREAMS.md".to_string(),
                line: entry.line,
                rule: "R002",
                message: format!(
                    "stale registry entry: stream chain '{}' has {live} live call site(s), \
                     not the two-plus a registered share implies; remove the entry",
                    entry.chain
                ),
            });
        }
    }
    report.findings.append(&mut findings);
}

/// Lints a single file, reporting it under the name `rel`.
pub fn lint_path_as(path: &Path, rel: &str) -> std::io::Result<FileReport> {
    let src = std::fs::read_to_string(path)?;
    let (crate_name, is_test) = classify(rel);
    Ok(check_file(rel, &crate_name, &src, is_test))
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_crates_and_root() {
        assert_eq!(classify("crates/simcore/src/rng.rs"), ("simcore".to_string(), false));
        assert_eq!(classify("crates/fleet/tests/x.rs"), ("fleet".to_string(), true));
        assert_eq!(classify("src/lib.rs"), ("workspace".to_string(), false));
        assert_eq!(classify("tests/golden_digests.rs"), ("workspace".to_string(), true));
        assert_eq!(classify("examples/quickstart.rs"), ("workspace".to_string(), false));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_output_is_well_formed_without_findings() {
        let r = RunReport { files_scanned: 3, allowed: 1, ..RunReport::default() };
        assert_eq!(
            r.render_json(),
            "{\"files_scanned\":3,\"allowed\":1,\"baselined\":0,\"findings\":[]}"
        );
    }

    #[test]
    fn r002_flags_unregistered_collisions_and_stale_entries() {
        let site = |file: &str, line: u32, chain: &str| StreamSite {
            file: file.to_string(),
            line,
            label: chain.rsplit('/').next().unwrap_or(chain).to_string(),
            chain: chain.to_string(),
        };
        let mut report = RunReport {
            sites: vec![
                site("a.rs", 10, "svc"),
                site("b.rs", 20, "svc"),
                site("c.rs", 5, "solo"),
            ],
            ..RunReport::default()
        };
        let registry = Registry::parse(
            "## Shared streams\n| stream | files | reason |\n|---|---|---|\n\
             | dead | z.rs | gone |\n",
        );
        r002_collisions(&mut report, &registry);
        let rules: Vec<_> = report.findings.iter().map(|f| (f.rule, f.file.as_str())).collect();
        assert_eq!(
            rules,
            vec![("R002", "a.rs"), ("R002", "b.rs"), ("R002", "STREAMS.md")],
            "{:?}",
            report.findings
        );

        // The same collision, registered, is clean — but the registration
        // must cover every minting file.
        let mut ok = RunReport {
            sites: vec![site("a.rs", 10, "svc"), site("b.rs", 20, "svc")],
            ..RunReport::default()
        };
        let reg_ok = Registry::parse(
            "## Shared streams\n| stream | files | reason |\n|---|---|---|\n\
             | svc | a.rs b.rs | CRN pair |\n",
        );
        r002_collisions(&mut ok, &reg_ok);
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }
}
