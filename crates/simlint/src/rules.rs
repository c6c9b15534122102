//! The simlint rule set.
//!
//! Each rule enforces one of the workspace's written-but-otherwise-unchecked
//! determinism or panic-safety invariants (DESIGN.md §8):
//!
//! * **D001** — no `std` `HashMap`/`HashSet` in digest-feeding crates.
//!   Their iteration order is seeded per-process (`RandomState`), so any
//!   iteration that feeds a digest, a report, or an event schedule is a
//!   reproducibility time bomb. Use `BTreeMap`/`BTreeSet` or sort first.
//! * **D002** — no `Instant`/`SystemTime` outside the profiling allowlist
//!   (the `bench` crate; `EngineProfile` sites carry explicit pragmas).
//!   Wall-clock reads in simulation code are nondeterminism by definition.
//! * **D003** — no OS entropy or ambient RNG (`thread_rng`, `OsRng`,
//!   `from_entropy`, `getrandom`, `RandomState`, `rand::…`). All
//!   randomness flows from `simcore::Rng` so a seed reproduces a run.
//! * **P001** — no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in
//!   non-test code. The simulation core is panic-free by contract (PR 1);
//!   this extends the clippy `unwrap_used`/`expect_used` gate to a tool we
//!   fully control.
//! * **F001** — no float `==`/`!=` against float literals and no
//!   `.partial_cmp(…)` chains in non-test code; use `total_cmp` (the PR 1
//!   convention) so NaN and signed zero cannot poison an ordering.
//! * **D004** — no indexed `devices[…]` access in digest-feeding crates.
//!   The device population is a struct-of-arrays `DeviceStore`;
//!   row-at-a-time poking through a `devices` vector bypasses the store's
//!   incremental cohort census and stuck-device index, silently desyncing
//!   the aggregate weekly sampler from the population it summarizes. Go
//!   through the store's accessors (`row`/`set_row`/`mark_failed`/…).
//!
//! The flow-aware v2 rules (DESIGN.md §15) live in their own modules and
//! are run from [`check_file`] / the workspace pass:
//!
//! * **R001** ([`crate::lineage`]) — `Rng::split` keys must be a string
//!   literal plus stable-id arguments; visit-order keys (enumerate
//!   counters over locally-built containers, mutable accumulators) are
//!   the PR 8 bug class.
//! * **R002** (workspace pass + [`crate::registry`]) — two call sites
//!   minting the same stream lineage chain are an error unless the chain
//!   is registered in `STREAMS.md`; stale registry entries are errors too.
//! * **R003** ([`crate::taint`]) — values derived from wall clocks, env
//!   vars, thread/pointer identity may not flow into digest sinks.
//! * **R004** (here) — a pragma that waives nothing is itself a finding,
//!   so the allow-ledger can only shrink as code heals.
//! * **U001** ([`crate::uncalled`], workspace runs only) — a library
//!   `pub fn` that no other file names and its own file uses only in
//!   tests is dead surface.
//!
//! Rules operate on the token stream from [`crate::lexer`]; test code
//! (`#[cfg(test)]` items, `#[test]` functions, files under `tests/`) is
//! exempt from every rule, and individual lines can be waived with an
//! auditable pragma:
//!
//! ```text
//! // simlint: allow(D002, profiling wall-clock is excluded from digests)
//! ```
//!
//! A trailing pragma waives its own line; a standalone pragma waives the
//! next code line. A pragma without a reason (or naming an unknown rule)
//! is itself a finding — the ledger stays greppable and honest.

use crate::lexer::{lex, LineComment, TokKind, Token};
use crate::lineage::{self, StreamSite};
use crate::taint;
use crate::uncalled::{self, NameIndex};

/// Rule identifiers, in report order.
pub const RULE_IDS: [&str; 12] = [
    "D001", "D002", "D003", "D004", "P001", "F001", "R001", "R002", "R003", "R004", "U001",
    "SL000",
];

/// Crates whose state feeds run digests, golden traces, or rendered
/// exhibits. `HashMap` iteration anywhere in these is a D001 finding.
/// Today that is every runtime crate: `telemetry` computes the digests,
/// `bench` cross-checks serial vs parallel digests, and the root
/// workspace package hosts the integration examples that print golden
/// output. Only `simlint` itself is out of scope (it never touches
/// simulation state).
const DIGEST_FEEDING_CRATES: [&str; 13] = [
    "simcore",
    "core",
    "fleet",
    "net",
    "energy",
    "econ",
    "backhaul",
    "reliability",
    "chaos",
    "telemetry",
    "bench",
    "serve",
    "workspace",
];

/// Crates allowed to read the wall clock: `bench` measures real elapsed
/// time by design, and `serve` implements request deadlines and
/// admission timing — wall-clock concerns of the daemon, never of the
/// simulation it runs (run results stay pure functions of the request).
/// Everything else needs a pragma (see `EngineProfile`).
const WALL_CLOCK_CRATES: [&str; 2] = ["bench", "serve"];

/// Ambient-RNG identifiers banned by D003.
const ENTROPY_IDENTS: [&str; 8] = [
    "thread_rng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
    "StdRng",
    "SmallRng",
    "ThreadRng",
];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D001`, …, or `SL000` for malformed pragmas).
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl Finding {
    /// Renders the finding in the `file:line: [RULE] message` form the
    /// verify gate prints.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Outcome of linting one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Findings that survived pragma filtering, in line order.
    pub findings: Vec<Finding>,
    /// Number of would-be findings waived by a valid pragma.
    pub allowed: usize,
    /// Non-test stream mint sites, for the workspace R002 pass.
    pub sites: Vec<StreamSite>,
}

/// A parsed `// simlint: allow(RULE, reason)` pragma.
#[derive(Clone, Debug)]
struct Pragma {
    rule: String,
    reason: String,
    /// The line the pragma comment starts on (R004 anchors here).
    at: u32,
    /// The line(s) this pragma waives.
    lines: Vec<u32>,
}

/// Lints one file's source.
///
/// `file` is the path used in findings (workspace-relative by convention),
/// `crate_name` scopes the per-crate rules (`"workspace"` for the root
/// package), and `is_test_file` marks whole-file test exemption (files
/// under a `tests/` directory — they compile with `cfg(test)`). The
/// cross-file rule U001 is skipped; see [`check_file_in`].
pub fn check_file(file: &str, crate_name: &str, src: &str, is_test_file: bool) -> FileReport {
    check_file_in(file, crate_name, src, is_test_file, None)
}

/// [`check_file`] with the workspace's [`NameIndex`], which enables U001
/// and audits U001 pragmas under R004.
pub fn check_file_in(
    file: &str,
    crate_name: &str,
    src: &str,
    is_test_file: bool,
    names: Option<&NameIndex>,
) -> FileReport {
    let lexed = lex(src);
    let mut report = FileReport::default();

    let test_lines = if is_test_file { None } else { Some(test_line_mask(&lexed.tokens)) };
    let in_test = |line: u32| match &test_lines {
        None => true,
        Some(mask) => mask.get(line as usize).copied().unwrap_or(false),
    };

    let mut raw: Vec<Finding> = Vec::new();
    let pragmas = collect_pragmas(file, &lexed.comments, &lexed.tokens, &mut raw);
    let waived = |rule: &str, line: u32| {
        pragmas.iter().any(|p| p.rule == rule && p.lines.contains(&line))
    };

    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|j| toks.get(j));
        let next = toks.get(i + 1);
        let prev_is = |s: &str| prev.map(|p| p.is_punct(s)).unwrap_or(false);
        let next_is = |s: &str| next.map(|p| p.is_punct(s)).unwrap_or(false);

        match t.kind {
            TokKind::Ident => {
                let name = t.text.as_str();
                if (name == "HashMap" || name == "HashSet")
                    && DIGEST_FEEDING_CRATES.contains(&crate_name)
                {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "D001",
                        message: format!(
                            "std::collections::{name} in digest-feeding crate `{crate_name}`: \
                             iteration order is per-process random; use BTree{} or sort before \
                             iterating",
                            &name[4..]
                        ),
                    });
                }
                if (name == "Instant" || name == "SystemTime")
                    && !WALL_CLOCK_CRATES.contains(&crate_name)
                {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "D002",
                        message: format!(
                            "wall-clock type `{name}` outside the profiling allowlist: \
                             simulation code must use SimTime; profiling sites need an \
                             explicit pragma"
                        ),
                    });
                }
                if ENTROPY_IDENTS.contains(&name) || (name == "rand" && next_is("::")) {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "D003",
                        message: format!(
                            "ambient randomness `{name}`: all entropy must flow from \
                             simcore::Rng so a seed reproduces the run"
                        ),
                    });
                }
                if (name == "unwrap" || name == "expect") && prev_is(".") && next_is("(") {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "P001",
                        message: format!(
                            ".{name}() in non-test code: the simulation core is panic-free \
                             by contract; propagate an error or handle the None/Err arm"
                        ),
                    });
                }
                if (name == "panic" || name == "todo" || name == "unimplemented")
                    && next_is("!")
                {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "P001",
                        message: format!(
                            "{name}! in non-test code: the simulation core is panic-free by \
                             contract; return an error instead"
                        ),
                    });
                }
                if name == "devices"
                    && next_is("[")
                    && DIGEST_FEEDING_CRATES.contains(&crate_name)
                {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "D004",
                        message: "indexed `devices[…]` access in a digest-feeding crate: \
                                  the population is a struct-of-arrays DeviceStore; use its \
                                  accessors (row/set_row/mark_failed/…) so the cohort census \
                                  and stuck index stay in sync with the aggregate sampler"
                            .to_string(),
                    });
                }
                if name == "partial_cmp" && prev_is(".") {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "F001",
                        message: ".partial_cmp() in non-test code: use f64::total_cmp so NaN \
                                  cannot poison the ordering (PR 1 convention)"
                            .to_string(),
                    });
                }
            }
            TokKind::Punct if t.text == "==" || t.text == "!=" => {
                let float_side = prev.map(|p| p.kind == TokKind::Float).unwrap_or(false)
                    || next.map(|p| p.kind == TokKind::Float).unwrap_or(false);
                if float_side {
                    raw.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "F001",
                        message: format!(
                            "float literal compared with `{}`: exact float equality is \
                             fragile; compare with a tolerance or use total_cmp",
                            t.text
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    // Flow-aware v2 rules share one parse of the token stream.
    let parsed = crate::parse::parse(toks);
    let (mut lineage_findings, sites) = lineage::analyze(file, toks, &parsed);
    raw.append(&mut lineage_findings);
    if DIGEST_FEEDING_CRATES.contains(&crate_name) {
        raw.append(&mut taint::analyze(file, toks, &parsed));
    }
    if let Some(names) = names {
        raw.append(&mut uncalled::analyze(file, toks, &in_test, names));
    }

    let mut used = vec![false; pragmas.len()];
    for f in raw {
        if in_test(f.line) {
            continue;
        }
        if let Some(i) =
            pragmas.iter().position(|p| p.rule == f.rule && p.lines.contains(&f.line))
        {
            used[i] = true;
            report.allowed += 1;
            continue;
        }
        report.findings.push(f);
    }

    // R004: a pragma that waived nothing is stale — the ledger only stays
    // honest if every entry still earns its keep. Test code is exempt as
    // everywhere else; `allow(R004, …)` meta-pragmas can waive an entry
    // that is intentionally kept (e.g. around conditionally-compiled code)
    // and are never themselves reported stale. U001 pragmas can only be
    // judged against the whole workspace.
    if !is_test_file {
        for (p, was_used) in pragmas.iter().zip(&used) {
            let unjudged = p.rule == "U001" && names.is_none();
            if *was_used || p.rule == "R004" || unjudged || in_test(p.at) {
                continue;
            }
            if waived("R004", p.at) {
                report.allowed += 1;
                continue;
            }
            report.findings.push(Finding {
                file: file.to_string(),
                line: p.at,
                rule: "R004",
                message: format!(
                    "stale pragma: `allow({}, {})` waives nothing; delete it or fix the \
                     rule id/placement",
                    p.rule, p.reason
                ),
            });
        }
    }

    report.sites = sites.into_iter().filter(|s| !in_test(s.line)).collect();
    report.findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
}

/// Builds a per-line mask of test code: lines covered by an item carrying
/// `#[test]` / `#[cfg(test)]` / `#[cfg(any(test, …))]`.
///
/// Outer attributes only — inner attributes (`#![…]`) configure the
/// enclosing item and never mark a region. `#[cfg_attr(test, …)]` is a
/// conditional attribute, not a test marker, and is deliberately ignored.
fn test_line_mask(toks: &[Token]) -> Vec<bool> {
    let max_line = toks.last().map(|t| t.line as usize).unwrap_or(0);
    let mut mask = vec![false; max_line + 2];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct("#")
            && toks.get(i + 1).map(|t| t.is_punct("[")).unwrap_or(false))
        {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut attr_idents: Vec<&str> = Vec::new();
        while j < toks.len() && depth > 0 {
            match &toks[j] {
                t if t.is_punct("[") => depth += 1,
                t if t.is_punct("]") => depth -= 1,
                t if t.kind == TokKind::Ident => attr_idents.push(t.text.as_str()),
                _ => {}
            }
            j += 1;
        }
        let is_test_marker = match attr_idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => attr_idents.contains(&"test"),
            _ => false,
        };
        if !is_test_marker {
            i = j;
            continue;
        }
        // Find the end of the annotated item: the matching `}` of its first
        // top-level brace block, or a `;` before any brace opens.
        let mut k = j;
        let mut brace = 0i32;
        let mut end = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace -= 1;
                if brace == 0 {
                    end = Some(k);
                    break;
                }
            } else if t.is_punct(";") && brace == 0 {
                end = Some(k);
                break;
            }
            k += 1;
        }
        let end = end.unwrap_or(toks.len() - 1);
        let (from, to) = (toks[attr_start].line as usize, toks[end].line as usize);
        for line in from..=to.min(mask.len() - 1) {
            mask[line] = true;
        }
        i = end + 1;
    }
    mask
}

/// Parses `simlint:` pragmas out of line comments. Malformed pragmas are
/// appended to `findings` as `SL000`.
fn collect_pragmas(
    file: &str,
    comments: &[LineComment],
    toks: &[Token],
    findings: &mut Vec<Finding>,
) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        // Only comments of the exact form `// simlint: …` are pragma
        // candidates. Prose that merely *mentions* `simlint:` (docs, this
        // comment) must not parse — but a typo'd pragma still fails loudly
        // as SL000 rather than silently not waiving anything.
        let stripped = c.text.trim_start_matches('/').trim_start();
        let Some(body) = stripped.strip_prefix("simlint:") else { continue };
        let body = body.trim();
        let parsed = parse_allow(body);
        match parsed {
            Ok((rule, reason)) => {
                let lines = if c.standalone {
                    // A standalone pragma waives the next code line; chains
                    // of standalone pragmas all reach the same target line.
                    match toks.iter().find(|t| t.line > c.line).map(|t| t.line) {
                        Some(target) => vec![target],
                        None => Vec::new(),
                    }
                } else {
                    vec![c.line]
                };
                out.push(Pragma { rule, reason, at: c.line, lines });
            }
            Err(why) => findings.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "SL000",
                message: format!("malformed simlint pragma ({why}); expected \
                                  `// simlint: allow(RULE, reason)`"),
            }),
        }
    }
    out
}

/// Parses the `allow(RULE, reason)` body of a pragma.
fn parse_allow(body: &str) -> Result<(String, String), &'static str> {
    let rest = body.strip_prefix("allow").ok_or("missing `allow`")?.trim_start();
    let rest = rest.strip_prefix('(').ok_or("missing `(`")?;
    let inner = rest.strip_suffix(')').ok_or("missing closing `)`")?;
    let (rule, reason) = inner.split_once(',').ok_or("missing `, reason`")?;
    let rule = rule.trim();
    let reason = reason.trim();
    if !RULE_IDS.contains(&rule) {
        return Err("unknown rule id");
    }
    if reason.is_empty() {
        return Err("empty reason");
    }
    Ok((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        check_file("t.rs", "simcore", src, false).findings
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn prod() { }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let x: Option<u8> = None; x.unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn test_attr_fn_is_exempt_but_code_after_is_not() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn prod() { y.unwrap(); }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn cfg_attr_test_is_not_a_test_marker() {
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn prod() { x.unwrap(); }\n";
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn standalone_pragma_waives_next_line_only() {
        let src = "// simlint: allow(P001, checked by construction above)\nx.unwrap();\ny.unwrap();\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn trailing_pragma_waives_its_line() {
        let src = "x.unwrap(); // simlint: allow(P001, infallible by construction)\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_a_finding() {
        let src = "// simlint: allow(P001)\nlet ok = 1;\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "SL000");
    }

    #[test]
    fn unwrap_or_does_not_fire() {
        let src = "let v = o.unwrap_or(0); let w = o.unwrap_or_else(f); let u = o.unwrap_or_default();\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn fn_partial_cmp_definition_does_not_fire() {
        let src = "impl PartialOrd for T { fn partial_cmp(&self, o: &T) -> Option<Ordering> { None } }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn d002_allows_bench_crate() {
        let src = "let t0 = Instant::now();\n";
        assert!(check_file("b.rs", "bench", src, false).findings.is_empty());
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn serve_crate_may_read_wall_clock_but_still_feeds_digests() {
        // Deadlines and admission timing are daemon concerns, so D002 is
        // waived for `serve` — but its results land in the digest cache,
        // so the determinism rules (D001 here) still apply in full.
        let clock = "let deadline = Instant::now() + timeout;\n";
        assert!(check_file("s.rs", "serve", clock, false).findings.is_empty());
        let map = "use std::collections::HashMap;\n";
        let f = check_file("s.rs", "serve", map, false).findings;
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D001");
    }

    #[test]
    fn d004_fires_only_on_subscripted_devices() {
        let bad = "let d = arm.devices[i];\n";
        let ok = "let n = arm.devices.len();\nlet devices = 3;\nlet h = homes[i];\n";
        let f = lint(bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D004");
        assert!(lint(ok).is_empty());
    }

    #[test]
    fn float_eq_fires_only_on_float_literals() {
        let bad = "if x == 1.0 { }\n";
        let ok = "if n == 10 { }\nif s == other { }\nfor i in 0..10 { }\n";
        assert_eq!(lint(bad).len(), 1);
        assert!(lint(ok).is_empty());
    }
}
