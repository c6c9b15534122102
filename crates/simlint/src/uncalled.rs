//! U001: public functions that nothing calls.
//!
//! rustc's `dead_code` lint stops at a library's public surface: a
//! `pub fn` counts as used because some other crate *might* call it. In a
//! closed workspace that promise is checkable. U001 flags a non-test
//! `pub fn` in library code (`crates/` and the root `src/`) when
//!
//! * no other scanned file names it — crate sources, integration tests,
//!   examples and `perfbench/` all count as callers, and so do the code
//!   blocks of each file's `///` and `//!` doc comments, which rustdoc
//!   compiles as a crate of their own — and
//! * its own file names it only in test code (or not at all).
//!
//! Names are matched as identifier tokens, not resolved: a `pub fn new`
//! is never flagged because some other file names *a* `new`. The rule
//! under-reports on common names and never needs type information.
//! Binaries and `perfbench/` define no library surface (rustc's own dead
//! code lint already covers them), so their definitions are not checked.
//!
//! U001 needs the whole workspace, so it runs only from
//! [`crate::lint_workspace`]; linting single files skips it and leaves
//! its pragmas unaudited.

use crate::lexer::{self, Lexed, TokKind, Token};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// How many scanned files name each identifier (a file counts once).
#[derive(Clone, Debug, Default)]
pub struct NameIndex {
    files_naming: BTreeMap<String, usize>,
}

impl NameIndex {
    /// Records every identifier one file names, then, as one more file,
    /// every identifier its doc examples name.
    pub fn add_file(&mut self, lexed: &Lexed) {
        self.add_names(&lexed.tokens);
        self.add_names(&lexer::lex(&doc_examples(lexed)).tokens);
    }

    fn add_names(&mut self, toks: &[Token]) {
        let names: BTreeSet<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect();
        for name in names {
            *self.files_naming.entry(name.to_string()).or_default() += 1;
        }
    }

    fn files_naming(&self, name: &str) -> usize {
        self.files_naming.get(name).copied().unwrap_or(0)
    }
}

/// The Rust code blocks of a file's `///` and `//!` doc comments, one
/// line each. A fence opens a Rust block unless its info string names
/// something else (`text`, `ignore`, a shell); rustdoc compiles the rest.
fn doc_examples(lexed: &Lexed) -> String {
    let mut code = String::new();
    // Inside a fenced block: whether it is Rust.
    let mut block: Option<bool> = None;
    for c in &lexed.comments {
        let Some(line) = c.text.strip_prefix("///").or_else(|| c.text.strip_prefix("//!")) else {
            continue;
        };
        let line = line.strip_prefix(' ').unwrap_or(line);
        if let Some(info) = line.trim_start().strip_prefix("```") {
            block = match block {
                Some(_) => None,
                None => Some(info.split(',').map(str::trim).all(|tag| {
                    matches!(tag, "" | "rust" | "no_run" | "should_panic")
                        || tag.starts_with("edition")
                })),
            };
            continue;
        }
        if block == Some(true) {
            code.push_str(line);
            code.push('\n');
        }
    }
    code
}

/// True if U001 checks the definitions in `file` (library code).
fn in_scope(file: &str) -> bool {
    let binary = file.contains("/bin/") || file.ends_with("main.rs");
    (file.starts_with("crates/") || file.starts_with("src/")) && !binary
}

/// Finds the uncalled `pub fn`s of one file. `in_test` masks test lines.
pub fn analyze(
    file: &str,
    toks: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    index: &NameIndex,
) -> Vec<Finding> {
    if !in_scope(file) {
        return Vec::new();
    }
    let after_fn = |i: usize| i > 0 && toks[i - 1].is_ident("fn");
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !after_fn(i) || in_test(t.line) {
            continue;
        }
        let public = match i.checked_sub(2).map(|j| &toks[j]) {
            Some(p) if p.is_ident("pub") => true,
            Some(c) if c.is_ident("const") => i >= 3 && toks[i - 3].is_ident("pub"),
            _ => false,
        };
        if !public || index.files_naming(&t.text) > 1 {
            continue;
        }
        let used_here = toks
            .iter()
            .enumerate()
            .any(|(j, u)| u.is_ident(&t.text) && !after_fn(j) && !in_test(u.line));
        if used_here {
            continue;
        }
        out.push(Finding {
            file: file.to_string(),
            line: t.line,
            rule: "U001",
            message: format!(
                "`pub fn {}` has no caller: no other file names it and its own file uses it \
                 only in tests; delete it with its tests, or keep it with a pragma that says \
                 why",
                t.text
            ),
        });
    }
    out
}
