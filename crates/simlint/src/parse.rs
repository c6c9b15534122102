//! A lightweight structural view over the token stream: token trees and a
//! per-function statement view.
//!
//! simlint v2's flow-aware rules (R001–R003, see [`crate::lineage`] and
//! [`crate::taint`]) need more shape than a flat token stream — which
//! expression feeds which `Rng::split` argument, which `let` binds which
//! stream — but far less than a real Rust grammar. This module nests
//! tokens into trees at the `()`/`[]`/`{}` delimiters (exactly the token
//! trees rustc's own macro layer uses) and extracts every `fn` item with
//! its parameter names and body. Everything else (types, generics, match
//! arms) stays flat; the analyses walk tree sequences with small local
//! patterns. Like the lexer, the parser never fails: unbalanced input
//! degrades to "treat the stray token as a leaf", which under-reports
//! rather than crashing the gate.

use crate::lexer::{TokKind, Token};

/// One token tree: a single token, or a delimited group of trees.
#[derive(Clone, Debug)]
pub enum Tree {
    /// Index of a token in the lexed stream.
    Leaf(usize),
    /// A `(…)`, `[…]` or `{…}` group.
    Group {
        /// Opening delimiter: `'('`, `'['` or `'{'`.
        delim: char,
        /// Index of the opening delimiter token (for line numbers).
        open: usize,
        /// The trees between the delimiters.
        children: Vec<Tree>,
    },
}

/// A `fn` item: its name, parameter names, and body trees.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Parameter pattern names, including `self` when present. These are
    /// the "stable" identifiers for R001: callers pin what they pass.
    pub params: Vec<String>,
    /// The trees of the body block.
    pub body: Vec<Tree>,
}

/// The parsed view of one file.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    /// Top-level token trees (the whole file).
    pub trees: Vec<Tree>,
    /// Every `fn` item found at any nesting depth.
    pub fns: Vec<FnItem>,
}

/// Parses the lexed token stream into trees and function items.
pub fn parse(toks: &[Token]) -> Parsed {
    let mut i = 0usize;
    let trees = build(toks, &mut i, None);
    let mut fns = Vec::new();
    collect_fns(toks, &trees, &mut fns);
    Parsed { trees, fns }
}

fn closer(delim: char) -> &'static str {
    match delim {
        '(' => ")",
        '[' => "]",
        _ => "}",
    }
}

fn build(toks: &[Token], i: &mut usize, close: Option<&str>) -> Vec<Tree> {
    let mut out = Vec::new();
    while *i < toks.len() {
        let t = &toks[*i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => {
                    let open = *i;
                    let delim = match t.text.as_str() {
                        "(" => '(',
                        "[" => '[',
                        _ => '{',
                    };
                    *i += 1;
                    let children = build(toks, i, Some(closer(delim)));
                    out.push(Tree::Group { delim, open, children });
                    continue;
                }
                // Stray closers (unbalanced input) fall through to the
                // leaf push below so the walk terminates.
                ")" | "]" | "}" if Some(t.text.as_str()) == close => {
                    *i += 1;
                    return out;
                }
                _ => {}
            }
        }
        out.push(Tree::Leaf(*i));
        *i += 1;
    }
    out
}

/// Recursively finds every `fn NAME … ( params ) … { body }` item.
fn collect_fns(toks: &[Token], trees: &[Tree], out: &mut Vec<FnItem>) {
    let mut k = 0usize;
    while k < trees.len() {
        if let Tree::Group { children, .. } = &trees[k] {
            collect_fns(toks, children, out);
            k += 1;
            continue;
        }
        if !is_leaf_ident(toks, &trees[k], "fn") {
            k += 1;
            continue;
        }
        // `fn` must be followed by a name (skips `fn(u32)` pointer types).
        let Some(name) = leaf(toks, trees.get(k + 1))
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
        else {
            k += 1;
            continue;
        };
        // Skip generics between the name and the parameter list: balanced
        // `<…>` at leaf level. `->`/`=>` don't count; `>>` closes two.
        let mut j = k + 2;
        if is_leaf_punct(toks, trees.get(j), "<") {
            let mut depth = 0i32;
            while j < trees.len() {
                if let Some(t) = leaf(toks, trees.get(j)) {
                    match t.text.as_str() {
                        "<" | "<<" if t.kind == TokKind::Punct => {
                            depth += if t.text == "<<" { 2 } else { 1 };
                        }
                        ">" if t.kind == TokKind::Punct => depth -= 1,
                        ">>" if t.kind == TokKind::Punct => depth -= 2,
                        _ => {}
                    }
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
        }
        // The parameter list is the next `(…)` group.
        let mut params = Vec::new();
        while j < trees.len() {
            match &trees[j] {
                Tree::Group { delim: '(', children, .. } => {
                    params = param_names(toks, children);
                    j += 1;
                    break;
                }
                Tree::Group { .. } => j += 1,
                t => {
                    // A `;` before the parameter list means a malformed
                    // item; bail on this candidate.
                    if is_leaf_punct(toks, Some(t), ";") {
                        break;
                    }
                    j += 1;
                }
            }
        }
        // The body is the next `{…}` group before a `;` (trait method
        // declarations have no body).
        let mut body = None;
        while j < trees.len() {
            match &trees[j] {
                Tree::Group { delim: '{', children, .. } => {
                    body = Some(children.clone());
                    break;
                }
                t if is_leaf_punct(toks, Some(t), ";") => break,
                _ => j += 1,
            }
        }
        if let Some(body) = body {
            out.push(FnItem { name, params, body });
            // Nested fns inside this body are found by the recursion at the
            // top of the loop when we pass the body group.
        }
        k += 1;
    }
}

/// Extracts parameter names from the trees of a parameter list: the
/// pattern identifiers before each top-level `:` (plus bare `self`).
fn param_names(toks: &[Token], children: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    for param in split_on_comma(toks, children) {
        let mut saw_colon = false;
        for t in param {
            match t {
                Tree::Leaf(ix) => {
                    let tok = &toks[*ix];
                    if tok.is_punct(":") {
                        saw_colon = true;
                    } else if !saw_colon && tok.kind == TokKind::Ident {
                        let s = tok.text.as_str();
                        if s != "mut" && s != "ref" {
                            out.push(s.to_string());
                        }
                    }
                }
                Tree::Group { children, .. } if !saw_colon => {
                    // Tuple / struct patterns: all idents inside bind.
                    collect_pattern_idents(toks, children, &mut out);
                }
                Tree::Group { .. } => {}
            }
        }
    }
    out
}

fn collect_pattern_idents(toks: &[Token], trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(ix) => {
                let tok = &toks[*ix];
                if tok.kind == TokKind::Ident && tok.text != "mut" && tok.text != "ref" {
                    out.push(tok.text.clone());
                }
            }
            Tree::Group { children, .. } => collect_pattern_idents(toks, children, out),
        }
    }
}

/// Returns the token behind a leaf tree, if any.
pub fn leaf<'a>(toks: &'a [Token], t: Option<&Tree>) -> Option<&'a Token> {
    match t {
        Some(Tree::Leaf(ix)) => toks.get(*ix),
        _ => None,
    }
}

/// True if `t` is a leaf holding the identifier `s`.
pub fn is_leaf_ident(toks: &[Token], t: &Tree, s: &str) -> bool {
    leaf(toks, Some(t)).map(|tok| tok.is_ident(s)).unwrap_or(false)
}

/// True if `t` is a leaf holding the punctuation `s`.
pub fn is_leaf_punct(toks: &[Token], t: Option<&Tree>, s: &str) -> bool {
    leaf(toks, t).map(|tok| tok.is_punct(s)).unwrap_or(false)
}

/// Splits a tree sequence on top-level commas.
pub fn split_on_comma<'a>(toks: &[Token], trees: &'a [Tree]) -> Vec<&'a [Tree]> {
    split_on(toks, trees, ",")
}

/// Splits a tree sequence on top-level `;` (statement boundaries).
pub fn split_statements<'a>(toks: &[Token], trees: &'a [Tree]) -> Vec<&'a [Tree]> {
    split_on(toks, trees, ";")
}

fn split_on<'a>(toks: &[Token], trees: &'a [Tree], sep: &str) -> Vec<&'a [Tree]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, t) in trees.iter().enumerate() {
        if is_leaf_punct(toks, Some(t), sep) {
            if i > start {
                out.push(&trees[start..i]);
            }
            start = i + 1;
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_fns_with_params_at_any_depth() {
        let src = "impl Foo {\n  fn method(&self, di: usize, cfg: &Config) -> u64 { di }\n}\nfn top<T: Fn(u32) -> bool>(f: T, (a, b): (u8, u8)) { }\n";
        let lexed = lex(src);
        let p = parse(&lexed.tokens);
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["method", "top"]);
        assert_eq!(p.fns[0].params, vec!["self", "di", "cfg"]);
        assert_eq!(p.fns[1].params, vec!["f", "a", "b"]);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn decl(&self) -> u64; fn with_body(&self) -> u64 { 1 } }";
        let lexed = lex(src);
        let p = parse(&lexed.tokens);
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }

    #[test]
    fn statements_split_on_top_level_semicolons_only() {
        let src = "fn f() { let a = g(1; 2); let b = 2; }";
        // (`;` inside the group stays inside its subtree)
        let lexed = lex(src);
        let p = parse(&lexed.tokens);
        let stmts = split_statements(&lexed.tokens, &p.fns[0].body);
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn unbalanced_input_degrades_to_leaves() {
        let src = "fn f( { ) } ] extra";
        let lexed = lex(src);
        let p = parse(&lexed.tokens);
        // No panic, and the walk terminates.
        assert!(!p.trees.is_empty());
    }
}
