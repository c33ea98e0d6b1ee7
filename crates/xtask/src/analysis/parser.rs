//! A lightweight item/block parser over the token stream: enough
//! structure for the analyses, nowhere near a full Rust grammar.
//!
//! Per file it produces:
//!
//! - a **function table** — every `fn`, with its name, the `impl` type it
//!   belongs to (if any), the token range of its body, and whether it is
//!   `#[cfg(test)]`-gated;
//! - **test ranges** — token spans gated behind `#[cfg(test)]` (the
//!   attribute plus the following item through its closing brace or
//!   semicolon), which every analysis skips;
//! - a **depth map** — combined `{`/`(`/`[` nesting depth at each token,
//!   so statement- and block-boundary scans are O(1) per probe.
//!
//! Deliberate approximations (documented so nobody mistakes this for
//! rustc): generics are skipped by balanced `<`/`>` counting with an
//! arrow (`->`) exception; trait-default methods attribute to the trait's
//! name like inherent methods; nested `fn`s are recorded as independent
//! functions.

use crate::analysis::lexer::{Lexed, TokKind};

/// One parsed function.
#[derive(Debug, Clone)]
pub struct Func {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` type name this fn sits inside, if any
    /// (`impl RecvBuf` → `RecvBuf`; `impl Transport<M> for
    /// TcpTransport` → `TcpTransport`).
    pub owner: Option<String>,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range of the body: `body.0` is the `{`, `body.1` the
    /// matching `}` (exclusive of neither). `None` for bodyless trait
    /// methods and extern declarations.
    pub body: Option<(usize, usize)>,
    /// True when the fn sits inside a `#[cfg(test)]`-gated span.
    pub is_test: bool,
}

impl Func {
    /// `Owner::name` for a method, `name` for a free function.
    pub fn qualified_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Parse results for one file.
#[derive(Debug, Clone)]
pub struct FileItems {
    /// Every function in the file, in source order.
    pub funcs: Vec<Func>,
    /// Token spans (inclusive start, inclusive end) gated by
    /// `#[cfg(test)]`.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileItems {
    /// True if token `i` is inside a `#[cfg(test)]` span.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }
}

/// Parses the item structure of a lexed file.
pub fn parse(lexed: &Lexed) -> FileItems {
    let test_ranges = find_test_ranges(lexed);
    let funcs = find_funcs(lexed, &test_ranges);
    FileItems { funcs, test_ranges }
}

/// Finds the matching closer for the opener at `open` (`(`/`[`/`{`),
/// counting all three bracket kinds together. Returns the index of the
/// closing token, or the last token if unbalanced.
pub fn matching_close(lexed: &Lexed, open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < lexed.len() {
        match lexed.text(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    lexed.len().saturating_sub(1)
}

/// Finds the matching opener for the closer at `close` (`)`/`]`/`}`),
/// counting all three bracket kinds together. Returns the index of the
/// opening token, or 0 if unbalanced.
pub fn matching_open(lexed: &Lexed, close: usize) -> usize {
    let mut depth = 0isize;
    let mut i = close;
    loop {
        match lexed.text(i) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        if i == 0 {
            return 0;
        }
        i -= 1;
    }
}

fn is_opener(t: &str) -> bool {
    matches!(t, "(" | "[" | "{")
}

fn is_closer(t: &str) -> bool {
    matches!(t, ")" | "]" | "}")
}

/// `#[cfg(test)]` spans: the attribute through the gated item's closing
/// `}` (or `;` for braceless items). Handles stacked attributes between
/// the gate and the item.
fn find_test_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 5 < lexed.len() {
        let gate = lexed.text_at(i) == "#"
            && lexed.text_at(i + 1) == "["
            && lexed.is_ident(i + 2, "cfg")
            && lexed.text_at(i + 3) == "("
            && lexed.is_ident(i + 4, "test")
            && lexed.text_at(i + 5) == ")"
            && lexed.text_at(i + 6) == "]";
        if !gate {
            i += 1;
            continue;
        }
        // Walk from the end of the attribute to the gated item's end:
        // the first `{` at relative depth 0 (then its match), or the
        // first `;` (use-decl / const), skipping further attributes.
        let mut j = i + 7;
        let mut end = j;
        while j < lexed.len() {
            let t = lexed.text(j);
            if t == "#" && lexed.text_at(j + 1) == "[" {
                j = matching_close(lexed, j + 1) + 1;
                continue;
            }
            if t == "{" {
                end = matching_close(lexed, j);
                break;
            }
            if t == ";" {
                end = j;
                break;
            }
            if is_opener(t) {
                j = matching_close(lexed, j) + 1;
                continue;
            }
            if is_closer(t) {
                // Malformed / end of enclosing item: stop at the gate.
                end = j.saturating_sub(1);
                break;
            }
            j += 1;
        }
        out.push((i, end.max(i)));
        i = end.max(i) + 1;
    }
    out
}

/// Skips a generics list starting at `<`, tolerating `->` arrows inside
/// `Fn(...) -> T` bounds. Returns the index just past the closing `>`.
pub fn skip_generics(lexed: &Lexed, at: usize) -> usize {
    debug_assert_eq!(lexed.text_at(at), "<");
    let mut depth = 0isize;
    let mut i = at;
    while i < lexed.len() {
        match lexed.text(i) {
            "<" => depth += 1,
            // `->` inside a bound: that `>` belongs to the arrow.
            ">" if !(i > 0 && lexed.text(i - 1) == "-") => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            "(" | "[" | "{" => {
                i = matching_close(lexed, i);
            }
            ";" => return i, // unterminated; bail
            _ => {}
        }
        i += 1;
    }
    i
}

/// The type name an `impl` block implements for: `impl Foo {` → `Foo`,
/// `impl<T> Trait<T> for Bar<T> {` → `Bar`. Scans from the `impl` token.
fn impl_target(lexed: &Lexed, impl_tok: usize) -> (Option<String>, usize) {
    let mut i = impl_tok + 1;
    if lexed.text_at(i) == "<" {
        i = skip_generics(lexed, i);
    }
    // Collect the head type path, then keep going: if a `for` shows up
    // before the `{`, the real target is the path after it.
    let mut name = None;
    while i < lexed.len() {
        let t = lexed.text(i);
        if t == "{" {
            return (name, i);
        }
        if lexed.is_ident(i, "for") {
            name = None;
            i += 1;
            continue;
        }
        if lexed.is_ident(i, "where") {
            // Bounds until the `{`; the target is already decided.
            while i < lexed.len() && lexed.text(i) != "{" {
                if lexed.text(i) == "<" {
                    i = skip_generics(lexed, i);
                } else {
                    i += 1;
                }
            }
            continue;
        }
        if lexed.kind_at(i) == Some(TokKind::Ident) {
            // Last path segment wins: `crate::conn::Link` → `Link`.
            name = Some(lexed.text(i).to_string());
            i += 1;
            if lexed.text_at(i) == "<" {
                i = skip_generics(lexed, i);
            }
            continue;
        }
        i += 1;
    }
    (name, i)
}

/// `trait Foo {` → owner name for its default methods.
fn trait_name(lexed: &Lexed, trait_tok: usize) -> (Option<String>, usize) {
    let mut i = trait_tok + 1;
    let name = if lexed.kind_at(i) == Some(TokKind::Ident) {
        Some(lexed.text(i).to_string())
    } else {
        None
    };
    while i < lexed.len() && lexed.text(i) != "{" && lexed.text(i) != ";" {
        if lexed.text(i) == "<" {
            i = skip_generics(lexed, i);
        } else {
            i += 1;
        }
    }
    (name, i)
}

fn find_funcs(lexed: &Lexed, test_ranges: &[(usize, usize)]) -> Vec<Func> {
    let in_test = |i: usize| test_ranges.iter().any(|&(a, b)| a <= i && i <= b);
    let mut funcs = Vec::new();
    // Stack of (owner name, closing-brace index) for impl/trait blocks.
    let mut owners: Vec<(Option<String>, usize)> = Vec::new();
    let mut i = 0;
    while i < lexed.len() {
        if lexed.is_ident(i, "impl") {
            let (name, open) = impl_target(lexed, i);
            if lexed.text_at(open) == "{" {
                owners.push((name, matching_close(lexed, open)));
            }
            i = open + 1;
            continue;
        }
        if lexed.is_ident(i, "trait") {
            let (name, open) = trait_name(lexed, i);
            if lexed.text_at(open) == "{" {
                owners.push((name, matching_close(lexed, open)));
            }
            i = open + 1;
            continue;
        }
        if lexed.is_ident(i, "fn") {
            let name_tok = i + 1;
            if lexed.kind_at(name_tok) != Some(TokKind::Ident) {
                i += 1; // `fn` in a type position (`Fn` is distinct, but `fn(..)` pointers exist)
                continue;
            }
            let name = lexed.text(name_tok).to_string();
            // Signature: optional generics, params, optional return type,
            // optional where clause, then `{` or `;`.
            let mut j = name_tok + 1;
            if lexed.text_at(j) == "<" {
                j = skip_generics(lexed, j);
            }
            if lexed.text_at(j) == "(" {
                j = matching_close(lexed, j) + 1;
            }
            let mut body = None;
            while j < lexed.len() {
                let t = lexed.text(j);
                if t == "{" {
                    body = Some((j, matching_close(lexed, j)));
                    break;
                }
                if t == ";" {
                    break;
                }
                if t == "<" {
                    j = skip_generics(lexed, j);
                    continue;
                }
                if is_opener(t) {
                    j = matching_close(lexed, j) + 1;
                    continue;
                }
                if is_closer(t) {
                    break; // malformed
                }
                j += 1;
            }
            let owner = owners
                .iter()
                .rev()
                .find(|(_, close)| i < *close)
                .and_then(|(n, _)| n.clone());
            funcs.push(Func {
                name,
                owner,
                fn_tok: i,
                body,
                is_test: in_test(i),
            });
            // Continue *inside* the body so nested fns are found too.
            i = name_tok + 1;
            continue;
        }
        i += 1;
    }
    funcs
}

/// Index of the first token of the statement containing `site`: scans
/// backward to the nearest `;`, `,`, `=>`, enclosing opener, or sibling
/// block's `}` at the same nesting level. (A depth-0 `}` behind the site
/// is read as the end of a preceding block statement; a struct literal
/// used as `Foo { .. }.field` would mis-anchor, but that shape never
/// holds a lock guard or a pattern, which is all this feeds.)
pub fn statement_start(lexed: &Lexed, site: usize) -> usize {
    let mut rd = 0isize;
    let mut j = site;
    while j > 0 {
        j -= 1;
        let t = lexed.text(j);
        if is_closer(t) {
            if t == "}" && rd == 0 {
                return j + 1;
            }
            rd += 1;
        } else if is_opener(t) {
            if rd == 0 {
                return j + 1;
            }
            rd -= 1;
        } else if rd == 0 {
            if t == ";" || t == "," {
                return j + 1;
            }
            if t == ">" && j > 0 && lexed.text(j - 1) == "=" {
                return j + 1;
            }
        }
    }
    0
}

/// Index of the token ending the statement that starts at `start`:
/// normally the `;` (or the `,`/closer of the surrounding group), but
/// for block statements (`if`/`match`/`while`/`for`/`loop`/`unsafe`)
/// the closing `}` of the final attached block — matching Rust's
/// temporary-lifetime rule that a scrutinee temporary (e.g. a `MutexGuard`
/// in `if let … = m.lock()…`) lives until the whole statement ends.
pub fn statement_end(lexed: &Lexed, start: usize) -> usize {
    let head = lexed.text_at(start);
    let block_stmt = matches!(head, "if" | "match" | "while" | "for" | "loop" | "unsafe");
    let mut j = start;
    while j < lexed.len() {
        let t = lexed.text(j);
        if t == ";" {
            return j;
        }
        if t == "{" && block_stmt {
            let close = matching_close(lexed, j);
            // `else` (possibly `else if …`) continues the statement.
            if lexed.text_at(close + 1) == "else" {
                j = close + 1;
                continue;
            }
            return close;
        }
        if is_opener(t) {
            j = matching_close(lexed, j) + 1;
            continue;
        }
        if is_closer(t) {
            return j.saturating_sub(1);
        }
        if t == "," {
            return j;
        }
        j += 1;
    }
    lexed.len().saturating_sub(1)
}

/// The closing `}` of the innermost braced block containing `site`
/// (walking out through any parenthesized groups), or the last token.
pub fn enclosing_block_end(lexed: &Lexed, site: usize) -> usize {
    let mut rd = 0isize;
    let mut j = site;
    while j > 0 {
        j -= 1;
        let t = lexed.text(j);
        if is_closer(t) {
            rd += 1;
        } else if is_opener(t) {
            if rd == 0 {
                if t == "{" {
                    return matching_close(lexed, j);
                }
                // Inside a `(`/`[` group: keep walking out.
                continue;
            }
            rd -= 1;
        }
    }
    lexed.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> (Lexed, FileItems) {
        let l = Lexed::new(src);
        let it = parse(&l);
        (l, it)
    }

    #[test]
    fn free_and_method_functions() {
        let src = "fn free() {} \
                   impl Widget { fn method(&self) -> u8 { 1 } } \
                   impl<T: Clone> Trait<T> for Holder<T> { fn held(&self) {} } \
                   trait Proto { fn required(&self); fn defaulted(&self) {} }";
        let (_, it) = items(src);
        let names: Vec<_> = it
            .funcs
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("free", None),
                ("method", Some("Widget")),
                ("held", Some("Holder")),
                ("required", Some("Proto")),
                ("defaulted", Some("Proto")),
            ]
        );
        assert!(it.funcs[3].body.is_none(), "required has no body");
        assert!(it.funcs[4].body.is_some());
    }

    #[test]
    fn lifetimes_in_signatures_do_not_derail() {
        let src = "impl<'a, R: Read + 'a> Reader<'a, R> { \
                     fn next<'b>(&'b mut self) -> Option<&'a [u8]> { None } \
                   }";
        let (_, it) = items(src);
        assert_eq!(it.funcs.len(), 1);
        assert_eq!(it.funcs[0].name, "next");
        assert_eq!(it.funcs[0].owner.as_deref(), Some("Reader"));
    }

    #[test]
    fn cfg_test_ranges_cover_mod_and_fn() {
        let src = "fn prod() {} \
                   #[cfg(test)] mod tests { fn helper() {} #[test] fn case() {} } \
                   #[cfg(test)] use std::time::Instant; \
                   fn prod2() {}";
        let (l, it) = items(src);
        assert_eq!(it.test_ranges.len(), 2);
        let tests: Vec<_> = it
            .funcs
            .iter()
            .filter(|f| f.is_test)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(tests, ["helper", "case"]);
        // Instant inside the gated use is covered.
        let instant = (0..l.len()).find(|&i| l.is_ident(i, "Instant")).unwrap();
        assert!(it.in_test(instant));
        let prod2 = it.funcs.iter().find(|f| f.name == "prod2").unwrap();
        assert!(!it.in_test(prod2.fn_tok));
    }

    #[test]
    fn fn_returning_fn_pointer_and_where_clause() {
        let src = "fn pick<F>(f: F) -> fn(u8) -> u8 where F: Fn(u8) -> u8 { unimplemented!() }";
        let (_, it) = items(src);
        assert_eq!(it.funcs.len(), 1);
        assert_eq!(it.funcs[0].name, "pick");
        assert!(it.funcs[0].body.is_some());
    }

    #[test]
    fn nested_fn_found() {
        let src = "fn outer() { fn inner() {} inner() }";
        let (_, it) = items(src);
        let names: Vec<_> = it.funcs.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }
}
