//! A shallow intra-workspace call graph over the parsed function tables.
//!
//! Resolution is name-based and deliberately over-approximate in the
//! direction that makes the analyses *sound as gates* (a spurious edge
//! can only add findings, which the baseline file documents; a missing
//! edge is the dangerous direction, so the rules below err toward
//! linking):
//!
//! - **bare calls** `helper(…)` resolve to every workspace function with
//!   that name;
//! - **qualified calls** `Type::new(…)` resolve to functions whose
//!   `impl` owner is `Type` when any exist; otherwise, if the qualifier
//!   looks like a module path segment (`frame::parse_hello`) or a
//!   generic parameter (`E::decode`), they fall back to name-only
//!   resolution. A concrete foreign type (`TcpStream::connect`) with no
//!   workspace owner resolves to nothing. `Self::method(…)` resolves
//!   against the calling function's own `impl` owner — across files,
//!   since impl blocks for one type may be split;
//! - **method calls** `x.flush(…)` resolve only when the receiver chain
//!   is rooted at `self` — then to same-file functions of that name.
//!   Other receivers are untyped here and resolving them by name alone
//!   drowned the lock analysis in false cycles (`stream.shutdown()`
//!   is not `ConnectionManager::shutdown`), so they stay unresolved;
//!   this is the one documented under-approximation.
//!
//! `#[cfg(test)]` functions are excluded entirely: they neither appear
//! as nodes nor resolve as callees.
//!
//! The graph also owns what the cone-based passes share: declared root
//! sets ([`Root`], [`root_cone`]), the breadth-first cone walk that
//! records a witness path per function ([`CallGraph::cone`]), and the
//! scan over every CFG-reachable statement of a cone
//! ([`CallGraph::scan_cone`]).

use crate::analysis::cfg::Cfg;
use crate::analysis::lexer::{Lexed, TokKind};
use crate::analysis::parser::{matching_close, matching_open, Func};
use crate::analysis::{Finding, SourceFile, Workspace};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Rust keywords that precede `(` without being calls.
pub const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "let", "fn", "pub", "where", "use", "mod", "impl", "trait", "struct",
    "enum", "union", "unsafe", "dyn", "box", "await", "yield", "const", "static", "crate", "super",
    "type",
];

/// One resolved call site inside a function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Global function id of the callee.
    pub callee: usize,
    /// Token index of the callee name at the call site.
    pub tok: usize,
}

/// A function's global identity: `(file index, func index within file)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `items.funcs`.
    pub func: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Global id → function identity.
    pub fns: Vec<FnRef>,
    /// Global id → resolved call sites in its body, in token order.
    pub calls: Vec<Vec<Call>>,
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over every non-test function in the workspace.
    pub fn build(ws: &Workspace) -> Self {
        let mut fns = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_owner: HashMap<String, Vec<usize>> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.items.funcs.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let id = fns.len();
                fns.push(FnRef { file: fi, func: gi });
                by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(owner) = &f.owner {
                    by_owner.entry(owner.clone()).or_default().push(id);
                }
            }
        }
        let mut calls = vec![Vec::new(); fns.len()];
        for (id, fr) in fns.iter().enumerate() {
            let file = &ws.files[fr.file];
            let f = &file.items.funcs[fr.func];
            let Some((open, close)) = f.body else {
                continue;
            };
            calls[id] = extract_calls(
                &file.lexed,
                open,
                close,
                fr.file,
                f.owner.as_deref(),
                &fns,
                &by_name,
                &by_owner,
            );
        }
        CallGraph {
            fns,
            calls,
            by_name,
        }
    }

    /// Global ids of non-test functions named `name`.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// The transitive closure of callees from `roots` (inclusive),
    /// walked breadth-first so each function's witness names the first
    /// root to reach it and its direct caller on that path.
    pub fn cone(&self, roots: impl IntoIterator<Item = usize>) -> Cone {
        let mut cone = Cone::new();
        let mut queue = VecDeque::new();
        for r in roots {
            cone.entry(r).or_insert((r, None));
            queue.push_back(r);
        }
        while let Some(id) = queue.pop_front() {
            let (root, _) = cone[&id];
            for c in &self.calls[id] {
                cone.entry(c.callee).or_insert_with(|| {
                    queue.push_back(c.callee);
                    (root, Some(id))
                });
            }
        }
        cone
    }

    /// The file and the parsed function behind global id `id`.
    pub fn func<'w>(&self, ws: &'w Workspace, id: usize) -> (&'w SourceFile, &'w Func) {
        let fr = self.fns[id];
        let file = &ws.files[fr.file];
        (file, &file.items.funcs[fr.func])
    }

    /// Scans every token of every CFG-reachable statement of every
    /// function in `cone` (in id, then source order): where `detail`,
    /// given the file, the token and the function's qualified name,
    /// returns an explanation, that token is a `rule` finding.
    pub fn scan_cone(
        &self,
        ws: &Workspace,
        cone: &Cone,
        rule: &'static str,
        mut detail: impl FnMut(&SourceFile, usize, &str) -> Option<String>,
    ) -> Vec<Finding> {
        let mut out = Vec::new();
        for &id in cone.keys() {
            let (file, f) = self.func(ws, id);
            let Some((open, close)) = f.body else {
                continue;
            };
            let qname = f.qualified_name();
            let cfg = Cfg::build(&file.lexed, open, close);
            out.extend(cfg.reachable_facts(|stmt| {
                cfg.own_tokens(stmt)
                    .filter_map(|i| Some(Finding::at(rule, file, i, detail(file, i, &qname)?)))
                    .collect()
            }));
        }
        out
    }
}

/// A cone: every function reachable from a root set, by global id,
/// with the `(root, parent)` witness of the first path that reached it
/// (`parent` is the direct caller; `None` for a root).
pub type Cone = BTreeMap<usize, (usize, Option<usize>)>;

/// A declared root: one concrete function a cone starts from.
#[derive(Debug, Clone, Copy)]
pub struct Root {
    /// Workspace-relative file path.
    pub path: &'static str,
    /// `impl` owner, if the fn is a method.
    pub owner: Option<&'static str>,
    /// Function name.
    pub name: &'static str,
}

impl Root {
    /// Global ids of the functions this root names (empty when its
    /// file or function is absent).
    pub fn resolve(&self, ws: &Workspace, graph: &CallGraph) -> Vec<usize> {
        graph
            .named(self.name)
            .iter()
            .copied()
            .filter(|&id| {
                let (file, f) = graph.func(ws, id);
                file.path == self.path && f.owner.as_deref() == self.owner
            })
            .collect()
    }

    fn qualified(&self) -> String {
        match self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Resolves the declared roots against the workspace and walks their
/// cone. Returns the cone plus a `rule` finding per root whose file
/// exists but whose function does not — a silently-empty root set
/// would turn the gate off. A root whose file is absent is skipped, so
/// fixture workspaces run; the integration tests check that every
/// declared file exists in the real workspace.
pub fn root_cone(
    ws: &Workspace,
    graph: &CallGraph,
    roots: &[Root],
    rule: &'static str,
) -> (Cone, Vec<Finding>) {
    let mut ids = Vec::new();
    let mut findings = Vec::new();
    for root in roots {
        if ws.file(root.path).is_none() {
            continue;
        }
        let found = root.resolve(ws, graph);
        if found.is_empty() {
            findings.push(Finding {
                rule,
                path: root.path.to_string(),
                line: 1,
                snippet: format!("missing hot root `{}`", root.qualified()),
                detail: format!(
                    "declared root `{}` not found in this file — the function was \
                     renamed or moved; update the `{rule}` root set in \
                     crates/xtask/src/analysis/ so the gate keeps covering its cone",
                    root.qualified()
                ),
            });
        }
        ids.extend(found);
    }
    (graph.cone(ids), findings)
}

fn looks_generic(q: &str) -> bool {
    q.len() <= 2 && q.starts_with(|c: char| c.is_ascii_uppercase())
}

fn looks_module(q: &str) -> bool {
    q.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
}

#[allow(clippy::too_many_arguments)]
fn extract_calls(
    lexed: &Lexed,
    open: usize,
    close: usize,
    file_idx: usize,
    caller_owner: Option<&str>,
    fns: &[FnRef],
    by_name: &HashMap<String, Vec<usize>>,
    by_owner: &HashMap<String, Vec<usize>>,
) -> Vec<Call> {
    let mut out = Vec::new();
    let same_file = |ids: &[usize]| -> Vec<usize> {
        ids.iter()
            .copied()
            .filter(|&id| fns[id].file == file_idx)
            .collect()
    };
    // Calls inside `unsafe { … }` blocks are FFI calls (the workspace
    // confines unsafety to the syscall module); resolving them by bare
    // name would link `read(fd, …)` to every workspace fn named `read`.
    let mut unsafe_spans: Vec<(usize, usize)> = Vec::new();
    for i in open..close.min(lexed.len()) {
        if lexed.is_ident(i, "unsafe") && lexed.text_at(i + 1) == "{" {
            unsafe_spans.push((i + 1, matching_close(lexed, i + 1)));
        }
    }
    for i in open..=close.min(lexed.len().saturating_sub(1)) {
        if lexed.kind_at(i) != Some(TokKind::Ident) || lexed.text_at(i + 1) != "(" {
            continue;
        }
        let name = lexed.text(i);
        if KEYWORDS.contains(&name) {
            continue;
        }
        // Macro head `name!(…)` is not a call.
        if i > 0 && lexed.text(i - 1) == "!" {
            continue;
        }
        // Bare `drop(x)` is `std::mem::drop`, never a workspace
        // `Drop::drop` (direct `Drop::drop` calls don't compile).
        if name == "drop" && !(i > 0 && lexed.text(i - 1) == ".") {
            continue;
        }
        if unsafe_spans.iter().any(|&(a, b)| a <= i && i <= b) {
            continue;
        }
        let resolved: Vec<usize> = if i > 0 && lexed.text(i - 1) == "." {
            // Method call: resolve only when rooted at `self`.
            if receiver_rooted_at_self(lexed, i - 1) {
                by_name
                    .get(name)
                    .map(|ids| same_file(ids))
                    .unwrap_or_default()
            } else {
                Vec::new()
            }
        } else if i >= 3 && lexed.is_path_sep(i - 2) {
            // Qualified call `Q::name(…)`.
            let q = if lexed.kind_at(i - 3) == Some(TokKind::Ident) {
                lexed.text(i - 3)
            } else {
                ""
            };
            let candidates = by_name.get(name).cloned().unwrap_or_default();
            // `Self::name(…)` inside an impl block resolves against the
            // caller's own impl owner (any file — impl blocks for one
            // type can be split across files), falling back to
            // same-file name matching when the caller is a free fn
            // (malformed, but keep the old over-approximation).
            let owner = if q == "Self" { caller_owner } else { Some(q) };
            match owner.and_then(|o| by_owner.get(o)) {
                Some(owned) => candidates
                    .into_iter()
                    .filter(|id| owned.contains(id))
                    .collect(),
                None if q == "Self" => same_file(&candidates),
                None if looks_generic(q) || looks_module(q) => candidates,
                None => Vec::new(),
            }
        } else {
            // Bare call.
            by_name.get(name).cloned().unwrap_or_default()
        };
        for callee in resolved {
            out.push(Call { callee, tok: i });
        }
    }
    out
}

/// From the `.` before a method name, walks the receiver chain left
/// through `ident . ident . … ( )`-ish links and reports whether its
/// root is literally `self`.
fn receiver_rooted_at_self(lexed: &Lexed, mut dot: usize) -> bool {
    while dot > 0 {
        let mut link = dot - 1;
        // Call or index result: continue left of the matching opener,
        // at the name before it (`foo(…)` / `x[…]`).
        if matches!(lexed.text(link), ")" | "]") {
            let open = matching_open(lexed, link);
            if open == 0 {
                return false;
            }
            link = open - 1;
        }
        if lexed.kind_at(link) != Some(TokKind::Ident) {
            return false;
        }
        if lexed.text(link) == "self" {
            return true;
        }
        if link == 0 || lexed.text(link - 1) != "." {
            return false;
        }
        dot = link - 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Workspace;

    fn edge_names(ws: &Workspace, g: &CallGraph, from: &str) -> Vec<String> {
        let from_id = g.named(from)[0];
        g.calls[from_id]
            .iter()
            .map(|c| g.func(ws, c.callee).1.name.clone())
            .collect()
    }

    #[test]
    fn bare_and_qualified_calls_resolve() {
        let w = Workspace::from_sources(&[
            (
                "crates/a/src/lib.rs",
                "fn entry() { helper(); Widget::new(); frame::poke(); TcpStream::connect(); }
                 fn helper() {}",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Widget { fn new() {} } pub fn poke() {} impl Foreign { fn connect() {} }",
            ),
        ]);
        let g = CallGraph::build(&w);
        let callees = edge_names(&w, &g, "entry");
        // TcpStream has no workspace impl, so connect() must NOT link to
        // Foreign::connect.
        assert_eq!(callees, ["helper", "new", "poke"]);
    }

    #[test]
    fn generic_qualifier_falls_back_to_name() {
        let w = Workspace::from_sources(&[
            (
                "crates/a/src/lib.rs",
                "fn run(input: &mut &[u8]) { let _ = E::decode(input); }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Op { fn decode() {} } impl Other { fn decode() {} }",
            ),
        ]);
        let g = CallGraph::build(&w);
        assert_eq!(edge_names(&w, &g, "run"), ["decode", "decode"]);
    }

    #[test]
    fn self_methods_resolve_same_file_only() {
        let w = Workspace::from_sources(&[
            (
                "crates/a/src/lib.rs",
                "impl R { fn next(&mut self) { self.pop(); self.buf.pop(); stream.shutdown(); } \
                          fn pop(&mut self) {} }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl S { fn shutdown(&self) {} fn pop(&self) {} }",
            ),
        ]);
        let g = CallGraph::build(&w);
        // self.pop() links to R::pop only; self.buf.pop() is rooted at
        // self too (field method) and also links by name within the file;
        // stream.shutdown() stays unresolved.
        let callees = edge_names(&w, &g, "next");
        assert_eq!(callees, ["pop", "pop"]);
    }

    #[test]
    fn self_qualified_calls_resolve_by_owner_across_files() {
        let w = Workspace::from_sources(&[
            (
                "crates/a/src/engine.rs",
                "impl Engine { fn drive(&mut self) { Self::step(); } } \
                 impl Other { fn step() {} }",
            ),
            // The second impl block of Engine lives in another file —
            // `Self::step` must still find it, and must NOT link to
            // `Other::step` in its own file.
            (
                "crates/a/src/engine_steps.rs",
                "impl Engine { fn step() {} }",
            ),
        ]);
        let g = CallGraph::build(&w);
        let drive = g.named("drive")[0];
        let callees: Vec<_> = g.calls[drive]
            .iter()
            .map(|c| {
                let (file, f) = g.func(&w, c.callee);
                (file.path.clone(), f.owner.clone())
            })
            .collect();
        assert_eq!(
            callees,
            [(
                "crates/a/src/engine_steps.rs".to_string(),
                Some("Engine".to_string())
            )]
        );
    }

    #[test]
    fn test_functions_are_invisible() {
        let w = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "fn prod() { helper(); } \
             #[cfg(test)] mod tests { pub fn helper() { panic!() } } \
             fn helper() {}",
        )]);
        let g = CallGraph::build(&w);
        assert_eq!(g.named("helper").len(), 1);
        assert_eq!(edge_names(&w, &g, "prod"), ["helper"]);
    }

    #[test]
    fn reachability_walks_transitively() {
        let w = Workspace::from_sources(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); } fn b() { c(); } fn c() {} fn d() {}",
        )]);
        let g = CallGraph::build(&w);
        let reach = g.cone(g.named("a").iter().copied());
        let names: Vec<_> = reach
            .keys()
            .map(|&id| g.func(&w, id).1.name.clone())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
    }
}
