//! Static lock-order (deadlock) analysis.
//!
//! The threaded TCP and simnet runtimes drain the delivery cascade from
//! multiple I/O threads; a lock-order inversion there deadlocks the whole
//! group *silently* — the paper's agreement guarantee (§4) assumes the
//! runtime keeps draining. The DPOR explorer covers the sans-IO core but
//! cannot see `std::sync::Mutex`, so this analysis covers what it can't:
//!
//! 1. **Acquisition sites** — every `….lock()`, `….read()`, `….write()`
//!    (empty-argument, so `io::Read::read(buf)` doesn't count) in every
//!    non-test function. A lock's identity is the last identifier of the
//!    receiver chain — the `Mutex` field or binding name — with **no**
//!    crate qualifier, so `self.inbox_tx.lock()` in `net` and a cloned
//!    `inbox_tx.lock()` reached through a `simnet` helper collapse to
//!    one class. Merging same-named locks across crates over-approximates
//!    (it can only add edges, never hide one), which is the sound
//!    direction for a deadlock gate; distinct locks that share a field
//!    name and genuinely nest get a baseline entry explaining why.
//! 2. **Hold regions** — how long the guard lives, per Rust's temporary
//!    rules: to the end of the statement for an expression statement, to
//!    the end of the whole block statement for `if let`/`while let`/
//!    `match` scrutinees, and (conservatively) to the end of the
//!    enclosing block for `let`-bound guards.
//! 3. **Edges** — `A → B` when `B` is acquired inside `A`'s hold region,
//!    directly or via any call-graph-reachable function (the transitive
//!    lock footprint of the callee).
//! 4. **Cycles** — strongly connected components of the order graph; any
//!    SCC with an edge inside it (including a self-loop: `std::sync::Mutex`
//!    is not reentrant) is a potential deadlock and fails the gate unless
//!    baselined in `lint-allow.toml` with a reason.

use crate::analysis::callgraph::CallGraph;
use crate::analysis::lexer::TokKind;
use crate::analysis::{parser, Finding, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// The rule id.
pub const RULE: &str = "lock-order";

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Global function id (call-graph numbering).
    pub func: usize,
    /// Token index of the `.` before `lock`/`read`/`write`.
    pub tok: usize,
    /// Lock class: the receiver's field/binding name (e.g. `inbox_tx`).
    pub class: String,
}

/// One ordered edge in the lock-order graph, with its witness site.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Lock held at the witness point.
    pub from: String,
    /// Lock acquired while `from` is held.
    pub to: String,
    /// Workspace-relative file of the witness.
    pub path: String,
    /// 1-based line of the witness.
    pub line: usize,
    /// Function containing the witness.
    pub in_fn: String,
    /// `Some(callee)` when the inner acquisition happens inside a called
    /// function rather than at the witness line itself.
    pub via: Option<String>,
}

/// The cross-crate lock-order graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every acquisition site found.
    pub sites: Vec<Acquisition>,
    /// Deduplicated ordered edges with one witness each.
    pub edges: Vec<Edge>,
}

impl LockGraph {
    /// Distinct lock classes, sorted.
    pub fn classes(&self) -> BTreeSet<&str> {
        self.sites.iter().map(|s| s.class.as_str()).collect()
    }

    /// All elementary cycles' node lists (each rotated to start at its
    /// lexicographically smallest class, deduplicated). Empty means the
    /// order graph is acyclic — no static deadlock.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &self.edges {
            adj.entry(e.from.as_str())
                .or_default()
                .insert(e.to.as_str());
        }
        let nodes: Vec<&str> = adj
            .iter()
            .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
        // DFS from every node, recording the path; small graphs only.
        for &start in &nodes {
            let mut path: Vec<&str> = vec![start];
            let mut stack: Vec<Vec<&str>> = vec![adj
                .get(start)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()];
            while let Some(frame) = stack.last_mut() {
                let Some(next) = frame.pop() else {
                    path.pop();
                    stack.pop();
                    continue;
                };
                if next == start {
                    let mut cyc: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    // Canonical rotation: smallest class first.
                    let min = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| c.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cyc.rotate_left(min);
                    cycles.insert(cyc);
                    continue;
                }
                if path.contains(&next) {
                    continue; // cycle not through `start`; found from its own start
                }
                path.push(next);
                stack.push(
                    adj.get(next)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default(),
                );
            }
        }
        cycles.into_iter().collect()
    }

    fn witness(&self, from: &str, to: &str) -> Option<&Edge> {
        self.edges.iter().find(|e| e.from == from && e.to == to)
    }
}

/// Builds the lock-order graph for the whole workspace.
pub fn lock_graph(ws: &Workspace, graph: &CallGraph) -> LockGraph {
    // Pass 1: direct acquisition sites per function.
    let mut sites: Vec<Acquisition> = Vec::new();
    let mut direct: Vec<Vec<usize>> = vec![Vec::new(); graph.fns.len()]; // site indices
    for (id, own) in direct.iter_mut().enumerate() {
        let (file, f) = graph.func(ws, id);
        let Some((open, close)) = f.body else {
            continue;
        };
        for i in open..close {
            if file.lexed.text(i) != "." {
                continue;
            }
            if file.lexed.kind_at(i + 1) != Some(TokKind::Ident) {
                continue;
            }
            let m = file.lexed.text(i + 1);
            if !matches!(m, "lock" | "read" | "write") {
                continue;
            }
            if file.lexed.text_at(i + 2) != "(" || file.lexed.text_at(i + 3) != ")" {
                continue;
            }
            let Some(class) = receiver_name(file, i) else {
                continue;
            };
            own.push(sites.len());
            sites.push(Acquisition {
                func: id,
                tok: i,
                class,
            });
        }
    }

    // Transitive lock footprint of a callee: the classes acquired
    // anywhere in its cone.
    let footprint = |callee: usize| -> BTreeSet<&str> {
        graph
            .cone([callee])
            .keys()
            .flat_map(|&id| direct[id].iter().map(|&s| sites[s].class.as_str()))
            .collect()
    };

    // Pass 2: edges out of every hold region.
    let mut edges: Vec<Edge> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (id, own) in direct.iter().enumerate() {
        let (file, f) = graph.func(ws, id);
        for &si in own {
            let a = &sites[si];
            let hold_end = hold_region_end(file, a.tok);
            // Inner direct acquisitions.
            for &sj in own {
                let b = &sites[sj];
                if b.tok > a.tok
                    && b.tok <= hold_end
                    && seen.insert((a.class.clone(), b.class.clone()))
                {
                    edges.push(Edge {
                        from: a.class.clone(),
                        to: b.class.clone(),
                        path: file.path.clone(),
                        line: file.lexed.line_of(b.tok),
                        in_fn: f.name.clone(),
                        via: None,
                    });
                }
            }
            // Acquisitions inside callees.
            for call in &graph.calls[id] {
                if call.tok <= a.tok || call.tok > hold_end {
                    continue;
                }
                let callee_name = &graph.func(ws, call.callee).1.name;
                for class in footprint(call.callee) {
                    if seen.insert((a.class.clone(), class.to_string())) {
                        edges.push(Edge {
                            from: a.class.clone(),
                            to: class.to_string(),
                            path: file.path.clone(),
                            line: file.lexed.line_of(call.tok),
                            in_fn: f.name.clone(),
                            via: Some(callee_name.clone()),
                        });
                    }
                }
            }
        }
    }
    LockGraph { sites, edges }
}

/// How far the guard acquired at `tok` lives, as a token index.
/// Last token of the region over which the guard acquired at `tok` is
/// held, per Rust's temporary-lifetime rules (also used by the
/// `reactor-blocking` pass to ask what runs under the lock).
pub fn hold_region_end(file: &SourceFile, tok: usize) -> usize {
    let start = parser::statement_start(&file.lexed, tok);
    match file.lexed.text_at(start) {
        // A `let` may bind the guard itself; conservatively hold it to
        // the end of the enclosing block.
        "let" => parser::enclosing_block_end(&file.lexed, tok),
        _ => parser::statement_end(&file.lexed, start),
    }
}

/// The lock's name: the identifier just left of the `.` at `dot`
/// (`self.inbox_tx.lock()` → `inbox_tx`), or the function name for a
/// call-result receiver (`stats().lock()` → `stats`).
fn receiver_name(file: &SourceFile, dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = dot - 1;
    match file.lexed.kind_at(prev) {
        Some(TokKind::Ident) => Some(file.lexed.text(prev).to_string()),
        _ if matches!(file.lexed.text(prev), ")" | "]") => {
            // The name before the group.
            let j = parser::matching_open(&file.lexed, prev);
            (j > 0 && file.lexed.kind_at(j - 1) == Some(TokKind::Ident))
                .then(|| file.lexed.text(j - 1).to_string())
        }
        _ => None,
    }
}

/// Gate entry point: one `lock-order` finding per cycle.
pub fn check(g: &LockGraph) -> Vec<Finding> {
    g.cycles()
        .into_iter()
        .map(|cyc| {
            let mut ring = cyc.clone();
            ring.push(cyc[0].clone());
            let snippet = ring.join(" -> ");
            let mut wits = Vec::new();
            let mut first: Option<&Edge> = None;
            for pair in ring.windows(2) {
                if let Some(e) = g.witness(&pair[0], &pair[1]) {
                    first.get_or_insert(e);
                    let via = e
                        .via
                        .as_ref()
                        .map(|v| format!(" via call to {v}"))
                        .unwrap_or_default();
                    wits.push(format!(
                        "{} -> {} at {}:{} in {}{}",
                        e.from, e.to, e.path, e.line, e.in_fn, via
                    ));
                }
            }
            let (path, line) = first
                .map(|e| (e.path.clone(), e.line))
                .unwrap_or_else(|| ("<unknown>".to_string(), 0));
            Finding {
                rule: RULE,
                path,
                line,
                snippet,
                detail: format!(
                    "lock acquisition order cycle (potential deadlock): {}",
                    wits.join("; ")
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> (Workspace, LockGraph) {
        let ws = Workspace::from_sources(files);
        let cg = CallGraph::build(&ws);
        let g = lock_graph(&ws, &cg);
        (ws, g)
    }

    #[test]
    fn sequential_locks_make_no_edge() {
        let (_, g) = graph_of(&[(
            "crates/net/src/a.rs",
            "fn f(a: &M, b: &M) { a.lock().unwrap().poke(); b.lock().unwrap().poke(); }",
        )]);
        assert_eq!(g.sites.len(), 2);
        assert!(g.edges.is_empty());
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn nested_same_statement_locks_make_an_edge() {
        let (_, g) = graph_of(&[(
            "crates/net/src/a.rs",
            "fn f(a: &M, b: &M) { a.lock().unwrap().push(b.lock().unwrap().pop()); }",
        )]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].from, "a");
        assert_eq!(g.edges[0].to, "b");
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn ab_ba_cycle_detected() {
        let (_, g) = graph_of(&[(
            "crates/net/src/a.rs",
            "fn one(a: &M, b: &M) { if let Some(x) = a.lock().unwrap().take() { b.lock().unwrap().put(x); } }
             fn two(a: &M, b: &M) { if let Some(x) = b.lock().unwrap().take() { a.lock().unwrap().put(x); } }",
        )]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], ["a", "b"]);
    }

    #[test]
    fn cycle_through_call_graph_detected() {
        // `one` holds A and calls `helper`, which takes B; `two` does the
        // reverse — the inversion is invisible file-locally.
        let (_, g) = graph_of(&[
            (
                "crates/net/src/a.rs",
                "fn one(a: &M) { if let Some(x) = a.lock().unwrap().take() { helper(x); } }",
            ),
            (
                "crates/simnet/src/b.rs",
                "pub fn helper(x: u8) { b.lock().unwrap().put(x); }
                 fn two(a: &M, b: &M) { if b.lock().unwrap().full() { back(a); } }
                 fn back(a: &M) { a.lock().unwrap().clear(); }",
            ),
        ]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], ["a", "b"]);
        // Witness attribution names the call.
        let e = g.witness("a", "b").unwrap();
        assert_eq!(e.via.as_deref(), Some("helper"));
    }

    #[test]
    fn self_deadlock_is_a_cycle() {
        let (_, g) = graph_of(&[(
            "crates/net/src/a.rs",
            "fn f(a: &M) { if let Some(x) = a.lock().unwrap().take() { a.lock().unwrap().put(x); } }",
        )]);
        assert_eq!(g.cycles(), [vec!["a".to_string()]]);
    }

    #[test]
    fn io_read_write_with_args_are_not_locks() {
        let (_, g) = graph_of(&[(
            "crates/net/src/a.rs",
            "fn f(s: &mut TcpStream) { s.read(&mut buf).ok(); s.write(&buf).ok(); s.flush().ok(); }",
        )]);
        assert!(g.sites.is_empty());
    }

    #[test]
    fn rwlock_read_then_write_nested_makes_edge() {
        let (_, g) = graph_of(&[(
            "crates/simnet/src/a.rs",
            "fn f(m: &R, w: &R) { let table = m.read().unwrap(); w.write().unwrap().push(table.len()); }",
        )]);
        // `let`-bound guard holds to end of block: read-edge to write.
        assert_eq!(g.edges.len(), 1);
        assert_eq!(
            (g.edges[0].from.as_str(), g.edges[0].to.as_str()),
            ("m", "w")
        );
    }

    #[test]
    fn check_reports_cycles_as_findings() {
        let ws = Workspace::from_sources(&[(
            "crates/net/src/a.rs",
            "fn one(a: &M, b: &M) { a.lock().unwrap().push(b.lock().unwrap().pop()); }
             fn two(a: &M, b: &M) { b.lock().unwrap().push(a.lock().unwrap().pop()); }",
        )]);
        let cg = CallGraph::build(&ws);
        let f = check(&lock_graph(&ws, &cg));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "lock-order");
        assert!(f[0].snippet.contains("a -> b -> a"), "{}", f[0].snippet);
        assert!(f[0].detail.contains("deadlock"));
    }
}
