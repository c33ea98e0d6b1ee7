//! `reactor-blocking`: never stall a shard.
//!
//! The reactor multiplexes every connection of a shard on one epoll
//! loop; a single blocking call inside that loop stalls *all* of the
//! shard's links (and, transitively, every node whose frames route
//! through them). The dynamic tests only catch a stall if a schedule
//! happens to hit it, so this pass encodes the rule statically:
//!
//! - **Roots** — code that runs on a shard thread: the shard event loop
//!   itself (`Shard::run`) and the inbound decode callback invoked from
//!   it (`DecodeSink::on_frame`). The cone is the call-graph closure of
//!   those roots, with the same documented receiver-typing limits as
//!   the other passes.
//! - **Blocking operations** — `JoinHandle::join`, channel `recv`
//!   (and `recv_timeout` / `recv_deadline`), condvar `wait*`,
//!   `thread::sleep`, blocking I/O (`write_all`, `read_exact`,
//!   `read_to_end`, `read_to_string`), and `TcpStream::connect` (the
//!   reactor connects non-blockingly through `sys`). Each occurrence in
//!   a CFG-reachable statement of a cone function is a finding.
//! - **Locks across syscalls** — a `Mutex`/`RwLock` acquisition (as
//!   classified by the lock-order analysis) whose hold region contains
//!   a `sys::…` syscall keeps other threads out of the lock for the
//!   duration of kernel I/O; on a shard thread that couples unrelated
//!   connections' latency, so it is flagged too.

use crate::analysis::callgraph::{root_cone, CallGraph, Cone, Root};
use crate::analysis::locks::{self, LockGraph};
use crate::analysis::{Finding, SourceFile, Workspace};

/// The rule id.
pub const RULE: &str = "reactor-blocking";

/// Code that runs on shard threads: the event loop and the inbound
/// decode callback.
pub const SHARD_ROOTS: &[Root] = &[
    Root {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "run",
    },
    Root {
        path: "crates/net/src/node.rs",
        owner: Some("DecodeSink"),
        name: "on_frame",
    },
];

const BLOCKING_METHODS: &[&str] = &[
    "join",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_timeout",
    "wait_while",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
];

/// Runs the pass over the workspace.
pub fn check(ws: &Workspace, graph: &CallGraph, locks: &LockGraph) -> Vec<Finding> {
    check_with_roots(ws, graph, locks, SHARD_ROOTS)
}

/// Runs the pass with an explicit root set (unit tests inject theirs).
pub fn check_with_roots(
    ws: &Workspace,
    graph: &CallGraph,
    locks: &LockGraph,
    roots: &[Root],
) -> Vec<Finding> {
    let (cone, mut findings) = root_cone(ws, graph, roots, RULE);
    findings.extend(graph.scan_cone(ws, &cone, RULE, |file, i, qname| {
        let op = blocking_at(file, i)?;
        Some(format!(
            "blocking call `{op}` in `{qname}` runs on a shard thread \
             (reachable from the shard-callback roots); a stalled shard \
             stalls every connection it multiplexes — use the reactor's \
             non-blocking equivalents or move the work off-shard"
        ))
    }));
    findings.extend(locks_across_syscalls(ws, graph, locks, &cone));
    findings
}

/// If token `i` heads a blocking operation, the operation name.
fn blocking_at(file: &SourceFile, i: usize) -> Option<String> {
    let lexed = &file.lexed;
    if lexed.kind_at(i) != Some(crate::analysis::lexer::TokKind::Ident)
        || lexed.text_at(i + 1) != "("
    {
        return None;
    }
    let name = lexed.text(i);
    if i > 0 && lexed.text(i - 1) == "." {
        if BLOCKING_METHODS.contains(&name) {
            return Some(format!(".{name}()"));
        }
        return None;
    }
    if name == "sleep" {
        return Some("thread::sleep".to_string());
    }
    if name == "connect" && i >= 3 && lexed.is_path_sep(i - 2) && lexed.text(i - 3) == "TcpStream" {
        return Some("TcpStream::connect".to_string());
    }
    None
}

/// Lock acquisitions in the shard cone whose hold region contains a
/// `sys::…` syscall.
fn locks_across_syscalls(
    ws: &Workspace,
    graph: &CallGraph,
    locks: &LockGraph,
    cone: &Cone,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for site in &locks.sites {
        if !cone.contains_key(&site.func) {
            continue;
        }
        let (file, _) = graph.func(ws, site.func);
        let end = locks::hold_region_end(file, site.tok);
        let syscall = (site.tok..=end.min(file.lexed.len().saturating_sub(1)))
            .find(|&j| file.lexed.is_ident(j, "sys") && file.lexed.is_path_sep(j + 1));
        if let Some(j) = syscall {
            let callee = file.lexed.text_at(j + 3);
            out.push(Finding::at(
                RULE,
                file,
                site.tok,
                format!(
                    "lock `{}` is held across the `sys::{callee}` syscall on a shard \
                     thread — kernel I/O under a lock couples unrelated connections' \
                     latency; drop the guard before the syscall",
                    site.class
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &[Root] = &[Root {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "run",
    }];

    #[test]
    fn blocking_calls_in_the_cone_are_flagged() {
        let w = Workspace::from_sources(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) { self.drain(); } \
                          fn drain(&mut self) { let m = self.rx.recv(); sleep(d); } }",
        )]);
        let g = CallGraph::build(&w);
        let f = check_with_roots(&w, &g, &locks::lock_graph(&w, &g), ROOT);
        let ops: Vec<&str> = f
            .iter()
            .map(|f| f.detail.split('`').nth(1).unwrap())
            .collect();
        assert_eq!(ops, [".recv()", "thread::sleep"]);
    }

    #[test]
    fn blocking_off_the_shard_is_fine() {
        let w = Workspace::from_sources(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) {} } \
             fn driver_thread(rx: R) { let m = rx.recv(); }",
        )]);
        let g = CallGraph::build(&w);
        assert!(check_with_roots(&w, &g, &locks::lock_graph(&w, &g), ROOT).is_empty());
    }

    #[test]
    fn lock_held_across_syscall_is_flagged() {
        let w = Workspace::from_sources(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) { \
                let q = self.queue.lock().unwrap(); \
                sys::write_fd(fd, q.head()); \
             } }",
        )]);
        let g = CallGraph::build(&w);
        let f = check_with_roots(&w, &g, &locks::lock_graph(&w, &g), ROOT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("held across"), "{}", f[0].detail);
        assert!(f[0].detail.contains("sys::write_fd"), "{}", f[0].detail);
    }

    #[test]
    fn lock_released_before_syscall_is_fine() {
        let w = Workspace::from_sources(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) { \
                { let q = self.queue.lock().unwrap(); q.head(); } \
                sys::write_fd(fd, b); \
             } }",
        )]);
        let g = CallGraph::build(&w);
        assert!(check_with_roots(&w, &g, &locks::lock_graph(&w, &g), ROOT).is_empty());
    }
}
