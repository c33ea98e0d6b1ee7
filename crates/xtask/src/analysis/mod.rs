//! The workspace static analyzer behind `cargo xtask lint`.
//!
//! Layered as: [`lexer`] (token stream) → [`parser`] (function table,
//! `#[cfg(test)]` spans) → [`callgraph`] (shallow intra-workspace call
//! graph) → the analyses:
//!
//! | Rule | What it proves |
//! |---|---|
//! | `determinism` ([`rules`]) | the sans-IO protocol crates take no wall-clock or entropy |
//! | `wire-panic` ([`wirepanic`]) | no panic site is reachable from a decode entry point fed attacker bytes |
//! | `lock-order` ([`locks`]) | the cross-crate `Mutex` acquisition-order graph is acyclic (no static deadlock) |
//! | `layering` ([`layering`]) | `StackWire`/`Command` variants are constructed and consumed only by their declared layers, and nothing outside the runtimes touches `Transport` |
//! | `hotpath-alloc` ([`hotpath`]) | no heap allocation is reachable from the declared flood-path roots |
//! | `reactor-blocking` ([`blocking`]) | no blocking call (or lock held across a syscall) runs on a shard thread |
//! | `unsafe-ffi` ([`unsafeffi`]) | every `unsafe` block is a single, ptr/len-paired, result-checked FFI call in `net/src/sys.rs`, listed in the `--json` inventory |
//! | `bounded-growth` ([`growth`]) | every growable collection field in long-lived protocol state has a shrink site reachable from a declared stability/ack/GC/teardown root |
//! | `atomic-ordering` ([`atomics`]) | `Relaxed` only on pure counters; guard atomics use Acquire/Release pairs and CAS sites spell out sound success/failure orderings |
//! | `wire-symmetry` ([`wiresym`]) | each codec's tag→variant maps agree between encode and decode, tag values are unique per family, and field orders match |
//!
//! The statement-level dataflow passes (`hotpath-alloc`,
//! `reactor-blocking`) share the [`mod@cfg`] layer: a per-function
//! statement CFG with branch/loop/early-return edges and a generic
//! reachable-facts walker. The state passes (`bounded-growth`,
//! `atomic-ordering`) share the [`fields`] layer: a workspace field
//! table with container/atomic classification and per-field operation
//! sites.
//!
//! [`RULES`] is the one list of rules: [`run`] executes their passes in
//! table order over a [`Context`] that builds the call graph, the field
//! table, the lock graph and the unsafe audit once per run.
//!
//! Vetted exceptions live in the committed `lint-allow.toml` baseline
//! ([`allow`]); stale entries fail the gate so the baseline cannot rot.
//! Output formats (human, `--json`, `--github` annotations) are in
//! [`report`].

pub mod allow;
pub mod atomics;
pub mod blocking;
pub mod callgraph;
pub mod cfg;
pub mod fields;
pub mod growth;
pub mod hotpath;
pub mod layering;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod report;
pub mod rules;
pub mod unsafeffi;
pub mod wirepanic;
pub mod wiresym;

use allow::AllowList;
use callgraph::CallGraph;
use fields::FieldTable;
use lexer::{Lexed, TokKind};
use locks::LockGraph;
use parser::FileItems;
use std::cell::OnceCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use unsafeffi::InventoryEntry;

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line (or cycle summary), trimmed.
    pub snippet: String,
    /// Human explanation: what is wrong and why it matters.
    pub detail: String,
}

impl Finding {
    /// A finding at token `tok` of `file`: the token's line, with that
    /// source line as the snippet.
    pub fn at(rule: &'static str, file: &SourceFile, tok: usize, detail: String) -> Finding {
        Finding {
            rule,
            path: file.path.clone(),
            line: file.lexed.line_of(tok),
            snippet: file.lexed.line_text(tok).to_string(),
            detail,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.path, self.line, self.rule, self.snippet, self.detail
        )
    }
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The crate this file belongs to (`net` for `crates/net/src/…`,
    /// `root` for the top-level `src/`).
    pub crate_name: String,
    /// Token stream.
    pub lexed: Lexed,
    /// Function table and test spans.
    pub items: FileItems,
}

impl SourceFile {
    /// Indices of the identifier tokens outside `#[cfg(test)]` spans,
    /// in source order — the production code the token-scanning rules
    /// inspect.
    pub fn prod_idents(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.lexed.len())
            .filter(|&i| self.lexed.kind_at(i) == Some(TokKind::Ident) && !self.items.in_test(i))
    }
}

/// The parsed workspace: every `.rs` under `crates/*/src/` and `src/`.
#[derive(Debug)]
pub struct Workspace {
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile>,
}

fn crate_of(path: &str) -> String {
    match path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or("unknown").to_string(),
        None => "root".to_string(),
    }
}

/// The root of the workspace this crate is built in.
pub fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

impl Workspace {
    /// Builds a workspace from in-memory `(path, source)` pairs — the
    /// fixture tests seed known-bad snippets through this without
    /// touching the filesystem.
    pub fn from_sources(sources: &[(impl AsRef<str>, impl AsRef<str>)]) -> Self {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, src)| {
                let (path, lexed) = (path.as_ref(), Lexed::new(src.as_ref()));
                let items = parser::parse(&lexed);
                SourceFile {
                    crate_name: crate_of(path),
                    path: path.to_string(),
                    lexed,
                    items,
                }
            })
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Loads and parses the real workspace rooted at `root`: library
    /// sources only (`crates/*/src/**`, `src/**`) — integration tests,
    /// examples, benches, and `shims/` are out of scope for the gate.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut sources = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            for entry in std::fs::read_dir(&crates_dir)? {
                let src_dir = entry?.path().join("src");
                if src_dir.is_dir() {
                    collect_rs(&src_dir, &mut sources)?;
                }
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            collect_rs(&root_src, &mut sources)?;
        }
        let rel_sources = sources
            .into_iter()
            .map(|p| {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                std::fs::read_to_string(&p).map(|s| (rel, s))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Workspace::from_sources(&rel_sources))
    }

    /// The parsed file at `path`, if present.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The shared structures of one run, built once and borrowed by every
/// pass.
pub struct Context<'w> {
    /// The parsed workspace.
    pub ws: &'w Workspace,
    /// The workspace call graph.
    pub graph: CallGraph,
    /// The struct-field table with per-field operation sites.
    pub fields: FieldTable,
    /// The lock-order graph (`lock-order`, `reactor-blocking`).
    pub locks: LockGraph,
    /// The `unsafe` audit, built on first use so its cost lands in the
    /// `unsafe-ffi` timing row.
    unsafe_audit: OnceCell<(Vec<Finding>, Vec<InventoryEntry>)>,
}

impl Context<'_> {
    /// The `unsafe` audit: containment and per-block findings plus the
    /// inventory emitted under `--json`.
    pub fn unsafe_audit(&self) -> &(Vec<Finding>, Vec<InventoryEntry>) {
        self.unsafe_audit.get_or_init(|| unsafeffi::audit(self.ws))
    }
}

/// One entry in the rule table: the machine-readable inventory behind
/// `cargo xtask lint --list-rules` (CI consumes this instead of a
/// hand-maintained list that silently drifts) and the pass that
/// produces the rule's findings.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule id as it appears on findings.
    pub id: &'static str,
    /// One-line summary of what the rule proves.
    pub summary: &'static str,
    /// The pass; `None` for `stale-allow`, which the baseline emits.
    pub pass: Option<fn(&Context<'_>) -> Vec<Finding>>,
}

/// Every rule the analyzer runs, in the order the passes execute, plus
/// the baseline-hygiene pseudo-rule `stale-allow` last.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: rules::RULE,
        summary: "sans-IO protocol crates take no wall-clock or entropy",
        pass: Some(|cx| rules::determinism(cx.ws)),
    },
    RuleInfo {
        id: layering::RULE,
        summary: "wire/command variants cross only their declared layer boundaries",
        pass: Some(|cx| layering::check(cx.ws)),
    },
    RuleInfo {
        id: wirepanic::RULE,
        summary: "no panic site reachable from a decode entry point fed attacker bytes",
        pass: Some(|cx| wirepanic::audit(cx.ws, &cx.graph)),
    },
    RuleInfo {
        id: locks::RULE,
        summary: "the cross-crate Mutex acquisition-order graph is acyclic",
        pass: Some(|cx| locks::check(&cx.locks)),
    },
    RuleInfo {
        id: hotpath::RULE,
        summary: "no heap allocation reachable from the declared flood-path roots",
        pass: Some(|cx| hotpath::check(cx.ws, &cx.graph)),
    },
    RuleInfo {
        id: blocking::RULE,
        summary: "no blocking call or lock-across-syscall on a shard thread",
        pass: Some(|cx| blocking::check(cx.ws, &cx.graph, &cx.locks)),
    },
    RuleInfo {
        id: unsafeffi::RULE,
        summary: "every unsafe block is a single audited FFI call in net/src/sys.rs",
        pass: Some(|cx| cx.unsafe_audit().0.clone()),
    },
    RuleInfo {
        id: growth::RULE,
        summary: "long-lived protocol state shrinks on a reachable stability/GC/teardown path",
        pass: Some(|cx| growth::check(cx.ws, &cx.graph, &cx.fields)),
    },
    RuleInfo {
        id: atomics::RULE,
        summary: "Relaxed only on pure counters; guard atomics use sound Acquire/Release pairs",
        pass: Some(|cx| atomics::check(cx.ws, &cx.fields)),
    },
    RuleInfo {
        id: wiresym::RULE,
        summary: "codec tag maps agree between encode and decode, with matching field orders",
        pass: Some(|cx| wiresym::check(cx.ws)),
    },
    RuleInfo {
        id: allow::RULE,
        summary: "baseline hygiene: lint-allow.toml entries that match nothing fail the gate",
        pass: None,
    },
];

/// One wall-clock measurement: a pass, or a shared structure of the
/// [`Context`].
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Pass (or shared-infrastructure) name.
    pub name: &'static str,
    /// Elapsed wall-clock.
    pub elapsed: Duration,
}

fn timed<T>(timings: &mut Vec<PassTiming>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    timings.push(PassTiming {
        name,
        elapsed: start.elapsed(),
    });
    out
}

/// Everything one run produces.
#[derive(Debug)]
pub struct Analysis {
    /// Findings left after the baseline, sorted by (rule, path, line).
    pub findings: Vec<Finding>,
    /// The audited `unsafe` blocks, emitted under `--json`.
    pub inventory: Vec<InventoryEntry>,
    /// Per-pass wall-clock — shared infrastructure (the call graph,
    /// the field table, the lock graph) gets its own rows so a slow
    /// pass is attributed, not averaged away.
    pub timings: Vec<PassTiming>,
}

/// Runs every pass in [`RULES`] order and applies the baseline:
/// findings matched by an allow entry are suppressed; allow entries
/// that matched nothing become `stale-allow` findings so the baseline
/// cannot outlive its reasons.
pub fn run(ws: &Workspace, allow_list: &AllowList) -> Analysis {
    let mut timings = Vec::new();
    let graph = timed(&mut timings, "callgraph", || CallGraph::build(ws));
    let cx = Context {
        ws,
        fields: timed(&mut timings, "fields", || FieldTable::build(ws)),
        locks: timed(&mut timings, "locks", || locks::lock_graph(ws, &graph)),
        graph,
        unsafe_audit: OnceCell::new(),
    };
    let mut raw = Vec::new();
    for rule in RULES {
        if let Some(pass) = rule.pass {
            raw.extend(timed(&mut timings, rule.id, || pass(&cx)));
        }
    }
    let mut findings = allow_list.apply(raw);
    // The documented order, (rule, path, line): stable across runs and
    // machines so downstream tooling can diff outputs.
    findings.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    Analysis {
        findings,
        inventory: cx.unsafe_audit().1.clone(),
        timings,
    }
}

/// [`run`]'s findings.
pub fn analyze(ws: &Workspace, allow_list: &AllowList) -> Vec<Finding> {
    run(ws, allow_list).findings
}

/// Runs every analysis with no baseline applied. Findings are sorted by
/// (rule, path, line).
pub fn analyze_raw(ws: &Workspace) -> Vec<Finding> {
    analyze(ws, &AllowList::empty())
}
