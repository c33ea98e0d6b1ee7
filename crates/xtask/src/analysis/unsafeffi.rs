//! `unsafe-ffi`: a structured audit of the one module allowed to hold
//! `unsafe` — `crates/net/src/sys.rs`, the raw-syscall bindings behind
//! the reactor.
//!
//! The reactor rewrite concentrated every `unsafe` block into `sys.rs`
//! with hand-maintained pointer/length pairings; this pass turns those
//! conventions into checked invariants:
//!
//! - **containment** — an `unsafe` block (or `unsafe fn`/`impl`/
//!   `trait`) anywhere outside `sys.rs` is a finding, so new unsafe
//!   surface cannot appear unaudited;
//! - **one call per block** — each `unsafe` block wraps exactly one
//!   call expression (the FFI call); compound unsafe logic belongs in
//!   safe wrappers;
//! - **declared FFI only** — the wrapped callee must be declared in one
//!   of the file's `extern "C"` blocks (constructors like
//!   `TcpStream::from_raw_fd` carry a baseline entry explaining their
//!   fd-ownership argument);
//! - **ptr/len pairing** — every `x.as_ptr()` / `x.as_mut_ptr()`
//!   argument must be matched by `x.len()` *on the same base, lexically
//!   within the same statement*, so a pointer can never be paired with
//!   another buffer's length;
//! - **checked or discarded** — the block's result is `cvt`-wrapped
//!   (errno check) or explicitly `let _ =`-discarded in the same
//!   statement;
//! - **inventory** — every block lands in a per-function inventory
//!   emitted under `--json` (`unsafe_ffi_inventory`), so CI diffs
//!   surface any new unsafe surface even when it passes the checks.
//!
//! The inventory covers 100% of the file's `unsafe` blocks by
//! construction (both clean and violating blocks are listed; the
//! integration tests cross-check the count against a raw token scan).

use crate::analysis::callgraph::KEYWORDS;
use crate::analysis::lexer::TokKind;
use crate::analysis::parser::{matching_close, statement_end, statement_start};
use crate::analysis::{Finding, SourceFile, Workspace};

/// The rule id.
pub const RULE: &str = "unsafe-ffi";

/// The one module allowed to contain `unsafe`.
pub const AUDITED_MODULE: &str = "crates/net/src/sys.rs";

/// One audited `unsafe` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InventoryEntry {
    /// Enclosing function (or `<module>`).
    pub func: String,
    /// Workspace-relative path (always [`AUDITED_MODULE`] today).
    pub path: String,
    /// 1-based line of the `unsafe` token.
    pub line: usize,
    /// Full path of the wrapped call (`epoll_wait`,
    /// `TcpStream::from_raw_fd`), or a note when the block is
    /// malformed.
    pub callee: String,
    /// Result/argument discipline, e.g.
    /// `cvt-checked; ptr/len paired (events)`.
    pub check: String,
}

/// Inventory only.
pub fn inventory(ws: &Workspace) -> Vec<InventoryEntry> {
    audit(ws).1
}

/// Runs the audit: containment findings for the whole workspace plus
/// the per-block audit and inventory of the audited module.
pub fn audit(ws: &Workspace) -> (Vec<Finding>, Vec<InventoryEntry>) {
    let mut findings = Vec::new();
    let mut entries = Vec::new();
    for file in &ws.files {
        // The file's `extern "C"` names, scanned at its first block.
        let mut ffi = None;
        for i in file.prod_idents() {
            if file.lexed.text(i) != "unsafe" {
                continue;
            }
            let next = file.lexed.text_at(i + 1);
            if matches!(next, "fn" | "impl" | "trait") {
                findings.push(Finding::at(
                    RULE,
                    file,
                    i,
                    format!(
                        "`unsafe {next}` is outside the audit model — the workspace \
                         confines unsafety to single-FFI-call blocks in {AUDITED_MODULE}"
                    ),
                ));
                continue;
            }
            if next != "{" {
                continue; // `unsafe` in a type position etc.
            }
            if file.path != AUDITED_MODULE {
                findings.push(Finding::at(
                    RULE,
                    file,
                    i,
                    format!(
                        "unsafe block outside the audited FFI module ({AUDITED_MODULE}) — \
                         move the raw operation behind a safe wrapper there so it lands \
                         in the audited inventory"
                    ),
                ));
                continue;
            }
            let ffi = ffi.get_or_insert_with(|| extern_fns(file));
            let (block_findings, entry) = audit_block(file, i, ffi);
            findings.extend(block_findings);
            entries.push(entry);
        }
    }
    (findings, entries)
}

/// Audits one `unsafe { … }` block in the audited module, whose
/// `extern "C"` declarations are `ffi`.
fn audit_block(
    file: &SourceFile,
    unsafe_tok: usize,
    ffi: &[String],
) -> (Vec<Finding>, InventoryEntry) {
    let lexed = &file.lexed;
    let open = unsafe_tok + 1;
    let close = matching_close(lexed, open);
    let mut findings = Vec::new();
    let mut push = |detail: String| findings.push(Finding::at(RULE, file, unsafe_tok, detail));

    // Top-level call expressions inside the block (args skipped).
    let mut calls: Vec<usize> = Vec::new();
    let mut i = open + 1;
    while i < close {
        if lexed.kind_at(i) == Some(TokKind::Ident)
            && lexed.text_at(i + 1) == "("
            && !KEYWORDS.contains(&lexed.text(i))
            && !(i > 0 && lexed.text(i - 1) == "!")
        {
            calls.push(i);
            i = matching_close(lexed, i + 1) + 1;
            continue;
        }
        i += 1;
    }
    let callee = match calls.as_slice() {
        [one] => callee_path(lexed, *one),
        [] => {
            push(
                "unsafe block wraps no call — only single-FFI-call blocks are auditable; \
                 express raw pointer/field logic in safe code outside the block"
                    .to_string(),
            );
            "<no call>".to_string()
        }
        many => {
            push(format!(
                "unsafe block wraps {} calls — split it so each block wraps exactly one \
                 FFI call and its result discipline is auditable",
                many.len()
            ));
            callee_path(lexed, many[0])
        }
    };
    if calls.len() == 1 && !ffi.contains(&lexed.text(calls[0]).to_string()) {
        push(format!(
            "`{callee}` is not declared in this file's `extern \"C\"` block — the audit \
             can only vouch for known FFI signatures; baseline non-FFI unsafe (e.g. fd \
             constructors) with the ownership argument written down"
        ));
    }

    // Statement context: pairing + result discipline. Climb out of any
    // wrapping call's parentheses (`cvt(unsafe { … })`) so the whole
    // statement — `let _ = cvt(…)…;` — is in view.
    let mut stmt_start = statement_start(lexed, unsafe_tok);
    while stmt_start > 0 && lexed.text(stmt_start - 1) == "(" {
        stmt_start = statement_start(lexed, stmt_start - 1);
    }
    let stmt_end = statement_end(lexed, stmt_start);
    let mut paired_bases: Vec<String> = Vec::new();
    let mut has_ptr_args = false;
    for j in stmt_start..=stmt_end.min(lexed.len().saturating_sub(1)) {
        let t = lexed.text(j);
        if (t == "as_ptr" || t == "as_mut_ptr") && lexed.text_at(j + 1) == "(" {
            has_ptr_args = true;
            let base = if j >= 2
                && lexed.text(j - 1) == "."
                && lexed.kind_at(j - 2) == Some(TokKind::Ident)
            {
                lexed.text(j - 2).to_string()
            } else {
                push(format!(
                    "`.{t}()` whose base is not a plain binding — bind the slice to a \
                     local first so the pointer/length provenance is checkable"
                ));
                continue;
            };
            let len_matched = (stmt_start..stmt_end).any(|k| {
                lexed.is_ident(k, &base)
                    && lexed.text_at(k + 1) == "."
                    && lexed.is_ident(k + 2, "len")
                    && lexed.text_at(k + 3) == "("
            });
            if len_matched {
                if !paired_bases.contains(&base) {
                    paired_bases.push(base);
                }
            } else {
                push(format!(
                    "pointer argument `{base}.{t}()` has no matching `{base}.len()` in \
                     the same statement — pair every slice pointer with its own length \
                     so a resize or copy-paste cannot cross the streams"
                ));
            }
        }
    }
    let result = if (stmt_start..unsafe_tok).any(|k| lexed.is_ident(k, "cvt")) {
        "cvt-checked"
    } else if lexed.text_at(stmt_start) == "let" && lexed.text_at(stmt_start + 1) == "_" {
        "result discarded"
    } else {
        push(
            "unsafe block result is neither `cvt`-checked nor `let _ =`-discarded — \
             every FFI return carries an errno path that must be acknowledged"
                .to_string(),
        );
        "unchecked"
    };

    let ptrs = if !has_ptr_args {
        "no pointer args".to_string()
    } else if paired_bases.is_empty() {
        "unpaired ptr args".to_string()
    } else {
        format!("ptr/len paired ({})", paired_bases.join(", "))
    };
    let entry = InventoryEntry {
        func: enclosing_fn(file, unsafe_tok),
        path: file.path.clone(),
        line: lexed.line_of(unsafe_tok),
        callee,
        check: format!("{result}; {ptrs}"),
    };
    (findings, entry)
}

/// Names declared inside the file's `extern "C"` blocks.
fn extern_fns(file: &SourceFile) -> Vec<String> {
    let lexed = &file.lexed;
    let mut out = Vec::new();
    let mut i = 0;
    while i < lexed.len() {
        if lexed.is_ident(i, "extern") && lexed.kind_at(i + 1) == Some(TokKind::Str) {
            // Find the block open.
            let mut j = i + 2;
            while j < lexed.len() && lexed.text(j) != "{" && lexed.text(j) != ";" {
                j += 1;
            }
            if lexed.text_at(j) == "{" {
                let close = matching_close(lexed, j);
                for k in j..close {
                    if lexed.is_ident(k, "fn") && lexed.kind_at(k + 1) == Some(TokKind::Ident) {
                        out.push(lexed.text(k + 1).to_string());
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// The full path of the call at `tok` (`TcpStream::from_raw_fd`).
fn callee_path(lexed: &crate::analysis::lexer::Lexed, tok: usize) -> String {
    let mut segs = vec![lexed.text(tok).to_string()];
    let mut i = tok;
    while i >= 3 && lexed.is_path_sep(i - 2) && lexed.kind_at(i - 3) == Some(TokKind::Ident) {
        segs.push(lexed.text(i - 3).to_string());
        i -= 3;
    }
    segs.reverse();
    segs.join("::")
}

/// Name of the function whose body contains `tok`.
fn enclosing_fn(file: &SourceFile, tok: usize) -> String {
    file.items
        .funcs
        .iter()
        .rev()
        .find(|f| f.body.is_some_and(|(o, c)| o <= tok && tok <= c))
        .map(|f| f.name.clone())
        .unwrap_or_else(|| "<module>".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXTERN: &str = "extern \"C\" { fn read(fd: i32, buf: *mut u8, n: usize) -> isize; \
                          fn close(fd: i32) -> i32; }";

    #[test]
    fn clean_block_inventories_without_findings() {
        let src = format!(
            "{EXTERN} fn drain(fd: i32, buf: &mut [u8]) {{ \
               let _ = cvt(unsafe {{ read(fd, buf.as_mut_ptr(), buf.len()) }}); }}"
        );
        let w = Workspace::from_sources(&[("crates/net/src/sys.rs", &src)]);
        let (findings, inv) = audit(&w);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].func, "drain");
        assert_eq!(inv[0].callee, "read");
        assert_eq!(inv[0].check, "cvt-checked; ptr/len paired (buf)");
    }

    #[test]
    fn unpaired_ptr_len_is_flagged() {
        let src = format!(
            "{EXTERN} fn drain(fd: i32, a: &mut [u8], b: &[u8]) {{ \
               let _ = cvt(unsafe {{ read(fd, a.as_mut_ptr(), b.len()) }}); }}"
        );
        let w = Workspace::from_sources(&[("crates/net/src/sys.rs", &src)]);
        let (findings, inv) = audit(&w);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].detail.contains("no matching `a.len()`"));
        assert_eq!(inv[0].check, "cvt-checked; unpaired ptr args");
    }

    #[test]
    fn unchecked_result_is_flagged() {
        let src = format!("{EXTERN} fn shut(fd: i32) {{ unsafe {{ close(fd) }}; }}");
        let w = Workspace::from_sources(&[("crates/net/src/sys.rs", &src)]);
        let (findings, _) = audit(&w);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].detail.contains("neither `cvt`-checked"));
    }

    #[test]
    fn discarded_result_is_accepted() {
        let src = format!("{EXTERN} fn shut(fd: i32) {{ let _ = unsafe {{ close(fd) }}; }}");
        let w = Workspace::from_sources(&[("crates/net/src/sys.rs", &src)]);
        let (findings, inv) = audit(&w);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(inv[0].check, "result discarded; no pointer args");
    }

    #[test]
    fn multiple_calls_in_one_block_are_flagged() {
        let src =
            format!("{EXTERN} fn both(fd: i32) {{ let _ = unsafe {{ close(fd); close(fd) }}; }}");
        let w = Workspace::from_sources(&[("crates/net/src/sys.rs", &src)]);
        let (findings, _) = audit(&w);
        assert!(findings.iter().any(|f| f.detail.contains("wraps 2 calls")));
    }

    #[test]
    fn non_ffi_callee_is_flagged() {
        let src = format!(
            "{EXTERN} fn adopt(fd: i32) -> TcpStream {{ \
               unsafe {{ TcpStream::from_raw_fd(fd) }} }}"
        );
        let w = Workspace::from_sources(&[("crates/net/src/sys.rs", &src)]);
        let (findings, inv) = audit(&w);
        assert!(findings
            .iter()
            .any(|f| f.detail.contains("not declared in this file's")));
        assert_eq!(inv[0].callee, "TcpStream::from_raw_fd");
    }

    #[test]
    fn unsafe_outside_the_module_is_contained() {
        let w = Workspace::from_sources(&[(
            "crates/core/src/stack.rs",
            "fn sneak(p: *const u8) -> u8 { unsafe { *p } }",
        )]);
        let (findings, inv) = audit(&w);
        assert_eq!(findings.len(), 1);
        assert!(findings[0]
            .detail
            .contains("outside the audited FFI module"));
        assert!(inv.is_empty());
    }

    #[test]
    fn unsafe_fn_is_flagged_everywhere() {
        let w = Workspace::from_sources(&[("crates/net/src/sys.rs", "unsafe fn raw() {}")]);
        let (findings, _) = audit(&w);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].detail.contains("`unsafe fn`"));
    }

    #[test]
    fn test_code_is_exempt() {
        let w = Workspace::from_sources(&[(
            "crates/core/src/stack.rs",
            "#[cfg(test)] mod tests { fn t(p: *const u8) -> u8 { unsafe { *p } } }",
        )]);
        let (findings, _) = audit(&w);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
