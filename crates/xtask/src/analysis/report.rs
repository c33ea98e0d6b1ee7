//! Output formats for analysis findings.
//!
//! Three renderings of the same finding list:
//!
//! - **human** — one block per finding with the offending line and the
//!   explanation, plus a trailing count;
//! - **json** (`--json`) — a stable machine-readable object for tooling;
//!   hand-rolled because the workspace builds offline without serde;
//! - **github** (`--github`) — `::error file=…,line=…::…` workflow
//!   commands so CI findings land as inline annotations on the PR diff.

use crate::analysis::unsafeffi::InventoryEntry;
use crate::analysis::Finding;
use std::fmt::Write as _;

/// Output format selector, mapped from the CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Plain text for terminals.
    Human,
    /// Machine-readable JSON on stdout.
    Json,
    /// GitHub Actions workflow commands (annotations).
    Github,
}

/// Renders the findings in the chosen format. The returned string is
/// complete output including the trailing newline (empty findings render
/// an empty-but-valid document in every format). The JSON document also
/// carries the unsafe-FFI inventory as its `unsafe_ffi_inventory` array
/// (the schema is specified in `docs/lint-json-schema.md`); human and
/// GitHub output leave it out — the inventory is machine-diff material,
/// not annotation material.
pub fn render(findings: &[Finding], inventory: &[InventoryEntry], format: Format) -> String {
    match format {
        Format::Human => human(findings),
        Format::Json => json(findings, inventory),
        Format::Github => github(findings),
    }
}

fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "error[{}]: {}", f.rule, f.detail);
        let _ = writeln!(out, "  --> {}:{}", f.path, f.line);
        let _ = writeln!(out, "   | {}", f.snippet);
    }
    if findings.is_empty() {
        out.push_str("lint: no findings\n");
    } else {
        let _ = writeln!(out, "lint: {} finding(s)", findings.len());
    }
    out
}

fn json(findings: &[Finding], inventory: &[InventoryEntry]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"path\":{},\"line\":{},\"snippet\":{},\"detail\":{}}}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.snippet),
            json_str(&f.detail)
        );
    }
    let _ = write!(out, "],\"count\":{}", findings.len());
    let _ = write!(out, ",\"unsafe_ffi_inventory\":[");
    for (i, e) in inventory.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"func\":{},\"path\":{},\"line\":{},\"callee\":{},\"check\":{}}}",
            json_str(&e.func),
            json_str(&e.path),
            e.line,
            json_str(&e.callee),
            json_str(&e.check)
        );
    }
    out.push_str("]}\n");
    out
}

fn github(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        // Workflow-command syntax: properties escape % : , and newlines;
        // the message escapes % and newlines.
        let _ = writeln!(
            out,
            "::error file={},line={},title=lint {}::{}",
            gh_prop(&f.path),
            f.line,
            gh_prop(f.rule),
            gh_msg(&format!("{} — {}", f.detail, f.snippet))
        );
    }
    out
}

/// Escapes a string as a JSON string literal, quotes included.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn gh_msg(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn gh_prop(s: &str) -> String {
    gh_msg(s).replace(':', "%3A").replace(',', "%2C")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "wire-panic",
            path: "crates/net/src/frame.rs".to_string(),
            line: 42,
            snippet: "let x = buf[..n];".to_string(),
            detail: "non-literal index \"slice\"".to_string(),
        }]
    }

    #[test]
    fn human_lists_findings_and_count() {
        let out = render(&sample(), &[], Format::Human);
        assert!(out.contains("error[wire-panic]"));
        assert!(out.contains("crates/net/src/frame.rs:42"));
        assert!(out.contains("1 finding(s)"));
        assert_eq!(render(&[], &[], Format::Human), "lint: no findings\n");
    }

    #[test]
    fn json_is_escaped_and_countable() {
        let out = render(&sample(), &[], Format::Json);
        assert!(out.contains("\"count\":1"));
        assert!(out.contains("\\\"slice\\\""), "{out}");
        assert!(out.ends_with("}\n"));
        assert_eq!(
            render(&[], &[], Format::Json),
            "{\"findings\":[],\"count\":0,\"unsafe_ffi_inventory\":[]}\n"
        );
    }

    #[test]
    fn json_inventory_is_emitted() {
        let inv = vec![InventoryEntry {
            func: "drain".to_string(),
            path: "crates/net/src/sys.rs".to_string(),
            line: 9,
            callee: "read".to_string(),
            check: "cvt-checked; ptr/len paired (buf)".to_string(),
        }];
        let out = render(&[], &inv, Format::Json);
        assert!(
            out.contains("\"unsafe_ffi_inventory\":[{\"func\":\"drain\""),
            "{out}"
        );
        assert!(out.contains("\"callee\":\"read\""));
        // Human/GitHub output is unchanged by the inventory.
        assert_eq!(render(&[], &inv, Format::Human), "lint: no findings\n");
        assert_eq!(render(&[], &inv, Format::Github), "");
    }

    #[test]
    fn github_annotations_escape_newlines() {
        let mut f = sample();
        f[0].detail = "two\nlines".to_string();
        let out = render(&f, &[], Format::Github);
        assert!(out.starts_with("::error file=crates/net/src/frame.rs,line=42"));
        assert!(out.contains("two%0Alines"));
        assert!(!out.trim_end().contains('\n'), "one annotation per line");
    }
}
