//! The committed findings baseline: `lint-allow.toml`.
//!
//! Every suppressed finding is a vetted exception with its shielding
//! argument written down next to it. Entries are narrow — rule + path +
//! a substring of the offending line — so an unrelated new finding in
//! the same file still fails the gate. And suppression is two-way: an
//! entry that matches nothing becomes a `stale-allow` finding, so the
//! baseline shrinks when the code it excuses is fixed instead of
//! rotting into a blanket waiver.
//!
//! The format is the obvious TOML subset (parsed here by hand — the
//! workspace builds offline with no TOML crate):
//!
//! ```toml
//! [[allow]]
//! rule = "wire-panic"
//! path = "crates/net/src/frame.rs"
//! contains = "header.len"
//! reason = "length is checked against MAX_FRAME_LEN two lines above"
//! ```
//!
//! `rule` and `path` are required (`path` is a prefix match so one entry
//! can cover a directory); `contains` narrows to lines containing the
//! substring; `reason` is required prose — an excuse-free baseline entry
//! is itself rejected at parse time.

use crate::analysis::Finding;
use std::path::Path;

/// The baseline-hygiene pseudo-rule: an entry that matched nothing.
pub const RULE: &str = "stale-allow";

/// One vetted exception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the entry suppresses.
    pub rule: String,
    /// Path prefix the entry applies to.
    pub path: String,
    /// Substring of the offending line; empty matches any line.
    pub contains: String,
    /// Why the finding is acceptable.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in the baseline file.
    pub line: usize,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        f.rule == self.rule
            && f.path.starts_with(&self.path)
            && (self.contains.is_empty()
                || f.snippet.contains(&self.contains)
                || f.detail.contains(&self.contains))
    }
}

/// The parsed baseline.
#[derive(Debug, Default)]
pub struct AllowList {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
    /// Name the baseline is reported under in `stale-allow` findings.
    pub source: String,
}

impl AllowList {
    /// An empty baseline (used when `lint-allow.toml` does not exist).
    pub fn empty() -> Self {
        AllowList::default()
    }

    /// Loads `lint-allow.toml` from the workspace `root`; no file means
    /// an empty baseline.
    ///
    /// # Errors
    ///
    /// Returns the read error or the parse error, prefixed with the file.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("lint-allow.toml");
        if !path.is_file() {
            return Ok(AllowList::empty());
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        AllowList::parse("lint-allow.toml", &text).map_err(|e| format!("lint-allow.toml:{e}"))
    }

    /// Parses the TOML subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a `line: message` string for malformed lines, unknown
    /// keys, or entries missing `rule`/`path`/`reason`.
    pub fn parse(source: &str, text: &str) -> Result<Self, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut open: Option<AllowEntry> = None;
        let finish = |open: &mut Option<AllowEntry>,
                      entries: &mut Vec<AllowEntry>|
         -> Result<(), String> {
            if let Some(e) = open.take() {
                for (field, value) in [("rule", &e.rule), ("path", &e.path), ("reason", &e.reason)]
                {
                    if value.is_empty() {
                        return Err(format!(
                            "{}: entry is missing required key `{field}`",
                            e.line
                        ));
                    }
                }
                entries.push(e);
            }
            Ok(())
        };
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                finish(&mut open, &mut entries)?;
                open = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    contains: String::new(),
                    reason: String::new(),
                    line: lineno,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "{lineno}: expected `key = \"value\"`, got `{line}`"
                ));
            };
            let entry = open
                .as_mut()
                .ok_or_else(|| format!("{lineno}: key outside any [[allow]] table"))?;
            let value = parse_string(value.trim())
                .ok_or_else(|| format!("{lineno}: value must be a double-quoted string"))?;
            match key.trim() {
                "rule" => entry.rule = value,
                "path" => entry.path = value,
                "contains" => entry.contains = value,
                "reason" => entry.reason = value,
                other => return Err(format!("{lineno}: unknown key `{other}`")),
            }
        }
        finish(&mut open, &mut entries)?;
        Ok(AllowList {
            entries,
            source: source.to_string(),
        })
    }

    /// Applies the baseline: matched findings are suppressed; entries
    /// that matched nothing come back as `stale-allow` findings.
    pub fn apply(&self, raw: Vec<Finding>) -> Vec<Finding> {
        let mut used = vec![false; self.entries.len()];
        let mut out: Vec<Finding> = raw
            .into_iter()
            .filter(|f| {
                let mut suppressed = false;
                for (i, e) in self.entries.iter().enumerate() {
                    if e.matches(f) {
                        used[i] = true;
                        suppressed = true;
                    }
                }
                !suppressed
            })
            .collect();
        for (i, e) in self.entries.iter().enumerate() {
            if !used[i] {
                out.push(Finding {
                    rule: RULE,
                    path: self.source.clone(),
                    line: e.line,
                    snippet: format!("rule = \"{}\", path = \"{}\"", e.rule, e.path),
                    detail: format!(
                        "baseline entry matched no finding — the code it excused was fixed; \
                         delete the entry (reason was: {})",
                        e.reason
                    ),
                });
            }
        }
        out
    }
}

/// Parses a double-quoted TOML basic string with `\"` and `\\` escapes.
fn parse_string(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = inner.chars();
    loop {
        match chars.next()? {
            '"' => {
                // Only trailing comments/whitespace may follow.
                let rest = chars.as_str().trim();
                return (rest.is_empty() || rest.starts_with('#')).then_some(out);
            }
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line: 7,
            snippet: snippet.to_string(),
            detail: String::new(),
        }
    }

    const BASELINE: &str = r#"
# vetted exceptions
[[allow]]
rule = "wire-panic"
path = "crates/net/src/frame.rs"
contains = "header.len"
reason = "bounded by MAX_FRAME_LEN check"

[[allow]]
rule = "lock-order"
path = "crates/net/src/"
reason = "documented ordering"
"#;

    #[test]
    fn matching_findings_are_suppressed() {
        let al = AllowList::parse("lint-allow.toml", BASELINE).unwrap();
        let out = al.apply(vec![
            finding("wire-panic", "crates/net/src/frame.rs", "x + header.len"),
            finding("lock-order", "crates/net/src/conn.rs", "a -> b -> a"),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn near_miss_findings_survive() {
        let al = AllowList::parse("lint-allow.toml", BASELINE).unwrap();
        let out = al.apply(vec![
            // same file, different line content: not covered
            finding("wire-panic", "crates/net/src/frame.rs", "buf[..n]"),
            // same content, different rule: not covered
            finding("determinism", "crates/net/src/frame.rs", "x + header.len"),
        ]);
        // 2 survivors + 1 stale entry (the lock-order one matched nothing)
        let survivors: Vec<_> = out.iter().filter(|f| f.rule != "stale-allow").collect();
        assert_eq!(survivors.len(), 2, "{out:?}");
    }

    #[test]
    fn unused_entries_become_stale_allow_findings() {
        let al = AllowList::parse("lint-allow.toml", BASELINE).unwrap();
        let out = al.apply(vec![finding(
            "wire-panic",
            "crates/net/src/frame.rs",
            "x + header.len",
        )]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "stale-allow");
        assert_eq!(out[0].path, "lint-allow.toml");
        assert!(out[0].detail.contains("documented ordering"));
    }

    #[test]
    fn reason_is_mandatory() {
        let bad = "[[allow]]\nrule = \"x\"\npath = \"y\"\n";
        let err = AllowList::parse("lint-allow.toml", bad).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(AllowList::parse("f", "rule = \"x\"").is_err()); // outside table
        assert!(AllowList::parse("f", "[[allow]]\nrule = unquoted\n").is_err());
        assert!(AllowList::parse("f", "[[allow]]\nnope = \"x\"\n").is_err());
        assert!(AllowList::parse("f", "[[allow]]\nrule\n").is_err());
    }

    #[test]
    fn quoted_strings_with_escapes_and_comments() {
        let src = "[[allow]]\nrule = \"a\"\npath = \"b\" # trailing comment\nreason = \"say \\\"why\\\"\"\n";
        let al = AllowList::parse("f", src).unwrap();
        assert_eq!(al.entries[0].reason, "say \"why\"");
        assert_eq!(al.entries[0].path, "b");
    }
}
