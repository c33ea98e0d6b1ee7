//! `wire-symmetry`: every codec's encode and decode agree.
//!
//! The workspace's codecs follow one idiom: a block of `const TAG_*:
//! u8 = N;` values, an encode `match` whose arms `out.push(TAG_X)`
//! then write fields, and a decode `match get_u8(input)? { TAG_X =>
//! Ok(Enum::Variant(…)), … }`. A tag that encodes but never decodes is
//! a frame the peer cannot parse; one that decodes but never encodes
//! is dead protocol surface (or a fossil the fuzzers never reach); two
//! tags sharing a value silently alias frames; and an encode arm that
//! writes fields in a different order than the decode arm reads them
//! corrupts every frame of that variant.
//!
//! The pass activates per file containing tag consts (the codecs:
//! `core/wire.rs`, `pcbcast/codec.rs`; `net/frame.rs` uses length
//! prefixes, not tags, so it contributes nothing here and that is
//! fine). Tags are grouped into **families** by their first two
//! `_`-segments (`TAG_SW`, `TAG_RB`, `TAG_LB`) — `wire.rs` holds two
//! independent codecs whose values overlap legitimately.
//!
//! Field order is compared structurally: the identifiers in the encode
//! arm body versus the decode arm body, minus keywords,
//! uppercase-initial names (types, variants, tag consts), call names,
//! path-qualified names, and buffer/cursor noise (`out`, `input`, …).
//! What survives is exactly the field names (`token`, `delivered`,
//! `cum`, dotted accesses like `.seq`) in write/read order; the
//! deduped intersection of the two sequences must agree.

use crate::analysis::callgraph::KEYWORDS;
use crate::analysis::lexer::{Lexed, TokKind};
use crate::analysis::parser::matching_close;
use crate::analysis::{Finding, SourceFile, Workspace};
use std::collections::BTreeMap;

/// The rule id.
pub const RULE: &str = "wire-symmetry";

/// Identifiers that are buffer/cursor plumbing, never field names.
const NOISE: &[&str] = &["out", "input", "got", "len", "n", "buf", "bytes", "_"];

#[derive(Debug)]
struct Tag {
    name: String,
    value: Option<u64>,
    line: usize,
    /// Encode side: (variant if resolved, arm-body idents, line).
    encode: Option<(Option<String>, Vec<String>, usize)>,
    /// Decode side: same shape.
    decode: Option<(Option<String>, Vec<String>, usize)>,
}

/// Runs the pass over every codec file in the workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        check_file(file, &mut findings);
    }
    findings
}

fn family_of(name: &str) -> String {
    name.split('_').take(2).collect::<Vec<_>>().join("_")
}

fn check_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let lexed = &file.lexed;
    let mut tags: BTreeMap<String, Tag> = BTreeMap::new();
    // 1. Tag const definitions: `const TAG_X: u8 = N;`
    for i in file.prod_idents() {
        if lexed.text(i) != "const"
            || lexed.kind_at(i + 1) != Some(TokKind::Ident)
            || !lexed.text(i + 1).starts_with("TAG_")
        {
            continue;
        }
        let name = lexed.text(i + 1).to_string();
        // `const TAG_X : u8 = N ;` — the value is the token after `=`.
        let value = (i..lexed.len().min(i + 8))
            .find(|&j| lexed.text_at(j) == "=")
            .and_then(|j| lexed.text_at(j + 1).parse::<u64>().ok());
        let line = lexed.line_of(i + 1);
        tags.insert(
            name.clone(),
            Tag {
                name,
                value,
                line,
                encode: None,
                decode: None,
            },
        );
    }
    if tags.is_empty() {
        return;
    }
    // 2. Encode and decode sites.
    for i in file.prod_idents() {
        let t = lexed.text(i);
        if !t.starts_with("TAG_") || !tags.contains_key(t) {
            continue;
        }
        if lexed.text_at(i.wrapping_sub(1)) == "(" && lexed.is_ident(i.wrapping_sub(2), "push") {
            // Encode: `…push(TAG_X)` inside a match arm.
            let site = extract_encode_arm(lexed, i);
            let tag = tags.get_mut(t).expect("checked");
            if tag.encode.is_none() {
                tag.encode = site;
            }
        } else if lexed.text_at(i + 1) == "=" && lexed.text_at(i + 2) == ">" {
            // Decode: `TAG_X => …` match arm.
            let site = extract_decode_arm(lexed, i);
            let tag = tags.get_mut(t).expect("checked");
            if tag.decode.is_none() {
                tag.decode = site;
            }
        }
    }
    // 3. Checks, per family.
    let mut families: BTreeMap<String, Vec<&Tag>> = BTreeMap::new();
    for tag in tags.values() {
        families.entry(family_of(&tag.name)).or_default().push(tag);
    }
    let mut push = |line: usize, snippet: String, detail: String| {
        findings.push(Finding {
            rule: RULE,
            path: file.path.clone(),
            line,
            snippet,
            detail,
        })
    };
    for (family, members) in &families {
        // Duplicate values within a family.
        let mut seen: BTreeMap<u64, &str> = BTreeMap::new();
        for tag in members {
            let Some(v) = tag.value else { continue };
            if let Some(first) = seen.get(&v) {
                push(
                    tag.line,
                    format!("const {}: u8 = {v};", tag.name),
                    format!(
                        "`{}` reuses wire value {v} already taken by `{first}` in family \
                         `{family}` — two frame kinds alias on the wire and the decoder can \
                         only ever see one of them",
                        tag.name
                    ),
                );
            } else {
                seen.insert(v, &tag.name);
            }
        }
        for tag in members {
            let name = &tag.name;
            match (&tag.encode, &tag.decode) {
                (Some((_, _, line)), None) => push(
                    *line,
                    format!("out.push({name})"),
                    format!(
                        "`{name}` is encoded but never decoded in this codec — peers receive a \
                         frame they can only reject as InvalidTag"
                    ),
                ),
                (None, Some((_, _, line))) => push(
                    *line,
                    format!("{name} => …"),
                    format!(
                        "`{name}` is decoded but never encoded in this codec — dead protocol \
                         surface no test or fuzzer can reach through the encoder; remove the \
                         arm or add the missing encode"
                    ),
                ),
                (Some((Some(ev), e_ids, line)), Some((Some(dv), d_ids, _))) => {
                    // Shared fields, in each side's order.
                    let e_common: Vec<&str> = common(e_ids, d_ids);
                    let d_common: Vec<&str> = common(d_ids, e_ids);
                    if ev != dv {
                        push(
                            *line,
                            format!("{name} ↦ {ev} / {dv}"),
                            format!(
                                "`{name}` encodes variant `{ev}` but decodes variant `{dv}` — \
                                 the round trip changes the message's meaning"
                            ),
                        );
                    } else if e_common != d_common {
                        push(
                            *line,
                            format!("{name} ({ev})"),
                            format!(
                                "encode writes fields as [{}] but decode reads them as [{}] — \
                                 the shared fields must be written and read in the same wire \
                                 order or every `{ev}` frame decodes corrupted",
                                e_common.join(", "),
                                d_common.join(", "),
                            ),
                        );
                    }
                }
                _ => {} // unused tag, or variant unresolved on a side
            }
        }
    }
}

/// The entries of `ids` that `other` also has, in `ids`' order.
fn common<'a>(ids: &'a [String], other: &[String]) -> Vec<&'a str> {
    ids.iter()
        .filter(|x| other.contains(x))
        .map(String::as_str)
        .collect()
}

/// From the `TAG_X` token inside `out.push(TAG_X)`, finds the enclosing
/// match arm: backward to its `=>`, then the variant path before the
/// arrow; forward over the arm body for the field identifiers.
fn extract_encode_arm(
    lexed: &Lexed,
    tag_tok: usize,
) -> Option<(Option<String>, Vec<String>, usize)> {
    let line = lexed.line_of(tag_tok);
    // Backward, bounded: the arrow `=` `>` closest before the push.
    let mut arrow = None;
    let lo = tag_tok.saturating_sub(80);
    let mut j = tag_tok;
    while j > lo {
        j -= 1;
        if lexed.text(j) == "=" && lexed.text_at(j + 1) == ">" {
            arrow = Some(j);
            break;
        }
    }
    let arrow = arrow?;
    // Variant: the path `A :: B` closest before the arrow.
    let mut variant = None;
    let vlo = arrow.saturating_sub(80);
    let mut k = arrow;
    while k > vlo + 2 {
        k -= 1;
        if lexed.is_path_sep(k.wrapping_sub(2)) && lexed.kind_at(k) == Some(TokKind::Ident) {
            variant = Some(lexed.text(k).to_string());
            break;
        }
    }
    let end = arm_end(lexed, arrow + 2);
    Some((variant, field_idents(lexed, arrow + 2, end), line))
}

/// From the `TAG_X` token heading a decode arm (`TAG_X => …`), the
/// produced variant (the last segment of the first path after `Ok(`)
/// and the arm-body field identifiers.
fn extract_decode_arm(
    lexed: &Lexed,
    tag_tok: usize,
) -> Option<(Option<String>, Vec<String>, usize)> {
    let line = lexed.line_of(tag_tok);
    let body = tag_tok + 3; // past `=` `>`
    let end = arm_end(lexed, body);
    let mut variant = None;
    let mut p = body;
    while p < end {
        if lexed.is_ident(p, "Ok") && lexed.text_at(p + 1) == "(" {
            // Follow the path chain: `A :: B :: C(…)` → `C`.
            let mut q = p + 2;
            while lexed.kind_at(q) == Some(TokKind::Ident) && lexed.is_path_sep(q + 1) {
                q += 3;
            }
            if lexed.kind_at(q) == Some(TokKind::Ident) {
                variant = Some(lexed.text(q).to_string());
            }
            break;
        }
        p += 1;
    }
    Some((variant, field_idents(lexed, body, end), line))
}

/// End of the match arm whose body starts at `body`: the matching `}`
/// for a block arm, else the depth-0 `,` (or the end of the match).
fn arm_end(lexed: &Lexed, body: usize) -> usize {
    if lexed.text_at(body) == "{" {
        return matching_close(lexed, body);
    }
    let mut p = body;
    while p < lexed.len() {
        match lexed.text(p) {
            "(" | "[" | "{" => p = matching_close(lexed, p),
            "," => return p,
            ")" | "]" | "}" => return p, // end of the surrounding match
            _ => {}
        }
        p += 1;
    }
    p
}

/// The field identifiers in an arm body, in order: idents minus
/// keywords, uppercase-initial names, call names, path-qualified
/// names, and buffer noise — deduped keeping first occurrence.
fn field_idents(lexed: &Lexed, from: usize, until: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for i in from..until.min(lexed.len()) {
        if lexed.kind_at(i) != Some(TokKind::Ident) {
            continue;
        }
        let t = lexed.text(i);
        if KEYWORDS.contains(&t)
            || NOISE.contains(&t)
            || t.starts_with(|c: char| c.is_ascii_uppercase())
            || lexed.text_at(i + 1) == "("
            || lexed.is_path_sep(i + 1)
            || lexed.is_path_sep(i.wrapping_sub(2))
        {
            continue;
        }
        if !out.iter().any(|x| x == t) {
            out.push(t.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[("crates/core/src/wire.rs", src)]);
        check(&ws)
    }

    const SYMMETRIC: &str = "\
        const TAG_FX_A: u8 = 0;\n\
        const TAG_FX_B: u8 = 1;\n\
        impl W {\n\
          fn encode(&self, out: &mut Vec<u8>) {\n\
            match self {\n\
              W::Alpha { token, cum } => {\n\
                out.push(TAG_FX_A);\n\
                out.extend_from_slice(&token.to_le_bytes());\n\
                out.extend_from_slice(&cum.to_le_bytes());\n\
              }\n\
              W::Beta => out.push(TAG_FX_B),\n\
            }\n\
          }\n\
          fn decode(input: &mut &[u8]) -> Result<W, E> {\n\
            match get_u8(input)? {\n\
              TAG_FX_A => Ok(W::Alpha {\n\
                token: get_u64_le(input)?,\n\
                cum: get_u64_le(input)?,\n\
              }),\n\
              TAG_FX_B => Ok(W::Beta),\n\
              got => Err(E::InvalidTag { got }),\n\
            }\n\
          }\n\
        }\n";

    #[test]
    fn symmetric_codec_is_clean() {
        let f = run(SYMMETRIC);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn encoded_not_decoded_and_vice_versa() {
        let f = run("const TAG_FX_A: u8 = 0;\n\
             const TAG_FX_B: u8 = 1;\n\
             fn enc(w: &W, out: &mut Vec<u8>) { match w { W::Alpha => out.push(TAG_FX_A) } }\n\
             fn dec(input: &mut &[u8]) -> Result<W, E> {\n\
               match get_u8(input)? { TAG_FX_B => Ok(W::Beta), got => Err(E::Bad { got }) }\n\
             }");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.detail.contains("never decoded")));
        assert!(f.iter().any(|x| x.detail.contains("never encoded")));
    }

    #[test]
    fn duplicate_value_in_family_is_flagged() {
        let f = run("const TAG_FX_A: u8 = 0;\nconst TAG_FX_B: u8 = 0;\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].detail.contains("reuses wire value 0"),
            "{}",
            f[0].detail
        );
    }

    #[test]
    fn same_value_across_families_is_fine() {
        let f = run("const TAG_AA_X: u8 = 0;\nconst TAG_BB_Y: u8 = 0;\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn variant_mismatch_is_flagged() {
        let f = run("const TAG_FX_A: u8 = 0;\n\
             fn enc(w: &W, out: &mut Vec<u8>) { match w { W::Alpha => out.push(TAG_FX_A) } }\n\
             fn dec(input: &mut &[u8]) -> Result<W, E> {\n\
               match get_u8(input)? { TAG_FX_A => Ok(W::Beta), got => Err(E::Bad { got }) }\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].detail.contains("changes the message's meaning"),
            "{}",
            f[0].detail
        );
    }

    #[test]
    fn field_order_disagreement_is_flagged() {
        let f = run("const TAG_FX_A: u8 = 0;\n\
             fn enc(w: &W, out: &mut Vec<u8>) {\n\
               match w {\n\
                 W::Alpha { token, cum } => {\n\
                   out.push(TAG_FX_A);\n\
                   out.extend_from_slice(&token.to_le_bytes());\n\
                   out.extend_from_slice(&cum.to_le_bytes());\n\
                 }\n\
               }\n\
             }\n\
             fn dec(input: &mut &[u8]) -> Result<W, E> {\n\
               match get_u8(input)? {\n\
                 TAG_FX_A => {\n\
                   let cum = get_u64_le(input)?;\n\
                   let token = get_u64_le(input)?;\n\
                   Ok(W::Alpha { token, cum })\n\
                 }\n\
                 got => Err(E::Bad { got }),\n\
               }\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("same wire order"), "{}", f[0].detail);
    }

    #[test]
    fn test_code_tags_are_ignored() {
        let f = run("const TAG_FX_A: u8 = 0;\n\
             #[cfg(test)] mod tests {\n\
               fn poke(out: &mut Vec<u8>) { out.push(TAG_FX_A); }\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }
}
