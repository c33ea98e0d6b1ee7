//! `atomic-ordering`: `Relaxed` only for pure counters.
//!
//! `causal-net` holds its cross-thread state in `std::sync::atomic`
//! cells: stats counters feeding `NetSnapshot`, and *guard* atomics
//! whose value gates access to other memory — the CAS
//! Idle→Connecting→Up link mode machine, the dirty flag paired with
//! the queue mutex, the shutdown latches. The two classes have
//! opposite ordering disciplines, and this pass tells them apart
//! statically:
//!
//! - a field is a **counter** iff every operation on it (crate-wide,
//!   grouped by field name) is `load` / `fetch_add` / `fetch_sub`.
//!   Counters are monotone telemetry; `Relaxed` is legal and cheapest.
//! - anything else is a **guard**: a `store`, `swap`, CAS, or boolean
//!   `fetch_*` publishes state some other thread will act on, so the
//!   ops need paired orderings — loads `Acquire`/`SeqCst`, stores
//!   `Release`/`SeqCst`, read-modify-writes `AcqRel`/`SeqCst`, and
//!   every `compare_exchange[_weak]` / `fetch_update` an explicit
//!   success ordering in {`AcqRel`, `SeqCst`} *and* failure ordering
//!   in {`Acquire`, `SeqCst`}.
//!
//! Sites whose orderings the token scan cannot resolve (an ordering
//! passed through a variable, a missing failure argument) are findings
//! too — per the analyzer convention, unresolvable means flagged, not
//! ignored. Single-writer advisory protocols that deliberately run
//! `Relaxed` (the shard-owned `conn_token`) carry reasoned
//! `lint-allow.toml` entries.
//!
//! Scope is `crates/net/src/` — the sans-IO core is single-threaded by
//! construction (the determinism rule keeps it free of `std::sync`
//! imports), so only the net layer has atomics to classify.

use crate::analysis::fields::{FieldKind, FieldTable, OpSite, ATOMIC_METHODS};
use crate::analysis::{Finding, Workspace};
use std::collections::BTreeMap;

/// One atomic operation on a field: the site, the method, its orderings.
type AtomicOp<'a> = (&'a OpSite, &'a str, &'a [String]);

/// The rule id.
pub const RULE: &str = "atomic-ordering";

const SCOPE: &str = "crates/net/src/";

fn is_counter_op(m: &str) -> bool {
    matches!(m, "load" | "fetch_add" | "fetch_sub")
}

fn load_ok(o: &str) -> bool {
    matches!(o, "Acquire" | "SeqCst")
}

fn store_ok(o: &str) -> bool {
    matches!(o, "Release" | "SeqCst")
}

fn rmw_ok(o: &str) -> bool {
    matches!(o, "AcqRel" | "SeqCst")
}

/// Runs the pass over every atomic field in `crates/net/src/`.
pub fn check(ws: &Workspace, fields: &FieldTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Atomic field names declared in net (field name → declared, per the
    // crate-wide name-based attribution the field table uses).
    let mut atomic_fields: BTreeMap<&str, ()> = BTreeMap::new();
    for s in &fields.structs {
        if !ws.files[s.file].path.starts_with(SCOPE) {
            continue;
        }
        for f in &s.fields {
            if matches!(f.kind, FieldKind::Atomic(_)) {
                atomic_fields.insert(f.name.as_str(), ());
            }
        }
    }
    // Group every atomic op site by field name.
    let mut by_field: BTreeMap<&str, Vec<AtomicOp<'_>>> = BTreeMap::new();
    for op in &fields.ops {
        if !ws.files[op.file].path.starts_with(SCOPE)
            || !atomic_fields.contains_key(op.field.as_str())
        {
            continue;
        }
        for (m, ords) in &op.methods {
            if ATOMIC_METHODS.contains(&m.as_str()) {
                by_field.entry(op.field.as_str()).or_default().push((
                    op,
                    m.as_str(),
                    ords.as_slice(),
                ));
            }
        }
    }
    for (field, sites) in by_field {
        if sites.iter().all(|(_, m, _)| is_counter_op(m)) {
            continue; // pure counter: Relaxed is legal
        }
        for (op, method, ords) in sites {
            let bad = match method {
                "compare_exchange" | "compare_exchange_weak" | "fetch_update" => {
                    if ords.len() < 2 {
                        Some(format!(
                            "`{field}.{method}` must spell out both orderings — success in \
                             {{AcqRel, SeqCst}} and failure in {{Acquire, SeqCst}} — but only \
                             {} ordering identifier(s) are visible at this site",
                            ords.len()
                        ))
                    } else if !rmw_ok(&ords[0]) || !load_ok(&ords[1]) {
                        Some(format!(
                            "`{field}.{method}({}, {})`: a guard CAS needs success ∈ {{AcqRel, \
                             SeqCst}} and failure ∈ {{Acquire, SeqCst}} so the winner's \
                             prior writes are visible to the loser",
                            ords[0], ords[1]
                        ))
                    } else {
                        None
                    }
                }
                "load" => match ords.first() {
                    Some(o) if load_ok(o) => None,
                    o => Some(format!(
                        "`{field}.load({})` on a guard atomic: the load must be Acquire (or \
                         SeqCst) to see the writes published before the matching Release store",
                        o.map_or("<unresolved>", |s| s.as_str())
                    )),
                },
                "store" => match ords.first() {
                    Some(o) if store_ok(o) => None,
                    o => Some(format!(
                        "`{field}.store({})` on a guard atomic: the store must be Release (or \
                         SeqCst) to publish the writes made before it",
                        o.map_or("<unresolved>", |s| s.as_str())
                    )),
                },
                _ => match ords.first() {
                    // swap / fetch_and / fetch_or / … on a guard: full RMW.
                    Some(o) if rmw_ok(o) => None,
                    o => Some(format!(
                        "`{field}.{method}({})` on a guard atomic: a read-modify-write that \
                         gates other memory needs AcqRel (or SeqCst)",
                        o.map_or("<unresolved>", |s| s.as_str())
                    )),
                },
            };
            if let Some(mut detail) = bad {
                detail.push_str(
                    "; this field is a guard (it sees stores/CAS somewhere in the crate), \
                     not a NetSnapshot counter — if the protocol is deliberately advisory, \
                     say why in lint-allow.toml",
                );
                findings.push(Finding::at(RULE, &ws.files[op.file], op.tok, detail));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[("crates/net/src/conn.rs", src)]);
        let fields = FieldTable::build(&ws);
        check(&ws, &fields)
    }

    #[test]
    fn pure_counter_relaxed_is_clean() {
        let f = run("struct S { frames: AtomicU64 }\n\
             impl S {\n\
               fn bump(&self) { self.frames.fetch_add(1, Ordering::Relaxed); }\n\
               fn read(&self) -> u64 { self.frames.load(Ordering::Relaxed) }\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_with_relaxed_sites_is_flagged() {
        let f = run("struct S { dirty: AtomicBool }\n\
             impl S {\n\
               fn set(&self) { self.dirty.store(true, Ordering::Relaxed); }\n\
               fn get(&self) -> bool { self.dirty.load(Ordering::Relaxed) }\n\
             }");
        // The store makes `dirty` a guard; both sites are then wrong.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.detail.contains("must be Release")));
        assert!(f.iter().any(|x| x.detail.contains("must be Acquire")));
    }

    #[test]
    fn well_ordered_guard_is_clean() {
        let f = run("struct S { mode: AtomicU8 }\n\
             impl S {\n\
               fn begin(&self) -> bool {\n\
                 self.mode.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).is_ok()\n\
               }\n\
               fn get(&self) -> u8 { self.mode.load(Ordering::Acquire) }\n\
               fn set(&self, m: u8) { self.mode.store(m, Ordering::Release); }\n\
               fn flip(&self) { self.mode.swap(2, Ordering::AcqRel); }\n\
             }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cas_with_bad_failure_ordering_is_flagged() {
        let f = run("struct S { mode: AtomicU8 }\n\
             impl S {\n\
               fn begin(&self) -> bool {\n\
                 self.mode.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_ok()\n\
               }\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("failure"), "{}", f[0].detail);
    }

    #[test]
    fn core_files_are_out_of_scope() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/x.rs",
            "struct S { flag: AtomicBool }\n\
             impl S { fn set(&self) { self.flag.store(true, Ordering::Relaxed); } }",
        )]);
        let fields = FieldTable::build(&ws);
        assert!(check(&ws, &fields).is_empty());
    }
}
